"""The one writer of every file sqglab produces: CLI data files, manifests
and resonance certificates."""

from __future__ import annotations

import os


def temp_path(path) -> str:
    """The temp file ``write_text`` writes before renaming it onto ``path``."""
    return f"{path}.tmp"


def write_text(path, text: str) -> None:
    """Write ``text`` to ``temp_path(path)`` and rename it onto ``path``; a
    failed write or rename removes the temp file.  Newlines are written as
    ``\\n`` on every platform, so the bytes do not depend on the host."""
    tmp = temp_path(path)
    handle = open(tmp, "w", newline="")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
