"""Run one ``sqglab`` CLI job in this process and record when its work began.

    python3 perfbench/jobhost.py --record REC.json [--trace] [--stop-at-work] -- SQGLAB-ARGS...

The record holds ``t_main`` (``time.monotonic`` when the CLI's ``main`` was
entered, after ``import sqglab.cli``) and ``t_work`` (when the subcommand
first entered the library function that does its work, after argument and
config parsing).  ``time.monotonic`` reads one system-wide clock, so the
parent subtracts its own launch time from these to get the set-up time.
With ``--stop-at-work`` the job ends at that point: a set-up probe.  With
``--trace`` the layer spans of ``tracing.TARGETS`` are recorded too.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time

#: Library entry point(s) where each subcommand's work starts.
WORK_ENTRIES = {
    "normalform": (("sqglab.evolve", "lifespan_experiment"),),
    "evolve": (("sqglab.evolve", "run"),),
    "resonance": (("sqglab.resonance", "min_denominator"),
                  ("sqglab.resonance", "search_resonances_p6")),
    "waves": (("sqglab.waves", "continue_branch"),),
}


class _StopAtWork(BaseException):
    """Raised at the work entry of a set-up probe; passes every CLI handler."""


def run_job(argv: list, trace: bool = False, stop_at_work: bool = False) -> dict:
    """Run ``sqglab <argv>`` here; return its exit code, marks, spans and absent names."""
    import sqglab.cli as cli

    record = {"t_main": None, "t_work": None, "spans": [], "absent": []}
    undo = []

    def marker(fn):
        @functools.wraps(fn)
        def entered(*args, **kwargs):
            if record["t_work"] is None:
                record["t_work"] = time.monotonic()
                if stop_at_work:
                    raise _StopAtWork
            return fn(*args, **kwargs)

        return entered

    for module_name, attr in WORK_ENTRIES.get(argv[0], ()):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue  # renamed away: set-up then ends at the entry of ``main``
        if hasattr(module, attr):
            undo.append((module, attr, getattr(module, attr)))
            setattr(module, attr, marker(getattr(module, attr)))

    tracer = None
    if trace:
        from tracing import Tracer  # only traced jobs pay for importing the tracer

        tracer = Tracer()
    try:
        if tracer is not None:
            tracer.install()
        record["t_main"] = time.monotonic()
        try:
            record["code"] = cli.main(argv)
        except _StopAtWork:
            record["code"] = 0
    finally:
        if tracer is not None:
            tracer.uninstall()
            record["spans"] = tracer.spans
            record["absent"] = sorted(tracer.absent)
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)
    if record["t_work"] is None:
        record["t_work"] = record["t_main"]
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--stop-at-work", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    record = run_job(argv, trace=args.trace, stop_at_work=args.stop_at_work)
    with open(args.record, "w") as handle:
        json.dump(record, handle)
    return record["code"]


if __name__ == "__main__":
    sys.exit(main())
