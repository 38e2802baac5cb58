"""Command-line entry point: one subcommand per laboratory module.

A run writes its data files plus a ``<output>.manifest.json`` recording
the subcommand, a SHA-256 of the configuration, the tool version, the seed
and the wall time.  Data outputs are byte-deterministic for a fixed
(subcommand, config, seed, version): floats are printed with 17 significant
digits and exact rationals as "p/q" strings.  Files are written atomically
(temp file + rename).

A run config (``evolve``, ``normalform``) is a JSON object, read once by
``validate_config``: it fills in the defaults of ``evolve.SimConfig``, takes
the subcommand's own field and rejects every other key; the manifest
digests the bytes it parsed.  Every rule on the values lives in
``evolve.config_problems``, which ``SimConfig`` enforces for library
callers too.  The rules of a ``normalform`` sweep live in
``evolve.sweep_problems``, which ``lifespan_experiment`` enforces.  The
arguments of ``waves`` and ``resonance`` are checked by the library
functions they call, with the same number rules; ``dispersion`` bounds its
``n_max`` by ``dispersion.MAX_TABLE_MODE``.  An ``evolve`` restart state
(``initial_state``) must be a ``SpectralField.to_dict`` on the configured
lattice.  Exit code 2 means a bad config, restart state, arguments or
output path, naming each offending field or option, before any work
starts (an output whose last path component is empty, ``.`` or ``..``, as
in ``--out ""`` or ``--out-prefix d/``, included).  Exit code 1 means the
run failed: an unwritable output, an instability or a stepping worker that
died.  Either way ``main`` prints one ``error:`` line and writes no
manifest.

Each subcommand imports the library module it runs (``evolve``,
``resonance``, ``waves``) when it runs, and the package imports ``field``
on first use, so a job loads only what it uses.
The manifest's digest comes from the interpreter's built-in SHA-256
(``_manifest_sha256``), so no job maps OpenSSL, which ``hashlib`` would load.
Handlers call through the module attribute (``resonance.min_denominator``),
so a wrapper installed on that name sees the call.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from . import __version__
from .dispersion import MAX_TABLE_MODE, MIN_MODE, dispersion, smoothing_symbol

if TYPE_CHECKING:
    from . import evolve


class ConfigError(ValueError):
    """Invalid configuration; the message names every offending field."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``<path>.tmp`` and rename it onto ``path``; a failed
    write or rename removes the temp file."""
    tmp = f"{path}.tmp"
    handle = open(tmp, "w", newline="")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _write_csv(path: str, header: list, rows: list) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write_text(path, buffer.getvalue())


def _write_json(path: str, data: dict) -> None:
    _atomic_write_text(path, json.dumps(data, sort_keys=True, indent=2) + "\n")


def _manifest_sha256():
    """The SHA-256 constructor of the built-in module, else of ``hashlib``.

    Importing ``hashlib`` maps OpenSSL, about 3.7 MB resident on x86-64
    Linux with Python 3.11; the built-in module maps almost nothing.  It is ``_sha2`` from Python 3.12 and
    ``_sha256`` before; a build without it falls back to ``hashlib``.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def emit_manifest(
    primary_output: str,
    subcommand: str,
    config_bytes: bytes,
    outputs: list,
    seed: int | None,
    started: float,
) -> str:
    """Write the run manifest next to the primary output; returns its path."""
    sha256 = _manifest_sha256()
    path = f"{primary_output}.manifest.json"
    _write_json(
        path,
        {
            "subcommand": subcommand,
            "config_sha256": sha256(config_bytes).hexdigest(),
            "version": __version__,
            "wall_time_seconds": time.monotonic() - started,
            "outputs": [os.path.basename(p) for p in outputs],
            "seed": seed,
        },
    )
    return path


def validate_config(path: str, subcommand: str) -> tuple:
    """Read the JSON run config of ``subcommand`` once and check it.

    Missing ``SimConfig`` fields take their defaults; of the other keys only
    the subcommand's own field is accepted: ``initial_state`` for
    ``evolve``, ``eps_list`` for ``normalform``.  Raises ConfigError naming
    each violated field.  Returns the ``SimConfig``, a dict of the own field
    (an ``evolve`` restart state loaded as a ``SpectralField``, or None) and
    the bytes parsed, for the manifest's digest.
    """
    from . import evolve

    try:
        with open(path, "rb") as handle:
            config_bytes = handle.read()
        # decoded as the text read of this host would, so a BOM is rejected
        raw = json.loads(config_bytes.decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be a JSON object")

    defaults = {f.name: f.default for f in dataclasses.fields(evolve.SimConfig)}
    own = {"evolve": {"initial_state": None},
           "normalform": {"eps_list": [0.1, 0.05, 0.025]}}[subcommand]
    unknown = raw.keys() - defaults.keys() - own.keys()
    problems = [f"{key}: unknown field" for key in unknown]
    values = {name: raw.get(name, default) for name, default in defaults.items()}
    extras = {name: raw.get(name, default) for name, default in own.items()}
    problems += evolve.config_problems(values)
    if subcommand == "normalform":
        problems += evolve.sweep_problems(
            extras["eps_list"], values["corrected_energies"], values["linear_only"]
        )
    elif not isinstance(extras["initial_state"], (str, type(None))):
        problems.append("initial_state: must be a file path")
    if problems:
        raise ConfigError(f"invalid config {path}: " + "; ".join(sorted(problems)))
    sim = evolve.SimConfig(**values)
    if extras.get("initial_state") is not None:
        from .field import SpectralField

        try:
            with open(extras["initial_state"]) as handle:
                data = json.load(handle)
            if not isinstance(data, dict):
                raise ValueError("top level must be a JSON object")
            # the lattice first: the config's is bounded, the file's is not
            lattice = (data.get("m"), data.get("n_max"))
            if lattice != (sim.m, sim.n_max):
                raise ValueError(f"lattice (m, n_max) = {lattice} does not match "
                                 f"the config's ({sim.m}, {sim.n_max})")
            extras["initial_state"] = SpectralField.from_dict(data)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"initial_state: {exc}") from exc
    return sim, extras, config_bytes


def _arguments(args, *names) -> bytes:
    """The named arguments as sorted-key JSON: a manifest's config."""
    return json.dumps({name: getattr(args, name) for name in names},
                      sort_keys=True).encode()


def _trajectory_rows(trajectory: evolve.Trajectory, prefix: tuple = ()) -> list:
    from . import evolve

    columns = [trajectory.times, *map(trajectory.column, evolve.DIAGNOSTIC_COLUMNS)]
    return [[*prefix, *map(_fmt, row)] for row in zip(*columns)]


_TRAJ_HEADER = ["t", "Es", "Es_c3", "Es_c34", "Es_c345", "hs_norm", "mean_res", "sym_res"]


def cmd_dispersion(args) -> tuple:
    if not MIN_MODE <= args.n_max <= MAX_TABLE_MODE:
        raise ConfigError(
            f"n_max: must be an integer from {MIN_MODE} to {MAX_TABLE_MODE}"
        )
    rows = []
    for n in range(MIN_MODE, args.n_max + 1):
        lam = dispersion(n)
        sig = smoothing_symbol(n)
        rows.append(
            [
                n,
                f"{lam.numerator}/{lam.denominator}",
                f"{sig.numerator}/{sig.denominator}",
                _fmt(lam),
                _fmt(sig),
            ]
        )
    _write_csv(
        args.out,
        ["n", "lambda_exact", "sigma_exact", "lambda_float", "sigma_float"],
        rows,
    )
    return args.out, _arguments(args, "n_max"), [args.out], None


def cmd_resonance(args) -> tuple:
    from . import resonance

    try:
        if args.p == 6:
            report = resonance.search_resonances_p6(args.bound)
        else:
            report = resonance.min_denominator(args.p, args.bound)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    resonance.certify(report, args.out)
    return args.out, _arguments(args, "p", "bound"), [args.out], None


def cmd_evolve(args) -> tuple:
    from . import evolve

    sim, extras, config_bytes = validate_config(args.config, "evolve")
    trajectory = evolve.run(sim, initial=extras["initial_state"])
    _write_csv(args.out, _TRAJ_HEADER, _trajectory_rows(trajectory))
    outputs = [args.out]
    if args.state_out:
        _write_json(args.state_out, trajectory.states[-1].to_dict())
        outputs.append(args.state_out)
    return args.out, config_bytes, outputs, sim.seed


def cmd_normalform(args) -> tuple:
    from . import evolve

    sim, extras, config_bytes = validate_config(args.config, "normalform")
    series_path = f"{args.out_prefix}.series.csv"
    slopes_path = f"{args.out_prefix}.slopes.json"
    report = evolve.lifespan_experiment(extras["eps_list"], sim)
    rows = []
    for eps, trajectory in zip(report.epsilons, report.trajectories):
        rows.extend(_trajectory_rows(trajectory, prefix=(_fmt(eps),)))
    _write_csv(series_path, ["eps"] + _TRAJ_HEADER, rows)
    _write_json(slopes_path, report.to_dict())
    return slopes_path, config_bytes, [series_path, slopes_path], sim.seed


def cmd_waves(args) -> tuple:
    from . import waves

    try:
        branch = waves.continue_branch(
            args.m, args.xi_max, args.steps, num_harmonics=args.harmonics
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    header = ["xi", "v", "residual", "decay_c"] + [
        f"a_{k}" for k in range(1, branch.num_harmonics + 1)
    ]
    rows = []
    for point in branch.points:
        try:
            decay = _fmt(waves.decay_rate(point))
        except ValueError:
            decay = "nan"
        rows.append(
            [_fmt(point.xi), _fmt(point.speed), _fmt(point.residual_norm), decay]
            + [_fmt(c) for c in point.cosine_coeffs]
        )
    _write_csv(args.out, header, rows)
    outputs = [args.out]
    if args.json_out:
        _write_json(args.json_out, branch.to_dict())
        outputs.append(args.json_out)
    config = _arguments(args, "m", "xi_max", "steps", "harmonics")
    return args.out, config, outputs, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqglab",
        description="numerical laboratory for the 1D dispersive transport model",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_disp = sub.add_parser("dispersion", help="tabulate the exact symbols")
    p_disp.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_disp.add_argument("--out", required=True)
    p_disp.set_defaults(func=cmd_dispersion)

    p_res = sub.add_parser("resonance", help="exact resonance search")
    p_res.add_argument("--p", type=int, required=True, choices=(3, 4, 5, 6))
    p_res.add_argument("--bound", type=int, required=True)
    p_res.add_argument("--out", required=True)
    p_res.set_defaults(func=cmd_resonance)

    p_evo = sub.add_parser("evolve", help="integrate one configured run")
    p_evo.add_argument("--config", required=True)
    p_evo.add_argument("--out", required=True)
    p_evo.add_argument("--state-out", dest="state_out", default=None,
                       help="also dump the final state (restart format)")
    p_evo.set_defaults(func=cmd_evolve)

    p_nf = sub.add_parser(
        "normalform", help="corrected-energy series and scaling slopes"
    )
    p_nf.add_argument("--config", required=True)
    p_nf.add_argument("--out-prefix", required=True, dest="out_prefix")
    p_nf.set_defaults(func=cmd_normalform)

    p_wav = sub.add_parser("waves", help="continue a travelling-wave branch")
    p_wav.add_argument("--m", type=int, required=True)
    p_wav.add_argument("--xi-max", type=float, required=True, dest="xi_max")
    p_wav.add_argument("--steps", type=int, required=True)
    p_wav.add_argument("--harmonics", type=int, default=None)
    p_wav.add_argument("--out", required=True)
    p_wav.add_argument("--json-out", dest="json_out", default=None)
    p_wav.set_defaults(func=cmd_waves)

    return parser


def _check_outputs(args) -> None:
    """Raise ConfigError naming each given output option whose last path
    component is empty, ``.`` or ``..``, whose directory is missing or whose
    path is a directory; ``--out-prefix`` names no file itself, so it is not
    checked for the last."""
    problems = []
    for name in ("out", "json_out", "state_out", "out_prefix"):
        path = getattr(args, name, None)
        if path is None:
            continue
        option = "--" + name.replace("_", "-")
        directory = os.path.dirname(path) or os.curdir
        if os.path.basename(path) in ("", os.curdir, os.pardir):
            problems.append(f"{option}: {path!r} ends in no file name")
        elif not os.path.isdir(directory):
            problems.append(f"{option}: directory {directory} does not exist")
        elif name != "out_prefix" and os.path.isdir(path):
            problems.append(f"{option}: {path} is a directory")
    if problems:
        raise ConfigError("; ".join(problems))


def main(argv=None) -> int:
    """Run one subcommand; its exit code.  Each ``cmd_*`` handler writes
    its data files and returns (primary output, config bytes, outputs,
    seed) for the manifest.  Every run failure the library raises is a
    RuntimeError; an exception outside the classes caught here is a bug and
    keeps its traceback."""
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        _check_outputs(args)
        primary, config_bytes, outputs, seed = args.func(args)
        emit_manifest(primary, args.subcommand, config_bytes, outputs, seed, started)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
