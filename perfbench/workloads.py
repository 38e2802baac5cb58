"""The four batch workloads: their jobs, their named sizes and their output checks.

A workload is a fixed list of ``sqglab`` CLI jobs.  Sizes are named keys
that never change meaning under an existing name; the smoke sizes run the
same jobs and the same checks in well under a second.  Only the
``normalform`` and ``evolve`` inputs depend on the seed (the ``random_band``
phases); ``resonance`` and ``waves`` have no random input.

Every check holds for any seed.  A job whose check fails counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Job:
    """One CLI call; ``outputs`` are its data files, relative to its directory."""

    name: str
    argv: tuple
    outputs: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict
    smoke_sizes: dict
    jobs: Callable  # (sizes, config directory, seed) -> list[Job]
    check: Callable  # (job, output directory, sizes) -> list of problems


def _write_config(directory: Path, name: str, config: dict) -> str:
    path = directory / name
    path.write_text(json.dumps(config, sort_keys=True) + "\n")
    return str(path)


def _read_rows(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _slope(xs: list, ys: list) -> float:
    """Least-squares slope of ys against xs."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _checked(check):
    """Turn a missing or malformed output into a reported problem."""

    def run(job, directory, sizes):
        try:
            return check(job, directory, sizes)
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return [f"{job.name}: unreadable output ({type(exc).__name__}: {exc})"]

    return run


# -- normalform ------------------------------------------------------------

#: C5 windows around the expected slopes 3, 4 and 6.
SLOPE_WINDOWS = {"base": (3.0, 0.5), "minus_c3": (4.0, 0.5), "full_chain": (6.0, 0.7)}


def _normalform_jobs(sizes, directory, seed):
    config = _write_config(directory, "normalform.json", {**sizes, "seed": seed})
    return [Job("normalform", ("normalform", "--config", config, "--out-prefix", "nf"),
                ("nf.series.csv", "nf.slopes.json"))]


def _normalform_check(job, directory, sizes):
    slopes = json.loads((directory / "nf.slopes.json").read_text())["slopes"]
    return [
        f"normalform: slope {key} = {slopes[key]!r}, expected {want} +- {tol}"
        for key, (want, tol) in SLOPE_WINDOWS.items()
        if not abs(slopes[key] - want) <= tol
    ]


# -- evolve ----------------------------------------------------------------


def _evolve_jobs(sizes, directory, seed):
    config = _write_config(directory, "evolve.json", {**sizes, "seed": seed})
    return [Job("evolve", ("evolve", "--config", config, "--out", "traj.csv"), ("traj.csv",))]


def _evolve_check(job, directory, sizes):
    rows = _read_rows(directory / "traj.csv")
    steps = round(sizes["t_end"] / sizes["dt"])
    problems = []
    if len(rows) != steps // sizes["diagnostics_stride"] + 1:
        problems.append(f"evolve: {len(rows)} records for {steps} steps")
    worst = max(float(r["mean_res"]) for r in rows)
    if not worst <= 1e-12:
        problems.append(f"evolve: max mean_res {worst!r} > 1e-12")
    if any(float(r["sym_res"]) != 0.0 for r in rows):
        problems.append("evolve: nonzero sym_res")
    return problems


# -- resonance -------------------------------------------------------------


def _certificate(p, bound):
    return f"p{p}_b{bound}.json"


def _resonance_jobs(sizes, directory, seed):
    jobs = []
    for p in (3, 4, 5, 6):
        bound = sizes[f"p{p}_bound"]
        out = _certificate(p, bound)
        jobs.append(Job(f"p{p}", ("resonance", "--p", str(p), "--bound", str(bound),
                                  "--out", out), (out,)))
    return jobs


def _resonance_check(job, directory, sizes):
    name = job.outputs[0]
    if (directory / name).read_bytes() != (REFERENCE_DIR / name).read_bytes():
        return [f"resonance: {name} differs from reference/{name}"]
    return []


# -- waves -----------------------------------------------------------------


def _waves_jobs(sizes, directory, seed):
    return [
        Job(f"m{m}", ("waves", "--m", str(m), "--xi-max", repr(sizes["xi_max"]),
                      "--steps", str(sizes["steps"]), "--harmonics", str(sizes["harmonics"]),
                      "--out", f"branch_m{m}.csv"), (f"branch_m{m}.csv",))
        for m in sizes["m"]
    ]


def _waves_check(job, directory, sizes):
    m = int(job.argv[job.argv.index("--m") + 1])
    rows = _read_rows(directory / job.outputs[0])
    if len(rows) != sizes["steps"]:
        return [f"waves m={m}: {len(rows)} points, expected {sizes['steps']}"]
    bifurcation = float(Fraction(m * m - 1, m * m - 4) / m)  # lambda(m) / m
    problems = []
    worst = max(float(r["residual"]) for r in rows)
    if not worst <= 1e-11:
        problems.append(f"waves m={m}: residual {worst!r} > 1e-11")
    first = float(rows[0]["v"])
    if not abs(first - bifurcation) <= 1e-4:
        problems.append(f"waves m={m}: first speed {first!r} not within 1e-4 of {bifurcation!r}")
    slope = _slope([math.log(float(r["xi"])) for r in rows],
                   [math.log(abs(float(r["v"]) - bifurcation)) for r in rows])
    if not 1.7 <= slope <= 2.3:
        problems.append(f"waves m={m}: speed-deviation slope {slope!r} outside [1.7, 2.3]")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "normalform",
            "C5 corrected-energy slopes: form evaluation dominates (about 72%), "
            "the path that evaluating derivatives by insertion replaces",
            {"m": 3, "n_max": 24, "s": 3.0, "dt": 0.01, "t_end": 20.0,
             "diagnostics_stride": 20, "eps_list": [0.1, 0.05, 0.025]},
            {"m": 3, "n_max": 12, "s": 3.0, "dt": 0.01, "t_end": 0.2,
             "diagnostics_stride": 5, "eps_list": [0.1, 0.05, 0.025]},
            _normalform_jobs,
            _checked(_normalform_check),
        ),
        Workload(
            "evolve",
            "the default evolve command: chain construction and RK4 dominate, "
            "form evaluation is light",
            {"m": 3, "n_max": 24, "s": 3.0, "dt": 0.01, "t_end": 100.0, "epsilon": 0.1,
             "diagnostics_stride": 100, "corrected_energies": True},
            {"m": 3, "n_max": 12, "s": 3.0, "dt": 0.01, "t_end": 0.2, "epsilon": 0.1,
             "diagnostics_stride": 5, "corrected_energies": True},
            _evolve_jobs,
            _checked(_evolve_check),
        ),
        Workload(
            "resonance",
            "C3+C4 certificates at p=3..6: the p=6 two-pass scan dominates; "
            "p=4 and p=5 keep the per-min and odd-arity paths measured",
            {"p3_bound": 200, "p4_bound": 60, "p5_bound": 30, "p6_bound": 20},
            {"p3_bound": 9, "p4_bound": 9, "p5_bound": 9, "p6_bound": 9},
            _resonance_jobs,
            _checked(_resonance_check),
        ),
        Workload(
            "waves",
            "C8 branches for m=3,4,5 at 64 harmonics: Newton continuation, "
            "the only workload that runs waves",
            {"m": [3, 4, 5], "xi_max": 0.12, "steps": 24, "harmonics": 64},
            {"m": [3, 4, 5], "xi_max": 0.02, "steps": 4, "harmonics": 16},
            _waves_jobs,
            _checked(_waves_check),
        ),
    )
}
