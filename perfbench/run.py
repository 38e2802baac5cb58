"""Benchmark of the sqglab batch workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--smoke]

The load is a closed loop with one client: each job of the workload runs in
a fresh ``python3`` process, and the next starts when the previous one has
exited.  A run repeats the workload's batch of jobs for about ``--seconds``:
it stops when one more batch would end farther from ``--seconds`` than now
(so it runs at least one), and reports medians over the batches.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` and ``cpu_s``
summed over a batch's jobs, ``setup_s`` (launch to the start of the
subcommand's work, median of set-up probes and jobs) and ``peak_rss_mb`` of
the largest job.  ``--trace 1`` runs each batch untraced and then traced,
checks that the traced data outputs are byte-identical, and reports the
per-layer metrics of ``tracing.LAYER_METRICS`` plus ``cli.output_bytes`` and
``trace.overhead_frac``.  ``--smoke`` runs the same jobs and checks at tiny
sizes.  Work files go to ``.bench_work/<workload>/`` in the checkout.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a job fails if it exits non-zero
or its output check fails.  The line before it holds the run's provenance.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import LAYER_METRICS, layer_metrics, median_metrics
from workloads import WORKLOADS, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Set-up probes per untraced run, on top of the jobs' own set-up times.
PROBES = 5

#: Seconds after which a run starts no further batch, and kills a job.
BATCH_LIMIT = 140.0
KILL_LIMIT = 170.0

#: Thread-count variables of the BLAS libraries, set to 1 for the jobs.  No
#: workload makes a BLAS call large enough to use a second thread, but
#: OpenBLAS starts helper threads at import that spin on the second of two
#: vCPUs, so a job's wall time then depends on whether that vCPU is free.
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS}
LAYER_UNITS.update({"cli.output_bytes": "bytes", "trace.overhead_frac": "ratio"})


@dataclass
class JobResult:
    job: Job
    code: int
    wall: float
    cpu: float
    rss_mb: float
    setup: float | None
    record: dict
    problems: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SQGLAB_THREADS", None)
    env.update(dict.fromkeys(BLAS_THREADS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(job: Job, directory: Path, *, deadline: float, trace: bool = False,
          stop_at_work: bool = False) -> JobResult:
    """Run one job in a fresh process; time it from launch to exit.

    The job is killed at ``deadline`` (``time.monotonic``), at least 1 s after
    its launch.
    """
    directory.mkdir(parents=True, exist_ok=True)
    record_path = directory / f"{job.name}.record.json"
    flags = ["--trace"] * trace + ["--stop-at-work"] * stop_at_work
    cmd = [sys.executable, str(HERE / "jobhost.py"), "--record", str(record_path), *flags,
           "--", *job.argv]
    with open(directory / f"{job.name}.log", "ab") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=directory, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - launched), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {}
    if proc.returncode == 0 and record_path.exists():
        record = json.loads(record_path.read_text())
    return JobResult(
        job=job,
        code=proc.returncode,
        wall=exited - launched,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,
        setup=record["t_work"] - launched if record.get("t_work") else None,
        record=record,
    )


def run_batch(workload, jobs, sizes, directory, trace, runner, deadline) -> list:
    results = []
    for job in jobs:
        result = runner(job, directory, trace=trace, deadline=deadline)
        if result.code != 0:
            result.problems.append(f"{job.name}: exit code {result.code}, see {directory}")
        else:
            result.problems.extend(workload.check(job, directory, sizes))
        results.append(result)
    return results


def compare_outputs(traced: list, plain_dir: Path, traced_dir: Path) -> None:
    """Mark traced jobs whose data outputs differ from the untraced batch's."""
    for result in traced:
        for name in result.job.outputs:
            try:
                same = (plain_dir / name).read_bytes() == (traced_dir / name).read_bytes()
            except OSError:
                same = False
            if not same:
                result.problems.append(f"{result.job.name}: traced {name} differs from untraced")


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload, seed, sizes, seconds, smoke) -> dict:
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if revision else None
    env = child_env()
    return {
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
        "smoke": smoke,
        "run_seconds": seconds,
        "git_revision": revision,
        "git_dirty": bool(status) if revision else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads_env": {name: env.get(name) for name in BLAS_THREADS},
        "sqglab_threads_env": env.get("SQGLAB_THREADS"),
        "load": "closed loop, 1 client, 1 job at a time, fresh process per job",
    }


def measure(name, seed, seconds, trace, smoke, runner=spawn, work=WORK) -> dict:
    """Run one workload; return the result (metrics, counts, problems, spans)."""
    workload = WORKLOADS[name]
    sizes = workload.smoke_sizes if smoke else workload.sizes
    directory = work / name
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    jobs = workload.jobs(sizes, directory, seed)
    start = time.monotonic()
    deadline = start + KILL_LIMIT

    setups = []
    if not trace:
        for i in range(PROBES):
            probe = runner(jobs[i % len(jobs)], directory / "probes", stop_at_work=True,
                           deadline=deadline)
            if probe.code != 0 or probe.setup is None:
                raise RuntimeError(f"set-up probe {probe.job.name} failed with exit code "
                                   f"{probe.code}; see {directory / 'probes'}")
            setups.append(probe.setup)

    batches = []
    loop_start = time.monotonic()
    while True:
        index = len(batches)
        plain_dir = directory / f"batch{index}"
        plain = run_batch(workload, jobs, sizes, plain_dir, False, runner, deadline)
        traced = None
        if trace:
            traced_dir = directory / f"batch{index}-traced"
            traced = run_batch(workload, jobs, sizes, traced_dir, True, runner, deadline)
            compare_outputs(traced, plain_dir, traced_dir)
        batches.append((plain, traced))
        elapsed = time.monotonic() - loop_start
        batch_s = elapsed / len(batches)
        if elapsed + batch_s / 2 >= seconds or (
                time.monotonic() - start + batch_s > BATCH_LIMIT):
            break

    results = [r for plain, traced in batches for r in plain + (traced or [])]
    wall = [sum(r.wall for r in plain) for plain, _ in batches]
    metrics, absent, spans = {}, [], []
    if not trace:
        setups += [r.setup for plain, _ in batches for r in plain if r.setup is not None]
        metrics = {
            "wall_s": statistics.median(wall),
            "cpu_s": statistics.median(sum(r.cpu for r in plain) for plain, _ in batches),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(max(r.rss_mb for r in plain) for plain, _ in batches),
        }
    else:
        per_batch_values = []
        absent_names = set()
        for index, (_, traced) in enumerate(batches):
            job_spans = [r.record.get("spans", []) for r in traced]
            for r in traced:
                absent_names.update(r.record.get("absent", []))
                spans.append({"job": f"batch{index}-traced/{r.job.name}",
                              "spans": r.record.get("spans", [])})
            values, absent = layer_metrics(job_spans, absent_names)
            values["cli.output_bytes"] = sum(
                (directory / f"batch{index}-traced" / out).stat().st_size
                for r in traced if not r.problems for out in r.job.outputs)
            per_batch_values.append(values)
        metrics = median_metrics(per_batch_values)
        traced_wall = statistics.median(sum(r.wall for r in traced) for _, traced in batches)
        metrics["trace.overhead_frac"] = traced_wall / statistics.median(wall) - 1.0
    return {
        "metrics": metrics,
        "absent": absent,
        "attempted": len(results),
        "failed": sum(1 for r in results if r.problems),
        "problems": [p for r in results for p in r.problems],
        "batches": len(batches),
        "samples": {"wall_s": wall, "setup_s": setups},
        "spans": spans,
    }


def report(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Measure one workload and print its metrics; the last line is the result."""
    workload = WORKLOADS[name]
    sizes = workload.smoke_sizes if smoke else workload.sizes
    facts = provenance(name, seed, sizes, seconds, smoke)
    try:
        result = measure(name, seed, seconds, trace, smoke)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    directory = WORK / name
    spans = result.pop("spans")
    if spans:
        (directory / "spans.json").write_text(json.dumps(spans))
    (directory / "result.json").write_text(
        json.dumps({"provenance": facts, **result}, indent=1, sort_keys=True) + "\n")

    units = LAYER_UNITS if trace else E2E_UNITS
    print(f"perfbench {name} seed={seed} batches={result['batches']} "
          f"jobs={result['attempted']} ({facts['load']})")
    for metric, value in result["metrics"].items():
        mark = "  (absent)" if metric in result["absent"] else ""
        print(f"  {metric:34s} {value:.6g} {units[metric]}{mark}")
    print(f"  {'error_rate':34s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} jobs failed)")
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in result["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same checks")
    args = parser.parse_args(argv)

    if not (SRC / "sqglab" / "cli.py").is_file():
        print(f"error: no sqglab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    codes = [report(name, args.seed % 2**63, args.seconds, bool(args.trace), args.smoke)
             for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
