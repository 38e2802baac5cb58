"""Smoke run of the benchmark at tiny sizes, so the harness cannot rot.

Jobs run in this process through the same job host the benchmark launches
(a fresh interpreter per job would cost more than the whole test); the
checks, the tracer and the metric code are the ones the benchmark uses.
"""

import json
import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobhost  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: A count that must be nonzero on the workload built around its layer.
MAIN_COUNTS = {
    "normalform": "forms.evaluate_diagonal.calls",
    "evolve": "evolve.steps",
    "resonance": "resonance.tuples",
    "waves": "waves.points",
}


def run_here(job, directory, trace=False, stop_at_work=False, deadline=None):
    """Stand-in for ``run.spawn`` that runs the job host in this process."""
    directory.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        launched = time.monotonic()
        record = jobhost.run_job(list(job.argv), trace=trace, stop_at_work=stop_at_work)
        wall = time.monotonic() - launched
    finally:
        os.chdir(cwd)
    return run.JobResult(job, record["code"], wall, wall, 1.0, record["t_work"] - launched,
                         record)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_passes_checks(name, tmp_path):
    result = run.measure(name, seed=5, seconds=0, trace=True, smoke=True, runner=run_here,
                         work=tmp_path)
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] == 2 * result["batches"] * len(
        WORKLOADS[name].jobs(WORKLOADS[name].smoke_sizes, tmp_path, 5))
    assert result["absent"] == []
    assert list(result["metrics"]) == list(run.LAYER_UNITS)
    assert result["metrics"][MAIN_COUNTS[name]] > 0


def test_untraced_smoke_run_reports_end_to_end_metrics(tmp_path):
    result = run.measure("waves", seed=0, seconds=0, trace=False, smoke=True,
                         runner=run_here, work=tmp_path)
    assert result["problems"] == []
    assert list(result["metrics"]) == list(run.E2E_UNITS)
    assert all(value > 0 for value in result["metrics"].values())
    assert len(result["samples"]["setup_s"]) == run.PROBES + 3


def test_checks_reject_wrong_output(tmp_path):
    workload = WORKLOADS["resonance"]
    job = workload.jobs(workload.smoke_sizes, tmp_path, 0)[0]
    (tmp_path / job.outputs[0]).write_text("{}\n")
    assert workload.check(job, tmp_path, workload.smoke_sizes)
    evolve = WORKLOADS["evolve"]
    job = evolve.jobs(evolve.smoke_sizes, tmp_path, 0)[0]
    assert evolve.check(job, tmp_path / "missing", evolve.smoke_sizes)


def test_missing_target_is_absent_not_raised():
    tracer = tracing.Tracer()
    tracer.install((("waves.renamed", "sqglab.waves", "no_such_function", None),
                    ("gone.module", "sqglab.no_such_module", "f", None)))
    tracer.uninstall()
    assert tracer.absent == {"waves.renamed", "gone.module"}
    _, absent = tracing.layer_metrics([], {"waves.residual"})
    assert absent == ["waves.residual.calls", "waves.newton_trials"]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    assert whys == {name: WORKLOADS[name].why for name in whys}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
