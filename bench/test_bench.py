"""Smoke tests of the benchmark itself (tiny inputs).

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fueter  # noqa: E402
import fueter.cli  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, ClosedFormInvert, Column, ForwardGrid, TabulatedPipeline  # noqa: E402
from worker import check  # noqa: E402

FAILURES = (fueter.NumericalError, ValueError)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_workload_runs_at_tiny_size(workload):
    res = result(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                       "--size", "smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1
    assert set(res["metrics"]) == {"setup_s", "points_per_s", "task_s_p50", "task_s_tail",
                                   "max_err", "ok_ratio", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_attempted_and_failed_do_not_depend_on_run_length():
    runs = [result(bench("--workload", "closed-form-invert", "--seed", "4", "--seconds", s,
                         "--trace", "0", "--size", "smoke")) for s in ("1", "3")]
    assert [(r["attempted"], r["failed"]) for r in runs] == [(runs[0]["attempted"], runs[0]["failed"])] * 2
    assert runs[0]["failed"] > 0  # example1 x 1e8 is in the smoke list


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    runs = [result(bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1",
                         "--size", "smoke")) for _ in range(2)]
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] in ("count", "B")}
              for r in runs]
    assert counts[0] == counts[1]
    assert set(runs[0]["metrics"]) == set(run.LAYER_UNITS)


def test_benchmark_json_names_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    res = result(bench("--workload", "forward-grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                       "--size", "smoke"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: m["unit"] for k, m in res["metrics"].items()}


def _first_outcome(workload, task):
    outcome = task.run(FAILURES)
    assert outcome.values is not None
    return check(workload.tasks, [(workload.tasks.index(task), 0.0, outcome)])[0], outcome


def test_corrupted_primitive_is_counted_failed(tmp_path):
    w = ClosedFormInvert(fueter, 1, "smoke", str(tmp_path))
    task = w.tasks[0]
    (_, _, _, _, passed, _), outcome = _first_outcome(w, task)
    assert passed.all()
    # z^(2N) lies outside the gauge (real polynomials of degree <= 2N - 1)
    z = task.points[:, 0] + 1j * task.points[:, 1]
    bad = outcome.values + 1e-4 * np.stack([(z ** (2 * task.N)).real, (z ** (2 * task.N)).imag], axis=1)
    passed = check(w.tasks, [(0, 0.0, type(outcome)(bad))])[0][4]
    assert not passed.any()
    # a gauge polynomial is not an error
    shifted = outcome.values + np.stack([3.0 + 2.0 * z.real, 2.0 * z.imag], axis=1)
    assert check(w.tasks, [(0, 0.0, type(outcome)(shifted))])[0][4].all()


def test_corrupted_forward_value_is_counted_failed(tmp_path):
    w = ForwardGrid(fueter, 1, "smoke", str(tmp_path))
    task = next(t for t in w.tasks if isinstance(t, Column) and not t.allowed().any())
    (_, _, _, _, passed, _), outcome = _first_outcome(w, task)
    assert passed.all()
    bad = outcome.values.copy()
    bad[0, 0] *= 1 + 1e-6
    _, _, _, _, passed, allowed = check(w.tasks, [(w.tasks.index(task), 0.0, type(outcome)(bad))])[0]
    assert not passed[0] and passed[1:].all() and not allowed[0]


def test_corrupted_pipeline_output_is_counted_failed(tmp_path):
    w = TabulatedPipeline(fueter, 1, "smoke", str(tmp_path))
    (_, _, _, _, passed, _), outcome = _first_outcome(w, w.tasks[0])
    assert passed.all()
    data = json.loads(outcome.values.tobytes())
    for p in data["points"]:
        p["value"][1] += 0.1 * p["r"] ** 3  # Im z^3 part of a non-gauge term
    blob = np.frombuffer(json.dumps(data).encode(), dtype=np.uint8)
    assert not check(w.tasks, [(0, 0.0, type(outcome)(blob))])[0][4].all()


def test_known_defects_fail_but_stay_correct(tmp_path):
    w = ClosedFormInvert(fueter, 2, "smoke", str(tmp_path))
    records = [(i, 0.0, t.run(FAILURES)) for i, t in enumerate(w.tasks)]
    checked = check(w.tasks, records)
    scaled = [c for c, t in zip(checked, w.tasks) if t.scale_exp == 8]
    assert scaled and not scaled[0][4].any() and scaled[0][5].all()


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "forward-grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_import_time_parser():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:       400 |        400 |   scipy.interpolate",
        "import time:        50 |        750 | fueter.inverse",
        "import time:        10 |       1000 | fueter",
    ])
    assert run.import_times(text) == (1000e-6, 700e-6)


def test_tail_percentile_counts_failures_as_inf():
    times = [1.0] * 85 + [float("inf")] * 15
    assert tracing.percentile(times, 75.0) == 1.0
    assert tracing.percentile(times, 90.0) == float("inf")
    assert tracing.tail_level(100) == 90.0 and tracing.tail_level(15) == 100.0
