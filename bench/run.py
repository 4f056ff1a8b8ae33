"""fueter benchmark: one command that runs a workload, checks it, prints metrics.

    python3 bench/run.py --workload forward-grid|closed-form-invert|tabulated-pipeline
                         --seed N --seconds S --trace 0|1

Run from the root of a checkout; fueter is imported from its src/.  The
workloads, why each was chosen, and which end-to-end metric each per-layer
metric should move are in bench/workloads.py.

--trace 0 prints the end-to-end metrics of an untraced run:
  setup_s       median over SETUP_SAMPLES fresh interpreters of the wall time
                from spawn to `import fueter` done and the inputs built
  points_per_s  outputs that passed their check / timed wall seconds
  task_s_p50    median task wall time; a task with a failed output is +inf
  task_s_tail   the workload's tail percentile of the same distribution
  max_err       worst error outside the known-defect regions, as a share of
                the workload's tolerance; below 0.01 it reads 0.01
  ok_ratio      1 - failed / attempted, each output of the seeded task list
                counted once however often the run repeated it
  peak_rss_mb   peak resident memory of the workload process
--trace 1 prints the per-layer metrics of a fixed task list run once
untraced and once traced, with import times from `python -X importtime`.

Every line before the last is a JSON report (environment, tail percentile
and sample counts, failure counts); the last line is the result object.
The workload process runs with BLAS and OpenMP pools pinned to one thread
and FUETER_THREADS unset, so the CLI's default pool size is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("forward-grid", "closed-form-invert", "tabulated-pipeline")
SETUP_SAMPLES = 5  # fresh interpreters per run; the last one is the workload process
IMPORT_SAMPLES = 3
TIMEOUT_S = 170.0
TAIL_SENTINEL_S = 1e6  # a tail percentile that lands on a failed task (+inf)
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FUETER_THREADS", None)
    env.pop("PYTHONPATH", None)
    for key in THREAD_CAPS:
        env[key] = "1"
    return env


def spawn(cmd: list[str], deadline: float) -> tuple[float, str, str]:
    """Run a child to completion; returns (monotonic spawn time, stdout, stderr)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(cmd[1:3]))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return t0, proc.stdout, proc.stderr


def last_json(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def import_times(text: str) -> tuple[float, float]:
    """(import fueter, scipy's share of it) in seconds from -X importtime output.

    The output lists modules children first, indented by nesting depth.
    scipy's share sums the cumulative times of the outermost scipy modules.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, int(cum), name.strip()))
    total = next((cum for _, cum, name in rows if name == "fueter"), None)
    if total is None:
        raise BenchError("no import time recorded for fueter")
    scipy = 0
    for i, (depth, cum, name) in enumerate(rows):
        if not name.startswith("scipy"):
            continue
        # an ancestor is the first later row of smaller depth, and so on up
        d, nested = depth, False
        for depth2, _, name2 in rows[i + 1:]:
            if depth2 < d:
                if name2.startswith("scipy"):
                    nested = True
                    break
                d = depth2
        if not nested:
            scipy += cum
    return total * 1e-6, scipy * 1e-6


def worker_cmd(args, mode: str) -> list[str]:
    return [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--mode", mode, "--seconds", str(args.seconds), "--size", args.size]


def run(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + TIMEOUT_S
    if args.trace:
        probe = [sys.executable, "-X", "importtime", "-c",
                 f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import fueter"]
        samples = [import_times(spawn(probe, deadline)[2]) for _ in range(IMPORT_SAMPLES)]
        _, out, _ = spawn(worker_cmd(args, "trace"), deadline)
        report = last_json(out)
        metrics = dict(report.pop("layers"))
        metrics["setup.import_s"] = statistics.median(s[0] for s in samples)
        metrics["setup.import_scipy_s"] = statistics.median(s[1] for s in samples)
        return report, {k: (v, LAYER_UNITS[k]) for k, v in metrics.items()}
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        t0, out, _ = spawn(worker_cmd(args, "setup"), deadline)
        setups.append(last_json(out)["ready"] - t0)
    t0, out, _ = spawn(worker_cmd(args, "run"), deadline)
    report = last_json(out)
    setups.append(report["ready"] - t0)
    m = report.pop("metrics")
    tail = m["task_s_tail"] if m["task_s_tail"] != float("inf") else TAIL_SENTINEL_S
    report["setup_samples_s"] = setups
    return report, {
        "setup_s": (statistics.median(setups), "s"),
        "points_per_s": (m["points_per_s"], "1/s"),
        "task_s_p50": (m["task_s_p50"], "s"),
        "task_s_tail": (tail, "s"),
        "max_err": (m["max_err"], "1"),
        "ok_ratio": (m["ok_ratio"], "1"),
        "peak_rss_mb": (report.pop("peak_rss_mb"), "MB"),
    }


LAYER_UNITS = {
    "setup.import_s": "s", "setup.import_scipy_s": "s",
    "jets.jet_calls": "count", "jets.self_s": "s",
    "radial.op_calls": "count", "radial.self_s": "s",
    "forward.profile_calls": "count", "forward.profile_self_s": "s",
    "forward.fields_calls": "count", "forward.fields_self_s": "s",
    "forward.map_calls": "count", "forward.map_self_s": "s",
    "clifford.mul_calls": "count", "clifford.self_s": "s",
    "polynomials.eval_calls": "count", "polynomials.self_s": "s",
    "inverse.invert_calls": "count", "inverse.invert_self_s": "s",
    "inverse.chain_s": "s", "inverse.chain_field_points": "count",
    "inverse.eval_calls": "count", "inverse.eval_s_p50": "s", "inverse.eval_s_tail": "s",
    "inverse.from_grid_s": "s",
    "quadrature.integrate_calls": "count", "quadrature.panels": "count",
    "quadrature.nodes": "count", "quadrature.panels_per_call": "1",
    "quadrature.errors": "count", "quadrature.self_s": "s",
    "field.points": "count", "field.self_s": "s",
    "cli.self_s": "s", "cli.out_bytes": "B",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs for the benchmark's own tests")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fueter", "__init__.py")):
        print(f"error: no fueter source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        report, metrics = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    facts = report["facts"]
    print(json.dumps(report))
    print(json.dumps({
        "correct": facts["unexpected_failures"] == 0,
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
