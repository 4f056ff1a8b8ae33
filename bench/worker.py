"""The workload process: import fueter from the checkout, build inputs, run.

    python3 bench/worker.py --workload NAME --seed N --mode setup|run|trace
                            [--seconds S] [--size full|smoke]

setup  imports fueter and builds the workload's inputs, then prints the
       monotonic clock reading at which it was ready (run.py subtracts its
       spawn time to get the set-up wall time).
run    setup, then the timed closed loop for --seconds, then the checks.
trace  setup, the fixed traced task list once untraced and once traced,
       then the checks and the per-layer metrics.

The last stdout line is one JSON object.  Exit code 2 means the checkout
holds no fueter source.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_fueter():
    if not os.path.isfile(os.path.join(SRC, "fueter", "__init__.py")):
        print(f"no fueter source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import fueter
    import fueter.cli

    if not os.path.abspath(fueter.__file__).startswith(SRC + os.sep):
        print(f"imported fueter from {fueter.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return fueter


def setup(args, workdir):
    fueter = import_fueter()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](fueter, args.seed, args.size, workdir)
    return fueter, workload, time.monotonic()


def run_loop(workload, tasks, seconds, order_rng, failures, until_deadline):
    """Closed loop over seeded permutations of tasks.

    The first cycle always runs whole, so every task runs at least once.
    With a deadline the loop then ends at the first cycle boundary after
    it, or after the first task past it for workloads of multi-second tasks;
    otherwise it runs the given tasks once.  Returns the records
    (task index, seconds, outcome) and the wall time of the loop.  A repeat
    whose values equal the task's first ones shares them, so memory does
    not grow with the number of cycles a run completes.
    """
    import numpy as np

    records = []
    first = {}
    start = time.perf_counter()
    deadline = start + seconds
    cycles = 0
    while True:
        for i in order_rng.permutation(len(tasks)):
            t0 = time.perf_counter()
            outcome = tasks[i].run(failures)
            seconds_i = time.perf_counter() - t0
            seen = first.setdefault(i, outcome)
            if seen.values is not None and outcome.values is not None and np.array_equal(seen.values, outcome.values):
                outcome = seen
            records.append((int(i), seconds_i, outcome))
            if until_deadline and workload.stop_within_cycle and cycles and time.perf_counter() >= deadline:
                break
        cycles += 1
        if not until_deadline or time.perf_counter() >= deadline:
            break
    return records, time.perf_counter() - start


def check(tasks, records):
    """Per-output errors as a share of the tolerance, and verdicts.

    Runs after the timed region.  Errors are computed once per distinct set
    of values a task produced: a repeat that is bitwise equal reuses them.
    Returns (task index, seconds, raised, error / tolerance, passed,
    allowed) per record.
    """
    import numpy as np

    cache = {}
    out = []
    for i, seconds, outcome in records:
        task = tasks[i]
        allowed = task.allowed()
        if outcome.values is None:
            errors = np.full(task.n_outputs, np.nan)
            passed = np.zeros(task.n_outputs, dtype=bool)
        else:
            values = task.load(outcome)
            hit = cache.get(i)
            if hit is not None and np.array_equal(hit[0], values, equal_nan=True):
                errors = hit[1]
            else:
                errors = np.asarray(task.errors(values), dtype=np.float64) / task.tol()
                cache[i] = (values, errors)
            passed = np.isfinite(errors) & (errors <= 1.0)
        out.append((i, seconds, outcome.raised, errors, passed, allowed))
    return out


def summarize(workload, checked, wall):
    """End-to-end metrics of a run, plus the facts the report records."""
    import numpy as np

    from tracing import percentile

    # attempted and failed count each output of the seeded task list once,
    # however many times the run repeated its task: an output fails if any
    # execution of it failed.  So both depend on the seed, not on the speed.
    verdicts = {}
    for i, _, _, _, p, _ in checked:
        verdicts[i] = verdicts[i] & p if i in verdicts else p
    attempted = sum(p.size for p in verdicts.values())
    failed = attempted - sum(int(p.sum()) for p in verdicts.values())
    passes = sum(int(p.sum()) for _, _, _, _, p, _ in checked)
    unexpected = sum(int((~p & ~a).sum()) for _, _, _, _, p, a in checked)
    task_s = [s if p.all() else float("inf") for _, s, _, _, p, _ in checked]
    # known-defect regions, and outputs never produced, count in ok_ratio only
    errs = np.concatenate([e[~a] for _, _, _, e, _, a in checked])
    worst = float(np.max(errs[np.isfinite(errs)], initial=0.0))
    raised = {}
    for _, _, r, _, _, _ in checked:
        if r is not None:
            raised[r] = raised.get(r, 0) + 1
    tail = percentile(task_s, workload.tail_pct)
    metrics = {
        "points_per_s": passes / wall,
        "task_s_p50": percentile(task_s, 50.0),
        "task_s_tail": tail,
        "max_err": max(worst, ERR_RESOLUTION),
        "ok_ratio": 1.0 - failed / attempted,
    }
    facts = {
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "unexpected_failures": unexpected,
        "tasks": len(task_s),
        "outputs_checked": sum(p.size for _, _, _, _, p, _ in checked),
        "failed_tasks": sum(1 for s in task_s if s == float("inf")),
        "tail_pct": workload.tail_pct,
        "tail_samples_beyond": sum(1 for s in task_s if s > tail),
        "raised": raised,
        "timed_s": wall,
        "error": workload.error_kind,
        "max_err_unfloored": worst,
    }
    return metrics, facts


# max_err is the worst error as a share of the tolerance; below 1% of it,
# errors are rounding noise that moves with any change of summation order
ERR_RESOLUTION = 0.01


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(fueter) -> dict:
    import platform

    import mpmath
    import numpy
    import scipy

    from run import THREAD_CAPS

    cpu = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    pool = getattr(fueter.cli, "_pool_size", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "cli_pool": pool() if callable(pool) else None,
        "FUETER_THREADS": os.environ.get("FUETER_THREADS"),
        "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    args = p.parse_args(argv)

    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        return work(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def work(args, workdir) -> int:
    fueter, workload, ready = setup(args, workdir)
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    import numpy as np

    failures = (fueter.NumericalError, ValueError)
    order_rng = np.random.default_rng([args.seed, 1])
    report = {"ready": ready, "env": environment(fueter), "workload": workload.name}
    if args.mode == "run":
        records, wall = run_loop(workload, workload.tasks, args.seconds, order_rng, failures, True)
        report["peak_rss_mb"] = peak_rss_mb()  # before the checks build references
        checked = check(workload.tasks, records)
        report["metrics"], report["facts"] = summarize(workload, checked, wall)
    else:
        from tracing import Installation, Tracer, layer_metrics

        tasks = workload.trace_tasks()
        seed_state = order_rng.bit_generator.state
        records, plain_wall = run_loop(workload, tasks, 0, order_rng, failures, False)
        tracer = Tracer()
        installation = Installation(fueter, tracer, workload.field_objects(), workload.column_tasks())
        order_rng.bit_generator.state = seed_state
        try:
            traced, traced_wall = run_loop(workload, tasks, 0, order_rng, failures, False)
        finally:
            installation.undo()
        layers, notes = layer_metrics(tracer)
        layers["cli.out_bytes"] = workload.out_bytes()
        layers["trace.overhead_s"] = traced_wall - plain_wall
        checked = check(tasks, records + traced)
        _, facts = summarize(workload, checked, plain_wall + traced_wall)
        report["layers"], report["facts"] = layers, dict(facts, **notes)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
