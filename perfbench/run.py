"""decolab benchmark: one workload, one closed loop, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload profiles-basis --seed 0 --seconds 30 --trace 0

Tasks run one after another in this single process (no pool, no threads
beyond the BLAS library's own).  The loop runs whole cycles of task shapes
until ``--seconds`` have passed.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` wraps decolab's cross-module calls in spans and
reports per-layer metrics instead.  Every output is checked; the last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_REPEATS = 7
#: golden outputs must be reproduced to within this
GOLDEN_TOL = 1e-12


@dataclass
class Result:
    index: int
    seconds: float
    ok: bool
    counts: dict


def import_program() -> None:
    """Import decolab from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import decolab

    if os.path.dirname(os.path.dirname(os.path.abspath(decolab.__file__))) != SRC:
        raise ImportError(f"decolab imported from {decolab.__file__}, not {SRC}")


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{prefix}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{prefix}[{i}]")
    else:
        yield prefix, float(value)


def golden_mismatch(digest: dict, golden: dict, tol: float = GOLDEN_TOL) -> str | None:
    """Why ``digest`` differs from ``golden`` by more than ``tol``, or None."""
    got, want = dict(_flatten(digest)), dict(_flatten(golden))
    if got.keys() != want.keys():
        return "golden output has a different shape"
    key, diff = max(((k, abs(got[k] - want[k])) for k in want), key=lambda kv: kv[1])
    if not diff <= tol:
        return f"golden mismatch at {key}: |{got[key]!r} - {want[key]!r}| = {diff:.3e}"
    return None


def run_task(task, golden: dict | None, tracer=None) -> tuple[float, bool]:
    """Run and verify one task; any exception counts as a failure."""
    start = perf_counter()
    try:
        with tracer.span("bench.task") if tracer else nullcontext():
            output = task.run()
            problems = task.check(output)
            if golden is not None:
                mismatch = golden_mismatch(task.digest(output), golden)
                if mismatch:
                    problems.append(mismatch)
    except Exception:
        traceback.print_exc()
        problems = ["raised"]
    elapsed = perf_counter() - start
    for problem in problems:
        print(f"task {task.label}: {problem}", file=sys.stderr)
    return elapsed, not problems


def run_cycles(make_task, cycle: int, seconds: float, golden: list, tracer=None, first: int = 0):
    """Closed loop over whole cycles of tasks until ``seconds`` have passed."""
    results = []
    deadline = perf_counter() + seconds
    index = first
    while True:
        for _ in range(cycle):
            try:
                task = make_task(index)
            except Exception:
                traceback.print_exc()
                results.append(Result(index, 0.0, False, {}))
            else:
                if tracer:
                    tracer.task = index
                entry = golden[index] if index < len(golden) else None
                elapsed, ok = run_task(task, entry, tracer)
                results.append(Result(index, elapsed, ok, task.counts))
            index += 1
        if perf_counter() >= deadline:
            return results


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _build_first_cycle(workload_name: str, seed: int, workdir: str) -> None:
    import workloads

    workload = workloads.WORKLOADS[workload_name](workdir)
    for index in range(workload.cycle):
        workload.task(seed, index)


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of importing decolab and building one
    cycle of inputs through the library."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )  # fmt: skip
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def environment(seed: int, workload: str) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{deps.get('blas', {}).get('name')} {deps.get('blas', {}).get('version')}",
        "lapack": f"{deps.get('lapack', {}).get('name')} {deps.get('lapack', {}).get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "cpu_count": os.cpu_count(),
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _load_golden(workload: str, seed: int) -> list:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed), [])


def end_to_end(results: list[Result], cycle: int, setup_s: float) -> tuple[dict, dict]:
    """The untraced metrics.  A ``task_s`` sample is the mean task time of one
    whole cycle, so every sample holds the same mix of task shapes."""
    cycles: dict[int, list[Result]] = {}
    for r in results:
        cycles.setdefault(r.index // cycle, []).append(r)
    samples = [
        sum(r.seconds for r in group) / len(group)
        for group in cycles.values()
        if all(r.ok for r in group)
    ]
    good = [r for r in results if r.ok]
    busy = sum(r.seconds for r in good)
    checks = sum(r.counts["analysis.checks"] for r in good)
    q1, q3 = _quartiles(samples)
    metrics = {
        "task_s": {"value": statistics.median(samples) if samples else 0.0, "unit": "s"},
        "checks_per_s": {"value": checks / busy if busy else 0.0, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    return metrics, {"task_s_q1": q1, "task_s_q3": q3, "task_s_cycles": len(samples)}


def per_layer(summary: dict, traced: list[Result], overhead_s: float) -> dict:
    """The traced metrics, from :meth:`tracing.Tracer.summary` and the
    exact counts of the traced tasks' inputs."""
    import tracing

    tasks = max(len(traced), 1)
    metrics = {}
    for name, stats in summary.items():
        if name not in tracing.WRAPPED:
            continue
        metrics[f"{name}.calls"] = {"value": stats["calls"], "unit": "count/task"}
        metrics[f"{name}.self_s"] = {"value": stats["self_s"], "unit": "s/task"}
        metrics[f"{name}.p50_us"] = {"value": stats["p50_us"], "unit": "us"}
        metrics[f"{name}.errors"] = {"value": stats["errors"], "unit": "count"}
    units = {
        "analysis.checks": "count/task",
        "analysis.eig_d3_sum": "d3/task",
        "circuit.layer_applications": "count/task",
        "circuit.state_bytes": "B_computed/task",
    }
    for name, unit in units.items():
        total = sum(r.counts.get(name, 0) for r in traced)
        metrics[name] = {"value": total / tasks, "unit": unit}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s/task"}
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def benchmark(args) -> dict:
    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir)
        golden = _load_golden(args.workload, args.seed)

        def make_task(index):
            return workload.task(args.seed, index)

        report = {"env": environment(args.seed, args.workload)}
        cycle = workload.cycle
        setup_s = 0.0 if args.trace else setup_seconds(args.workload, args.seed)
        # the first cycle warms BLAS buffers and code paths: it is checked
        # against the golden outputs but not timed
        warm = run_cycles(make_task, cycle, 0.0, golden)
        if not args.trace:
            timed = run_cycles(make_task, cycle, args.seconds, golden, first=cycle)
            metrics, report["detail"] = end_to_end(timed, cycle, setup_s)
            results = warm + timed
            nesting = 0
        else:
            # the first cycle again untraced, then traced: the difference is
            # the tracing overhead; then traced cycles until the deadline
            start = perf_counter()
            plain = run_cycles(make_task, cycle, 0.0, golden)
            tracer = tracing.Tracer()
            with tracer.installed() as missing:
                traced = run_cycles(make_task, cycle, 0.0, golden, tracer)
                overhead = sum(r.seconds for r in traced) - sum(r.seconds for r in plain)
                remaining = args.seconds - (perf_counter() - start)
                traced += run_cycles(make_task, cycle, remaining, golden, tracer, first=cycle)
            results = warm + plain + traced
            summary = tracer.summary(max(len(traced), 1))
            metrics = per_layer(summary, traced, overhead / cycle)
            uncovered = sorted(
                name for name in workload.expected_spans
                if metrics[f"{name}.calls"]["value"] == 0
            )  # fmt: skip
            for name in uncovered:
                print(f"coverage: span {name} recorded no calls on {args.workload}", file=sys.stderr)
            nesting = tracer.nesting_violations()
            report["detail"] = {
                "missing_attributes": missing,
                "uncovered_spans": uncovered,
                "nesting_violations": nesting,
                "bench.task": summary[tracing.TASK_SPAN],
            }
            tracer.write(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(not r.ok for r in results)
    attempted = len(results)
    report["result"] = {
        "correct": failed == 0 and nesting == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report["detail"]["failed_ratio"] = failed / attempted
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def _print_report(report: dict, trace: int) -> None:
    print("env " + json.dumps(report["env"]))
    result, detail = report["result"], report["detail"]
    print(f"{report['env']['workload']} seed={report['env']['seed']} trace={trace} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:<22.10g} {metric['unit']}")
    print(f"  {'failed_ratio':40s} {detail['failed_ratio']:<22.10g} ratio")
    if not trace:
        print(f"  task_s quartiles {detail['task_s_q1']:.6g} .. {detail['task_s_q3']:.6g} s "
              f"over {detail['task_s_cycles']} cycles")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    start = perf_counter()
    try:
        import_program()
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        os.makedirs(OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="setup-", dir=OUT) as workdir:
            _build_first_cycle(args.workload, args.seed, workdir)
        print(perf_counter() - start)
        return 0
    report = benchmark(args)
    _print_report(report, args.trace)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
