"""Run one benchmark workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py        # every workload, seed 0, trace 0

Run from the root of a source checkout; srplearn is imported from its
``src`` directory.  The workloads are described in ``repetition.py`` and
the metrics in ``BENCHMARK.json`` and ``perfbench/README.md``.

For ``--seconds`` seconds this script starts one fresh process after
another, each running one repetition of the workload for the same seed.
With ``--trace 0`` every repetition is untraced and the end-to-end
metrics are medians over them.  With ``--trace 1`` untraced and traced
repetitions alternate; the per-layer metrics are medians over the
traced ones, and ``trace.overhead_s`` is the traced median wall time
minus the untraced one.

Output gates: every repetition passes its own gates (all method-runs or
batches complete, AUC floors, a reloaded model scoring bit for bit like
the in-memory one), every repetition of the seed yields the same output
digest, traced or not, and traced repetitions record identical work
counts.  A repetition failing a gate counts all its units as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every gate passes, 1 when a gate fails, and 2 when the
benchmark cannot run (no srplearn source, a repetition that crashed or
overran); in the last case no JSON line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bench-mix", "sweep-wide", "score-stream")
RUN_LIMIT_S = 170.0   # a run ends within 180 s whatever --seconds asks
MIN_CYCLES = {False: 3, True: 2}  # repetitions (untraced) or pairs (traced)


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_repetition(workload, seed, work_dir, traced, timeout) -> dict:
    """Run one repetition in a fresh process; return its result record."""
    cmd = [sys.executable, os.path.join(HERE, "repetition.py"),
           "--workload", workload, "--seed", str(seed), "--work-dir", work_dir]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} repetition overran {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, traced, work_root) -> list:
    """Repetitions for ``seconds`` seconds: [(traced, record), ...]."""
    plan = (False, True) if traced else (False,)
    start = time.perf_counter()
    reps = []
    cycle_s = []
    while True:
        cycle_start = time.perf_counter()
        for t in plan:
            timeout = RUN_LIMIT_S - (time.perf_counter() - start)
            work_dir = os.path.join(work_root, f"rep{len(reps)}")
            reps.append((t, run_repetition(workload, seed, work_dir, t, timeout)))
            shutil.rmtree(work_dir)
        cycle_s.append(time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - start
        next_end = elapsed + statistics.median(cycle_s)
        if len(cycle_s) >= MIN_CYCLES[traced] and next_end > seconds:
            return reps
        if next_end > RUN_LIMIT_S:
            return reps


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def check_gates(reps) -> tuple:
    """(gate name -> passed, for each repetition whether it fails a gate)."""
    records = [r for _, r in reps]
    gates = {}
    for record in records:
        for name, ok in record["gates"].items():
            gates[name] = gates.get(name, True) and ok
    digest = records[0]["digest"]
    gates["outputs_identical_across_repetitions"] = all(
        r["digest"] == digest for r in records
    )
    traced = [r["layers"] for t, r in reps if t]
    counts = {}
    if traced:
        counts = {k: v for k, v in traced[0].items() if isinstance(v, int)}
        gates["work_counts_identical_across_traced_repetitions"] = True
    failing = []
    for t, r in reps:
        bad = not all(r["gates"].values()) or r["digest"] != digest
        if t and any(r["layers"][k] != v for k, v in counts.items()):
            gates["work_counts_identical_across_traced_repetitions"] = False
            bad = True
        failing.append(bad)
    return gates, failing


def stream_latency(records) -> dict:
    """Batch latency and rate of the score-stream workload, pooled."""
    batch_s = [s for r in records for s in r["batch_s"]]
    cuts = statistics.quantiles(batch_s, n=100, method="inclusive")
    p95 = cuts[94]
    return {
        "load_s": (statistics.median(r["load_s"] for r in records), "s"),
        "batch_ms_p50": (1e3 * statistics.median(batch_s), "ms"),
        "batch_ms_p95": (1e3 * p95, "ms"),
        "rows_per_s": (sum(r["rows_scored"] for r in records) / sum(batch_s), "rows/s"),
        "batches": (len(batch_s), "count"),
        "batches_above_p95": (sum(s > p95 for s in batch_s), "count"),
    }


def summarize(workload, reps, traced, spec) -> dict:
    records = [r for _, r in reps]
    gates, failing = check_gates(reps)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(
        r["attempted"] if bad else r["failed"] for r, bad in zip(records, failing)
    )
    lines = []
    metrics = {}
    if traced:
        traced_recs = [r for t, r in reps if t]
        plain_recs = [r for t, r in reps if not t]
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_s":
                value = (statistics.median(r["wall_s"] for r in traced_recs)
                         - statistics.median(r["wall_s"] for r in plain_recs))
            else:
                value = statistics.median(r["layers"][m["name"]] for r in traced_recs)
                if isinstance(traced_recs[0]["layers"][m["name"]], int):
                    value = int(value)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            lines.append(f"  {m['name']:<34} {value:>14.6g} {m['unit']}")
        head = (f"{len(traced_recs)} traced and {len(plain_recs)} untraced "
                "repetitions; per-layer medians over the traced ones")
    else:
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in records]
            value = statistics.median(values)
            q1, q3 = _quartiles(values)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            lines.append(f"  {m['name']:<20} {value:>12.6g} {m['unit']:<6} "
                         f"(median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})")
        if workload == "score-stream":
            for name, (value, unit) in stream_latency(records).items():
                lines.append(f"  {name:<20} {value:>12.6g} {unit}")
        head = f"{len(records)} untraced repetitions; medians"
    lines.append(f"  {'failed_frac':<20} {failed / attempted:>12.6g} "
                 f"       ({failed} of {attempted} units failed)")
    lines.insert(0, f"{workload}: {head}")
    lines.append("gates: " + ", ".join(
        f"{name}={'pass' if ok else 'FAIL'}" for name, ok in gates.items()))
    lines.append("environment: " + json.dumps(records[0]["environment"]))
    return {
        "lines": lines,
        "correct": all(gates.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_workload(workload, seed, seconds, traced, spec) -> dict:
    work_root = os.path.join(ROOT, ".perfbench_out", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work_root, exist_ok=True)
    try:
        reps = measure(workload, seed, seconds, traced, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass  # another run is still using it
    return summarize(workload, reps, traced, spec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "srplearn", "__init__.py")):
        print(f"no srplearn source under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, seconds, bool(args.trace), spec)
            print("\n".join(result["lines"]), flush=True)
            results[workload] = result
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[workloads[0]]["metrics"]
    else:
        metrics = {
            f"{w}.{name}": value
            for w, r in results.items()
            for name, value in r["metrics"].items()
        }
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
