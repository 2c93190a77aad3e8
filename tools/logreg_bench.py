"""Logistic regression's penalty tuning before and after a change, on fixed
splits, against a converged reference.

    python3 tools/logreg_bench.py --parent PARENT_CHECKOUT [--pairs 10]
        [--seconds 40] [--repeats 5] > BENCH_label.json

Run from the root of the changed checkout; ``PARENT_CHECKOUT`` is a
second source tree (``git archive`` of the parent commit).  The splits
are the rows ``logreg_select_lambda`` sees when ``cmd_bench`` tunes
logreg: perfbench's bench-mix at seeds 0-2 and the acceptance bench of
``tests/test_acceptance.py``.  For each split and each checkout, in a
fresh process importing that checkout's ``src``, it records the tuning
time (median of ``--repeats``), the chosen penalty, the converged count
and the iteration counts of the grid's descents, at the benchmark's
stopping rule (``max_iter`` 200, ``tol`` 1e-6) and at a tight one
(``max_iter`` 500, ``tol`` 1e-9).  Every penalty's held-out loss is
compared with that of ``tests/oracles.reference_logreg`` (L-BFGS-B to
a gradient of 1e-12).  Last come ``--pairs`` alternating pairs of
``perfbench/run.py --workload bench-mix`` per seed (0 skips them), and
each checkout's bench-mix CSV digest per seed.

    python3 tools/logreg_bench.py --worker SPLITS.npz REPEATS

is the per-checkout half: it prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_MIX_SEEDS = (0, 1, 2)
# the stopping rules: the benchmarks' and a tight one
RULES = {"bench": (200, 1e-6), "tight": (500, 1e-9)}
# tests/test_acceptance.py's _BENCH_BODY, the keys that shape the tuning split
ACCEPTANCE = {
    "base_seed": 7, "n_runs": 20, "n_train": 1000, "srp.dim": 2000,
    "data.kind": "synth", "data.n_features": 10000, "data.n_train_pool": 4000,
    "data.n_test": 2000, "data.density": 0.01, "data.signal_features": 2000,
    "data.flip_prob": 0.0,
}


def _tuning_split(keys: dict, work_dir: str):
    """(rows, labels, grid, seed) that cmd_bench hands logreg_select_lambda."""
    from srplearn import bench
    from srplearn.config import parse_config
    from srplearn.datasets import subsample_indices

    path = os.path.join(work_dir, "config.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"out_dir = {os.path.join(work_dir, 'out')}\n")
        handle.writelines(f"{k} = {v}\n" for k, v in keys.items())
    cfg = parse_config(path)
    pool, test, external = bench._load_data(cfg)
    F_pool, _, _ = bench._build_features(cfg, pool, test, cfg.srp_dim, external)
    idx = subsample_indices(pool.n_samples, cfg.n_train, cfg.base_seed - 1)
    return F_pool[idx], pool.labels[idx].astype(np.float64), cfg.lambda_grid(), cfg.base_seed - 1


def _splits(work_dir: str) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from repetition import BENCH_MIX, _seeds

    keys = {f"bench_mix_seed_{s}": {**BENCH_MIX, **_seeds(s)} for s in BENCH_MIX_SEEDS}
    keys["acceptance"] = ACCEPTANCE
    return {name: _tuning_split(k, work_dir) for name, k in keys.items()}


def _holdout(n: int, seed: int):
    """logreg_select_lambda's split: a fifth of the shuffled rows held out."""
    perm = np.random.default_rng(seed).permutation(n)
    n_hold = max(1, int(round(n * 0.2)))
    return perm[:n_hold], perm[n_hold:]


def _reference_losses(X, y, grid, seed):
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from oracles import reference_logreg

    hold, train = _holdout(y.size, seed)
    losses = []
    for lam in grid:
        w, b = reference_logreg(X[train], y[train], lam)
        losses.append(float(np.logaddexp(0.0, -y[hold] * (X[hold] @ w + b)).mean()))
    return losses


def worker(path: str, repeats: int) -> dict:
    """Tuning measured with the srplearn on sys.path, one entry per split."""
    from srplearn.logreg import _descend, logreg_select_lambda

    data = np.load(path)
    out = {}
    for name in sorted({k.rsplit(":", 1)[0] for k in data.files}):
        X, y, grid = data[f"{name}:X"], data[f"{name}:y"], data[f"{name}:grid"]
        seed = int(data[f"{name}:seed"])
        _, train = _holdout(y.size, seed)
        out[name] = {}
        for rule, (max_iter, tol) in RULES.items():
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                lam, losses = logreg_select_lambda(X, y, grid, seed, max_iter, tol)
                times.append(time.perf_counter() - start)
            _, _, converged, iterations = _descend(X[train], y[train], grid, max_iter, tol)
            out[name][rule] = {
                "tuning_s_median": statistics.median(times),
                "lambda_log2": float(np.log2(lam)),
                "converged": f"{int(np.count_nonzero(converged))}/{grid.size}",
                "iterations_max": int(iterations.max()),
                "iterations_median": float(np.median(iterations)),
                "heldout_losses": [float(v) for v in losses],
            }
    return out


def _run_side(checkout: str, splits_path: str, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", splits_path, str(repeats)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _perfbench(checkout: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "bench-mix",
           "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def _digest(checkout: str, seed: int) -> str:
    with tempfile.TemporaryDirectory() as work:
        cmd = [sys.executable, "perfbench/repetition.py", "--workload", "bench-mix",
               "--seed", str(seed), "--work-dir", work]
        done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["digest"][:12]


def _summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def _pairs(parent: str, seed: int, n_pairs: int, seconds: int) -> dict:
    runs = []
    for i in range(n_pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: _perfbench(parent if side == "parent" else ROOT, seed, seconds)
               for side in order}
        runs.append({"pair": i + 1, "first": order[0], **got})
    out = {}
    for metric in ("wall_s", "setup_s", "peak_rss_mb", "auc_mean"):
        parent_values = [r["parent"][metric] for r in runs]
        change_values = [r["change"][metric] for r in runs]
        out[metric] = {"parent": _summary(parent_values), "change": _summary(change_values),
                       "pairs": [[p, c] for p, c in zip(parent_values, change_values)]}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--worker", nargs=2)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(args.worker[0], int(args.worker[1]))))
        return
    if not args.parent:
        parser.error("--parent is required")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as work:
        splits = _splits(work)
        splits_path = os.path.join(work, "splits.npz")
        np.savez(splits_path, **{f"{name}:{part}": value
                                 for name, split in splits.items()
                                 for part, value in zip(("X", "y", "grid", "seed"), split)})
        sides = {"parent": _run_side(args.parent, splits_path, args.repeats),
                 "change": _run_side(ROOT, splits_path, args.repeats)}
    report = {"splits": {}}
    for name, (X, y, grid, seed) in splits.items():
        reference = _reference_losses(X, y, grid, seed)
        entry = {"rows": list(X.shape), "reference_lambda_log2":
                 float(np.log2(grid[int(np.argmin(reference))])),
                 "reference_heldout_losses": reference}
        for side, measured in sides.items():
            for rule, m in measured[name].items():
                losses = np.array(m.pop("heldout_losses"))
                m["heldout_max_rel_diff"] = float(np.max(np.abs(losses - reference) / reference))
                entry.setdefault(rule, {})[side] = m
        report["splits"][name] = entry
    if args.pairs:
        report["perfbench_bench_mix"] = {
            f"seed_{s}": _pairs(args.parent, s, args.pairs, args.seconds)
            for s in BENCH_MIX_SEEDS
        }
    report["bench_mix_digests"] = {
        side: {f"seed_{s}": _digest(path, s) for s in BENCH_MIX_SEEDS}
        for side, path in (("parent", args.parent), ("change", ROOT))
    }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
