"""The harness's pairwise builds before and after a change, on fixed seeds.

    python3 tools/pairs_bench.py --parent PARENT_CHECKOUT [--pairs 10]
        [--seconds 40] > BENCH_label.json

Run from the root of the changed checkout; ``PARENT_CHECKOUT`` is a
second source tree (``git archive`` of the parent commit).  For each
checkout it records:

- ``perfbench/run.py --workload bench-mix`` in ``--pairs`` alternating
  pairs at seed 0 and at seed 3, with each side's median and quartiles
  (0 skips them);
- the per-layer metrics of one traced bench-mix repetition at seed 0,
  for the distance, kernel and prediction layers;
- one acceptance bench (``tests/test_acceptance.py``'s), each in a fresh
  process: its wall time, its ``ru_maxrss`` and the digests of
  ``runs.csv``, ``summary.csv`` and ``pvalues.csv``;
- the bench-mix CSV digest at seeds 0-3.

    python3 tools/pairs_bench.py --acceptance WORK_DIR

is the per-checkout half of the acceptance bench: it prints one JSON
object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from logreg_bench import _digest, _pairs  # noqa: E402

PAIR_SEEDS = (0, 3)
DIGEST_SEEDS = (0, 1, 2, 3)
LAYERS = (
    "distance.jaccard.pairs", "distance.jaccard.s", "distance.sqeuclid.pairs",
    "distance.sqeuclid.s", "sparse.gram.calls", "sparse.gram.s",
    "kernel.matrix.calls", "kernel.matrix.s", "elm.predict.calls",
    "kernel.knn.calls", "kernel.krr_predict.calls",
)
# tests/test_acceptance.py's _BENCH_BODY
ACCEPTANCE = {
    "base_seed": 7, "n_runs": 20, "n_train": 1000, "srp.dim": 2000,
    "data.kind": "synth", "data.n_features": 10000, "data.n_train_pool": 4000,
    "data.n_test": 2000, "data.density": 0.01, "data.signal_features": 2000,
    "data.flip_prob": 0.0, "method.logreg-srp.max_iter": 200,
}


def acceptance(work_dir: str) -> dict:
    """The acceptance bench run with the srplearn on sys.path."""
    from srplearn.bench import cmd_bench
    from srplearn.config import parse_config

    out_dir = os.path.join(work_dir, "out")
    path = os.path.join(work_dir, "config.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"out_dir = {out_dir}\n")
        handle.writelines(f"{k} = {v}\n" for k, v in ACCEPTANCE.items())
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # knn-srp's constant scores
        cmd_bench(parse_config(path))
    wall = time.perf_counter() - start
    digests = {}
    for name in ("runs.csv", "summary.csv", "pvalues.csv"):
        with open(os.path.join(out_dir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()[:12]
    return {"wall_s": wall,
            "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digests": digests}


def _acceptance_side(checkout: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    with tempfile.TemporaryDirectory() as work:
        cmd = [sys.executable, os.path.abspath(__file__), "--acceptance", work]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _traced(checkout: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as work:
        cmd = [sys.executable, "perfbench/repetition.py", "--workload", "bench-mix",
               "--seed", str(seed), "--work-dir", work, "--trace"]
        done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    layers = json.loads(done.stdout.strip().splitlines()[-1])["layers"]
    return {name: layers[name] for name in LAYERS}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--acceptance")
    args = parser.parse_args()
    if args.acceptance:
        print(json.dumps(acceptance(args.acceptance)))
        return
    if not args.parent:
        parser.error("--parent is required")
    sides = (("parent", args.parent), ("change", ROOT))
    report = {
        "traced_bench_mix_seed_0": {side: _traced(path, 0) for side, path in sides},
        "acceptance_bench": {side: _acceptance_side(path) for side, path in sides},
        "bench_mix_digests": {
            side: {f"seed_{s}": _digest(path, s) for s in DIGEST_SEEDS}
            for side, path in sides
        },
    }
    if args.pairs:
        report["perfbench_bench_mix"] = {
            f"seed_{s}": _pairs(args.parent, s, args.pairs, args.seconds)
            for s in PAIR_SEEDS
        }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
