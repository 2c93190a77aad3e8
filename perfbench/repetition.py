"""One repetition of one benchmark workload, run in a fresh process.

    python3 perfbench/repetition.py --workload NAME --seed N \
        --work-dir DIR [--trace]

prints one JSON object as its last line of standard output: set-up and
timed-part seconds, peak resident memory, mean AUC, the units attempted
and failed, the outcome of this repetition's output gates, a digest of
its outputs, the environment, and with ``--trace`` the per-layer
metrics of :mod:`spans`.  ``perfbench/run.py`` starts one such process
per repetition, so cached CSR forms and allocator state never carry
over from one repetition to the next.

The workloads drive srplearn only through its public entry points:

- ``bench-mix``: ``cmd_bench`` with all nine methods.  The only workload
  that uses every training layer (projection, PRESS, Jaccard and
  Euclidean distances, kernels, kNN, logreg).
- ``sweep-wide``: ``cmd_sweep`` over ELM alone at one width below
  ``n_train`` and one above it, on wide inputs.  Projection generation
  and synthetic data dominate; no distance, kernel or logreg call.
- ``score-stream``: one caller scores svmlight batches one after the
  other with a reloaded ELM and a KRR-Jaccard model.  Set-up fits and
  saves the models; the timed part is ``load_model`` plus the batches.

Set-up time runs from the start of this script's imports to the start
of the timed part.  On the two harness workloads that is start-up only
(imports and config parsing), because ``cmd_bench`` and ``cmd_sweep``
generate their data inside the timed call.

Every config key is set here, so a changed default in ``config.py``
cannot silently change a workload.  The sizes are those of the
acceptance bench and sweep scaled down so that one repetition takes a
few seconds on a 2-core machine.
"""

import time

_T0 = time.perf_counter()  # set-up time counts the imports below

import argparse
import ctypes
import glob
import hashlib
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np
import scipy

import srplearn
import srplearn.bench
from srplearn.config import parse_config
from srplearn.matio import read_table_csv

from spans import Tracer

WORKLOADS = ("bench-mix", "sweep-wide", "score-stream")

BENCH_MIX = {
    "n_runs": 2,
    "n_train": 200,
    "alpha": 0.05,
    "methods": "elm-srp, rvfl-srp, rbf-srp, krr-srp, knn-srp, logreg-srp, "
               "rbf-jaccard, krr-jaccard, knn-jaccard",
    "srp.dim": 400,
    "srp.density": 0.0182574185835055,  # 1/sqrt(data.n_features)
    "sweep.dims": 400,
    "lambda.min_exp": -20,
    "lambda.max_exp": 20,
    "data.kind": "synth",
    "data.name": "bench-mix",
    "data.n_train_pool": 800,
    "data.n_test": 400,
    "data.n_features": 3000,
    "data.density": 0.03,
    "data.signal_features": 600,
    "data.flip_prob": 0.0,
    "method.elm-srp.L": 400,
    "method.elm-srp.density": 0.0182574185835055,
    "method.rvfl-srp.L": 400,
    "method.rvfl-srp.d_lin": 400,
    "method.rvfl-srp.density": 0.0182574185835055,
    "method.rbf-srp.L": 200,
    "method.knn-srp.k": 1,
    "method.logreg-srp.max_iter": 200,
    "method.logreg-srp.tol": 1e-6,
    "method.rbf-jaccard.L": 200,
    "method.knn-jaccard.k": 1,
}

SWEEP_WIDE = {
    "n_runs": 2,
    "n_train": 500,
    "alpha": 0.05,
    "methods": "elm-srp",
    "srp.dim": 1000,
    "srp.density": 0.00707106781186548,  # 1/sqrt(data.n_features)
    "sweep.dims": "16, 1000",
    "lambda.min_exp": -20,
    "lambda.max_exp": 20,
    "data.kind": "synth",
    "data.name": "sweep-wide",
    "data.n_train_pool": 1000,
    "data.n_test": 2000,
    "data.n_features": 20000,
    "data.density": 0.03,
    "data.signal_features": 500,
    "data.flip_prob": 0.05,
    "method.elm-srp.L": 1000,
    "method.elm-srp.density": 0.00707106781186548,
}

SCORE_STREAM = {
    "n_features": 10000,
    "density": 0.02,
    "signal_features": 500,
    "flip_prob": 0.05,
    "n_fit": 1000,
    "elm_width": 500,
    "elm_density": 0.01,  # 1/sqrt(n_features)
    "lambda_exps": (-20, 20),
    "batch_rows": 100,
    "n_batches": 60,
}

# AUC floors of acceptance criteria 8 and 9
SWEEP_MIN_GAP = 0.05
BENCH_MIN_AUC = {"krr-jaccard": 0.9, "elm-srp": 0.9}


def _seeds(seed: int) -> dict:
    # the logreg penalty is tuned on subsample seed base_seed - 1, which
    # must be a valid (non-negative) generator seed
    return {"base_seed": seed + 1, "srp.seed": seed, "data.seed": seed}


def _write_config(path: str, out_dir: str, keys: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"out_dir = {out_dir}\n")
        for key, value in keys.items():
            handle.write(f"{key} = {value}\n")


def _csv_digest(out_dir: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(out_dir, "*.csv"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _harness(workload: str, seed: int, work_dir: str, mark) -> dict:
    out_dir = os.path.join(work_dir, "out")
    cfg_path = os.path.join(work_dir, "config.txt")
    keys = BENCH_MIX if workload == "bench-mix" else SWEEP_WIDE
    _write_config(cfg_path, out_dir, {**keys, **_seeds(seed)})
    cfg = parse_config(cfg_path)
    setup_s = time.perf_counter() - _T0

    mark("setup")
    start = time.perf_counter()
    # looked up at call time, so that a tracer's wrappers are called
    if workload == "bench-mix":
        report = srplearn.bench.cmd_bench(cfg)
    else:
        srplearn.bench.cmd_sweep(cfg)
    wall_s = time.perf_counter() - start
    mark("timed")

    table = "runs.csv" if workload == "bench-mix" else "sweep.csv"
    header, rows = read_table_csv(os.path.join(out_dir, table))
    col = {name: i for i, name in enumerate(header)}
    ok = [r for r in rows if r[col["error"]] == ""]
    gates = {"all_runs_complete": len(ok) == len(rows)}
    if workload == "bench-mix":
        for method, floor in BENCH_MIN_AUC.items():
            gates[f"{method}_auc_above_{floor}"] = report.auc_mean.get(method, 0.0) > floor
    else:
        dims = sorted({int(r[col["dim"]]) for r in rows})
        by_dim = {
            d: [float(r[col["auc"]]) for r in ok if int(r[col["dim"]]) == d]
            for d in dims
        }
        narrow, wide = by_dim[dims[0]], by_dim[dims[-1]]
        gates[f"elm_dim{dims[-1]}_beats_dim{dims[0]}"] = bool(
            narrow and wide and np.mean(wide) - np.mean(narrow) >= SWEEP_MIN_GAP
        )
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "auc_mean": float(np.mean([float(r[col["auc"]]) for r in ok])) if ok else 0.0,
        "attempted": len(rows),
        "failed": len(rows) - len(ok),
        "gates": gates,
        "digest": _csv_digest(out_dir),
    }


_SCORING_ERRORS = (
    ValueError,
    srplearn.SvmlightParseError,
    srplearn.DegenerateFitError,
    np.linalg.LinAlgError,
)


def _score_stream(seed: int, work_dir: str, mark) -> dict:
    p = SCORE_STREAM
    n_rows = p["n_fit"] + p["n_batches"] * p["batch_rows"]
    data = srplearn.synth_generate(
        n_rows, p["n_features"], p["density"], p["signal_features"],
        p["flip_prob"], seed,
    )
    fit = data.take(np.arange(p["n_fit"]))
    paths = []
    for b in range(p["n_batches"]):
        lo = p["n_fit"] + b * p["batch_rows"]
        path = os.path.join(work_dir, f"batch{b:03d}.svm")
        srplearn.write_svmlight(data.take(np.arange(lo, lo + p["batch_rows"])), path)
        paths.append(path)
    y = fit.labels.astype(np.float64)
    grid = srplearn.default_lambda_grid(*p["lambda_exps"])
    elm = srplearn.elm_fit(fit.sparse, y, p["elm_width"], p["elm_density"], seed, grid)
    K = srplearn.kernel_matrix(srplearn.KERNEL_JACCARD, fit.sparse, fit.sparse)
    krr = srplearn.krr_fit(K, y, grid, srplearn.KERNEL_JACCARD, fit.sparse)
    prefix = os.path.join(work_dir, "elm")
    srplearn.save_model(elm, prefix)
    first = srplearn.read_svmlight(paths[0], 0, 1, p["n_features"])
    reference = srplearn.model_predict(elm, first.sparse)
    setup_s = time.perf_counter() - _T0

    scores = {"elm": [], "krr": []}
    labels = []
    batch_s = []
    failed = 0
    mark("setup")
    start = time.perf_counter()
    model = srplearn.load_model(prefix)
    load_s = time.perf_counter() - start
    for path in paths:
        t = time.perf_counter()
        try:
            batch = srplearn.read_svmlight(path, 0, 1, p["n_features"])
            s_elm = srplearn.model_predict(model, batch.sparse)
            s_krr = srplearn.krr_predict(krr, batch.sparse)
        except _SCORING_ERRORS:
            failed += 1
            continue
        batch_s.append(time.perf_counter() - t)
        if not (np.all(np.isfinite(s_elm)) and np.all(np.isfinite(s_krr))):
            failed += 1
            continue
        scores["elm"].append(s_elm)
        scores["krr"].append(s_krr)
        labels.append(batch.labels)
    wall_s = time.perf_counter() - start
    mark("timed")

    gates = {
        "all_batches_scored": failed == 0,
        "reloaded_elm_bit_identical": bool(scores["elm"])
        and scores["elm"][0].tobytes() == reference.tobytes(),
    }
    auc_mean = 0.0
    digest = hashlib.sha256()
    if labels:
        y_all = np.concatenate(labels)
        aucs = []
        for name in ("elm", "krr"):
            s = np.concatenate(scores[name])
            digest.update(s.tobytes())
            aucs.append(srplearn.roc_auc(s, y_all))
        auc_mean = float(np.mean(aucs))
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "load_s": load_s,
        "batch_s": batch_s,
        "rows_scored": int(sum(lab.size for lab in labels)),
        "auc_mean": auc_mean,
        "attempted": len(paths),
        "failed": failed,
        "gates": gates,
        "digest": digest.hexdigest(),
    }


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            return int(get())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "SRPLEARN_WORKERS": os.environ.get("SRPLEARN_WORKERS"),
    }


def run(workload: str, seed: int, work_dir: str, traced: bool) -> dict:
    """Run one repetition in this process and return its result record."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    tracer = Tracer()
    os.makedirs(work_dir, exist_ok=True)
    if traced:
        with tracer.installed():
            result = _dispatch(workload, seed, work_dir, tracer.end_phase)
        # layer totals of the timed part, and of set-up under "setup."
        result["layers"] = tracer.metrics("timed")
        for name, value in tracer.metrics("setup").items():
            result["layers"][f"setup.{name}"] = value
    else:
        result = _dispatch(workload, seed, work_dir, lambda phase: None)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    return result


def _dispatch(workload, seed, work_dir, mark):
    """Run the workload; ``mark("setup")`` is called when set-up ends and
    ``mark("timed")`` when the timed part ends, with no srplearn call open."""
    if workload == "score-stream":
        return _score_stream(seed, work_dir, mark)
    return _harness(workload, seed, work_dir, mark)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    source = os.path.realpath(srplearn.__file__)
    if not source.startswith(os.path.join(os.path.realpath(ROOT), "src") + os.sep):
        print(f"srplearn imported from {source}, not from this checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.work_dir, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
