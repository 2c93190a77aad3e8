"""Benchmark harness: repeated-subsample runs and projection-dimension sweeps.

Protocol per projection dimension: one fixed projection (all methods see
the same projected representation), one tuning subsample (seed
``base_seed - 1``) used to pick the logistic-regression penalty, then
``n_runs`` training subsamples with seeds ``base_seed + run_index``, every
configured method fit on each and scored on the fixed test set.

``bench`` is a sweep of the one dimension ``srp.dim`` with the configured
ELM/RVFL widths; ``sweep`` runs each of ``sweep.dims`` and uses it as the
ELM/RVFL width too.  Both follow one evaluation path and differ only in
the files they write from its rows.

Runs execute one after another in run order, and each derives all its
randomness from its own seed, so the artifacts on disk are identical
across reruns.  Wall-clock timings are inherently non-repeatable and are
reported only in ``report.txt``, never in the CSV outputs.
"""

from __future__ import annotations

import os
import time
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, read_svmlight, subsample_indices, synth_generate
from .distance import KIND_JACCARD, KIND_SQEUCLIDEAN, distance_matrix
from .elm import elm_fit, model_predict, rbf_fit, rvfl_fit
from .exceptions import DegenerateFitError, NumericalDivergenceError
from .kernel import (
    KERNEL_JACCARD,
    KERNEL_LINEAR,
    kernel_matrix,
    knn_predict,
    krr_fit,
    krr_predict_kernel,
)
from .logreg import logreg_fit, logreg_predict, logreg_select_lambda
from .matio import read_matrix_csv, write_table_csv
from .metrics import EvalReport, accuracy, format_report, roc_auc, summarize
from .projection import apply_projection, derive_seed, make_projection

__all__ = ["BENCH_METHODS", "METHODS", "SWEEP_METHODS", "cmd_bench", "cmd_sweep"]

# ``RunConfig`` (srplearn.config) is named only in annotations: the config
# reader imports this module's method table, so importing it back would
# be circular.

_RUN_COLUMNS = [
    "run",
    "seed",
    "method",
    "auc",
    "accuracy",
    "iterations",
    "converged",
    "error",
]


@dataclass(frozen=True)
class _Fit:
    """Everything one method invocation needs besides its inputs, read-only."""

    y_train: np.ndarray
    grid: np.ndarray
    seed: int
    params: dict
    logreg_lambda: float | None
    width_override: int | None  # sweeps force the random-layer width


# Method input: the shared projected features, or the raw sparse rows
# (ELM/RVFL build their own ternary layer, the Jaccard variants need the
# binary sets themselves).
_FEATURES = "features"
_ROWS = "rows"
_ELM = "elm"
_RVFL = "rvfl"

# Each family fits on (X_train, X_test) and returns (scores, decision
# threshold, iterations, converged).  It calls the library functions by
# their module-level names, so wrappers installed on those are seen.

def _hidden_layer(kind, X_train, X_test, fit):
    """ELM, or RVFL with its direct linear block, on a random ternary layer."""
    L = fit.width_override or fit.params.get("L", 1000)
    density = fit.params.get("density")
    if kind == _ELM:
        model = elm_fit(X_train, fit.y_train, L, density, fit.seed, fit.grid)
    else:
        d_lin = fit.params.get("d_lin")
        model = rvfl_fit(X_train, fit.y_train, L, d_lin, density, fit.seed, fit.grid)
    return model_predict(model, X_test), 0.0, 0, True


def _rbf(kind, X_train, X_test, fit):
    """RBF network on random training centroids under distance ``kind``."""
    L = fit.params.get("L", min(1000, fit.y_train.size))
    model = rbf_fit(X_train, fit.y_train, L, kind, fit.seed, fit.grid)
    return model_predict(model, X_test), 0.0, 0, True


def _krr(kind, X_train, X_test, fit):
    K = kernel_matrix(kind, X_train, X_train)
    model = krr_fit(K, fit.y_train, fit.grid, kind)
    scores = krr_predict_kernel(model, kernel_matrix(kind, X_test, X_train))
    return scores, 0.0, 0, True


def _knn(kind, X_train, X_test, fit):
    k = fit.params.get("k", 1)
    D = distance_matrix(kind, X_test, X_train)
    return knn_predict(D, fit.y_train, k), 0.0, 0, True


def _logreg(kind, X_train, X_test, fit):
    model = logreg_fit(X_train, fit.y_train, fit.logreg_lambda, **fit.params)
    return logreg_predict(model, X_test), 0.5, model.iterations, model.converged


def _ranged(parse, holds, requirement):
    """A parameter parser that also checks the range a config alone decides."""
    def parser(text):
        value = parse(text)
        if not holds(value):
            raise ValueError(f"must be {requirement}, got {value!r}")
        return value
    return parser


_WIDTH = _ranged(int, lambda v: v >= 1, ">= 1")
_DENSITY = _ranged(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_K = _ranged(int, lambda v: v >= 1 and v % 2 == 1, "an odd integer >= 1")
_MAX_ITER = _ranged(int, lambda v: v >= 0, ">= 0")
_TOL = _ranged(float, lambda v: v > 0.0, "> 0")

# name -> (input, family, kind, {parameter: parser}); the config reader
# types and range-checks each ``method.<name>.<parameter>`` value with its
# parser.  Ranges that depend on the data (k or L against n_train) are
# checked by the library when a run starts.
METHODS = {
    "elm-srp": (_ROWS, _hidden_layer, _ELM, {"L": _WIDTH, "density": _DENSITY}),
    "rvfl-srp": (
        _ROWS, _hidden_layer, _RVFL, {"L": _WIDTH, "d_lin": _WIDTH, "density": _DENSITY}
    ),
    "rbf-srp": (_FEATURES, _rbf, KIND_SQEUCLIDEAN, {"L": _WIDTH}),
    "krr-srp": (_FEATURES, _krr, KERNEL_LINEAR, {}),
    "knn-srp": (_FEATURES, _knn, KIND_SQEUCLIDEAN, {"k": _K}),
    "logreg-srp": (_FEATURES, _logreg, None, {"max_iter": _MAX_ITER, "tol": _TOL}),
    "rbf-jaccard": (_ROWS, _rbf, KIND_JACCARD, {"L": _WIDTH}),
    "krr-jaccard": (_ROWS, _krr, KERNEL_JACCARD, {}),
    "knn-jaccard": (_ROWS, _knn, KIND_JACCARD, {"k": _K}),
}
# Sweeps default to the methods that depend on the projection: the
# Jaccard ones see the raw sets, so sweeping them is uninformative.
BENCH_METHODS = list(METHODS)
SWEEP_METHODS = [
    m for m, (_, _, kind, _) in METHODS.items()
    if kind not in (KIND_JACCARD, KERNEL_JACCARD)
]


def _method_seed(run_seed: int, name: str) -> int:
    return derive_seed(run_seed, zlib.crc32(name.encode("ascii")))


def _resolve_methods(cfg: RunConfig, defaults) -> list:
    """The configured methods, checked before any data is generated."""
    methods = cfg.resolved_methods(defaults)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    if "logreg-srp" in methods and cfg.base_seed < 1:
        raise ValueError(
            "base_seed must be >= 1 when logreg-srp runs (its penalty is "
            f"tuned on subsample seed base_seed - 1), got {cfg.base_seed}"
        )
    return methods


def _needs_features(methods) -> bool:
    return any(METHODS[m][0] == _FEATURES for m in methods)


def _load_data(cfg: RunConfig):
    """Returns (train_pool, test, external_features or None)."""
    d = cfg.data
    if d.kind == "synth":
        seed = d.seed if d.seed is not None else cfg.base_seed
        total = d.n_train_pool + d.n_test
        ds = synth_generate(
            total, d.n_features, d.density, d.signal_features, d.flip_prob, seed
        )
        pool = ds.take(np.arange(d.n_train_pool))
        test = ds.take(np.arange(d.n_train_pool, total))
        return pool, test, None
    pool = read_svmlight(d.train_path, d.dense_features, d.index_base, d.n_features)
    test = read_svmlight(d.test_path, d.dense_features, d.index_base, d.n_features)
    width = max(pool.n_sparse_features, test.n_sparse_features)
    pool = Dataset(pool.sparse.widen(width), pool.dense, pool.labels, pool.name)
    test = Dataset(test.sparse.widen(width), test.dense, test.labels, test.name)
    external = None
    if d.train_features or d.test_features:
        if not (d.train_features and d.test_features):
            raise ValueError(
                "precomputed features require both data.train_features and "
                "data.test_features"
            )
        f_pool = read_matrix_csv(d.train_features)
        f_test = read_matrix_csv(d.test_features)
        if f_pool.shape[0] != pool.n_samples or f_test.shape[0] != test.n_samples:
            raise ValueError("precomputed feature row counts do not match data")
        external = (f_pool, f_test)
    return pool, test, external


def _build_features(cfg, pool, test, dim, external):
    """Shared feature matrices for the feature-consuming methods.

    Returns (F_pool, F_test, note); the note names the features' source
    and the exact-zero fraction of the projected block, a diagnostic for
    the projection density.
    """
    if external is not None:
        f_pool, f_test = external
        source = f"precomputed features ({f_pool.shape[1]} columns)"
    else:
        seed = cfg.srp_seed if cfg.srp_seed is not None else cfg.base_seed
        P = make_projection(pool.n_sparse_features, dim, cfg.srp_density, seed)
        f_pool = apply_projection(pool.sparse, P)
        f_test = apply_projection(test.sparse, P)
        source = f"projection density={P.density:.6g} seed={seed}"
    zero_frac = float(np.mean(f_pool == 0.0)) if f_pool.size else 0.0
    note = f"{source}, exact-zero fraction {zero_frac:.4f}"
    if pool.dense is not None:
        f_pool = np.hstack([f_pool, pool.dense])
        f_test = np.hstack([f_test, test.dense])
    return f_pool, f_test, note


def _tune_logreg(cfg, pool, F_pool, grid):
    """Penalty chosen once on the tuning subsample (seed base_seed - 1)."""
    tune_seed = cfg.base_seed - 1
    idx = subsample_indices(pool.n_samples, cfg.n_train, tune_seed)
    lam, _ = logreg_select_lambda(
        F_pool[idx],
        pool.labels[idx].astype(np.float64),
        grid,
        seed=tune_seed,
        **cfg.method_params.get("logreg-srp", {}),
    )
    return lam


def _run_block(cfg, pool, test, F_pool, F_test, methods, grid, logreg_lambda,
               width_override):
    """Execute all runs for one feature configuration; rows in run order."""
    n_pool = pool.n_samples
    if cfg.n_train > n_pool:
        raise ValueError(
            f"n_train={cfg.n_train} exceeds training pool of {n_pool}"
        )
    rows = []
    for run_index in range(cfg.n_runs):
        run_seed = cfg.base_seed + run_index
        idx = subsample_indices(n_pool, cfg.n_train, run_seed)
        train = pool.take(idx)
        inputs = {_ROWS: (train.sparse, test.sparse)}
        if F_pool is not None:
            inputs[_FEATURES] = (F_pool[idx], F_test)
        for name in methods:
            source, family, kind, _ = METHODS[name]
            fit = _Fit(
                y_train=train.labels.astype(np.float64),
                grid=grid,
                seed=_method_seed(run_seed, name),
                params=cfg.method_params.get(name, {}),
                logreg_lambda=logreg_lambda,
                width_override=width_override,
            )
            start = time.perf_counter()
            try:
                scores, threshold, iters, conv = family(kind, *inputs[source], fit)
                seconds = time.perf_counter() - start
                result = {
                    "auc": roc_auc(scores, test.labels),
                    "accuracy": accuracy(scores, test.labels, threshold),
                    "iterations": iters,
                    "converged": int(conv),
                    "error": "",
                }
            except (
                ValueError,
                DegenerateFitError,
                NumericalDivergenceError,
                np.linalg.LinAlgError,
            ) as exc:
                seconds = time.perf_counter() - start
                message = " ".join(str(exc).split())
                warnings.warn(
                    f"method {name} failed on run {run_index}: {message}",
                    RuntimeWarning,
                )
                result = {
                    "auc": float("nan"),
                    "accuracy": float("nan"),
                    "iterations": 0,
                    "converged": 0,
                    "error": message,
                }
            rows.append({"run": run_index, "seed": run_seed, "method": name,
                         **result, "seconds": seconds})
    return rows


def _evaluate(cfg: RunConfig, sweep: bool):
    """Every run of every method at each projection dimension.

    ``bench`` evaluates the one dimension ``srp.dim`` with the configured
    ELM/RVFL widths; a sweep evaluates each of ``sweep.dims`` and uses it
    as the ELM/RVFL width too.  Returns (methods, rows, context lines for
    the report); each row carries its ``dim``.
    """
    methods = _resolve_methods(cfg, SWEEP_METHODS if sweep else BENCH_METHODS)
    pool, test, external = _load_data(cfg)
    if sweep and external is not None:
        raise ValueError(
            "sweeps recompute projections per dimension; precomputed "
            "features are only supported by bench"
        )
    grid = cfg.lambda_grid()
    context = [
        f"data: {cfg.data.name or pool.name or cfg.data.kind} "
        f"(pool={pool.n_samples}, test={test.n_samples}, "
        f"sparse_features={pool.n_sparse_features}, "
        f"dense_features={pool.n_dense_features})",
        f"methods: {', '.join(methods)}",
        f"n_train={cfg.n_train} n_runs={cfg.n_runs} base_seed={cfg.base_seed}",
        f"lambda grid: 2^{cfg.lambda_min_exp} .. 2^{cfg.lambda_max_exp} "
        f"({cfg.lambda_max_exp - cfg.lambda_min_exp + 1} values)",
    ]
    rows = []
    for dim in cfg.sweep_dims if sweep else [cfg.srp_dim]:
        F_pool = F_test = None
        if _needs_features(methods):
            F_pool, F_test, note = _build_features(cfg, pool, test, dim, external)
            context.append(f"dim {dim}: {note}")
        logreg_lambda = None
        if "logreg-srp" in methods:
            logreg_lambda = _tune_logreg(cfg, pool, F_pool, grid)
            context.append(
                f"dim {dim}: logreg lambda={logreg_lambda:.6g}, tuned on "
                f"subsample seed {cfg.base_seed - 1}"
            )
        block = _run_block(cfg, pool, test, F_pool, F_test, methods, grid,
                           logreg_lambda, dim if sweep else None)
        rows.extend({"dim": dim, **r} for r in block)
    return methods, rows, context


def _write_csv(path, columns, rows):
    write_table_csv(path, columns, [[r[c] for c in columns] for r in rows])


def _write_report(out_dir, title, context, body):
    lines = [title, "", *context, "", *body]
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _aggregate(rows, methods, n_runs, alpha):
    """Build the report from per-run rows; incomplete methods are dropped."""
    auc_runs = {}
    acc_runs = {}
    times = {}
    for m in methods:
        ok = [r for r in rows if r["method"] == m and r["error"] == ""]
        if len(ok) != n_runs:
            warnings.warn(
                f"method {m} completed {len(ok)}/{n_runs} runs; "
                "excluded from the summary",
                RuntimeWarning,
            )
            continue
        auc_runs[m] = [r["auc"] for r in ok]
        acc_runs[m] = [r["accuracy"] for r in ok]
        times[m] = [r["seconds"] for r in ok]
    if not auc_runs:
        raise DegenerateFitError("every method failed; nothing to summarize")
    if n_runs >= 2:
        report = summarize(auc_runs, alpha, times)
    else:
        names = list(auc_runs.keys())
        means = {m: float(np.mean(auc_runs[m])) for m in names}
        best = max(names, key=lambda m: means[m])
        report = EvalReport(
            methods=names,
            auc_mean=means,
            auc_std={m: 0.0 for m in names},
            run_aucs={m: list(auc_runs[m]) for m in names},
            p_values=np.ones((0, 0)),
            best_set=[best],
            alpha=alpha,
            time_mean_s={m: float(np.mean(times[m])) for m in names},
        )
    return report, acc_runs


def _write_bench_artifacts(out_dir, rows, report, acc_runs, context):
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "runs.csv"), _RUN_COLUMNS, rows)
    summary_rows = []
    for m in report.methods:
        acc = acc_runs.get(m, [])
        acc_mean = float(np.mean(acc)) if acc else float("nan")
        acc_std = float(np.std(acc, ddof=1)) if len(acc) > 1 else 0.0
        summary_rows.append(
            [
                m,
                len(report.run_aucs[m]),
                float(report.auc_mean[m]),
                float(report.auc_std[m]),
                acc_mean,
                acc_std,
                int(m in report.best_set),
            ]
        )
    write_table_csv(
        os.path.join(out_dir, "summary.csv"),
        ["method", "n_runs", "auc_mean", "auc_std", "accuracy_mean",
         "accuracy_std", "best"],
        summary_rows,
    )
    if report.p_values.size:
        write_table_csv(
            os.path.join(out_dir, "pvalues.csv"),
            ["method"] + report.methods,
            [
                [m] + [float(v) for v in report.p_values[mi]]
                for mi, m in enumerate(report.methods)
            ],
        )
    body = [format_report(report), ""]
    logreg_rows = [r for r in rows if r["method"] == "logreg-srp" and not r["error"]]
    if logreg_rows:
        iters = [r["iterations"] for r in logreg_rows]
        conv = sum(r["converged"] for r in logreg_rows)
        body.append(
            f"logreg iterations: min={min(iters)} max={max(iters)}; "
            f"converged {conv}/{len(logreg_rows)} runs"
        )
    failures = [r for r in rows if r["error"]]
    if failures:
        body.append(f"failures: {len(failures)}")
        for r in failures:
            body.append(f"  run {r['run']} {r['method']}: {r['error']}")
    else:
        body.append("failures: none")
    _write_report(out_dir, "benchmark report", context, body)


def cmd_bench(cfg: RunConfig) -> EvalReport:
    """Run the repeated-subsample benchmark and write artifacts to disk."""
    methods, rows, context = _evaluate(cfg, sweep=False)
    report, acc_runs = _aggregate(rows, methods, cfg.n_runs, cfg.alpha)
    _write_bench_artifacts(cfg.out_dir, rows, report, acc_runs, context)
    return report


def cmd_sweep(cfg: RunConfig):
    """Evaluate every configured method across the projection-dimension grid.

    The swept dimension doubles as the hidden width of ELM and RVFL; the
    feature-based methods get the projected representation recomputed at
    each dimension.  Returns the per-run rows written to sweep.csv.
    """
    methods, rows, context = _evaluate(cfg, sweep=True)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, "sweep.csv"), ["dim"] + _RUN_COLUMNS, rows)
    table = [f"{'dim':>6}  {'method':<14} {'auc_mean':>9} {'time_s':>8}"]
    for dim in cfg.sweep_dims:
        for m in methods:
            ok = [
                r
                for r in rows
                if r["dim"] == dim and r["method"] == m and r["error"] == ""
            ]
            if not ok:
                table.append(f"{dim:>6}  {m:<14} {'failed':>9} {'-':>8}")
                continue
            auc_mean = float(np.mean([r["auc"] for r in ok]))
            t_mean = float(np.mean([r["seconds"] for r in ok]))
            table.append(f"{dim:>6}  {m:<14} {auc_mean:9.4f} {t_mean:8.3f}")
    _write_report(cfg.out_dir, "sweep report", context, table)
    return rows
