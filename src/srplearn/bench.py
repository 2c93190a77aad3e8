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
reported only in ``report.txt`` (per-method means) and ``timings.txt``
(one line per run and method), never in the CSV outputs.  So is the
``environment:`` line naming the numpy, scipy and BLAS builds, whose
kernels the outputs' last bits depend on.
"""

from __future__ import annotations

import os
import time
import warnings
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy

from . import checks
from .datasets import Dataset, read_svmlight, subsample_indices, synth_generate
from .distance import distance_matrix
from .elm import elm_fit, model_predict, rbf_fit, rvfl_fit
from .exceptions import DegenerateFitError, NumericalDivergenceError
from .kernel import (
    KERNEL_JACCARD,
    kernel_matrix,
    knn_predict,
    krr_fit,
    krr_predict_kernel,
)
from .logreg import logreg_fit, logreg_predict, logreg_select_lambda
from .matio import read_matrix_csv, write_table_csv
from .metrics import EvalReport, accuracy, format_report, roc_auc, summarize
from .projection import apply_projection, derive_seed, make_projection
from .ridge import solve_ridge_press

__all__ = ["BENCH_METHODS", "METHODS", "SWEEP_METHODS", "cmd_bench", "cmd_sweep"]

# ``RunConfig`` (srplearn.config) is named only in annotations: the config
# reader imports this module's method table, so importing it back would
# be circular.

_RUN_COLUMNS = ["run", "seed", "method", "auc", "accuracy", "iterations", "converged", "error"]


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
# binary sets themselves).  Its row type picks RBF's and kNN's distance.
_FEATURES = "features"
_ROWS = "rows"

# Each family fits on (X_train, X_test) and returns (scores, decision
# threshold, iterations, converged, the penalty PRESS chose or None).  It
# calls the library functions by their module-level names, so wrappers
# installed on those are seen.

def _elm(X_train, X_test, fit):
    """ELM on a random ternary layer."""
    L = fit.width_override or fit.params.get("L", 1000)
    density = fit.params.get("density")
    model = elm_fit(X_train, fit.y_train, L, density, fit.seed, fit.grid)
    return model_predict(model, X_test), 0.0, 0, True, model.solution.lam


def _rvfl(X_train, X_test, fit):
    """RVFL: ELM with its direct linear block."""
    L = fit.width_override or fit.params.get("L", 1000)
    d_lin, density = fit.params.get("d_lin"), fit.params.get("density")
    model = rvfl_fit(X_train, fit.y_train, L, d_lin, density, fit.seed, fit.grid)
    return model_predict(model, X_test), 0.0, 0, True, model.solution.lam


def _rbf(X_train, X_test, fit):
    """RBF network on random training centroids."""
    L = fit.params.get("L", min(1000, fit.y_train.size))
    model = rbf_fit(X_train, fit.y_train, L, fit.seed, fit.grid)
    return model_predict(model, X_test), 0.0, 0, True, model.solution.lam


def _ridge(X_train, X_test, fit):
    """Ridge on the features themselves, primal or dual by their shape."""
    solution = solve_ridge_press(X_train, fit.y_train, fit.grid)
    return X_test @ solution.beta[:, 0], 0.0, 0, True, solution.lam


def _krr(X_train, X_test, fit):
    """Kernel ridge on the Jaccard kernel of the raw sets."""
    K = kernel_matrix(KERNEL_JACCARD, X_train, X_train)
    model = krr_fit(K, fit.y_train, fit.grid)
    scores = krr_predict_kernel(model, kernel_matrix(KERNEL_JACCARD, X_test, X_train))
    return scores, 0.0, 0, True, model.lam


def _knn(X_train, X_test, fit):
    k = fit.params.get("k", 1)
    D = distance_matrix(X_test, X_train)
    return knn_predict(D, fit.y_train, k), 0.0, 0, True, None


def _logreg(X_train, X_test, fit):
    model = logreg_fit(X_train, fit.y_train, fit.logreg_lambda, **fit.params)
    # the tuned penalty, not chosen by PRESS, has its own report line
    return logreg_predict(model, X_test), 0.5, model.iterations, model.converged, None


# name -> (input, family, {parameter: rule}); the config reader checks
# each ``method.<name>.<parameter>`` value with the rule of
# :mod:`srplearn.checks` that the library applies to that argument.
# Ranges that depend on the data (k or L against n_train) are checked by
# the library when a run starts.
_WIDTH, _DENSITY, _K = checks.count, checks.density, checks.neighbors
METHODS = {
    "elm-srp": (_ROWS, _elm, {"L": _WIDTH, "density": _DENSITY}),
    "rvfl-srp": (_ROWS, _rvfl, {"L": _WIDTH, "d_lin": _WIDTH, "density": _DENSITY}),
    "rbf-srp": (_FEATURES, _rbf, {"L": _WIDTH}),
    "krr-srp": (_FEATURES, _ridge, {}),
    "knn-srp": (_FEATURES, _knn, {"k": _K}),
    "logreg-srp": (_FEATURES, _logreg, {"max_iter": checks.max_iter, "tol": checks.tol}),
    "rbf-jaccard": (_ROWS, _rbf, {"L": _WIDTH}),
    "krr-jaccard": (_ROWS, _krr, {}),
    "knn-jaccard": (_ROWS, _knn, {"k": _K}),
}
# Sweeps default to the methods that see the projection, as features or a
# random layer: the Jaccard ones see the raw sets, so sweeping them is
# uninformative.
BENCH_METHODS = list(METHODS)
SWEEP_METHODS = [
    m for m, (source, family, _) in METHODS.items()
    if source == _FEATURES or family in (_elm, _rvfl)
]


def _method_seed(run_seed: int, name: str) -> int:
    return derive_seed(run_seed, zlib.crc32(name.encode("ascii")))


def _resolve_methods(cfg: RunConfig, defaults) -> list:
    """The configured methods, checked before any data is generated."""
    methods = cfg.resolved_methods(defaults)
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
    if d.train_features:  # paired, checked before any file was read
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
    """Penalty chosen once on the tuning subsample (seed base_seed - 1),
    the number of the grid's penalties whose descent converged, and
    whether the chosen penalty's did."""
    tune_seed = cfg.base_seed - 1
    idx = subsample_indices(pool.n_samples, cfg.n_train, tune_seed)
    converged = np.zeros(len(grid), dtype=bool)
    lam, _ = logreg_select_lambda(
        F_pool[idx],
        pool.labels[idx].astype(np.float64),
        grid,
        seed=tune_seed,
        converged=converged,
        **cfg.method_params.get("logreg-srp", {}),
    )
    return lam, int(np.count_nonzero(converged)), bool(converged[grid == lam][0])


def _run_block(cfg, pool, test, F_pool, F_test, methods, grid, logreg_lambda,
               width_override):
    """Execute all runs for one feature configuration; rows in run order.

    A row's ``constant`` says whether every score of the run was equal,
    and its ``lambda`` is the penalty PRESS chose (None for kNN, logreg
    and failed runs); both are reported, not written to the CSVs.
    """
    rows = []
    for run_index in range(cfg.n_runs):
        run_seed = cfg.base_seed + run_index
        idx = subsample_indices(pool.n_samples, cfg.n_train, run_seed)
        train = pool.take(idx)
        inputs = {_ROWS: (train.sparse, test.sparse)}
        if F_pool is not None:
            inputs[_FEATURES] = (F_pool[idx], F_test)
        for name in methods:
            source, family, _ = METHODS[name]
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
                scores, threshold, iters, conv, lam = family(*inputs[source], fit)
                seconds = time.perf_counter() - start
                result = {
                    "auc": roc_auc(scores, test.labels),
                    "accuracy": accuracy(scores, test.labels, threshold),
                    "iterations": iters,
                    "converged": int(conv),
                    "error": "",
                    "constant": bool(np.all(scores == scores[:1])),
                    "lambda": lam,
                }
            except (ValueError, DegenerateFitError, NumericalDivergenceError,
                    np.linalg.LinAlgError) as exc:
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
                    "constant": False,
                    "lambda": None,
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
    if checks.feature_files(cfg.data.train_features, cfg.data.test_features) and sweep:
        raise ValueError(
            "sweeps recompute projections per dimension; precomputed "
            "features are only supported by bench"
        )
    pool, test, external = _load_data(cfg)
    # before any projection or tuning; synthetic pools were checked at parse
    checks.sample_size(cfg.n_train, pool.n_samples, "n_train")
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
            logreg_lambda, n_converged, tuned_converged = _tune_logreg(
                cfg, pool, F_pool, grid
            )
            edge = ""
            if logreg_lambda == grid[0]:
                edge = " (bottom edge of the grid)"
            elif logreg_lambda == grid[-1]:
                edge = " (top edge of the grid)"
            unfinished = "" if tuned_converged else (
                "; the tuned penalty's descent did not converge"
            )
            context.append(
                f"dim {dim}: logreg lambda={logreg_lambda:.6g}{edge}, tuned on "
                f"subsample seed {cfg.base_seed - 1}; descent converged for "
                f"{n_converged}/{len(grid)} penalties{unfinished}"
            )
        block = _run_block(cfg, pool, test, F_pool, F_test, methods, grid,
                           logreg_lambda, dim if sweep else None)
        rows.extend({"dim": dim, **r} for r in block)
    return methods, rows, context


def _write_csv(path, columns, rows):
    write_table_csv(path, columns, [[r[c] for c in columns] for r in rows])


def _environment() -> str:
    """The numpy, scipy and BLAS builds a run's numbers came from."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".rstrip()
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        blas = "unknown"
    return f"environment: numpy {np.__version__}, scipy {scipy.__version__}, BLAS {blas}"


def _write_report(out_dir, title, context, body):
    lines = [title, "", *context, _environment(), "", *body]
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_timings(out_dir, rows):
    """``timings.txt``: one line ``dim run method seconds`` per row, failed
    runs included.  Not a ``.csv``, so no byte-identity check reads it."""
    with open(os.path.join(out_dir, "timings.txt"), "w", encoding="utf-8") as handle:
        handle.writelines(
            f"{r['dim']} {r['run']} {r['method']} {r['seconds']:.6f}\n" for r in rows
        )


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
    return summarize(auc_runs, alpha, times), acc_runs


def _failure_lines(rows):
    """The report's count of failed runs, then one line per failure."""
    failures = [r for r in rows if r["error"]]
    return [f"failures: {len(failures) or 'none'}"] + [
        f"  dim {r['dim']} run {r['run']} {r['method']}: {r['error']}" for r in failures
    ]


def _constant_lines(rows):
    """The report's count of runs whose scores were all equal (AUC 0.5 with
    no ranking), then one line per dim and method that had any."""
    runs = Counter((r["dim"], r["method"]) for r in rows)
    constant = Counter((r["dim"], r["method"]) for r in rows if r["constant"])
    return [f"constant scores: {constant.total() or 'none'}"] + [
        f"  dim {dim} {m}: {n}/{runs[dim, m]} runs" for (dim, m), n in constant.items()
    ]


def _edge_lines(rows, grid):
    """The report's count of runs whose PRESS penalty sat at an edge of the
    grid, then one line per dim, method and edge."""
    edges = {grid[0]: "bottom", grid[-1]: "top"}
    runs = Counter((r["dim"], r["method"]) for r in rows)
    at = Counter((r["dim"], r["method"], r["lambda"]) for r in rows if r["lambda"] in edges)
    return [f"lambda at grid edge: {at.total() or 'none'}"] + [
        f"  dim {dim} {m}: {n}/{runs[dim, m]} runs at 2^{np.log2(lam):g} ({edges[lam]})"
        for (dim, m, lam), n in at.items()
    ]


def _outcome_lines(rows, grid):
    """The report's sections of degenerate and failed runs."""
    return _constant_lines(rows) + _failure_lines(rows) + _edge_lines(rows, grid)


def _write_bench_artifacts(out_dir, rows, report, acc_runs, context, grid):
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "runs.csv"), _RUN_COLUMNS, rows)
    summary_rows = []
    for m in report.methods:
        acc = acc_runs[m]  # a reported method completed every run
        acc_std = float(np.std(acc, ddof=1)) if len(acc) > 1 else 0.0
        summary_rows.append([m, len(acc), report.auc_mean[m], report.auc_std[m],
                             float(np.mean(acc)), acc_std, int(m in report.best_set)])
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
    body += _outcome_lines(rows, grid)
    _write_report(out_dir, "benchmark report", context, body)
    _write_timings(out_dir, rows)


def cmd_bench(cfg: RunConfig) -> EvalReport:
    """Run the repeated-subsample benchmark and write artifacts to disk."""
    methods, rows, context = _evaluate(cfg, sweep=False)
    report, acc_runs = _aggregate(rows, methods, cfg.n_runs, cfg.alpha)
    _write_bench_artifacts(cfg.out_dir, rows, report, acc_runs, context, cfg.lambda_grid())
    return report


def cmd_sweep(cfg: RunConfig):
    """Evaluate every configured method across the projection-dimension grid.

    The swept dimension doubles as the hidden width of ELM and RVFL; the
    feature-based methods get the projected representation recomputed at
    each dimension.  Returns the per-run rows written to sweep.csv;
    ``report.txt`` marks a cell averaged over fewer than ``n_runs`` runs,
    e.g. ``(3/5 runs)``, and lists every failed run.
    """
    methods, rows, context = _evaluate(cfg, sweep=True)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, "sweep.csv"), ["dim"] + _RUN_COLUMNS, rows)
    table = [f"{'dim':>6}  {'method':<14} {'auc_mean':>9} {'time_s':>8}"]
    for dim in cfg.sweep_dims:
        for m in methods:
            ok = [r for r in rows
                  if r["dim"] == dim and r["method"] == m and not r["error"]]
            if not ok:
                table.append(f"{dim:>6}  {m:<14} {'failed':>9} {'-':>8}")
                continue
            auc_mean = float(np.mean([r["auc"] for r in ok]))
            t_mean = float(np.mean([r["seconds"] for r in ok]))
            partial = f"  ({len(ok)}/{cfg.n_runs} runs)" if len(ok) < cfg.n_runs else ""
            table.append(f"{dim:>6}  {m:<14} {auc_mean:9.4f} {t_mean:8.3f}{partial}")
    table += ["", *_outcome_lines(rows, cfg.lambda_grid())]
    _write_report(cfg.out_dir, "sweep report", context, table)
    _write_timings(cfg.out_dir, rows)
    return rows
