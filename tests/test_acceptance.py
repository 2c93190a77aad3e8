"""Acceptance gate: the package-level guarantees, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure).  Criteria 8-10 run the
benchmark harness on desk-scale synthetic data and dominate the runtime;
the whole module stays within the stated budgets on commodity hardware.
"""

import os
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from srplearn.bench import cmd_bench, cmd_sweep
from srplearn.config import parse_config
from srplearn.datasets import synth_generate
from srplearn.distance import (
    jaccard_distance_matrix,
    squared_euclidean_distance_matrix,
)
from srplearn.logreg import _loss_grad, logreg_fit
from srplearn.matio import read_table_csv
from srplearn.metrics import roc_auc
from srplearn.projection import apply_projection, make_projection, ternary_row
from srplearn.ridge import default_lambda_grid, solve_ridge_press

from oracles import auc_pair_counting, jaccard, random_sparse, ridge_loo_sse


def _report(n, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {n}: {tag}{suffix}")
    assert ok, f"criterion {n} failed{suffix}"


def test_criterion_1_jaccard_oracle():
    """100 random sparse pairs match set enumeration within 1e-12, < 10 s."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n_a = int(rng.integers(1, 61))
        n_b = int(rng.integers(1, 61))
        n_cols = int(rng.integers(5, 41))
        density = float(rng.uniform(0.05, 0.3))
        A = random_sparse(rng, n_a, n_cols, density)
        B = random_sparse(rng, n_b, n_cols, density)
        got = jaccard_distance_matrix(A, B).values
        worst = max(worst, float(np.max(np.abs(got - jaccard(A, B)))))
    elapsed = time.perf_counter() - start
    _report(1, worst < 1e-12 and elapsed < 10.0,
            f"max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_srp_distribution():
    """Nonzero rate and sign balance within 4 sigma; magnitudes exact.

    The counts are taken over one 10000-row projection per density.  Its
    first, middle and last rows equal ``ternary_row``, so the counts are
    those of the per-row stream as well.
    """
    D, d = 10000, 100
    start = time.perf_counter()
    ok = True
    details = []
    for density in (0.01, 0.1):
        expected_mag = np.sqrt((1.0 / density) / d)
        P = make_projection(D, d, density, seed=202)
        nnz = P.nnz
        pos = int(np.count_nonzero(P.positive))
        indptr, indices = P.pattern.indptr, P.pattern.indices
        for row in (0, 1, D // 2, D - 1):
            cols, signs = ternary_row(202, row, d, density)
            lo, hi = indptr[row], indptr[row + 1]
            ok = ok and np.array_equal(cols, indices[lo:hi])
            ok = ok and np.array_equal(signs > 0, P.positive[lo:hi])
        # magnitude check on the assembled matrix entries
        P = make_projection(200, d, density, seed=303)
        mags_exact = P.values.size == 0 or bool(
            np.all(np.abs(P.values) == np.sqrt((1.0 / density) / d))
        )
        total = D * d
        sigma_nnz = np.sqrt(total * density * (1 - density))
        nnz_ok = abs(nnz - total * density) < 4 * sigma_nnz
        sign_ok = abs(pos - nnz / 2) < 4 * np.sqrt(nnz * 0.25)
        ok = ok and mags_exact and nnz_ok and sign_ok
        details.append(
            f"density {density}: nnz dev "
            f"{abs(nnz - total * density) / sigma_nnz:.2f} sigma"
        )
        assert expected_mag > 0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(2, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_3_jl_distance_preservation():
    """Spearman correlation of pairwise squared distances > 0.9.

    The data carries class structure (a quarter of the features are
    signal) so that true pairwise distances genuinely vary; rank
    preservation is only a meaningful claim when there is a ranking to
    preserve.  Uniform rows concentrate all distances near one value,
    where any projection's output is dominated by its variance floor.
    """
    start = time.perf_counter()
    N, D, density, d = 200, 100000, 1e-3, 2000
    ds = synth_generate(N, D, density, 25000, 0.0, seed=404)
    P = make_projection(D, d, 1.0 / np.sqrt(D), seed=505)
    F = apply_projection(ds.sparse, P)
    orig = squared_euclidean_distance_matrix(ds.sparse, ds.sparse).values
    proj = squared_euclidean_distance_matrix(F, F).values
    iu = np.triu_indices(N, k=1)
    rho = scipy_stats.spearmanr(orig[iu], proj[iu]).statistic
    elapsed = time.perf_counter() - start
    _report(3, rho > 0.9 and elapsed < 60.0, f"spearman {rho:.4f}, {elapsed:.1f}s")


def test_criterion_4_press_equals_explicit_loo():
    """PRESS matches explicit leave-one-out retraining on 20 instances."""
    rng = np.random.default_rng(606)
    grid = default_lambda_grid()
    start = time.perf_counter()
    worst_rel = 0.0
    for _ in range(20):
        H = rng.standard_normal((20, 5))
        Y = rng.standard_normal((20, 1))
        for lam in grid:
            sol = solve_ridge_press(H, Y, np.array([lam]))
            explicit = ridge_loo_sse(H, Y, lam)
            rel = abs(sol.press_value - explicit) / max(1e-300, abs(explicit))
            worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - start
    _report(4, worst_rel < 1e-8 and elapsed < 30.0,
            f"max rel err {worst_rel:.2e}, {elapsed:.1f}s")


def test_criterion_5_solver_residuals_and_shrinkage():
    """Normal-equation residuals <= 1e-8 relative up to N=500; monotone."""
    rng = np.random.default_rng(707)
    ok = True
    worst = 0.0
    for n, p in [(50, 10), (200, 60), (500, 80)]:
        H = rng.standard_normal((n, p))
        Y = rng.standard_normal((n, 1))
        for lam in [2.0**-10, 1.0, 2.0**10]:
            sol = solve_ridge_press(H, Y, np.array([lam]))
            rhs = H.T @ Y
            resid = np.linalg.norm((H.T @ H + lam * np.eye(p)) @ sol.beta - rhs)
            rel = resid / max(1.0, np.linalg.norm(rhs))
            worst = max(worst, rel)
            ok = ok and rel <= 1e-8
    # KRR dual residuals
    from srplearn.kernel import krr_fit

    for n in [50, 200, 500]:
        F = rng.standard_normal((n, 40))
        K = F @ F.T
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        for lam in [1e-3, 1.0, 1e3]:
            model = krr_fit(K, y, np.array([lam]))
            rel = np.linalg.norm(
                (K + lam * np.eye(n)) @ model.alpha - y
            ) / max(1.0, np.linalg.norm(y))
            worst = max(worst, rel)
            ok = ok and rel <= 1e-8
    H = rng.standard_normal((80, 15))
    Y = rng.standard_normal((80, 1))
    norms = [
        np.linalg.norm(solve_ridge_press(H, Y, np.array([lam])).beta)
        for lam in default_lambda_grid(-12, 12)
    ]
    monotone = bool(np.all(np.diff(norms) <= 1e-12))
    ok = ok and monotone
    _report(5, ok, f"max rel resid {worst:.2e}, shrinkage monotone {monotone}")


def test_criterion_6_auc_oracle():
    """Sort-based AUC equals pair counting exactly; complement identity."""
    rng = np.random.default_rng(808)
    exact = True
    for _ in range(50):
        n = int(rng.integers(10, 301))
        scores = np.round(rng.standard_normal(n), 1)  # ties guaranteed
        labels = np.where(rng.random(n) > 0.5, 1, -1)
        if np.all(labels == labels[0]):
            labels[0] = -labels[0]
        if roc_auc(scores, labels) != auc_pair_counting(scores, labels):
            exact = False
            break
    complement = True
    for _ in range(10):
        scores = rng.permutation(150).astype(float)
        labels = np.where(rng.random(150) > 0.5, 1, -1)
        labels[0], labels[1] = 1, -1
        a = roc_auc(scores, labels)
        b = roc_auc(-scores, labels)
        # two independent correctly-rounded divisions: equal to 1 ulp
        if abs(b - (1.0 - a)) > 1e-15:
            complement = False
            break
    _report(6, exact and complement,
            f"pair counting exact {exact}, complement {complement}")


def test_criterion_7_logreg_gradient_and_descent():
    """Gradient vs central differences 1e-5 relative; monotone; antisymmetric."""
    rng = np.random.default_rng(909)
    X = rng.standard_normal((40, 6))
    y = np.where(X @ rng.standard_normal(6) > 0, 1.0, -1.0)
    w = rng.standard_normal(6) * 0.5
    b = -0.2
    lam = 0.1
    _, grad_w, grad_b = _loss_grad(X, y, w, b, lam)
    eps = 1e-6
    grad_ok = True
    for j in range(6):
        wp, wm = w.copy(), w.copy()
        wp[j] += eps
        wm[j] -= eps
        num = (
            _loss_grad(X, y, wp, b, lam)[0] - _loss_grad(X, y, wm, b, lam)[0]
        ) / (2 * eps)
        if abs(grad_w[j] - num) > 1e-5 * max(1.0, abs(num)):
            grad_ok = False
    num_b = (
        _loss_grad(X, y, w, b + eps, lam)[0] - _loss_grad(X, y, w, b - eps, lam)[0]
    ) / (2 * eps)
    grad_ok = grad_ok and abs(grad_b - num_b) <= 1e-5 * max(1.0, abs(num_b))

    losses = []
    for cap in [0, 3, 10, 30, 100]:
        m = logreg_fit(X, y, lam, max_iter=cap, tol=1e-300)
        losses.append(_loss_grad(X, y, m.weights, m.intercept, lam)[0])
    monotone = bool(np.all(np.diff(losses) <= 1e-12))

    m_pos = logreg_fit(X, y, lam, max_iter=200)
    m_neg = logreg_fit(X, -y, lam, max_iter=200)
    antisym = np.array_equal(m_pos.weights, -m_neg.weights) and (
        m_pos.intercept == -m_neg.intercept
    )
    _report(7, grad_ok and monotone and antisym,
            f"grad {grad_ok}, monotone {monotone}, antisymmetric {antisym}")


# Shared configs for criteria 8-10.  Criterion 10 reruns both harness
# commands and compares bytes, so the configs are module-level.
#
# Density choices matter: a projected feature carries class signal in
# proportion to signal-feature overlap between rows but noise in
# proportion to total row mass, so very sparse rows bury the signal no
# matter how many hidden units the downstream model gets.  The sweep
# density (0.03) is the smallest round value where the wide model
# clearly beats the narrow one; the bench task (activity 0.01, a fifth
# of the features carrying signal) is separable for the whole family.

_SWEEP_BODY = """
base_seed = 42
n_runs = 5
n_train = 1000
methods = elm-srp
sweep.dims = 16, 2000
data.kind = synth
data.n_features = 100000
data.n_train_pool = 4000
data.n_test = 1000
data.density = 0.03
data.signal_features = 500
data.flip_prob = 0.05
"""

_BENCH_BODY = """
base_seed = 7
n_runs = 20
n_train = 1000
srp.dim = 2000
data.kind = synth
data.n_features = 10000
data.n_train_pool = 4000
data.n_test = 2000
data.density = 0.01
data.signal_features = 2000
data.flip_prob = 0.0
method.logreg-srp.max_iter = 200
"""


def _run_sweep(tmp_path, tag):
    cfg_path = tmp_path / f"sweep_{tag}.txt"
    out_dir = tmp_path / f"sweep_out_{tag}"
    cfg_path.write_text(f"out_dir = {out_dir}\n" + _SWEEP_BODY)
    cmd_sweep(parse_config(str(cfg_path)))
    return out_dir


def _run_bench(tmp_path, tag):
    cfg_path = tmp_path / f"bench_{tag}.txt"
    out_dir = tmp_path / f"bench_out_{tag}"
    cfg_path.write_text(f"out_dir = {out_dir}\n" + _BENCH_BODY)
    report = cmd_bench(parse_config(str(cfg_path)))
    return out_dir, report


@pytest.fixture(scope="module")
def harness_outputs(tmp_path_factory):
    """Criteria 8-10 share these runs; criterion 10 repeats them."""
    tmp_path = tmp_path_factory.mktemp("acceptance")
    t0 = time.perf_counter()
    sweep_dir = _run_sweep(tmp_path, "a")
    sweep_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    bench_dir, bench_report = _run_bench(tmp_path, "a")
    bench_seconds = time.perf_counter() - t0
    return {
        "tmp_path": tmp_path,
        "sweep_dir": sweep_dir,
        "sweep_seconds": sweep_seconds,
        "bench_dir": bench_dir,
        "bench_report": bench_report,
        "bench_seconds": bench_seconds,
    }


def test_criterion_8_dimension_trend(harness_outputs):
    """Mean ELM AUC at d=2000 beats d=16 by >= 0.05 on noisy synth data."""
    _, rows = read_table_csv(str(harness_outputs["sweep_dir"] / "sweep.csv"))
    aucs = {"16": [], "2000": []}
    for r in rows:
        if r[3] == "elm-srp" and r[8] == "":
            aucs[r[0]].append(float(r[4]))
    mean16 = float(np.mean(aucs["16"]))
    mean2000 = float(np.mean(aucs["2000"]))
    gap = mean2000 - mean16
    elapsed = harness_outputs["sweep_seconds"]
    _report(
        8,
        len(aucs["16"]) == 5 and len(aucs["2000"]) == 5 and gap >= 0.05
        and elapsed < 900.0,
        f"auc {mean16:.3f} -> {mean2000:.3f}, gap {gap:.3f}, {elapsed:.0f}s",
    )


def test_criterion_9_benchmark_structure(harness_outputs):
    """Harness emits mean/std/best-set; KRR-Jaccard and ELM-SRP > 0.9 AUC."""
    report = harness_outputs["bench_report"]
    out = harness_outputs["bench_dir"]
    elapsed = harness_outputs["bench_seconds"]
    structural = (
        (out / "summary.csv").exists()
        and (out / "pvalues.csv").exists()
        and len(report.best_set) >= 1
        and all(m in report.auc_std for m in report.methods)
        and len(report.methods) == 9
    )
    krr_j = report.auc_mean.get("krr-jaccard", 0.0)
    elm = report.auc_mean.get("elm-srp", 0.0)
    _report(
        9,
        structural and krr_j > 0.9 and elm > 0.9 and elapsed < 1200.0,
        f"krr-jaccard {krr_j:.4f}, elm-srp {elm:.4f}, "
        f"best set {report.best_set}, {elapsed:.0f}s",
    )


def test_criterion_10_rerun_byte_identical(harness_outputs):
    """Rerunning the same config and base_seed reproduces the CSVs byte for byte."""
    tmp_path = harness_outputs["tmp_path"]
    sweep_dir_b = _run_sweep(tmp_path, "b")
    bench_dir_b, _ = _run_bench(tmp_path, "b")
    same = True
    compared = []
    for name in ["sweep.csv"]:
        b1 = (harness_outputs["sweep_dir"] / name).read_bytes()
        b2 = (sweep_dir_b / name).read_bytes()
        same = same and b1 == b2
        compared.append(name)
    for name in ["runs.csv", "summary.csv", "pvalues.csv"]:
        b1 = (harness_outputs["bench_dir"] / name).read_bytes()
        b2 = (bench_dir_b / name).read_bytes()
        same = same and b1 == b2
        compared.append(name)
    _report(10, same, f"compared {', '.join(compared)} across two runs")


def test_criterion_11_url_data_holdout():
    """Optional: day-120 holdout on the public URL dataset, if supplied."""
    root = os.environ.get("SRPLEARN_URL_DATA")
    if not root:
        pytest.skip("URL dataset not supplied (set SRPLEARN_URL_DATA)")
    from srplearn.datasets import read_svmlight, subsample_indices
    from srplearn.elm import elm_fit, model_predict

    train_path = os.path.join(root, "Day119.svm")
    test_path = os.path.join(root, "Day120.svm")
    train_full = read_svmlight(train_path)
    test = read_svmlight(test_path)
    width = max(train_full.n_sparse_features, test.n_sparse_features)
    from srplearn.datasets import Dataset

    train_full = Dataset(
        train_full.sparse.widen(width), train_full.dense,
        train_full.labels, train_full.name,
    )
    test = Dataset(
        test.sparse.widen(width), test.dense, test.labels, test.name
    )
    train = train_full.take(subsample_indices(train_full.n_samples, 1000, seed=0))
    model = elm_fit(train.sparse, train.labels.astype(float), 5000, seed=0)
    auc = roc_auc(model_predict(model, test.sparse), test.labels)
    _report(11, 0.97 <= auc <= 1.0, f"day-120 holdout auc {auc:.4f}")
