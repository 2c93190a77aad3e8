"""End-to-end reference check of the benchmark harness.

One toy ``cmd_bench`` run of all nine methods is recorded through the
module-level names the harness calls: each run's scores and AUC through
``bench.roc_auc``, each selected penalty through the fit functions, and
the logistic-regression fits through ``bench.logreg_fit``.  Every score,
penalty and AUC is then recomputed from the slow references of
``tests/oracles.py``, with seeds, subsamples, centroid picks and kernel
widths derived from the rules that ``bench`` and ``elm`` document.
Logistic regression has no closed form; its converged fits are checked
for a vanishing gradient instead.  The config is chosen so that no
choice the references make is a near-tie, and the test asserts that.
"""

import math
import zlib

import numpy as np

from srplearn import bench
from srplearn.config import BENCH_METHODS, parse_config
from srplearn.elm import _STREAM_CENTROIDS, _STREAM_GAMMAS, _STREAM_LINEAR
from srplearn.logreg import _loss_grad
from srplearn.projection import derive_seed
from srplearn.sparse import SparseBinaryMatrix

import oracles

_CONFIG = {
    "base_seed": 3,
    "n_runs": 2,
    "n_train": 24,
    "srp.dim": 16,
    "srp.density": 0.3,
    "data.kind": "synth",
    "data.n_features": 300,
    "data.n_train_pool": 60,
    "data.n_test": 30,
    "data.density": 0.1,
    "data.signal_features": 60,
    "data.flip_prob": 0.1,
    "lambda.min_exp": -6,
    "lambda.max_exp": 6,
    "method.elm-srp.L": 8,
    "method.rvfl-srp.L": 8,
    "method.rvfl-srp.d_lin": 4,
    "method.rbf-srp.L": 10,
    "method.rbf-jaccard.L": 10,
}
# scores agree within this fraction of the largest score
_SCORE_TOL = 1e-8
# the two best leave-one-out errors differ by more than this, relative
_PRESS_GAP = 1e-6


def _run_recorded(tmp_path, monkeypatch):
    """Run the toy bench with recorders installed; returns one entry per
    scored run and method, in the harness's order (run, then method)."""
    scored, pending = [], {}

    def record(name, read_lam):
        fit = getattr(bench, name)

        def recording(*args, **kwargs):
            model = fit(*args, **kwargs)
            pending["lam"] = read_lam(model)
            return model

        monkeypatch.setattr(bench, name, recording)

    for name in ("elm_fit", "rvfl_fit", "rbf_fit"):
        record(name, lambda model: model.solution.lam)
    for name in ("krr_fit", "solve_ridge_press"):
        record(name, lambda model: model.lam)
    logreg_fit, roc_auc = bench.logreg_fit, bench.roc_auc

    def logreg(X, y, lam, **params):
        model = logreg_fit(X, y, lam, **params)
        pending["logreg"] = (X.copy(), y.copy(), params, model)
        return model

    def auc(scores, labels):
        value = roc_auc(scores, labels)
        scored.append({"scores": np.array(scores), "labels": np.array(labels),
                       "auc": value, **pending})
        pending.clear()
        return value

    monkeypatch.setattr(bench, "logreg_fit", logreg)
    monkeypatch.setattr(bench, "roc_auc", auc)
    lines = [f"out_dir = {tmp_path / 'out'}"]
    lines += [f"{key} = {value}" for key, value in _CONFIG.items()]
    path = tmp_path / "toy.txt"
    path.write_text("\n".join(lines) + "\n")
    bench.cmd_bench(parse_config(str(path)))
    return scored


def _forms(lists, n_cols, P):
    """(sparse rows, dense rows, projected features) of one set of rows."""
    dense = np.zeros((len(lists), n_cols))
    for i, cols in enumerate(lists):
        dense[i, cols] = 1.0
    return SparseBinaryMatrix.from_rows(lists, n_cols), dense, dense @ P


def _pick(errors, grid):
    """The penalty of smallest leave-one-out error, after checking that the
    runner-up is not a near-tie."""
    order = np.argsort(errors)
    best, second = errors[order[0]], errors[order[1]]
    assert second - best > _PRESS_GAP * best, (grid[order[0]], grid[order[1]])
    return grid[order[0]]


def _ridge(H, H_test, y, grid):
    """(penalty, test scores) of ridge, the penalty chosen by explicit
    leave-one-out retraining."""
    lam = _pick([oracles.ridge_loo_sse(H, y[:, None], lam) for lam in grid], grid)
    beta = np.linalg.solve(H.T @ H + lam * np.eye(H.shape[1]), H.T @ y)
    return lam, H_test @ beta


def _krr(K, K_test, y, grid):
    lam = _pick([oracles.krr_loo_sse(K, y, lam) for lam in grid], grid)
    return lam, K_test @ np.linalg.solve(K + lam * np.eye(y.size), y)


def _hidden(X, X_test, seed, L, d_lin):
    """ELM designs tanh(X W + b), with the linear block X V when ``d_lin``;
    the bias is the row of W's stream after the last input row."""
    n_features = X.shape[1]
    density = 1.0 / math.sqrt(n_features)
    W = oracles.reference_projection(n_features, L, density, seed)
    cols, signs = oracles.reference_row(seed, n_features, L, density)
    bias = np.zeros(L)
    bias[cols] = np.multiply(signs, math.sqrt((1.0 / density) / L))
    V = d_lin and oracles.reference_projection(
        n_features, d_lin, density, derive_seed(seed, _STREAM_LINEAR)
    )

    def design(A):
        H = np.tanh(A @ W + bias)
        return np.hstack([H, A @ V]) if d_lin else H

    return design(X), design(X_test)


def _rbf(train, test, seed, L, squared):
    """RBF designs on L centroids picked from the training rows, with
    widths 10**U(-1, 1) over the squared median centroid distance."""
    pick = np.random.default_rng(derive_seed(seed, _STREAM_CENTROIDS))
    idx = pick.choice(train.shape[0], size=L, replace=False)
    if isinstance(train, SparseBinaryMatrix):
        centroids = SparseBinaryMatrix.from_rows([train.row(i) for i in idx], train.n_cols)
    else:
        centroids = train[idx]
    pairs = np.sqrt(squared(centroids, centroids))[np.triu_indices(L, k=1)]
    m = float(np.median(pairs))
    width = np.random.default_rng(derive_seed(seed, _STREAM_GAMMAS))
    gammas = np.power(10.0, width.uniform(-1.0, 1.0, size=L)) / (m * m)

    def design(A):
        return np.exp(-gammas * squared(A, centroids))

    return design(train), design(test)


def _knn(D, y, k):
    """kNN scores by a full stable sort, after checking that no row's k-th
    and (k+1)-th distances are a near-tie."""
    ordered = np.sort(D, axis=1)
    gaps = ordered[:, k] - ordered[:, k - 1]
    assert np.all(gaps > _SCORE_TOL * np.max(D)), np.min(gaps)
    return oracles.knn_scores(D, y, k)


def _squared_jaccard(A, B):
    return oracles.jaccard(A, B) ** 2


def _reference(name, seed, train, test, y, grid):
    """(selected penalty or None, test scores) of a closed-form method."""
    (S, X, F), (S_test, X_test, F_test) = train, test
    params = {
        key.rsplit(".", 1)[1]: value for key, value in _CONFIG.items()
        if key.startswith(f"method.{name}.")
    }
    if name in ("elm-srp", "rvfl-srp"):
        return _ridge(*_hidden(X, X_test, seed, params["L"], params.get("d_lin")), y, grid)
    if name == "rbf-srp":
        return _ridge(*_rbf(F, F_test, seed, params["L"], oracles.squared_distances), y, grid)
    if name == "rbf-jaccard":
        return _ridge(*_rbf(S, S_test, seed, params["L"], _squared_jaccard), y, grid)
    if name == "krr-srp":
        return _ridge(F, F_test, y, grid)
    if name == "krr-jaccard":
        K, K_test = 1.0 - oracles.jaccard(S, S), 1.0 - oracles.jaccard(S_test, S)
        return _krr(K, K_test, y, grid)
    if name == "knn-srp":
        return None, _knn(oracles.squared_distances(F_test, F), y, 1)
    assert name == "knn-jaccard"
    return None, _knn(oracles.jaccard(S_test, S), y, 1)


def _logreg_scores(fit, F, F_test, y):
    """Test scores of a recorded logreg fit, after checking its inputs and,
    when it converged, that its gradient vanishes there."""
    X, y_fit, params, model = fit
    assert np.max(np.abs(X - F)) <= _SCORE_TOL * np.max(np.abs(F))
    assert np.array_equal(y_fit, y)
    if model.converged:
        _, grad_w, grad_b = _loss_grad(X, y, model.weights, model.intercept, model.lam)
        assert max(np.max(np.abs(grad_w)), abs(grad_b)) < params.get("tol", 1e-6)
    return 1.0 / (1.0 + np.exp(-(F_test @ model.weights + model.intercept)))


def test_every_score_penalty_and_auc_matches_the_references(tmp_path, monkeypatch):
    scored = _run_recorded(tmp_path, monkeypatch)
    c = _CONFIG
    n_features, n_pool = c["data.n_features"], c["data.n_train_pool"]
    rows, labels = oracles.reference_synth(
        n_pool + c["data.n_test"], n_features, c["data.density"],
        c["data.signal_features"], c["data.flip_prob"], c["base_seed"],
    )
    lists = [rows.row(i).tolist() for i in range(rows.n_rows)]
    P = oracles.reference_projection(n_features, c["srp.dim"], c["srp.density"],
                                     c["base_seed"])
    test, y_test = _forms(lists[n_pool:], n_features, P), labels[n_pool:]
    grid = 2.0 ** np.arange(c["lambda.min_exp"], c["lambda.max_exp"] + 1)

    assert len(scored) == c["n_runs"] * len(BENCH_METHODS)
    entries = iter(scored)
    for run_seed in range(c["base_seed"], c["base_seed"] + c["n_runs"]):
        idx = np.sort(np.random.default_rng(run_seed).choice(
            n_pool, size=c["n_train"], replace=False
        ))
        train = _forms([lists[i] for i in idx], n_features, P)
        y = labels[idx].astype(np.float64)
        for name in BENCH_METHODS:
            got = next(entries)
            if name == "logreg-srp":
                lam, expected = None, _logreg_scores(got["logreg"], train[2], test[2], y)
            else:
                seed = derive_seed(run_seed, zlib.crc32(name.encode("ascii")))
                lam, expected = _reference(name, seed, train, test, y, grid)
            assert got.get("lam") == lam, name
            assert np.array_equal(got["labels"], y_test)
            scale = _SCORE_TOL * np.max(np.abs(expected))
            assert np.max(np.abs(got["scores"] - expected)) <= scale, name
            assert np.all(np.diff(np.unique(expected)) > 2 * scale), name
            assert got["auc"] == oracles.auc_pair_counting(expected, y_test), name
