"""Random-feature models trained by ridge with leave-one-out selection.

Three hidden-layer constructions share one training path:

- ELM: H = tanh(X W + b) with a ternary random W and bias drawn from the
  same ternary scheme (one extra row of the projection stream).
- RVFL: ELM plus a random linear branch, design matrix [tanh(XW + b) | X V]
  with V an independent ternary projection and no activation.
- RBF: H[i, j] = exp(-gamma_j * d^2(x_i, c_j)) against centroids sampled
  from the training rows, with random log-uniform kernel widths.  The
  row type picks d, through :func:`srplearn.distance.distance_matrix`:
  the Jaccard distance on sparse binary rows, the Euclidean on dense ones.

Each model has one design function that builds H, called both by its fit
and by :func:`model_predict`, which scores rows in blocks so that the
design of many rows is never held whole.  ELM and RVFL share one fit,
ELM being an RVFL without the linear branch.  Only the output weights are trained;
see :mod:`srplearn.ridge`.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import checks
from .distance import distance_matrix
from .projection import (
    SparseProjection,
    apply_projection,
    derive_seed,
    make_projection,
    ternary_row,
)
from .ridge import RidgeSolution, default_lambda_grid, solve_ridge_press
from .sparse import SparseBinaryMatrix, _block_rows

__all__ = [
    "ElmModel",
    "RbfModel",
    "elm_hidden",
    "elm_fit",
    "rvfl_fit",
    "rbf_fit",
    "model_predict",
]

# independent random streams derived from one model seed
_STREAM_LINEAR = 1
_STREAM_CENTROIDS = 2
_STREAM_GAMMAS = 3


def _check_fit(X, y, lambda_grid):
    """Labels as float64 and the penalty grid, checked against ``X.shape``."""
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    return checks.labels(y, X.shape[0]), lambda_grid


def elm_bias(input_dim: int, L: int, density: float, seed: int) -> np.ndarray:
    """Hidden-layer bias: row ``input_dim`` of the hidden projection's stream."""
    cols, signs = ternary_row(seed, input_dim, L, density)
    bias = np.zeros(L, dtype=np.float64)
    bias[cols] = signs * np.sqrt((1.0 / density) / L)
    return bias


class ElmModel:
    """Fitted ELM or RVFL (when ``linear_part`` is set).

    The hidden bias is row ``W.input_dim`` of W's stream, so the model
    derives it from ``W`` and takes no bias argument: a model rebuilt from
    W's (dimensions, density, seed) has the same bias.
    """

    __slots__ = ("W", "bias", "linear_part", "solution")

    def __init__(
        self,
        W: SparseProjection,
        linear_part: SparseProjection | None,
        solution: RidgeSolution,
    ):
        expected_rows = W.output_dim + (
            linear_part.output_dim if linear_part is not None else 0
        )
        if solution.beta.shape[0] != expected_rows:
            raise ValueError("output weight row count does not match design")
        self.W = W
        self.bias = elm_bias(W.input_dim, W.output_dim, W.density, W.seed)
        self.linear_part = linear_part
        self.solution = solution


class RbfModel:
    """Fitted radial-basis-function model; its centroids' row type picks
    the distance (see :func:`srplearn.distance.distance_matrix`)."""

    __slots__ = ("centroids", "gammas", "solution", "seed")

    def __init__(self, centroids, gammas, solution, seed=0):
        gammas = np.asarray(gammas, dtype=np.float64)
        if not np.all((0 < gammas) & (gammas < np.inf)):  # NaN fails too
            raise ValueError("kernel widths must be finite and > 0")
        n_centroids = centroids.shape[0]
        if gammas.shape != (n_centroids,):
            raise ValueError("one kernel width per centroid required")
        if solution.beta.shape[0] != n_centroids:
            raise ValueError("output weight row count does not match design")
        self.centroids = centroids
        self.gammas = gammas
        self.solution = solution
        self.seed = int(seed)


def elm_hidden(X, W: SparseProjection, bias) -> np.ndarray:
    """Hidden layer output tanh(X W + bias) as a dense (N, L) array."""
    bias = np.asarray(bias, dtype=np.float64)
    if bias.shape != (W.output_dim,):
        raise ValueError("bias length must equal hidden width")
    pre = apply_projection(X, W)
    pre += bias[None, :]
    return np.tanh(pre, out=pre)


def _elm_design(X, W, bias, linear_part) -> np.ndarray:
    """ELM design tanh(X W + b), extended by X V when a linear part is set."""
    H = elm_hidden(X, W, bias)
    if linear_part is None:
        return H
    return np.hstack([H, apply_projection(X, linear_part)])


def _fit_hidden(X, y, L, d_lin, density, seed, lambda_grid) -> ElmModel:
    """ELM fit, with a linear branch of width ``d_lin`` unless it is 0.

    ``d_lin=None`` gives the branch min(input dimension, L) columns.
    """
    y, lambda_grid = _check_fit(X, y, lambda_grid)
    L = checks.count(L, "L")
    input_dim = X.shape[1]
    if d_lin is None:
        d_lin = min(input_dim, L)
    W = make_projection(input_dim, L, density, seed)
    bias = elm_bias(input_dim, L, W.density, seed)
    linear = None
    if d_lin:
        linear = make_projection(
            input_dim, d_lin, W.density, derive_seed(seed, _STREAM_LINEAR)
        )
    H = _elm_design(X, W, bias, linear)
    return ElmModel(W, linear, solve_ridge_press(H, y[:, None], lambda_grid))


def elm_fit(
    X,
    y,
    L: int,
    density: float | None = None,
    seed: int = 0,
    lambda_grid=None,
) -> ElmModel:
    """Fit an ELM with L hidden neurons on sparse binary or dense rows."""
    return _fit_hidden(X, y, L, 0, density, seed, lambda_grid)


def rvfl_fit(
    X,
    y,
    L: int,
    d_lin: int | None = None,
    density: float | None = None,
    seed: int = 0,
    lambda_grid=None,
) -> ElmModel:
    """Fit an RVFL: ELM design extended with a random linear branch.

    ``d_lin`` defaults to min(input dimension, L).
    """
    if d_lin is not None:
        d_lin = checks.count(d_lin, "d_lin")
    return _fit_hidden(X, y, L, d_lin, density, seed, lambda_grid)


def _squared_distances(X, centroids) -> np.ndarray:
    """Squared distances to the centroids: only Jaccard's need squaring."""
    d = distance_matrix(X, centroids).values
    return d * d if isinstance(centroids, SparseBinaryMatrix) else d


def _rbf_design(d2, gammas) -> np.ndarray:
    """RBF design exp(-gamma_j * d^2(x_i, c_j)), formed in place of the
    squared distances ``d2``."""
    d2 *= -gammas[None, :]
    return np.exp(d2, out=d2)


def rbf_fit(X, y, L: int, seed: int = 0, lambda_grid=None) -> RbfModel:
    """Fit an RBF model with L centroids sampled from the training rows.

    Kernel widths are gamma_j = g_j / m**2 with g_j log-uniform on
    [0.1, 10] and m the median pairwise distance among the centroids.
    """
    y, lambda_grid = _check_fit(X, y, lambda_grid)
    n = X.shape[0]
    L = checks.count(L, "L", most=n)
    pick = np.random.default_rng(derive_seed(seed, _STREAM_CENTROIDS))
    idx = pick.choice(n, size=L, replace=False)
    centroids = (
        X.take_rows(idx)
        if isinstance(X, SparseBinaryMatrix)
        else np.ascontiguousarray(np.asarray(X, dtype=np.float64)[idx])
    )
    # the centroids are rows ``idx``, so their pairwise distances are rows
    # of the train-to-centroid distances the design is built from
    d2 = _squared_distances(X, centroids)
    m = 1.0  # no pairs to measure with one centroid
    if L > 1:
        dist = np.sqrt(np.maximum(d2[idx], 0.0))  # for jaccard, d2 entries are J^2
        m = float(np.median(dist[np.triu_indices(L, k=1)]))
        if m == 0.0:
            warnings.warn(
                "all centroids coincide; falling back to unit distance scale",
                RuntimeWarning,
            )
            m = 1.0
    width_rng = np.random.default_rng(derive_seed(seed, _STREAM_GAMMAS))
    g = np.power(10.0, width_rng.uniform(-1.0, 1.0, size=L))
    gammas = g / (m * m)
    H = _rbf_design(d2, gammas)
    solution = solve_ridge_press(H, y[:, None], lambda_grid)
    return RbfModel(centroids, gammas, solution, seed)


def _design(model, X) -> np.ndarray:
    """The design of ``model`` on the rows of X."""
    if isinstance(model, ElmModel):
        return _elm_design(X, model.W, model.bias, model.linear_part)
    d2 = _squared_distances(X, model.centroids)
    return _rbf_design(d2, model.gammas)


def _row_scores(H, beta) -> np.ndarray:
    """Each row of H times the output weights, one BLAS product per row.

    One product over many rows (a gemv) rounds a row differently by where
    the row falls among the others; a product per row gives a row's score
    from that row and ``beta`` alone, so it does not depend on the rows
    scored with it.
    """
    return (H[:, None, :] @ beta)[:, 0]


def model_predict(model, X) -> np.ndarray:
    """Real-valued scores for each row of X; class decision is sign(score).

    Rows are scored in blocks whose design fits the block budget of
    :mod:`srplearn.sparse`, so the design of all of X is never held.  A
    row's design and score are computed from that row alone, so the
    blocks change no bit, except for dense rows under an RBF model, whose
    squared distances come from one matrix product per block.
    """
    if not isinstance(model, (ElmModel, RbfModel)):
        raise TypeError(f"unsupported model type: {type(model).__name__}")
    beta = model.solution.beta
    binary = isinstance(X, SparseBinaryMatrix)
    n = X.n_rows if binary else len(X)
    step = _block_rows(beta.shape[0], 8)
    if n <= step:
        return _row_scores(_design(model, X), beta).ravel()
    scores = np.empty((n, beta.shape[1]), dtype=np.float64)
    for lo in range(0, n, step):
        block = X.take_rows(np.arange(lo, min(lo + step, n))) if binary else X[lo : lo + step]
        scores[lo : lo + step] = _row_scores(_design(model, block), beta)
    return scores.ravel()
