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
  Both :func:`rbf_fit` and :func:`model_predict` also take those distances
  precomputed, for a caller that already holds them; the centroids are
  then the rows :func:`rbf_centroid_indices` picks, whose columns the fit
  gathers from the training rows' own pairwise distances.

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
from .distance import DistanceMatrix, distance_matrix
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
    "rbf_centroid_indices",
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


def _squared(d, centroids) -> np.ndarray:
    """Distances ``d`` to the centroids, as :func:`distance_matrix` gives
    them, squared in place: only Jaccard's need squaring."""
    if isinstance(centroids, SparseBinaryMatrix):
        np.multiply(d, d, out=d)
    return d


def _squared_distances(X, centroids) -> np.ndarray:
    """Squared distances from the rows of X to the centroids."""
    return _squared(distance_matrix(X, centroids).values, centroids)


def _given(distances, shape) -> np.ndarray:
    """The values of precomputed ``distances``, which must be ``shape``."""
    if isinstance(distances, DistanceMatrix):
        distances = distances.values
    d = np.asarray(distances, dtype=np.float64)
    if d.shape != shape:
        raise ValueError(f"distances must be {shape[0]} x {shape[1]}, got {d.shape}")
    return d


def _rbf_design(d2, gammas) -> np.ndarray:
    """RBF design exp(-gamma_j * d^2(x_i, c_j)), formed in place of the
    squared distances ``d2``."""
    d2 *= -gammas[None, :]
    return np.exp(d2, out=d2)


def rbf_centroid_indices(n: int, L: int, seed: int = 0) -> np.ndarray:
    """The rows, of ``n`` training rows, that :func:`rbf_fit` takes as its
    L centroids under ``seed``, in centroid order."""
    L = checks.count(L, "L", most=n)
    pick = np.random.default_rng(derive_seed(seed, _STREAM_CENTROIDS))
    return pick.choice(n, size=L, replace=False)


def rbf_fit(X, y, L: int, seed: int = 0, lambda_grid=None, distances=None) -> RbfModel:
    """Fit an RBF model with L centroids sampled from the training rows.

    Kernel widths are gamma_j = g_j / m**2 with g_j log-uniform on
    [0.1, 10] and m the median pairwise distance among the centroids.

    ``distances``, when given, are the (n, n) pairwise distances among the
    rows of X as ``distance_matrix(X, X)`` gives them, a
    :class:`DistanceMatrix` or an array: Jaccard on sparse binary rows,
    squared Euclidean on dense ones.  The fit then gathers the columns of
    its centroids, rows :func:`rbf_centroid_indices` of X, in place of
    computing their distances.  Jaccard distances are exact, so the
    gather changes no bit; dense ones may differ from the computed ones
    in their last bits.
    """
    y, lambda_grid = _check_fit(X, y, lambda_grid)
    n = X.shape[0]
    idx = rbf_centroid_indices(n, L, seed)
    L = idx.size
    centroids = (
        X.take_rows(idx)
        if isinstance(X, SparseBinaryMatrix)
        else np.ascontiguousarray(np.asarray(X, dtype=np.float64)[idx])
    )
    if distances is None:
        d2 = _squared_distances(X, centroids)
    else:
        d2 = _squared(_given(distances, (n, n)).take(idx, axis=1), centroids)
    # the centroids are rows ``idx``, so their pairwise distances are rows
    # of the train-to-centroid distances the design is built from
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


def _design(model, X, d=None) -> np.ndarray:
    """The design of ``model`` on the rows of X, or, for an RBF model, on
    the rows whose distances to its centroids are ``d``."""
    if isinstance(model, ElmModel):
        return _elm_design(X, model.W, model.bias, model.linear_part)
    if d is None:
        d2 = _squared_distances(X, model.centroids)
    else:  # a row-major copy: the design is formed in place, and a
        # row's score takes other bits from another memory layout
        d2 = _squared(np.array(d, order="C"), model.centroids)
    return _rbf_design(d2, model.gammas)


def _row_scores(H, beta) -> np.ndarray:
    """Each row of H times the output weights, one BLAS product per row.

    One product over many rows (a gemv) rounds a row differently by where
    the row falls among the others; a product per row gives a row's score
    from that row and ``beta`` alone, so it does not depend on the rows
    scored with it.
    """
    return (H[:, None, :] @ beta)[:, 0]


def model_predict(model, X, distances=None) -> np.ndarray:
    """Real-valued scores for each row of X; class decision is sign(score).

    Rows are scored in blocks whose design fits the block budget of
    :mod:`srplearn.sparse`, so the design of all of X is never held.  A
    row's design and score are computed from that row alone, so the
    blocks change no bit, except for dense rows under an RBF model, whose
    squared distances come from one matrix product per block.

    ``distances``, for an RBF model only, are the (n_rows(X), L)
    distances from the rows of X to the model's centroids, as
    :func:`distance_matrix` gives them; the design is then built from
    them, and X gives only the row count and row type.  With the
    distances of :func:`rbf_fit`'s own rows, columns
    ``rbf_centroid_indices(n, L, seed)`` of their pairwise distances, the
    scores equal those from the rows bit for bit on sparse rows; on dense
    rows they may differ in the last bits.
    """
    if not isinstance(model, (ElmModel, RbfModel)):
        raise TypeError(f"unsupported model type: {type(model).__name__}")
    beta = model.solution.beta
    binary = isinstance(X, SparseBinaryMatrix)
    n = X.n_rows if binary else len(X)
    d = None
    if distances is not None:
        if not isinstance(model, RbfModel):
            raise TypeError("only an RBF model scores from distances")
        if binary != isinstance(model.centroids, SparseBinaryMatrix):
            raise TypeError("rows and centroids must be of one row type")
        d = _given(distances, (n, beta.shape[0]))
    step = _block_rows(beta.shape[0], 8)
    if n <= step:
        return _row_scores(_design(model, X, d), beta).ravel()
    scores = np.empty((n, beta.shape[1]), dtype=np.float64)
    for lo in range(0, n, step):
        if d is not None:
            block, d_block = None, d[lo : lo + step]
        elif binary:
            block, d_block = X.take_rows(np.arange(lo, min(lo + step, n))), None
        else:
            block, d_block = X[lo : lo + step], None
        scores[lo : lo + step] = _row_scores(_design(model, block, d_block), beta)
    return scores.ravel()
