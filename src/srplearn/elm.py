"""Random-feature models trained by ridge with leave-one-out selection.

Three hidden-layer constructions share one training path:

- ELM: H = tanh(X W + b) with a ternary random W and bias drawn from the
  same ternary scheme (one extra row of the projection stream).
- RVFL: ELM plus a random linear branch, design matrix [tanh(XW + b) | X V]
  with V an independent ternary projection and no activation.
- RBF: H[i, j] = exp(-gamma_j * d^2(x_i, c_j)) against centroids sampled
  from the training rows, with random log-uniform kernel widths.

Only the output weights are trained; see :mod:`srplearn.ridge`.
"""

from __future__ import annotations

import warnings

import numpy as np

from .distance import (
    KIND_JACCARD,
    KIND_SQEUCLIDEAN,
    jaccard_distance_matrix,
    squared_euclidean_distance_matrix,
)
from .projection import (
    SparseProjection,
    apply_projection,
    default_density,
    derive_seed,
    make_projection,
    ternary_row,
)
from .ridge import RidgeSolution, default_lambda_grid, solve_ridge_press
from .sparse import SparseBinaryMatrix

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


def _check_labels(y) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y must be a nonempty 1-D vector")
    vals = np.unique(y)
    if not np.all(np.isin(vals, (-1, 1))):
        raise ValueError("labels must be -1 or +1")
    return y.astype(np.float64)


def elm_bias(input_dim: int, L: int, density: float, seed: int) -> np.ndarray:
    """Hidden-layer bias: row ``input_dim`` of the hidden projection's stream."""
    cols, signs = ternary_row(seed, input_dim, L, density)
    bias = np.zeros(L, dtype=np.float64)
    bias[cols] = signs * np.sqrt((1.0 / density) / L)
    return bias


class ElmModel:
    """Fitted ELM or RVFL (when ``linear_part`` is set)."""

    __slots__ = ("W", "bias", "activation", "linear_part", "solution")

    def __init__(
        self,
        W: SparseProjection,
        bias: np.ndarray,
        activation: str,
        linear_part: SparseProjection | None,
        solution: RidgeSolution,
    ):
        if activation != "tanh":
            raise ValueError(f"unsupported activation: {activation!r}")
        if bias.shape != (W.output_dim,):
            raise ValueError("bias length must equal hidden width")
        expected_rows = W.output_dim + (
            linear_part.output_dim if linear_part is not None else 0
        )
        if solution.beta.shape[0] != expected_rows:
            raise ValueError("output weight row count does not match design")
        self.W = W
        self.bias = bias
        self.activation = activation
        self.linear_part = linear_part
        self.solution = solution

    @property
    def hidden_width(self) -> int:
        return self.W.output_dim


class RbfModel:
    """Fitted radial-basis-function model."""

    __slots__ = ("centroids", "gammas", "distance_kind", "solution", "seed")

    def __init__(self, centroids, gammas, distance_kind, solution, seed=0):
        gammas = np.asarray(gammas, dtype=np.float64)
        if np.any(gammas <= 0):
            raise ValueError("kernel widths must be positive")
        n_centroids = (
            centroids.n_rows
            if isinstance(centroids, SparseBinaryMatrix)
            else centroids.shape[0]
        )
        if gammas.shape != (n_centroids,):
            raise ValueError("one kernel width per centroid required")
        if distance_kind not in (KIND_JACCARD, KIND_SQEUCLIDEAN):
            raise ValueError(f"unknown distance kind: {distance_kind!r}")
        if solution.beta.shape[0] != n_centroids:
            raise ValueError("output weight row count does not match design")
        self.centroids = centroids
        self.gammas = gammas
        self.distance_kind = distance_kind
        self.solution = solution
        self.seed = int(seed)

    @property
    def hidden_width(self) -> int:
        return self.gammas.size


def elm_hidden(X, W: SparseProjection, bias, activation: str = "tanh") -> np.ndarray:
    """Hidden layer output tanh(X W + bias) as a dense (N, L) array."""
    if activation != "tanh":
        raise ValueError(f"unsupported activation: {activation!r}")
    bias = np.asarray(bias, dtype=np.float64)
    if bias.shape != (W.output_dim,):
        raise ValueError("bias length must equal hidden width")
    pre = apply_projection(X, W)
    pre += bias[None, :]
    return np.tanh(pre)


def elm_fit(
    X,
    y,
    L: int,
    density: float | None = None,
    seed: int = 0,
    lambda_grid=None,
) -> ElmModel:
    """Fit an ELM with L hidden neurons on sparse binary or dense rows."""
    y = _check_labels(y)
    if L < 1:
        raise ValueError("hidden width L must be >= 1")
    input_dim = X.n_cols if isinstance(X, SparseBinaryMatrix) else X.shape[1]
    n = X.n_rows if isinstance(X, SparseBinaryMatrix) else X.shape[0]
    if n == 0:
        raise ValueError("X must be nonempty")
    if n != y.size:
        raise ValueError(f"row counts differ: {n} vs {y.size}")
    if density is None:
        density = default_density(input_dim)
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    W = make_projection(input_dim, L, density, seed)
    bias = elm_bias(input_dim, L, density, seed)
    H = elm_hidden(X, W, bias)
    solution = solve_ridge_press(H, y[:, None], lambda_grid)
    return ElmModel(W, bias, "tanh", None, solution)


def rvfl_fit(
    X,
    y,
    L: int,
    d_lin: int | None = None,
    density: float | None = None,
    seed: int = 0,
    lambda_grid=None,
) -> ElmModel:
    """Fit an RVFL: ELM design extended with a random linear branch."""
    y = _check_labels(y)
    if L < 1:
        raise ValueError("hidden width L must be >= 1")
    input_dim = X.n_cols if isinstance(X, SparseBinaryMatrix) else X.shape[1]
    n = X.n_rows if isinstance(X, SparseBinaryMatrix) else X.shape[0]
    if n == 0:
        raise ValueError("X must be nonempty")
    if n != y.size:
        raise ValueError(f"row counts differ: {n} vs {y.size}")
    if d_lin is None:
        d_lin = min(input_dim, L)
    if d_lin < 1:
        raise ValueError("linear branch width d_lin must be >= 1")
    if density is None:
        density = default_density(input_dim)
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    W = make_projection(input_dim, L, density, seed)
    bias = elm_bias(input_dim, L, density, seed)
    linear = make_projection(input_dim, d_lin, density, derive_seed(seed, _STREAM_LINEAR))
    H = np.hstack([elm_hidden(X, W, bias), apply_projection(X, linear)])
    solution = solve_ridge_press(H, y[:, None], lambda_grid)
    return ElmModel(W, bias, "tanh", linear, solution)


def _squared_distances(X, centroids, distance_kind) -> np.ndarray:
    if distance_kind == KIND_JACCARD:
        if not (
            isinstance(X, SparseBinaryMatrix)
            and isinstance(centroids, SparseBinaryMatrix)
        ):
            raise ValueError("jaccard distance requires sparse binary rows")
        j = jaccard_distance_matrix(X, centroids).values
        return j * j
    return squared_euclidean_distance_matrix(X, centroids).values


def _pairwise_distance_median(centroids, distance_kind) -> float | None:
    n = (
        centroids.n_rows
        if isinstance(centroids, SparseBinaryMatrix)
        else centroids.shape[0]
    )
    if n < 2:
        return None  # no pairs to measure
    d2 = _squared_distances(centroids, centroids, distance_kind)
    dist = np.sqrt(np.maximum(d2, 0.0))  # for jaccard, d2 entries are J^2
    iu = np.triu_indices(n, k=1)
    return float(np.median(dist[iu]))


def rbf_fit(
    X,
    y,
    L: int,
    distance_kind: str = KIND_SQEUCLIDEAN,
    seed: int = 0,
    lambda_grid=None,
) -> RbfModel:
    """Fit an RBF model with L centroids sampled from the training rows.

    Kernel widths are gamma_j = g_j / m**2 with g_j log-uniform on
    [0.1, 10] and m the median pairwise distance among the centroids.
    """
    y = _check_labels(y)
    n = X.n_rows if isinstance(X, SparseBinaryMatrix) else X.shape[0]
    if n != y.size:
        raise ValueError(f"row counts differ: {n} vs {y.size}")
    if L < 1:
        raise ValueError("centroid count L must be >= 1")
    if L > n:
        raise ValueError(f"centroid count {L} exceeds sample count {n}")
    if distance_kind == KIND_JACCARD and not isinstance(X, SparseBinaryMatrix):
        raise ValueError("jaccard distance requires sparse binary rows")
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    pick = np.random.default_rng(derive_seed(seed, _STREAM_CENTROIDS))
    idx = pick.choice(n, size=L, replace=False)
    centroids = (
        X.take_rows(idx)
        if isinstance(X, SparseBinaryMatrix)
        else np.ascontiguousarray(np.asarray(X, dtype=np.float64)[idx])
    )
    m = _pairwise_distance_median(centroids, distance_kind)
    if m == 0.0:
        warnings.warn(
            "all centroids coincide; falling back to unit distance scale",
            RuntimeWarning,
        )
        m = 1.0
    elif m is None:
        m = 1.0
    width_rng = np.random.default_rng(derive_seed(seed, _STREAM_GAMMAS))
    g = np.power(10.0, width_rng.uniform(-1.0, 1.0, size=L))
    gammas = g / (m * m)
    H = np.exp(-gammas[None, :] * _squared_distances(X, centroids, distance_kind))
    solution = solve_ridge_press(H, y[:, None], lambda_grid)
    return RbfModel(centroids, gammas, distance_kind, solution, seed)


def model_predict(model, X) -> np.ndarray:
    """Real-valued scores for each row of X; class decision is sign(score)."""
    if isinstance(model, ElmModel):
        H = elm_hidden(X, model.W, model.bias, model.activation)
        if model.linear_part is not None:
            H = np.hstack([H, apply_projection(X, model.linear_part)])
        return np.asarray(H @ model.solution.beta).ravel()
    if isinstance(model, RbfModel):
        d2 = _squared_distances(X, model.centroids, model.distance_kind)
        H = np.exp(-model.gammas[None, :] * d2)
        return np.asarray(H @ model.solution.beta).ravel()
    raise TypeError(f"unsupported model type: {type(model).__name__}")
