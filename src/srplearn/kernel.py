"""Kernel ridge regression and k-nearest-neighbor classification.

KRR is solved in the dual, (K + lambda I) alpha = y, over a precomputed
kernel such as the Jaccard similarity of :func:`kernel_matrix`, with the
penalty chosen by leave-one-out error (PRESS) in the dual form of the
spectral core shared with the ridge solver, ``ridge._spectral_press``.

kNN consumes a precomputed distance matrix and depends on distance ranks
only, so any strictly monotone transform of the distances is equivalent.
"""

from __future__ import annotations

import numpy as np

from . import checks
from .distance import DistanceMatrix, jaccard_distance_matrix
from .ridge import _spectral_press, default_lambda_grid

__all__ = [
    "KrrModel",
    "kernel_matrix",
    "krr_fit",
    "krr_predict",
    "krr_predict_kernel",
    "knn_predict",
]

KERNEL_JACCARD = "jaccard-similarity"


class KrrModel:
    """Dual-form ridge model over a precomputed kernel.

    ``training_rows``, when set, are the sparse binary rows of a Jaccard
    kernel, the one kernel :func:`krr_predict` can rebuild.
    """

    __slots__ = ("alpha", "lam", "press_value", "lambda_grid", "training_rows")

    def __init__(self, alpha, lam, press_value, lambda_grid, training_rows):
        self.alpha = np.asarray(alpha, dtype=np.float64)
        self.lam = float(lam)
        self.press_value = float(press_value)
        self.lambda_grid = np.asarray(lambda_grid, dtype=np.float64)
        self.training_rows = training_rows

    @property
    def n_train(self) -> int:
        return self.alpha.shape[0]

    def __repr__(self) -> str:
        return f"KrrModel(n_train={self.n_train}, lam={self.lam:g})"


def kernel_matrix(kind: str, rows_a, rows_b) -> np.ndarray:
    """Kernel values between all rows of A and all rows of B.

    The one kind, "jaccard-similarity", is 1 - J on sparse binary rows (1
    on identical nonempty rows, 0 on disjoint ones); other rows raise
    ``TypeError``.  Ridge on dense features needs no kernel:
    ``ridge.solve_ridge_press`` takes the feature rows themselves.
    """
    if kind == KERNEL_JACCARD:
        D = jaccard_distance_matrix(rows_a, rows_b).values
        return np.subtract(1.0, D, out=D)  # in place: no second n x m array
    raise ValueError(f"unknown kernel kind: {kind!r}")


def krr_fit(
    K,
    y,
    lambda_grid=None,
    kernel_kind: str = "precomputed",
    training_rows=None,
) -> KrrModel:
    """Fit dual ridge on an N x N kernel with leave-one-out penalty choice.

    ``training_rows`` (optional) lets :func:`krr_predict` rebuild test
    kernels later; prediction from an explicit cross-kernel never needs it.
    ``kernel_kind`` is "precomputed" or ``KERNEL_JACCARD``; only a Jaccard
    kernel can be rebuilt, so rows given with any other kind raise
    ``ValueError``.
    """
    if kernel_kind not in ("precomputed", KERNEL_JACCARD):
        raise ValueError(f"unknown kernel kind: {kernel_kind!r}")
    if training_rows is not None and kernel_kind != KERNEL_JACCARD:
        raise ValueError(
            f"training rows rebuild only a {KERNEL_JACCARD!r} kernel, "
            f"not {kernel_kind!r}"
        )
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("K must be square")
    if y.ndim != 1 or y.size != K.shape[0]:
        raise ValueError("y must be a vector with one entry per kernel row")
    # relative to scale: a kernel computed as a matrix product is
    # symmetric only up to the rounding of its largest entries
    asym = np.max(np.abs(K - K.T), initial=0.0)
    if asym > 1e-8 * np.max(np.abs(K), initial=0.0):
        raise ValueError(f"kernel matrix is not symmetric (max gap {asym:g})")
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    lam, press, alpha = _spectral_press((K + K.T) / 2.0, y[:, None], lambda_grid)
    return KrrModel(alpha[:, 0], lam, press, lambda_grid, training_rows)


def krr_predict_kernel(model: KrrModel, K_cross) -> np.ndarray:
    """Scores from an explicit (n_test, n_train) cross-kernel."""
    return checks.rows(K_cross, model.n_train) @ model.alpha


def krr_predict(model: KrrModel, X_test) -> np.ndarray:
    """Scores for test rows; rebuilds the Jaccard cross-kernel from the
    training rows."""
    if model.training_rows is None:
        raise ValueError(
            "model stores no training rows; use krr_predict_kernel"
        )
    K_cross = kernel_matrix(KERNEL_JACCARD, X_test, model.training_rows)
    return krr_predict_kernel(model, K_cross)


def knn_predict(D: DistanceMatrix | np.ndarray, labels, k: int) -> np.ndarray:
    """Mean label of the k nearest training rows for each test row.

    Neighbors are taken by ascending distance; equal distances, as
    computed, resolve to the lower training index.  Distances equal in
    exact arithmetic may differ in their last bits (dense squared
    distances come from ``|a|^2 + |b|^2 - 2ab``), and then the smaller
    one wins.  Scores lie in [-1, 1]; class is sign(score).
    """
    values = checks.rows(D.values if isinstance(D, DistanceMatrix) else D)
    labels = checks.labels(labels, values.shape[1])
    k = checks.neighbors(k, values.shape[1])
    if np.isnan(values).any():
        raise ValueError("distance matrix contains NaN")
    if k == 1:
        return labels[np.argmin(values, axis=1)]  # first minimum on ties
    # every row below its k-th smallest distance is a neighbor; the rows
    # tied at it fill the remaining places in index order
    kth = np.partition(values, k - 1, axis=1)[:, k - 1 : k]
    below = values < kth
    tied = values == kth
    room = k - np.count_nonzero(below, axis=1)
    take = below | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
    # labels are +-1, so the sum is exact in any order
    return np.where(take, labels, 0.0).sum(axis=1) / k
