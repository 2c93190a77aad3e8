"""Kernel ridge regression and k-nearest-neighbor classification.

KRR is solved in the dual, (K + lambda I) alpha = y, with the penalty
chosen by leave-one-out error (PRESS) in the dual form of the spectral
core shared with the ridge solver, ``ridge._spectral_press``.

kNN consumes a precomputed distance matrix and depends on distance ranks
only, so any strictly monotone transform of the distances is equivalent.
"""

from __future__ import annotations

import numpy as np

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

KERNEL_LINEAR = "linear-srp"
KERNEL_JACCARD = "jaccard-similarity"


class KrrModel:
    """Dual-form ridge model over a precomputed kernel."""

    __slots__ = (
        "alpha",
        "lam",
        "press_value",
        "lambda_grid",
        "kernel_kind",
        "training_rows",
    )

    def __init__(self, alpha, lam, press_value, lambda_grid, kernel_kind, training_rows):
        self.alpha = np.asarray(alpha, dtype=np.float64)
        self.lam = float(lam)
        self.press_value = float(press_value)
        self.lambda_grid = np.asarray(lambda_grid, dtype=np.float64)
        self.kernel_kind = kernel_kind
        self.training_rows = training_rows

    @property
    def n_train(self) -> int:
        return self.alpha.shape[0]

    def __repr__(self) -> str:
        return (
            f"KrrModel(n_train={self.n_train}, lam={self.lam:g}, "
            f"kernel={self.kernel_kind!r})"
        )


def _check_k(k: int, n_train: int) -> None:
    if k % 2 == 0:
        raise ValueError("k must be odd")
    if not 1 <= k <= n_train:
        raise ValueError(f"k must be in [1, {n_train}], got {k}")


def kernel_matrix(kind: str, rows_a, rows_b) -> np.ndarray:
    """Kernel values between all rows of A and all rows of B.

    "linear-srp": plain inner products of dense feature rows.
    "jaccard-similarity": 1 - J on sparse binary rows (1 on identical
    nonempty rows, 0 on disjoint ones); other rows raise ``TypeError``.
    """
    if kind == KERNEL_LINEAR:
        a = np.asarray(rows_a, dtype=np.float64)
        b = np.asarray(rows_b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("linear kernel expects 2-D feature arrays")
        if a.shape[1] != b.shape[1]:
            raise ValueError(
                f"feature dimensions differ: {a.shape[1]} vs {b.shape[1]}"
            )
        return a @ b.T
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
    """
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
    return KrrModel(alpha[:, 0], lam, press, lambda_grid, kernel_kind, training_rows)


def krr_predict_kernel(model: KrrModel, K_cross) -> np.ndarray:
    """Scores from an explicit (n_test, n_train) cross-kernel."""
    K_cross = np.asarray(K_cross, dtype=np.float64)
    if K_cross.ndim != 2 or K_cross.shape[1] != model.n_train:
        raise ValueError(
            f"cross-kernel must have {model.n_train} columns"
        )
    return K_cross @ model.alpha


def krr_predict(model: KrrModel, X_test) -> np.ndarray:
    """Scores for test rows; rebuilds the cross-kernel from training rows."""
    if model.training_rows is None:
        raise ValueError(
            "model stores no training rows; use krr_predict_kernel"
        )
    K_cross = kernel_matrix(model.kernel_kind, X_test, model.training_rows)
    return krr_predict_kernel(model, K_cross)


def knn_predict(D: DistanceMatrix | np.ndarray, labels, k: int) -> np.ndarray:
    """Mean label of the k nearest training rows for each test row.

    Neighbors are taken by ascending distance; equal distances resolve to
    the lower training index.  Scores lie in [-1, 1]; class is sign(score).
    """
    values = D.values if isinstance(D, DistanceMatrix) else np.asarray(D, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("distance matrix must be 2-D")
    labels = np.asarray(labels)
    n_test, n_train = values.shape
    if labels.shape != (n_train,):
        raise ValueError("one label per training row required")
    if not np.all(np.isin(np.unique(labels), (-1, 1))):
        raise ValueError("labels must be -1 or +1")
    _check_k(k, n_train)
    if np.isnan(values).any():
        raise ValueError("distance matrix contains NaN")
    labels = labels.astype(np.float64)
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
