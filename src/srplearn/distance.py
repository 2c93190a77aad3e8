"""Pairwise distance matrices.

Jaccard distances between rows of two sparse binary matrices are computed
for all pairs at once from one sparse matrix product:

    J(a, b) = 1 - |a & b| / (|a| + |b| - |a & b|)

Per-pair scalar computation is deliberately not exposed; the matrix
product route is only efficient when pairs are joined in large matrices.
"""

from __future__ import annotations

import numpy as np

from .sparse import SparseBinaryMatrix, row_counts, sparse_gram

__all__ = [
    "DistanceMatrix",
    "jaccard_distance_matrix",
    "squared_euclidean_distance_matrix",
]

KIND_JACCARD = "jaccard"
KIND_SQEUCLIDEAN = "squared-euclidean"

# Memory cap for the live intermediates of one block of Jaccard distances.
_BLOCK_BUDGET_MB = 256.0


class DistanceMatrix:
    """Dense (n_rows(A), n_rows(B)) matrix of pairwise distances.

    ``kind`` is "jaccard" (entries in [0, 1]) or "squared-euclidean"
    (entries >= 0, already squared).
    """

    __slots__ = ("values", "kind")

    def __init__(self, values: np.ndarray, kind: str):
        if kind not in (KIND_JACCARD, KIND_SQEUCLIDEAN):
            raise ValueError(f"unknown distance kind: {kind!r}")
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("distance matrix must be 2-D")
        self.values = values
        self.kind = kind

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def __repr__(self) -> str:
        return f"DistanceMatrix(shape={self.shape}, kind={self.kind!r})"


def _jaccard_block(A, B_block, counts_a, counts_b_block):
    g = sparse_gram(A, B_block)
    union = counts_a[:, None] + counts_b_block[None, :] - g
    # union == 0 only when both rows are empty; that distance is 0.
    # An empty row against a nonempty one gives g == 0, hence distance 1.
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(union > 0, 1.0 - g / np.maximum(union, 1.0), 0.0)
    return out


def jaccard_distance_matrix(A: SparseBinaryMatrix, B: SparseBinaryMatrix) -> DistanceMatrix:
    """Exact Jaccard distances between all rows of A and all rows of B.

    B is processed in row blocks sized from ``_BLOCK_BUDGET_MB`` so the
    intermediate intersection-count matrix stays within budget.  Block
    size does not affect the result.
    """
    if A.n_cols != B.n_cols:
        raise ValueError(
            f"column counts differ: {A.n_cols} vs {B.n_cols}"
        )
    counts_a = row_counts(A).astype(np.float64)
    counts_b = row_counts(B).astype(np.float64)
    out = np.empty((A.n_rows, B.n_rows), dtype=np.float64)
    if A.n_rows == 0 or B.n_rows == 0:
        return DistanceMatrix(out, KIND_JACCARD)
    # 3 live float64 copies of an (n_rows(A), block) slab: gram, union, out
    budget_entries = int(_BLOCK_BUDGET_MB * 1e6 / 8.0)
    block = max(1, budget_entries // (3 * max(1, A.n_rows)))
    for start in range(0, B.n_rows, block):
        stop = min(start + block, B.n_rows)
        b_block = B.take_rows(np.arange(start, stop))
        out[:, start:stop] = _jaccard_block(
            A, b_block, counts_a, counts_b[start:stop]
        )
    return DistanceMatrix(out, KIND_JACCARD)


def squared_euclidean_distance_matrix(A, B) -> DistanceMatrix:
    """Pairwise squared Euclidean distances between rows of A and B.

    Both arguments are either sparse binary matrices (exact integer
    result via intersection counts) or dense float arrays.
    """
    if isinstance(A, SparseBinaryMatrix) and isinstance(B, SparseBinaryMatrix):
        if A.n_cols != B.n_cols:
            raise ValueError(
                f"column counts differ: {A.n_cols} vs {B.n_cols}"
            )
        g = sparse_gram(A, B)
        counts_a = row_counts(A).astype(np.float64)
        counts_b = row_counts(B).astype(np.float64)
        d2 = counts_a[:, None] + counts_b[None, :] - 2.0 * g
        return DistanceMatrix(d2, KIND_SQEUCLIDEAN)
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("dense inputs must be 2-D")
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"column counts differ: {A.shape[1]} vs {B.shape[1]}"
        )
    sq_a = np.einsum("ij,ij->i", A, A)
    sq_b = np.einsum("ij,ij->i", B, B)
    d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return DistanceMatrix(d2, KIND_SQEUCLIDEAN)
