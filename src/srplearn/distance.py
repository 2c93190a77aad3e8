"""Pairwise distance matrices.

Every pairwise distance between rows of two sparse binary matrices is
computed for all pairs at once from intersection counts, which come from
one sparse matrix product per row block of B:

    J(a, b)    = 1 - |a & b| / (|a| + |b| - |a & b|)
    |a - b|^2  = |a| + |b| - 2 |a & b|

Both sparse distances share one blocked count loop, so both stay within
the same memory cap.  Dense rows get squared Euclidean distances from one
matrix product.  :func:`distance_matrix` selects the distance by kind.

Per-pair scalar computation is deliberately not exposed; the matrix
product route is only efficient when pairs are joined in large matrices.
"""

from __future__ import annotations

import numpy as np

from .sparse import SparseBinaryMatrix, row_counts, sparse_gram

__all__ = [
    "DistanceMatrix",
    "distance_matrix",
    "jaccard_distance_matrix",
    "squared_euclidean_distance_matrix",
]

KIND_JACCARD = "jaccard"
KIND_SQEUCLIDEAN = "squared-euclidean"
KINDS = (KIND_JACCARD, KIND_SQEUCLIDEAN)

# Memory cap for the live intermediates of one block of sparse distances.
_BLOCK_BUDGET_MB = 256.0


class DistanceMatrix:
    """Dense (n_rows(A), n_rows(B)) matrix of pairwise distances.

    ``kind`` is "jaccard" (entries in [0, 1]) or "squared-euclidean"
    (entries >= 0, already squared).
    """

    __slots__ = ("values", "kind")

    def __init__(self, values: np.ndarray, kind: str):
        if kind not in KINDS:
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


def _from_counts(A, B, combine) -> np.ndarray:
    """``combine(|a&b|, |a|, |b|)`` for every row a of A and row b of B.

    Both operands must be sparse binary matrices of equal width.  B is
    processed in row blocks sized from ``_BLOCK_BUDGET_MB`` so the
    intermediates of one block stay within budget; the counts are exact
    integers, so block size does not affect the result.  ``combine`` may
    overwrite the count slab it is given.
    """
    if not (isinstance(A, SparseBinaryMatrix) and isinstance(B, SparseBinaryMatrix)):
        raise TypeError("sparse distances need two sparse binary matrices")
    if A.n_cols != B.n_cols:
        raise ValueError(f"column counts differ: {A.n_cols} vs {B.n_cols}")
    counts_a = row_counts(A).astype(np.float64)[:, None]
    counts_b = row_counts(B).astype(np.float64)[None, :]
    out = np.empty((A.n_rows, B.n_rows), dtype=np.float64)
    # a block peaks at 2.8 float64 (n_rows(A), block) slabs (tracemalloc,
    # every pair intersecting): the sparse product and its dense copy
    budget_entries = int(_BLOCK_BUDGET_MB * 1e6 / 8.0)
    block = max(1, budget_entries // (3 * max(1, A.n_rows)))
    for start in range(0, B.n_rows, block):
        stop = min(start + block, B.n_rows)
        part = B if block >= B.n_rows else B.take_rows(np.arange(start, stop))
        out[:, start:stop] = combine(
            sparse_gram(A, part), counts_a, counts_b[:, start:stop]
        )
    return out


def _jaccard(g, counts_a, counts_b):
    """1 - g / union, computed in place on the count slab ``g``."""
    union = counts_a + counts_b
    union -= g
    np.maximum(union, 1.0, out=union)
    g /= union
    np.subtract(1.0, g, out=g)
    # union == 0 only when both rows are empty; that distance is 0.
    # An empty row against a nonempty one gives g == 0, hence distance 1.
    g[np.ix_(counts_a[:, 0] == 0, counts_b[0] == 0)] = 0.0
    return g


def _sqeuclidean(g, counts_a, counts_b):
    """|a| + |b| - 2 g in place; exact, since every term is an integer."""
    g *= -2.0
    g += counts_a
    g += counts_b
    return g


def jaccard_distance_matrix(A: SparseBinaryMatrix, B: SparseBinaryMatrix) -> DistanceMatrix:
    """Exact Jaccard distances between all rows of A and all rows of B.

    Both must be sparse binary matrices (``TypeError`` otherwise) of
    equal width (``ValueError`` otherwise).
    """
    return DistanceMatrix(_from_counts(A, B, _jaccard), KIND_JACCARD)


def squared_euclidean_distance_matrix(A, B) -> DistanceMatrix:
    """Pairwise squared Euclidean distances between rows of A and B.

    Both arguments are either sparse binary matrices (exact integer
    result via intersection counts) or dense float arrays; one sparse
    operand with one dense one raises ``TypeError``.
    """
    if isinstance(A, SparseBinaryMatrix) or isinstance(B, SparseBinaryMatrix):
        d2 = _from_counts(A, B, _sqeuclidean)
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


def distance_matrix(kind: str, A, B) -> DistanceMatrix:
    """Pairwise distances of ``kind``, one of :data:`KINDS`, between rows of A and B."""
    if kind == KIND_JACCARD:
        return jaccard_distance_matrix(A, B)
    if kind == KIND_SQEUCLIDEAN:
        return squared_euclidean_distance_matrix(A, B)
    raise ValueError(f"unknown distance kind: {kind!r}")
