"""Pairwise distance matrices.

Every pairwise distance between rows of two sparse binary matrices is
computed for all pairs at once from intersection counts, which come from
one sparse matrix product, :func:`srplearn.sparse.sparse_gram`:

    J(a, b)    = 1 - |a & b| / (|a| + |b| - |a & b|)
    |a - b|^2  = |a| + |b| - 2 |a & b|

The product runs in row blocks of A, sized from the one block budget of
:mod:`srplearn.sparse`, and each block of counts is turned into
distances in place as soon as it is complete, so the intermediates of
either sparse distance stay within that budget beyond the result.  Dense
rows get squared Euclidean distances from one matrix product.
:func:`distance_matrix` picks the distance by row type: Jaccard for
sparse binary sets, squared Euclidean for dense rows such as SRP
features, whose distances the projection preserves.

Per-pair scalar computation is deliberately not exposed; the matrix
product route is only efficient when pairs are joined in large matrices.
"""

from __future__ import annotations

import numpy as np

from . import checks
from .sparse import SparseBinaryMatrix, row_counts, sparse_gram

__all__ = [
    "DistanceMatrix",
    "distance_matrix",
    "jaccard_distance_matrix",
    "squared_euclidean_distance_matrix",
]

class DistanceMatrix:
    """Dense (n_rows(A), n_rows(B)) matrix of pairwise distances.

    The function that built it names the distance: Jaccard (entries in
    [0, 1]) or squared Euclidean (entries >= 0, already squared).
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = checks.rows(values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def __repr__(self) -> str:
        return f"DistanceMatrix(shape={self.shape})"


def _from_counts(A, B, combine) -> np.ndarray:
    """``combine(|a&b|, |a|, |b|)`` for every row a of A and row b of B.

    Both operands must be sparse binary matrices of equal width.
    ``combine`` rewrites one row block of counts in place, and may
    allocate one temporary of the block's shape (see
    :func:`srplearn.sparse._dense_product`).  B is never sliced, so every
    block, and every later call with the same B, reuses the column form B
    keeps (see :mod:`srplearn.sparse`).  The counts are exact integers, so
    the blocks do not affect the result.
    """
    if not (isinstance(A, SparseBinaryMatrix) and isinstance(B, SparseBinaryMatrix)):
        raise TypeError("sparse distances need two sparse binary matrices")
    counts_a = row_counts(A).astype(np.float64)[:, None]
    counts_b = row_counts(B).astype(np.float64)[None, :]
    return sparse_gram(A, B, lambda g, rows: combine(g, counts_a[rows], counts_b))


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


def _sqeuclidean(g, counts_a, counts_b):
    """|a| + |b| - 2 g in place; exact, since every term is an integer."""
    g *= -2.0
    g += counts_a
    g += counts_b


def jaccard_distance_matrix(A: SparseBinaryMatrix, B: SparseBinaryMatrix) -> DistanceMatrix:
    """Exact Jaccard distances between all rows of A and all rows of B.

    Both must be sparse binary matrices (``TypeError`` otherwise) of
    equal width (``ValueError`` otherwise).
    """
    return DistanceMatrix(_from_counts(A, B, _jaccard))


def squared_euclidean_distance_matrix(A, B) -> DistanceMatrix:
    """Pairwise squared Euclidean distances between rows of A and B.

    Both arguments are either sparse binary matrices (exact integer
    result via intersection counts) or dense float arrays; one sparse
    operand with one dense one raises ``TypeError``.
    """
    if isinstance(A, SparseBinaryMatrix) or isinstance(B, SparseBinaryMatrix):
        return DistanceMatrix(_from_counts(A, B, _sqeuclidean))
    A = checks.rows(A)
    B = checks.rows(B, A.shape[1])
    sq_a = np.einsum("ij,ij->i", A, A)
    sq_b = np.einsum("ij,ij->i", B, B)
    d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return DistanceMatrix(d2)


def distance_matrix(A, B) -> DistanceMatrix:
    """Jaccard distances between sparse binary rows, squared Euclidean
    distances between dense rows; one operand of each raises ``TypeError``."""
    if isinstance(A, SparseBinaryMatrix) or isinstance(B, SparseBinaryMatrix):
        return jaccard_distance_matrix(A, B)
    return squared_euclidean_distance_matrix(A, B)
