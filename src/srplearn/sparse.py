"""Sparse binary matrices (samples as rows) and the arithmetic built on them.

A :class:`SparseBinaryMatrix` stores, for every sample, the sorted set of
active feature indices; the stored value is implicitly 1.  All heavy
arithmetic is delegated to ``scipy.sparse`` CSR kernels, which are exact
for 0/1 data and deterministic regardless of how many callers share the
matrix concurrently.  Instances are immutable after construction and safe
to use from multiple threads.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseBinaryMatrix",
    "sparse_gram",
    "row_counts",
]


class SparseBinaryMatrix:
    """Immutable n_rows x n_cols binary matrix in CSR layout.

    Parameters
    ----------
    indptr : array of int64, shape (n_rows + 1,)
        Row pointer array; row i occupies ``indices[indptr[i]:indptr[i+1]]``.
    indices : array of int64, shape (nnz,)
        Column indices of the active entries, strictly increasing within
        each row.
    n_cols : int
        Number of columns (features).
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "_csr")

    def __init__(self, indptr, indices, n_cols: int):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size < 1:
            raise ValueError("indptr must be a 1-D array of length n_rows + 1")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if n_cols < 0:
            raise ValueError("n_cols must be non-negative")
        if indices.size:
            if indices.min() < 0 or indices.max() >= n_cols:
                raise ValueError("column indices must lie in [0, n_cols)")
            # strictly increasing inside every row: the only places where
            # consecutive stored indices may not increase are row boundaries
            non_increasing = np.flatnonzero(np.diff(indices) <= 0) + 1
            if non_increasing.size and not np.all(
                np.isin(non_increasing, indptr[1:-1])
            ):
                raise ValueError(
                    "row indices must be strictly increasing (duplicates are "
                    "rejected, not merged)"
                )
        object.__setattr__(self, "n_rows", int(indptr.size - 1))
        object.__setattr__(self, "n_cols", int(n_cols))
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "_csr", None)

    def __setattr__(self, name, value):
        raise AttributeError("SparseBinaryMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], n_cols: int) -> "SparseBinaryMatrix":
        """Build from an iterable of per-row index collections.

        Each row may be unsorted; it is sorted here.  Duplicate indices
        within a row are rejected.
        """
        sorted_rows = [np.sort(np.asarray(r, dtype=np.int64)) for r in rows]
        lengths = np.array([r.size for r in sorted_rows], dtype=np.int64)
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        indices = (
            np.concatenate(sorted_rows) if sorted_rows else np.empty(0, np.int64)
        )
        return cls(indptr, indices, n_cols)

    @classmethod
    def from_scipy(cls, matrix) -> "SparseBinaryMatrix":
        """Build from any scipy sparse matrix; every stored nonzero becomes 1."""
        csr = sp.csr_matrix(matrix)
        csr.eliminate_zeros()
        csr.sort_indices()
        return cls(csr.indptr, csr.indices, csr.shape[1])

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def row(self, i: int) -> np.ndarray:
        """Active column indices of row i (a view, do not mutate)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def row_sets(self) -> list[set[int]]:
        """Rows as Python sets; intended for small matrices and oracles."""
        return [set(self.row(i).tolist()) for i in range(self.n_rows)]

    def take_rows(self, idx) -> "SparseBinaryMatrix":
        """New matrix with rows ``idx`` in the given order."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_rows):
            raise ValueError("row index out of range")
        starts = self.indptr[idx]
        lengths = self.indptr[idx + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        # output entry k of new row r is input entry starts[r] + k - indptr[r]
        source = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        indices = self.indices[source]
        return SparseBinaryMatrix(indptr, indices, self.n_cols)

    def widen(self, n_cols: int) -> "SparseBinaryMatrix":
        """Same rows with ``n_cols`` columns, for aligning two files' widths.

        The new columns are all inactive; ``self`` is returned unchanged
        when the width already matches.
        """
        if n_cols < self.n_cols:
            raise ValueError(f"cannot widen {self.n_cols} columns to {n_cols}")
        if n_cols == self.n_cols:
            return self
        return SparseBinaryMatrix(self.indptr, self.indices, n_cols)

    def to_scipy(self) -> sp.csr_matrix:
        """CSR view with float64 ones as data (cached)."""
        if self._csr is None:
            data = np.ones(self.nnz, dtype=np.float64)
            csr = sp.csr_matrix(
                (data, self.indices, self.indptr),
                shape=(self.n_rows, self.n_cols),
            )
            object.__setattr__(self, "_csr", csr)
        return self._csr

    def to_dense(self) -> np.ndarray:
        """Dense float64 copy (0.0 / 1.0 entries)."""
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.float64)
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        out[rows, self.indices] = 1.0
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseBinaryMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return (
            f"SparseBinaryMatrix(n_rows={self.n_rows}, n_cols={self.n_cols}, "
            f"nnz={self.nnz})"
        )


def sparse_gram(a: SparseBinaryMatrix, b: SparseBinaryMatrix) -> np.ndarray:
    """Pairwise intersection sizes between the rows of two binary matrices.

    Returns a dense (a.n_rows, b.n_rows) float64 matrix whose (i, j) entry
    is the exact integer ``|row_i(a) & row_j(b)|``.
    """
    if a.n_cols != b.n_cols:
        raise ValueError(
            f"column counts differ: {a.n_cols} vs {b.n_cols}"
        )
    product = a.to_scipy() @ b.to_scipy().T
    return np.asarray(product.todense(), dtype=np.float64)


def row_counts(a: SparseBinaryMatrix) -> np.ndarray:
    """Number of active entries in each row, as an int64 vector."""
    return np.diff(a.indptr)

