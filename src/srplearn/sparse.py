"""Sparse binary matrices (samples as rows) and the arithmetic built on them.

A :class:`SparseBinaryMatrix` stores, for every sample, the sorted set of
active feature indices in two CSR index arrays: int32 when the row and
column counts and nnz fit int32, int64 otherwise, the dtype scipy's CSR
keeps as given.  ``to_scipy()`` wraps them in a fresh CSR on each call,
with no copy and no cache.  All arithmetic, row gathers included, is
delegated to ``scipy.sparse`` CSR kernels, which are exact for 0/1 data
and deterministic however many callers share the matrix.  Instances are
immutable after construction, their index arrays read-only, and safe to
use from multiple threads.
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


def _index_array(values) -> np.ndarray:
    """Contiguous int32 if ``values`` is int32, else contiguous int64."""
    values = np.asarray(values)
    return np.ascontiguousarray(values, np.int32 if values.dtype == np.int32 else np.int64)


def _read_only(values: np.ndarray) -> np.ndarray:
    """A read-only view; the array it views keeps its own flag."""
    view = values.view()
    view.flags.writeable = False
    return view


class SparseBinaryMatrix:
    """Immutable n_rows x n_cols binary matrix in CSR layout.

    Parameters
    ----------
    indptr : array of ints, shape (n_rows + 1,)
        Row pointer array; row i occupies ``indices[indptr[i]:indptr[i+1]]``.
    indices : array of ints, shape (nnz,)
        Column indices of the active entries, strictly increasing within
        each row.
    n_cols : int
        Number of columns (features).

    Both arrays are checked as given, then stored in the index dtype as
    read-only views, so neither the matrix nor a CSR from ``to_scipy()``
    can write to them; the caller's arrays stay writable.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices")

    def __init__(self, indptr, indices, n_cols: int):
        indptr = _index_array(indptr)
        indices = _index_array(indices)
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
        # narrowed only after the checks, so no out-of-range value wraps
        fits = max(indptr.size - 1, n_cols, indices.size) < 2**31
        dtype = np.int32 if fits else np.int64
        object.__setattr__(self, "n_rows", int(indptr.size - 1))
        object.__setattr__(self, "n_cols", int(n_cols))
        indptr, indices = (a.astype(dtype, copy=False) for a in (indptr, indices))
        object.__setattr__(self, "indptr", _read_only(indptr))
        object.__setattr__(self, "indices", _read_only(indices))

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

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def row(self, i: int) -> np.ndarray:
        """Active column indices of row i (a read-only view)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def take_rows(self, idx) -> "SparseBinaryMatrix":
        """New matrix with rows ``idx`` in the given order."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_rows):
            raise ValueError("row index out of range")
        # bool data: only the gathered indices are kept, and float64 ones cost 8x
        ones = np.ones(self.nnz, dtype=bool)
        rows = sp.csr_matrix((ones, self.indices, self.indptr), shape=self.shape)[idx]
        return SparseBinaryMatrix(rows.indptr, rows.indices, self.n_cols)

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
        """A fresh CSR on each call, sharing the read-only index arrays; only
        its float64 ones are allocated, and nothing is cached."""
        data = np.ones(self.nnz, dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    def to_dense(self) -> np.ndarray:
        """Dense float64 copy (0.0 / 1.0 entries)."""
        return self.to_scipy().toarray()

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
    return (a.to_scipy() @ b.to_scipy().T).toarray()


def row_counts(a: SparseBinaryMatrix) -> np.ndarray:
    """Number of active entries in each row, in the matrix's index dtype."""
    return np.diff(a.indptr)

