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

A row-by-row sparse product needs its right operand feature-major, so
:func:`sparse_gram` keeps one derived form on its right operand: the
column form, the CSR of the transpose (index arrays plus float64 ones,
about 12 bytes per stored entry plus an ``n_cols + 1`` pointer array).
It is built the first time the matrix is the right operand of
:func:`sparse_gram` and kept on the matrix, so a matrix scored against
again and again is transposed once; a matrix that is only ever a left
operand never holds one.  Its arrays are read-only.  Two threads may
race to build it; both build identical arrays and either may be kept.

Every sparse product in srplearn is densified at once, so
:func:`_dense_product` skips the sizing pass of scipy's two-pass product
(``csr_matmat_maxnnz``, which only counts the result's entries) and
calls its numeric pass, the private ``scipy.sparse._sparsetools``
kernel ``csr_matmat``, directly, then densifies with scipy's
``csr_todense``.  These are the two kernels ``(a @ b).toarray()`` runs,
in the same order, and the index dtype only selects a template instance
of the same loop.  The kernels are imported where the product is made,
so a scipy release that moves them breaks every sparse product with an
``ImportError`` but not ``import srplearn``; ``TestDenseProduct`` in
``tests/test_sparse.py`` compares the two products byte for byte, so it
fails on such a release, and on one whose kernel gives other bits.

The product runs in row blocks of its left operand, one loop for every
product in srplearn.  The kernel builds each output row from its own
left row only (Gustavson's row-wise product), so a block's rows have
the bits of the whole product's.  Each block is multiplied into scratch
index and value arrays, sized once for a block's rows x n pairs and
reused, and densified into its rows of the result; the left operand,
always a :class:`SparseBinaryMatrix`, gets its float64 ones one block
at a time.  A block's rows are
sized from ``_BLOCK_BUDGET_MB`` for three 8-byte slabs: the kernel's
two output arrays (1.5 slabs with int32 indices, 2 with int64) and one
temporary of the optional per-block ``combine``, which the distances of
:mod:`srplearn.distance` use to turn counts into distances while the
block is small.  So a product holds its dense result plus at most one
budget, whatever its shape; a row too wide for the budget is a block of
its own.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from . import checks

__all__ = [
    "SparseBinaryMatrix",
    "sparse_gram",
    "row_counts",
]

# Memory budget of one row block: a sparse product's scratch arrays and
# its combine's temporary, one block of a model's prediction design, or
# the draws of one block of projection or synthetic rows
_BLOCK_BUDGET_MB = 4.0
# counts and indices from here up need int64 index arrays
_INT32_BOUND = 2**31


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

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "_columns")

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
            # strictly increasing inside every row: pair k compares entries
            # k and k + 1, and only the pairs that straddle a row boundary
            # (inside the array, so not at 0 or nnz) may fail to increase
            bad = indices[1:] <= indices[:-1]
            starts = indptr[1:-1]
            bad[starts[(starts > 0) & (starts < indices.size)] - 1] = False
            if bad.any():
                raise ValueError(
                    "row indices must be strictly increasing (duplicates are "
                    "rejected, not merged)"
                )
        # narrowed only after the checks, so no out-of-range value wraps
        fits = max(indptr.size - 1, n_cols, indices.size) < _INT32_BOUND
        dtype = np.int32 if fits else np.int64
        object.__setattr__(self, "n_rows", int(indptr.size - 1))
        object.__setattr__(self, "n_cols", int(n_cols))
        indptr, indices = (a.astype(dtype, copy=False) for a in (indptr, indices))
        object.__setattr__(self, "indptr", _read_only(indptr))
        object.__setattr__(self, "indices", _read_only(indices))
        object.__setattr__(self, "_columns", None)

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

    def _column_form(self) -> sp.csr_matrix:
        """The (n_cols, n_rows) CSR of the transpose, built on first use and
        kept; its arrays are read-only."""
        if self._columns is None:
            object.__setattr__(self, "_columns", _transpose(self))
        return self._columns

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


def _transpose(m: SparseBinaryMatrix) -> sp.csr_matrix:
    """CSR of ``m``'s transpose: index arrays plus float64 ones, read-only."""
    # bool data: the transpose moves one byte per entry, not eight
    ones = np.ones(m.nnz, dtype=bool)
    csc = sp.csr_matrix((ones, m.indices, m.indptr), shape=m.shape).tocsc()
    data = _read_only(np.ones(m.nnz, dtype=np.float64))
    return sp.csr_matrix(
        (data, _read_only(csc.indices), _read_only(csc.indptr)),
        shape=(m.n_cols, m.n_rows),
    )


def sparse_gram(a: SparseBinaryMatrix, b: SparseBinaryMatrix, combine=None) -> np.ndarray:
    """Pairwise intersection sizes between the rows of two binary matrices.

    Returns a dense (a.n_rows, b.n_rows) float64 matrix whose (i, j) entry
    is the exact integer ``|row_i(a) & row_j(b)|``, each row block passed
    through ``combine`` when given (see :func:`_dense_product`).  ``b``
    keeps its column form for later calls (see the module docstring).
    """
    checks.same_width(a.n_cols, b.n_cols)
    return _dense_product(a, b._column_form(), combine)


def _block_rows(width: int, entry_bytes: int) -> int:
    """Rows of a block whose rows hold ``width`` entries of ``entry_bytes``
    bytes each, within ``_BLOCK_BUDGET_MB``; at least one."""
    return max(1, int(_BLOCK_BUDGET_MB * 1e6) // (entry_bytes * max(1, width)))


def _dense_product(a: SparseBinaryMatrix, b: sp.csr_matrix, combine=None) -> np.ndarray:
    """``(a.to_scipy() @ b).toarray()`` in row blocks of ``a``, without the
    sizing pass or a result CSR (see the module docstring).

    ``b`` is a float64 CSR matrix.  When given, ``combine(block, rows)``
    is called on each finished block, the rows ``rows`` (a slice) of the
    result, and rewrites it in place; it may allocate one float64
    temporary of the block's shape.

    The kernel does not check its operands: the caller checks that
    ``a.n_cols == b.shape[0]``.
    """
    from scipy.sparse._sparsetools import csr_matmat, csr_todense

    m, n = a.n_rows, b.shape[1]
    rows = min(max(m, 1), _block_rows(n, 24))
    # one index dtype for every array: the operands' widest, or int64 when
    # a block's output row pointers (up to rows * n) need it
    index = np.result_type(a.indptr, b.indptr, b.indices)
    if rows * n >= _INT32_BOUND:
        index = np.int64
    b_indptr, b_indices = (x.astype(index, copy=False) for x in (b.indptr, b.indices))
    indptr = np.empty(rows + 1, dtype=index)
    indices = np.empty(rows * n, dtype=index)
    data = np.empty(rows * n, dtype=np.float64)
    out = np.zeros((m, n), dtype=np.float64)
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        start, stop = a.indptr[lo], a.indptr[hi]
        csr_matmat(
            hi - lo, n,
            (a.indptr[lo : hi + 1] - start).astype(index, copy=False),
            a.indices[start:stop].astype(index, copy=False), np.ones(stop - start),
            b_indptr, b_indices, b.data,
            indptr, indices, data,
        )
        csr_todense(hi - lo, n, indptr, indices, data, out[lo:hi])
        if combine is not None:
            combine(out[lo:hi], slice(lo, hi))
    return out


def row_counts(a: SparseBinaryMatrix) -> np.ndarray:
    """Number of active entries in each row, in the matrix's index dtype."""
    return np.diff(a.indptr)

