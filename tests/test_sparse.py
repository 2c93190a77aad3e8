"""Tests for the sparse binary matrix type and its arithmetic."""

import collections.abc
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from hypothesis import given, settings
from hypothesis import strategies as st

from srplearn import sparse
from srplearn.projection import make_projection
from srplearn.sparse import (
    SparseBinaryMatrix,
    _dense_product,
    row_counts,
    sparse_gram,
)

from oracles import fresh_copy, random_sparse


# row sets over 6 columns, empty rows included, as a matrix plus its rows
_matrices = st.lists(
    st.sets(st.integers(min_value=0, max_value=5), max_size=6), max_size=8
).map(lambda rows: (SparseBinaryMatrix.from_rows(map(sorted, rows), 6), rows))


def row_sets(m):
    """Rows of ``m`` as Python sets, the oracles' view of a matrix."""
    return [set(m.row(i).tolist()) for i in range(m.n_rows)]


class TestConstruction:
    def test_from_rows_sorts_and_counts(self):
        m = SparseBinaryMatrix.from_rows([[3, 1], [0], []], n_cols=5)
        assert m.shape == (3, 5)
        assert m.nnz == 3
        assert m.row(0).tolist() == [1, 3]
        assert m.row(1).tolist() == [0]
        assert m.row(2).tolist() == []

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError):
            SparseBinaryMatrix.from_rows([[2, 2]], n_cols=5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparseBinaryMatrix.from_rows([[5]], n_cols=5)
        with pytest.raises(ValueError):
            SparseBinaryMatrix.from_rows([[-1]], n_cols=5)

    def test_unsorted_raw_csr_rejected(self):
        with pytest.raises(ValueError):
            SparseBinaryMatrix([0, 2], [3, 1], n_cols=5)

    def test_bad_indptr_rejected(self):
        with pytest.raises(ValueError):
            SparseBinaryMatrix([1, 2], [0], n_cols=5)
        with pytest.raises(ValueError):
            SparseBinaryMatrix([0, 2], [0], n_cols=5)

    def test_immutable(self):
        m = SparseBinaryMatrix.from_rows([[0]], n_cols=2)
        with pytest.raises(AttributeError):
            m.n_cols = 7

    def test_unhashable(self):
        m = SparseBinaryMatrix.from_rows([[0]], n_cols=2)
        assert not isinstance(m, collections.abc.Hashable)
        with pytest.raises(TypeError, match="unhashable"):
            {m}

    def test_row_boundary_equal_index_allowed(self):
        # consecutive rows may start where the previous ended, including
        # a repeat of the same column index across the boundary
        m = SparseBinaryMatrix([0, 2, 4], [1, 3, 1, 3], n_cols=5)
        assert m.row(0).tolist() == [1, 3]
        assert m.row(1).tolist() == [1, 3]

    def test_row_boundary_decrease_allowed(self):
        # a row may start below where the previous one ended, also across
        # an empty row
        m = SparseBinaryMatrix([0, 2, 3, 3, 5], [3, 5, 1, 0, 2], n_cols=6)
        assert row_sets(m) == [{3, 5}, {1}, set(), {0, 2}]

    @pytest.mark.parametrize("pair", [[2, 2], [4, 1]], ids=["duplicate", "decrease"])
    @pytest.mark.parametrize(
        "rows",
        [
            [None, [1, 3], [2]],
            [[0, 4], [1], None],
            [[0, 4], [], [], None, [1]],
            [[], None, []],
        ],
        ids=["first row", "last row", "after empty rows", "between empty rows"],
    )
    def test_order_checked_in_every_row(self, rows, pair):
        rows = [pair if r is None else r for r in rows]
        indptr = np.cumsum([0] + [len(r) for r in rows])
        indices = [j for r in rows for j in r]
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseBinaryMatrix(indptr, indices, n_cols=5)

    def test_order_check_allocates_one_byte_per_entry(self):
        # one boolean per consecutive pair, plus row-sized arrays; a
        # difference array, its mask, flatnonzero and isin took about five
        # bytes per int32 entry
        n_rows, per_row = 1000, 1000
        indices = np.tile(np.arange(0, 2 * per_row, 2, dtype=np.int32), n_rows)
        indptr = np.arange(0, indices.size + 1, per_row, dtype=np.int32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            SparseBinaryMatrix(indptr, indices, 2 * per_row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.1 * indices.size

    def test_take_rows(self):
        m = SparseBinaryMatrix.from_rows([[0], [1, 2], [3]], n_cols=4)
        sub = m.take_rows([2, 0, 2])
        assert sub.shape == (3, 4)
        assert sub.row(0).tolist() == [3]
        assert sub.row(1).tolist() == [0]
        assert sub.row(2).tolist() == [3]
        with pytest.raises(ValueError):
            m.take_rows([3])
        with pytest.raises(ValueError):
            m.take_rows([-1])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), matrix=_matrices)
    def test_take_rows_matches_row_oracle(self, data, matrix):
        # repeated, unordered and empty selections of possibly empty rows
        m, rows = matrix
        idx = data.draw(
            st.lists(st.integers(min_value=0, max_value=max(m.n_rows - 1, 0)),
                     max_size=12 if m.n_rows else 0)
        )
        sub = m.take_rows(idx)
        assert sub.shape == (len(idx), m.n_cols)
        assert sub.indices.dtype == sub.indptr.dtype == np.int32
        assert row_sets(sub) == [rows[i] for i in idx]
        for out_i, i in enumerate(idx):
            assert np.array_equal(sub.row(out_i), m.row(i))

    @settings(max_examples=60, deadline=None)
    @given(matrix=_matrices)
    def test_to_dense_matches_row_oracle(self, matrix):
        m, rows = matrix
        dense = m.to_dense()
        assert dense.shape == (len(rows), 6) and dense.dtype == np.float64
        for i, row in enumerate(rows):
            assert set(np.flatnonzero(dense[i]).tolist()) == row
        assert dense.sum() == m.nnz

    def test_widen(self):
        m = SparseBinaryMatrix.from_rows([[0], [1, 2]], n_cols=3)
        assert m.widen(3) is m
        wide = m.widen(5)
        assert wide.shape == (2, 5)
        assert np.array_equal(wide.to_dense()[:, :3], m.to_dense())
        assert not wide.to_dense()[:, 3:].any()
        with pytest.raises(ValueError):
            m.widen(2)


class TestStorage:
    """One set of index arrays per matrix, shared by every ``to_scipy()``."""

    def test_to_scipy_shares_index_arrays(self):
        m = random_sparse(np.random.default_rng(3), 30, 40, 0.2)
        assert m.indices.dtype == m.indptr.dtype == np.int32
        csr = m.to_scipy()
        assert np.shares_memory(csr.indices, m.indices)
        assert np.shares_memory(csr.indptr, m.indptr)
        assert np.array_equal(csr.data, np.ones(m.nnz))
        # a fresh CSR per call; nothing is cached on the matrix
        assert m.to_scipy() is not csr
        assert not hasattr(m, "_csr")

    def test_int32_input_kept_without_copy(self):
        indptr = np.array([0, 1, 3], dtype=np.int32)
        indices = np.array([4, 0, 2], dtype=np.int32)
        m = SparseBinaryMatrix(indptr, indices, 5)
        assert m.indptr.base is indptr and m.indices.base is indices

    def test_index_arrays_read_only(self):
        # the flag is set on the stored views, never on the caller's arrays
        indptr = np.array([0, 2, 3], dtype=np.int32)
        indices = np.array([1, 3, 0], dtype=np.int32)
        m = SparseBinaryMatrix(indptr, indices, 4)
        with pytest.raises(ValueError, match="read-only"):
            m.to_scipy().indices[0] = 2
        with pytest.raises(ValueError, match="read-only"):
            m.indptr[1] = 1
        with pytest.raises(ValueError, match="read-only"):
            m.row(0)[0] = 2
        assert m.row(0).tolist() == [1, 3]
        indices[0] = 2
        assert indptr.flags.writeable and indices.flags.writeable
        for built in (
            SparseBinaryMatrix.from_rows([[1, 3], [0]], 4),
            m.take_rows([1, 0]),
            m.widen(6),
        ):
            assert not built.indices.flags.writeable
            assert not built.indptr.flags.writeable

    def test_columns_past_int32_keep_int64(self):
        n_cols = 2**31 + 5
        m = SparseBinaryMatrix([0, 2, 3], [7, 2**31 + 3, 2**31 + 4], n_cols)
        assert m.indices.dtype == m.indptr.dtype == np.int64
        csr = m.to_scipy()
        assert csr.shape == (2, n_cols)
        assert np.shares_memory(csr.indices, m.indices)
        assert np.shares_memory(csr.indptr, m.indptr)
        sub = m.take_rows([1, 0])
        assert sub.indices.dtype == np.int64
        assert row_sets(sub) == [{2**31 + 4}, {7, 2**31 + 3}]

    def test_index_checked_before_narrowing(self):
        # 2**32 + 3 narrowed to int32 would read as column 3
        with pytest.raises(ValueError, match="n_cols"):
            SparseBinaryMatrix(
                np.array([0, 1], dtype=np.int64), np.array([2**32 + 3]), n_cols=10
            )
        with pytest.raises(ValueError, match="nnz"):
            SparseBinaryMatrix(np.array([0, 2**32 + 1]), np.array([3]), n_cols=10)


class TestColumnForm:
    """The CSR of the transpose, kept on a right operand of ``sparse_gram``."""

    def test_is_the_transpose_and_kept(self):
        rng = np.random.default_rng(5)
        m = random_sparse(rng, 30, 40, 0.2)
        columns = m._column_form()
        assert columns.shape == (40, 30)
        assert columns.indices.dtype == columns.indptr.dtype == m.indices.dtype
        assert np.array_equal(columns.toarray(), m.to_dense().T)
        assert m._column_form() is columns
        sparse_gram(random_sparse(rng, 5, 40, 0.2), m)
        assert m._column_form() is columns

    def test_arrays_read_only(self):
        columns = random_sparse(np.random.default_rng(6), 20, 30, 0.2)._column_form()
        for array in (columns.data, columns.indices, columns.indptr):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_left_operand_holds_none(self):
        rng = np.random.default_rng(7)
        a = random_sparse(rng, 10, 30, 0.2)
        sparse_gram(a, random_sparse(rng, 8, 30, 0.2))
        assert a._columns is None

    def test_threads_racing_to_build_agree(self):
        rng = np.random.default_rng(9)
        lefts = [random_sparse(rng, 6, 50, 0.2) for _ in range(8)]
        shared = random_sparse(rng, 40, 50, 0.2)
        expected = [sparse_gram(a, fresh_copy(shared)) for a in lefts]
        results = [None] * len(lefts)

        def work(i):
            results[i] = sparse_gram(lefts[i], shared)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)
        assert np.array_equal(shared._column_form().toarray(), shared.to_dense().T)

    def test_derived_matrices_build_their_own(self):
        # a widened or gathered matrix has another shape, so it never
        # reuses the column form of its source
        m = random_sparse(np.random.default_rng(8), 12, 20, 0.3)
        source = m._column_form()
        for derived in (m.widen(25), m.take_rows([3, 1, 1]), m.take_rows(range(12))):
            assert derived._columns is None
            columns = derived._column_form()
            assert columns is not source
            assert columns.shape == derived.shape[::-1]
            assert np.array_equal(columns.toarray(), derived.to_dense().T)


class TestGram:
    def test_known_small_case(self):
        a = SparseBinaryMatrix.from_rows([[0, 1, 2], [3]], n_cols=4)
        b = SparseBinaryMatrix.from_rows([[1, 2], [0, 3], []], n_cols=4)
        g = sparse_gram(a, b)
        expected = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(g, expected)

    def test_matches_set_intersection_oracle(self):
        rng = np.random.default_rng(4021)
        a = random_sparse(rng, 50, 200, 0.1)
        b = random_sparse(rng, 30, 200, 0.1)
        g = sparse_gram(a, b)
        sets_a = row_sets(a)
        sets_b = row_sets(b)
        for i in range(50):
            for j in range(30):
                assert g[i, j] == len(sets_a[i] & sets_b[j])

    def test_values_are_exact_integers(self):
        rng = np.random.default_rng(77)
        a = random_sparse(rng, 20, 500, 0.2)
        g = sparse_gram(a, a)
        assert np.array_equal(g, np.round(g))

    def test_self_gram_symmetric_with_count_diagonal(self):
        rng = np.random.default_rng(9)
        a = random_sparse(rng, 25, 100, 0.15)
        g = sparse_gram(a, a)
        np.testing.assert_array_equal(g, g.T)
        np.testing.assert_array_equal(np.diag(g), row_counts(a).astype(float))

    def test_column_mismatch_rejected(self):
        a = SparseBinaryMatrix.from_rows([[0]], n_cols=3)
        b = SparseBinaryMatrix.from_rows([[0]], n_cols=4)
        with pytest.raises(ValueError):
            sparse_gram(a, b)


def _with_index_dtype(csr, dtype):
    """``csr`` with index arrays of ``dtype``, set after construction, which
    would narrow them."""
    csr.indptr, csr.indices = csr.indptr.astype(dtype), csr.indices.astype(dtype)
    return csr


@st.composite
def _csr_matrices(draw, n_rows, n_cols):
    """A float64 CSR with empty rows, explicit zeros and cancelling values."""
    rows = [
        sorted(draw(st.sets(st.integers(0, n_cols - 1), max_size=n_cols)))
        if n_cols else []
        for _ in range(n_rows)
    ]
    value = st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.0]) | st.floats(-1e6, 1e6)
    data = [draw(value) for row in rows for _ in row]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = [j for row in rows for j in row]
    csr = sp.csr_matrix((np.array(data, dtype=np.float64), indices, indptr),
                        shape=(n_rows, n_cols))
    return _with_index_dtype(csr, draw(st.sampled_from([np.int32, np.int64])))


def _pattern(csr):
    """The nonzero pattern of ``csr`` as a binary matrix."""
    return SparseBinaryMatrix(csr.indptr, csr.indices, csr.shape[1])


class TestDenseProduct:
    """``_dense_product`` calls scipy's private product kernel; it must give
    the bytes of the public ``(a.to_scipy() @ b).toarray()``."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(0, 6), k=st.integers(0, 6), n=st.integers(0, 6))
    def test_matches_public_product_bytes(self, data, m, k, n):
        a = _pattern(data.draw(_csr_matrices(m, k)))
        b = data.draw(_csr_matrices(k, n))
        got, expected = _dense_product(a, b), (a.to_scipy() @ b).toarray()
        assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(0, 7), k=st.integers(0, 6), n=st.integers(0, 6),
           per_block=st.integers(1, 3))
    def test_row_blocks_keep_public_product_bytes(self, data, m, k, n, per_block):
        # a budget of ``per_block`` rows of three 8-byte slabs, so the
        # blocks are single rows, or end in a shorter block; rows may be
        # empty, and m or n may be 0
        a = _pattern(data.draw(_csr_matrices(m, k)))
        b = data.draw(_csr_matrices(k, n))
        blocks = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sparse, "_BLOCK_BUDGET_MB", (per_block + 0.5) * 24 * max(1, n) / 1e6)
            got = _dense_product(a, b, lambda block, rows: blocks.append(rows))
        expected = (a.to_scipy() @ b).toarray()
        assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
        assert got.tobytes() == expected.tobytes()
        assert blocks == [slice(lo, min(lo + per_block, m)) for lo in range(0, m, per_block)]

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_projection_with_wide_pattern_indices(self, dtype):
        rng = np.random.default_rng(12)
        x = random_sparse(rng, 40, 500, 0.05)
        p = _with_index_dtype(make_projection(500, 60, 0.1, 3).to_scipy(), dtype)
        assert _dense_product(x, p).tobytes() == (x.to_scipy() @ p).toarray().tobytes()

    def test_int64_scratch_from_the_int32_bound(self, monkeypatch):
        # a block's output row pointers reach its rows * n; from
        # _INT32_BOUND on, every index array the kernel sees is int64
        rng = np.random.default_rng(13)
        a = random_sparse(rng, 30, 50, 0.2)
        b = make_projection(50, 40, 0.2, 1).to_scipy()
        expected = (a.to_scipy() @ b).toarray()
        kernel, seen = _sparsetools.csr_matmat, []

        def recording(*args):
            seen.append({x.dtype for x in args[2:] if x.dtype.kind == "i"})
            return kernel(*args)

        monkeypatch.setattr(_sparsetools, "csr_matmat", recording)
        assert _dense_product(a, b).tobytes() == expected.tobytes()
        monkeypatch.setattr(sparse, "_INT32_BOUND", 30 * 40)  # one block of 30 rows
        assert _dense_product(a, b).tobytes() == expected.tobytes()
        assert seen == [{np.dtype(np.int32)}, {np.dtype(np.int64)}]


class TestRowCounts:
    def test_matches_direct_recount(self):
        rng = np.random.default_rng(311)
        a = random_sparse(rng, 40, 150, 0.12)
        counts = row_counts(a)
        expected = [len(a.row(i)) for i in range(a.n_rows)]
        assert counts.tolist() == expected

    def test_empty_rows(self):
        a = SparseBinaryMatrix.from_rows([[], [0], []], n_cols=2)
        assert row_counts(a).tolist() == [0, 1, 0]
        assert row_counts(a).dtype == a.indptr.dtype

