"""Tests for the sparse binary matrix type and its arithmetic."""

import collections.abc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srplearn.sparse import (
    SparseBinaryMatrix,
    row_counts,
    sparse_gram,
)


# row sets over 6 columns, empty rows included, as a matrix plus its rows
_matrices = st.lists(
    st.sets(st.integers(min_value=0, max_value=5), max_size=6), max_size=8
).map(lambda rows: (SparseBinaryMatrix.from_rows(map(sorted, rows), 6), rows))


def row_sets(m):
    """Rows of ``m`` as Python sets, the oracles' view of a matrix."""
    return [set(m.row(i).tolist()) for i in range(m.n_rows)]


def random_binary(rng, n_rows, n_cols, density):
    rows = []
    for _ in range(n_rows):
        mask = rng.random(n_cols) < density
        rows.append(np.flatnonzero(mask))
    return SparseBinaryMatrix.from_rows(rows, n_cols)


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
        m = random_binary(np.random.default_rng(3), 30, 40, 0.2)
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


class TestGram:
    def test_known_small_case(self):
        a = SparseBinaryMatrix.from_rows([[0, 1, 2], [3]], n_cols=4)
        b = SparseBinaryMatrix.from_rows([[1, 2], [0, 3], []], n_cols=4)
        g = sparse_gram(a, b)
        expected = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(g, expected)

    def test_matches_set_intersection_oracle(self):
        rng = np.random.default_rng(4021)
        a = random_binary(rng, 50, 200, 0.1)
        b = random_binary(rng, 30, 200, 0.1)
        g = sparse_gram(a, b)
        sets_a = row_sets(a)
        sets_b = row_sets(b)
        for i in range(50):
            for j in range(30):
                assert g[i, j] == len(sets_a[i] & sets_b[j])

    def test_values_are_exact_integers(self):
        rng = np.random.default_rng(77)
        a = random_binary(rng, 20, 500, 0.2)
        g = sparse_gram(a, a)
        assert np.array_equal(g, np.round(g))

    def test_self_gram_symmetric_with_count_diagonal(self):
        rng = np.random.default_rng(9)
        a = random_binary(rng, 25, 100, 0.15)
        g = sparse_gram(a, a)
        np.testing.assert_array_equal(g, g.T)
        np.testing.assert_array_equal(np.diag(g), row_counts(a).astype(float))

    def test_column_mismatch_rejected(self):
        a = SparseBinaryMatrix.from_rows([[0]], n_cols=3)
        b = SparseBinaryMatrix.from_rows([[0]], n_cols=4)
        with pytest.raises(ValueError):
            sparse_gram(a, b)


class TestRowCounts:
    def test_matches_direct_recount(self):
        rng = np.random.default_rng(311)
        a = random_binary(rng, 40, 150, 0.12)
        counts = row_counts(a)
        expected = [len(a.row(i)) for i in range(a.n_rows)]
        assert counts.tolist() == expected

    def test_empty_rows(self):
        a = SparseBinaryMatrix.from_rows([[], [0], []], n_cols=2)
        assert row_counts(a).tolist() == [0, 1, 0]
        assert row_counts(a).dtype == a.indptr.dtype

