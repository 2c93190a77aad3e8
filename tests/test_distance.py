"""Tests for exact Jaccard and squared Euclidean distance matrices."""

import tracemalloc

import numpy as np
import pytest

from srplearn import distance, sparse
from srplearn.distance import (
    DistanceMatrix,
    distance_matrix,
    jaccard_distance_matrix,
    squared_euclidean_distance_matrix,
)
from srplearn.kernel import KERNEL_JACCARD, kernel_matrix
from srplearn.sparse import SparseBinaryMatrix

from oracles import jaccard, random_sparse, squared_distances


class TestJaccard:
    def test_known_small_case(self):
        A = SparseBinaryMatrix.from_rows([[0, 1, 2], [3]], 5)
        B = SparseBinaryMatrix.from_rows([[0, 1], [2, 3, 4]], 5)
        D = jaccard_distance_matrix(A, B)
        # row0 vs col0: |{0,1}|/|{0,1,2}| -> 1 - 2/3
        expected = np.array([[1 - 2 / 3, 1 - 1 / 5], [1.0, 1 - 1 / 3]])
        assert np.allclose(D.values, expected, atol=1e-15)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n_a = rng.integers(1, 40)
            n_b = rng.integers(1, 40)
            n_cols = rng.integers(5, 30)
            density = rng.uniform(0.05, 0.3)
            A = random_sparse(rng, n_a, n_cols, density)
            B = random_sparse(rng, n_b, n_cols, density)
            D = jaccard_distance_matrix(A, B)
            assert np.max(np.abs(D.values - jaccard(A, B))) < 1e-12

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(7)
        A = random_sparse(rng, 20, 40, 0.15)
        D = jaccard_distance_matrix(A, A).values
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D)[np.asarray([r.size > 0 for r in map(A.row, range(20))])] == 0.0)

    def test_range(self):
        rng = np.random.default_rng(8)
        A = random_sparse(rng, 30, 25, 0.2)
        B = random_sparse(rng, 10, 25, 0.2)
        D = jaccard_distance_matrix(A, B).values
        assert np.all(D >= 0.0) and np.all(D <= 1.0)

    def test_empty_row_conventions(self):
        A = SparseBinaryMatrix.from_rows([[], [0, 1]], 4)
        B = SparseBinaryMatrix.from_rows([[], [2]], 4)
        D = jaccard_distance_matrix(A, B).values
        assert D[0, 0] == 0.0  # two empty sets count as identical
        assert D[0, 1] == 1.0  # empty vs nonempty is maximal
        assert D[1, 0] == 1.0

    def test_triangle_inequality_sampled(self):
        # Jaccard distance is a metric; spot-check random triples
        rng = np.random.default_rng(9)
        A = random_sparse(rng, 25, 30, 0.2)
        D = jaccard_distance_matrix(A, A).values
        for _ in range(200):
            i, j, k = rng.integers(0, 25, size=3)
            assert D[i, j] <= D[i, k] + D[k, j] + 1e-12

    def test_column_mismatch_rejected(self):
        A = SparseBinaryMatrix.from_rows([[0]], 3)
        B = SparseBinaryMatrix.from_rows([[0]], 4)
        with pytest.raises(ValueError):
            jaccard_distance_matrix(A, B)


@pytest.mark.parametrize(
    "pairwise", [jaccard_distance_matrix, squared_euclidean_distance_matrix]
)
def test_block_size_does_not_change_values(monkeypatch, pairwise):
    rng = np.random.default_rng(10)
    A = random_sparse(rng, 40, 60, 0.1)
    B = random_sparse(rng, 35, 60, 0.1)
    monkeypatch.setattr(sparse, "_BLOCK_BUDGET_MB", 1024.0)
    full = pairwise(A, B).values
    # budget small enough to split A into blocks: 10000 bytes over three
    # 8-byte slabs of B's 35 columns is 11 rows, so 4 blocks of A, the
    # last one shorter
    monkeypatch.setattr(sparse, "_BLOCK_BUDGET_MB", 0.01)
    blocks = []
    for name in ("_jaccard", "_sqeuclidean"):
        combine = getattr(distance, name)
        monkeypatch.setattr(
            distance, name,
            lambda g, a, b, combine=combine: blocks.append(g.shape[0]) or combine(g, a, b),
        )
    tiny = pairwise(A, B).values
    assert blocks == [11, 11, 11, 7]
    assert np.array_equal(full, tiny)


@pytest.mark.parametrize(
    "pairwise", [jaccard_distance_matrix, squared_euclidean_distance_matrix]
)
def test_blocks_stay_within_budget(monkeypatch, pairwise):
    # every pair intersects, so each block's count product is fully dense
    rng = np.random.default_rng(12)
    A = random_sparse(rng, 1000, 500, 0.2)
    B = random_sparse(rng, 4000, 500, 0.2)
    # B's kept column form outlives the call, so it is not an intermediate
    # of the blocks: build it before the window
    columns = B._column_form()
    kept = columns.data.nbytes + columns.indices.nbytes
    assert kept <= 12 * B.nnz
    assert columns.indptr.nbytes <= 8 * (B.n_cols + 1)
    monkeypatch.setattr(sparse, "_BLOCK_BUDGET_MB", 4.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        D = pairwise(A, B).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before - D.nbytes <= 4.0e6


class TestSquaredEuclidean:
    def test_sparse_exact_integers(self):
        # for binary rows the squared distance is the symmetric difference
        A = SparseBinaryMatrix.from_rows([[0, 1], [2]], 4)
        B = SparseBinaryMatrix.from_rows([[1, 2], [0, 1, 2, 3]], 4)
        D = squared_euclidean_distance_matrix(A, B)
        assert np.array_equal(D.values, np.array([[2.0, 2.0], [1.0, 3.0]]))

    def test_sparse_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        A = random_sparse(rng, 15, 20, 0.2)
        B = random_sparse(rng, 12, 20, 0.2)
        D = squared_euclidean_distance_matrix(A, B).values
        assert np.array_equal(D, squared_distances(A.to_dense(), B.to_dense()))

    def test_dense_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((10, 6))
        B = rng.standard_normal((8, 6))
        D = squared_euclidean_distance_matrix(A, B).values
        assert np.allclose(D, squared_distances(A, B), atol=1e-10)
        assert np.all(D >= 0.0)

    def test_dense_never_negative_even_for_near_duplicates(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((5, 40)) * 1e4
        B = A + 1e-9
        D = squared_euclidean_distance_matrix(A, B).values
        assert np.all(D >= 0.0)

    def test_mixed_types_rejected(self):
        A = SparseBinaryMatrix.from_rows([[0]], 3)
        with pytest.raises(TypeError):
            squared_euclidean_distance_matrix(A, np.zeros((2, 3)))


class TestDistanceMatrix:
    def test_values_must_be_2d(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.zeros(3))


class TestDistanceMatrixByRowType:
    def test_sparse_rows_get_jaccard(self):
        rng = np.random.default_rng(14)
        A = random_sparse(rng, 9, 30, 0.2)
        B = random_sparse(rng, 7, 30, 0.2)
        D = distance_matrix(A, B).values
        assert D.tobytes() == jaccard_distance_matrix(A, B).values.tobytes()

    def test_dense_rows_get_squared_euclidean(self):
        rng = np.random.default_rng(15)
        A = rng.standard_normal((9, 30))
        B = rng.standard_normal((7, 30))
        D = distance_matrix(A, B).values
        assert D.tobytes() == squared_euclidean_distance_matrix(A, B).values.tobytes()

    @pytest.mark.parametrize("sparse_first", [True, False])
    def test_mixed_operands_rejected(self, sparse_first):
        S = SparseBinaryMatrix.from_rows([[0], [1, 2]], 3)
        F = np.zeros((2, 3))
        with pytest.raises(TypeError):
            distance_matrix(*((S, F) if sparse_first else (F, S)))


_DENSE = np.eye(4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: jaccard_distance_matrix(_DENSE, _DENSE),
        lambda: kernel_matrix(KERNEL_JACCARD, _DENSE, _DENSE),
    ],
    ids=["jaccard_distance_matrix", "kernel_matrix"],
)
def test_jaccard_of_dense_rows_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()
