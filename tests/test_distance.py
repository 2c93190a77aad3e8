"""Tests for exact Jaccard and squared Euclidean distance matrices."""

import tracemalloc

import numpy as np
import pytest

from srplearn import distance
from srplearn.distance import (
    KIND_JACCARD,
    KIND_SQEUCLIDEAN,
    KINDS,
    DistanceMatrix,
    distance_matrix,
    jaccard_distance_matrix,
    squared_euclidean_distance_matrix,
)
from srplearn.elm import rbf_fit
from srplearn.kernel import KERNEL_JACCARD, kernel_matrix
from srplearn.sparse import SparseBinaryMatrix


def _random_sparse(rng, n_rows, n_cols, density):
    rows = [np.flatnonzero(rng.random(n_cols) < density) for _ in range(n_rows)]
    return SparseBinaryMatrix.from_rows(rows, n_cols)


def _jaccard_oracle(A, B):
    """Per-pair set enumeration, the slow reference."""
    out = np.zeros((A.n_rows, B.n_rows))
    sets_a = [set(A.row(i).tolist()) for i in range(A.n_rows)]
    sets_b = [set(B.row(j).tolist()) for j in range(B.n_rows)]
    for i, sa in enumerate(sets_a):
        for j, sb in enumerate(sets_b):
            union = len(sa | sb)
            if union == 0:
                out[i, j] = 0.0
            else:
                out[i, j] = 1.0 - len(sa & sb) / union
    return out


class TestJaccard:
    def test_known_small_case(self):
        A = SparseBinaryMatrix.from_rows([[0, 1, 2], [3]], 5)
        B = SparseBinaryMatrix.from_rows([[0, 1], [2, 3, 4]], 5)
        D = jaccard_distance_matrix(A, B)
        # row0 vs col0: |{0,1}|/|{0,1,2}| -> 1 - 2/3
        expected = np.array([[1 - 2 / 3, 1 - 1 / 5], [1.0, 1 - 1 / 3]])
        assert D.kind == KIND_JACCARD
        assert np.allclose(D.values, expected, atol=1e-15)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n_a = rng.integers(1, 40)
            n_b = rng.integers(1, 40)
            n_cols = rng.integers(5, 30)
            density = rng.uniform(0.05, 0.3)
            A = _random_sparse(rng, n_a, n_cols, density)
            B = _random_sparse(rng, n_b, n_cols, density)
            D = jaccard_distance_matrix(A, B)
            assert np.max(np.abs(D.values - _jaccard_oracle(A, B))) < 1e-12

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(7)
        A = _random_sparse(rng, 20, 40, 0.15)
        D = jaccard_distance_matrix(A, A).values
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D)[np.asarray([r.size > 0 for r in map(A.row, range(20))])] == 0.0)

    def test_range(self):
        rng = np.random.default_rng(8)
        A = _random_sparse(rng, 30, 25, 0.2)
        B = _random_sparse(rng, 10, 25, 0.2)
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
        A = _random_sparse(rng, 25, 30, 0.2)
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
    A = _random_sparse(rng, 40, 60, 0.1)
    B = _random_sparse(rng, 35, 60, 0.1)
    monkeypatch.setattr(distance, "_BLOCK_BUDGET_MB", 1024.0)
    full = pairwise(A, B).values
    # budget small enough to force many blocks of B
    monkeypatch.setattr(distance, "_BLOCK_BUDGET_MB", 0.01)
    tiny = pairwise(A, B).values
    assert np.array_equal(full, tiny)


@pytest.mark.parametrize(
    "pairwise", [jaccard_distance_matrix, squared_euclidean_distance_matrix]
)
def test_blocks_stay_within_budget(monkeypatch, pairwise):
    # every pair intersects, so each block's count product is fully dense
    rng = np.random.default_rng(12)
    A = _random_sparse(rng, 1000, 500, 0.2)
    B = _random_sparse(rng, 4000, 500, 0.2)
    # the operands' cached CSR forms are not intermediates of the blocks
    A.to_scipy(), B.to_scipy()
    monkeypatch.setattr(distance, "_BLOCK_BUDGET_MB", 4.0)
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
        assert D.kind == KIND_SQEUCLIDEAN
        assert np.array_equal(D.values, np.array([[2.0, 2.0], [1.0, 3.0]]))

    def test_sparse_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        A = _random_sparse(rng, 15, 20, 0.2)
        B = _random_sparse(rng, 12, 20, 0.2)
        D = squared_euclidean_distance_matrix(A, B).values
        da, db = A.to_dense(), B.to_dense()
        oracle = ((da[:, None, :] - db[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(D, oracle)

    def test_dense_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((10, 6))
        B = rng.standard_normal((8, 6))
        D = squared_euclidean_distance_matrix(A, B).values
        oracle = np.zeros((10, 8))
        for i in range(10):
            for j in range(8):
                diff = A[i] - B[j]
                oracle[i, j] = diff @ diff
        assert np.allclose(D, oracle, atol=1e-10)
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
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.zeros((2, 2)), "chebyshev")

    def test_values_must_be_2d(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.zeros(3), KIND_JACCARD)


class TestDistanceMatrixByKind:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_named_function(self, kind):
        rng = np.random.default_rng(14)
        A = _random_sparse(rng, 9, 30, 0.2)
        B = _random_sparse(rng, 7, 30, 0.2)
        named = {
            KIND_JACCARD: jaccard_distance_matrix,
            KIND_SQEUCLIDEAN: squared_euclidean_distance_matrix,
        }[kind]
        D = distance_matrix(kind, A, B)
        assert D.kind == kind
        assert np.array_equal(D.values, named(A, B).values)

    def test_unknown_kind_rejected(self):
        A = SparseBinaryMatrix.from_rows([[0]], 3)
        with pytest.raises(ValueError):
            distance_matrix("chebyshev", A, A)


_DENSE = np.eye(4)
_LABELS = np.array([1.0, -1.0, 1.0, -1.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: jaccard_distance_matrix(_DENSE, _DENSE),
        lambda: kernel_matrix(KERNEL_JACCARD, _DENSE, _DENSE),
        lambda: rbf_fit(_DENSE, _LABELS, 2, KIND_JACCARD),
        lambda: distance_matrix(KIND_JACCARD, _DENSE, _DENSE),
    ],
    ids=["jaccard_distance_matrix", "kernel_matrix", "rbf_fit", "distance_matrix"],
)
def test_jaccard_of_dense_rows_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()
