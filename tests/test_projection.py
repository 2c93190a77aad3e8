"""Tests for the ternary sparse random projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srplearn import projection
from srplearn.projection import (
    SparseProjection,
    apply_projection,
    default_density,
    derive_seed,
    make_projection,
    ternary_row,
)
from srplearn.sparse import SparseBinaryMatrix


def _random_sparse(rng, n_rows, n_cols, density):
    rows = []
    for _ in range(n_rows):
        mask = rng.random(n_cols) < density
        rows.append(np.flatnonzero(mask))
    return SparseBinaryMatrix.from_rows(rows, n_cols)


_MASK64 = (1 << 64) - 1
ORACLE_SEEDS = [0, 5, -7, 2**63 + 5, 2**64 - 1]
# numpy warns once per key list when a seed near 2**64 is rounded to float64
_cast_warning = pytest.mark.filterwarnings("ignore:invalid value encountered in cast")


def _per_row_oracle(seed, input_dim, output_dim, density):
    """The stream's definition: a fresh Philox generator for every row."""
    rows, cols, signs = [], [], []
    for i in range(input_dim):
        rng = np.random.Generator(
            np.random.Philox(key=[seed & _MASK64, i & _MASK64])
        )
        u_zero = rng.random(output_dim)
        u_sign = rng.random(output_dim)
        c = np.flatnonzero(u_zero < density)
        rows.append(np.full(c.size, i, dtype=np.int64))
        cols.append(c)
        signs.append(np.where(u_sign[c] < 0.5, 1.0, -1.0))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(signs)


def _assert_matches_oracle(seed, input_dim, output_dim, density):
    rows, cols, signs = _per_row_oracle(seed, input_dim, output_dim, density)
    P = make_projection(input_dim, output_dim, density, seed)
    magnitude = np.sqrt((1.0 / density) / output_dim)
    row_ids = np.repeat(np.arange(input_dim), np.diff(P.pattern.indptr))
    assert np.array_equal(row_ids, rows)
    assert np.array_equal(P.pattern.indices, cols)
    assert np.array_equal(P.values, signs * magnitude)
    for r in {0, input_dim // 2, input_dim - 1}:
        c, s = ternary_row(seed, r, output_dim, density)
        assert np.array_equal(c, cols[rows == r])
        assert np.array_equal(s, signs[rows == r])


class TestTernaryRow:
    def test_magnitude_exact(self):
        # every stored value is exactly +-sqrt(s/d), no rounding slack
        d, density = 128, 0.05
        expected = np.sqrt((1.0 / density) / d)
        cols, signs = ternary_row(3, 17, d, density)
        assert np.all(np.abs(signs.astype(float) * expected) == expected)
        assert set(np.unique(signs)) <= {-1, 1}
        assert np.all(np.diff(cols) > 0)

    def test_regeneration_identity(self):
        for seed, row in [(0, 0), (5, 123), (2**40, 7)]:
            c1, s1 = ternary_row(seed, row, 64, 0.1)
            c2, s2 = ternary_row(seed, row, 64, 0.1)
            assert np.array_equal(c1, c2)
            assert np.array_equal(s1, s2)

    def test_rows_independent_of_each_other(self):
        # row content depends only on (seed, row); other rows don't shift it
        c5, s5 = ternary_row(9, 5, 200, 0.2)
        c5b, s5b = ternary_row(9, 5, 200, 0.2)
        ternary_row(9, 4, 200, 0.2)  # generating a neighbour changes nothing
        assert np.array_equal(c5, c5b) and np.array_equal(s5, s5b)

    def test_distribution_matches_nominal_rates(self):
        # nonzero count ~ Binomial(d, density), signs ~ Binomial(nnz, 1/2);
        # pooled over many rows and checked within 4 sigma
        d, density, n_rows = 1000, 0.1, 300
        nnz = 0
        pos = 0
        for r in range(n_rows):
            cols, signs = ternary_row(11, r, d, density)
            nnz += cols.size
            pos += int(np.sum(signs > 0))
        total = d * n_rows
        sigma_nnz = np.sqrt(total * density * (1 - density))
        assert abs(nnz - total * density) < 4 * sigma_nnz
        sigma_sign = np.sqrt(nnz * 0.25)
        assert abs(pos - nnz / 2) < 4 * sigma_sign

    def test_density_one_gives_dense_signs(self):
        cols, signs = ternary_row(1, 0, 50, 1.0)
        assert cols.size == 50
        assert set(np.unique(signs)) <= {-1, 1}


@_cast_warning
class TestBlockGenerationMatchesPerRowStream:
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize(
        "input_dim, output_dim, density",
        [
            (23, 5, 0.3),  # 6 rows per block, last block partial
            (4, 40, 0.2),  # a row is wider than a block: one row per block
            (3, 9, 1.0),
            (1, 1, 1.0),
        ],
    )
    def test_small_blocks(self, monkeypatch, seed, input_dim, output_dim, density):
        monkeypatch.setattr(projection, "_BLOCK_DOUBLES", 64)
        _assert_matches_oracle(seed, input_dim, output_dim, density)

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_default_block_size(self, seed):
        # 8192 rows of width 16 fill a block; 8195 leaves a partial one
        _assert_matches_oracle(seed, 8195, 16, 0.05)

    def test_row_wider_than_default_block(self):
        _assert_matches_oracle(5, 3, (1 << 17) + 1, 0.01)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=-(2**63), max_value=2**64 - 1),
        input_dim=st.integers(min_value=1, max_value=30),
        output_dim=st.integers(min_value=1, max_value=40),
        density=st.floats(min_value=0.01, max_value=1.0),
        block=st.integers(min_value=1, max_value=200),
    )
    def test_property_any_seed_and_block(
        self, seed, input_dim, output_dim, density, block
    ):
        old = projection._BLOCK_DOUBLES
        projection._BLOCK_DOUBLES = block
        try:
            _assert_matches_oracle(seed, input_dim, output_dim, density)
        finally:
            projection._BLOCK_DOUBLES = old

    def test_negative_row_index_rejected(self):
        with pytest.raises(ValueError):
            ternary_row(0, -1, 8, 0.5)

    @pytest.mark.xfail(
        strict=True,
        reason="seeds >= 2**63 are rounded to float64 in the Philox key list",
    )
    def test_distinct_high_seeds_give_distinct_rows(self):
        c1, s1 = ternary_row(2**63 + 1, 0, 64, 0.5)
        c2, s2 = ternary_row(2**63 + 1000, 0, 64, 0.5)
        assert not (np.array_equal(c1, c2) and np.array_equal(s1, s2))


class TestDeriveSeed:
    def test_deterministic_and_stream_separated(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert derive_seed(42, 0) != derive_seed(42, 1)
        assert derive_seed(42, 0) != derive_seed(43, 0)

    def test_negative_seed_accepted(self):
        assert derive_seed(-1, 2) == derive_seed(-1, 2)


class TestDefaultDensity:
    def test_inverse_square_root(self):
        assert default_density(10000) == 0.01
        assert default_density(1) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_density(0)


class TestMakeProjection:
    def test_metadata_round_trip(self):
        P = make_projection(500, 20, 0.05, seed=3)
        meta = P.metadata()
        assert meta == {
            "input_dim": 500,
            "output_dim": 20,
            "density": 0.05,
            "seed": 3,
        }

    def test_same_seed_same_matrix(self):
        P1 = make_projection(300, 10, 0.1, seed=8)
        P2 = make_projection(300, 10, 0.1, seed=8)
        assert P1.pattern == P2.pattern
        assert np.array_equal(P1.values, P2.values)

    def test_to_scipy_shares_pattern_and_values(self):
        # the pattern's index arrays and the values are the only copy
        P = make_projection(20000, 1000, seed=0)
        csr = P.to_scipy()
        assert P.pattern.indices.dtype == np.int32
        assert np.shares_memory(csr.indices, P.pattern.indices)
        assert np.shares_memory(csr.indptr, P.pattern.indptr)
        assert np.shares_memory(csr.data, P.values)
        assert P.to_scipy() is not csr
        assert not hasattr(P, "_csr")

    def test_row_slice_matches_ternary_row(self):
        P = make_projection(40, 16, 0.2, seed=5)
        dense = P.to_dense()
        for r in [0, 7, 39]:
            cols, signs = ternary_row(5, r, 16, 0.2)
            expected = np.zeros(16)
            expected[cols] = signs * np.sqrt((1.0 / 0.2) / 16)
            assert np.array_equal(dense[r], expected)

    def test_magnitude_100_features_density_001(self):
        # s = 100, d = 100 makes the nonzero magnitude exactly 1
        P = make_projection(200, 100, 0.01, seed=0)
        if P.values.size:
            assert np.all(np.abs(P.values) == 1.0)

    def test_density_one_gives_s_one(self):
        P = make_projection(30, 9, 1.0, seed=2)
        assert P.s == 1.0
        assert P.values.size == 30 * 9
        assert np.all(np.abs(P.values) == np.sqrt(1.0 / 9))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_projection(0, 10, 0.1, 0)
        with pytest.raises(ValueError):
            make_projection(10, 0, 0.1, 0)
        with pytest.raises(ValueError):
            make_projection(10, 10, 0.0, 0)
        with pytest.raises(ValueError):
            make_projection(10, 10, 1.5, 0)


class TestApplyProjection:
    def test_matches_dense_matmul_sparse_input(self):
        rng = np.random.default_rng(0)
        X = _random_sparse(rng, 25, 120, 0.1)
        P = make_projection(120, 15, 0.15, seed=4)
        got = apply_projection(X, P)
        expected = X.to_dense() @ P.to_dense()
        assert got.shape == (25, 15)
        assert np.allclose(got, expected, atol=1e-10)

    def test_matches_dense_matmul_dense_input(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((12, 60))
        P = make_projection(60, 8, 0.2, seed=9)
        got = apply_projection(X, P)
        assert np.allclose(got, X @ P.to_dense(), atol=1e-10)

    def test_zero_rows(self):
        P = make_projection(60, 8, 0.2, seed=9)
        for X in (SparseBinaryMatrix([0], [], 60), np.zeros((0, 60))):
            got = apply_projection(X, P)
            assert got.shape == (0, 8) and got.dtype == np.float64

    def test_linear_in_rows(self):
        # projecting stacked inputs equals stacking projected blocks
        rng = np.random.default_rng(2)
        A = _random_sparse(rng, 10, 80, 0.1)
        B = _random_sparse(rng, 6, 80, 0.1)
        P = make_projection(80, 12, 0.2, seed=1)
        FA = apply_projection(A, P)
        FB = apply_projection(B, P)
        both = SparseBinaryMatrix.from_rows(
            [A.row(i) for i in range(10)] + [B.row(i) for i in range(6)], 80
        )
        assert np.array_equal(apply_projection(both, P), np.vstack([FA, FB]))

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        X = _random_sparse(rng, 4, 50, 0.1)
        P = make_projection(49, 5, 0.2, seed=0)
        with pytest.raises(ValueError):
            apply_projection(X, P)

    def test_unused_trailing_features_do_not_change_output(self):
        # a projection built for a wider input agrees bitwise on rows that
        # never touch the extra features; this is what makes separately
        # projected train/test files compatible
        rng = np.random.default_rng(4)
        X_narrow = _random_sparse(rng, 8, 90, 0.1)
        X_wide = SparseBinaryMatrix(X_narrow.indptr, X_narrow.indices, 100)
        P_narrow = make_projection(90, 11, 0.07, seed=6)
        P_wide = make_projection(100, 11, 0.07, seed=6)
        assert np.array_equal(
            apply_projection(X_narrow, P_narrow), apply_projection(X_wide, P_wide)
        )


class TestProjectionValidation:
    def test_rejects_unsorted_entries(self):
        # the pattern's own constructor rejects triplets out of (row, col) order
        P = make_projection(20, 5, 0.5, seed=1)
        rows = np.repeat(np.arange(P.input_dim), np.diff(P.pattern.indptr))
        assert rows.size >= 2
        rows, cols = rows[::-1], P.pattern.indices[::-1]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=20))))
        with pytest.raises(ValueError):
            SparseProjection(
                SparseBinaryMatrix(indptr, cols, P.output_dim),
                P.positive[::-1], P.density, P.seed,
            )

    def test_rejects_sign_count_mismatch(self):
        P = make_projection(20, 5, 0.5, seed=1)
        with pytest.raises(ValueError, match="one sign per stored entry"):
            SparseProjection(P.pattern, P.positive[:-1], P.density, P.seed)


class TestMeanOverSeeds:
    def test_entry_mean_near_zero(self):
        # E[P_ij] = 0; average one fixed entry across many seeds
        d, density = 10, 0.5
        vals = []
        for seed in range(400):
            P = make_projection(3, d, density, seed)
            dense = P.to_dense()
            vals.append(dense[1, 4])
        mean = np.mean(vals)
        # per-entry variance is s/d * density = 1/d
        sigma = np.sqrt((1.0 / d) / len(vals))
        assert abs(mean) < 4 * sigma
