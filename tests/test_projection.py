"""Tests for the ternary sparse random projection."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srplearn import projection, sparse
from srplearn.projection import (
    SparseProjection,
    apply_projection,
    default_density,
    derive_seed,
    make_projection,
    ternary_row,
)
from srplearn.sparse import SparseBinaryMatrix

from oracles import random_sparse, reference_row


ORACLE_SEEDS = [0, 5, -7, 2**63 + 5, 2**64 - 1]


def _budget_mb(draws):
    """A block budget of ``draws`` draws at 24 bytes each (the half byte
    keeps float rounding from losing one)."""
    return (24 * draws + 0.5) / 1e6


def _assert_matches_oracle(seed, input_dim, output_dim, density):
    P = make_projection(input_dim, output_dim, density, seed)
    magnitude = np.sqrt((1.0 / density) / output_dim)
    indptr = P.pattern.indptr
    for r in range(input_dim):
        cols, signs = reference_row(seed, r, output_dim, density)
        entries = slice(indptr[r], indptr[r + 1])
        assert P.pattern.indices[entries].tolist() == cols
        assert np.array_equal(P.values[entries], np.multiply(signs, magnitude))
        if r in {0, input_dim // 2, input_dim - 1}:
            c, s = ternary_row(seed, r, output_dim, density)
            assert c.tolist() == cols and s.tolist() == signs


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

    @pytest.mark.parametrize("density", [0.0, 1.5, float("nan")])
    def test_density_out_of_range_rejected(self, density):
        with pytest.raises(ValueError, match="density"):
            ternary_row(0, 0, 8, density)

    def test_density_one_gives_dense_signs(self):
        cols, signs = ternary_row(1, 0, 50, 1.0)
        assert cols.size == 50
        assert set(np.unique(signs)) <= {-1, 1}


class TestBlockGenerationMatchesPerRowStream:
    """Blocked, vectorized generation against the one-row reference."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize(
        "input_dim, output_dim, density",
        [
            (23, 5, 0.3),  # budget 19: 3 rows per block, last block partial
            (4, 40, 0.2),  # budget 38: one row per block
            (3, 9, 1.0),
            (1, 1, 1.0),
        ],
    )
    def test_small_blocks(self, monkeypatch, seed, input_dim, output_dim, density):
        monkeypatch.setattr(sparse, "_BLOCK_BUDGET_MB", _budget_mb(64))
        _assert_matches_oracle(seed, input_dim, output_dim, density)

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_default_block_size(self, seed):
        # three rows past the first block boundary
        per_block = sparse._block_rows(projection._draw_budget(16 * 0.05), 24)
        _assert_matches_oracle(seed, per_block + 3, 16, 0.05)

    def test_row_wider_than_default_block(self):
        _assert_matches_oracle(5, 3, (1 << 18) + 1, 1.0)

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
        old = sparse._BLOCK_BUDGET_MB
        sparse._BLOCK_BUDGET_MB = _budget_mb(block)
        try:
            _assert_matches_oracle(seed, input_dim, output_dim, density)
        finally:
            sparse._BLOCK_BUDGET_MB = old

    @pytest.mark.parametrize(
        "budget", [lambda mean: 1, lambda mean: int(mean)], ids=["one", "mean"]
    )
    def test_overrun_rows_are_extended_not_truncated(self, monkeypatch, budget):
        expected = make_projection(300, 64, 0.3, seed=4)
        monkeypatch.setattr(projection, "_draw_budget", budget)
        monkeypatch.setattr(sparse, "_BLOCK_BUDGET_MB", _budget_mb(64))
        got = make_projection(300, 64, 0.3, seed=4)
        if budget(64 * 0.3) == 1:
            # every row has an entry, so every row outruns its first pass
            assert np.all(np.diff(got.pattern.indptr) >= 1)
        for name in ("indptr", "indices"):
            a, b = getattr(got.pattern, name), getattr(expected.pattern, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.positive.tobytes() == expected.positive.tobytes()
        assert got.values.tobytes() == expected.values.tobytes()

    def test_negative_row_index_rejected(self):
        with pytest.raises(ValueError):
            ternary_row(0, -1, 8, 0.5)

    def test_distinct_high_seeds_give_distinct_rows(self):
        c1, s1 = ternary_row(2**63 + 1, 0, 64, 0.5)
        c2, s2 = ternary_row(2**63 + 1000, 0, 64, 0.5)
        assert not (np.array_equal(c1, c2) and np.array_equal(s1, s2))

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_any_64_bit_seed_without_warning(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = make_projection(6, 32, 0.5, seed)
            cols, _ = ternary_row(seed, 6, 32, 0.5)
        assert P.nnz > 0 and cols.size > 0

    def test_seed_taken_modulo_2_64(self):
        P = make_projection(5, 32, 0.5, -7)
        Q = make_projection(5, 32, 0.5, 2**64 - 7)
        assert P.pattern == Q.pattern
        assert np.array_equal(P.positive, Q.positive)


class TestStreamRates:
    @pytest.mark.parametrize("density", [0.002, 0.05, 0.3, 0.9])
    def test_pooled_over_seeds(self, density):
        # each entry is independently nonzero with probability ``density``
        # and positive with probability 1/2; column counts and the total are
        # binomial, their chi-square has mean d and variance about 2d
        n_rows, d, seeds = 2000, 50, range(100)
        counts = np.zeros(d)
        positive = 0
        for seed in seeds:
            P = make_projection(n_rows, d, density, seed)
            counts += np.bincount(P.pattern.indices, minlength=d)
            positive += int(np.sum(P.positive))
        trials = n_rows * len(seeds)
        z = (counts - trials * density) / np.sqrt(trials * density * (1 - density))
        nnz = counts.sum()
        assert abs(nnz - d * trials * density) < 4 * np.sqrt(
            d * trials * density * (1 - density)
        )
        assert abs(np.sum(z**2) - d) < 4 * np.sqrt(2 * d)
        assert abs(z[0]) < 4 and abs(z[-1]) < 4  # the ends of every row
        assert abs(positive - nnz / 2) < 4 * np.sqrt(nnz / 4)


def test_generation_stays_within_block_budget():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        P = make_projection(100000, 2000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(
        a.nbytes for a in (P.pattern.indptr, P.pattern.indices, P.positive, P.values)
    )
    # at most three 8-byte slabs of one block's draws, one block budget,
    # beyond the output; drawing every row at once needs about 49 MB at
    # this shape
    assert peak - before - output <= sparse._BLOCK_BUDGET_MB * 1e6


def test_apply_stays_within_one_block():
    # the product holds its result plus one row block's scratch arrays
    # and ones; in one piece it held 2.5 result slabs
    rng = np.random.default_rng(31)
    X = random_sparse(rng, 1000, 20000, 0.01)
    P = make_projection(20000, 2000, seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = apply_projection(X, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before - out.nbytes <= sparse._BLOCK_BUDGET_MB * 1e6


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
            "stream": 2,
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

    def test_signs_and_values_read_only(self):
        P = make_projection(50, 8, 0.3, seed=2)
        positive = np.array(P.positive)
        Q = SparseProjection(P.pattern, positive, P.density, P.seed)
        with pytest.raises(ValueError, match="read-only"):
            Q.to_scipy().data[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            Q.positive[0] = True
        with pytest.raises(ValueError, match="read-only"):
            Q.to_scipy().indices[0] = 0
        assert positive.flags.writeable

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
        X = random_sparse(rng, 25, 120, 0.1)
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
        A = random_sparse(rng, 10, 80, 0.1)
        B = random_sparse(rng, 6, 80, 0.1)
        P = make_projection(80, 12, 0.2, seed=1)
        FA = apply_projection(A, P)
        FB = apply_projection(B, P)
        both = SparseBinaryMatrix.from_rows(
            [A.row(i) for i in range(10)] + [B.row(i) for i in range(6)], 80
        )
        assert np.array_equal(apply_projection(both, P), np.vstack([FA, FB]))

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        X = random_sparse(rng, 4, 50, 0.1)
        P = make_projection(49, 5, 0.2, seed=0)
        with pytest.raises(ValueError):
            apply_projection(X, P)

    def test_unused_trailing_features_do_not_change_output(self):
        # a projection built for a wider input agrees bitwise on rows that
        # never touch the extra features; this is what makes separately
        # projected train/test files compatible
        rng = np.random.default_rng(4)
        X_narrow = random_sparse(rng, 8, 90, 0.1)
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
