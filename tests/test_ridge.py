"""Tests for the PRESS leave-one-out ridge solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srplearn.exceptions import DegenerateFitError
from srplearn.ridge import _spectral_press, default_lambda_grid, solve_ridge_press

from oracles import ridge_loo_sse


def _press_curve(H, Y, grid):
    """PRESS at each grid value, via single-lambda solves."""
    return np.array(
        [solve_ridge_press(H, Y, np.array([lam])).press_value for lam in grid]
    )


class TestGrid:
    def test_default_grid_is_41_powers_of_two(self):
        grid = default_lambda_grid()
        assert grid.shape == (41,)
        assert grid[0] == 2.0**-20
        assert grid[-1] == 2.0**20
        assert np.all(np.diff(np.log2(grid)) == 1.0)

    def test_custom_range(self):
        grid = default_lambda_grid(-2, 2)
        assert np.array_equal(grid, [0.25, 0.5, 1.0, 2.0, 4.0])


class TestPressAgainstExplicitLoo:
    def test_matches_retraining_on_random_instances(self):
        rng = np.random.default_rng(0)
        grid = default_lambda_grid()
        # 12 x 30 has more features than samples: the dual path
        for shape in [(20, 5), (12, 30)]:
            for trial in range(20):
                H = rng.standard_normal(shape)
                Y = rng.standard_normal((shape[0], 1))
                for lam in grid[:: 8]:
                    sol = solve_ridge_press(H, Y, np.array([lam]))
                    explicit = ridge_loo_sse(H, Y, lam)
                    assert sol.press_value == pytest.approx(explicit, rel=1e-8)

    def test_multi_output_targets(self):
        rng = np.random.default_rng(1)
        H = rng.standard_normal((15, 4))
        Y = rng.standard_normal((15, 3))
        for lam in [1e-3, 1.0, 100.0]:
            sol = solve_ridge_press(H, Y, np.array([lam]))
            assert sol.press_value == pytest.approx(
                ridge_loo_sse(H, Y, lam), rel=1e-8
            )


class TestPrimalAgainstDual:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=25),
        p=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_same_penalty_press_and_beta(self, n, p, k, seed):
        # H'H and HH' share their nonzero spectrum, so both forms of the
        # core must select alike whichever way H is shaped.  The form whose
        # Gram is singular loses about eps * max(w) / lambda: up to 7e-8
        # relative PRESS on these shapes at the default grid's 2^-20, below
        # 2e-11 from 2^-8 up.
        rng = np.random.default_rng(seed)
        H = rng.standard_normal((n, p))
        Y = rng.standard_normal((n, k))
        grid = default_lambda_grid(-8, 8)
        lam_p, press_p, beta = _spectral_press(H.T @ H, Y, grid, H)
        lam_d, press_d, alpha = _spectral_press(H @ H.T, Y, grid)
        assert lam_p == lam_d
        assert press_d == pytest.approx(press_p, rel=1e-10)
        assert np.linalg.norm(H.T @ alpha - beta) <= 1e-8 * np.linalg.norm(beta)


class TestSolution:
    def test_normal_equation_residual(self):
        rng = np.random.default_rng(2)
        for n, p in [(50, 10), (200, 40), (500, 30)]:
            H = rng.standard_normal((n, p))
            Y = rng.standard_normal((n, 2))
            sol = solve_ridge_press(H, Y, np.array([0.5]))
            lhs = (H.T @ H + 0.5 * np.eye(p)) @ sol.beta
            rhs = H.T @ Y
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))

    def test_shrinkage_monotone_in_lambda(self):
        rng = np.random.default_rng(3)
        H = rng.standard_normal((60, 12))
        Y = rng.standard_normal((60, 1))
        norms = []
        for lam in default_lambda_grid(-10, 10):
            sol = solve_ridge_press(H, Y, np.array([lam]))
            norms.append(np.linalg.norm(sol.beta))
        assert np.all(np.diff(norms) <= 1e-12)

    def test_orthonormal_lambda_zero_recovers_projection(self):
        # H with orthonormal columns and lam = 0 gives beta = H^T Y
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.standard_normal((30, 6)))
        Y = rng.standard_normal((30, 2))
        sol = solve_ridge_press(Q, Y, np.array([0.0]))
        assert np.allclose(sol.beta, Q.T @ Y, atol=1e-10)

    def test_selected_lambda_minimizes_grid(self):
        rng = np.random.default_rng(5)
        H = rng.standard_normal((40, 8))
        w_true = rng.standard_normal((8, 1))
        Y = H @ w_true + 0.1 * rng.standard_normal((40, 1))
        grid = default_lambda_grid(-10, 10)
        sol = solve_ridge_press(H, Y, grid)
        curve = _press_curve(H, Y, grid)
        assert sol.press_value == np.min(curve)
        assert sol.lam in grid


class TestTiesAndDegeneracy:
    def test_exact_tie_prefers_larger_lambda(self):
        # a target of zeros makes PRESS identically 0 for every lambda
        H = np.eye(4)
        Y = np.zeros((4, 1))
        grid = np.array([0.25, 4.0])
        sol = solve_ridge_press(H, Y, grid)
        assert sol.lam == 4.0

    def test_all_infinite_press_raises(self):
        # a single sample gives leverage 1 at lambda 0, PRESS infinite
        H = np.ones((1, 1))
        Y = np.ones((1, 1))
        with pytest.raises(DegenerateFitError):
            solve_ridge_press(H, Y, np.array([0.0]))

    def test_input_validation(self):
        H = np.zeros((3, 2))
        Y = np.zeros((3, 1))
        with pytest.raises(ValueError):
            solve_ridge_press(H, Y, np.array([]))
        with pytest.raises(ValueError):
            solve_ridge_press(H, Y, np.array([-1.0]))
        with pytest.raises(ValueError):
            solve_ridge_press(H, np.zeros((4, 1)), np.array([1.0]))

    def test_one_dimensional_target_allowed(self):
        rng = np.random.default_rng(6)
        H = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        flat = solve_ridge_press(H, y, np.array([1.0]))
        col = solve_ridge_press(H, y[:, None], np.array([1.0]))
        assert np.array_equal(flat.beta, col.beta)
