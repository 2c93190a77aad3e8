"""Tests for the Newton-CG logistic regression baseline."""

import warnings

import numpy as np
import pytest

import oracles
from srplearn import logreg
from srplearn.exceptions import NumericalDivergenceError
from srplearn.ridge import default_lambda_grid
from srplearn.logreg import (
    _descend,
    _loss_grad,
    logreg_fit,
    logreg_predict,
    logreg_select_lambda,
)


def _make_problem(rng, n=60, p=8, noise=0.0):
    X = rng.standard_normal((n, p))
    w = rng.standard_normal(p)
    margin = X @ w + noise * rng.standard_normal(n)
    y = np.where(margin > 0, 1.0, -1.0)
    return X, y


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(0)
        X, y = _make_problem(rng, n=30, p=5)
        w = rng.standard_normal(5) * 0.3
        b = 0.17
        lam = 0.05
        loss, grad_w, grad_b = _loss_grad(X, y, w, b, lam)
        eps = 1e-6
        for j in range(5):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            num = (_loss_grad(X, y, wp, b, lam)[0] - _loss_grad(X, y, wm, b, lam)[0]) / (
                2 * eps
            )
            assert grad_w[j] == pytest.approx(num, rel=1e-5, abs=1e-9)
        num_b = (_loss_grad(X, y, w, b + eps, lam)[0] - _loss_grad(X, y, w, b - eps, lam)[0]) / (
            2 * eps
        )
        assert grad_b == pytest.approx(num_b, rel=1e-5, abs=1e-9)

    def test_intercept_not_penalized(self):
        rng = np.random.default_rng(1)
        X, y = _make_problem(rng, n=20, p=3)
        w = np.zeros(3)
        # at w = 0 the penalty contributes nothing to grad_b regardless of lam
        _, _, gb_small = _loss_grad(X, y, w, 2.0, 0.0)
        _, _, gb_large = _loss_grad(X, y, w, 2.0, 100.0)
        assert gb_small == gb_large


class TestFit:
    def test_loss_monotone_nonincreasing(self):
        rng = np.random.default_rng(2)
        X, y = _make_problem(rng, n=80, p=6)
        lam = 0.01
        model = logreg_fit(X, y, lam, max_iter=200, tol=1e-10)
        # re-walk the descent path and record the loss after every accepted
        # step by refitting with increasing iteration caps
        losses = []
        for cap in [0, 5, 20, 80, 200]:
            m = logreg_fit(X, y, lam, max_iter=cap, tol=1e-300)
            losses.append(_loss_grad(X, y, m.weights, m.intercept, lam)[0])
        assert np.all(np.diff(losses) <= 1e-12)
        assert np.all(np.isfinite(model.weights))

    def test_converges_on_easy_problem(self):
        rng = np.random.default_rng(3)
        X, y = _make_problem(rng, n=100, p=4)
        model = logreg_fit(X, y, 0.1, max_iter=2000, tol=1e-6)
        assert model.converged
        _, grad_w, grad_b = _loss_grad(X, y, model.weights, model.intercept, 0.1)
        assert max(np.max(np.abs(grad_w)), abs(grad_b)) < 1e-6

    def test_label_flip_antisymmetry_exact(self):
        rng = np.random.default_rng(4)
        X, y = _make_problem(rng, n=50, p=5)
        m_pos = logreg_fit(X, y, 0.05, max_iter=300, tol=1e-8)
        m_neg = logreg_fit(X, -y, 0.05, max_iter=300, tol=1e-8)
        assert np.array_equal(m_pos.weights, -m_neg.weights)
        assert m_pos.intercept == -m_neg.intercept

    def test_huge_penalty_shrinks_weights(self):
        rng = np.random.default_rng(5)
        X, y = _make_problem(rng, n=60, p=6)
        model = logreg_fit(X, y, 2.0**20, max_iter=500, tol=1e-8)
        assert np.linalg.norm(model.weights) < 1e-3

    def test_long_run_reaches_optimum_on_tiny_instance(self):
        # 2 points, 1 feature: the optimum is computable to high accuracy by
        # a fine golden-section style scan over the symmetric solution
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        lam = 0.25
        model = logreg_fit(X, y, lam, max_iter=20000, tol=1e-14)
        # by symmetry b = 0 and loss(w) = log(1 + exp(-w)) + lam/2 w^2
        ws = np.linspace(0.0, 5.0, 2000001)
        losses = np.logaddexp(0.0, -ws) + 0.5 * lam * ws * ws
        w_star = ws[np.argmin(losses)]
        got = _loss_grad(X, y, model.weights, model.intercept, lam)[0]
        best = np.logaddexp(0.0, -w_star) + 0.5 * lam * w_star * w_star
        assert got <= best + 1e-6

    def test_invalid_inputs(self):
        X = np.zeros((4, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            logreg_fit(X, y, -1.0)
        with pytest.raises(ValueError):
            logreg_fit(X, np.array([1.0, 0.0, 1.0, -1.0]), 0.1)
        with pytest.raises(ValueError):
            logreg_fit(X, y[:3], 0.1)


    def test_nan_penalty_rejected(self):
        X = np.zeros((4, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="penalty"):
            logreg_fit(X, y, np.nan)

    def test_infinite_penalty_rejected_like_the_grid(self):
        # refused by the penalty rule before any arithmetic, as the tuning
        # grid refuses it, not by a diverging first loss
        X = np.zeros((4, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="penalty must be finite"):
            logreg_fit(X, y, np.inf)
        with pytest.raises(ValueError, match="finite"):
            logreg_select_lambda(X, y, [1.0, np.inf])

    def test_nan_tol_rejected(self):
        # NaN compares false with every gradient norm, so a fit would run
        # to max_iter and report that it did not converge
        X = np.zeros((4, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="tol"):
            logreg_fit(X, y, 0.1, tol=np.nan)

    def test_infinite_tol_rejected(self):
        # every gradient is below an infinite tol, so a fit would return the
        # zero start flagged converged after 0 iterations
        X = np.zeros((4, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="tol must be finite"):
            logreg_fit(X, y, 0.1, tol=np.inf)
        with pytest.raises(ValueError, match="tol must be finite"):
            logreg_select_lambda(X, y, np.array([1.0]), tol=np.inf)


class TestSeparable:
    def test_zero_penalty_descends_without_warnings(self):
        # at lambda = 0 on separable rows the loss has no minimum: the
        # weights grow every iteration and the Hessian flattens along the
        # separating direction, yet no step may warn, overflow or raise the
        # loss, for a single fit and for a grid column alike
        X, y = _make_problem(np.random.default_rng(40), n=40, p=3)
        grid = np.array([0.0, 2.0**-10, 1.0])
        fit_losses, grid_losses = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for cap in [0, 3, 10, 30, 100]:
                model = logreg_fit(X, y, 0.0, max_iter=cap, tol=1e-300)
                W, b, _, _ = _descend(X, y, grid, cap, 1e-300)
                assert np.all(np.isfinite(model.weights)) and np.all(np.isfinite(W))
                fit_losses.append(_loss_grad(X, y, model.weights, model.intercept, 0.0)[0])
                grid_losses.append([_loss_grad(X, y, W[j], b[j], lam)[0]
                                    for j, lam in enumerate(grid)])
        assert np.all(np.diff(fit_losses) <= 1e-12)
        assert np.all(np.diff(grid_losses, axis=0) <= 1e-12)
        assert fit_losses[-1] < 1e-30  # the zero penalty's loss tends to 0


class TestDescend:
    """Each column of the grid descent takes the path of its own fit."""

    @staticmethod
    def _assert_columns_match_fits(X, y, grid, max_iter, tol):
        W, b, converged, iterations = _descend(X, y, grid, max_iter, tol)
        for j, lam in enumerate(grid):
            model = logreg_fit(X, y, lam, max_iter=max_iter, tol=tol)
            assert iterations[j] == model.iterations
            assert converged[j] == model.converged
            scale = max(np.max(np.abs(model.weights)), abs(model.intercept), 1e-300)
            assert np.max(np.abs(W[j] - model.weights)) <= 1e-10 * scale
            assert abs(b[j] - model.intercept) <= 1e-10 * scale
        return converged, iterations

    def test_grid_columns_match_single_fits(self):
        rng = np.random.default_rng(10)
        X, y = _make_problem(rng, n=80, p=6, noise=1.5)
        grid = np.array([0.0, 2.0**-8, 2.0**-2, 1.0, 2.0**4, 2.0**8])
        converged, iterations = self._assert_columns_match_fits(X, y, grid, 60, 1e-6)
        # the large penalties converge within the cap too, not only lambda <= 1
        assert np.all(converged) and np.all(iterations < 60)

    def test_converged_columns_are_stationary(self):
        # converged means a gradient below tol at the returned point,
        # recomputed here by the one-problem loss and gradient
        rng = np.random.default_rng(14)
        X, y = _make_problem(rng, n=80, p=6, noise=1.5)
        grid = 2.0 ** np.arange(-8, 21)
        tol = 1e-6
        W, b, converged, _ = _descend(X, y, grid, 200, tol)
        assert np.count_nonzero(converged) >= grid.size // 2
        for j in np.flatnonzero(converged):
            _, grad_w, grad_b = _loss_grad(X, y, W[j], b[j], grid[j])
            assert max(np.max(np.abs(grad_w)), abs(grad_b)) < tol

    def test_whole_default_grid_converges(self):
        # the plain gradient descent left 4 of these 41 columns at the cap;
        # Newton's iterations finish every one well inside it
        X, y = _make_problem(np.random.default_rng(16), n=60, p=150)
        grid = default_lambda_grid()
        _, _, converged, iterations = _descend(X, y, grid, 200, 1e-6)
        assert grid.size == 41
        assert np.all(converged) and np.all(iterations < 200)

    def test_very_large_penalties_converge(self):
        # the plain gradient descent ran 2^17 to the cap with its gradient
        # stuck just above tol, its loss changes below one ulp of the loss
        X, y = _make_problem(np.random.default_rng(20), n=80, p=6, noise=1.5)
        grid = 2.0 ** np.arange(10, 21)
        W, b, converged, iterations = _descend(X, y, grid, 500, 1e-6)
        assert np.all(converged) and np.all(iterations < 500)
        for j in range(grid.size):
            _, grad_w, grad_b = _loss_grad(X, y, W[j], b[j], grid[j])
            assert max(np.max(np.abs(grad_w)), abs(grad_b)) < 1e-6

    def test_every_round_counts_toward_the_cap(self):
        # a tol no gradient reaches: every column runs to the cap, reports
        # it, and ends at a loss no higher than at any smaller cap, also
        # past the few iterations after which its loss is flat to float64.
        # (A positive tol would not do: Newton's steps reach an exactly
        # zero gradient at lambda = 2^6.)
        X, y = _make_problem(np.random.default_rng(17), n=80, p=6, noise=1.5)
        grid = np.array([0.0, 2.0**-6, 1.0, 2.0**6, 2.0**18])
        caps = [0, 1, 2, 5, 10, 20, 30]
        losses = []
        for cap in caps:
            W, b, converged, iterations = _descend(X, y, grid, cap, 0.0)
            assert np.all(iterations == cap) and not np.any(converged)
            losses.append([_loss_grad(X, y, W[j], b[j], lam)[0]
                           for j, lam in enumerate(grid)])
        # the descent's own loss never rises; recomputed from the returned
        # weights, a change below one ulp of the loss may read as one ulp
        assert np.all(np.diff(losses, axis=0) <= 2e-16)

    def test_columns_converged_at_the_start(self):
        # the gradient at the zero start does not depend on the penalty, so
        # step-0 convergence holds for every column or none: rows repeated
        # with opposite labels have no gradient there
        A = np.random.default_rng(11).standard_normal((5, 3))
        X = np.vstack([A, A])
        y = np.concatenate([np.ones(5), -np.ones(5)])
        grid = np.array([0.0, 1.0, 2.0**6])
        converged, iterations = self._assert_columns_match_fits(X, y, grid, 50, 1e-6)
        assert np.all(converged) and np.all(iterations == 0)


class TestDivergence:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feature_raises(self, bad):
        rng = np.random.default_rng(13)
        X, y = _make_problem(rng, n=40, p=4)
        X[:, 2] = bad  # every row, so the tuning split's training part too
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalDivergenceError) as fit_err:
                logreg_fit(X, y, 0.1)
            with pytest.raises(NumericalDivergenceError) as select_err:
                logreg_select_lambda(X, y, np.array([0.0, 1.0]), seed=0)
        assert fit_err.value.iteration == 0
        assert select_err.value.iteration == 0


class TestPredict:
    def test_matches_sigmoid_recomputation(self):
        rng = np.random.default_rng(6)
        X, y = _make_problem(rng, n=40, p=4)
        model = logreg_fit(X, y, 0.1, max_iter=100)
        scores = logreg_predict(model, X)
        manual = 1.0 / (1.0 + np.exp(-(X @ model.weights + model.intercept)))
        assert np.allclose(scores, manual, atol=1e-12)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_scores_monotone_in_margin(self):
        rng = np.random.default_rng(7)
        X, y = _make_problem(rng, n=40, p=3)
        model = logreg_fit(X, y, 0.05, max_iter=200)
        margins = X @ model.weights + model.intercept
        scores = logreg_predict(model, X)
        order = np.argsort(margins)
        assert np.all(np.diff(scores[order]) >= 0.0)


class TestSelectLambda:
    def test_returns_grid_member_and_losses(self):
        rng = np.random.default_rng(8)
        X, y = _make_problem(rng, n=100, p=5, noise=0.5)
        grid = np.array([2.0**-8, 2.0**-2, 2.0**4])
        lam, losses = logreg_select_lambda(X, y, grid, seed=0, max_iter=200)
        assert lam in grid
        assert losses.shape == (3,)
        assert np.all(np.isfinite(losses))

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(9)
        X, y = _make_problem(rng, n=80, p=4, noise=0.3)
        grid = np.array([0.01, 1.0, 100.0])
        lam1, l1 = logreg_select_lambda(X, y, grid, seed=5)
        lam2, l2 = logreg_select_lambda(X, y, grid, seed=5)
        assert lam1 == lam2
        assert np.array_equal(l1, l2)

    def test_converged_flags_are_the_descents(self):
        rng = np.random.default_rng(15)
        X, y = _make_problem(rng, n=100, p=5, noise=0.5)
        grid = 2.0 ** np.arange(-8, 21, 4)
        converged = np.zeros(grid.size, dtype=bool)
        lam, losses = logreg_select_lambda(X, y, grid, seed=3, max_iter=4,
                                           converged=converged)
        # the same split as the selection: 20 of 100 rows held out
        train = np.random.default_rng(3).permutation(100)[20:]
        _, _, expected, _ = _descend(X[train], y[train], grid, 4, 1e-6)
        assert np.array_equal(converged, expected)
        assert 0 < np.count_nonzero(converged) < grid.size
        # the flags are an extra output: the selection itself is unchanged
        plain_lam, plain_losses = logreg_select_lambda(X, y, grid, seed=3, max_iter=4)
        assert lam == plain_lam and np.array_equal(losses, plain_losses)

    @pytest.mark.parametrize(
        "seed, n, p, noise",
        [(30, 100, 8, 1.0), (33, 60, 40, 0.2)],
        ids=["small", "near-separable"],
    )
    def test_matches_converged_reference(self, seed, n, p, noise):
        # every penalty's held-out loss within 1e-4 relative of the fit that
        # L-BFGS-B converges to a gradient of 1e-12, so the same penalty wins;
        # on the near-separable rows the small penalties' optima lie far out
        X, y = _make_problem(np.random.default_rng(seed), n=n, p=p, noise=noise)
        grid = default_lambda_grid()
        lam, losses = logreg_select_lambda(X, y, grid, seed=0, max_iter=500, tol=1e-9)
        # the same split as the selection: a fifth of the rows held out
        perm = np.random.default_rng(0).permutation(n)
        hold, train = perm[: round(n / 5)], perm[round(n / 5):]
        expected = np.empty(grid.size)
        for j, penalty in enumerate(grid):
            w, b = oracles.reference_logreg(X[train], y[train], penalty)
            expected[j] = np.logaddexp(0.0, -y[hold] * (X[hold] @ w + b)).mean()
        assert np.all(np.abs(losses - expected) <= 1e-4 * expected)
        assert lam == grid[np.argmin(expected)]

    def test_tie_prefers_larger_lambda(self):
        # constant features make every lambda fit the same trivial model
        X = np.zeros((20, 2))
        y = np.array([1.0, -1.0] * 10)
        grid = np.array([0.5, 8.0])
        lam, losses = logreg_select_lambda(X, y, grid, seed=0, max_iter=50)
        assert losses[0] == losses[1]
        assert lam == 8.0

    @pytest.mark.parametrize(
        "kwargs", [{"tol": 0.0}, {"max_iter": -1}, {"tol": np.nan}, {"max_iter": 2.5}]
    )
    def test_bad_stopping_rule_rejected(self, kwargs):
        X = np.zeros((20, 2))
        y = np.array([1.0, -1.0] * 10)
        with pytest.raises(ValueError):
            logreg_select_lambda(X, y, np.array([1.0]), seed=0, **kwargs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_grid_rejected_before_any_fit(self, monkeypatch, bad):
        # the grid is checked as ridge checks it, before the descent that
        # fits the whole grid starts
        def no_fit(*args, **kwargs):
            raise AssertionError("fit attempted")

        monkeypatch.setattr(logreg, "_descend", no_fit)
        X = np.zeros((20, 2))
        y = np.array([1.0, -1.0] * 10)
        with pytest.raises(ValueError, match="finite and >= 0"):
            logreg_select_lambda(X, y, np.array([1.0, bad]), seed=0)
