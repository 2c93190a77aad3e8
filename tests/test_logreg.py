"""Tests for the gradient-descent logistic regression baseline."""

import numpy as np
import pytest

from srplearn import logreg
from srplearn.logreg import (
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

    def test_tie_prefers_larger_lambda(self):
        # constant features make every lambda fit the same trivial model
        X = np.zeros((20, 2))
        y = np.array([1.0, -1.0] * 10)
        grid = np.array([0.5, 8.0])
        lam, losses = logreg_select_lambda(X, y, grid, seed=0, max_iter=50)
        assert losses[0] == losses[1]
        assert lam == 8.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_grid_rejected_before_any_fit(self, monkeypatch, bad):
        # the grid is checked as ridge checks it; a non-finite entry used to
        # end in a divergence error, a negative one only when it was reached
        def no_fit(*args, **kwargs):
            raise AssertionError("fit attempted")

        monkeypatch.setattr(logreg, "logreg_fit", no_fit)
        X = np.zeros((20, 2))
        y = np.array([1.0, -1.0] * 10)
        with pytest.raises(ValueError, match="finite and >= 0"):
            logreg_select_lambda(X, y, np.array([1.0, bad]), seed=0)
