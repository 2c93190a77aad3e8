"""Tests for ELM, RVFL, and RBF random feature models."""

import warnings

import numpy as np
import pytest

from srplearn.distance import KIND_JACCARD, KIND_SQEUCLIDEAN
from srplearn.elm import (
    elm_bias,
    elm_fit,
    elm_hidden,
    model_predict,
    rbf_fit,
    rvfl_fit,
)
from srplearn.metrics import roc_auc
from srplearn.projection import default_density, make_projection, ternary_row
from srplearn.ridge import default_lambda_grid
from srplearn.sparse import SparseBinaryMatrix


def _random_sparse(rng, n_rows, n_cols, density):
    rows = [np.flatnonzero(rng.random(n_cols) < density) for _ in range(n_rows)]
    return SparseBinaryMatrix.from_rows(rows, n_cols)


def _separable_data(rng, n, n_cols=400, gap=40):
    """Two classes using mostly disjoint active feature blocks."""
    rows = []
    labels = []
    for i in range(n):
        label = 1 if i % 2 == 0 else -1
        base = 0 if label > 0 else gap
        active = base + rng.choice(gap, size=8, replace=False)
        extra = 2 * gap + rng.choice(n_cols - 2 * gap, size=4, replace=False)
        rows.append(np.union1d(active, extra))
        labels.append(label)
    X = SparseBinaryMatrix.from_rows(rows, n_cols)
    return X, np.array(labels, dtype=np.float64)


class TestHiddenLayer:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        X = _random_sparse(rng, 12, 100, 0.1)
        W = make_projection(100, 9, 0.2, seed=3)
        bias = elm_bias(100, 9, 0.2, seed=3)
        expected = np.tanh(X.to_dense() @ W.to_dense() + bias)
        assert np.allclose(elm_hidden(X, W, bias), expected, atol=1e-10)

    def test_values_within_open_interval_on_moderate_inputs(self):
        rng = np.random.default_rng(1)
        X = _random_sparse(rng, 20, 200, 0.05)
        W = make_projection(200, 16, 0.1, seed=5)
        bias = elm_bias(200, 16, 0.1, seed=5)
        H = elm_hidden(X, W, bias)
        assert np.all(H > -1.0) and np.all(H < 1.0)

    def test_bias_is_extra_projection_row(self):
        # the bias vector reuses the ternary generator at row index D
        cols, signs = ternary_row(7, 50, 6, 0.4)
        expected = np.zeros(6)
        expected[cols] = signs * np.sqrt((1.0 / 0.4) / 6)
        assert np.array_equal(elm_bias(50, 6, 0.4, 7), expected)


class TestElmFit:
    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X, y = _separable_data(rng, 60)
        m1 = elm_fit(X, y, 32, seed=9)
        m2 = elm_fit(X, y, 32, seed=9)
        assert np.array_equal(m1.solution.beta, m2.solution.beta)
        s1 = model_predict(m1, X)
        s2 = model_predict(m2, X)
        assert np.array_equal(s1, s2)

    def test_default_density_is_resolved_by_make_projection(self):
        rng = np.random.default_rng(2)
        X, y = _separable_data(rng, 60)
        implicit = elm_fit(X, y, 32, seed=9)
        explicit = elm_fit(X, y, 32, default_density(X.n_cols), seed=9)
        assert implicit.W.density == explicit.W.density == default_density(X.n_cols)
        assert np.array_equal(implicit.W.to_dense(), explicit.W.to_dense())
        assert np.array_equal(implicit.bias, explicit.bias)

    def test_separable_task_high_auc(self):
        rng = np.random.default_rng(3)
        X, y = _separable_data(rng, 200)
        X_test, y_test = _separable_data(rng, 100)
        model = elm_fit(X, y, 128, seed=0)
        auc = roc_auc(model_predict(model, X_test), y_test)
        assert auc > 0.99

    def test_constant_labels_fit_as_regression(self):
        # a single-class target is a legal ridge problem; predictions are
        # finite and lean toward the constant
        rng = np.random.default_rng(4)
        X = _random_sparse(rng, 10, 50, 0.1)
        model = elm_fit(X, np.ones(10), 8)
        scores = model_predict(model, X)
        assert np.all(np.isfinite(scores))
        with pytest.raises(ValueError):
            elm_fit(X, np.zeros(10), 8)  # 0 is not a legal label

    def test_label_values_checked(self):
        rng = np.random.default_rng(5)
        X = _random_sparse(rng, 6, 30, 0.1)
        with pytest.raises(ValueError):
            elm_fit(X, np.array([1, -1, 2, 1, -1, 1], dtype=float), 4)

    def test_dense_input_supported(self):
        rng = np.random.default_rng(6)
        F = rng.standard_normal((40, 20))
        y = np.where(F[:, 0] > 0, 1.0, -1.0)
        model = elm_fit(F, y, 16, seed=1)
        scores = model_predict(model, F)
        assert scores.shape == (40,)

    def test_batch_split_prediction_identical(self):
        rng = np.random.default_rng(7)
        X, y = _separable_data(rng, 50)
        model = elm_fit(X, y, 24, seed=2)
        full = model_predict(model, X)
        parts = np.concatenate(
            [model_predict(model, X.take_rows(np.arange(0, 25))),
             model_predict(model, X.take_rows(np.arange(25, 50)))]
        )
        assert np.allclose(full, parts, atol=1e-10)


class TestRvfl:
    def test_beta_width_includes_linear_branch(self):
        rng = np.random.default_rng(8)
        X, y = _separable_data(rng, 40)
        model = rvfl_fit(X, y, 16, d_lin=5, seed=0)
        assert model.solution.beta.shape[0] == 16 + 5
        assert model.linear_part is not None
        assert model.linear_part.output_dim == 5

    def test_zero_linear_width_rejected(self):
        rng = np.random.default_rng(9)
        X, y = _separable_data(rng, 20)
        with pytest.raises(ValueError):
            rvfl_fit(X, y, 8, d_lin=0)

    def test_rvfl_not_worse_on_linear_task(self):
        # when the target is a linear function of the inputs, the linear
        # branch should help more often than not across seeds
        rng = np.random.default_rng(10)
        wins = 0
        trials = 40
        for t in range(trials):
            F = rng.standard_normal((60, 30))
            w = rng.standard_normal(30)
            y = np.where(F @ w > 0, 1.0, -1.0)
            elm = elm_fit(F, y, 12, seed=t)
            rvfl = rvfl_fit(F, y, 12, d_lin=12, seed=t)
            if rvfl.solution.press_value <= elm.solution.press_value:
                wins += 1
        assert wins >= int(0.8 * trials)

    def test_prediction_uses_both_branches(self):
        rng = np.random.default_rng(11)
        X, y = _separable_data(rng, 30)
        model = rvfl_fit(X, y, 8, d_lin=4, seed=3)
        scores = model_predict(model, X)
        assert scores.shape == (30,)
        assert np.all(np.isfinite(scores))


class TestRbf:
    def test_centroid_response_is_one(self):
        # H at a row equal to a centroid has exp(0) = 1 in that column
        rng = np.random.default_rng(12)
        F = rng.standard_normal((20, 5))
        y = np.where(F[:, 0] > 0, 1.0, -1.0)
        model = rbf_fit(F, y, 6, KIND_SQEUCLIDEAN, seed=4)
        from srplearn.elm import _squared_distances

        d2 = _squared_distances(model.centroids, model.centroids, KIND_SQEUCLIDEAN)
        H = np.exp(-model.gammas[None, :] * d2)
        assert np.allclose(np.diag(H), 1.0, atol=1e-12)

    def test_gammas_positive_and_seeded(self):
        rng = np.random.default_rng(13)
        F = rng.standard_normal((30, 4))
        y = np.where(F[:, 0] > 0, 1.0, -1.0)
        m1 = rbf_fit(F, y, 8, KIND_SQEUCLIDEAN, seed=5)
        m2 = rbf_fit(F, y, 8, KIND_SQEUCLIDEAN, seed=5)
        assert np.all(m1.gammas > 0)
        assert np.array_equal(m1.gammas, m2.gammas)
        assert np.array_equal(m1.centroids, m2.centroids)

    def test_jaccard_variant_on_sparse_rows(self):
        rng = np.random.default_rng(14)
        X, y = _separable_data(rng, 120)
        X_test, y_test = _separable_data(rng, 60)
        model = rbf_fit(X, y, 60, KIND_JACCARD, seed=6)
        auc = roc_auc(model_predict(model, X_test), y_test)
        assert auc > 0.9

    def test_jaccard_requires_sparse(self):
        rng = np.random.default_rng(15)
        F = rng.standard_normal((10, 3))
        y = np.where(F[:, 0] > 0, 1.0, -1.0)
        with pytest.raises(TypeError):
            rbf_fit(F, y, 4, KIND_JACCARD)

    def test_too_many_centroids_rejected(self):
        rng = np.random.default_rng(16)
        F = rng.standard_normal((5, 3))
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            rbf_fit(F, y, 6, KIND_SQEUCLIDEAN)

    def test_coincident_centroids_warn_and_fit(self):
        X = SparseBinaryMatrix.from_rows([[0, 1]] * 4 + [[2, 3]] * 2, 6)
        y = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
        rng = np.random.default_rng(17)
        # seeds where both sampled centroids are the duplicated row exist;
        # search for one to exercise the zero-median fallback
        hit = False
        for seed in range(200):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                model = rbf_fit(X, y, 2, KIND_JACCARD, seed=seed)
            if any("coincide" in str(w.message) for w in caught):
                hit = True
                assert np.all(np.isfinite(model.gammas))
                break
        assert hit

    def test_single_centroid_no_warning(self):
        rng = np.random.default_rng(18)
        F = rng.standard_normal((10, 3))
        y = np.where(F[:, 0] > 0, 1.0, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rbf_fit(F, y, 1, KIND_SQEUCLIDEAN, seed=0)

    def test_large_gamma_locality(self):
        # responses decay with distance from the centroid
        centroid = np.zeros((1, 2))
        near = np.array([[0.1, 0.0]])
        far = np.array([[3.0, 0.0]])
        from srplearn.elm import _squared_distances

        gamma = 5.0
        h_near = np.exp(-gamma * _squared_distances(near, centroid, KIND_SQEUCLIDEAN))
        h_far = np.exp(-gamma * _squared_distances(far, centroid, KIND_SQEUCLIDEAN))
        assert h_near > h_far
