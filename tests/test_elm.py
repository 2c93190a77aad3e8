"""Tests for ELM, RVFL, and RBF random feature models."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srplearn import sparse
from srplearn.distance import _jaccard, distance_matrix, jaccard_distance_matrix
from srplearn.elm import (
    ElmModel,
    RbfModel,
    elm_bias,
    elm_fit,
    elm_hidden,
    model_predict,
    rbf_centroid_indices,
    rbf_fit,
    rvfl_fit,
)
from srplearn.kernel import KERNEL_JACCARD, kernel_matrix
from srplearn.metrics import roc_auc
from srplearn.projection import default_density, make_projection, ternary_row
from srplearn.ridge import RidgeSolution, default_lambda_grid
from srplearn.sparse import SparseBinaryMatrix

from oracles import fresh_copy, random_sparse


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
        X = random_sparse(rng, 12, 100, 0.1)
        W = make_projection(100, 9, 0.2, seed=3)
        bias = elm_bias(100, 9, 0.2, seed=3)
        expected = np.tanh(X.to_dense() @ W.to_dense() + bias)
        assert np.allclose(elm_hidden(X, W, bias), expected, atol=1e-10)

    def test_values_within_open_interval_on_moderate_inputs(self):
        rng = np.random.default_rng(1)
        X = random_sparse(rng, 20, 200, 0.05)
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
        X = random_sparse(rng, 10, 50, 0.1)
        model = elm_fit(X, np.ones(10), 8)
        scores = model_predict(model, X)
        assert np.all(np.isfinite(scores))
        with pytest.raises(ValueError):
            elm_fit(X, np.zeros(10), 8)  # 0 is not a legal label

    def test_label_values_checked(self):
        rng = np.random.default_rng(5)
        X = random_sparse(rng, 6, 30, 0.1)
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
        assert full.tobytes() == parts.tobytes()


class TestBiasDerived:
    """A model's hidden bias is derived from its projection, never given."""

    @pytest.mark.parametrize("fit", [elm_fit, rvfl_fit])
    def test_fitted_bias_is_elm_bias_of_w(self, fit):
        rng = np.random.default_rng(20)
        X, y = _separable_data(rng, 30)
        model = fit(X, y, 12, seed=4)
        W = model.W
        expected = elm_bias(W.input_dim, W.output_dim, W.density, W.seed)
        assert np.array_equal(model.bias, expected)

    def test_model_built_from_parts_derives_bias(self):
        rng = np.random.default_rng(21)
        X, y = _separable_data(rng, 30)
        model = elm_fit(X, y, 12, seed=4)
        rebuilt = ElmModel(model.W, model.linear_part, model.solution)
        assert np.array_equal(rebuilt.bias, model.bias)
        assert np.array_equal(model_predict(rebuilt, X), model_predict(model, X))


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
        model = rbf_fit(F, y, 6, seed=4)
        from srplearn.elm import _squared_distances

        d2 = _squared_distances(model.centroids, model.centroids)
        H = np.exp(-model.gammas[None, :] * d2)
        assert np.allclose(np.diag(H), 1.0, atol=1e-12)

    def test_gammas_positive_and_seeded(self):
        rng = np.random.default_rng(13)
        F = rng.standard_normal((30, 4))
        y = np.where(F[:, 0] > 0, 1.0, -1.0)
        m1 = rbf_fit(F, y, 8, seed=5)
        m2 = rbf_fit(F, y, 8, seed=5)
        assert np.all(m1.gammas > 0)
        assert np.array_equal(m1.gammas, m2.gammas)
        assert np.array_equal(m1.centroids, m2.centroids)

    @pytest.mark.parametrize(
        "gammas", [[np.nan, 1.0], [np.inf, 1.0], [0.0, 1.0], [-1.0, 1.0]]
    )
    def test_widths_must_be_finite_and_positive(self, gammas):
        solution = RidgeSolution(np.zeros((2, 1)), 1.0, 0.0, np.array([1.0]))
        with pytest.raises(ValueError):
            RbfModel(np.zeros((2, 3)), gammas, solution)

    def test_jaccard_variant_on_sparse_rows(self):
        rng = np.random.default_rng(14)
        X, y = _separable_data(rng, 120)
        X_test, y_test = _separable_data(rng, 60)
        model = rbf_fit(X, y, 60, seed=6)
        auc = roc_auc(model_predict(model, X_test), y_test)
        assert auc > 0.9

    def test_jaccard_batches_match_fresh_centroids(self):
        # the centroids keep their column form from fit to every batch
        rng = np.random.default_rng(19)
        X, y = _separable_data(rng, 80)
        model = rbf_fit(X, y, 20, seed=7)
        for _ in range(3):
            batch, _ = _separable_data(rng, 12)
            fresh = RbfModel(
                fresh_copy(model.centroids),
                model.gammas, model.solution, model.seed,
            )
            expected = model_predict(fresh, batch)
            assert model_predict(model, batch).tobytes() == expected.tobytes()

    def test_jaccard_requires_sparse(self):
        # sparse centroids measure by Jaccard, which dense rows cannot give
        rng = np.random.default_rng(15)
        X, y = _separable_data(rng, 20)
        model = rbf_fit(X, y, 4, seed=0)
        with pytest.raises(TypeError):
            model_predict(model, X.to_dense())

    def test_too_many_centroids_rejected(self):
        rng = np.random.default_rng(16)
        F = rng.standard_normal((5, 3))
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            rbf_fit(F, y, 6)

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
                model = rbf_fit(X, y, 2, seed=seed)
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
            rbf_fit(F, y, 1, seed=0)

    def test_large_gamma_locality(self):
        # responses decay with distance from the centroid
        centroid = np.zeros((1, 2))
        near = np.array([[0.1, 0.0]])
        far = np.array([[3.0, 0.0]])
        from srplearn.elm import _squared_distances

        gamma = 5.0
        h_near = np.exp(-gamma * _squared_distances(near, centroid))
        h_far = np.exp(-gamma * _squared_distances(far, centroid))
        assert h_near > h_far


class TestRbfFromDistances:
    """``rbf_fit`` and ``model_predict`` on precomputed distances: the
    training rows' pairwise ones, and the new rows' to the centroids."""

    @staticmethod
    def _both_paths(X, y, X_new, L, seed, to_centroids):
        grid = 2.0 ** np.arange(-8, 9)
        by_rows = rbf_fit(X, y, L, seed, grid)
        given = rbf_fit(X, y, L, seed, grid, distances=distance_matrix(X, X))
        scores = model_predict(by_rows, X_new)
        idx = rbf_centroid_indices(X.shape[0], L, seed)
        given_scores = model_predict(given, X_new, distances=to_centroids[:, idx])
        return by_rows, given, scores, given_scores

    def test_sparse_rows_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(50)
        X, y = _separable_data(rng, 70)
        X_new, _ = _separable_data(rng, 45)
        # the harness's form: Jaccard distances as 1 - K
        to_train = 1.0 - kernel_matrix(KERNEL_JACCARD, X_new, X)
        by_rows, given, scores, given_scores = self._both_paths(
            X, y, X_new, 30, 9, to_train
        )
        assert given.solution.lam == by_rows.solution.lam
        assert given.solution.press_value == by_rows.solution.press_value
        assert given.solution.beta.tobytes() == by_rows.solution.beta.tobytes()
        assert given.gammas.tobytes() == by_rows.gammas.tobytes()
        assert given_scores.tobytes() == scores.tobytes()
        # blocks of 4 rows change no bit of the distances path either
        idx = rbf_centroid_indices(70, 30, 9)
        monkeypatch.setattr(sparse, "_BLOCK_BUDGET_MB", 4.5 * 8 * 30 / 1e6)
        blocked = model_predict(given, X_new, distances=to_train[:, idx])
        assert blocked.tobytes() == scores.tobytes()

    def test_dense_rows_agree(self):
        rng = np.random.default_rng(51)
        F = rng.standard_normal((60, 12))
        y = np.where(F[:, 0] + 0.3 * F[:, 1] > 0, 1.0, -1.0)
        F_new = rng.standard_normal((40, 12))
        to_train = distance_matrix(F_new, F).values
        by_rows, given, scores, given_scores = self._both_paths(
            F, y, F_new, 25, 3, to_train
        )
        assert given.solution.lam == by_rows.solution.lam
        assert np.max(np.abs(given_scores - scores)) <= 1e-12 * np.max(np.abs(scores))

    def test_centroids_are_the_picked_rows(self):
        rng = np.random.default_rng(52)
        F = rng.standard_normal((30, 4))
        y = np.where(F[:, 0] > 0, 1.0, -1.0)
        model = rbf_fit(F, y, 8, seed=5)
        assert np.array_equal(model.centroids, F[rbf_centroid_indices(30, 8, 5)])
        with pytest.raises(ValueError):
            rbf_centroid_indices(5, 6, 0)

    def test_given_distances_not_changed(self):
        rng = np.random.default_rng(53)
        F = rng.standard_normal((20, 5))
        y = np.where(F[:, 0] > 0, 1.0, -1.0)
        D = distance_matrix(F, F).values
        kept = D.copy()
        model = rbf_fit(F, y, 20, seed=1, distances=D)
        model_predict(model, F, distances=D[:, rbf_centroid_indices(20, 20, 1)])
        assert np.array_equal(D, kept)

    def test_misshapen_or_misapplied_distances_rejected(self):
        rng = np.random.default_rng(54)
        X, y = _separable_data(rng, 30)
        D = jaccard_distance_matrix(X, X)
        with pytest.raises(ValueError, match="distances must be 30 x 30"):
            rbf_fit(X, y, 10, distances=D.values[:, :10])
        model = rbf_fit(X, y, 10, distances=D)
        with pytest.raises(ValueError, match="distances must be 30 x 10"):
            model_predict(model, X, distances=D)
        with pytest.raises(TypeError):
            model_predict(model, X.to_dense(), distances=D.values[:, :10])
        with pytest.raises(TypeError):
            model_predict(elm_fit(X, y, 8), X, distances=D.values[:, :10])


def _jaccard_from_counts(g, a, b):
    """``_jaccard`` on count triples (intersection, |row a|, |row b|)."""
    slab = np.array(g, dtype=np.float64)
    _jaccard(slab, np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    return slab


class TestJaccardThroughKernel:
    """Jaccard distances taken back from the kernel, 1 - (1 - D), are D."""

    def test_every_count_triple_to_64(self):
        # rows: every (|a|, g) with g <= |a| <= 64; columns: |b| = 0..64
        a, g = np.array([(a, g) for a in range(65) for g in range(a + 1)], dtype=float).T
        b = np.arange(65, dtype=np.float64)
        D = _jaccard_from_counts(np.broadcast_to(g[:, None], (a.size, b.size)),
                                 a[:, None], b[None, :])
        valid = g[:, None] <= b[None, :]
        assert np.array_equal((1.0 - (1.0 - D))[valid], D[valid])

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 10**7), st.integers(0, 10**7), st.floats(0.0, 1.0))
    def test_large_counts(self, a, b, share):
        g = np.floor(share * min(a, b))
        D = _jaccard_from_counts([[g]], [[a]], [[b]])
        assert 0.0 <= D[0, 0] <= 1.0
        assert 1.0 - (1.0 - D[0, 0]) == D[0, 0]


class TestBlockedPrediction:
    """``model_predict`` scores rows in blocks sized from the block budget."""

    @staticmethod
    def _models(rng):
        X, y = _separable_data(rng, 60)
        F = rng.standard_normal((60, 30))
        return [
            (elm_fit(X, y, 24, seed=1), X),
            (rvfl_fit(X, y, 16, seed=2), X),
            (rbf_fit(X, y, 20, seed=3), X),
            (elm_fit(F, y, 24, seed=5), F),
            (rvfl_fit(F, y, 16, seed=6), F),
        ]

    @pytest.mark.parametrize("per_block", [1, 7])
    def test_blocks_change_no_bit(self, monkeypatch, per_block):
        # single rows, then blocks of 7 rows ending in a shorter one
        rng = np.random.default_rng(40)
        for model, X in self._models(rng):
            width = model.solution.beta.shape[0]
            one_block = model_predict(model, X)
            monkeypatch.setattr(sparse, "_BLOCK_BUDGET_MB", (per_block + 0.5) * 8 * width / 1e6)
            blocked = model_predict(model, X)
            monkeypatch.undo()
            assert blocked.tobytes() == one_block.tobytes()

    def test_elm_holds_one_design_block(self):
        # 2000 rows at width 1000 are a 16 MB design; one 4 MB block of it
        # is held, with the product that builds it holding one more budget
        rng = np.random.default_rng(41)
        X_fit, y = _separable_data(rng, 100, n_cols=2000)
        X = random_sparse(rng, 2000, 2000, 0.01)
        model = elm_fit(X_fit, y, 1000, seed=8)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scores = model_predict(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.shape == (2000,)
        assert peak - before - scores.nbytes <= 2 * sparse._BLOCK_BUDGET_MB * 1e6
