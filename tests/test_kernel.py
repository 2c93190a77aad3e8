"""Tests for kernel ridge regression and k nearest neighbours."""

import numpy as np
import pytest

from srplearn import sparse
from srplearn.distance import jaccard_distance_matrix
from srplearn.exceptions import DegenerateFitError
from srplearn.kernel import (
    KERNEL_JACCARD,
    kernel_matrix,
    knn_predict,
    krr_fit,
    krr_predict,
    krr_predict_kernel,
)
from srplearn.ridge import default_lambda_grid

from oracles import fresh_copy, knn_scores, krr_loo_sse, random_sparse


def _jaccard_krr(rng, n_train=40, n_cols=60):
    X = random_sparse(rng, n_train, n_cols, 0.15)
    y = np.where(np.arange(n_train) % 2 == 0, 1.0, -1.0)
    K = kernel_matrix(KERNEL_JACCARD, X, X)
    return krr_fit(K, y, default_lambda_grid(-4, 4), KERNEL_JACCARD, X)


class TestKernelMatrix:
    def test_jaccard_similarity_complements_distance(self):
        rng = np.random.default_rng(1)
        A = random_sparse(rng, 10, 30, 0.2)
        B = random_sparse(rng, 7, 30, 0.2)
        K = kernel_matrix(KERNEL_JACCARD, A, B)
        D = jaccard_distance_matrix(A, B).values
        assert np.array_equal(K, 1.0 - D)

    def test_jaccard_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(2)
        A = random_sparse(rng, 12, 25, 0.25)
        K = kernel_matrix(KERNEL_JACCARD, A, A)
        assert np.array_equal(K, K.T)
        nonempty = np.array([A.row(i).size > 0 for i in range(12)])
        assert np.all(np.diag(K)[nonempty] == 1.0)

    def test_jaccard_requires_sparse(self):
        with pytest.raises(TypeError):
            kernel_matrix(KERNEL_JACCARD, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            kernel_matrix("poly", np.zeros((2, 2)), np.zeros((2, 2)))


class TestKrr:
    def test_identity_kernel_closed_form(self):
        # K = I makes alpha = y / (1 + lam) exactly
        n = 6
        y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        model = krr_fit(np.eye(n), y, np.array([2.0]))
        assert np.allclose(model.alpha, y / 3.0, atol=1e-12)
        assert model.lam == 2.0

    def test_solves_regularized_system(self):
        rng = np.random.default_rng(3)
        for n in [10, 50, 200]:
            F = rng.standard_normal((n, 7))
            K = F @ F.T
            y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
            if np.all(y == y[0]):
                y[0] = -y[0]
            for lam in [1e-4, 1.0, 1e3]:
                model = krr_fit(K, y, np.array([lam]))
                resid = (K + lam * np.eye(n)) @ model.alpha - y
                assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(y))

    def test_interpolation_at_tiny_lambda(self):
        rng = np.random.default_rng(4)
        n = 15
        F = rng.standard_normal((n, n))  # full-rank gram
        K = F @ F.T
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        y[0] = 1.0
        y[1] = -1.0
        model = krr_fit(K, y, np.array([1e-12]))
        fitted = K @ model.alpha
        assert np.allclose(fitted, y, atol=1e-6)

    def test_loo_matches_explicit_retraining(self):
        rng = np.random.default_rng(5)
        n = 12
        F = rng.standard_normal((n, 20))
        K = F @ F.T
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        lam = 0.7
        model = krr_fit(K, y, np.array([lam]))
        assert model.press_value == pytest.approx(krr_loo_sse(K, y, lam), rel=1e-8)

    def test_grid_selection_prefers_larger_lambda_on_tie(self):
        y = np.zeros(4)
        y[0], y[1] = 1.0, -1.0
        # zero targets would be degenerate labels; use symmetric +-1 pairs
        y = np.array([1.0, -1.0, 1.0, -1.0])
        K = np.eye(4)
        # with K = I, PRESS is identical for all lambda by symmetry of the
        # formula only when residuals scale equally; just assert a valid pick
        model = krr_fit(K, y, np.array([0.5, 2.0]))
        assert model.lam in (0.5, 2.0)

    def test_asymmetric_kernel_rejected(self):
        K = np.eye(3)
        K[0, 1] = 1e-3
        with pytest.raises(ValueError):
            krr_fit(K, np.array([1.0, -1.0, 1.0]), np.array([1.0]))

    def test_rounding_asymmetry_at_large_scale_accepted(self):
        # a kernel at scale 7e8 computed as a matrix product can differ
        # from its transpose by an ulp of its largest entries (~1.2e-7)
        rng = np.random.default_rng(11)
        F = rng.standard_normal((6, 6))
        K = F @ F.T
        K *= 7e8 / np.max(np.abs(K))
        K[0, 1] = np.nextafter(K[0, 1], np.inf)
        assert np.max(np.abs(K - K.T)) > 1e-8
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, 1.0])
        model = krr_fit(K, y, default_lambda_grid(-5, 5))
        resid = (K + model.lam * np.eye(6)) @ model.alpha - y
        assert np.linalg.norm(resid) <= 1e-6

    def test_asymmetry_at_small_scale_rejected(self):
        # a gap of 1.4e-6 relative to a kernel of scale 1e-12 is no rounding
        K = 1e-12 * np.eye(3)
        K[0, 1] += 1.4e-18
        with pytest.raises(ValueError, match="not symmetric"):
            krr_fit(K, np.array([1.0, -1.0, 1.0]), np.array([1.0]))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            krr_fit(np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]), np.array([1.0]))

    def test_degenerate_raises(self):
        # an all-zero kernel at lambda 0 is singular: no grid value works
        with pytest.raises(DegenerateFitError):
            krr_fit(np.zeros((3, 3)), np.array([1.0, -1.0, 1.0]), np.array([0.0]))

    def test_interpolating_loo_well_defined_at_lambda_zero(self):
        # with an invertible kernel the leave-one-out residual formula
        # alpha_i / (K^-1)_ii stays finite even at lambda = 0
        rng = np.random.default_rng(10)
        F = rng.standard_normal((8, 8))
        K = F @ F.T + 1e-6 * np.eye(8)
        y = np.where(rng.random(8) > 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        model = krr_fit(K, y, np.array([0.0]))
        assert np.isfinite(model.press_value)

    def test_predict_kernel_and_rebuild_agree(self):
        rng = np.random.default_rng(6)
        A = random_sparse(rng, 20, 40, 0.2)
        B = random_sparse(rng, 9, 40, 0.2)
        y = np.where(rng.random(20) > 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        K = kernel_matrix(KERNEL_JACCARD, A, A)
        model = krr_fit(K, y, default_lambda_grid(-5, 5), KERNEL_JACCARD, A)
        direct = krr_predict_kernel(model, kernel_matrix(KERNEL_JACCARD, B, A))
        rebuilt = krr_predict(model, B)
        assert np.array_equal(direct, rebuilt)

    def test_training_rows_need_jaccard_kind(self):
        # only a Jaccard kernel can be rebuilt from the rows, so another
        # kind is refused at fit, not at the first prediction
        rng = np.random.default_rng(7)
        X = random_sparse(rng, 6, 20, 0.3)
        K = kernel_matrix(KERNEL_JACCARD, X, X)
        y = np.array([1.0, -1.0] * 3)
        with pytest.raises(ValueError):
            krr_fit(K, y, training_rows=X)  # default kind "precomputed"
        with pytest.raises(ValueError):
            krr_fit(K, y, None, "linear-srp", X)

    def test_unknown_kind_rejected(self):
        y = np.array([1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="no-such-kernel"):
            krr_fit(np.eye(3), y, None, "no-such-kernel")
        for kind in ("precomputed", KERNEL_JACCARD):
            assert krr_fit(np.eye(3), y, None, kind).n_train == 3

    def test_predict_without_training_rows_rejected(self):
        model = krr_fit(np.eye(3), np.array([1.0, -1.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            krr_predict(model, np.zeros((2, 3)))


class TestKrrPredictReusesTrainingRows:
    """``krr_predict`` scores batch after batch against one set of training
    rows, which keep their column form from the first batch on."""

    def test_successive_batches_match_fresh_training_rows(self):
        rng = np.random.default_rng(30)
        model = _jaccard_krr(rng)
        for _ in range(3):
            batch = random_sparse(rng, 9, 60, 0.15)
            fresh = fresh_copy(model.training_rows)
            expected = krr_predict_kernel(
                model, kernel_matrix(KERNEL_JACCARD, batch, fresh)
            )
            assert krr_predict(model, batch).tobytes() == expected.tobytes()

    def test_column_form_built_once(self, monkeypatch):
        rng = np.random.default_rng(31)
        model = _jaccard_krr(rng)
        model.training_rows = fresh_copy(model.training_rows)
        built = []
        transpose = sparse._transpose
        monkeypatch.setattr(
            sparse, "_transpose", lambda m: built.append(m) or transpose(m)
        )
        for _ in range(2):
            krr_predict(model, random_sparse(rng, 5, 60, 0.15))
        assert built == [model.training_rows]


class TestKnn:
    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            D = np.round(rng.random((30, 20)), 2)  # rounding creates ties
            labels = np.where(rng.random(20) > 0.5, 1.0, -1.0)
            for k in [1, 3, 7]:
                got = knn_predict(D, labels, k)
                assert np.array_equal(got, knn_scores(D, labels, k))

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_stable_argsort_on_heavy_ties(self, k):
        # few distinct distances, so most rows have ties at their k-th value
        rng = np.random.default_rng(17)
        D = rng.integers(0, 4, size=(200, 60)).astype(np.float64) / 4.0
        D[:5] = 0.5  # rows that are one tie
        D[5, :] = np.inf
        D[6, ::2] = -np.inf
        labels = np.where(rng.random(60) > 0.4, 1.0, -1.0)
        order = np.argsort(D, axis=1, kind="stable")[:, :k]
        assert np.array_equal(knn_predict(D, labels, k), labels[order].mean(axis=1))

    def test_nan_distance_rejected(self):
        D = np.array([[0.1, np.nan, 0.3]])
        with pytest.raises(ValueError, match="NaN"):
            knn_predict(D, np.array([1.0, -1.0, 1.0]), 1)

    @pytest.mark.parametrize("k", [3.0, 2, 0, 5])
    def test_bad_k_rejected(self, k):
        # a float k used to reach np.partition, which raised TypeError
        D = np.array([[0.1, 0.2, 0.3]])
        with pytest.raises(ValueError, match="k must be"):
            knn_predict(D, np.array([1.0, -1.0, 1.0]), k)

    def test_k_one_takes_nearest_label(self):
        D = np.array([[0.5, 0.1, 0.9], [0.2, 0.3, 0.05]])
        labels = np.array([1.0, -1.0, 1.0])
        assert np.array_equal(knn_predict(D, labels, 1), [-1.0, 1.0])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        D = rng.random((15, 11))
        labels = np.where(rng.random(11) > 0.5, 1.0, -1.0)
        for k in [1, 3]:
            base = knn_predict(D, labels, k)
            squashed = knn_predict(np.sqrt(D), labels, k)  # order-preserving
            assert np.array_equal(base, squashed)

    def test_k_validation(self):
        D = np.zeros((2, 5))
        labels = np.ones(5)
        with pytest.raises(ValueError):
            knn_predict(D, labels, 2)  # even
        with pytest.raises(ValueError):
            knn_predict(D, labels, 0)
        with pytest.raises(ValueError):
            knn_predict(D, labels, 7)  # k > n_train

    def test_accepts_distance_matrix_wrapper(self):
        rng = np.random.default_rng(9)
        A = random_sparse(rng, 6, 15, 0.3)
        B = random_sparse(rng, 4, 15, 0.3)
        D = jaccard_distance_matrix(A, B)
        labels = np.array([1.0, -1.0, 1.0, -1.0])
        scores = knn_predict(D, labels, 1)
        assert scores.shape == (6,)
        assert set(np.unique(scores)) <= {-1.0, 1.0}
