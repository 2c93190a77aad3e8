"""Tests for AUC, accuracy, the paired t-test, and report assembly."""

import warnings

import numpy as np
import pytest
from scipy import stats

from srplearn.metrics import (
    EvalReport,
    accuracy,
    format_report,
    paired_t_test,
    roc_auc,
    summarize,
)


def _auc_pair_counting(scores, labels):
    """O(n^2) oracle: P(pos > neg) + 0.5 P(tie)."""
    pos = scores[labels > 0]
    neg = scores[labels <= 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestRocAuc:
    def test_matches_pair_counting_with_ties(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(10, 300))
            # coarse rounding forces plenty of exact ties
            scores = np.round(rng.standard_normal(n), 1)
            labels = np.where(rng.random(n) > 0.5, 1, -1)
            if np.all(labels == labels[0]):
                labels[0] = -labels[0]
            assert roc_auc(scores, labels) == _auc_pair_counting(scores, labels)

    def test_negation_complements_in_tie_free_case(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            scores = rng.permutation(100).astype(float)  # distinct values
            labels = np.where(rng.random(100) > 0.5, 1, -1)
            labels[0], labels[1] = 1, -1
            auc = roc_auc(scores, labels)
            # both sides are a ratio of exact integers; the only slack is
            # the final rounding of two different divisions (1 ulp)
            assert roc_auc(-scores, labels) == pytest.approx(1.0 - auc, abs=1e-15)

    def test_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, -1, -1])
        assert roc_auc(scores, labels) == 1.0
        assert roc_auc(-scores, labels) == 0.0

    def test_all_tied_scores_give_half(self):
        assert roc_auc(np.zeros(10), np.array([1, -1] * 5)) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.standard_normal(80)
        labels = np.where(rng.random(80) > 0.4, 1, -1)
        labels[0], labels[1] = 1, -1
        assert roc_auc(scores, labels) == roc_auc(np.exp(scores), labels)

    def test_single_class_warns_and_returns_half(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))
        assert out == 0.5
        assert any("class" in str(w.message) for w in caught)


class TestAccuracy:
    def test_recount_oracle(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(50)
        labels = np.where(rng.random(50) > 0.5, 1, -1)
        acc = accuracy(scores, labels)
        manual = np.mean((scores > 0.0) == (labels > 0))
        assert acc == manual

    def test_threshold_applies(self):
        scores = np.array([0.2, 0.4, 0.6, 0.8])
        labels = np.array([-1, -1, 1, 1])
        assert accuracy(scores, labels, threshold=0.5) == 1.0
        assert accuracy(scores, labels, threshold=0.0) == 0.5

    def test_step_size_is_one_over_n(self):
        scores = np.array([1.0, -1.0, 1.0])
        labels = np.array([1, 1, 1])
        assert accuracy(scores, labels) == pytest.approx(2.0 / 3.0)


class TestPairedTTest:
    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            n = int(rng.integers(2, 60))
            a = rng.standard_normal(n)
            b = a + rng.standard_normal(n) * rng.uniform(0.01, 2.0)
            expected = stats.ttest_rel(a, b).pvalue
            assert paired_t_test(a, b) == pytest.approx(expected, rel=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(20)
        b = rng.standard_normal(20)
        assert paired_t_test(a, b) == paired_t_test(b, a)

    def test_identical_series_give_one(self):
        a = np.array([0.9, 0.8, 0.95])
        assert paired_t_test(a, a.copy()) == 1.0

    def test_constant_nonzero_difference_warns_and_gives_zero(self):
        a = np.array([0.5, 0.6, 0.7])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            p = paired_t_test(a, a + 0.1)
        assert p == 0.0
        assert len(caught) >= 1

    def test_needs_two_runs(self):
        with pytest.raises(ValueError):
            paired_t_test(np.array([1.0]), np.array([2.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_t_test(np.array([1.0, 2.0]), np.array([1.0]))


class TestSummarize:
    def test_best_set_hand_computed(self):
        # method a clearly best; b within noise of a; c clearly worse
        rng = np.random.default_rng(6)
        base = rng.uniform(0.8, 0.82, size=30)
        runs = {
            "a": list(base + 0.100),
            "b": list(base + 0.099 + rng.normal(0.0, 0.01, 30)),
            "c": list(base),
        }
        report = summarize(runs, alpha=0.05)
        assert "a" in report.best_set
        assert "b" in report.best_set
        assert "c" not in report.best_set
        assert report.auc_mean["a"] == pytest.approx(np.mean(runs["a"]))
        assert report.auc_std["a"] == pytest.approx(np.std(runs["a"], ddof=1))

    def test_duplicated_method_ties_into_best_set(self):
        runs = {
            "x": [0.7, 0.72, 0.71, 0.69, 0.7],
            "y": [0.7, 0.72, 0.71, 0.69, 0.7],
        }
        report = summarize(runs)
        assert set(report.best_set) == {"x", "y"}
        i, j = report.methods.index("x"), report.methods.index("y")
        assert report.p_values[i, j] == 1.0

    def test_requires_equal_run_counts(self):
        with pytest.raises(ValueError):
            summarize({"a": [0.5, 0.6], "b": [0.5]})

    def test_requires_two_runs(self):
        with pytest.raises(ValueError):
            summarize({"a": [0.5]})

    def test_times_recorded(self):
        runs = {"a": [0.5, 0.6, 0.7], "b": [0.4, 0.5, 0.6]}
        times = {"a": [1.0, 2.0, 3.0], "b": [0.5, 0.5, 0.5]}
        # the constant pairwise difference triggers the degenerate-t warning
        with pytest.warns(RuntimeWarning):
            report = summarize(runs, times=times)
        assert report.time_mean_s["a"] == pytest.approx(2.0)
        assert report.time_mean_s["b"] == pytest.approx(0.5)


class TestFormatReport:
    def test_star_marks_best_set_and_percent_scale(self):
        runs = {"good": [0.91, 0.92, 0.93], "bad": [0.51, 0.52, 0.53]}
        report = summarize(runs)
        text = format_report(report)
        lines = text.splitlines()
        good_line = next(l for l in lines if l.startswith("good"))
        bad_line = next(l for l in lines if l.startswith("bad"))
        assert "*" in good_line
        assert "*" not in bad_line
        assert "92.00" in good_line  # mean shown as percent
        assert "52.00" in bad_line

    def test_times_print_milliseconds(self):
        runs = {"a": [0.5, 0.6], "b": [0.7, 0.9]}
        report = summarize(runs, times={"a": [0.01, 0.03], "b": [1.0, 2.0]})
        lines = format_report(report).splitlines()
        assert next(l for l in lines if l.startswith("a")).endswith("   0.020")
        assert next(l for l in lines if l.startswith("b")).endswith("   1.500")

    def test_zero_variance_pairs_named(self):
        # constant AUC lists: every paired difference is the same, so p = 0
        # says nothing about separation; the report names such pairs
        runs = {
            "flat": [0.5, 0.5, 0.5],
            "perfect": [1.0, 1.0, 1.0],
            "noisy": [0.7, 0.8, 0.75],
        }
        with pytest.warns(RuntimeWarning, match="flat vs perfect"):
            report = summarize(runs)
        assert report.degenerate_pairs == [("flat", "perfect")]
        assert report.p_values[0, 1] == report.p_values[1, 0] == 0.0
        assert 0.0 < report.p_values[0, 2] < 1.0
        text = format_report(report)
        assert "zero variance" in text and "flat vs perfect" in text

    def test_no_zero_variance_line_when_none(self):
        report = summarize({"a": [0.5, 0.6], "b": [0.7, 0.9]})
        assert report.degenerate_pairs == []
        assert "zero variance" not in format_report(report)

    def test_missing_times_render_dash(self):
        runs = {"a": [0.5, 0.6], "b": [0.7, 0.8]}
        report = summarize(runs)
        assert "-" in format_report(report)
