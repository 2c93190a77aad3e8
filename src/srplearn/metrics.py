"""Ranking metrics and statistical comparison of repeated runs.

AUC uses the rank-sum (Mann-Whitney) formulation with average ranks for
ties; rank sums of half-integers are exact in float64, so the result
matches explicit pair counting bit for bit.  The paired t-test takes its
two-sided p-value from the t distribution through scipy's regularized
incomplete beta function.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc

__all__ = [
    "roc_auc",
    "accuracy",
    "paired_t_test",
    "summarize",
    "EvalReport",
    "format_report",
]

def _check_pair(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1:
        raise ValueError("scores and labels must be 1-D")
    if scores.size != labels.size:
        raise ValueError(
            f"lengths differ: {scores.size} vs {labels.size}"
        )
    if scores.size == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.isin(np.unique(labels), (-1, 1))):
        raise ValueError("labels must be -1 or +1")
    return scores, labels


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties replaced by the mean rank of the tie group."""
    order = np.argsort(values, kind="mergesort")
    v = values[order]
    n = v.size
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    ends = np.append(starts[1:], n)
    # average of 1-based ranks starts+1 .. ends is a half-integer, exact
    group_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(group_rank, ends - starts)
    return ranks


def roc_auc(scores, labels) -> float:
    """Probability a positive outscores a negative, ties counted half.

    With only one class present the value is undefined; 0.5 is returned
    with a degenerate-input warning.
    """
    scores, labels = _check_pair(scores, labels)
    pos = labels > 0
    n_pos = int(np.count_nonzero(pos))
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        warnings.warn(
            "only one class present; AUC undefined, returning 0.5",
            RuntimeWarning,
        )
        return 0.5
    ranks = _average_ranks(scores)
    rank_sum = float(np.sum(ranks[pos]))
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def accuracy(scores, labels, threshold: float = 0.0) -> float:
    """Fraction of samples whose decision (score > threshold) is correct."""
    scores, labels = _check_pair(scores, labels)
    decisions = scores > threshold
    return float(np.mean(decisions == (labels > 0)))


def _paired_t(a, b) -> tuple:
    """(p-value, zero_variance) of the paired t-test; see paired_t_test."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("inputs must be 1-D with equal lengths")
    n = a.size
    if n < 2:
        raise ValueError("need at least two paired runs")
    diff = a - b
    if np.all(diff == 0.0):
        return 1.0, False
    sd = float(np.std(diff, ddof=1))
    if sd == 0.0:
        return 0.0, True
    t = float(np.mean(diff)) / (sd / math.sqrt(n))
    dof = n - 1
    x = dof / (dof + t * t)
    return float(betainc(dof / 2.0, 0.5, x)), False


def paired_t_test(a, b) -> float:
    """Two-sided p-value for the paired difference of two run lists.

    All differences exactly zero give p = 1 (methods indistinguishable);
    a constant nonzero difference has zero variance and gives p = 0 with
    a degenerate-separation warning.
    """
    p, zero_variance = _paired_t(a, b)
    if zero_variance:
        warnings.warn(
            "constant nonzero difference; separation is degenerate, p = 0",
            RuntimeWarning,
        )
    return p


@dataclass
class EvalReport:
    """Aggregated benchmark outcome across repeated runs."""

    methods: list
    auc_mean: dict
    auc_std: dict
    run_aucs: dict
    p_values: np.ndarray
    best_set: list
    alpha: float
    time_mean_s: dict = field(default_factory=dict)
    # method pairs whose p = 0 comes from a zero-variance nonzero difference
    degenerate_pairs: list = field(default_factory=list)

    def best_method(self) -> str:
        return max(self.methods, key=lambda m: self.auc_mean[m])


def summarize(runs, alpha: float = 0.05, times=None) -> EvalReport:
    """Mean/std per method plus the set statistically tied with the best.

    ``runs`` maps method name to its per-run metric list; all lists must
    be equally long (>= 2) because the t-test pairs runs by index.
    """
    if not runs:
        raise ValueError("no methods to summarize")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    methods = list(runs.keys())
    lengths = {m: len(runs[m]) for m in methods}
    n = lengths[methods[0]]
    if n < 2:
        raise ValueError("need at least two runs per method")
    if any(v != n for v in lengths.values()):
        raise ValueError(f"run counts differ between methods: {lengths}")
    arrays = {m: np.asarray(runs[m], dtype=np.float64) for m in methods}
    auc_mean = {m: float(np.mean(arrays[m])) for m in methods}
    auc_std = {m: float(np.std(arrays[m], ddof=1)) for m in methods}
    k = len(methods)
    p = np.ones((k, k), dtype=np.float64)
    degenerate = []
    for i in range(k):
        for j in range(i + 1, k):
            p[i, j], zero_variance = _paired_t(arrays[methods[i]], arrays[methods[j]])
            p[j, i] = p[i, j]
            if zero_variance:
                degenerate.append((methods[i], methods[j]))
    if degenerate:
        warnings.warn(
            "constant nonzero difference; separation is degenerate, p = 0: "
            + _pair_names(degenerate),
            RuntimeWarning,
        )
    best = max(methods, key=lambda m: auc_mean[m])
    bi = methods.index(best)
    best_set = [
        m
        for mi, m in enumerate(methods)
        if m == best or p[mi, bi] > alpha
    ]
    time_mean = {}
    if times is not None:
        for m in methods:
            if m in times and len(times[m]):
                time_mean[m] = float(np.mean(np.asarray(times[m], dtype=np.float64)))
    return EvalReport(
        methods=methods,
        auc_mean=auc_mean,
        auc_std=auc_std,
        run_aucs={m: arrays[m].tolist() for m in methods},
        p_values=p,
        best_set=best_set,
        alpha=alpha,
        time_mean_s=time_mean,
        degenerate_pairs=degenerate,
    )


def _pair_names(pairs) -> str:
    return ", ".join(f"{a} vs {b}" for a, b in pairs)


def format_report(report: EvalReport) -> str:
    """Aligned text table: one row per method, best set starred."""
    name_width = max([len(m) for m in report.methods] + [len("Method")])
    lines = [
        f"{'Method':<{name_width}}  {'AUC (std), %':>18}  {'time, s':>8}",
        "-" * (name_width + 30),
    ]
    for m in report.methods:
        mean_pct = 100.0 * report.auc_mean[m]
        std_pct = 100.0 * report.auc_std[m]
        star = " *" if m in report.best_set else "  "
        cell = f"{mean_pct:6.2f} ({std_pct:.2f}){star}"
        t = report.time_mean_s.get(m)
        t_cell = f"{t:8.3f}" if t is not None else f"{'-':>8}"
        lines.append(f"{m:<{name_width}}  {cell:>18}  {t_cell}")
    lines.append("")
    lines.append(
        f"* best mean AUC and methods not significantly different from it "
        f"(paired t-test, alpha={report.alpha:g})"
    )
    if report.degenerate_pairs:
        lines.append(
            "p = 0 from a constant nonzero AUC difference (zero variance): "
            + _pair_names(report.degenerate_pairs)
        )
    return "\n".join(lines)
