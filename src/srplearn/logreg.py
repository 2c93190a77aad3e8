"""L2-regularized logistic regression trained by deterministic descent.

Minimizes mean log-loss plus (lambda/2) ||w||^2 (intercept unpenalized)
with full-batch gradient descent and Armijo backtracking.  The penalty
is chosen on a grid by held-out log-loss, since the closed-form
leave-one-out identity of the ridge models does not apply here.

One loop, :func:`_descend`, runs the descent for any number of
penalties at once: tuning advances the whole grid together, sharing
each trial's matrix products, and a single fit is its one-penalty case.
The loss is computed at every trial point, the gradient only where the
trial is accepted.

The weights and the intercept share one step size, but the weights'
step is divided by ``1 + 3 lambda``.  The loss's curvature is at most
1/4 along the intercept and grows like lambda along the weights, so an
unscaled step that suits the weights of a large penalty leaves the
intercept crawling; scaled, the weights' curvature tends to 1/3, just
above the intercept's 1/4, and both blocks move at one step.  (With
``1 + 4 lambda`` both curvatures tend to 1/4, the doubling step settles
on 8, the stability edge of both blocks at once, and the descent
oscillates there.)  The intercept's step does not depend on lambda, so
penalties whose weights stay at zero take identical intercept paths.

Log-losses use one softplus, ``max(m, 0) + log1p(exp(-|m|))``, for the
training loss and the held-out loss alike: it agrees with
``np.logaddexp(0, m)`` within a few ulp and costs a fraction of its
scalar loop.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from . import checks
from .exceptions import NumericalDivergenceError
from .ridge import _select_penalty

__all__ = [
    "LogRegModel",
    "logreg_fit",
    "logreg_predict",
    "logreg_select_lambda",
]

_ARMIJO_C = 1e-4
_MIN_STEP = 1e-20
# a penalty's weight step is its step divided by 1 + _WEIGHT_STEP_SCALE * lambda
_WEIGHT_STEP_SCALE = 3.0
# share of the rows held out when choosing the penalty
_HOLDOUT_FRACTION = 0.2


class LogRegModel:
    """Fitted logistic regression."""

    __slots__ = ("weights", "intercept", "lam", "converged", "iterations")

    def __init__(self, weights, intercept, lam, converged, iterations):
        weights = np.asarray(weights, dtype=np.float64)
        if not np.all(np.isfinite(weights)) or not np.isfinite(intercept):
            raise ValueError("model parameters must be finite")
        self.weights = weights
        self.intercept = float(intercept)
        self.lam = float(lam)
        self.converged = bool(converged)
        self.iterations = int(iterations)

    def __repr__(self) -> str:
        return (
            f"LogRegModel(d={self.weights.size}, lam={self.lam:g}, "
            f"converged={self.converged}, iterations={self.iterations})"
        )


def _check_fit(X, y, max_iter, tol):
    """Nonempty dense rows, their labels and the stopping rule, checked."""
    X = checks.rows(X)
    return X, checks.labels(y, X.shape[0]), checks.max_iter(max_iter), checks.tol(tol)


def _row_dots(A):
    """Each row's dot product with itself, as a (1, d) @ (d, 1) product per
    row: the same BLAS dot as ``a @ a`` for one row ``a``."""
    return (A[:, None, :] @ A[:, :, None])[:, 0, 0]


def _softplus(m):
    """log(1 + exp(m)), elementwise, without overflow."""
    return np.maximum(m, 0.0) + np.log1p(np.exp(-np.abs(m)))


def _weight_scale(lams):
    """Divisor of each penalty's weight step (see the module docstring)."""
    return 1.0 + _WEIGHT_STEP_SCALE * lams


def _losses(X, y, W, b, lams):
    """Loss of one problem per row of ``W``, and the negated margins.

    Row ``j`` is the weight vector of penalty ``lams[j]`` and ``b[j]`` its
    intercept.  Every row is reduced on its own (pairwise sums, one dot
    product per row), so each row of the result has the bits of the
    one-problem computation; only the matrix products group the rows.
    """
    neg_margin = -y * (W @ X.T + b[:, None])
    loss = _softplus(neg_margin).sum(axis=1) / y.size + 0.5 * lams * _row_dots(W)
    return loss, neg_margin


def _grads(X, y, W, lams, neg_margin):
    """Gradient of each row's problem from its negated margins, with the
    gradient's infinity norm per row and its squared norm along the
    scaled descent direction, ``|grad_w|^2 / (1 + 3 lambda) + grad_b^2``."""
    n = y.size
    yp = y * expit(neg_margin)  # d loss_i / d margin_i = -p
    grad_w = (yp @ X) / -n + lams[:, None] * W
    grad_b = yp.sum(axis=1) / -n
    norm = np.maximum(np.abs(grad_w).max(axis=1, initial=0.0), np.abs(grad_b))
    return grad_w, grad_b, norm, _row_dots(grad_w) / _weight_scale(lams) + grad_b * grad_b


def _loss_grad(X, y, w, b, lam):
    """Loss and gradient at one point: the one-row case of :func:`_losses`
    and :func:`_grads`."""
    W, lams = w[None, :], np.array([lam])
    loss, neg_margin = _losses(X, y, W, np.array([b]), lams)
    grad_w, grad_b, _, _ = _grads(X, y, W, lams, neg_margin)
    return float(loss[0]), grad_w[0], float(grad_b[0])


def _descend(X, y, lams, max_iter, tol):
    """Gradient descent from the zero start, one column per penalty.

    Each penalty follows its own path: Armijo backtracking from a step
    that doubles (up to 1e6) after every accepted step and halves after
    every rejected trial, stopping when the gradient infinity-norm drops
    below ``tol``, after ``max_iter`` accepted steps, or when the step
    falls below ``_MIN_STEP``.  A trial moves the intercept by ``step``
    times its gradient and the weights by ``step / (1 + 3 lambda)`` times
    theirs (the factor 3 is explained in the module docstring); the
    Armijo test asks the loss to fall by ``_ARMIJO_C * step`` times the
    squared gradient along that direction,
    ``|grad_w|^2 / (1 + 3 lambda) + grad_b^2``.  The stopping test reads
    the unscaled gradient, so ``converged`` means a gradient
    infinity-norm below ``tol`` at the returned point.  The penalties
    still descending share each trial's loss product; the gradient, a
    second product, is formed only at the trials that are accepted.
    Returns (weights (G, d), intercepts, converged flags, accepted-step
    counts), one entry per penalty.
    """
    G = lams.size
    W_out = np.zeros((G, X.shape[1]), dtype=np.float64)
    b_out = np.zeros(G, dtype=np.float64)
    converged = np.zeros(G, dtype=bool)
    iterations = np.zeros(G, dtype=np.int64)

    # state of the penalties still descending, in grid order
    cols, lam, W, b = np.arange(G), lams, W_out.copy(), b_out.copy()
    loss, neg_margin = _losses(X, y, W, b, lam)
    grad_w, grad_b, grad_norm, sq = _grads(X, y, W, lam, neg_margin)
    step = np.ones(G, dtype=np.float64)
    iters = np.zeros(G, dtype=np.int64)
    while True:
        finite = np.isfinite(loss)
        if np.count_nonzero(finite) < finite.size:
            raise NumericalDivergenceError("loss is not finite", int(iters[~finite][0]))
        conv = grad_norm < tol
        # a step below _MIN_STEP means no acceptable step remains: the
        # gradient is effectively flat
        done = conv | (iters >= max_iter) | (step < _MIN_STEP)
        if np.count_nonzero(done):
            ended = cols[done]
            W_out[ended], b_out[ended] = W[done], b[done]
            converged[ended], iterations[ended] = conv[done], iters[done]
            keep = ~done
            if not np.count_nonzero(keep):
                return W_out, b_out, converged, iterations
            cols, lam, W, b = cols[keep], lam[keep], W[keep], b[keep]
            loss, grad_w, grad_b = loss[keep], grad_w[keep], grad_b[keep]
            grad_norm, sq, step, iters = grad_norm[keep], sq[keep], step[keep], iters[keep]

        w_new = W - (step / _weight_scale(lam))[:, None] * grad_w
        b_new = b - step * grad_b
        loss_new, neg_margin = _losses(X, y, w_new, b_new, lam)
        ok = loss_new <= loss - _ARMIJO_C * step * sq
        # step * 0.5 never exceeds the cap, so one minimum serves both
        step = np.minimum(step * np.where(ok, 2.0, 0.5), 1e6)
        iters = iters + ok
        accepted = np.count_nonzero(ok)
        if accepted == ok.size:
            W, b, loss = w_new, b_new, loss_new
            grad_w, grad_b, grad_norm, sq = _grads(X, y, W, lam, neg_margin)
        elif accepted:
            W[ok], b[ok], loss[ok] = w_new[ok], b_new[ok], loss_new[ok]
            grad_w[ok], grad_b[ok], grad_norm[ok], sq[ok] = _grads(
                X, y, W[ok], lam[ok], neg_margin[ok]
            )


def logreg_fit(
    X, y, lam: float, max_iter: int = 500, tol: float = 1e-6
) -> LogRegModel:
    """Gradient descent with backtracking line search from the zero start.

    Stops when the gradient infinity-norm drops below ``tol`` or after
    ``max_iter`` accepted steps, whichever comes first.  This is the
    one-penalty case of the descent that tunes the penalty.
    """
    X, y, max_iter, tol = _check_fit(X, y, max_iter, tol)
    lam = checks.penalty(lam)
    W, b, converged, iterations = _descend(
        X, y, np.array([lam], dtype=np.float64), max_iter, tol
    )
    return LogRegModel(W[0], b[0], lam, converged[0], iterations[0])


def logreg_predict(model: LogRegModel, X) -> np.ndarray:
    """Probabilities of the +1 class; class decision is score > 0.5."""
    X = checks.rows(X, model.weights.size)
    return expit(X @ model.weights + model.intercept)


def logreg_select_lambda(
    X,
    y,
    lambda_grid,
    seed: int = 0,
    max_iter: int = 500,
    tol: float = 1e-6,
    *,
    converged=None,
):
    """Pick the penalty with the best held-out log-loss.

    Rows are shuffled once (seeded) and split; the whole grid is fit on
    the larger part in one descent, one column per penalty, each column
    taking the steps :func:`logreg_fit` takes at its penalty, and every
    fit is scored on the holdout.  Exact ties go to the larger penalty,
    as for ridge (:func:`srplearn.ridge._select_penalty`).
    Returns (best_lambda, losses aligned with the grid).  When given,
    ``converged``, an array with one entry per penalty of the grid, is
    filled with each descent's convergence flag.
    """
    X, y, max_iter, tol = _check_fit(X, y, max_iter, tol)
    n = X.shape[0]
    n_hold = max(1, int(round(n * _HOLDOUT_FRACTION)))
    if n_hold >= n:
        raise ValueError("holdout split leaves no training rows")
    perm = np.random.default_rng(seed).permutation(n)
    hold, train = perm[:n_hold], perm[n_hold:]

    def heldout_losses(grid):
        W, b, flags, _ = _descend(X[train], y[train], grid, max_iter, tol)
        if converged is not None:
            converged[...] = flags
        margin = y[hold] * (W @ X[hold].T + b[:, None])
        return np.mean(_softplus(-margin), axis=1)

    grid, losses, best = _select_penalty(lambda_grid, heldout_losses, "held-out log-loss")
    return float(grid[best]), losses
