"""L2-regularized logistic regression trained by deterministic descent.

Minimizes mean log-loss plus (lambda/2) ||w||^2 (intercept unpenalized)
with full-batch gradient descent and Armijo backtracking.  The penalty
is chosen on a grid by held-out log-loss, since the closed-form
leave-one-out identity of the ridge models does not apply here.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .exceptions import NumericalDivergenceError

__all__ = [
    "LogRegModel",
    "logreg_fit",
    "logreg_predict",
    "logreg_select_lambda",
]

_ARMIJO_C = 1e-4
_MIN_STEP = 1e-20
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


def _check_inputs(X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a nonempty 2-D array")
    if y.shape != (X.shape[0],):
        raise ValueError("y must have one entry per row of X")
    if not np.all(np.isin(np.unique(y), (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    return X, y


def _loss_grad(X, y, w, b, lam):
    margin = y * (X @ w + b)
    loss = float(np.mean(np.logaddexp(0.0, -margin)) + 0.5 * lam * (w @ w))
    p = expit(-margin)  # d loss_i / d margin_i = -p
    yp = y * p
    grad_w = -(X.T @ yp) / y.size + lam * w
    grad_b = -float(np.mean(yp))
    return loss, grad_w, grad_b


def logreg_fit(
    X, y, lam: float, max_iter: int = 500, tol: float = 1e-6
) -> LogRegModel:
    """Gradient descent with backtracking line search from the zero start.

    Stops when the gradient infinity-norm drops below ``tol`` or after
    ``max_iter`` accepted steps, whichever comes first.
    """
    X, y = _check_inputs(X, y)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")

    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    loss, grad_w, grad_b = _loss_grad(X, y, w, b, lam)
    step = 1.0
    iterations = 0
    converged = False
    for iterations in range(max_iter + 1):
        if not np.isfinite(loss):
            raise NumericalDivergenceError("loss is not finite", iterations)
        grad_norm = max(float(np.max(np.abs(grad_w))) if grad_w.size else 0.0,
                        abs(grad_b))
        if grad_norm < tol:
            converged = True
            break
        if iterations == max_iter:
            break
        sq = float(grad_w @ grad_w) + grad_b * grad_b
        while step >= _MIN_STEP:
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            loss_new, gw_new, gb_new = _loss_grad(X, y, w_new, b_new, lam)
            if loss_new <= loss - _ARMIJO_C * step * sq:
                break
            step *= 0.5
        else:
            break  # no acceptable step remains; gradient is effectively flat
        w, b = w_new, b_new
        loss, grad_w, grad_b = loss_new, gw_new, gb_new
        step = min(step * 2.0, 1e6)
    return LogRegModel(w, b, lam, converged, iterations)


def logreg_predict(model: LogRegModel, X) -> np.ndarray:
    """Probabilities of the +1 class; class decision is score > 0.5."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if X.shape[1] != model.weights.size:
        raise ValueError(
            f"feature dimensions differ: {X.shape[1]} vs {model.weights.size}"
        )
    return expit(X @ model.weights + model.intercept)


def _heldout_logloss(model: LogRegModel, X, y) -> float:
    margin = y * (X @ model.weights + model.intercept)
    return float(np.mean(np.logaddexp(0.0, -margin)))


def logreg_select_lambda(
    X,
    y,
    lambda_grid,
    seed: int = 0,
    max_iter: int = 500,
    tol: float = 1e-6,
):
    """Pick the penalty with the best held-out log-loss.

    Rows are shuffled once (seeded) and split; each grid value is fit on
    the larger part and scored on the holdout.  Exact ties go to the
    larger penalty.  Returns (best_lambda, losses aligned with the grid).
    """
    X, y = _check_inputs(X, y)
    grid = np.asarray(lambda_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("lambda_grid must be a nonempty 1-D sequence")
    n = X.shape[0]
    n_hold = max(1, int(round(n * _HOLDOUT_FRACTION)))
    if n_hold >= n:
        raise ValueError("holdout split leaves no training rows")
    perm = np.random.default_rng(seed).permutation(n)
    hold, train = perm[:n_hold], perm[n_hold:]
    losses = np.empty(grid.size, dtype=np.float64)
    for gi, lam in enumerate(grid):
        model = logreg_fit(X[train], y[train], float(lam), max_iter, tol)
        losses[gi] = _heldout_logloss(model, X[hold], y[hold])
    best_val = np.min(losses)
    candidates = np.flatnonzero(losses == best_val)
    best = int(candidates[np.argmax(grid[candidates])])
    return float(grid[best]), losses
