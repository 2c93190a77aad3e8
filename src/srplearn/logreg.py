"""L2-regularized logistic regression trained by deterministic descent.

Minimizes mean log-loss plus (lambda/2) ||w||^2 (intercept unpenalized)
with a monotone accelerated gradient descent and backtracking.  The
penalty is chosen on a grid by held-out log-loss, since the closed-form
leave-one-out identity of the ridge models does not apply here.

One loop, :func:`_descend`, runs the descent for any number of
penalties at once: tuning advances the whole grid together, sharing
each round's matrix products, and a single fit is its one-penalty case.

Each round extrapolates from the last kept point along its last move
(Nesterov's momentum as in Beck & Teboulle's FISTA), takes the loss and
gradient at the extrapolated point, and backtracks from there.  Plain
descent needs on the order of kappa steps on a problem of condition
number kappa, momentum about sqrt(kappa).  Momentum alone can raise the
loss, so a trial is kept only if its loss is no higher than the kept
point's; otherwise the momentum restarts from the kept point
(O'Donoghue & Candes's adaptive restart) and the loss never rises.
``iterations`` counts these rounds, kept or restarted.

The backtracking asks the loss to fall by at least half of ``step``
times the squared gradient along the scaled direction.  On a quadratic
of curvature L along that direction this accepts steps up to 1 / L, the
step the accelerated method's guarantee assumes; Armijo's customary
1e-4 accepts nearly 2 / L, the stability edge, where the momentum
oscillates, and left 8, 17 and 6 of bench-mix's 41 tuning penalties at
``max_iter = 200`` (seeds 0-2).  The search starts at twice the last
accepted step (at most 1e6), so a step the curvature allows carries
over from round to round and regrows after a short one; a search that
started at 1 every round left 13 of 41 at the cap at each seed.

A trial's loss is the extrapolated point's plus a change summed from
each row's own softplus change, ``log1p(p expm1(delta))``, rather than a
second rounded loss.  Near the optimum of a very large penalty, the
weights' remaining error moves a loss near 0.69 by less than an ulp, so
the difference of two rounded losses is noise there: the search halves
its step on noise and a 2^20 penalty ran to ``max_iter`` with its
gradient stuck near 7e-6.  The summed change keeps its own relative
precision, and the search needs no matrix product of its own.

The weights and the intercept share one step size, but the weights'
step is divided by ``1 + 3 lambda``.  The loss's curvature is at most
1/4 along the intercept and grows like lambda along the weights, so an
unscaled step that suits the weights of a large penalty leaves the
intercept crawling; scaled, the weights' curvature tends to 1/3, just
above the intercept's 1/4, and both blocks move at one step.  (With
``1 + 4 lambda`` both curvatures tend to 1/4 and the step settles on
the stability edge of both blocks at once.)  The intercept's step does
not depend on lambda, so penalties whose weights stay at zero take
identical intercept paths.

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

# an accepted trial lowers the loss by _ARMIJO_C * step * the squared
# scaled gradient (see the module docstring)
_ARMIJO_C = 0.5
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


def _softplus_change(neg_margin, p, delta):
    """``softplus(neg_margin + delta) - softplus(neg_margin)``, elementwise,
    with ``p = expit(neg_margin)``.

    For ``|delta| < 1`` it is ``log1p(p * expm1(delta))``, exact to a few ulp
    of the change itself, however far below the float64 resolution of
    ``softplus`` the change lies; larger changes are the plain difference.
    """
    small = np.abs(delta) < 1.0
    change = np.log1p(p * np.expm1(np.where(small, delta, 0.0)))
    if np.count_nonzero(small) < small.size:
        far = _softplus(neg_margin + delta) - _softplus(neg_margin)
        change = np.where(small, change, far)
    return change


def _descend(X, y, lams, max_iter, tol):
    """Monotone accelerated descent from the zero start, one column per
    penalty.

    A round extrapolates from the last kept point ``x`` along its last
    move, ``v = x + ((t - 1) / t') (x - x_prev)`` with
    ``t' = (1 + sqrt(1 + 4 t^2)) / 2`` (``t`` starts at 1, so the first
    round's ``v`` is ``x``), and takes the loss and gradient at ``v`` from
    ``v``'s own weights.  It then backtracks from ``v``: a trial moves the
    intercept by ``step`` times its gradient and the weights by
    ``step / (1 + 3 lambda)`` times theirs, and is accepted when the loss
    falls by at least ``_ARMIJO_C * step`` times the squared gradient along
    that direction, ``|grad_w|^2 / (1 + 3 lambda) + grad_b^2``.  The search
    starts at twice the last accepted step (at most 1e6) and halves on
    every rejection; each trial costs elementwise work only
    (:func:`_softplus_change` along the margins' change per unit step, one
    product per round, and the penalty's change in closed form).  The
    accepted trial becomes ``x`` if its loss is no higher than ``x``'s;
    otherwise the momentum restarts (``t = 1``, ``x_prev = x``) and ``x``
    stays.  The module docstring gives the reason for each choice.

    A column stops when the gradient infinity-norm at ``v`` drops below
    ``tol``, and returns ``v``, so ``converged`` means a gradient below
    ``tol`` at the returned point.  It also stops after ``max_iter``
    rounds, or when its step falls below ``_MIN_STEP``, and then returns
    the last kept ``x``, whose loss never rose.  Every round counts toward
    ``max_iter``, kept or restarted, so the loop always ends.  The columns
    still descending share each round's products.  Returns (weights
    (G, d), intercepts, converged flags, round counts), one entry per
    penalty.
    """
    G, n = lams.size, y.size
    W_out = np.zeros((G, X.shape[1]), dtype=np.float64)
    b_out = np.zeros(G, dtype=np.float64)
    converged = np.zeros(G, dtype=bool)
    iterations = np.zeros(G, dtype=np.int64)

    # state of the penalties still descending, in grid order: the kept
    # point x (W, b, loss), the one before it, the momentum t, the next
    # round's first trial step and the rounds taken
    cols, lam, W, b = np.arange(G), lams, W_out.copy(), b_out.copy()
    W_prev, b_prev = W.copy(), b.copy()
    loss = np.zeros(G, dtype=np.float64)  # measured in the first round
    t = np.ones(G, dtype=np.float64)
    step = np.ones(G, dtype=np.float64)
    rounds = np.zeros(G, dtype=np.int64)
    while True:
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        Wv = W + beta[:, None] * (W - W_prev)
        bv = b + beta * (b - b_prev)
        loss_v, neg_margin = _losses(X, y, Wv, bv, lam)
        finite = np.isfinite(loss_v)
        if np.count_nonzero(finite) < finite.size:
            raise NumericalDivergenceError("loss is not finite", int(rounds[~finite][0]))
        grad_w, grad_b, grad_norm, sq = _grads(X, y, Wv, lam, neg_margin)
        conv = grad_norm < tol
        done = conv | (rounds >= max_iter) | (step < _MIN_STEP)
        if np.count_nonzero(done):
            ended = cols[done]
            W_out[ended] = np.where(conv[done, None], Wv[done], W[done])
            b_out[ended] = np.where(conv[done], bv[done], b[done])
            converged[ended], iterations[ended] = conv[done], rounds[done]
            keep = ~done
            if not np.count_nonzero(keep):
                return W_out, b_out, converged, iterations
            cols, lam, W, b, W_prev, b_prev, loss, t, t_next, beta, step, rounds = (
                a[keep] for a in
                (cols, lam, W, b, W_prev, b_prev, loss, t, t_next, beta, step, rounds)
            )
            Wv, bv, loss_v, neg_margin, grad_w, grad_b, sq = (
                a[keep] for a in (Wv, bv, loss_v, neg_margin, grad_w, grad_b, sq)
            )
        # a round that starts at x itself (v = x) measures x's loss afresh
        loss = np.where(beta == 0.0, loss_v, loss)

        # the weights' step direction, the margins' change per unit step
        # and the pieces of the penalty's change
        U = grad_w / _weight_scale(lam)[:, None]
        slope = y * (U @ X.T + grad_b[:, None])
        p = expit(neg_margin)
        uu, uw = _row_dots(U), (U[:, None, :] @ Wv[:, :, None])[:, 0, 0]

        # backtrack from v; a column whose step falls below _MIN_STEP
        # leaves the search and ends at the next round's test
        change = np.empty_like(loss_v)
        trying = np.arange(cols.size)
        while trying.size:
            s = step[trying]
            rows = _softplus_change(neg_margin[trying], p[trying], s[:, None] * slope[trying])
            c = rows.sum(axis=1) / n + 0.5 * lam[trying] * s * (s * uu[trying] - 2.0 * uw[trying])
            ok = c <= -_ARMIJO_C * s * sq[trying]
            change[trying[ok]] = c[ok]
            missed = trying[~ok]
            step[missed] *= 0.5
            trying = missed[step[missed] >= _MIN_STEP]

        moved = step >= _MIN_STEP
        loss_z = loss_v + change
        kept = moved & (loss_z <= loss)
        W_prev[moved], b_prev[moved] = W[moved], b[moved]
        W[kept] = Wv[kept] - step[kept, None] * U[kept]
        b[kept] = bv[kept] - step[kept] * grad_b[kept]
        loss[kept] = loss_z[kept]
        t = np.where(kept, t_next, np.where(moved, 1.0, t))
        step[moved] = np.minimum(step[moved] * 2.0, 1e6)
        rounds += moved


def logreg_fit(
    X, y, lam: float, max_iter: int = 500, tol: float = 1e-6
) -> LogRegModel:
    """Monotone accelerated descent with backtracking from the zero start.

    Stops when the gradient infinity-norm drops below ``tol`` or after
    ``max_iter`` rounds, whichever comes first; ``iterations`` counts the
    rounds.  This is the one-penalty case of the descent that tunes the
    penalty.
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
