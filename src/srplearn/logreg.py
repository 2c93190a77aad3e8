"""L2-regularized logistic regression trained by Newton's method.

Minimizes mean log-loss plus (lambda/2) ||w||^2 (intercept unpenalized)
by a line-search truncated Newton method (Newton-CG; Nocedal & Wright,
*Numerical Optimization*, Algorithm 7.1).  The penalty is chosen on a
grid by held-out log-loss, since the closed-form leave-one-out identity
of the ridge models does not apply here.

One loop, :func:`_descend`, runs the descent for any number of
penalties at once: tuning advances the whole grid together, sharing
each iteration's matrix products, and a single fit is its one-penalty
case.  Each iteration solves the Newton system approximately by
conjugate gradients, which need only Hessian-vector products
(Lin, Weng & Keerthi 2008), and backtracks from the full Newton step.
Newton's steps do not depend on the scaling of the variables, so the
intercept, whose curvature stays below 1/4, and the weights, whose
curvature grows with lambda, need no step scaling of their own.

A trial's loss change is summed from each row's own softplus change,
``log1p(p expm1(delta))``, rather than taken as the difference of two
rounded losses.  Near the optimum of a very large penalty the remaining
error moves a loss near 0.69 by less than an ulp, so a difference of
rounded losses is noise there; the summed change keeps its own relative
precision, and the search needs no matrix product of its own.

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

# an accepted trial lowers the loss by at least _ARMIJO_C times the
# decrease the slope at the current point predicts (Armijo's rule)
_ARMIJO_C = 1e-4
_MIN_STEP = 1e-20
# conjugate-gradient steps at most per Newton iteration
_CG_STEPS = 30
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


def _row_dots(A, B=None):
    """Each row of ``A`` dotted with the same row of ``B`` (``A`` itself by
    default), as a (1, d) @ (d, 1) product per row: the same BLAS dot as
    ``a @ b`` for one pair of rows."""
    return (A[:, None, :] @ (A if B is None else B)[:, :, None])[:, 0, 0]


def _softplus(m):
    """log(1 + exp(m)), elementwise, without overflow."""
    return np.maximum(m, 0.0) + np.log1p(np.exp(-np.abs(m)))


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
    gradient's infinity norm per row."""
    n = y.size
    yp = y * expit(neg_margin)  # d loss_i / d margin_i = -p
    grad_w = (yp @ X) / -n + lams[:, None] * W
    grad_b = yp.sum(axis=1) / -n
    norm = np.maximum(np.abs(grad_w).max(axis=1, initial=0.0), np.abs(grad_b))
    return grad_w, grad_b, norm


def _loss_grad(X, y, w, b, lam):
    """Loss and gradient at one point: the one-row case of :func:`_losses`
    and :func:`_grads`."""
    W, lams = w[None, :], np.array([lam])
    loss, neg_margin = _losses(X, y, W, np.array([b]), lams)
    grad_w, grad_b, _ = _grads(X, y, W, lams, neg_margin)
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


def _newton_steps(X, lams, curv, grad_w, grad_b):
    """Newton steps by conjugate gradients, one row per problem.

    Solves ``H s = -g`` from ``s = 0``, where ``g`` is a row's gradient and
    ``H`` its Hessian, which multiplies ``v`` as
    ``X'(curv * (X v_w + v_b)) / n + lambda v_w`` (the intercept's entry
    without the penalty) with ``curv = p (1 - p)`` per row.  A row stops
    when its residual falls to ``min(1/2, |g|^(1/2)) |g|``, after
    ``_CG_STEPS`` steps, or at a direction of no positive curvature; there
    it keeps the step so far, or ``-g`` on the first direction.  The rows
    still solving share each step's two matrix products.  Returns the
    steps' weights and intercepts and ``X s_w + s_b`` per row.
    """
    n = curv.shape[1]
    S_w, S_b, XS = np.zeros_like(grad_w), np.zeros_like(grad_b), np.zeros_like(curv)
    # the rows still solving, their residual H s + g, its squared norm and
    # their direction
    rows, lam, R_w, R_b = np.arange(lams.size), lams, grad_w, grad_b
    rr, D_w, D_b = _row_dots(grad_w) + grad_b * grad_b, -grad_w, -grad_b
    goal = np.minimum(0.25, np.sqrt(rr)) * rr
    for j in range(_CG_STEPS):
        XD = D_w @ X.T + D_b[:, None]
        CXD = curv * XD
        dHd = (CXD * XD).sum(axis=1) / n + lam * _row_dots(D_w)
        flat = dHd <= 0.0
        alpha = np.divide(rr, dHd, out=np.full(rr.size, float(j == 0)), where=~flat)
        S_w[rows] += alpha[:, None] * D_w
        S_b[rows] += alpha * D_b
        XS[rows] += alpha[:, None] * XD
        R_w = R_w + alpha[:, None] * ((CXD @ X) / n + lam[:, None] * D_w)
        R_b = R_b + alpha * CXD.sum(axis=1) / n
        rr_next = _row_dots(R_w) + R_b * R_b
        go = ~flat & (rr_next > goal)
        if not np.count_nonzero(go):
            break
        rows, lam, curv, R_w, R_b, D_w, D_b, rr, rr_next, goal = (
            a[go] for a in (rows, lam, curv, R_w, R_b, D_w, D_b, rr, rr_next, goal)
        )
        beta = rr_next / rr
        D_w, D_b, rr = beta[:, None] * D_w - R_w, beta * D_b - R_b, rr_next
    return S_w, S_b, XS


def _descend(X, y, lams, max_iter, tol):
    """Newton-CG from the zero start, one column per penalty.

    An iteration takes the loss and gradient at the current point, a
    Newton step by :func:`_newton_steps`, and backtracks along it from the
    unit step, halving until the loss falls by at least ``_ARMIJO_C``
    times the step times the slope along it.  A trial costs elementwise
    work only (:func:`_softplus_change` along the step's margins, and the
    penalty's change in closed form), and the loss never rises.

    An iteration whose search finds no step of at least ``_MIN_STEP``, as
    where the loss is flat to float64, leaves its point where it is.  A
    column stops when the gradient infinity-norm at its point drops below
    ``tol`` (``converged``) or after ``max_iter`` iterations, and returns
    its point.  The columns still descending share each iteration's
    products.  Returns (weights (G, d), intercepts, converged flags,
    iteration counts), one entry per penalty.
    """
    G, n = lams.size, y.size
    W_out = np.zeros((G, X.shape[1]), dtype=np.float64)
    b_out = np.zeros(G, dtype=np.float64)
    converged = np.zeros(G, dtype=bool)
    iterations = np.zeros(G, dtype=np.int64)

    # the penalties still descending, in grid order, and their points;
    # every one has taken ``it`` iterations
    cols, lam, W, b = np.arange(G), lams, W_out.copy(), b_out.copy()
    for it in range(max_iter + 1):
        loss, neg_margin = _losses(X, y, W, b, lam)
        if not np.all(np.isfinite(loss)):
            raise NumericalDivergenceError("loss is not finite", it)
        grad_w, grad_b, grad_norm = _grads(X, y, W, lam, neg_margin)
        conv = grad_norm < tol
        done = conv | (it == max_iter)
        if np.count_nonzero(done):
            ended = cols[done]
            W_out[ended], b_out[ended] = W[done], b[done]
            converged[ended], iterations[ended] = conv[done], it
            if np.all(done):
                return W_out, b_out, converged, iterations
            cols, lam, W, b, neg_margin, grad_w, grad_b = (
                a[~done] for a in (cols, lam, W, b, neg_margin, grad_w, grad_b)
            )

        p = expit(neg_margin)
        S_w, S_b, XS = _newton_steps(X, lam, p * expit(-neg_margin), grad_w, grad_b)
        # the negated margins' change per unit step, the slope along the
        # step and the pieces of the penalty's change
        slope = -y * XS
        gs = _row_dots(grad_w, S_w) + grad_b * S_b
        ss, sw = _row_dots(S_w), _row_dots(S_w, W)

        step = np.ones(cols.size)
        trying = np.arange(cols.size)
        while trying.size:
            s = step[trying]
            rows = _softplus_change(neg_margin[trying], p[trying], s[:, None] * slope[trying])
            c = rows.sum(axis=1) / n + 0.5 * lam[trying] * s * (s * ss[trying] + 2.0 * sw[trying])
            missed = trying[c > _ARMIJO_C * s * gs[trying]]
            step[missed] *= 0.5
            trying = missed[step[missed] >= _MIN_STEP]

        step[step < _MIN_STEP] = 0.0
        W += step[:, None] * S_w
        b += step * S_b


def logreg_fit(
    X, y, lam: float, max_iter: int = 500, tol: float = 1e-6
) -> LogRegModel:
    """Newton-CG with backtracking from the zero start.

    Stops when the gradient infinity-norm drops below ``tol`` or after
    ``max_iter`` Newton iterations, whichever comes first; ``iterations``
    counts them.  This is the one-penalty case of the descent that tunes
    the penalty.
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
