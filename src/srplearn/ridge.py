"""Ridge regression with closed-form leave-one-out model selection.

For a design matrix H and targets Y, the ridge solution at penalty l is
beta(l) = (H'H + l I)^-1 H'Y = H'(HH' + l I)^-1 Y.  The leave-one-out
residual of sample i is (y_i - yhat_i) / (1 - h_ii) where h_ii is the
i-th leverage, the diagonal of H (H'H + l I)^-1 H'.  Summing its squared
norm over samples (PRESS) gives the exact retrain-every-fold
cross-validation error without retraining; the penalty is chosen by
minimizing it over a grid.

One private core, :func:`_spectral_press`, runs that grid for every
caller from one symmetric eigendecomposition.  ``solve_ridge_press``
decomposes the smaller Gram matrix: H'H (primal) when H has no more
columns than rows, HH' (dual) otherwise, and then returns beta = H'alpha.
Kernel ridge (``kernel.krr_fit``) passes its kernel to the same core, and
logistic regression shares its penalty choice, :func:`_select_penalty`.
"""

from __future__ import annotations

import numpy as np

from . import checks
from .exceptions import DegenerateFitError

__all__ = ["RidgeSolution", "solve_ridge_press", "default_lambda_grid"]

# a penalty is unusable where an eigenvalue of Gram + l I is at or below
# this fraction of the spectrum's scale (numerically singular system)
_SPECTRAL_FLOOR = 1e-14
# a primal 1 - h_ii at or below this is lost to cancellation
_MIN_LOO_DENOM = 1e-12


def default_lambda_grid(min_exp: int = -20, max_exp: int = 20) -> np.ndarray:
    """Powers of two from 2**min_exp to 2**max_exp inclusive."""
    if max_exp < min_exp:
        raise ValueError("max_exp must be >= min_exp")
    return np.power(2.0, np.arange(min_exp, max_exp + 1))


class RidgeSolution:
    """Output weights plus the selected penalty.

    Fields: ``beta`` ((n_features, n_outputs) float64), ``lam`` (selected
    penalty, an element of ``lambda_grid``), ``press_value`` (minimal
    leave-one-out squared error over the grid), ``lambda_grid``.
    """

    __slots__ = ("beta", "lam", "press_value", "lambda_grid")

    def __init__(self, beta, lam, press_value, lambda_grid):
        self.beta = np.asarray(beta, dtype=np.float64)
        self.lam = float(lam)
        self.press_value = float(press_value)
        self.lambda_grid = np.asarray(lambda_grid, dtype=np.float64)

    def __repr__(self) -> str:
        return (
            f"RidgeSolution(shape={self.beta.shape}, lam={self.lam:g}, "
            f"press={self.press_value:g})"
        )


def _select_penalty(lambda_grid, errors_of, name):
    """(grid, errors, winner's index) for the penalty minimizing the error.

    The grid (nonempty, 1-D, finite, >= 0) is checked before ``errors_of``
    is called, once, with the whole checked grid; it returns one error per
    penalty.  The smallest finite error wins, exact ties going to the
    larger penalty; with none finite, DegenerateFitError names ``name``.
    """
    grid = np.asarray(lambda_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("lambda_grid must be a nonempty 1-D sequence")
    if np.any(grid < 0) or not np.all(np.isfinite(grid)):
        raise ValueError("lambda_grid entries must be finite and >= 0")
    errors = np.asarray(errors_of(grid), dtype=np.float64)
    finite = np.isfinite(errors)
    if not np.any(finite):
        raise DegenerateFitError(f"{name} is degenerate for every penalty in the grid")
    candidates = np.flatnonzero(errors == np.min(errors[finite]))
    return grid, errors, int(candidates[np.argmax(grid[candidates])])


def _spectral_press(gram, Y, lambda_grid, H=None):
    """(selected penalty, its PRESS, its coefficients) for one Gram matrix.

    Primal form, ``H`` given and ``gram`` = H'H = Q diag(w) Q': with
    T = HQ the fit at penalty l is T diag(1/(w + l)) T'Y, the leverages
    are (T*T) 1/(w + l), the leave-one-out residual is
    (Y - fitted) / (1 - h) and the coefficients are beta.

    Dual form, ``H`` None and ``gram`` a kernel K = Q diag(w) Q': alpha =
    (K + l I)^-1 Y and the leave-one-out residual is the subtraction-free
    alpha / diag((K + l I)^-1); the coefficients are alpha.

    A penalty with w + l <= 1e-14 * max(1, max|w|), or with a leave-one-out
    denominator at or below 1e-12 (primal 1 - h) or 0 (dual), gets
    infinite error.  The penalty is chosen by :func:`_select_penalty`;
    only the winner's coefficients are formed.  ``Y`` is (n_samples,
    n_outputs).
    """
    w, Q = np.linalg.eigh(gram)
    B = Q if H is None else H @ Q
    C = B.T @ Y
    B2 = B * B
    floor = _SPECTRAL_FLOOR * np.max(np.abs(w), initial=1.0)
    min_denom = 0.0 if H is None else _MIN_LOO_DENOM

    def press(lam):
        denom = w + lam
        if np.any(denom <= floor):
            return np.inf
        inv = 1.0 / denom
        fit = B @ (inv[:, None] * C)    # alpha (dual) or fitted values
        diag = B2 @ inv                 # diag((K + l I)^-1) or leverages
        if H is None:
            resid_num, loo_denom = fit, diag
        else:
            resid_num, loo_denom = Y - fit, 1.0 - diag
        if np.any(loo_denom <= min_denom):
            return np.inf
        resid = resid_num / loo_denom[:, None]
        return float(np.sum(resid * resid))

    grid, errors, best = _select_penalty(
        lambda_grid, lambda grid: [press(lam) for lam in grid], "leave-one-out error"
    )
    inv = 1.0 / (w + grid[best])
    return grid[best], errors[best], Q @ (inv[:, None] * C)


def solve_ridge_press(H, Y, lambda_grid) -> RidgeSolution:
    """Ridge solution with the penalty minimizing leave-one-out error.

    Parameters
    ----------
    H : (n_samples, n_features) array
    Y : (n_samples,) or (n_samples, n_outputs) array
    lambda_grid : nonempty sequence of penalties >= 0

    A grid value whose leverages reach 1 (leave-one-out undefined) gets
    infinite error rather than failing; if that happens for the whole
    grid a DegenerateFitError is raised.
    """
    H = checks.rows(H)
    Y = np.asarray(Y, dtype=np.float64)
    Y = checks.rows(Y[:, None] if Y.ndim == 1 else Y)
    if H.shape[0] != Y.shape[0]:
        raise ValueError(f"row counts differ: {H.shape[0]} vs {Y.shape[0]}")
    if H.shape[1] <= H.shape[0]:
        lam, press, beta = _spectral_press(H.T @ H, Y, lambda_grid, H)
    else:
        lam, press, alpha = _spectral_press(H @ H.T, Y, lambda_grid)
        beta = H.T @ alpha
    return RidgeSolution(beta, lam, press, lambda_grid)
