"""Ternary sparse random projections.

A projection maps ``input_dim`` sparse binary features to ``output_dim``
dense real features.  Each entry of the projection matrix is
independently

    -sqrt(s / output_dim)  with probability 1 / (2 s)
    0                      with probability 1 - 1 / s
    +sqrt(s / output_dim)  with probability 1 / (2 s)

with ``s = 1 / density``.  It is stored as its nonzero pattern, an
(input_dim, output_dim) :class:`~srplearn.sparse.SparseBinaryMatrix` in
CSR layout, plus one sign per stored entry; the values are the signs
times the common magnitude.  Entries are generated by a counter-based
stream keyed on (seed, input row), so any row can be produced out of
order and regeneration from the same parameters is exact.

Row ``i`` is the Philox stream with key ``(k0, i)`` started at counter 0:
``2 * output_dim`` uniforms, the first half deciding which columns are
nonzero and the second half their signs.  One Philox generator per call
is rewound to each row's key in turn, and rows are drawn into a block of
at most ``_BLOCK_DOUBLES`` doubles that is thresholded at once.  The
result is bit-identical to a fresh ``Philox(key=[seed, row])`` per row,
which is how the stream was first defined.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .sparse import SparseBinaryMatrix

__all__ = [
    "SparseProjection",
    "default_density",
    "make_projection",
    "ternary_row",
    "apply_projection",
    "derive_seed",
]

_MASK64 = (1 << 64) - 1
# uniforms drawn per block of rows (2 MB); a wider row is a block of its own
_BLOCK_DOUBLES = 1 << 18


def derive_seed(seed: int, stream: int) -> int:
    """Deterministic 64-bit child seed for an independent random stream."""
    ss = np.random.SeedSequence([seed & _MASK64, stream & _MASK64])
    return int(ss.generate_state(1, np.uint64)[0])


def default_density(input_dim: int) -> float:
    """Default projection density 1/sqrt(input_dim).

    Keeps the expected work per input row low while the projected output
    stays dense with few exact zeros.
    """
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    return 1.0 / math.sqrt(input_dim)


def _ternary_rows(seed: int, start: int, stop: int, output_dim: int, density: float):
    """Nonzero pattern of projection rows ``start .. stop - 1``.

    Returns (counts, cols, positive): the nonzero count of each row, the
    increasing column indices of each row in turn, and a boolean sign per
    entry.
    """
    # Key word 0 comes from the key list exactly as the per-row stream
    # built it, including numpy's rounding of seeds >= 2**63 to float64.
    bitgen = np.random.Philox(key=[seed & _MASK64, 0])
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0, empty buffer
    key = state["state"]["key"]
    width = 2 * output_dim
    block_rows = max(1, min(stop - start, _BLOCK_DOUBLES // max(width, 1)))
    block = np.empty((block_rows, width), dtype=np.float64)
    count_parts, col_parts, pos_parts = [], [], []
    for first in range(start, stop, block_rows):
        u = block[: min(block_rows, stop - first)]
        for r in range(u.shape[0]):
            key[1] = first + r
            bitgen.state = state
            gen.random(out=u[r])
        rows, cols = np.nonzero(u[:, :output_dim] < density)
        count_parts.append(np.bincount(rows, minlength=u.shape[0]))
        col_parts.append(cols)
        pos_parts.append(u[:, output_dim:][rows, cols] < 0.5)
    return (
        np.concatenate(count_parts),
        np.concatenate(col_parts),
        np.concatenate(pos_parts),
    )


def ternary_row(seed: int, row_index: int, output_dim: int, density: float):
    """Nonzero pattern of one projection row.

    Returns (cols, signs): the strictly increasing column indices of the
    nonzero entries and their signs (+1.0 / -1.0).  Two fixed-length
    uniform draws per row (zero mask, then signs) make every entry a pure
    function of (seed, row_index, column).  This is the one-row case of
    the block generator behind :func:`make_projection`, so it equals row
    ``row_index`` of any projection with the same seed, width and density.
    """
    if row_index < 0:
        raise ValueError("row_index must be >= 0")
    _, cols, positive = _ternary_rows(
        seed, row_index, row_index + 1, output_dim, density
    )
    return cols, np.where(positive, 1.0, -1.0)


def _check_params(input_dim: int, output_dim: int, density: float) -> None:
    if input_dim < 1 or output_dim < 1:
        raise ValueError("projection dimensions must be >= 1")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")


class SparseProjection:
    """Immutable ternary projection: a nonzero pattern and one sign per entry.

    ``pattern`` is the (input_dim, output_dim) :class:`SparseBinaryMatrix`
    of nonzero entries, whose constructor checks their range and order.
    ``positive`` holds one boolean per stored entry, in pattern order, and
    ``values`` the float64 entries built from it: +sqrt(s / output_dim)
    where True, the negative where False, with ``s = 1/density``.  The
    ``seed`` is that of the counter-based generator.
    """

    __slots__ = ("pattern", "positive", "density", "seed", "values")

    def __init__(self, pattern: SparseBinaryMatrix, positive, density, seed):
        _check_params(pattern.n_rows, pattern.n_cols, density)
        positive = np.ascontiguousarray(positive, dtype=bool)
        if positive.shape != (pattern.nnz,):
            raise ValueError("one sign per stored entry of the pattern required")
        magnitude = math.sqrt((1.0 / density) / pattern.n_cols)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "density", float(density))
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "values", np.where(positive, magnitude, -magnitude))

    def __setattr__(self, name, value):
        raise AttributeError("SparseProjection is immutable")

    @property
    def input_dim(self) -> int:
        return self.pattern.n_rows

    @property
    def output_dim(self) -> int:
        return self.pattern.n_cols

    @property
    def s(self) -> float:
        return 1.0 / self.density

    @property
    def nnz(self) -> int:
        return self.pattern.nnz

    def to_scipy(self) -> sp.csr_matrix:
        """A fresh CSR over ``values`` and the pattern's index arrays, which
        it shares (do not mutate); nothing is copied or cached."""
        return sp.csr_matrix(
            (self.values, self.pattern.indices, self.pattern.indptr),
            shape=self.pattern.shape,
        )

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    def metadata(self) -> dict:
        """The four values the projection is reproducible from."""
        return {
            "input_dim": self.input_dim,
            "output_dim": self.output_dim,
            "density": self.density,
            "seed": self.seed,
        }

    def __repr__(self) -> str:
        return (
            f"SparseProjection(input_dim={self.input_dim}, "
            f"output_dim={self.output_dim}, density={self.density}, "
            f"seed={self.seed}, nnz={self.nnz})"
        )


def make_projection(
    input_dim: int, output_dim: int, density: float | None = None, seed: int = 0
) -> SparseProjection:
    """Generate the ternary projection for the given parameters.

    ``density=None`` uses ``default_density(input_dim)``; this is the one
    place that default is resolved, and callers read it back as
    ``.density``.  The result is a deterministic function of (input_dim,
    output_dim, density, seed).
    """
    if density is None:
        density = default_density(input_dim)
    _check_params(input_dim, output_dim, density)
    counts, cols, positive = _ternary_rows(seed, 0, input_dim, output_dim, density)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    pattern = SparseBinaryMatrix(indptr, cols, output_dim)
    return SparseProjection(pattern, positive, density, seed)


def apply_projection(X, P: SparseProjection) -> np.ndarray:
    """Project ``X`` (sparse binary or dense rows) to (n_rows, output_dim).

    Output is dense float64 with a fixed accumulation order, so reruns
    give identical bits.
    """
    if isinstance(X, SparseBinaryMatrix):
        if X.n_cols != P.input_dim:
            raise ValueError(
                f"feature dimensions differ: {X.n_cols} vs {P.input_dim}"
            )
        return (X.to_scipy() @ P.to_scipy()).toarray()
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("dense input must be 2-D")
    if X.shape[1] != P.input_dim:
        raise ValueError(
            f"feature dimensions differ: {X.shape[1]} vs {P.input_dim}"
        )
    return np.ascontiguousarray((P.to_scipy().T @ X.T).T)
