"""Ternary sparse random projections.

A projection maps ``input_dim`` sparse binary features to ``output_dim``
dense real features.  Each entry of the implicit projection matrix is
independently

    -sqrt(s / output_dim)  with probability 1 / (2 s)
    0                      with probability 1 - 1 / s
    +sqrt(s / output_dim)  with probability 1 / (2 s)

with ``s = 1 / density``.  Entries are generated by a counter-based
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

    Returns (rows, cols, positive): index arrays sorted by (row, col) and
    a boolean sign per entry.
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
    row_parts, col_parts, pos_parts = [], [], []
    for first in range(start, stop, block_rows):
        u = block[: min(block_rows, stop - first)]
        for r in range(u.shape[0]):
            key[1] = first + r
            bitgen.state = state
            gen.random(out=u[r])
        rows, cols = np.nonzero(u[:, :output_dim] < density)
        row_parts.append(rows + first)
        col_parts.append(cols)
        pos_parts.append(u[:, output_dim:][rows, cols] < 0.5)
    return (
        np.concatenate(row_parts),
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


class SparseProjection:
    """Immutable ternary projection matrix in triplet form.

    Parameters
    ----------
    input_dim, output_dim : int
        Shape of the (implicit) projection matrix.
    density : float
        Probability that an entry is nonzero; ``s = 1/density``.
    seed : int
        Seed of the counter-based generator.
    rows, cols : int64 arrays
        Triplet coordinates, sorted by (row, col) with no duplicates.
    values : float64 array
        Entries, each exactly +magnitude or -magnitude where
        magnitude = sqrt(s / output_dim).
    """

    __slots__ = (
        "input_dim",
        "output_dim",
        "density",
        "s",
        "seed",
        "rows",
        "cols",
        "values",
        "_csr",
    )

    def __init__(self, input_dim, output_dim, density, seed, rows, cols, values):
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ValueError("rows, cols, values must be equal-length 1-D arrays")
        if input_dim < 1 or output_dim < 1:
            raise ValueError("projection dimensions must be >= 1")
        if not 0.0 < density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        s = 1.0 / density
        magnitude = math.sqrt(s / output_dim)
        if values.size:
            if rows.min() < 0 or rows.max() >= input_dim:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= output_dim:
                raise ValueError("column index out of range")
            if not np.all(np.abs(values) == magnitude):
                raise ValueError(
                    "every value must be exactly +/- sqrt(s/output_dim)"
                )
            key = rows * output_dim + cols
            if np.any(np.diff(key) <= 0):
                raise ValueError(
                    "triplets must be sorted by (row, col) with no duplicates"
                )
        object.__setattr__(self, "input_dim", int(input_dim))
        object.__setattr__(self, "output_dim", int(output_dim))
        object.__setattr__(self, "density", float(density))
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_csr", None)

    def __setattr__(self, name, value):
        raise AttributeError("SparseProjection is immutable")

    @property
    def magnitude(self) -> float:
        return math.sqrt(self.s / self.output_dim)

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def to_scipy(self) -> sp.csr_matrix:
        """CSR form of the projection matrix (cached)."""
        if self._csr is None:
            csr = sp.csr_matrix(
                (self.values, (self.rows, self.cols)),
                shape=(self.input_dim, self.output_dim),
            )
            csr.sort_indices()
            object.__setattr__(self, "_csr", csr)
        return self._csr

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.input_dim, self.output_dim), dtype=np.float64)
        out[self.rows, self.cols] = self.values
        return out

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

    ``density=None`` uses ``default_density(input_dim)``.  The result is a
    deterministic function of (input_dim, output_dim, density, seed).
    """
    if input_dim < 1 or output_dim < 1:
        raise ValueError("projection dimensions must be >= 1")
    if density is None:
        density = default_density(input_dim)
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    magnitude = math.sqrt((1.0 / density) / output_dim)
    rows, cols, positive = _ternary_rows(seed, 0, input_dim, output_dim, density)
    values = np.where(positive, magnitude, -magnitude)
    return SparseProjection(input_dim, output_dim, density, seed, rows, cols, values)


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
        if X.n_rows == 0:
            return np.zeros((0, P.output_dim), dtype=np.float64)
        product = X.to_scipy() @ P.to_scipy()
        return np.asarray(product.todense(), dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("dense input must be 2-D")
    if X.shape[1] != P.input_dim:
        raise ValueError(
            f"feature dimensions differ: {X.shape[1]} vs {P.input_dim}"
        )
    if X.shape[0] == 0:
        return np.zeros((0, P.output_dim), dtype=np.float64)
    return np.ascontiguousarray((P.to_scipy().T @ X.T).T)
