"""Ternary sparse random projections.

A projection maps ``input_dim`` sparse binary features to ``output_dim``
dense real features.  Each entry of the projection matrix is
independently

    -sqrt(s / output_dim)  with probability 1 / (2 s)
    0                      with probability 1 - 1 / s
    +sqrt(s / output_dim)  with probability 1 / (2 s)

with ``s = 1 / density``.  It is stored as its nonzero pattern, an
(input_dim, output_dim) :class:`~srplearn.sparse.SparseBinaryMatrix` in
CSR layout, plus one sign per stored entry; the values are the signs times
the common magnitude.  Entries are generated by a counter-based stream
keyed on (seed, input row), so any row can be produced out of order and
regeneration from the same parameters is exact.

The stream (version 2, recorded as ``stream`` in :meth:`metadata`) draws
only the nonzeros.  Row ``i`` of seed ``seed`` has the key
``mix(mix(seed mod 2**64) + (i + 1) G)`` and the words
``w_k = mix(key + k G)``, k = 1, 2, ..., where ``mix`` is splitmix64's
finalizer and ``G`` its increment.  All arithmetic is modulo 2**64 and
``mix`` is a bijection, so seeds that differ modulo 2**64 give each row
different keys (a negative seed acts as seed + 2**64).  Draw
``j`` takes ``u = ((w_{2j+1} >> 11) + 1) / 2**53`` in (0, 1] and the gap
``floor(log(u) / log1p(-density))``: the nonzero columns are the
positions of a Bernoulli(density) process, each one gap plus one past the
last (the first is its gap), and the row ends at the first position
at or past ``output_dim``.  Entry ``j`` is positive when the top bit of
``w_{2j+2}`` is clear.  At ``density = 1``, ``log1p(-1)`` is -inf and
every gap is 0, so row ``i`` holds every column and entry ``j`` is column
``j``.  The same sampler, with one rate per row, draws the synthetic data
of :func:`srplearn.datasets.synth_generate`.

All rows of a block are drawn at once with a fixed budget of draws per
row, :func:`_draw_budget`; the rare row that uses up its budget is
extended by further passes, never truncated, so the budget changes no
bit.  A block holds at most ``_BLOCK_DRAWS`` draws (a row whose budget is
larger is a block of its own), which caps the memory of generation at a
few slabs of that size beyond the output, whatever ``input_dim``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .sparse import SparseBinaryMatrix, _read_only

__all__ = [
    "SparseProjection",
    "default_density",
    "make_projection",
    "ternary_row",
    "apply_projection",
    "derive_seed",
]

_MASK64 = (1 << 64) - 1
# version of the generator below, recorded in metadata and saved models
STREAM_VERSION = 2
# splitmix64: the counter increment and the two multipliers of the finalizer
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TOP_BIT = np.uint64(1 << 63)
# draws per block of rows (2 MB per uint64 slab)
_BLOCK_DRAWS = 1 << 18


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


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, in place on a uint64 array."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _words(keys: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Word ``k`` of each row's stream, ``mix(key + k G)`` (broadcast)."""
    return _mix64(keys + k * _GAMMA)


def _row_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """Stream keys of rows ``start .. stop - 1``."""
    base = _mix64(np.array([seed & _MASK64], dtype=np.uint64))
    return _words(base, np.arange(start + 1, stop + 1, dtype=np.uint64))


def _draw_budget(mean: float) -> int:
    """Draws per row and pass: the mean nonzero count plus 8 standard
    deviations and 8 more, so that a second pass is rarely needed."""
    return int(mean + 8.0 * math.sqrt(mean)) + 8


def _positions(keys, first, n, last, width, log_q):
    """Positions reached by draws ``first .. first + n - 1`` of each row,
    the row's previous position being ``last``; shape (keys.size, n)."""
    j = np.arange(first, first + n, dtype=np.uint64)
    w = _words(keys[:, None], 2 * j + 1)
    w >>= np.uint64(11)
    u = w.astype(np.float64)
    del w
    u += 1.0
    u *= 2.0**-53  # (0, 1], exactly
    np.log(u, out=u)
    u /= log_q
    np.floor(u, out=u)
    np.minimum(u, width, out=u)  # a longer gap ends the row all the same
    steps = u.astype(np.int64)
    del u
    steps += 1
    np.cumsum(steps, axis=1, out=steps)
    steps += last[:, None]
    return steps


def _log_q(rate, n):
    """log1p(-rate) for each of ``n`` keys, -inf at rate 1.

    Taken by ``math.log1p`` once per distinct rate, since numpy's may
    differ in the last bit.
    """
    if np.ndim(rate) == 0:
        return np.full(n, math.log1p(-rate) if rate < 1.0 else -math.inf)
    rates, inverse = np.unique(rate, return_inverse=True)
    return np.array([_log_q(r, 1)[0] for r in rates.tolist()])[inverse]


def _bernoulli_rows(seed, lo, hi, width, rate):
    """(keys, row, draw, col): the keys of rows ``lo .. hi - 1`` of stream
    ``seed``, and every Bernoulli(rate) position in ``[0, width)`` of these
    rows, rows counted from ``lo``, in order, and columns increasing inside
    each row.

    ``rate`` is one rate or one per row.  At rate 1 every gap is 0, so
    entry ``j`` is column ``j``; a row at rate 0 has no entries.  Every row
    gets the budget of the largest rate at once, and never more than the
    ``width + 1`` draws that end any row; rows whose last draw is still
    inside get another pass, until every row has ended.
    """
    keys = _row_keys(seed, lo, hi)
    budget = min(_draw_budget(width * float(np.max(rate))), width + 1)
    log_q = _log_q(rate, keys.size)
    rows = np.flatnonzero(log_q < 0.0)
    last = np.full(rows.size, -1, dtype=np.int64)
    first, parts = 0, []
    while rows.size:
        pos = _positions(keys[rows], first, budget, last, width, log_q[rows, None])
        r, j = np.nonzero(pos < width)
        parts.append((rows[r], j + first, pos[r, j]))
        more = pos[:, -1] < width
        rows, last, first = rows[more], pos[more, -1], first + budget
    if len(parts) == 1:
        return (keys, *parts[0])
    none = (np.empty(0, dtype=np.int64),) * 3  # the result when every rate is 0
    row, draw, col = (np.concatenate(p) for p in zip(none, *parts))
    order = np.argsort(row, kind="stable")
    return keys, row[order], draw[order], col[order]


def _row_blocks(start, stop, mean):
    """(lo, hi) of each block of rows ``start .. stop - 1`` with ``mean``
    nonzeros expected per row: at most ``_BLOCK_DRAWS`` draws at the
    budget of that mean, or one row."""
    step = max(1, _BLOCK_DRAWS // _draw_budget(mean))
    return [(lo, min(lo + step, stop)) for lo in range(start, stop, step)]


def _ternary_rows(seed: int, start: int, stop: int, output_dim: int, density: float):
    """Nonzero pattern of projection rows ``start .. stop - 1``.

    Returns (counts, cols, positive): the nonzero count of each row, the
    increasing column indices of each row in turn, and a boolean sign per
    entry.
    """
    col_dtype = np.int32 if output_dim <= 2**31 else np.int64
    count_parts, col_parts, pos_parts = [], [], []
    for lo, hi in _row_blocks(start, stop, output_dim * density):
        keys, row, draw, col = _bernoulli_rows(seed, lo, hi, output_dim, density)
        sign = _words(keys[row], 2 * draw.astype(np.uint64) + 2)
        count_parts.append(np.bincount(row, minlength=hi - lo))
        col_parts.append(col.astype(col_dtype))
        pos_parts.append(sign < _TOP_BIT)
    return (
        np.concatenate(count_parts),
        np.concatenate(col_parts),
        np.concatenate(pos_parts),
    )


def ternary_row(seed: int, row_index: int, output_dim: int, density: float):
    """Nonzero pattern of one projection row.

    Returns (cols, signs): the strictly increasing column indices of the
    nonzero entries and their signs (+1.0 / -1.0).  The row is a pure
    function of (seed, row_index, output_dim, density), drawn from its own
    counter stream, so it equals row ``row_index`` of any projection with
    the same seed, width and density.
    """
    if row_index < 0:
        raise ValueError("row_index must be >= 0")
    _check_params(1, output_dim, density)
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
    where True, the negative where False, with ``s = 1/density``; both are
    read-only views.  The ``seed`` is that of the counter-based generator.
    """

    __slots__ = ("pattern", "positive", "density", "seed", "values")

    def __init__(self, pattern: SparseBinaryMatrix, positive, density, seed):
        _check_params(pattern.n_rows, pattern.n_cols, density)
        positive = np.ascontiguousarray(positive, dtype=bool)
        if positive.shape != (pattern.nnz,):
            raise ValueError("one sign per stored entry of the pattern required")
        magnitude = math.sqrt((1.0 / density) / pattern.n_cols)
        values = np.where(positive, magnitude, -magnitude)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "positive", _read_only(positive))
        object.__setattr__(self, "density", float(density))
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "values", _read_only(values))

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
        it shares read-only; nothing is copied or cached."""
        return sp.csr_matrix(
            (self.values, self.pattern.indices, self.pattern.indptr),
            shape=self.pattern.shape,
        )

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    def metadata(self) -> dict:
        """The values the projection is reproducible from, with the
        version of the stream that generates it."""
        return {
            "input_dim": self.input_dim,
            "output_dim": self.output_dim,
            "density": self.density,
            "seed": self.seed,
            "stream": STREAM_VERSION,
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
