"""Dataset ingestion, subsampling and synthetic data generation.

The on-disk format is svmlight text: one sample per line,
``<label> <index>:<value> ...``.  A configurable number of the
lowest-numbered feature indices form a dense real-valued block; all
remaining indices are binarized (any nonzero value becomes 1).

The reader takes a file in blocks of whole lines.  Per line it only
strips the comment, splits on whitespace and parses the label; the
``index:value`` tokens of a block are converted and validated together
with numpy (see :func:`read_svmlight` for the accepted syntax and the
order in which errors are reported).  The writer assembles a whole file
from the arrays, so no Python code runs per feature token in either
direction.

Synthetic rows come from the sampler of :mod:`srplearn.projection`, in
time and memory proportional to their nonzeros.  Each row has two
segments: the first ``signal_features`` columns, at a rate set by the
row's true class, then the remaining columns at the base density.
Segment ``k`` of row ``i`` is the Bernoulli positions of row ``i`` of the
counter stream seeded ``derive_seed(derive_seed(seed, _DATA_STREAM), k)``:
k = 0 for the signal segment, 1 for the background, and 2 for a
one-column segment whose one entry flips the row's label.  So a row
depends on (seed, row) alone, the features do not depend on the flip
probability, and no stream a model derives from the same seed repeats
the data's.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .exceptions import SvmlightParseError
from .matio import format_ints, join_lines, parse_ints, token_buffer
from .projection import _bernoulli_rows, _row_blocks, derive_seed
from .sparse import SparseBinaryMatrix

__all__ = [
    "Dataset",
    "read_svmlight",
    "write_svmlight",
    "subsample",
    "subsample_indices",
    "synth_generate",
]


class Dataset:
    """Sparse binary rows, an optional dense block, and labels in {-1, +1}."""

    __slots__ = ("sparse", "dense", "labels", "name")

    def __init__(self, sparse: SparseBinaryMatrix, dense, labels, name: str = ""):
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size != sparse.n_rows:
            raise ValueError("one label per row required")
        if labels.size and not np.all(np.isin(np.unique(labels), (-1, 1))):
            raise ValueError("labels must be -1 or +1")
        if dense is not None:
            dense = np.asarray(dense, dtype=np.float64)
            if dense.ndim != 2 or dense.shape[0] != sparse.n_rows:
                raise ValueError("dense block must have one row per sample")
            if not np.all(np.isfinite(dense)):
                raise ValueError("dense block must be finite")
        self.sparse = sparse
        self.dense = dense
        self.labels = labels
        self.name = name

    @property
    def n_samples(self) -> int:
        return self.sparse.n_rows

    @property
    def n_sparse_features(self) -> int:
        return self.sparse.n_cols

    @property
    def n_dense_features(self) -> int:
        return 0 if self.dense is None else self.dense.shape[1]

    def take(self, idx) -> "Dataset":
        """New dataset with rows ``idx`` in the given order."""
        idx = np.asarray(idx, dtype=np.int64)
        dense = None if self.dense is None else self.dense[idx]
        return Dataset(self.sparse.take_rows(idx), dense, self.labels[idx], self.name)

    def __repr__(self) -> str:
        return (
            f"Dataset(name={self.name!r}, n={self.n_samples}, "
            f"sparse={self.n_sparse_features}, dense={self.n_dense_features})"
        )


# Text read per block; a block is then completed to the end of its line.
_BLOCK_BYTES = 1 << 22
# Stream id of the synthetic data ("synth" in ASCII).  It is above 2**32,
# so no stream id a model derives from its seed (elm's, or a method's
# crc32 in bench) equals it, and data and models never share a stream.
_DATA_STREAM = 0x73796E7468
# Values of the form [+-]?[0-9]{1,15} are exact in float64 and converted
# by integer arithmetic; every other value goes through numpy's float
# parser, after this pattern (Python's float syntax without "_" digit
# separators or non-ASCII digits) has accepted it.
_FLOAT = (
    rb"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
    rb"|(?i:infinity|inf|nan))"
)
# first value (of values joined by single spaces) that does not match
_BAD_FLOAT = re.compile(rb"(?:^| )(?!" + _FLOAT + rb"(?: |\Z))")
# the token checks in the order they apply within a token
_TOKEN_ERRORS = (
    "bad feature token",
    "feature index below base:",
    "duplicate feature index",
    "non-finite value",
)


def read_svmlight(
    path: str,
    dense_feature_count: int = 0,
    index_base: int = 1,
    n_features: int | None = None,
) -> Dataset:
    """Parse an svmlight file into a Dataset.

    The first ``dense_feature_count`` feature indices (after removing
    ``index_base``) hold real values in a dense block; every remaining
    index becomes a binary sparse feature regardless of its stored value
    (zero values are dropped).  Out-of-order indices within a line are
    tolerated and sorted; duplicates are an error.

    ``n_features`` fixes the total feature count (dense block plus
    sparse width); by default the sparse width is inferred as the
    largest sparse index plus one.

    The file is read in blocks of whole lines of about 4 MB.
    Python work is per line only: strip the ``#`` comment, split on
    whitespace, parse the label.  The ``index:value`` tokens of a block
    are converted and checked with whole-array numpy operations.  An
    index is ``[+-]?[0-9]{1,18}`` and a value follows Python's float
    syntax, both in ASCII digits without ``_`` separators.

    Errors raise :class:`SvmlightParseError` for the first offending
    item in file order; within a line the label comes first, then token
    by token: a malformed token, an index below the base, a duplicate
    index (its later occurrence), a non-finite value.  A sparse index
    beyond the width that ``n_features`` implies is reported after the
    whole file is read, at line 0.
    """
    if index_base not in (0, 1):
        raise ValueError("index_base must be 0 or 1")
    if dense_feature_count < 0:
        raise ValueError("dense_feature_count must be >= 0")
    # a zero-row block gives the empty file its shapes
    blocks = [_parse_block(path, [], 1, dense_feature_count, index_base)]
    line_no = 1
    with open(path, "rb") as handle:
        while block := handle.read(_BLOCK_BYTES):
            if not block.endswith(b"\n"):
                block += handle.readline()
            # the universal newlines of text mode: "\r\n" and "\r" end lines too
            text = block.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
            lines = text.split("\n")
            if not lines[-1]:
                lines.pop()
            blocks.append(
                _parse_block(path, lines, line_no, dense_feature_count, index_base)
            )
            line_no += len(lines)
    labels, dense, counts, indices = (np.concatenate(c) for c in zip(*blocks))
    max_sparse = int(indices.max()) if indices.size else -1
    if n_features is None:
        sparse_width = max_sparse + 1
    else:
        sparse_width = n_features - dense_feature_count
        if sparse_width < 0:
            raise ValueError("n_features smaller than dense_feature_count")
        if max_sparse >= sparse_width:
            raise SvmlightParseError(
                path,
                0,
                f"sparse index {max_sparse} exceeds width {sparse_width} "
                f"implied by n_features={n_features}",
            )
    indptr = np.concatenate(([0], np.cumsum(counts)))
    sparse = SparseBinaryMatrix(indptr, indices, sparse_width)
    name = os.path.splitext(os.path.basename(path))[0]
    return Dataset(sparse, dense if dense_feature_count else None, labels, name)


def _parse_block(path, lines, first_line, n_dense, index_base):
    """(labels, dense rows, sparse count per row, sparse indices) of the
    non-empty lines in ``lines``, whose first is line ``first_line``."""
    row_lines, labels, counts, tokens = [], [], [], []
    bad_label = None
    for line_no, line in enumerate(lines, start=first_line):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            labels.append(float(parts[0]))
        except ValueError:
            # raised after the tokens of the lines before it are checked
            bad_label = SvmlightParseError(path, line_no, f"bad label {parts[0]!r}")
            break
        row_lines.append(line_no)
        counts.append(len(parts) - 1)
        tokens += parts[1:]

    buf, start, stop = token_buffer(tokens)
    n = len(tokens)
    colons = np.flatnonzero(buf == 58)  # ':'
    owner = np.searchsorted(stop, colons)
    colon = stop.copy()  # no colon: the whole token is the index, the value empty
    colon[owner] = colons
    value_start = np.minimum(colon + 1, stop)
    index, index_ok = parse_ints(buf, start, colon)
    value_int, value_ok = parse_ints(buf, value_start, stop, max_digits=15)
    malformed = (np.bincount(owner, minlength=n) != 1) | ~index_ok
    values = value_int.astype(np.float64)
    values[(value_int == 0) & (buf[value_start] == 45)] = -0.0  # float("-0")

    general = np.flatnonzero(~malformed & ~value_ok)
    parsed, n_valid = _parse_floats(buf, value_start[general], stop[general])
    values[general[:n_valid]] = parsed
    malformed[general[n_valid : n_valid + 1]] = True

    # every check below runs on the tokens before the first malformed one
    cut = int(np.argmax(malformed)) if malformed.any() else n
    row = np.repeat(np.arange(len(counts)), counts)
    r, index, values = row[:cut], index[:cut] - index_base, values[:cut]
    # lines already in ascending index order (the svmlight convention) need no sort
    ascending = (r[1:] != r[:-1]) | (index[1:] > index[:-1])
    order = np.arange(cut) if ascending.all() else np.lexsort((index, r))
    row_s, index_s = r[order], index[order]
    duplicate = np.zeros(cut, dtype=bool)
    duplicate[order[1:]] = (row_s[1:] == row_s[:-1]) & (index_s[1:] == index_s[:-1])
    first, kind = cut, 0
    # strictly earlier hits only: on one token the earlier check wins
    for k, flags in enumerate((index < 0, duplicate, ~np.isfinite(values)), start=1):
        hits = np.flatnonzero(flags[:first])
        if hits.size:
            first, kind = int(hits[0]), k
    if first < n:
        detail = index[first] + index_base if kind == 2 else repr(tokens[first])
        raise SvmlightParseError(
            path, row_lines[row[first]], f"{_TOKEN_ERRORS[kind]} {detail}"
        )
    if bad_label is not None:
        raise bad_label

    values_s = values[order]
    in_dense = index_s < n_dense
    dense = np.zeros((len(counts), n_dense), dtype=np.float64)
    dense[row_s[in_dense], index_s[in_dense]] = values_s[in_dense]
    sparse = ~in_dense & (values_s != 0.0)
    return (
        np.where(np.asarray(labels) > 0, 1, -1),
        dense,
        np.bincount(row_s[sparse], minlength=len(counts)),
        index_s[sparse] - n_dense,
    )


def _parse_floats(buf, start, stop):
    """Values of the fields ``buf[start[k]:stop[k]]``, by numpy's float parser.

    Each field must be followed by a space in ``buf``.  Returns (values,
    n_valid): the fields before the first one that ``_FLOAT`` rejects,
    converted; that field's position is ``n_valid``.
    """
    lengths = stop + 1 - start  # each field with the space after it
    offsets = np.cumsum(lengths) - lengths
    text = buf[
        np.repeat(start - offsets, lengths) + np.arange(lengths.sum())
    ].tobytes()[:-1]
    bad = _BAD_FLOAT.search(text) if start.size else None
    if bad is None:
        return np.fromstring(text, dtype=np.float64, sep=" "), start.size
    valid = text[: bad.start()]
    return np.fromstring(valid, dtype=np.float64, sep=" "), text.count(b" ", 0, bad.end())


def write_svmlight(ds: Dataset, path: str, index_base: int = 1) -> None:
    """Inverse of :func:`read_svmlight`; round-trips exactly.

    Dense values are written with 17 significant digits so re-reading
    reproduces them bit for bit; zero dense values are omitted.  The
    file's bytes are assembled from the arrays in one pass; only the
    dense values are formatted one by one.
    """
    if index_base not in (0, 1):
        raise ValueError("index_base must be 0 or 1")
    n = ds.n_samples
    if ds.dense is None:
        dense_rows = dense_cols = np.empty(0, dtype=np.int64)
        dense_values = []
    else:
        dense_rows, dense_cols = np.nonzero(ds.dense)
        dense_values = ds.dense[dense_rows, dense_cols].tolist()
    dense_text = map("{}:{:.17g}".format, (dense_cols + index_base).tolist(), dense_values)
    sparse = ds.sparse
    # widened before the offset, which can overflow an int32 index array
    sparse_cols = sparse.indices.astype(np.int64) + ds.n_dense_features + index_base
    groups = (
        token_buffer(np.where(ds.labels > 0, "+1", "-1").tolist()),
        token_buffer(list(dense_text)),
        format_ints(sparse_cols, b":1"),
    )
    # label, then dense, then sparse entries: a stable sort by row keeps that order
    owner = np.concatenate(
        (np.arange(n), dense_rows, np.repeat(np.arange(n), np.diff(sparse.indptr)))
    )
    order = np.argsort(owner, kind="stable")
    shifts = np.cumsum([0] + [g[0].size for g in groups[:-1]])
    buf = np.concatenate([g[0] for g in groups])
    start = np.concatenate([g[1] + k for g, k in zip(groups, shifts)])[order]
    stop = np.concatenate([g[2] + k for g, k in zip(groups, shifts)])[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=n))))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(join_lines(buf, start, stop, indptr).decode("ascii"))


def subsample_indices(n_total: int, n: int, seed: int) -> np.ndarray:
    """Sorted indices of n rows sampled without replacement (seeded)."""
    if not 0 <= n <= n_total:
        raise ValueError(f"cannot sample {n} of {n_total} rows")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n_total, size=n, replace=False))


def subsample(ds: Dataset, n: int, seed: int) -> Dataset:
    """n rows sampled without replacement, kept in original row order."""
    return ds.take(subsample_indices(ds.n_samples, n, seed))


def synth_generate(
    n: int,
    n_features: int,
    density: float,
    signal_features: int,
    flip_prob: float,
    seed: int,
) -> Dataset:
    """Sparse binary two-class data with a tunable planted signal.

    Labels alternate +1/-1 (balanced).  Background features activate
    i.i.d. at ``density``; the first ``signal_features`` features
    activate at ``density * 4`` for true class +1 and ``density / 4`` for
    true class -1.  Finally each label flips with ``flip_prob``.

    With ``s = derive_seed(seed, _DATA_STREAM)``, row ``i``'s signal
    columns are the Bernoulli positions in ``[0, signal_features)`` of row
    ``i`` of stream ``derive_seed(s, 0)``; its background columns are
    ``signal_features`` plus those in ``[0, n_features - signal_features)``
    of stream ``derive_seed(s, 1)``; its label flips when stream
    ``derive_seed(s, 2)`` puts an entry in ``[0, 1)`` at rate
    ``flip_prob``.  The streams and the gap sampling are those of
    projection rows (see :mod:`srplearn.projection`), drawn in blocks of
    at most ``_BLOCK_DRAWS`` draws per segment; only the nonzeros are
    drawn, so the work is O(nnz + n).
    """
    if n < 1 or n_features < 1:
        raise ValueError("n and n_features must be >= 1")
    if not 0 <= signal_features <= n_features:
        raise ValueError("signal_features must be in [0, n_features]")
    if not 0.0 <= flip_prob < 0.5:
        raise ValueError("flip_prob must be in [0, 0.5)")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    if signal_features and density * 4.0 > 1.0:
        raise ValueError("density * 4 must not exceed 1 for signal features")
    true_labels = np.where(np.arange(n) % 2 == 0, 1, -1)
    # (width, rate per row) of the signal, background and flip segments
    segments = [
        (signal_features, np.where(true_labels > 0, density * 4.0, density * 0.25)),
        (n_features - signal_features, np.full(n, density)),
        (1, np.full(n, flip_prob)),
    ]
    data_seed = derive_seed(seed, _DATA_STREAM)
    seeds = [derive_seed(data_seed, k) for k in range(len(segments))]
    mean = sum(width * float(rate.max()) for width, rate in segments)
    counts, cols, flips = [], [], []
    for lo, hi in _row_blocks(0, n, mean):
        (_, signal_row, _, signal_col), (_, row, _, col), (_, flip, _, _) = (
            _bernoulli_rows(key, lo, hi, width, rate[lo:hi])
            for key, (width, rate) in zip(seeds, segments)
        )
        row = np.concatenate((signal_row, row))
        # a stable sort keeps each row's signal columns before its background
        order = np.argsort(row, kind="stable")
        counts.append(np.bincount(row, minlength=hi - lo))
        cols.append(np.concatenate((signal_col, col + signal_features))[order])
        flips.append(flip + lo)
    labels = true_labels.copy()
    labels[np.concatenate(flips)] *= -1
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    sparse = SparseBinaryMatrix(indptr, np.concatenate(cols), n_features)
    name = f"synth-n{n}-d{n_features}-s{signal_features}-seed{seed}"
    return Dataset(sparse, None, labels, name)
