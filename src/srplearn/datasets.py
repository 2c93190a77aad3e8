"""Dataset ingestion, subsampling and synthetic data generation.

The on-disk format is svmlight text: one sample per line,
``<label> <index>:<value> ...``.  A configurable number of the
lowest-numbered feature indices form a dense real-valued block; all
remaining indices are binarized (any nonzero value becomes 1).
"""

from __future__ import annotations

import os

import numpy as np

from .exceptions import SvmlightParseError
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


def _parse_label(token: str, path: str, line_no: int) -> int:
    try:
        value = float(token)
    except ValueError:
        raise SvmlightParseError(path, line_no, f"bad label {token!r}") from None
    return 1 if value > 0 else -1


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
    """
    if index_base not in (0, 1):
        raise ValueError("index_base must be 0 or 1")
    if dense_feature_count < 0:
        raise ValueError("dense_feature_count must be >= 0")
    labels = []
    rows = []
    dense_rows = []
    max_sparse = -1
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            labels.append(_parse_label(tokens[0], path, line_no))
            dense = np.zeros(dense_feature_count, dtype=np.float64)
            sparse_idx = []
            seen = set()
            for token in tokens[1:]:
                try:
                    idx_str, val_str = token.split(":", 1)
                    idx = int(idx_str)
                    value = float(val_str)
                except ValueError:
                    raise SvmlightParseError(
                        path, line_no, f"bad feature token {token!r}"
                    ) from None
                idx -= index_base
                if idx < 0:
                    raise SvmlightParseError(
                        path, line_no, f"feature index below base: {token!r}"
                    )
                if idx in seen:
                    raise SvmlightParseError(
                        path, line_no, f"duplicate feature index {idx + index_base}"
                    )
                seen.add(idx)
                if not np.isfinite(value):
                    raise SvmlightParseError(
                        path, line_no, f"non-finite value {token!r}"
                    )
                if idx < dense_feature_count:
                    dense[idx] = value
                elif value != 0.0:
                    sparse_idx.append(idx - dense_feature_count)
            if sparse_idx:
                max_sparse = max(max_sparse, max(sparse_idx))
            rows.append(np.sort(np.asarray(sparse_idx, dtype=np.int64)))
            dense_rows.append(dense)
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
    sparse = SparseBinaryMatrix.from_rows(rows, sparse_width)
    dense = (
        np.vstack(dense_rows)
        if dense_feature_count > 0 and dense_rows
        else (np.zeros((len(rows), dense_feature_count)) if dense_feature_count else None)
    )
    name = os.path.splitext(os.path.basename(path))[0]
    return Dataset(sparse, dense, np.asarray(labels, dtype=np.int64), name)


def write_svmlight(ds: Dataset, path: str, index_base: int = 1) -> None:
    """Inverse of :func:`read_svmlight`; round-trips exactly.

    Dense values are written with 17 significant digits so re-reading
    reproduces them bit for bit; zero dense values are omitted.
    """
    if index_base not in (0, 1):
        raise ValueError("index_base must be 0 or 1")
    n_dense = ds.n_dense_features
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(ds.n_samples):
            parts = ["+1" if ds.labels[i] > 0 else "-1"]
            if ds.dense is not None:
                for j in np.flatnonzero(ds.dense[i]):
                    parts.append(f"{j + index_base}:{ds.dense[i, j]:.17g}")
            for j in ds.sparse.row(i):
                parts.append(f"{int(j) + n_dense + index_base}:1")
            handle.write(" ".join(parts) + "\n")


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
    rng = np.random.default_rng(seed)
    rates = {}
    for cls, factor in ((1, 4.0), (-1, 0.25)):
        r = np.full(n_features, density, dtype=np.float64)
        r[:signal_features] = density * factor
        rates[cls] = r
    true_labels = np.where(np.arange(n) % 2 == 0, 1, -1)
    rows = []
    for i in range(n):
        rows.append(np.flatnonzero(rng.random(n_features) < rates[true_labels[i]]))
    flips = rng.random(n) < flip_prob
    labels = np.where(flips, -true_labels, true_labels)
    sparse = SparseBinaryMatrix.from_rows(rows, n_features)
    name = f"synth-n{n}-d{n_features}-s{signal_features}-seed{seed}"
    return Dataset(sparse, None, labels, name)
