"""Input rules, each written once and applied alike by the library and the
config reader.  A value out of range raises ``ValueError`` (NaN fails
every range); one that cannot be compared at all, such as ``None``,
raises Python's ``TypeError``.  Scalar rules return the value checked.
"""

from __future__ import annotations

import numpy as np


def labels(y, n_rows: int, dtype=np.float64, empty_ok: bool = False) -> np.ndarray:
    """One label per row, each -1 or +1, checked as given, then cast."""
    y = np.asarray(y)
    if y.shape != (n_rows,):
        raise ValueError(f"one label per row required: {y.shape} for {n_rows} rows")
    if n_rows == 0 and not empty_ok:
        raise ValueError("need at least one row")
    if not np.all((y == 1) | (y == -1)):
        raise ValueError("labels must be -1 or +1")
    return y.astype(dtype, copy=False)


def same_width(got: int, expected: int) -> None:
    """Two operands' column counts must agree."""
    if got != expected:
        raise ValueError(f"column counts differ: {got} vs {expected}")


def rows(X, width: int | None = None) -> np.ndarray:
    """Dense rows as a 2-D float64 array, of ``width`` columns when given."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"dense rows must be a 2-D array, got {X.ndim}-D")
    if width is not None:
        same_width(X.shape[1], width)
    return X


def _integer(value, name: str, low: int, high: int | None = None) -> int:
    if not value >= low or high is not None and value > high:
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def count(value, name: str = "count", most: int | None = None) -> int:
    """A width or a count: an integer >= 1, and <= ``most`` if given."""
    return _integer(value, name, 1, most)


def seed(value) -> int:
    """A subsample seed: an integer >= 0, as numpy's generators require."""
    return _integer(value, "seed", 0)


def sample_size(n, pool_rows: int, name: str = "sample size") -> int:
    """Rows drawn without replacement from a pool: an integer in [0, pool_rows]."""
    return _integer(n, name, 0, pool_rows)


def signal_features(value, n_features: int | None = None) -> int:
    """Planted-signal features: an integer in [0, n_features], unbounded
    above without ``n_features``."""
    return _integer(value, "signal_features", 0, n_features)


def neighbors(k, n_train: int | None = None) -> int:
    """An odd integer k in [1, n_train], unbounded above without ``n_train``."""
    k = _integer(k, "k", 1, n_train)
    if k % 2 == 0:
        raise ValueError(f"k must be odd, got {k}")
    return k


def max_iter(value) -> int:
    return _integer(value, "max_iter", 0)


def tol(value) -> float:
    """A stopping tolerance: finite and > 0.  An infinite one would stop
    every fit at its zero start and call it converged."""
    if not 0 < value < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {value!r}")
    return float(value)


def density(value, n_signal: int = 0) -> float:
    """0 < density <= 1, and <= 1/4 with ``n_signal`` planted signal
    features, which activate at 4 * density."""
    most = 0.25 if n_signal else 1.0
    if not 0.0 < value <= most:
        raise ValueError(f"density must be in (0, {most:g}], got {value!r}")
    return float(value)


def flip_prob(value) -> float:
    if not 0.0 <= value < 0.5:
        raise ValueError(f"flip_prob must be in [0, 0.5), got {value!r}")
    return float(value)


def alpha(value) -> float:
    """A significance level, strictly between 0 and 1."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {value!r}")
    return float(value)


def penalty(value) -> float:
    if not 0 <= value < np.inf:
        raise ValueError(f"penalty must be finite and >= 0, got {value!r}")
    return float(value)


def index_base(value) -> int:
    """The svmlight index of the first feature: 0 or 1."""
    return _integer(value, "index_base", 0, 1)


def dense_features(value) -> int:
    """The width of an svmlight file's leading dense block: an integer >= 0."""
    return _integer(value, "dense_feature_count", 0)


def feature_files(train, test) -> bool:
    """Precomputed features come for both pool and test rows or for neither."""
    if bool(train) != bool(test):
        raise ValueError(
            "precomputed features need data.train_features and data.test_features"
        )
    return bool(train)
