"""Run configuration: plain ``key=value`` text, no nested format.

Every key is declared once, in ``_KEYS``: its section, the attribute it
sets and the parser that types its value.  Keys of the ``synth`` and
``svmlight`` sections apply only under that ``data.kind``.  Per-method
hyperparameters use repeated ``method.<name>.<param>`` keys.  A numeric
value with a rule is read as an int when it spells one and as a float
otherwise, then checked by the rule of :mod:`srplearn.checks` that the
library applies to the same argument (the method table of
:mod:`srplearn.bench` names each parameter's rule), so the config reader
and the library accept and reject the same values.  Rules that combine
keys (signal features within ``data.n_features``, the synthetic density
with signal features, ``n_train`` within the synthetic pool, precomputed
features as a pair) are applied once every key is read.
Every value is parsed when the file is read: unknown keys, keys of the
other data kind and malformed values are rejected there, so typos fail
loudly instead of silently running with defaults or failing run by run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import checks
from .bench import BENCH_METHODS, METHODS, SWEEP_METHODS
from .matio import read_keyvalues
from .ridge import default_lambda_grid

__all__ = [
    "RunConfig",
    "DataConfig",
    "parse_config",
    "default_sweep_dims",
    "BENCH_METHODS",
    "SWEEP_METHODS",
]


def _list(text: str) -> list:
    return [t.strip() for t in text.split(",") if t.strip()]


def _number(text: str):
    """An int when ``text`` spells one, else a float, for a rule to check."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _checked(rule):
    """A parser that reads a number and applies ``rule`` to it."""
    return lambda text: rule(_number(text))


def _widths(text: str) -> list:
    return [checks.count(_number(t), "width") for t in _list(text)]


# key -> (section, attribute, parser).  "run" keys set RunConfig, the
# others DataConfig; "synth" and "svmlight" keys only under that kind.
_KEYS = {
    "out_dir": ("run", "out_dir", str),
    "base_seed": ("run", "base_seed", _checked(checks.seed)),
    "n_runs": ("run", "n_runs", _checked(checks.count)),
    "n_train": ("run", "n_train", _checked(checks.count)),
    "alpha": ("run", "alpha", _checked(checks.alpha)),
    "methods": ("run", "methods", _list),
    "srp.dim": ("run", "srp_dim", _checked(checks.count)),
    "srp.density": ("run", "srp_density", _checked(checks.density)),
    "srp.seed": ("run", "srp_seed", int),
    "sweep.dims": ("run", "sweep_dims", _widths),
    "lambda.min_exp": ("run", "lambda_min_exp", int),
    "lambda.max_exp": ("run", "lambda_max_exp", int),
    "data.kind": ("data", "kind", str),
    "data.name": ("data", "name", str),
    "data.n_features": ("data", "n_features", _checked(checks.count)),
    "data.seed": ("synth", "seed", int),
    "data.n_train_pool": ("synth", "n_train_pool", _checked(checks.count)),
    "data.n_test": ("synth", "n_test", _checked(checks.count)),
    "data.density": ("synth", "density", _checked(checks.density)),
    "data.signal_features": ("synth", "signal_features", _checked(checks.signal_features)),
    "data.flip_prob": ("synth", "flip_prob", _checked(checks.flip_prob)),
    "data.train": ("svmlight", "train_path", str),
    "data.test": ("svmlight", "test_path", str),
    "data.dense_features": ("svmlight", "dense_features", _checked(checks.dense_features)),
    "data.index_base": ("svmlight", "index_base", _checked(checks.index_base)),
    "data.train_features": ("svmlight", "train_features", str),
    "data.test_features": ("svmlight", "test_features", str),
}
_DATA_KINDS = ("synth", "svmlight")


def default_sweep_dims(low: int = 4, high: int = 10000, points: int = 12):
    """Log-uniform integer grid of projection dimensions."""
    dims = np.unique(np.round(np.geomspace(low, high, points)).astype(int))
    return [int(v) for v in dims]


@dataclass
class DataConfig:
    kind: str = "synth"
    name: str = ""
    seed: int | None = None          # synth generator seed; defaults to base_seed
    n_train_pool: int = 4000
    n_test: int = 2000
    n_features: int | None = None
    density: float = 0.005
    signal_features: int = 0
    flip_prob: float = 0.0
    train_path: str | None = None
    test_path: str | None = None
    dense_features: int = 0
    index_base: int = 1
    train_features: str | None = None
    test_features: str | None = None


@dataclass
class RunConfig:
    out_dir: str
    base_seed: int = 1                # >= 1 with logreg-srp, tuned on base_seed - 1
    n_runs: int = 100
    n_train: int = 1000
    alpha: float = 0.05
    srp_dim: int = 5000
    srp_density: float | None = None  # None: 1/sqrt(n_sparse_features)
    srp_seed: int | None = None       # None: base_seed
    sweep_dims: list = field(default_factory=default_sweep_dims)
    methods: list | None = None       # None: command-specific default
    method_params: dict = field(default_factory=dict)  # name -> {param: parsed value}
    lambda_min_exp: int = -20
    lambda_max_exp: int = 20
    data: DataConfig = field(default_factory=DataConfig)

    def lambda_grid(self) -> np.ndarray:
        return default_lambda_grid(self.lambda_min_exp, self.lambda_max_exp)

    def resolved_methods(self, default_list) -> list:
        return list(self.methods) if self.methods is not None else list(default_list)


def _known_method(path: str, name: str) -> str:
    """``name``, if a method of that name exists: the rule of the ``methods``
    list and of every ``method.<name>.<param>`` key."""
    if name not in METHODS:
        raise ValueError(f"{path}: unknown method {name!r}; known: {sorted(METHODS)}")
    return name


def _method_key(path: str, key: str) -> tuple:
    """(method name, parameter, parser) of a ``method.<name>.<param>`` key."""
    parts = key.split(".")
    if len(parts) != 3:
        raise ValueError(f"{path}: malformed method key {key!r}")
    _, name, param = parts
    rules = METHODS[_known_method(path, name)][2]
    if param not in rules:
        raise ValueError(f"{path}: method {name!r} has no parameter {param!r}")
    return name, param, _checked(rules[param])


def _parsed(path: str, key: str, rule, *args):
    """``rule(*args)``, its ``ValueError`` naming the config key."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: config key {key!r}: {exc}") from None


def parse_config(path: str) -> RunConfig:
    """Parse and validate a key=value config file."""
    raw = read_keyvalues(path)
    if "out_dir" not in raw:
        raise ValueError(f"{path}: missing required key out_dir")
    kind = raw.get("data.kind", "synth")
    if kind not in _DATA_KINDS:
        raise ValueError(f"{path}: data.kind must be synth or svmlight, got {kind!r}")

    cfg = RunConfig(out_dir=raw["out_dir"])
    d = cfg.data
    for key, text in raw.items():
        if key.startswith("method."):
            name, param, parse = _method_key(path, key)
            cfg.method_params.setdefault(name, {})[param] = _parsed(path, key, parse, text)
            continue
        if key not in _KEYS:
            raise ValueError(f"{path}: unknown config key {key!r}")
        section, attr, parse = _KEYS[key]
        if section in _DATA_KINDS and section != kind:
            raise ValueError(
                f"{path}: config key {key!r} applies only to data.kind = {section}"
            )
        setattr(cfg if section == "run" else d, attr, _parsed(path, key, parse, text))

    # ridge's rule on the exponents, checked at parse time
    _parsed(path, "lambda.max_exp", cfg.lambda_grid)
    if cfg.methods is not None:
        if not cfg.methods:
            raise ValueError(f"{path}: methods list must be nonempty")
        for name in cfg.methods:
            _known_method(path, name)
        if len(set(cfg.methods)) != len(cfg.methods):
            raise ValueError(f"{path}: methods list contains duplicates")
    dims = cfg.sweep_dims
    if not dims:
        raise ValueError(f"{path}: sweep.dims must be nonempty")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError(f"{path}: sweep.dims must be strictly increasing")

    if kind == "svmlight":
        if not d.train_path or not d.test_path:
            raise ValueError(f"{path}: svmlight data requires data.train and data.test")
        given = "data.train_features" if d.train_features else "data.test_features"
        _parsed(path, given, checks.feature_files, d.train_features, d.test_features)
        return cfg
    if d.n_features is None:
        raise ValueError(f"{path}: synth data requires data.n_features")
    n_signal = _parsed(path, "data.signal_features", checks.signal_features,
                       d.signal_features, d.n_features)
    _parsed(path, "data.density", checks.density, d.density, n_signal)
    _parsed(path, "data.n_train_pool", checks.sample_size, cfg.n_train,
            d.n_train_pool, "n_train")
    return cfg
