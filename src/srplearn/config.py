"""Run configuration: plain ``key=value`` text, no nested format.

Every key is declared once, in ``_KEYS``: its section, the attribute it
sets and the parser that types its value.  Keys of the ``synth`` and
``svmlight`` sections apply only under that ``data.kind``.  Per-method
hyperparameters use repeated ``method.<name>.<param>`` keys, typed by
the parsers of the method table in :mod:`srplearn.bench`; its density
parser types ``srp.density`` too, so every density has one range rule.
Every value is parsed when the file is read: unknown keys, keys of the
other data kind and malformed values are rejected there, so typos fail
loudly instead of silently running with defaults or failing run by run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bench import _DENSITY, BENCH_METHODS, METHODS, SWEEP_METHODS
from .matio import read_keyvalues

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


def _ints(text: str) -> list:
    return [int(t) for t in _list(text)]


# key -> (section, attribute, parser).  "run" keys set RunConfig, the
# others DataConfig; "synth" and "svmlight" keys only under that kind.
_KEYS = {
    "out_dir": ("run", "out_dir", str),
    "base_seed": ("run", "base_seed", int),
    "n_runs": ("run", "n_runs", int),
    "n_train": ("run", "n_train", int),
    "alpha": ("run", "alpha", float),
    "methods": ("run", "methods", _list),
    "srp.dim": ("run", "srp_dim", int),
    "srp.density": ("run", "srp_density", _DENSITY),
    "srp.seed": ("run", "srp_seed", int),
    "sweep.dims": ("run", "sweep_dims", _ints),
    "lambda.min_exp": ("run", "lambda_min_exp", int),
    "lambda.max_exp": ("run", "lambda_max_exp", int),
    "data.kind": ("data", "kind", str),
    "data.name": ("data", "name", str),
    "data.n_features": ("data", "n_features", int),
    "data.seed": ("synth", "seed", int),
    "data.n_train_pool": ("synth", "n_train_pool", int),
    "data.n_test": ("synth", "n_test", int),
    "data.density": ("synth", "density", float),
    "data.signal_features": ("synth", "signal_features", int),
    "data.flip_prob": ("synth", "flip_prob", float),
    "data.train": ("svmlight", "train_path", str),
    "data.test": ("svmlight", "test_path", str),
    "data.dense_features": ("svmlight", "dense_features", int),
    "data.index_base": ("svmlight", "index_base", int),
    "data.train_features": ("svmlight", "train_features", str),
    "data.test_features": ("svmlight", "test_features", str),
}
_KINDS = ("synth", "svmlight")


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
        from .ridge import default_lambda_grid

        return default_lambda_grid(self.lambda_min_exp, self.lambda_max_exp)

    def resolved_methods(self, default_list) -> list:
        return list(self.methods) if self.methods is not None else list(default_list)


def _method_key(path: str, key: str) -> tuple:
    """(method name, parameter, parser) of a ``method.<name>.<param>`` key."""
    parts = key.split(".")
    if len(parts) != 3:
        raise ValueError(f"{path}: malformed method key {key!r}")
    _, name, param = parts
    if name not in METHODS:
        raise ValueError(f"{path}: unknown method {name!r}; known: {sorted(METHODS)}")
    parsers = METHODS[name][3]
    if param not in parsers:
        raise ValueError(f"{path}: method {name!r} has no parameter {param!r}")
    return name, param, parsers[param]


def _parsed(path: str, key: str, parse, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: config key {key!r}: {exc}") from None


def parse_config(path: str) -> RunConfig:
    """Parse and validate a key=value config file."""
    raw = read_keyvalues(path)
    if "out_dir" not in raw:
        raise ValueError(f"{path}: missing required key out_dir")
    kind = raw.get("data.kind", "synth")
    if kind not in _KINDS:
        raise ValueError(f"data.kind must be synth or svmlight, got {kind!r}")

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
        if section in _KINDS and section != kind:
            raise ValueError(
                f"{path}: config key {key!r} applies only to data.kind = {section}"
            )
        setattr(cfg if section == "run" else d, attr, _parsed(path, key, parse, text))

    if cfg.n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if cfg.n_train < 1:
        raise ValueError("n_train must be >= 1")
    if not 0.0 < cfg.alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if cfg.srp_dim < 1:
        raise ValueError("srp.dim must be >= 1")
    if cfg.lambda_max_exp < cfg.lambda_min_exp:
        raise ValueError("lambda.max_exp must be >= lambda.min_exp")
    if cfg.methods is not None:
        if not cfg.methods:
            raise ValueError("methods list must be nonempty")
        for name in cfg.methods:
            if name not in METHODS:
                raise ValueError(f"unknown method {name!r}; known: {sorted(METHODS)}")
        if len(set(cfg.methods)) != len(cfg.methods):
            raise ValueError("methods list contains duplicates")
    dims = cfg.sweep_dims
    if not dims:
        raise ValueError("sweep.dims must be nonempty")
    if any(v < 1 for v in dims):
        raise ValueError("sweep.dims entries must be >= 1")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("sweep.dims must be strictly increasing")

    if kind == "synth":
        if d.n_features is None:
            raise ValueError("synth data requires data.n_features")
        if d.n_train_pool < cfg.n_train:
            raise ValueError("data.n_train_pool must be >= n_train")
        if d.n_test < 1:
            raise ValueError("data.n_test must be >= 1")
    elif not d.train_path or not d.test_path:
        raise ValueError("svmlight data requires data.train and data.test")
    return cfg
