"""Run configuration: plain ``key=value`` text, no nested format.

Per-method hyperparameters use repeated ``method.<name>.<param>`` keys.
Unknown keys are rejected so typos fail loudly instead of silently
running with defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matio import read_keyvalues

__all__ = [
    "RunConfig",
    "DataConfig",
    "parse_config",
    "default_sweep_dims",
    "BENCH_METHODS",
    "SWEEP_METHODS",
]

# Full benchmark method set, and the sub-quadratic subset used for
# projection-dimension sweeps (Jaccard methods do not depend on the
# projection, so sweeping them is uninformative).
BENCH_METHODS = [
    "elm-srp",
    "rvfl-srp",
    "rbf-srp",
    "krr-srp",
    "knn-srp",
    "logreg-srp",
    "rbf-jaccard",
    "krr-jaccard",
    "knn-jaccard",
]
SWEEP_METHODS = [
    "elm-srp",
    "rvfl-srp",
    "rbf-srp",
    "krr-srp",
    "knn-srp",
    "logreg-srp",
]

_METHOD_PARAMS = {
    "elm-srp": {"L", "density"},
    "rvfl-srp": {"L", "d_lin", "density"},
    "rbf-srp": {"L"},
    "krr-srp": set(),
    "knn-srp": {"k"},
    "logreg-srp": {"max_iter", "tol"},
    "rbf-jaccard": {"L"},
    "krr-jaccard": set(),
    "knn-jaccard": {"k"},
}

_TOP_KEYS = {
    "out_dir",
    "base_seed",
    "n_runs",
    "n_train",
    "alpha",
    "methods",
    "srp.dim",
    "srp.density",
    "srp.seed",
    "sweep.dims",
    "lambda.min_exp",
    "lambda.max_exp",
    "data.kind",
    "data.name",
    "data.seed",
    "data.n_train_pool",
    "data.n_test",
    "data.n_features",
    "data.density",
    "data.signal_features",
    "data.flip_prob",
    "data.train",
    "data.test",
    "data.dense_features",
    "data.index_base",
    "data.train_features",
    "data.test_features",
}


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
    method_params: dict = field(default_factory=dict)
    lambda_min_exp: int = -20
    lambda_max_exp: int = 20
    data: DataConfig = field(default_factory=DataConfig)

    def lambda_grid(self) -> np.ndarray:
        from .ridge import default_lambda_grid

        return default_lambda_grid(self.lambda_min_exp, self.lambda_max_exp)

    def resolved_methods(self, default_list) -> list:
        return list(self.methods) if self.methods is not None else list(default_list)


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"config key {key!r}: expected integer, got {raw!r}") from None


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"config key {key!r}: expected number, got {raw!r}") from None


def parse_config(path: str) -> RunConfig:
    """Parse and validate a key=value config file."""
    raw = read_keyvalues(path)
    if "out_dir" not in raw:
        raise ValueError(f"{path}: missing required key out_dir")

    method_params: dict = {}
    for key, value in raw.items():
        if not key.startswith("method."):
            if key not in _TOP_KEYS:
                raise ValueError(f"{path}: unknown config key {key!r}")
            continue
        parts = key.split(".")
        if len(parts) != 3:
            raise ValueError(f"{path}: malformed method key {key!r}")
        _, name, param = parts
        if name not in _METHOD_PARAMS:
            raise ValueError(
                f"{path}: unknown method {name!r}; known: {sorted(_METHOD_PARAMS)}"
            )
        if param not in _METHOD_PARAMS[name]:
            raise ValueError(
                f"{path}: method {name!r} has no parameter {param!r}"
            )
        method_params.setdefault(name, {})[param] = value

    cfg = RunConfig(out_dir=raw["out_dir"], method_params=method_params)
    if "base_seed" in raw:
        cfg.base_seed = _parse_int(raw["base_seed"], "base_seed")
    if "n_runs" in raw:
        cfg.n_runs = _parse_int(raw["n_runs"], "n_runs")
        if cfg.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
    if "n_train" in raw:
        cfg.n_train = _parse_int(raw["n_train"], "n_train")
        if cfg.n_train < 1:
            raise ValueError("n_train must be >= 1")
    if "alpha" in raw:
        cfg.alpha = _parse_float(raw["alpha"], "alpha")
        if not 0.0 < cfg.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
    if "srp.dim" in raw:
        cfg.srp_dim = _parse_int(raw["srp.dim"], "srp.dim")
        if cfg.srp_dim < 1:
            raise ValueError("srp.dim must be >= 1")
    if "srp.density" in raw:
        cfg.srp_density = _parse_float(raw["srp.density"], "srp.density")
    if "srp.seed" in raw:
        cfg.srp_seed = _parse_int(raw["srp.seed"], "srp.seed")
    if "lambda.min_exp" in raw:
        cfg.lambda_min_exp = _parse_int(raw["lambda.min_exp"], "lambda.min_exp")
    if "lambda.max_exp" in raw:
        cfg.lambda_max_exp = _parse_int(raw["lambda.max_exp"], "lambda.max_exp")
    if cfg.lambda_max_exp < cfg.lambda_min_exp:
        raise ValueError("lambda.max_exp must be >= lambda.min_exp")

    if "methods" in raw:
        names = [t.strip() for t in raw["methods"].split(",") if t.strip()]
        if not names:
            raise ValueError("methods list must be nonempty")
        for name in names:
            if name not in _METHOD_PARAMS:
                raise ValueError(
                    f"unknown method {name!r}; known: {sorted(_METHOD_PARAMS)}"
                )
        if len(set(names)) != len(names):
            raise ValueError("methods list contains duplicates")
        cfg.methods = names

    if "sweep.dims" in raw:
        dims = [_parse_int(t.strip(), "sweep.dims") for t in raw["sweep.dims"].split(",") if t.strip()]
        if not dims:
            raise ValueError("sweep.dims must be nonempty")
        if any(d < 1 for d in dims):
            raise ValueError("sweep.dims entries must be >= 1")
        if any(b <= a for a, b in zip(dims, dims[1:])):
            raise ValueError("sweep.dims must be strictly increasing")
        cfg.sweep_dims = dims

    d = cfg.data
    d.kind = raw.get("data.kind", "synth")
    if d.kind not in ("synth", "svmlight"):
        raise ValueError(f"data.kind must be synth or svmlight, got {d.kind!r}")
    if "data.name" in raw:
        d.name = raw["data.name"]
    if "data.seed" in raw:
        d.seed = _parse_int(raw["data.seed"], "data.seed")
    if d.kind == "synth":
        if "data.n_train_pool" in raw:
            d.n_train_pool = _parse_int(raw["data.n_train_pool"], "data.n_train_pool")
        if "data.n_test" in raw:
            d.n_test = _parse_int(raw["data.n_test"], "data.n_test")
        if "data.n_features" in raw:
            d.n_features = _parse_int(raw["data.n_features"], "data.n_features")
        if d.n_features is None:
            raise ValueError("synth data requires data.n_features")
        if "data.density" in raw:
            d.density = _parse_float(raw["data.density"], "data.density")
        if "data.signal_features" in raw:
            d.signal_features = _parse_int(
                raw["data.signal_features"], "data.signal_features"
            )
        if "data.flip_prob" in raw:
            d.flip_prob = _parse_float(raw["data.flip_prob"], "data.flip_prob")
        if d.n_train_pool < cfg.n_train:
            raise ValueError("data.n_train_pool must be >= n_train")
        if d.n_test < 1:
            raise ValueError("data.n_test must be >= 1")
    else:
        d.train_path = raw.get("data.train")
        d.test_path = raw.get("data.test")
        if not d.train_path or not d.test_path:
            raise ValueError("svmlight data requires data.train and data.test")
        if "data.dense_features" in raw:
            d.dense_features = _parse_int(raw["data.dense_features"], "data.dense_features")
        if "data.index_base" in raw:
            d.index_base = _parse_int(raw["data.index_base"], "data.index_base")
        if "data.n_features" in raw:
            d.n_features = _parse_int(raw["data.n_features"], "data.n_features")
        d.train_features = raw.get("data.train_features")
        d.test_features = raw.get("data.test_features")
    return cfg
