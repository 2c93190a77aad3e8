"""Tests for config parsing and protocol defaults."""

import numpy as np
import pytest

from srplearn.config import (
    BENCH_METHODS,
    SWEEP_METHODS,
    default_sweep_dims,
    parse_config,
)


def _write(tmp_path, text):
    p = tmp_path / "cfg.txt"
    p.write_text(text)
    return str(p)


MINIMAL = """
out_dir = /tmp/x
data.kind = synth
data.n_features = 1000
"""


class TestDefaults:
    def test_protocol_defaults(self, tmp_path):
        cfg = parse_config(_write(tmp_path, MINIMAL))
        # defaults mirror the benchmark protocol: 5000 projected features,
        # 1000 training rows per run, 100 runs, 41-point lambda grid
        assert cfg.srp_dim == 5000
        assert cfg.n_train == 1000
        assert cfg.n_runs == 100
        assert cfg.alpha == 0.05
        assert cfg.base_seed == 1
        grid = cfg.lambda_grid()
        assert grid.shape == (41,)
        assert grid[0] == 2.0**-20 and grid[-1] == 2.0**20
        assert cfg.data.n_train_pool == 4000
        assert cfg.data.n_test == 2000

    def test_method_lists(self):
        assert len(BENCH_METHODS) == 9
        assert set(SWEEP_METHODS) < set(BENCH_METHODS)
        assert not any("jaccard" in m for m in SWEEP_METHODS)

    def test_derived_lists_pinned(self):
        # both lists derive from the one method table; order is the
        # column order of every CSV
        assert SWEEP_METHODS == [
            "elm-srp", "rvfl-srp", "rbf-srp", "krr-srp", "knn-srp", "logreg-srp",
        ]
        assert BENCH_METHODS == SWEEP_METHODS + [
            "rbf-jaccard", "krr-jaccard", "knn-jaccard",
        ]

    def test_default_sweep_dims_increasing(self):
        dims = default_sweep_dims()
        assert dims[0] == 4 and dims[-1] == 10000
        assert all(b > a for a, b in zip(dims, dims[1:]))


class TestParsing:
    def test_full_config(self, tmp_path):
        cfg = parse_config(
            _write(
                tmp_path,
                """
out_dir = /tmp/run1
base_seed = 11
n_runs = 7
n_train = 64
alpha = 0.01
methods = elm-srp, krr-jaccard
srp.dim = 256
srp.density = 0.01
srp.seed = 99
sweep.dims = 8, 32, 128
lambda.min_exp = -5
lambda.max_exp = 5
data.kind = synth
data.seed = 3
data.n_train_pool = 200
data.n_test = 100
data.n_features = 5000
data.density = 0.002
data.signal_features = 250
data.flip_prob = 0.05
method.elm-srp.L = 300
method.knn-srp.k = 3
""",
            )
        )
        assert cfg.out_dir == "/tmp/run1"
        assert cfg.base_seed == 11
        assert cfg.methods == ["elm-srp", "krr-jaccard"]
        assert cfg.srp_dim == 256
        assert cfg.srp_density == 0.01
        assert cfg.srp_seed == 99
        assert cfg.sweep_dims == [8, 32, 128]
        assert cfg.lambda_grid().shape == (11,)
        assert cfg.data.signal_features == 250
        assert cfg.method_params["elm-srp"]["L"] == 300
        assert cfg.method_params["knn-srp"]["k"] == 3

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError) as exc:
            parse_config(_write(tmp_path, MINIMAL + "n_rusn = 5\n"))
        assert "n_rusn" in str(exc.value)

    def test_unknown_method_param_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            parse_config(_write(tmp_path, MINIMAL + "method.elm-srp.gamma = 1\n"))

    def test_unknown_method_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            parse_config(_write(tmp_path, MINIMAL + "method.svm.C = 1\n"))
        with pytest.raises(ValueError):
            parse_config(_write(tmp_path, MINIMAL + "methods = elm-srp, svm\n"))

    def test_out_dir_required(self, tmp_path):
        with pytest.raises(ValueError):
            parse_config(_write(tmp_path, "data.kind = synth\ndata.n_features = 10\n"))

    def test_synth_requires_n_features(self, tmp_path):
        with pytest.raises(ValueError):
            parse_config(_write(tmp_path, "out_dir = /tmp/x\ndata.kind = synth\n"))

    def test_svmlight_requires_paths(self, tmp_path):
        with pytest.raises(ValueError):
            parse_config(
                _write(tmp_path, "out_dir = /tmp/x\ndata.kind = svmlight\n")
            )

    def test_sweep_dims_must_increase(self, tmp_path):
        with pytest.raises(ValueError):
            parse_config(_write(tmp_path, MINIMAL + "sweep.dims = 4, 4, 8\n"))

    def test_pool_must_cover_n_train(self, tmp_path):
        with pytest.raises(ValueError):
            parse_config(
                _write(
                    tmp_path,
                    MINIMAL + "n_train = 50\ndata.n_train_pool = 40\n",
                )
            )

    def test_lambda_exponent_order(self, tmp_path):
        with pytest.raises(ValueError):
            parse_config(
                _write(tmp_path, MINIMAL + "lambda.min_exp = 5\nlambda.max_exp = -5\n")
            )

    def test_unknown_data_kind(self, tmp_path):
        with pytest.raises(ValueError):
            parse_config(
                _write(tmp_path, "out_dir = /tmp/x\ndata.kind = parquet\n")
            )

    def test_bad_numeric_values(self, tmp_path):
        with pytest.raises(ValueError):
            parse_config(_write(tmp_path, MINIMAL + "n_runs = many\n"))
        with pytest.raises(ValueError):
            parse_config(_write(tmp_path, MINIMAL + "alpha = 1.5\n"))
        with pytest.raises(ValueError):
            parse_config(_write(tmp_path, MINIMAL + "n_runs = 0\n"))

    @pytest.mark.parametrize(
        "line",
        [
            "method.elm-srp.L = ten",
            "method.logreg-srp.tol = small",
            # ranges the config alone decides
            "method.knn-srp.k = 2",
            "method.knn-jaccard.k = 0",
            "method.knn-jaccard.k = -1",
            "method.elm-srp.L = 0",
            "method.rbf-jaccard.L = -3",
            "method.rvfl-srp.d_lin = 0",
            "method.elm-srp.density = 0",
            "method.rvfl-srp.density = 1.5",
            "method.elm-srp.density = nan",
            "srp.density = 0",
            "srp.density = 1.5",
            "srp.density = nan",
            "method.logreg-srp.max_iter = -1",
            "method.logreg-srp.tol = 0",
        ],
    )
    def test_bad_method_value_names_key(self, tmp_path, line):
        with pytest.raises(ValueError) as exc:
            parse_config(_write(tmp_path, MINIMAL + line + "\n"))
        assert line.split(" = ")[0] in str(exc.value)

    def test_method_value_range_edges_accepted(self, tmp_path):
        cfg = parse_config(
            _write(
                tmp_path,
                MINIMAL
                + "method.knn-srp.k = 1\nmethod.elm-srp.L = 1\n"
                + "method.elm-srp.density = 1\nmethod.logreg-srp.max_iter = 0\n"
                + "method.logreg-srp.tol = 1e-300\n",
            )
        )
        assert cfg.method_params["knn-srp"] == {"k": 1}
        assert cfg.method_params["elm-srp"] == {"L": 1, "density": 1.0}
        assert cfg.method_params["logreg-srp"] == {"max_iter": 0, "tol": 1e-300}


SVMLIGHT = """
out_dir = /tmp/x
data.kind = svmlight
data.train = a.svm
data.test = b.svm
"""


class TestDataKindSections:
    @pytest.mark.parametrize(
        "kind, line",
        [
            ("synth", "data.train = x"),
            ("synth", "data.index_base = 7"),
            ("synth", "data.test_features = f.csv"),
            ("svmlight", "data.seed = 3"),
            ("svmlight", "data.n_train_pool = 10"),
            ("svmlight", "data.flip_prob = 0.1"),
        ],
    )
    def test_key_of_other_kind_rejected(self, tmp_path, kind, line):
        base = MINIMAL if kind == "synth" else SVMLIGHT
        with pytest.raises(ValueError) as exc:
            parse_config(_write(tmp_path, base + line + "\n"))
        assert line.split(" = ")[0] in str(exc.value)

    def test_shared_keys_accepted_under_both(self, tmp_path):
        shared = "data.name = d\ndata.n_features = 50\n"
        for base in (MINIMAL.replace("data.n_features = 1000\n", ""), SVMLIGHT):
            cfg = parse_config(_write(tmp_path, base + shared))
            assert cfg.data.name == "d" and cfg.data.n_features == 50
