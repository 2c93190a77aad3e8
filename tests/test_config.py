"""Tests for config parsing and protocol defaults."""

import re
from pathlib import Path

import numpy as np
import pytest

from srplearn.config import (
    _KEYS,
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
NO_FEATURES = MINIMAL.replace("data.n_features = 1000\n", "")


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

    @pytest.mark.parametrize(
        "text",
        [
            "out_dir = /tmp/x\ndata.kind = parquet\n",
            MINIMAL + "methods = ,\n",
            MINIMAL + "methods = elm-srp, svm\n",
            MINIMAL + "methods = elm-srp, elm-srp\n",
            MINIMAL + "method.svm.C = 1\n",
            MINIMAL + "sweep.dims = ,\n",
            MINIMAL + "sweep.dims = 4, 4, 8\n",
            MINIMAL + "lambda.min_exp = 5\nlambda.max_exp = -5\n",
            NO_FEATURES,
            "out_dir = /tmp/x\ndata.kind = svmlight\ndata.train = a.svm\n",
            "out_dir = /tmp/x\ndata.kind = svmlight\ndata.train = a.svm\n"
            "data.test = b.svm\ndata.train_features = f.csv\n",
        ],
    )
    def test_every_error_names_the_file(self, tmp_path, text):
        path = _write(tmp_path, text)
        with pytest.raises(ValueError) as exc:
            parse_config(path)
        assert str(exc.value).startswith(f"{path}: ")

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
            "method.logreg-srp.tol = inf",
        ],
    )
    def test_bad_method_value_names_key(self, tmp_path, line):
        with pytest.raises(ValueError) as exc:
            parse_config(_write(tmp_path, MINIMAL + line + "\n"))
        assert line.split(" = ")[0] in str(exc.value)

    @pytest.mark.parametrize(
        "lines, key",
        [
            ("data.flip_prob = 0.5", "data.flip_prob"),
            ("data.density = 0", "data.density"),
            ("data.signal_features = -1", "data.signal_features"),
            ("data.signal_features = 5.5", "data.signal_features"),
            ("data.signal_features = 1001", "data.signal_features"),
            ("data.density = 0.3\ndata.signal_features = 10", "data.density"),
            ("base_seed = -3", "base_seed"),
            ("base_seed = 1.5", "base_seed"),
            ("n_runs = 2.5", "n_runs"),
            ("n_train = 0", "n_train"),
            ("data.n_test = 0", "data.n_test"),
            ("data.n_train_pool = 0", "data.n_train_pool"),
            ("alpha = 0", "alpha"),
        ],
    )
    def test_run_and_synth_values_checked_at_parse(self, tmp_path, lines, key):
        # each of these passed parsing before and failed only once the data
        # had been generated, or not at all
        with pytest.raises(ValueError) as exc:
            parse_config(_write(tmp_path, MINIMAL + lines + "\n"))
        assert key in str(exc.value)

    def test_n_features_must_be_an_integer(self, tmp_path):
        with pytest.raises(ValueError) as exc:
            parse_config(_write(tmp_path, NO_FEATURES + "data.n_features = 50.5\n"))
        assert "data.n_features" in str(exc.value)

    def test_base_seed_zero_accepted(self, tmp_path):
        # >= 1 is required only when logreg-srp runs, which bench decides
        assert parse_config(_write(tmp_path, MINIMAL + "base_seed = 0\n")).base_seed == 0

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


class TestSvmlightKeys:
    """``data.index_base`` and ``data.dense_features`` are checked when the
    file is read, not when a run loads its data."""

    @pytest.mark.parametrize(
        "line",
        [
            "data.index_base = 2",
            "data.index_base = -1",
            "data.index_base = 0.5",
            "data.dense_features = -1",
            "data.dense_features = 1.5",
        ],
    )
    def test_bad_value_rejected(self, tmp_path, line):
        with pytest.raises(ValueError) as exc:
            parse_config(_write(tmp_path, SVMLIGHT + line + "\n"))
        assert line.split(" = ")[0] in str(exc.value)

    @pytest.mark.parametrize("key", ["data.train_features", "data.test_features"])
    def test_precomputed_features_come_as_a_pair(self, tmp_path, key):
        with pytest.raises(ValueError, match="data.test_features"):
            parse_config(_write(tmp_path, SVMLIGHT + f"{key} = f.csv\n"))


class TestParityWithLibrary:
    """The config reader and the library accept and reject the same values,
    since both apply the one rule of ``srplearn.checks``."""

    EDGES = [0, 1, -1, 0.5, 2, float("nan"), float("inf")]

    @staticmethod
    def _library_calls(tmp_path):
        """config key -> (config it is added to, library calls taking it)."""
        from srplearn.datasets import read_svmlight, synth_generate, write_svmlight
        from srplearn.elm import elm_fit, rvfl_fit
        from srplearn.kernel import knn_predict
        from srplearn.logreg import logreg_fit
        from srplearn.metrics import summarize
        from srplearn.projection import make_projection

        ds = synth_generate(12, 30, 0.2, 0, 0.0, seed=0)
        X, y = ds.sparse, ds.labels.astype(np.float64)
        F = np.random.default_rng(0).normal(size=(12, 3))
        D = np.random.default_rng(1).random((4, 12))
        svm = tmp_path / "d.svm"
        svm.write_text("+1 1:0.5 3:1\n-1 2:1\n")
        one_column = tmp_path / "one.svm"
        one_column.write_text("+1 1:1\n-1\n")
        return {
            "method.elm-srp.L": (MINIMAL, [lambda v: elm_fit(X, y, v)]),
            "method.rvfl-srp.d_lin": (MINIMAL, [lambda v: rvfl_fit(X, y, 2, d_lin=v)]),
            "method.elm-srp.density": (MINIMAL, [lambda v: elm_fit(X, y, 2, density=v)]),
            "srp.density": (MINIMAL, [lambda v: make_projection(30, 4, v)]),
            "method.knn-srp.k": (MINIMAL, [lambda v: knn_predict(D, y, v)]),
            "method.logreg-srp.max_iter": (
                MINIMAL, [lambda v: logreg_fit(F, y, 1.0, max_iter=v)]
            ),
            "method.logreg-srp.tol": (MINIMAL, [lambda v: logreg_fit(F, y, 1.0, 20, tol=v)]),
            "data.index_base": (SVMLIGHT, [
                lambda v: read_svmlight(str(svm), index_base=v),
                lambda v: write_svmlight(ds, str(tmp_path / "w.svm"), index_base=v),
            ]),
            "data.dense_features": (
                SVMLIGHT, [lambda v: read_svmlight(str(svm), dense_feature_count=v)]
            ),
            "data.n_features": (NO_FEATURES, [
                lambda v: synth_generate(12, v, 0.2, 0, 0.0, 0),
                lambda v: read_svmlight(str(one_column), n_features=v),
            ]),
            "data.density": (MINIMAL, [lambda v: synth_generate(12, 30, v, 0, 0.0, 0)]),
            "data.signal_features": (
                MINIMAL, [lambda v: synth_generate(12, 30, 0.2, v, 0.0, 0)]
            ),
            "data.flip_prob": (MINIMAL, [lambda v: synth_generate(12, 30, 0.2, 0, v, 0)]),
            "alpha": (MINIMAL, [lambda v: summarize({"a": [0.6, 0.7], "b": [0.5, 0.8]}, v)]),
        }

    def test_edge_values_accepted_alike(self, tmp_path):
        accepted = {}
        for key, (base, calls) in self._library_calls(tmp_path).items():
            for value in self.EDGES:
                try:
                    parse_config(_write(tmp_path, base + f"{key} = {value}\n"))
                    by_config = True
                except ValueError:
                    by_config = False
                for call in calls:
                    try:
                        call(value)
                        by_library = True
                    except ValueError:
                        by_library = False
                    assert by_config == by_library, (key, value)
                if by_config:
                    accepted.setdefault(key, []).append(value)
        assert accepted == {
            "method.elm-srp.L": [1, 2],
            "method.rvfl-srp.d_lin": [1, 2],
            "method.elm-srp.density": [1, 0.5],
            "srp.density": [1, 0.5],
            "method.knn-srp.k": [1],
            "method.logreg-srp.max_iter": [0, 1, 2],
            "method.logreg-srp.tol": [1, 0.5, 2],
            "data.index_base": [0, 1],
            "data.dense_features": [0, 1, 2],
            "data.n_features": [1, 2],
            "data.density": [1, 0.5],
            "data.signal_features": [0, 1, 2],
            "data.flip_prob": [0],
            "alpha": [0.5],
        }


class TestReadmeReference:
    def test_every_key_documented(self):
        # a key added to the reader without a line in README's config
        # reference fails here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config reference", 1)[1].split("\n## ", 1)[0]
        missing = [
            key for key in _KEYS
            if not re.search(rf"(?<![\w.-]){re.escape(key)}(?![\w.-])", section)
        ]
        assert not missing
