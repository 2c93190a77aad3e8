"""Tests for the command-line interface."""

import numpy as np
import pytest

from srplearn.cli import main
from srplearn.datasets import synth_generate, write_svmlight
from srplearn.distance import jaccard_distance_matrix
from srplearn.matio import read_keyvalues, read_matrix_csv, read_table_csv
from srplearn.projection import apply_projection, make_projection


def _write_data(tmp_path, n=60, n_features=500, split=40, seed=3):
    ds = synth_generate(n, n_features, 0.02, 50, 0.0, seed=seed)
    train = ds.take(np.arange(split))
    test = ds.take(np.arange(split, n))
    train_path = str(tmp_path / "train.txt")
    test_path = str(tmp_path / "test.txt")
    write_svmlight(train, train_path)
    write_svmlight(test, test_path)
    return ds, train_path, test_path


class TestProject:
    def test_writes_matrix_and_metadata(self, tmp_path):
        _, train_path, _ = _write_data(tmp_path)
        out = str(tmp_path / "f.csv")
        rc = main([
            "project", "--in", train_path, "--dim", "12",
            "--density", "0.05", "--seed", "9", "--out", out,
        ])
        assert rc == 0
        F = read_matrix_csv(out)
        assert F.shape == (40, 12)
        meta = read_keyvalues(out + ".meta")
        assert meta["output_dim"] == "12"
        assert meta["density"] == "0.05"
        assert meta["seed"] == "9"
        assert meta["stream"] == "2"

    def test_deterministic(self, tmp_path):
        _, train_path, _ = _write_data(tmp_path)
        o1, o2 = str(tmp_path / "f1.csv"), str(tmp_path / "f2.csv")
        for out in (o1, o2):
            assert main([
                "project", "--in", train_path, "--dim", "8",
                "--density", "0.1", "--seed", "4", "--out", out,
            ]) == 0
        assert open(o1, "rb").read() == open(o2, "rb").read()

    def test_matches_library_projection(self, tmp_path):
        from srplearn.datasets import read_svmlight

        _, train_path, _ = _write_data(tmp_path)
        out = str(tmp_path / "f.csv")
        main([
            "project", "--in", train_path, "--dim", "10",
            "--density", "0.08", "--seed", "2", "--out", out,
        ])
        data = read_svmlight(train_path)
        P = make_projection(data.n_sparse_features, 10, 0.08, 2)
        expected = apply_projection(data.sparse, P)
        assert np.array_equal(read_matrix_csv(out), expected)

    def test_default_density_is_resolved_by_make_projection(self, tmp_path):
        from srplearn.datasets import read_svmlight

        _, train_path, _ = _write_data(tmp_path)
        out = str(tmp_path / "f.csv")
        rc = main([
            "project", "--in", train_path, "--dim", "10", "--seed", "5",
            "--out", out,
        ])
        assert rc == 0
        data = read_svmlight(train_path)
        n = data.n_sparse_features
        meta = read_keyvalues(out + ".meta")
        assert float(meta["density"]) == 1.0 / np.sqrt(n)
        P = make_projection(n, 10, None, 5)
        assert np.array_equal(read_matrix_csv(out), apply_projection(data.sparse, P))

    def test_missing_input_fails_nonzero(self, tmp_path, capsys):
        rc = main([
            "project", "--in", str(tmp_path / "absent.txt"),
            "--dim", "4", "--out", str(tmp_path / "o.csv"),
        ])
        assert rc != 0
        assert "error" in capsys.readouterr().err


class TestDistances:
    def test_matches_library_bit_for_bit(self, tmp_path):
        from srplearn.datasets import read_svmlight

        _, train_path, test_path = _write_data(tmp_path)
        out = str(tmp_path / "d.csv")
        rc = main(["distances", "--a", test_path, "--b", train_path, "--out", out])
        assert rc == 0
        a = read_svmlight(test_path)
        b = read_svmlight(train_path)
        width = max(a.n_sparse_features, b.n_sparse_features)
        expected = jaccard_distance_matrix(
            a.sparse.widen(width), b.sparse.widen(width)
        ).values
        assert np.array_equal(read_matrix_csv(out), expected)


class TestBenchCommand:
    def test_end_to_end_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"""
out_dir = {tmp_path / "out"}
n_runs = 2
n_train = 40
methods = elm-srp, knn-jaccard
data.kind = synth
data.n_features = 600
data.n_train_pool = 100
data.n_test = 50
data.signal_features = 60
data.density = 0.02
method.elm-srp.L = 16
"""
        )
        rc = main(["bench", "--config", str(cfg)])
        assert rc == 0
        assert "best methods" in capsys.readouterr().out
        assert (tmp_path / "out" / "runs.csv").exists()

    def test_bad_config_exit_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("out_dir = /tmp/x\nnot_a_key = 1\n")
        rc = main(["bench", "--config", str(cfg)])
        assert rc == 1
        assert "not_a_key" in capsys.readouterr().err

    def test_bad_method_value_fails_at_parse(self, tmp_path, capsys):
        # before values were typed at parse time, every elm-srp run failed
        # on int("ten"), the method was dropped and bench still exited 0
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"""
out_dir = {tmp_path / "out"}
n_runs = 2
n_train = 40
methods = elm-srp, knn-jaccard
data.kind = synth
data.n_features = 600
data.n_train_pool = 100
data.n_test = 50
data.signal_features = 60
method.elm-srp.L = ten
"""
        )
        rc = main(["bench", "--config", str(cfg)])
        assert rc == 1
        assert "method.elm-srp.L" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_of_range_method_value_fails_at_parse(self, tmp_path, capsys):
        # before the method table checked ranges, every knn-srp run failed
        # on the even k, the method was dropped and bench still exited 0
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"""
out_dir = {tmp_path / "out"}
n_runs = 2
n_train = 40
methods = knn-srp, knn-jaccard
srp.dim = 20
data.kind = synth
data.n_features = 600
data.n_train_pool = 100
data.n_test = 50
data.signal_features = 60
method.knn-srp.k = 2
"""
        )
        rc = main(["bench", "--config", str(cfg)])
        assert rc == 1
        assert "method.knn-srp.k" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_synth_key_under_svmlight_fails(self, tmp_path, capsys):
        _, train_path, test_path = _write_data(tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"""
out_dir = {tmp_path / "out"}
n_runs = 2
n_train = 20
methods = knn-jaccard
data.kind = svmlight
data.train = {train_path}
data.test = {test_path}
data.n_train_pool = 10
"""
        )
        rc = main(["bench", "--config", str(cfg)])
        assert rc == 1
        assert "data.n_train_pool" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_key_fails_before_output(self, tmp_path, capsys):
        # the second n_runs used to override the first silently
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"""
out_dir = {tmp_path / "out"}
n_runs = 100
n_train = 40
methods = knn-jaccard
n_runs = 2
"""
        )
        rc = main(["bench", "--config", str(cfg)])
        assert rc == 1
        assert "duplicate key 'n_runs'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["bench", "--config", str(tmp_path / "absent.txt")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestSweepCommand:
    def test_end_to_end_exit_zero(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"""
out_dir = {tmp_path / "sout"}
n_runs = 2
n_train = 30
methods = elm-srp
sweep.dims = 8, 16
data.kind = synth
data.n_features = 500
data.n_train_pool = 80
data.n_test = 40
data.signal_features = 50
data.density = 0.02
"""
        )
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 0
        header, rows = read_table_csv(str(tmp_path / "sout" / "sweep.csv"))
        assert len(rows) == 4


class TestPipelineEquivalence:
    def test_precomputed_features_reproduce_bench_auc(self, tmp_path):
        """project output fed back as features gives identical results.

        The in-process run projects internally; the second run consumes
        the CSVs written by the project command.  Density and seed are
        pinned so the per-feature generator emits the same rows, which
        makes the two paths agree bit for bit.
        """
        ds, train_path, test_path = _write_data(
            tmp_path, n=120, n_features=800, split=80, seed=6
        )
        common = f"""
base_seed = 3
n_runs = 2
n_train = 50
methods = knn-srp, krr-srp
srp.dim = 24
srp.density = 0.05
srp.seed = 11
data.kind = svmlight
data.train = {train_path}
data.test = {test_path}
"""
        cfg_in = tmp_path / "in.txt"
        cfg_in.write_text(f"out_dir = {tmp_path / 'in_out'}\n" + common)
        assert main(["bench", "--config", str(cfg_in)]) == 0

        f_train = str(tmp_path / "ftrain.csv")
        f_test = str(tmp_path / "ftest.csv")
        for src, dst in [(train_path, f_train), (test_path, f_test)]:
            assert main([
                "project", "--in", src, "--dim", "24",
                "--density", "0.05", "--seed", "11", "--out", dst,
            ]) == 0
        cfg_pre = tmp_path / "pre.txt"
        cfg_pre.write_text(
            f"out_dir = {tmp_path / 'pre_out'}\n"
            + common
            + f"data.train_features = {f_train}\ndata.test_features = {f_test}\n"
        )
        assert main(["bench", "--config", str(cfg_pre)]) == 0

        runs_in = read_table_csv(str(tmp_path / "in_out" / "runs.csv"))
        runs_pre = read_table_csv(str(tmp_path / "pre_out" / "runs.csv"))
        assert runs_in == runs_pre
