"""Tests for the benchmark harness: bookkeeping, determinism, artifacts."""

import os

import numpy as np
import pytest
import scipy

from srplearn import bench
from srplearn.bench import cmd_bench, cmd_sweep
from srplearn.config import BENCH_METHODS, SWEEP_METHODS, parse_config
from srplearn.datasets import synth_generate
from srplearn.kernel import krr_fit, krr_predict_kernel
from srplearn.matio import read_table_csv
from srplearn.metrics import roc_auc
from srplearn.projection import apply_projection, make_projection
from srplearn.ridge import default_lambda_grid


def _write_cfg(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _bench_cfg(tmp_path, out_name="out", extra=""):
    """Small bench config; each ``key = value`` line of ``extra`` replaces
    the base value of its key or adds the key (a key may appear once)."""
    keys = {
        "out_dir": tmp_path / out_name,
        "base_seed": "5",
        "n_runs": "3",
        "n_train": "60",
        "methods": "elm-srp, knn-jaccard",
        "srp.dim": "40",
        "data.kind": "synth",
        "data.n_features": "1500",
        "data.n_train_pool": "150",
        "data.n_test": "80",
        "data.signal_features": "100",
        "data.density": "0.01",
        "data.flip_prob": "0.0",
        "method.elm-srp.L": "32",
    }
    for line in extra.splitlines():
        key, value = line.split("=", 1)
        keys[key.strip()] = value.strip()
    text = "".join(f"{key} = {value}\n" for key, value in keys.items())
    return _write_cfg(tmp_path, f"cfg_{out_name}.txt", text)


class TestBench:
    def test_artifacts_and_bookkeeping(self, tmp_path):
        cfg = parse_config(_bench_cfg(tmp_path))
        report = cmd_bench(cfg)
        out = tmp_path / "out"
        for name in ["runs.csv", "summary.csv", "pvalues.csv", "report.txt"]:
            assert (out / name).exists()
        header, rows = read_table_csv(str(out / "runs.csv"))
        assert header == [
            "run", "seed", "method", "auc", "accuracy",
            "iterations", "converged", "error",
        ]
        # 3 runs x 2 methods, run seeds offset from base_seed
        assert len(rows) == 6
        assert sorted({r[0] for r in rows}) == ["0", "1", "2"]
        assert {r[1] for r in rows if r[0] == "2"} == {"7"}
        assert {r[2] for r in rows} == {"elm-srp", "knn-jaccard"}
        for r in rows:
            assert 0.0 <= float(r[3]) <= 1.0
            assert r[7] == ""
        assert set(report.methods) == {"elm-srp", "knn-jaccard"}
        assert report.best_set
        # without data.name the report names the generated data
        assert "\ndata: synth-n230-d1500-s100-seed5 (pool=150, test=80," in (
            (out / "report.txt").read_text()
        )

    def test_report_names_its_environment(self, tmp_path):
        # not compared across reruns: it names the libraries, not the results
        cmd_bench(parse_config(_bench_cfg(tmp_path, "env", extra="n_runs = 1\n")))
        lines = (tmp_path / "env" / "report.txt").read_text().splitlines()
        env = [line for line in lines if line.startswith("environment: ")]
        assert len(env) == 1
        libraries = f"environment: numpy {np.__version__}, scipy {scipy.__version__}, "
        assert env[0].startswith(libraries + "BLAS ")
        assert len(env[0]) > len(libraries + "BLAS ")

    def test_report_names_configured_data(self, tmp_path):
        cfg = parse_config(
            _bench_cfg(tmp_path, "named", extra="data.name = tiny-synth\nn_runs = 1\n")
        )
        cmd_bench(cfg)
        report_text = (tmp_path / "named" / "report.txt").read_text()
        assert "\ndata: tiny-synth (pool=150, test=80," in report_text

    def test_rerun_byte_identical(self, tmp_path):
        cfg1 = parse_config(_bench_cfg(tmp_path, "o1"))
        cfg2 = parse_config(_bench_cfg(tmp_path, "o2"))
        cmd_bench(cfg1)
        cmd_bench(cfg2)
        for name in ["runs.csv", "summary.csv", "pvalues.csv"]:
            b1 = (tmp_path / "o1" / name).read_bytes()
            b2 = (tmp_path / "o2" / name).read_bytes()
            assert b1 == b2, name

    def test_rerun_one_method_rows_identical(self, tmp_path):
        # each method draws from its own seed, so rerunning it alone
        # reproduces its rows of the joint run byte for byte
        cmd_bench(parse_config(_bench_cfg(tmp_path, "both")))
        joint = (tmp_path / "both" / "runs.csv").read_text().splitlines()
        for m in ["elm-srp", "knn-jaccard"]:
            cmd_bench(parse_config(_bench_cfg(tmp_path, m, extra=f"methods = {m}\n")))
            alone = (tmp_path / m / "runs.csv").read_text().splitlines()
            assert alone[0] == joint[0]
            assert alone[1:] == [ln for ln in joint[1:] if f",{m}," in ln], m

    def test_single_run_skips_t_tests(self, tmp_path):
        cfg = parse_config(_bench_cfg(tmp_path, "single", extra="n_runs = 1\n"))
        report = cmd_bench(cfg)
        assert report.p_values.size == 0
        assert len(report.best_set) == 1
        assert not (tmp_path / "single" / "pvalues.csv").exists()

    def test_logreg_iterations_recorded(self, tmp_path):
        cfg = parse_config(
            _write_cfg(
                tmp_path,
                "lr.txt",
                f"""
out_dir = {tmp_path / "lr_out"}
base_seed = 2
n_runs = 2
n_train = 50
methods = logreg-srp
srp.dim = 30
data.kind = synth
data.n_features = 800
data.n_train_pool = 120
data.n_test = 60
data.signal_features = 80
data.density = 0.015
method.logreg-srp.max_iter = 40
""",
            )
        )
        cmd_bench(cfg)
        _, rows = read_table_csv(str(tmp_path / "lr_out" / "runs.csv"))
        for r in rows:
            assert 0 < int(r[5]) <= 40
            assert r[6] in ("0", "1")

    @pytest.mark.parametrize(
        "exp, note",
        [(-3, " (bottom edge of the grid)"), (3, " (top edge of the grid)"), (0, "")],
    )
    def test_report_says_when_logreg_lambda_at_grid_edge(
        self, tmp_path, monkeypatch, exp, note
    ):
        monkeypatch.setattr(
            bench, "logreg_select_lambda", lambda *args, **kwargs: (2.0**exp, None)
        )
        extra = (
            "methods = logreg-srp\nn_runs = 1\nlambda.min_exp = -3\n"
            "lambda.max_exp = 3\nmethod.logreg-srp.max_iter = 20"
        )
        cmd_bench(parse_config(_bench_cfg(tmp_path, extra=extra)))
        lines = (tmp_path / "out" / "report.txt").read_text().splitlines()
        # the stand-in sets no convergence flag, so the tuned penalty reads as
        # unconverged too
        assert (
            f"dim 40: logreg lambda={2.0**exp:.6g}{note}, tuned on subsample seed 4; "
            "descent converged for 0/7 penalties; the tuned penalty's descent "
            "did not converge"
        ) in lines

    def test_report_counts_converged_tuning_descents(self, tmp_path, monkeypatch):
        select = bench.logreg_select_lambda
        tunings = []

        def recording(*args, converged, **kwargs):
            result = select(*args, converged=converged, **kwargs)
            tunings.append((result[0], converged.copy()))
            return result

        monkeypatch.setattr(bench, "logreg_select_lambda", recording)
        grid = default_lambda_grid()
        for out, max_iter in [("out", 5), ("one_step", 1)]:
            extra = f"methods = logreg-srp\nn_runs = 1\nmethod.logreg-srp.max_iter = {max_iter}"
            cmd_bench(parse_config(_bench_cfg(tmp_path, out, extra)))
            lam, converged = tunings.pop()
            tuned_converged = converged[grid == lam][0]
            if max_iter == 5:
                # a cap of 5 iterations leaves some of the 41 penalties unconverged
                assert converged.size == 41 and 0 < np.count_nonzero(converged) < 41
            else:
                # one step from the zero start leaves the tuned penalty unconverged
                assert not tuned_converged
            tail = "" if tuned_converged else "; the tuned penalty's descent did not converge"
            report = (tmp_path / out / "report.txt").read_text()
            assert (
                f"; descent converged for {np.count_nonzero(converged)}/41 penalties{tail}\n"
            ) in report

    def test_timings_never_in_csv(self, tmp_path):
        cfg = parse_config(_bench_cfg(tmp_path, "not"))
        cmd_bench(cfg)
        for name in ["runs.csv", "summary.csv", "pvalues.csv"]:
            header, _ = read_table_csv(str(tmp_path / "not" / name))
            assert not any("time" in h or "second" in h for h in header)
        report_text = (tmp_path / "not" / "report.txt").read_text()
        assert "time" in report_text  # timings live in the report instead


def _timing_keys(out1, out2):
    """The (dim, run, method) of each line of both runs' ``timings.txt``,
    after checking that each line ends in its seconds and that every
    ``*.csv`` of the two runs is byte-identical."""
    csvs = sorted(p.name for p in out1.glob("*.csv"))
    assert csvs == sorted(p.name for p in out2.glob("*.csv"))
    for name in csvs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    keys = []
    for out in (out1, out2):
        fields = [line.split() for line in (out / "timings.txt").read_text().splitlines()]
        assert all(len(f) == 4 and float(f[3]) >= 0.0 for f in fields)
        keys.append([f[:3] for f in fields])
    return keys


class TestTimingsFile:
    def test_bench_one_line_per_row(self, tmp_path):
        for out in ("t1", "t2"):
            cmd_bench(parse_config(_bench_cfg(tmp_path, out)))
        _, rows = read_table_csv(str(tmp_path / "t1" / "runs.csv"))
        expected = [["40", r[0], r[2]] for r in rows]  # one line per row
        assert _timing_keys(tmp_path / "t1", tmp_path / "t2") == [expected, expected]

    def test_sweep_one_line_per_row(self, tmp_path):
        text = """
base_seed = 1
n_runs = 2
n_train = 40
methods = elm-srp, krr-srp
sweep.dims = 8, 32
data.kind = synth
data.n_features = 900
data.n_train_pool = 100
data.n_test = 50
data.signal_features = 60
data.density = 0.015
"""
        for out in ("s1", "s2"):
            cmd_sweep(parse_config(
                _write_cfg(tmp_path, f"{out}.txt", f"out_dir = {tmp_path / out}\n" + text)
            ))
        _, rows = read_table_csv(str(tmp_path / "s1" / "sweep.csv"))
        expected = [[r[0], r[1], r[3]] for r in rows]  # one line per row
        assert _timing_keys(tmp_path / "s1", tmp_path / "s2") == [expected, expected]


class TestMethodTable:
    def test_every_method_runs_with_every_key(self, tmp_path):
        cfg = parse_config(
            _write_cfg(
                tmp_path,
                "all.txt",
                f"""
out_dir = {tmp_path / "all_out"}
base_seed = 3
n_runs = 1
n_train = 40
srp.dim = 24
data.kind = synth
data.n_features = 600
data.n_train_pool = 60
data.n_test = 30
data.signal_features = 60
data.density = 0.02
method.elm-srp.L = 16
method.elm-srp.density = 0.2
method.rvfl-srp.L = 16
method.rvfl-srp.d_lin = 12
method.rvfl-srp.density = 0.2
method.rbf-srp.L = 10
method.rbf-jaccard.L = 10
method.knn-srp.k = 3
method.knn-jaccard.k = 3
method.logreg-srp.max_iter = 20
method.logreg-srp.tol = 1e-4
""",
            )
        )
        report = cmd_bench(cfg)
        _, rows = read_table_csv(str(tmp_path / "all_out" / "runs.csv"))
        assert [r[2] for r in rows] == BENCH_METHODS
        for r in rows:
            assert r[7] == "", (r[2], r[7])
            assert 0.0 <= float(r[3]) <= 1.0
        assert report.methods == BENCH_METHODS


class TestKrrSrpIsRidge:
    """krr-srp fits ridge on the projected features F through bench's binding
    of ``solve_ridge_press``; that is kernel ridge on the linear kernel F F'."""

    N_TRAIN = 60

    @pytest.mark.parametrize("dim", [150, 24], ids=["dual", "primal"])
    def test_matches_krr_on_linear_kernel(self, monkeypatch, dim):
        n = self.N_TRAIN
        ds = synth_generate(n + 80, 1500, 0.02, 300, 0.0, seed=11)
        F = apply_projection(ds.sparse, make_projection(1500, dim, seed=12))
        F_train, F_test = F[:n], F[n:]
        y = ds.labels[:n].astype(np.float64)
        grid = default_lambda_grid()

        solutions = []
        solve = bench.solve_ridge_press

        def recorded(*args):
            solutions.append(solve(*args))
            return solutions[-1]

        monkeypatch.setattr(bench, "solve_ridge_press", recorded)
        _, family, _ = bench.METHODS["krr-srp"]
        fit = bench._Fit(y, grid, 0, {}, None, None)
        scores, threshold, _, _, lam = family(F_train, F_test, fit)
        (solution,) = solutions
        assert lam == solution.lam

        model = krr_fit(F_train @ F_train.T, y, grid)
        reference = krr_predict_kernel(model, F_test @ F_train.T)
        assert threshold == 0.0
        assert grid[0] < solution.lam < grid[-1]  # an interior choice
        assert solution.lam == model.lam
        if dim > n:  # dual: the same kernel, decomposed alike
            assert solution.press_value == model.press_value
        else:
            assert solution.press_value == pytest.approx(model.press_value, rel=1e-10)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(scores - reference)) <= 1e-10 * scale
        test_labels = ds.labels[n:]
        assert roc_auc(scores, test_labels) == roc_auc(reference, test_labels)


class TestBaseSeed:
    @pytest.mark.parametrize("command", [cmd_bench, cmd_sweep])
    def test_zero_with_logreg_fails_before_data(self, tmp_path, monkeypatch, command):
        # the logreg penalty is tuned on subsample seed base_seed - 1
        def no_data(*args, **kwargs):
            raise AssertionError("data generated before the seed check")

        monkeypatch.setattr(bench, "synth_generate", no_data)
        cfg = parse_config(
            _bench_cfg(tmp_path, extra="base_seed = 0\nmethods = logreg-srp\n")
        )
        with pytest.raises(ValueError, match="base_seed"):
            command(cfg)


class TestSweep:
    def test_rows_cover_grid_and_match_bench_protocol(self, tmp_path):
        common = """
base_seed = 9
n_runs = 2
n_train = 50
data.kind = synth
data.n_features = 1200
data.n_train_pool = 120
data.n_test = 60
data.signal_features = 90
data.density = 0.012
"""
        sweep_cfg = parse_config(
            _write_cfg(
                tmp_path,
                "s.txt",
                f"out_dir = {tmp_path / 'sweep_out'}\n"
                + common
                + "sweep.dims = 16, 64\n",
            )
        )
        rows = cmd_sweep(sweep_cfg)
        header, csv_rows = read_table_csv(str(tmp_path / "sweep_out" / "sweep.csv"))
        assert header[0] == "dim"
        n_methods = len(SWEEP_METHODS)
        assert n_methods == 6
        assert len(rows) == len(csv_rows) == 2 * 2 * n_methods  # dims x runs x methods
        assert sorted({r[0] for r in csv_rows}) == ["16", "64"]
        assert {r[3] for r in csv_rows} == set(SWEEP_METHODS)
        assert all(r[8] == "" for r in csv_rows)
        report_lines = (tmp_path / "sweep_out" / "report.txt").read_text().splitlines()
        # dim, method, auc_mean, then the mean time with three decimals
        timed = [l.split() for l in report_lines if l.split()[:1] in (["16"], ["64"])]
        assert len(timed) == 2 * n_methods
        assert all(len(f[3].rsplit(".", 1)[1]) == 3 for f in timed)
        failures = next(i for i, l in enumerate(report_lines) if l.startswith("failures:"))
        assert report_lines[failures + 1].startswith("lambda at grid edge: ")

        # bench at srp.dim 64 with the ELM/RVFL widths set to 64 is the
        # sweep's dim-64 block: same projection, seeds, subsamples, models
        bench_cfg = parse_config(
            _write_cfg(
                tmp_path,
                "b.txt",
                f"out_dir = {tmp_path / 'bench_out'}\n"
                + common
                + f"methods = {', '.join(SWEEP_METHODS)}\nsrp.dim = 64\n"
                + "method.elm-srp.L = 64\nmethod.rvfl-srp.L = 64\n",
            )
        )
        cmd_bench(bench_cfg)
        bench_header, bench_rows = read_table_csv(
            str(tmp_path / "bench_out" / "runs.csv")
        )
        assert header[1:] == bench_header
        sweep_64 = {(r[1], r[3]): r[1:] for r in csv_rows if r[0] == "64"}
        assert sweep_64 == {(r[0], r[2]): r for r in bench_rows}
        assert len(sweep_64) == 2 * n_methods

    def test_sweep_rerun_byte_identical(self, tmp_path):
        text = """
base_seed = 1
n_runs = 2
n_train = 40
methods = elm-srp
sweep.dims = 8, 32
data.kind = synth
data.n_features = 900
data.n_train_pool = 100
data.n_test = 50
data.signal_features = 60
data.density = 0.015
"""
        cmd_sweep(
            parse_config(
                _write_cfg(tmp_path, "s1.txt", f"out_dir = {tmp_path / 's1'}\n" + text)
            )
        )
        cmd_sweep(
            parse_config(
                _write_cfg(tmp_path, "s2.txt", f"out_dir = {tmp_path / 's2'}\n" + text)
            )
        )
        assert (tmp_path / "s1" / "sweep.csv").read_bytes() == (
            tmp_path / "s2" / "sweep.csv"
        ).read_bytes()


class TestSvmlightSource:
    def test_bench_reads_files_and_aligns_widths(self, tmp_path):
        from srplearn.datasets import synth_generate, write_svmlight

        ds = synth_generate(160, 700, 0.02, 80, 0.0, seed=4)
        train = ds.take(np.arange(100))
        test = ds.take(np.arange(100, 160))
        write_svmlight(train, str(tmp_path / "train.txt"))
        write_svmlight(test, str(tmp_path / "test.txt"))
        cfg = parse_config(
            _write_cfg(
                tmp_path,
                "sv.txt",
                f"""
out_dir = {tmp_path / "sv_out"}
base_seed = 0
n_runs = 2
n_train = 60
methods = elm-srp, krr-jaccard
srp.dim = 32
data.kind = svmlight
data.train = {tmp_path / "train.txt"}
data.test = {tmp_path / "test.txt"}
method.elm-srp.L = 24
""",
            )
        )
        report = cmd_bench(cfg)
        assert set(report.methods) == {"elm-srp", "krr-jaccard"}
        # the jaccard method sees the raw sets and must do well; a width
        # misalignment between the two files would crash, not score low
        assert report.auc_mean["krr-jaccard"] > 0.6
        for m in report.methods:
            assert 0.0 <= report.auc_mean[m] <= 1.0

    def test_precomputed_features_rejected_in_sweep(self, tmp_path):
        from srplearn.datasets import synth_generate, write_svmlight
        from srplearn.matio import write_matrix_csv

        ds = synth_generate(60, 300, 0.03, 30, 0.0, seed=5)
        write_svmlight(ds.take(np.arange(40)), str(tmp_path / "tr.txt"))
        write_svmlight(ds.take(np.arange(40, 60)), str(tmp_path / "te.txt"))
        write_matrix_csv(str(tmp_path / "ftr.csv"), np.zeros((40, 8)))
        write_matrix_csv(str(tmp_path / "fte.csv"), np.zeros((20, 8)))
        cfg = parse_config(
            _write_cfg(
                tmp_path,
                "pre.txt",
                f"""
out_dir = {tmp_path / "pre_out"}
n_runs = 2
n_train = 20
methods = knn-srp
sweep.dims = 4, 8
data.kind = svmlight
data.train = {tmp_path / "tr.txt"}
data.test = {tmp_path / "te.txt"}
data.train_features = {tmp_path / "ftr.csv"}
data.test_features = {tmp_path / "fte.csv"}
""",
            )
        )
        with pytest.raises(ValueError):
            cmd_sweep(cfg)


class TestChecksBeforeWork:
    """A run whose inputs break a rule fails before the expensive steps."""

    @staticmethod
    def _forbid(monkeypatch, name):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{name} called before the inputs were checked")

        monkeypatch.setattr(bench, name, forbidden)

    def test_svmlight_pool_smaller_than_n_train(self, tmp_path, monkeypatch):
        from srplearn.datasets import write_svmlight

        ds = synth_generate(60, 300, 0.03, 30, 0.0, seed=5)
        write_svmlight(ds.take(np.arange(40)), str(tmp_path / "tr.txt"))
        write_svmlight(ds.take(np.arange(40, 60)), str(tmp_path / "te.txt"))
        cfg = parse_config(_write_cfg(tmp_path, "pool.txt", f"""
out_dir = {tmp_path / "pool_out"}
n_runs = 2
n_train = 50
methods = knn-srp, logreg-srp
data.kind = svmlight
data.train = {tmp_path / "tr.txt"}
data.test = {tmp_path / "te.txt"}
"""))
        self._forbid(monkeypatch, "make_projection")
        with pytest.raises(ValueError, match="n_train"):
            cmd_bench(cfg)

    def test_sweep_with_precomputed_features(self, tmp_path, monkeypatch):
        cfg = parse_config(_write_cfg(tmp_path, "pre.txt", f"""
out_dir = {tmp_path / "pre_out"}
methods = knn-srp
sweep.dims = 4, 8
data.kind = svmlight
data.train = {tmp_path / "tr.txt"}
data.test = {tmp_path / "te.txt"}
data.train_features = {tmp_path / "ftr.csv"}
data.test_features = {tmp_path / "fte.csv"}
"""))
        self._forbid(monkeypatch, "read_svmlight")
        with pytest.raises(ValueError, match="precomputed"):
            cmd_sweep(cfg)


class TestFailureHandling:
    def test_failed_method_recorded_not_fatal(self, tmp_path):
        # knn with k larger than n_train fails; elm still completes, the
        # failing method lands in runs.csv with an error string and is
        # dropped from the summary
        cfg = parse_config(
            _write_cfg(
                tmp_path,
                "fail.txt",
                f"""
out_dir = {tmp_path / "fail_out"}
n_runs = 2
n_train = 5
methods = elm-srp, knn-jaccard
data.kind = synth
data.n_features = 400
data.n_train_pool = 40
data.n_test = 20
data.signal_features = 40
data.density = 0.02
method.elm-srp.L = 8
method.knn-jaccard.k = 7
""",
            )
        )
        with pytest.warns(RuntimeWarning):
            report = cmd_bench(cfg)
        assert report.methods == ["elm-srp"]
        _, rows = read_table_csv(str(tmp_path / "fail_out" / "runs.csv"))
        knn_rows = [r for r in rows if r[2] == "knn-jaccard"]
        assert all(r[7] != "" for r in knn_rows)
        report_text = (tmp_path / "fail_out" / "report.txt").read_text()
        assert "failures: 2" in report_text


class TestLambdaEdgeLines:
    GRID = default_lambda_grid(-3, 3)

    def test_runs_at_each_edge_counted(self):
        rows = [
            {"dim": 8, "method": "a", "lambda": 2.0**-3},
            {"dim": 8, "method": "a", "lambda": 2.0**-1},  # inside the grid
            {"dim": 8, "method": "b", "lambda": 2.0**3},
            {"dim": 8, "method": "c", "lambda": None},  # kNN, logreg, failures
            {"dim": 16, "method": "a", "lambda": 2.0**-3},
        ]
        assert bench._edge_lines(rows, self.GRID) == [
            "lambda at grid edge: 3",
            "  dim 8 a: 1/2 runs at 2^-3 (bottom)",
            "  dim 8 b: 1/1 runs at 2^3 (top)",
            "  dim 16 a: 1/1 runs at 2^-3 (bottom)",
        ]

    def test_none_at_an_edge(self):
        rows = [{"dim": 8, "method": "a", "lambda": 1.0},
                {"dim": 8, "method": "c", "lambda": None}]
        assert bench._edge_lines(rows, self.GRID) == ["lambda at grid edge: none"]


class TestKnnSrpCollapse:
    def test_constant_scores_warned_and_reported(self, tmp_path):
        # at this shape (bench-mix's) 1-NN on the projected features gives
        # every test row the same label in every run: AUC 0.5 with constant
        # scores, while krr-jaccard scores 1.0 in every run, so the pair's
        # AUC difference is a nonzero constant with zero variance
        cfg = parse_config(
            _write_cfg(
                tmp_path,
                "collapse.txt",
                f"""
out_dir = {tmp_path / "out"}
n_runs = 2
n_train = 200
methods = knn-srp, krr-jaccard
srp.dim = 400
data.kind = synth
data.n_features = 3000
data.n_train_pool = 600
data.n_test = 100
data.density = 0.03
data.signal_features = 600
""",
            )
        )
        with pytest.warns(RuntimeWarning, match="every score is equal"):
            report = cmd_bench(cfg)
        assert report.auc_mean["knn-srp"] == 0.5
        _, rows = read_table_csv(str(tmp_path / "out" / "runs.csv"))
        assert [r[3] for r in rows if r[2] == "knn-srp"] == ["0.5", "0.5"]
        text = (tmp_path / "out" / "report.txt").read_text()
        assert (
            "p = 0 from a constant nonzero AUC difference (zero variance): "
            "knn-srp vs krr-jaccard" in text
        )
        # the section names the collapsed method only
        lines = text.splitlines()
        start = lines.index("constant scores: 2")
        assert lines[start : start + 3] == [
            "constant scores: 2", "  dim 400 knn-srp: 2/2 runs", "failures: none"
        ]
        # the Jaccard kernel is well conditioned, so PRESS falls toward
        # lambda = 0 and picks the bottom of the grid in both runs
        assert lines[start + 3 :] == [
            "lambda at grid edge: 2", "  dim 400 krr-jaccard: 2/2 runs at 2^-20 (bottom)"
        ]


class TestSweepReportPartialCells:
    def test_partial_cell_marked_and_failure_listed(self, tmp_path, monkeypatch):
        # one ELM fit of three fails; the report's mean covers the other
        # two and says so, and sweep.csv keeps the failed run's row
        real_fit = bench.elm_fit
        calls = []

        def fails_on_second_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("injected failure")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(bench, "elm_fit", fails_on_second_call)
        cfg = parse_config(
            _bench_cfg(tmp_path, "sweep", "methods = elm-srp\nsweep.dims = 16")
        )
        with pytest.warns(RuntimeWarning, match="failed on run 1"):
            rows = cmd_sweep(cfg)
        _, csv_rows = read_table_csv(str(tmp_path / "sweep" / "sweep.csv"))
        assert [r[8] for r in csv_rows] == ["", "injected failure", ""]
        lines = (tmp_path / "sweep" / "report.txt").read_text().splitlines()
        cell = next(l for l in lines if l.split()[:2] == ["16", "elm-srp"])
        assert cell.endswith("(2/3 runs)")
        completed = [r["auc"] for r in rows if not r["error"]]
        assert float(cell.split()[2]) == pytest.approx(np.mean(completed), abs=5e-5)
        assert "constant scores: none" in lines
        assert "failures: 1" in lines
        assert "  dim 16 run 1 elm-srp: injected failure" in lines
