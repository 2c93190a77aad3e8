"""Tests for model save/load: reloaded models must predict identically."""

import numpy as np
import pytest

from srplearn.elm import RbfModel, elm_fit, model_predict, rbf_fit, rvfl_fit
from srplearn.logreg import logreg_fit, logreg_predict
from srplearn.matio import read_keyvalues, write_keyvalues
from srplearn.persistence import _read_sparse_rows, load_model, save_model
from srplearn.ridge import RidgeSolution
from srplearn.sparse import SparseBinaryMatrix

from oracles import random_sparse


def _labels(rng, n):
    y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    return y


class TestElmRoundTrip:
    def test_predictions_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        X = random_sparse(rng, 40, 200, 0.1)
        y = _labels(rng, 40)
        model = elm_fit(X, y, 24, seed=5)
        prefix = str(tmp_path / "elm")
        save_model(model, prefix)
        back = load_model(prefix)
        X_new = random_sparse(rng, 15, 200, 0.1)
        assert np.array_equal(model_predict(model, X_new), model_predict(back, X_new))
        assert back.solution.lam == model.solution.lam
        assert back.solution.press_value == model.solution.press_value

    def test_rvfl_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        X = random_sparse(rng, 30, 150, 0.1)
        y = _labels(rng, 30)
        model = rvfl_fit(X, y, 16, d_lin=6, seed=3)
        prefix = str(tmp_path / "rvfl")
        save_model(model, prefix)
        back = load_model(prefix)
        X_new = random_sparse(rng, 10, 150, 0.1)
        assert np.array_equal(model_predict(model, X_new), model_predict(back, X_new))
        assert back.linear_part.output_dim == 6

    def test_older_activation_key_ignored(self, tmp_path):
        # files written before tanh became the only hidden layer say so
        rng = np.random.default_rng(4)
        X = random_sparse(rng, 30, 120, 0.1)
        model = elm_fit(X, _labels(rng, 30), 12, seed=2)
        prefix = str(tmp_path / "old")
        save_model(model, prefix)
        meta = tmp_path / "old.meta"
        assert "activation" not in meta.read_text()
        with open(meta, "a", encoding="utf-8") as handle:
            handle.write("activation=tanh\n")
        back = load_model(prefix)
        assert np.array_equal(model_predict(model, X), model_predict(back, X))


    @pytest.mark.parametrize("kind", ["elm", "rvfl"])
    def test_stream_recorded(self, tmp_path, kind):
        rng = np.random.default_rng(5)
        X = random_sparse(rng, 30, 120, 0.1)
        fit = rvfl_fit if kind == "rvfl" else elm_fit
        prefix = str(tmp_path / kind)
        save_model(fit(X, _labels(rng, 30), 12, seed=2), prefix)
        assert read_keyvalues(prefix + ".meta")["stream"] == "2"

    @pytest.mark.parametrize("stream", [None, "1"])
    def test_other_stream_refused(self, tmp_path, stream):
        # a v1-era file has no stream key; its projection cannot be rebuilt
        rng = np.random.default_rng(6)
        X = random_sparse(rng, 30, 120, 0.1)
        prefix = str(tmp_path / "old")
        save_model(elm_fit(X, _labels(rng, 30), 12, seed=2), prefix)
        meta = read_keyvalues(prefix + ".meta")
        if stream is None:
            del meta["stream"]
        else:
            meta["stream"] = stream
        write_keyvalues(prefix + ".meta", meta)
        with pytest.raises(ValueError, match="projection stream 1"):
            load_model(prefix)


class TestRbfRoundTrip:
    def test_dense_centroids(self, tmp_path):
        rng = np.random.default_rng(2)
        F = rng.standard_normal((50, 12))
        y = _labels(rng, 50)
        model = rbf_fit(F, y, 10, seed=7)
        prefix = str(tmp_path / "rbf")
        save_model(model, prefix)
        back = load_model(prefix)
        F_new = rng.standard_normal((8, 12))
        assert np.array_equal(model_predict(model, F_new), model_predict(back, F_new))
        assert np.array_equal(back.gammas, model.gammas)
        assert np.array_equal(back.centroids, model.centroids)

    def test_sparse_centroids(self, tmp_path):
        rng = np.random.default_rng(3)
        X = random_sparse(rng, 60, 80, 0.15)
        y = _labels(rng, 60)
        model = rbf_fit(X, y, 20, seed=9)
        prefix = str(tmp_path / "rbfj")
        save_model(model, prefix)
        back = load_model(prefix)
        X_new = random_sparse(rng, 12, 80, 0.15)
        assert np.array_equal(model_predict(model, X_new), model_predict(back, X_new))
        assert back.centroids == model.centroids

    def test_sparse_centroids_with_empty_rows(self, tmp_path):
        # a hand-built model: centroid rows of very different lengths,
        # an empty one included, written one line per row
        rng = np.random.default_rng(4)
        rows = [[], [0, 7, 12345], [5], [], list(range(0, 20000, 7))]
        centroids = SparseBinaryMatrix.from_rows(rows, 20001)
        beta = rng.standard_normal((len(rows), 1))
        solution = RidgeSolution(beta, 0.5, 1.25, np.array([0.5, 1.0]))
        model = RbfModel(centroids, np.full(len(rows), 0.7), solution, 3)
        prefix = str(tmp_path / "rbfj")
        save_model(model, prefix)
        text = (tmp_path / "rbfj.centroids.txt").read_text()
        assert text == "".join(" ".join(str(j) for j in r) + "\n" for r in rows)
        back = load_model(prefix)
        assert back.centroids == centroids
        X_new = random_sparse(rng, 6, 20001, 0.001)
        assert np.array_equal(model_predict(model, X_new), model_predict(back, X_new))

    @staticmethod
    def _saved(tmp_path, storage):
        """An RBF model on dense or sparse rows, saved; (model, rows, prefix)."""
        rng = np.random.default_rng(5)
        if storage == "dense":
            X = rng.standard_normal((40, 10))
        else:
            X = random_sparse(rng, 40, 60, 0.15)
        model = rbf_fit(X, _labels(rng, 40), 12, seed=4)
        prefix = str(tmp_path / storage)
        save_model(model, prefix)
        return model, X, prefix

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    def test_distance_kind_not_written(self, tmp_path, storage):
        _, _, prefix = self._saved(tmp_path, storage)
        meta = read_keyvalues(prefix + ".meta")
        assert meta["centroid_storage"] == storage
        assert "distance_kind" not in meta

    @pytest.mark.parametrize(
        "storage, kind", [("dense", "squared-euclidean"), ("sparse", "jaccard")]
    )
    def test_older_file_with_matching_kind_loads(self, tmp_path, storage, kind):
        # files written while RBF took a distance kind name it; where the
        # kind is the one the centroids' row type picks, they load as before
        model, X, prefix = self._saved(tmp_path, storage)
        meta = read_keyvalues(prefix + ".meta")
        write_keyvalues(prefix + ".meta", {"distance_kind": kind, **meta})
        back = load_model(prefix)
        assert model_predict(back, X).tobytes() == model_predict(model, X).tobytes()

    def test_older_squared_euclidean_sparse_file_refused(self, tmp_path):
        # such a model measured sparse rows by squared Euclidean distance;
        # loaded now, it would score them by Jaccard
        _, _, prefix = self._saved(tmp_path, "sparse")
        meta = read_keyvalues(prefix + ".meta")
        write_keyvalues(prefix + ".meta", {**meta, "distance_kind": "squared-euclidean"})
        with pytest.raises(ValueError, match="distance_kind=squared-euclidean") as exc:
            load_model(prefix)
        assert str(exc.value).startswith(f"{prefix}.meta: ")

    @pytest.mark.parametrize("line, token", [(b"3 x5", "x5"), (b"3 \xff", "\\xff")])
    def test_bad_column_index_named(self, tmp_path, line, token):
        path = tmp_path / "c.txt"
        path.write_bytes(b"0 1\n\n" + line + b"\n")
        with pytest.raises(ValueError) as exc:
            _read_sparse_rows(str(path), 10)
        assert str(exc.value) == f"{path}: bad column index {token!r}"


class TestLogRegRoundTrip:
    def test_predictions_bit_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        F = rng.standard_normal((40, 6))
        y = _labels(rng, 40)
        model = logreg_fit(F, y, 0.05, max_iter=300)
        prefix = str(tmp_path / "lr")
        save_model(model, prefix)
        back = load_model(prefix)
        F_new = rng.standard_normal((9, 6))
        assert np.array_equal(logreg_predict(model, F_new), logreg_predict(back, F_new))
        assert back.lam == model.lam
        assert back.converged == model.converged
        assert back.iterations == model.iterations


class TestErrors:
    def test_unknown_model_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(object(), str(tmp_path / "x"))

    def test_unknown_kind_on_load(self, tmp_path):
        (tmp_path / "x.meta").write_text("kind=mystery\n")
        with pytest.raises(ValueError):
            load_model(str(tmp_path / "x"))
