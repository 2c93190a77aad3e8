"""Save and reload fitted models.

A model is stored as ``<prefix>.meta`` (key=value) plus CSV sidecars for
its numeric arrays.  Random layers are not stored: they regenerate from
the recorded (dimensions, density, seed), which reproduces them exactly
as long as the recorded projection ``stream`` is the one this version
generates; a model from another stream is refused on load.  Nor is the
ELM bias: :class:`~srplearn.elm.ElmModel` derives it from its hidden
projection, on load as at fit.
All floats round-trip bit for bit, so a reloaded model predicts
identically to the original.
"""

from __future__ import annotations

import numpy as np

from .elm import ElmModel, RbfModel
from .logreg import LogRegModel
from .matio import (
    format_float,
    format_ints,
    join_lines,
    parse_ints,
    read_keyvalues,
    read_matrix_csv,
    token_text,
    tokenize,
    write_keyvalues,
    write_matrix_csv,
)
from .projection import STREAM_VERSION, make_projection
from .ridge import RidgeSolution
from .sparse import SparseBinaryMatrix

__all__ = ["save_model", "load_model"]


def _grid_to_str(grid) -> str:
    return ";".join(format_float(v) for v in np.asarray(grid, dtype=np.float64))


def _grid_from_str(text: str) -> np.ndarray:
    return np.asarray([float(t) for t in text.split(";") if t], dtype=np.float64)


def _write_sparse_rows(path: str, matrix: SparseBinaryMatrix) -> None:
    """One line per row: its column indices, space-separated."""
    buf, start, stop = format_ints(matrix.indices)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(join_lines(buf, start, stop, matrix.indptr).decode("ascii"))


def _read_sparse_rows(path: str, n_cols: int) -> SparseBinaryMatrix:
    """Inverse of :func:`_write_sparse_rows`; rows may list indices in any order."""
    with open(path, "rb") as handle:
        buf, start, stop, indptr = tokenize(handle.read())
    cols, ok = parse_ints(buf, start, stop)
    if not ok.all():
        bad = token_text(buf, start, stop, int(np.argmin(ok)))
        raise ValueError(f"{path}: bad column index {bad!r}")
    row = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    order = np.lexsort((cols, row))
    return SparseBinaryMatrix(indptr, cols[order], n_cols)


def save_model(model, prefix: str) -> None:
    """Write ``<prefix>.meta`` plus array sidecars for a fitted model."""
    if isinstance(model, ElmModel):
        meta = {
            "kind": "rvfl" if model.linear_part is not None else "elm",
            "input_dim": model.W.input_dim,
            "hidden_width": model.W.output_dim,
            "density": model.W.density,
            "seed": model.W.seed,
            "stream": STREAM_VERSION,
            "lambda": model.solution.lam,
            "press": model.solution.press_value,
            "lambda_grid": _grid_to_str(model.solution.lambda_grid),
        }
        if model.linear_part is not None:
            meta["linear_width"] = model.linear_part.output_dim
            meta["linear_seed"] = model.linear_part.seed
            meta["linear_density"] = model.linear_part.density
        write_keyvalues(prefix + ".meta", meta)
        write_matrix_csv(prefix + ".beta.csv", model.solution.beta)
        return
    if isinstance(model, RbfModel):
        dense_centroids = not isinstance(model.centroids, SparseBinaryMatrix)
        meta = {
            "kind": "rbf",
            "seed": model.seed,
            "centroid_storage": "dense" if dense_centroids else "sparse",
            "centroid_cols": model.centroids.shape[1],
            "lambda": model.solution.lam,
            "press": model.solution.press_value,
            "lambda_grid": _grid_to_str(model.solution.lambda_grid),
        }
        write_keyvalues(prefix + ".meta", meta)
        write_matrix_csv(prefix + ".beta.csv", model.solution.beta)
        write_matrix_csv(prefix + ".gammas.csv", model.gammas)
        if dense_centroids:
            write_matrix_csv(prefix + ".centroids.csv", model.centroids)
        else:
            _write_sparse_rows(prefix + ".centroids.txt", model.centroids)
        return
    if isinstance(model, LogRegModel):
        write_keyvalues(
            prefix + ".meta",
            {
                "kind": "logreg",
                "lambda": model.lam,
                "intercept": model.intercept,
                "converged": int(model.converged),
                "iterations": model.iterations,
            },
        )
        write_matrix_csv(prefix + ".weights.csv", model.weights)
        return
    raise TypeError(f"unsupported model type: {type(model).__name__}")


def load_model(prefix: str):
    """Rebuild the model saved at ``prefix``; predictions match exactly.

    Keys that older files carry and this version does not need are
    ignored, such as the ``activation=tanh`` of ELM and RVFL models.  An
    RBF file's ``distance_kind`` must be the one its centroids' row type
    picks: squared Euclidean on sparse centroids is refused.
    """
    meta = read_keyvalues(prefix + ".meta")
    kind = meta["kind"]
    if kind == "logreg":
        weights = read_matrix_csv(prefix + ".weights.csv").ravel()
        return LogRegModel(
            weights,
            float(meta["intercept"]),
            float(meta["lambda"]),
            bool(int(meta["converged"])),
            int(meta["iterations"]),
        )
    if kind not in ("elm", "rvfl", "rbf"):
        raise ValueError(f"unknown model kind: {kind!r}")
    if kind != "rbf" and meta.get("stream") != str(STREAM_VERSION):
        found = meta.get("stream", "1 (no stream key)")
        raise ValueError(
            f"{prefix}.meta: saved with projection stream {found}; this "
            f"version regenerates projection stream {STREAM_VERSION} only"
        )
    solution = RidgeSolution(
        read_matrix_csv(prefix + ".beta.csv"),
        float(meta["lambda"]),
        float(meta["press"]),
        _grid_from_str(meta["lambda_grid"]),
    )
    if kind == "rbf":
        gammas = read_matrix_csv(prefix + ".gammas.csv").ravel()
        storage = meta["centroid_storage"]
        expected = "squared-euclidean" if storage == "dense" else "jaccard"
        if meta.get("distance_kind", expected) != expected:
            raise ValueError(
                f"{prefix}.meta: distance_kind={meta['distance_kind']} on {storage} "
                f"centroids; this version measures them by {expected} distance only"
            )
        if storage == "dense":
            centroids = read_matrix_csv(prefix + ".centroids.csv")
        else:
            centroids = _read_sparse_rows(
                prefix + ".centroids.txt", int(meta["centroid_cols"])
            )
        return RbfModel(centroids, gammas, solution, int(meta["seed"]))
    input_dim = int(meta["input_dim"])
    W = make_projection(
        input_dim, int(meta["hidden_width"]), float(meta["density"]), int(meta["seed"])
    )
    linear = None
    if kind == "rvfl":
        linear = make_projection(
            input_dim,
            int(meta["linear_width"]),
            float(meta["linear_density"]),
            int(meta["linear_seed"]),
        )
    return ElmModel(W, linear, solution)
