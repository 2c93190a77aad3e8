"""Save and reload fitted models.

A model is stored as ``<prefix>.meta`` (key=value) plus CSV sidecars for
its numeric arrays.  Random layers are not stored: they regenerate from
the recorded (dimensions, density, seed), which reproduces them exactly.
All floats round-trip bit for bit, so a reloaded model predicts
identically to the original.
"""

from __future__ import annotations

import numpy as np

from .elm import ElmModel, RbfModel, elm_bias
from .logreg import LogRegModel
from .matio import (
    format_float,
    read_keyvalues,
    read_matrix_csv,
    write_keyvalues,
    write_matrix_csv,
)
from .projection import make_projection
from .ridge import RidgeSolution
from .sparse import SparseBinaryMatrix

__all__ = ["save_model", "load_model"]


def _grid_to_str(grid) -> str:
    return ";".join(format_float(v) for v in np.asarray(grid, dtype=np.float64))


def _grid_from_str(text: str) -> np.ndarray:
    return np.asarray([float(t) for t in text.split(";") if t], dtype=np.float64)


def _write_sparse_rows(path: str, matrix: SparseBinaryMatrix) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(matrix.n_rows):
            handle.write(" ".join(str(int(j)) for j in matrix.row(i)) + "\n")


def _read_sparse_rows(path: str, n_cols: int) -> SparseBinaryMatrix:
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            rows.append([int(t) for t in line.split()] if line else [])
    return SparseBinaryMatrix.from_rows(rows, n_cols)


def save_model(model, prefix: str) -> None:
    """Write ``<prefix>.meta`` plus array sidecars for a fitted model."""
    if isinstance(model, ElmModel):
        meta = {
            "kind": "rvfl" if model.linear_part is not None else "elm",
            "input_dim": model.W.input_dim,
            "hidden_width": model.W.output_dim,
            "density": model.W.density,
            "seed": model.W.seed,
            "activation": model.activation,
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
            "distance_kind": model.distance_kind,
            "seed": model.seed,
            "centroid_storage": "dense" if dense_centroids else "sparse",
            "centroid_cols": (
                model.centroids.shape[1]
                if dense_centroids
                else model.centroids.n_cols
            ),
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
    """Rebuild the model saved at ``prefix``; predictions match exactly."""
    meta = read_keyvalues(prefix + ".meta")
    kind = meta["kind"]
    if kind in ("elm", "rvfl"):
        input_dim = int(meta["input_dim"])
        width = int(meta["hidden_width"])
        density = float(meta["density"])
        seed = int(meta["seed"])
        W = make_projection(input_dim, width, density, seed)
        bias = elm_bias(input_dim, width, density, seed)
        linear = None
        if kind == "rvfl":
            linear = make_projection(
                input_dim,
                int(meta["linear_width"]),
                float(meta["linear_density"]),
                int(meta["linear_seed"]),
            )
        beta = read_matrix_csv(prefix + ".beta.csv")
        solution = RidgeSolution(
            beta,
            float(meta["lambda"]),
            float(meta["press"]),
            _grid_from_str(meta["lambda_grid"]),
        )
        return ElmModel(W, bias, meta["activation"], linear, solution)
    if kind == "rbf":
        beta = read_matrix_csv(prefix + ".beta.csv")
        gammas = read_matrix_csv(prefix + ".gammas.csv").ravel()
        if meta["centroid_storage"] == "dense":
            centroids = read_matrix_csv(prefix + ".centroids.csv")
        else:
            centroids = _read_sparse_rows(
                prefix + ".centroids.txt", int(meta["centroid_cols"])
            )
        solution = RidgeSolution(
            beta,
            float(meta["lambda"]),
            float(meta["press"]),
            _grid_from_str(meta["lambda_grid"]),
        )
        return RbfModel(
            centroids, gammas, meta["distance_kind"], solution, int(meta["seed"])
        )
    if kind == "logreg":
        weights = read_matrix_csv(prefix + ".weights.csv").ravel()
        return LogRegModel(
            weights,
            float(meta["intercept"]),
            float(meta["lambda"]),
            bool(int(meta["converged"])),
            int(meta["iterations"]),
        )
    raise ValueError(f"unknown model kind: {kind!r}")
