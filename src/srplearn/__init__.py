"""Sparse random projections and fast classifiers for sparse binary data.

The package covers the full pipeline for classifying very
high-dimensional sparse binary rows: an exact-reproducible ternary
sparse random projection, an exact sparse Jaccard distance, random
feature models solved in closed form with leave-one-out ridge selection
(ELM, RVFL, RBF variants), kernel ridge regression with an analytic
leave-one-out residual, nearest neighbours, a logistic regression
baseline fitted by Newton's method, rank-based evaluation (ROC AUC,
paired t-tests), and a benchmark harness with deterministic CSV
artifacts.
"""

from .datasets import (
    Dataset,
    read_svmlight,
    subsample_indices,
    synth_generate,
    write_svmlight,
)
from .distance import (
    DistanceMatrix,
    jaccard_distance_matrix,
    squared_euclidean_distance_matrix,
)
from .elm import (
    ElmModel,
    RbfModel,
    elm_fit,
    elm_hidden,
    model_predict,
    rbf_centroid_indices,
    rbf_fit,
    rvfl_fit,
)
from .exceptions import DegenerateFitError, NumericalDivergenceError, SvmlightParseError
from .kernel import (
    KERNEL_JACCARD,
    KrrModel,
    kernel_matrix,
    knn_predict,
    krr_fit,
    krr_predict,
    krr_predict_kernel,
)
from .logreg import LogRegModel, logreg_fit, logreg_predict, logreg_select_lambda
from .matio import (
    format_float,
    read_keyvalues,
    read_matrix_csv,
    read_table_csv,
    write_keyvalues,
    write_matrix_csv,
    write_table_csv,
)
from .metrics import EvalReport, accuracy, format_report, paired_t_test, roc_auc, summarize
from .persistence import load_model, save_model
from .projection import (
    SparseProjection,
    apply_projection,
    default_density,
    derive_seed,
    make_projection,
    ternary_row,
)
from .ridge import RidgeSolution, default_lambda_grid, solve_ridge_press
from .sparse import SparseBinaryMatrix, sparse_gram

__all__ = [
    "Dataset",
    "DegenerateFitError",
    "DistanceMatrix",
    "ElmModel",
    "EvalReport",
    "KERNEL_JACCARD",
    "KrrModel",
    "LogRegModel",
    "NumericalDivergenceError",
    "RbfModel",
    "RidgeSolution",
    "SparseBinaryMatrix",
    "SparseProjection",
    "SvmlightParseError",
    "accuracy",
    "apply_projection",
    "default_density",
    "default_lambda_grid",
    "derive_seed",
    "elm_fit",
    "elm_hidden",
    "format_float",
    "format_report",
    "jaccard_distance_matrix",
    "kernel_matrix",
    "knn_predict",
    "krr_fit",
    "krr_predict",
    "krr_predict_kernel",
    "load_model",
    "logreg_fit",
    "logreg_predict",
    "logreg_select_lambda",
    "make_projection",
    "model_predict",
    "paired_t_test",
    "rbf_centroid_indices",
    "rbf_fit",
    "read_keyvalues",
    "read_matrix_csv",
    "read_svmlight",
    "read_table_csv",
    "roc_auc",
    "rvfl_fit",
    "save_model",
    "solve_ridge_press",
    "sparse_gram",
    "squared_euclidean_distance_matrix",
    "subsample_indices",
    "summarize",
    "synth_generate",
    "ternary_row",
    "write_keyvalues",
    "write_matrix_csv",
    "write_svmlight",
    "write_table_csv",
]

__version__ = "0.1.0"
