"""Command-line entry points.

Four subcommands:

``srplearn bench --config FILE``
    Repeated-subsample benchmark; writes runs.csv, summary.csv,
    pvalues.csv and report.txt into the configured output directory.

``srplearn sweep --config FILE``
    Projection-dimension sweep; writes sweep.csv and report.txt.

``srplearn project --in FILE --dim D [--density X] [--seed S] --out FILE``
    Project rows of a sparse data file and write the dense result as
    CSV, plus a .meta sidecar with the reproduction parameters.

``srplearn distances --a FILE --b FILE --out FILE``
    Exact Jaccard distance matrix between the rows of two sparse data
    files, written as CSV.

All subcommands exit 0 on success and nonzero with a diagnostic on
stderr otherwise.
"""

from __future__ import annotations

import argparse
import sys

from .bench import cmd_bench, cmd_sweep
from .config import parse_config
from .datasets import read_svmlight
from .distance import jaccard_distance_matrix
from .exceptions import DegenerateFitError, NumericalDivergenceError, SvmlightParseError
from .matio import write_keyvalues, write_matrix_csv
from .projection import apply_projection, default_density, make_projection

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srplearn",
        description=(
            "sparse random projection and fast classifiers for "
            "high-dimensional binary data"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="repeated-subsample benchmark")
    p_bench.add_argument("--config", required=True, help="key=value config file")

    p_sweep = sub.add_parser("sweep", help="projection-dimension sweep")
    p_sweep.add_argument("--config", required=True, help="key=value config file")

    p_proj = sub.add_parser("project", help="project sparse rows to dense CSV")
    p_proj.add_argument("--in", dest="in_path", required=True,
                        help="sparse data file (svmlight format)")
    p_proj.add_argument("--dim", type=int, required=True,
                        help="projection output dimension")
    p_proj.add_argument("--density", type=float, default=None,
                        help="fraction of nonzero projection entries "
                             "(default 1/sqrt(n_features))")
    p_proj.add_argument("--seed", type=int, default=0, help="projection seed")
    p_proj.add_argument("--out", required=True, help="output CSV path")

    p_dist = sub.add_parser("distances", help="exact Jaccard distance matrix")
    p_dist.add_argument("--a", dest="a_path", required=True,
                        help="sparse data file for the rows")
    p_dist.add_argument("--b", dest="b_path", required=True,
                        help="sparse data file for the columns")
    p_dist.add_argument("--out", required=True, help="output CSV path")
    return parser


def _do_bench(args) -> int:
    cfg = parse_config(args.config)
    report = cmd_bench(cfg)
    best = ", ".join(report.best_set)
    print(f"wrote {cfg.out_dir}; best methods: {best}")
    return 0


def _do_sweep(args) -> int:
    cfg = parse_config(args.config)
    rows = cmd_sweep(cfg)
    print(f"wrote {cfg.out_dir}; {len(rows)} rows")
    return 0


def _do_project(args) -> int:
    data = read_svmlight(args.in_path)
    if data.n_dense_features:
        raise ValueError(
            "project handles pure sparse inputs; found dense features"
        )
    density = args.density
    if density is None:
        density = default_density(data.n_sparse_features)
    P = make_projection(data.n_sparse_features, args.dim, density, args.seed)
    F = apply_projection(data.sparse, P)
    write_matrix_csv(args.out, F)
    write_keyvalues(args.out + ".meta", P.metadata())
    print(f"wrote {F.shape[0]}x{F.shape[1]} matrix to {args.out}")
    return 0


def _do_distances(args) -> int:
    a = read_svmlight(args.a_path)
    b = read_svmlight(args.b_path)
    if a.n_dense_features or b.n_dense_features:
        raise ValueError(
            "distances handles pure sparse inputs; found dense features"
        )
    width = max(a.n_sparse_features, b.n_sparse_features)
    D = jaccard_distance_matrix(a.sparse.widen(width), b.sparse.widen(width))
    write_matrix_csv(args.out, D.values)
    print(f"wrote {D.values.shape[0]}x{D.values.shape[1]} matrix to {args.out}")
    return 0


_HANDLERS = {
    "bench": _do_bench,
    "sweep": _do_sweep,
    "project": _do_project,
    "distances": _do_distances,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (
        ValueError,
        OSError,
        KeyError,
        SvmlightParseError,
        DegenerateFitError,
        NumericalDivergenceError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
