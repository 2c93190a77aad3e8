"""Walkthrough: the repeated-subsample benchmark harness.

Writes a config file, runs the benchmark programmatically (the CLI
`srplearn bench --config ...` does exactly the same), and shows the
deterministic artifacts: per-run CSV, summary with the significance
star, and the pairwise p-value matrix.

Run:  python3 demos/04_benchmark_harness.py
"""

import os
import tempfile

from srplearn.bench import cmd_bench
from srplearn.config import parse_config
from srplearn.matio import read_table_csv

workdir = tempfile.mkdtemp(prefix="srplearn-demo-")
out_dir = os.path.join(workdir, "out")
cfg_path = os.path.join(workdir, "bench.cfg")

with open(cfg_path, "w", encoding="utf-8") as f:
    f.write(f"""
# repeated-subsample benchmark at demo scale
out_dir = {out_dir}
base_seed = 1
n_runs = 10
n_train = 300

# one fixed projection shared by every run and method
srp.dim = 500

methods = elm-srp, rvfl-srp, krr-srp, knn-srp, krr-jaccard, knn-jaccard

data.kind = synth
data.n_features = 30000
data.n_train_pool = 1200
data.n_test = 600
data.density = 0.003
data.signal_features = 1500
data.flip_prob = 0.05

method.elm-srp.L = 500
method.rvfl-srp.L = 500
""")

print(f"config: {cfg_path}")
report = cmd_bench(parse_config(cfg_path))

print("\n--- report.txt " + "-" * 50)
with open(os.path.join(out_dir, "report.txt"), encoding="utf-8") as f:
    print(f.read())

header, rows = read_table_csv(os.path.join(out_dir, "runs.csv"))
print(f"--- runs.csv: {len(rows)} rows, columns {header}")
print("    (no timing columns: the CSVs are byte-identical across reruns;")
print("     wall-clock times live in report.txt)")

print(f"\nbest methods at alpha={report.alpha}: {', '.join(report.best_set)}")
