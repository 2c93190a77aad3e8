"""Walkthrough: ternary sparse random projection on sparse binary rows.

Shows how the projection is generated feature by feature from a counter
hash of (seed, feature index), why the same (seed, density) pair gives
compatible projections for files of different widths, and how well
pairwise distances survive the trip to low dimension.

Run:  python3 demos/01_projection_basics.py
"""

import numpy as np

from srplearn import (
    apply_projection,
    default_density,
    make_projection,
    squared_euclidean_distance_matrix,
    synth_generate,
    ternary_row,
)

# --- the generator is a pure function of (seed, feature index) -------------
# Only the nonzeros are drawn: each hash word of the row's stream gives a
# geometric gap to the next nonzero column, and a separate word its sign.

seed, out_dim, density = 7, 8, 0.4
cols, signs = ternary_row(seed, row_index=3, output_dim=out_dim, density=density)
print("projection row for feature 3:")
print("  nonzero columns:", cols)
print("  signs:          ", signs)
print("  magnitude:      ", np.sqrt((1.0 / density) / out_dim))

again = ternary_row(seed, 3, out_dim, density)
print("regenerating gives the same row:", np.array_equal(cols, again[0]))

# --- assembling a full matrix ----------------------------------------------

D, d = 5000, 64
dens = default_density(D)  # 1/sqrt(D)
P = make_projection(D, d, dens, seed=0)
print(f"\nprojection {D} -> {d} at density {dens:.4f}")
print(f"  stored nonzeros: {P.values.size} "
      f"({P.values.size / (D * d):.4%} of entries)")
print(f"  metadata: {P.metadata()}")  # stream: the generator's version

# --- distance preservation on synthetic sparse data ------------------------

ds = synth_generate(
    150, n_features=D, density=0.01,
    signal_features=1000, flip_prob=0.0, seed=1,
)
F = apply_projection(ds.sparse, P)
orig = squared_euclidean_distance_matrix(ds.sparse, ds.sparse).values
proj = squared_euclidean_distance_matrix(F, F).values
iu = np.triu_indices(150, k=1)
corr = np.corrcoef(orig[iu], proj[iu])[0, 1]
print(f"\npairwise squared distances, original vs projected:")
print(f"  correlation over {iu[0].size} pairs: {corr:.4f}")
print(f"  (each point went from {D} to {d} coordinates)")
