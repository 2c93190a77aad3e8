"""Walkthrough: fast non-iterative classifiers on projected features.

ELM and RVFL read the raw sparse rows and use the ternary projection as
their random hidden layer; the RBF variant, ridge regression (the
harness's krr-srp) and logistic regression consume an explicit projected
feature matrix.  Every ridge-based model picks its penalty by the
closed-form leave-one-out error, no cross-validation loop.

Run:  python3 demos/03_random_feature_models.py
"""

import time

import numpy as np

from srplearn import (
    apply_projection,
    default_lambda_grid,
    elm_fit,
    logreg_fit,
    logreg_predict,
    make_projection,
    model_predict,
    rbf_fit,
    roc_auc,
    rvfl_fit,
    solve_ridge_press,
    synth_generate,
)

ds = synth_generate(
    1500, n_features=10000, density=0.01,
    signal_features=2000, flip_prob=0.05, seed=3,
)
train = ds.take(np.arange(1000))
test = ds.take(np.arange(1000, 1500))
y_train = train.labels.astype(float)

results = []

# --- ELM / RVFL build their own random layer from the raw rows --------------

for name, fit in [("elm", elm_fit), ("rvfl", rvfl_fit)]:
    t0 = time.perf_counter()
    model = fit(train.sparse, y_train, 1000, seed=0)
    scores = model_predict(model, test.sparse)
    results.append((
        name, roc_auc(scores, test.labels), model.solution.lam,
        time.perf_counter() - t0,
    ))

# --- the rest share one projected representation ----------------------------

P = make_projection(ds.n_sparse_features, 1000, seed=0)
F_train = apply_projection(train.sparse, P)
F_test = apply_projection(test.sparse, P)

t0 = time.perf_counter()
rbf = rbf_fit(F_train, y_train, 500, seed=0)
results.append((
    "rbf", roc_auc(model_predict(rbf, F_test), test.labels),
    rbf.solution.lam, time.perf_counter() - t0,
))

# ridge on the features is kernel ridge with the linear kernel F F'; the
# solver decomposes F'F or F F', whichever is smaller
t0 = time.perf_counter()
ridge = solve_ridge_press(F_train, y_train, default_lambda_grid())
scores = F_test @ ridge.beta[:, 0]
results.append((
    "ridge", roc_auc(scores, test.labels), ridge.lam, time.perf_counter() - t0,
))

t0 = time.perf_counter()
lr = logreg_fit(F_train, y_train, lam=1.0, max_iter=200)
results.append((
    "logreg", roc_auc(logreg_predict(lr, F_test), test.labels),
    1.0, time.perf_counter() - t0,
))

print(f"{'model':<8} {'test AUC':>9} {'penalty':>12} {'seconds':>8}")
for name, auc, lam, secs in results:
    print(f"{name:<8} {auc:9.4f} {lam:12.4g} {secs:8.2f}")
print("\n(ridge penalties selected by closed-form leave-one-out error)")
