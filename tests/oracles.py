"""Slow references that the library's fast paths are checked against.

Each one computes its result from the definition, element by element
with Python sets and ints, by explicit retraining or by a general-purpose
optimizer, and shares no code with the library beyond its matrix type
and ``derive_seed``.  The unit tests, the acceptance criteria and the
end-to-end harness check import them from here; this module holds no
tests.
"""

import itertools
import math

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from srplearn import datasets
from srplearn.projection import derive_seed
from srplearn.sparse import SparseBinaryMatrix

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def random_sparse(rng, n_rows, n_cols, density):
    """Sparse binary rows drawn one at a time, each column set with
    probability ``density`` (``rng.random(n_cols) < density``)."""
    rows = [np.flatnonzero(rng.random(n_cols) < density) for _ in range(n_rows)]
    return SparseBinaryMatrix.from_rows(rows, n_cols)


def fresh_copy(m):
    """The same rows in new arrays, holding no column form."""
    return SparseBinaryMatrix(m.indptr.copy(), m.indices.copy(), m.n_cols)


def jaccard(A, B):
    """Jaccard distances by per-pair set enumeration; 0 between two empty rows."""
    out = np.zeros((A.n_rows, B.n_rows))
    sets_a = [set(A.row(i).tolist()) for i in range(A.n_rows)]
    sets_b = [set(B.row(j).tolist()) for j in range(B.n_rows)]
    for i, sa in enumerate(sets_a):
        for j, sb in enumerate(sets_b):
            union = len(sa | sb)
            out[i, j] = 1.0 - len(sa & sb) / union if union else 0.0
    return out


def squared_distances(A, B):
    """Squared Euclidean distances between dense rows, one explicit
    difference per pair."""
    out = np.zeros((len(A), len(B)))
    for i in range(len(A)):
        for j in range(len(B)):
            diff = A[i] - B[j]
            out[i, j] = diff @ diff
    return out


def ridge_loo_sse(H, Y, lam):
    """Leave-one-out squared error of ridge, retraining with each row held out."""
    n = H.shape[0]
    total = 0.0
    for i in range(n):
        keep = np.arange(n) != i
        Hi, Yi = H[keep], Y[keep]
        beta = np.linalg.solve(Hi.T @ Hi + lam * np.eye(H.shape[1]), Hi.T @ Yi)
        resid = Y[i] - H[i] @ beta
        total += float(resid @ resid)
    return total


def krr_loo_sse(K, y, lam):
    """Leave-one-out squared error of kernel ridge on the kernel ``K``,
    retraining in the dual with each row held out."""
    n = K.shape[0]
    total = 0.0
    for i in range(n):
        keep = np.arange(n) != i
        alpha_i = np.linalg.solve(K[np.ix_(keep, keep)] + lam * np.eye(n - 1), y[keep])
        pred = K[i, keep] @ alpha_i
        total += (y[i] - pred) ** 2
    return total


def reference_logreg(X, y, lam):
    """(weights, intercept) minimizing mean log-loss plus (lam/2) |w|^2,
    intercept unpenalized, by scipy's L-BFGS-B from zero to a projected
    gradient of 1e-12 (or until its line search finds no lower loss)."""
    n, d = X.shape

    def loss_grad(theta):
        w, b = theta[:d], theta[d]
        margin = y * (X @ w + b)
        dloss = -y * expit(-margin) / n
        loss = np.logaddexp(0.0, -margin).mean() + 0.5 * lam * (w @ w)
        return loss, np.append(X.T @ dloss + lam * w, dloss.sum())

    result = minimize(loss_grad, np.zeros(d + 1), jac=True, method="L-BFGS-B",
                      options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 100000,
                               "maxfun": 200000})
    return result.x[:d], result.x[d]


def knn_scores(D, labels, k):
    """Mean label of the k nearest columns of each row of ``D``, by a full
    stable sort: equal distances go to the lower training index."""
    out = np.zeros(D.shape[0])
    for i in range(D.shape[0]):
        order = sorted(range(D.shape[1]), key=lambda j: (D[i, j], j))
        out[i] = np.mean([labels[j] for j in order[:k]])
    return out


def auc_pair_counting(scores, labels):
    """P(pos > neg) + 0.5 P(tie) over every (positive, negative) pair.

    The wins are integers and halves, so their sum is exact."""
    pos = scores[labels > 0]
    neg = scores[labels <= 0]
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return wins / (pos.size * neg.size)


def mix(z):
    """splitmix64's finalizer on a Python int."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_row(seed, row, width, rate):
    """Row ``row`` of the counter stream seeded ``seed`` (stream v2), from
    its definition one draw at a time with Python ints and ``math.log``:
    the Bernoulli(rate) positions in [0, width) and their signs (+-1.0)."""
    key = mix(mix(seed & MASK64) + (row + 1) * GAMMA)

    def word(k):
        return mix(key + k * GAMMA)

    cols, signs, pos = [], [], -1
    if rate == 0.0 or width == 0:
        return cols, signs
    for j in itertools.count():
        if rate == 1.0:
            pos = j
        else:
            u = ((word(2 * j + 1) >> 11) + 1) / 2**53
            pos += math.floor(math.log(u) / math.log1p(-rate)) + 1
        if pos >= width:
            return cols, signs
        cols.append(pos)
        signs.append(1.0 if word(2 * j + 2) >> 63 == 0 else -1.0)


def reference_projection(input_dim, output_dim, density, seed):
    """The dense (input_dim, output_dim) ternary projection, one
    :func:`reference_row` per input row."""
    P = np.zeros((input_dim, output_dim))
    magnitude = math.sqrt((1.0 / density) / output_dim)
    for r in range(input_dim):
        cols, signs = reference_row(seed, r, output_dim, density)
        P[r, cols] = np.multiply(signs, magnitude)
    return P


def reference_synth(n, n_features, density, signal_features, flip_prob, seed):
    """(rows, labels) of synth_generate drawn one row at a time: signal
    segment on key 0, background on key 1, the flip on key 2."""
    data_seed = derive_seed(seed, datasets._DATA_STREAM)
    signal_key, background_key, flip_key = (derive_seed(data_seed, k) for k in range(3))
    rows, labels = [], []
    for i in range(n):
        label = 1 if i % 2 == 0 else -1
        rate = density * 4.0 if label > 0 else density * 0.25
        background, _ = reference_row(
            background_key, i, n_features - signal_features, density
        )
        signal, _ = reference_row(signal_key, i, signal_features, rate)
        rows.append(signal + [signal_features + c for c in background])
        flipped = reference_row(flip_key, i, 1, flip_prob)[0] == [0]
        labels.append(-label if flipped else label)
    return SparseBinaryMatrix.from_rows(rows, n_features), np.array(labels)
