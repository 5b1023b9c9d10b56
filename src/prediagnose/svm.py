"""RBF-kernel SVM trained with simplified (Platt-style) SMO."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, TrainingError

_TOL = 1e-3  # KKT tolerance
_MAX_PASSES = 10  # consecutive sweeps without an alpha change before stopping


@dataclass
class SvmModel:
    support_vectors: np.ndarray  # (m, d)
    alpha_y: np.ndarray  # alpha_i * y_i, y in {-1, +1}
    bias: float
    gamma: float
    c: float

    @property
    def n_features(self) -> int:
        return self.support_vectors.shape[1]


def rbf_gram(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Pairwise RBF kernel matrix between the rows of a and b."""
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


def gamma_scale(features: np.ndarray) -> float:
    """The 1/(d * Var(X)) heuristic; falls back to 1/d for constant features."""
    var = float(features.var())
    d = features.shape[1]
    return 1.0 / (d * var) if var > 0 else 1.0 / d


def train_svm_smo(data: LabeledDataset, c: float, gamma: float | None) -> SvmModel:
    """Simplified SMO: sweep examples violating KKT within _TOL, pair each with
    the index maximizing |E1 - E2| (lowest index on ties), optimize the pair
    analytically with box clipping, update the bias by the b1/b2 rule.  When
    the max-gap partner makes no progress, fall back to the remaining partners
    in decreasing-gap order (deterministic), as in Platt's second-choice
    hierarchy; without the fallback, isolated KKT violations can persist.
    Terminates after _MAX_PASSES consecutive full sweeps with no alpha change.
    gamma None uses gamma_scale.
    """
    if not 0 < c < math.inf:
        raise TrainingError(f"c must be positive and finite, got {c}")
    if gamma is not None and not 0 <= gamma < math.inf:
        raise TrainingError(f"gamma must be >= 0 and finite, got {gamma}")
    X = data.features
    y01 = data.labels
    if len(np.unique(y01)) < 2:
        raise TrainingError("training data must contain both classes")
    y = (2 * y01 - 1).astype(np.float64)
    n = len(y)
    if gamma is None:
        gamma = gamma_scale(X)
    K = rbf_gram(X, X, gamma)

    alpha = np.zeros(n)
    b = 0.0
    f = np.zeros(n)  # decision values, kept incrementally up to date

    def take_step(i: int, j: int) -> bool:
        nonlocal b, f
        e_i = f[i] - y[i]
        e_j = f[j] - y[j]
        a_i_old, a_j_old = alpha[i], alpha[j]
        if y[i] != y[j]:
            lo = max(0.0, a_j_old - a_i_old)
            hi = min(c, c + a_j_old - a_i_old)
        else:
            lo = max(0.0, a_i_old + a_j_old - c)
            hi = min(c, a_i_old + a_j_old)
        if lo >= hi:
            return False
        eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
        if eta >= 0:
            return False
        a_j = a_j_old - y[j] * (e_i - e_j) / eta
        a_j = min(hi, max(lo, a_j))
        if abs(a_j - a_j_old) < 1e-5:
            return False
        a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j)
        d_i = a_i - a_i_old
        d_j = a_j - a_j_old
        b1 = b - e_i - y[i] * d_i * K[i, i] - y[j] * d_j * K[i, j]
        b2 = b - e_j - y[i] * d_i * K[i, j] - y[j] * d_j * K[j, j]
        if 0 < a_i < c:
            b_new = b1
        elif 0 < a_j < c:
            b_new = b2
        else:
            b_new = (b1 + b2) / 2.0
        alpha[i], alpha[j] = a_i, a_j
        f += y[i] * d_i * K[i] + y[j] * d_j * K[j] + (b_new - b)
        b = b_new
        return True

    passes = 0
    while passes < _MAX_PASSES:
        changed = 0
        for i in range(n):
            r = y[i] * (f[i] - y[i])
            if not ((r < -_TOL and alpha[i] < c) or (r > _TOL and alpha[i] > 0)):
                continue
            gap = np.abs((f[i] - y[i]) - (f - y))
            gap[i] = -1.0
            # try partners in decreasing |E_i - E_j| order (stable sort keeps
            # the lowest index first on ties)
            for j in np.argsort(-gap, kind="stable"):
                if j == i:
                    break  # i itself sorts last; everything after is i only
                if take_step(i, int(j)):
                    changed += 1
                    break
        passes = passes + 1 if changed == 0 else 0

    keep = alpha > 1e-8
    if not np.any(keep):
        # Degenerate but possible on pathological data; keep the largest alpha.
        keep = alpha == alpha.max()
    return SvmModel(
        support_vectors=X[keep].copy(),
        alpha_y=(alpha * y)[keep].copy(),
        bias=float(b),
        gamma=float(gamma),
        c=float(c),
    )


def svm_decision(model: SvmModel, x: np.ndarray) -> float:
    """Decision score of one feature vector: svm_decision_batch of one row."""
    return float(svm_decision_batch(model, [x])[0])


def svm_predict(model: SvmModel, x: np.ndarray) -> tuple[float, int]:
    """Decision score and {0,1} label; ties (score == 0) go to the positive class."""
    score = svm_decision(model, x)
    return score, int(score >= 0.0)


def svm_decision_batch(model: SvmModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected rows of {model.n_features} features, got shape {X.shape}")
    return rbf_gram(X, model.support_vectors, model.gamma) @ model.alpha_y + model.bias
