"""RBF-kernel SVM trained by SMO with second-order working-set selection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import LabeledDataset, TrainingError

_TOL = 1e-3  # SMO stops once the KKT gap is below this
_TAU = 1e-12  # curvature used for a pair whose kernel curvature is not positive
_MAX_STEPS = 100  # SMO pair steps allowed per training sample
# Training refuses a set whose n x n float64 Gram matrix, with the one
# temporary of its size that building it takes (16 n^2 bytes in all), would
# exceed this: 1 GiB, so n = 8,192 is the largest set trained.
MAX_GRAM_BYTES = 1 << 30
_NORM_BLOCK_BYTES = 1 << 20  # bytes of rows _sq_norms squares at a time


@dataclass
class SvmModel:
    """A trained RBF SVM. When training keeps every sample, support_vectors is
    the training feature matrix itself, not a copy, so the two share memory."""

    support_vectors: np.ndarray  # (m, d)
    alpha_y: np.ndarray  # alpha_i * y_i, y in {-1, +1}
    bias: float
    gamma: float
    c: float

    @property
    def n_features(self) -> int:
        return self.support_vectors.shape[1]

    @cached_property
    def sv_sq_norms(self) -> np.ndarray:
        """Squared norm of each support vector, computed once per model."""
        return _sq_norms(self.support_vectors)


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """np.sum(a * a, axis=1), bit for bit, squaring about a megabyte of rows
    at a time rather than all of a. Each row reduces on its own, so a block
    gives each row's bits as the whole does while the rows lie in row-major
    order; an a whose columns are closer in memory than its rows is reduced
    whole."""
    rows = max(1, _NORM_BLOCK_BYTES // max(1, a.shape[1] * a.itemsize))
    if len(a) <= rows or abs(a.strides[1]) > abs(a.strides[0]):
        return np.sum(a * a, axis=1)
    out = np.empty(len(a))
    for i in range(0, len(a), rows):
        block = a[i:i + rows]
        np.sum(block * block, axis=1, out=out[i:i + rows])
    return out


def _rbf_kernel(a: np.ndarray, a_sq: np.ndarray, b: np.ndarray, b_sq: np.ndarray,
                gamma: float) -> np.ndarray:
    """exp(-gamma |a_i - b_j|^2) for the rows of a and b, where a_sq and b_sq
    hold their squared norms and |a_i - b_j|^2 is expanded as |a_i|^2 +
    |b_j|^2 - 2 a_i.b_j. Works in two (n, m) buffers, in place."""
    dots = a @ b.T
    dots *= 2.0
    sq = a_sq[:, None] + b_sq[None, :]
    sq -= dots
    np.maximum(sq, 0.0, out=sq)
    with np.errstate(over="ignore"):  # -inf gives 0.0, as does any value below about -745
        sq *= -gamma
    return np.exp(sq, out=sq)


def rbf_gram(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Pairwise RBF kernel matrix between the rows of a and b; the squared
    norms are computed once when b is a."""
    a_sq = _sq_norms(a)
    return _rbf_kernel(a, a_sq, b, a_sq if b is a else _sq_norms(b), gamma)


def gamma_scale(features: np.ndarray) -> float:
    """The 1/(d * Var(X)) heuristic; falls back to 1/d for constant features."""
    var = float(features.var())
    d = features.shape[1]
    return 1.0 / (d * var) if var > 0 else 1.0 / d


def train_svm_smo(data: LabeledDataset, c: float, gamma: float | None) -> SvmModel:
    """SMO (Platt, 1998) with second-order working-set selection (WSS2; Fan,
    Chen & Lin, JMLR 2005).

    The dual is solved in beta = alpha * y: beta_t lies in [0, C] for y = +1
    and in [-C, 0] for y = -1, and sum(beta) = 0. v = y - K beta, which is -y
    times the dual gradient, is kept up to date. Each step pairs i, the index
    of largest v among those whose beta can grow, with j, the index of largest
    gain (v_i - v_j)^2 / (K_ii + K_jj - 2 K_ij) among those whose beta can
    shrink and whose v is smaller, and moves beta_i up and beta_j down by the
    pair's optimal step clipped to the box. It stops when the KKT gap, v_i less
    the smallest v whose beta can shrink, is below _TOL, and raises
    TrainingError after _MAX_STEPS * n steps. The bias is the mean of v over
    the free multipliers (0 < alpha < C); with none free, the KKT conditions
    leave it between the gap's two ends, and it is their midpoint. Ties go to
    the lowest index. gamma None uses gamma_scale. A set whose Gram matrix
    would need more than MAX_GRAM_BYTES is refused before it is built. When
    every sample is kept, the model's support vectors are data.features.
    """
    if not 0 < c < math.inf:
        raise TrainingError(f"c must be positive and finite, got {c}")
    if gamma is not None and not 0 <= gamma < math.inf:
        raise TrainingError(f"gamma must be >= 0 and finite, got {gamma}")
    X = data.features
    need = 16 * len(X) ** 2
    if need > MAX_GRAM_BYTES:
        raise TrainingError(f"{len(X)} training samples need {need} bytes for the Gram matrix, "
                            f"over the cap of {MAX_GRAM_BYTES}")
    y01 = data.labels
    if len(np.unique(y01)) < 2:
        raise TrainingError("training data must contain both classes")
    y = (2 * y01 - 1).astype(np.float64)
    n = len(y)
    if gamma is None:
        gamma = gamma_scale(X)
    K = rbf_gram(X, X, gamma)
    diag = K.diagonal()
    hi = np.where(y > 0, c, 0.0)
    lo = hi - c
    beta = np.zeros(n)
    v = y.copy()
    for _ in range(_MAX_STEPS * n):
        grow, shrink = beta < hi, beta > lo
        i = int(np.argmax(np.where(grow, v, -np.inf)))
        v_low = v[shrink].min()
        if v[i] - v_low < _TOL:
            break
        diff = v[i] - v
        curv = diag[i] + diag - 2.0 * K[i]
        curv[curv <= 0] = _TAU
        j = int(np.argmax(np.where(shrink & (diff > 0), diff * diff / curv, -np.inf)))
        room_i, room_j = hi[i] - beta[i], beta[j] - lo[j]
        t = min(diff[j] / curv[j], room_i, room_j)
        beta[i] = hi[i] if t == room_i else beta[i] + t
        beta[j] = lo[j] if t == room_j else beta[j] - t
        v -= t * (K[i] - K[j])
    else:
        raise TrainingError(f"SMO did not converge in {_MAX_STEPS * n} steps")
    free = grow & shrink
    b = v[free].mean() if free.any() else (v[i] + v_low) / 2.0

    alpha = beta * y
    keep = alpha > 1e-8
    if not np.any(keep):
        # Degenerate but possible on pathological data; keep the largest alpha.
        keep = alpha == alpha.max()
    return SvmModel(
        support_vectors=X if keep.all() else X[keep],
        alpha_y=beta[keep],
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
    K = _rbf_kernel(X, _sq_norms(X), model.support_vectors, model.sv_sq_norms, model.gamma)
    return K @ model.alpha_y + model.bias
