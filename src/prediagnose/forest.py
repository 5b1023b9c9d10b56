"""Random forest from scratch: bootstrap + CART with Gini split search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, Rng, TrainingError


@dataclass
class ForestHyperparams:
    """The cardio pipeline's forest settings ([ml] in its INI file)."""

    n_trees: int = 100
    max_depth: int = 12
    min_samples_leaf: int = 2
    mtry: int | None = None  # ceil(sqrt(d)) when None
    seed: int = 0


@dataclass
class ForestModel:
    """Each tree is the node object its model file holds: a leaf {"leaf": [n0, n1]},
    or a split {"feature": f, "threshold": t, "left": ..., "right": ...} (x[f] <= t goes left)."""

    trees: list[dict]
    n_features: int
    hyperparams: ForestHyperparams


def _gini(n0, n1, total):
    """1 - (p0^2 + p1^2) of counts whose sum is total, unchecked."""
    p0, p1 = n0 / total, n1 / total
    return 1.0 - (p0 * p0 + p1 * p1)


def gini_impurity(class_counts) -> float | np.ndarray:
    """1 - (p0^2 + p1^2) of the counts (n0, n1): a float for a pair of
    numbers, an array of impurities for a pair of equal-shape count arrays."""
    n0, n1 = class_counts
    total = n0 + n1
    if np.any((n0 < 0) | (n1 < 0) | (total == 0)):
        raise ValueError("counts must be non-negative with positive sum")
    return _gini(n0, n1, total)


def best_split(
    X: np.ndarray, y: np.ndarray, feature_indices, min_samples_leaf: int
) -> tuple[int, float, float] | None:
    """Exhaustive (feature, midpoint-threshold) search minimizing weighted Gini.

    Every candidate feature is sorted and scored at once: the Gini of a split
    after the first pos samples of a sorted column comes from prefix counts of
    class 1. A split needs distinct neighbouring values and min_samples_leaf
    samples on each side. Scanning features in ascending index, then positions
    in ascending order, a candidate wins if its Gini is below the best so far
    less 1e-15, so ties break toward the lower feature index, then the lower
    threshold. Returns (feature, threshold, weighted_gini) or None if no
    valid split.
    """
    n = len(y)
    features = sorted(feature_indices)
    # a split after the first pos sorted samples needs min_samples_leaf on each side
    lo, hi = max(1, min_samples_leaf), min(n - 1, n - min_samples_leaf)
    if lo > hi:
        return None
    cols = X[:, features]
    order = np.argsort(cols, axis=0, kind="stable")
    xs = cols[order, np.arange(len(features))]
    c1 = np.cumsum(y[order], axis=0)  # c1[r, j]: class 1 among the first r + 1 of column j
    pos = np.arange(lo, hi + 1)[:, None]
    l1 = c1[lo - 1 : hi]
    r1 = c1[-1] - l1
    # every side holds at least one sample, so the counts need no check
    g = (pos * _gini(pos - l1, l1, pos) + (n - pos) * _gini(n - pos - r1, r1, n - pos)) / n
    # (feature, position) pairs in scan order, as flat indices into g.T
    valid = np.flatnonzero((xs[lo:hi + 1] != xs[lo - 1 : hi]).T)
    if len(valid) == 0:
        return None
    scores = g.T.ravel()[valid].tolist()
    win = _winner(scores)
    j, p = divmod(int(valid[win]), hi - lo + 1)
    p += lo
    return features[j], (xs[p - 1, j] + xs[p, j]) / 2.0, scores[win]


def _winner(scores: list[float]) -> int:
    """Index of the winning score in one pass: a score wins if it is below the
    best so far less 1e-15, so ties keep the earlier candidate."""
    win, best = 0, scores[0]
    for i, score in enumerate(scores):
        if score < best - 1e-15:
            win, best = i, score
    return win


def check_hyperparams(hp: ForestHyperparams) -> None:
    """TrainingError unless n_trees, max_depth and min_samples_leaf are >= 1
    and mtry is None or >= 1."""
    for name in ("n_trees", "max_depth", "min_samples_leaf", "mtry"):
        value = getattr(hp, name)
        if value is not None and value < 1:
            raise TrainingError(f"{name} must be >= 1, got {value}")


def _grow(X, y, depth, hp: ForestHyperparams, mtry: int, rng: Rng) -> dict:
    n1 = int(y.sum())
    n0 = len(y) - n1
    if (
        n0 == 0
        or n1 == 0
        or depth >= hp.max_depth
        or len(y) < 2 * hp.min_samples_leaf
    ):
        return {"leaf": [n0, n1]}
    candidates = rng.sample_indices(X.shape[1], mtry)
    split = best_split(X, y, candidates, hp.min_samples_leaf)
    if split is None:
        return {"leaf": [n0, n1]}
    f, thr, _ = split
    mask = X[:, f] <= thr
    return {"feature": f, "threshold": float(thr),  # left grows first: it draws from rng first
            "left": _grow(X[mask], y[mask], depth + 1, hp, mtry, rng),
            "right": _grow(X[~mask], y[~mask], depth + 1, hp, mtry, rng)}


def _train_tree(X, y, hp: ForestHyperparams, mtry: int, tree_index: int) -> dict:
    rng = Rng(hp.seed + tree_index)
    n = len(y)
    idx = (rng.uniform_array(n) * n).astype(np.intp)  # the stream of n randint(n) calls
    return _grow(X[idx], y[idx], 0, hp, mtry, rng)


def train_random_forest(data: LabeledDataset, hp: ForestHyperparams) -> ForestModel:
    """Bootstrap + CART forest; tree t uses its own Rng(seed + t)."""
    if len(data) == 0:
        raise TrainingError("empty dataset")
    check_hyperparams(hp)
    X, y = data.features, data.labels
    d = X.shape[1]
    mtry_eff = hp.mtry if hp.mtry is not None else int(np.ceil(np.sqrt(d)))
    if mtry_eff > d:
        raise TrainingError(f"mtry={mtry_eff} exceeds feature count {d}")
    trees = [_train_tree(X, y, hp, mtry_eff, t) for t in range(hp.n_trees)]
    return ForestModel(trees=trees, n_features=d, hyperparams=hp)


def _tree_vote(node: dict, x: np.ndarray) -> int:
    while "leaf" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    n0, n1 = node["leaf"]
    return 1 if n1 >= n0 else 0  # leaf ties go to the positive class


def forest_predict_batch(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Fraction of trees voting positive for each row of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected rows of {model.n_features} features, got shape {X.shape}")
    return np.array([sum(_tree_vote(t, x) for t in model.trees) for x in X]) / len(model.trees)


def forest_predict(model: ForestModel, x: np.ndarray) -> tuple[float, int]:
    """forest_predict_batch of one row, and the {0,1} majority label (ties -> 1)."""
    prob = float(forest_predict_batch(model, [x])[0])
    return prob, int(prob >= 0.5)
