"""Random forest from scratch: bootstrap + CART with Gini split search."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, Rng, TrainingError


@dataclass
class ForestHyperparams:
    """Defaults live in CardioPipelineConfig."""

    n_trees: int
    max_depth: int
    min_samples_leaf: int
    mtry: int | None  # ceil(sqrt(d)) when None
    seed: int


@dataclass
class ForestModel:
    """Each tree is the node object its model file holds: a leaf {"leaf": [n0, n1]},
    or a split {"feature": f, "threshold": t, "left": ..., "right": ...} (x[f] <= t goes left)."""

    trees: list[dict]
    n_features: int
    hyperparams: ForestHyperparams


def gini_impurity(class_counts) -> float:
    n0, n1 = class_counts
    if n0 < 0 or n1 < 0 or n0 + n1 == 0:
        raise ValueError("counts must be non-negative with positive sum")
    total = n0 + n1
    p0, p1 = n0 / total, n1 / total
    return 1.0 - (p0 * p0 + p1 * p1)


def best_split(
    X: np.ndarray, y: np.ndarray, feature_indices, min_samples_leaf: int
) -> tuple[int, float, float] | None:
    """Exhaustive (feature, midpoint-threshold) search minimizing weighted Gini.

    Ties break toward the lower feature index, then the lower threshold.
    Returns (feature, threshold, weighted_gini) or None if no valid split.
    """
    n = len(y)
    best = None
    for f in sorted(feature_indices):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        # prefix class-1 counts for O(1) Gini at each split position
        c1 = np.cumsum(ys)
        for pos in range(1, n):
            if xs[pos] == xs[pos - 1]:
                continue
            if pos < min_samples_leaf or n - pos < min_samples_leaf:
                continue
            thr = (xs[pos - 1] + xs[pos]) / 2.0
            l1 = int(c1[pos - 1])
            l0 = pos - l1
            r1 = int(c1[-1]) - l1
            r0 = (n - pos) - r1
            g = (pos * gini_impurity((l0, l1)) + (n - pos) * gini_impurity((r0, r1))) / n
            if best is None or g < best[2] - 1e-15:
                best = (f, thr, g)
    return best


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
    idx = np.array([rng.randint(n) for _ in range(n)])
    return _grow(X[idx], y[idx], 0, hp, mtry, rng)


def train_random_forest(data: LabeledDataset, hp: ForestHyperparams, threads: int
                        ) -> ForestModel:
    """Bootstrap + CART forest; tree t uses its own Rng(seed + t), so results
    are identical for any thread count."""
    if len(data) == 0:
        raise TrainingError("empty dataset")
    check_hyperparams(hp)
    X, y = data.features, data.labels
    d = X.shape[1]
    mtry_eff = hp.mtry if hp.mtry is not None else int(np.ceil(np.sqrt(d)))
    if mtry_eff > d:
        raise TrainingError(f"mtry={mtry_eff} exceeds feature count {d}")
    if threads > 1:  # one thread runs serially: a pool costs time even at one worker
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = list(pool.map(lambda t: _train_tree(X, y, hp, mtry_eff, t),
                                  range(hp.n_trees)))
    else:
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
