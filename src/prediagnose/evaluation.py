"""Confusion matrices, threshold metrics, ROC/AUC, stratified k-fold splits."""

from __future__ import annotations

import numpy as np

from .core import Rng


def confusion(labels, predictions) -> dict:
    """The counts {tp, fp, fn, tn} of {0,1} predictions against labels."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise ValueError("label/prediction length mismatch")
    if len(labels) == 0:
        raise ValueError("empty inputs")
    tp = int(np.sum((labels == 1) & (predictions == 1)))
    fp = int(np.sum((labels == 0) & (predictions == 1)))
    fn = int(np.sum((labels == 1) & (predictions == 0)))
    tn = int(np.sum((labels == 0) & (predictions == 0)))
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn}


def metrics(tp: int, fp: int, fn: int, tn: int) -> dict:
    """Standard derived metrics; zero-denominator cases are defined as 0."""
    total = tp + fp + fn + tn
    if total == 0:
        raise ValueError("empty confusion matrix")
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    specificity = tn / (tn + fp) if tn + fp > 0 else 0.0
    return {"accuracy": (tp + tn) / total, "precision": precision, "recall": recall,
            "specificity": specificity, "f1": f1_score(precision, recall)}


def f1_score(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0


def class_counts(labels) -> tuple[int, int]:
    """(positives, negatives) among {0,1} labels, refusing a set without both:
    it has no ROC curve."""
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    return n_pos, n_neg


def roc_auc(labels, scores) -> tuple[float, list[tuple[float, float]]]:
    """ROC sweep over distinct scores (descending) and trapezoidal AUC.

    Tied scores collapse into one threshold step, so the AUC equals the
    pairwise-concordance definition with ties counted 1/2.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError("label/score length mismatch")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    n_pos, n_neg = class_counts(labels)
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # One point per run of tied scores, at the run's last index.
    last = np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))
    tps = np.cumsum(sorted_labels == 1)[last].tolist()
    fps = np.cumsum(sorted_labels == 0)[last].tolist()
    points = [(0.0, 0.0)] + [(fp / n_neg, tp / n_pos) for tp, fp in zip(tps, fps)]
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return auc, points


def stratified_kfold(labels, k: int, rng: Rng) -> list[tuple[list[int], list[int]]]:
    """Per-class shuffle then round-robin fold assignment.

    Returns k (train_indices, test_indices) pairs; test folds partition the
    index set.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError("k must be >= 2")
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (0, 1):
        idx = [int(i) for i in np.flatnonzero(labels == cls)]
        if len(idx) < k:
            raise ValueError(f"class {cls} has {len(idx)} members, fewer than k={k}")
        rng.shuffle(idx)
        for j, sample in enumerate(idx):
            folds[j % k].append(sample)
    all_idx = set(range(len(labels)))
    return [(sorted(all_idx - set(f)), sorted(f)) for f in folds]


def evaluate(labels, scores, threshold: float) -> dict:
    """The eval report: a score at or above threshold is label 1."""
    scores = np.asarray(scores, dtype=np.float64)
    cm = confusion(labels, (scores >= threshold).astype(int))
    auc, points = roc_auc(labels, scores)
    return {"confusion": cm, **metrics(**cm), "auc": auc,
            "roc_points": [[fpr, tpr] for fpr, tpr in points]}


def report_table(report: dict, title: str) -> str:
    """Human-readable metric table for terminal output."""
    rows = [
        ("Accuracy", f"{report['accuracy'] * 100:.1f}%"),
        ("Precision", f"{report['precision'] * 100:.1f}%"),
        ("Recall (Sensitivity)", f"{report['recall'] * 100:.1f}%"),
        ("Specificity", f"{report['specificity'] * 100:.1f}%"),
        ("F1-Score", f"{report['f1']:.2f}"),
        ("AUC", f"{report['auc']:.2f}"),
    ]
    width = max(len(name) for name, _ in rows)
    lines = [title, "-" * (width + 10)]
    lines += [f"{name:<{width}}  {value:>8}" for name, value in rows]
    return "\n".join(lines)


def roc_to_csv(points) -> str:
    lines = ["fpr,tpr"]
    lines += [f"{format(fpr, '.17g')},{format(tpr, '.17g')}" for fpr, tpr in points]
    return "\n".join(lines) + "\n"
