"""Confusion matrices, threshold metrics, ROC/AUC, stratified k-fold splits."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import Rng


@dataclass
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class Metrics:
    accuracy: float
    precision: float
    recall: float
    specificity: float
    f1: float


@dataclass
class EvalReport:
    confusion: ConfusionMatrix
    metrics: Metrics
    auc: float
    roc_points: list[tuple[float, float]]


def confusion(labels, predictions) -> ConfusionMatrix:
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
    return ConfusionMatrix(tp, fp, fn, tn)


def metrics(cm: ConfusionMatrix) -> Metrics:
    """Standard derived metrics; zero-denominator cases are defined as 0."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp > 0 else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else 0.0
    specificity = cm.tn / (cm.tn + cm.fp) if cm.tn + cm.fp > 0 else 0.0
    return Metrics(accuracy, precision, recall, specificity, f1_score(precision, recall))


def f1_score(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0


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
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    n = len(labels)
    while i < n:
        j = i
        while j < n and sorted_scores[j] == sorted_scores[i]:
            j += 1
        tp += int(np.sum(sorted_labels[i:j] == 1))
        fp += int(np.sum(sorted_labels[i:j] == 0))
        points.append((fp / n_neg, tp / n_pos))
        i = j
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


def evaluate(labels, predictions, scores) -> EvalReport:
    cm = confusion(labels, predictions)
    auc, points = roc_auc(labels, scores)
    return EvalReport(confusion=cm, metrics=metrics(cm), auc=auc, roc_points=points)


def report_to_dict(report: EvalReport) -> dict:
    return {
        "confusion": asdict(report.confusion),
        **asdict(report.metrics),
        "auc": report.auc,
        "roc_points": [[fpr, tpr] for fpr, tpr in report.roc_points],
    }


def report_table(report: EvalReport, title: str) -> str:
    """Human-readable metric table for terminal output."""
    m = report.metrics
    rows = [
        ("Accuracy", f"{m.accuracy * 100:.1f}%"),
        ("Precision", f"{m.precision * 100:.1f}%"),
        ("Recall (Sensitivity)", f"{m.recall * 100:.1f}%"),
        ("Specificity", f"{m.specificity * 100:.1f}%"),
        ("F1-Score", f"{m.f1:.2f}"),
        ("AUC", f"{report.auc:.2f}"),
    ]
    width = max(len(name) for name, _ in rows)
    lines = [title, "-" * (width + 10)]
    lines += [f"{name:<{width}}  {value:>8}" for name, value in rows]
    return "\n".join(lines)


def roc_to_csv(points) -> str:
    lines = ["fpr,tpr"]
    lines += [f"{format(fpr, '.17g')},{format(tpr, '.17g')}" for fpr, tpr in points]
    return "\n".join(lines) + "\n"
