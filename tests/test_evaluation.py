import numpy as np
import pytest

from prediagnose.core import Rng
from prediagnose import evaluation as ev


def concordance_auc(labels, scores):
    """Pairwise concordance with ties counted 1/2 — the textbook AUC."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


class TestConfusionMetrics:
    def test_confusion_counts(self):
        cm = ev.confusion([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (cm["tp"], cm["fp"], cm["fn"], cm["tn"]) == (2, 1, 1, 1)
        assert sum(cm.values()) == 5

    def test_confusion_validation(self):
        with pytest.raises(ValueError):
            ev.confusion([1], [1, 0])
        with pytest.raises(ValueError):
            ev.confusion([], [])

    def test_metrics_simple(self):
        m = ev.metrics(tp=8, fp=2, fn=1, tn=9)
        assert m["accuracy"] == pytest.approx(0.85)
        assert m["precision"] == pytest.approx(0.8)
        assert m["recall"] == pytest.approx(8 / 9)
        assert m["specificity"] == pytest.approx(9 / 11)
        assert m["f1"] == pytest.approx(2 * 0.8 * (8 / 9) / (0.8 + 8 / 9))

    def test_metrics_zero_denominators(self):
        m = ev.metrics(tp=0, fp=0, fn=3, tn=5)
        assert m["precision"] == 0.0 and m["f1"] == 0.0
        assert m["recall"] == 0.0

    def test_f1_from_reported_precision_recall_pairs(self):
        # two-decimal F1 values recovered from rounded precision/recall pairs
        assert round(ev.f1_score(0.861, 0.857), 2) == 0.86
        assert round(ev.f1_score(0.838, 0.840), 2) == 0.84

    def test_report_table_formatting(self):
        report = ev.evaluate([1, 0, 1, 0], [0.9, 0.1, 0.8, 0.6], 0.5)
        table = ev.report_table(report, "Demo")
        assert table.startswith("Demo")
        assert "Accuracy" in table and "AUC" in table


class TestRoc:
    def test_known_example(self):
        auc, points = ev.roc_auc([1, 0, 1, 0], [0.8, 0.4, 0.6, 0.2])
        assert auc == pytest.approx(1.0)
        assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)
        auc2, _ = ev.roc_auc([1, 1, 0, 0], [0.8, 0.4, 0.6, 0.2])
        assert auc2 == pytest.approx(0.75)

    def test_matches_concordance_with_ties(self):
        rng = Rng(5)
        for _ in range(20):
            n = 30
            labels = (rng.uniform_array(n) < 0.4).astype(int)
            if labels.sum() in (0, n):
                continue
            # quantized scores force ties
            scores = np.round(rng.uniform_array(n) * 8) / 8.0
            auc, _ = ev.roc_auc(labels, scores)
            assert auc == pytest.approx(concordance_auc(labels, scores), abs=1e-9)

    def test_monotone_transform_invariance(self):
        rng = Rng(6)
        labels = (rng.uniform_array(40) < 0.5).astype(int)
        scores = rng.gaussian_array(40)
        auc1, _ = ev.roc_auc(labels, scores)
        auc2, _ = ev.roc_auc(labels, np.exp(scores) * 3 + 1)
        assert auc1 == pytest.approx(auc2, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ev.roc_auc([1, 1], [0.5, 0.6])
        with pytest.raises(ValueError):
            ev.roc_auc([1, 0], [np.nan, 0.5])
        with pytest.raises(ValueError):
            ev.roc_auc([1, 0, 1], [0.5, 0.6])

    def test_roc_csv(self):
        text = ev.roc_to_csv([(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)])
        assert text.splitlines()[0] == "fpr,tpr"
        assert text.splitlines()[2] == "0.5,1"


class TestKfold:
    def test_partition_properties(self):
        labels = np.array([0] * 17 + [1] * 13)
        folds = ev.stratified_kfold(labels, 5, Rng(2))
        assert len(folds) == 5
        all_test = sorted(i for _, test in folds for i in test)
        assert all_test == list(range(30))  # test folds partition the indices
        for train, test in folds:
            assert sorted(train + test) == list(range(30))
            assert set(train).isdisjoint(test)
            # stratification: each test fold has both classes in near-even counts
            test_labels = labels[test]
            assert 2 <= test_labels.sum() <= 3
            assert 3 <= len(test_labels) - test_labels.sum() <= 4

    def test_deterministic(self):
        labels = [0, 1] * 10
        f1 = ev.stratified_kfold(labels, 4, Rng(9))
        f2 = ev.stratified_kfold(labels, 4, Rng(9))
        assert f1 == f2

    def test_validation(self):
        with pytest.raises(ValueError):
            ev.stratified_kfold([0, 1, 0, 1], 1, Rng(0))
        with pytest.raises(ValueError):
            ev.stratified_kfold([0, 0, 0, 1], 2, Rng(0))

    def test_report_roundtrip_dict(self):
        d = ev.evaluate([1, 0, 1, 0], [0.9, 0.2, 0.4, 0.1], 0.5)
        assert d["confusion"] == {"tp": 1, "fp": 0, "fn": 1, "tn": 2}
        assert d["accuracy"] == pytest.approx(0.75)
        assert d["auc"] == pytest.approx(1.0)
        assert d["roc_points"][0] == [0.0, 0.0]
