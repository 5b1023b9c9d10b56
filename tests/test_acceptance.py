"""Acceptance gate: every release-blocking behavior in one module.

Each test prints a PASS line for its criterion so a plain ``pytest -v`` run
doubles as an acceptance report.
"""

import time

import numpy as np
import pytest

from prediagnose import audioproc as ap
from prediagnose import evaluation as ev
from prediagnose import persist
from prediagnose import pipeline as pl
from prediagnose import synthcardio as sc
from prediagnose import synththermal as st
from prediagnose.cli import main
from prediagnose.core import LabeledDataset, Rng
from prediagnose.forest import ForestHyperparams, best_split, forest_predict
from prediagnose.svm import svm_decision, svm_decision_batch, train_svm_smo
from prediagnose.voting import sequence_vote

from test_audioproc import naive_dft
from test_evaluation import concordance_auc
from test_ml import brute_force_split, dual_objective, model_alphas, solve_dual_qp
from test_persist import tiny_forest, tiny_svm


def _report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_01_fft_oracle_and_parseval():
    start = time.perf_counter()
    rng = Rng(1001)
    checked = 0
    for n in (8, 64, 1024):
        for _ in range(34):
            x = rng.gaussian_array(n) + 1j * rng.gaussian_array(n)
            spec = ap.fft(x)
            assert np.max(np.abs(spec - naive_dft(x))) < 1e-9
            energy_t = np.sum(np.abs(x) ** 2)
            energy_f = np.sum(np.abs(spec) ** 2) / n
            assert abs(energy_f - energy_t) / energy_t < 1e-9
            checked += 1
    assert checked >= 100
    assert time.perf_counter() - start < 5.0
    _report(1, "FFT matches naive DFT, Parseval holds, < 5 s")


def test_02_dwt_round_trip():
    rng = Rng(1002)
    for _ in range(1000):
        x = rng.gaussian_array(64)
        back = ap.dwt_inverse(ap.dwt_forward(x, 3))
        assert np.max(np.abs(back - x)) < 1e-10
    _report(2, "db4 DWT round trip within 1e-10 on 1000 signals")


def test_03_smo_correctness():
    # (a) hand-derived two-point optimum
    X = np.array([[0.0], [2.0]])
    model = train_svm_smo(LabeledDataset(X, np.array([0, 1])), c=10.0, gamma=0.5)
    expected = 1.0 / (1.0 - np.exp(-2.0))
    assert np.allclose(np.abs(model.alpha_y), expected, atol=1e-3)

    # (b) 20-sample separable sets: perfect training accuracy + KKT structure.
    # SMO stops once its KKT gap is below 1e-3, so margins are held to a band
    # wider than that rather than machine precision.
    for seed in (31, 32, 33):
        rng = Rng(seed)
        Xs = np.vstack(
            [
                rng.gaussian_array(20).reshape(10, 2) + [3.0, 0.0],
                rng.gaussian_array(20).reshape(10, 2) - [3.0, 0.0],
            ]
        )
        ys = np.array([1] * 10 + [0] * 10)
        m = train_svm_smo(LabeledDataset(Xs, ys), c=10.0, gamma=0.5)
        scores = svm_decision_batch(m, Xs)
        assert np.all((scores >= 0).astype(int) == ys)
        assert abs(m.alpha_y.sum()) < 1e-6
        assert np.all(np.abs(m.alpha_y) <= 10.0 + 1e-9)
        alpha = model_alphas(m, Xs, 2.0 * ys - 1.0)
        margins = (2.0 * ys - 1.0) * scores
        free = (alpha > 1e-6) & (alpha < 10.0 - 1e-6)
        assert np.all(np.abs(margins[free] - 1.0) < 0.01)
        assert np.all(margins[alpha <= 1e-6] >= 1.0 - 0.01)
        assert np.all(margins[alpha >= 10.0 - 1e-6] <= 1.0 + 0.01)

    # (c) dual objective vs QP oracle on <= 4-point problems
    for seed in (41, 42, 43):
        rng = Rng(seed)
        Xq = rng.gaussian_array(8).reshape(4, 2)
        yq = np.array([0, 0, 1, 1])
        y_pm = 2.0 * yq - 1.0
        mq = train_svm_smo(LabeledDataset(Xq, yq), c=5.0, gamma=0.8)
        _, obj_qp, K = solve_dual_qp(Xq, y_pm, 5.0, 0.8)
        assert dual_objective(model_alphas(mq, Xq, y_pm), y_pm, K) == pytest.approx(
            obj_qp, abs=1e-3
        )
    _report(3, "SMO: 2-point closed form, separable KKT/accuracy, QP oracle")


def test_04_forest_split_oracle():
    rng = Rng(1004)
    agreements = 0
    for _ in range(200):
        X = np.round(rng.uniform_array(60).reshape(20, 3) * 4) / 4.0
        y = (rng.uniform_array(20) < 0.5).astype(int)
        got = best_split(X, y, [0, 1, 2], min_samples_leaf=1)
        want = brute_force_split(X, y, [0, 1, 2], 1)
        if want is None:
            assert got is None
        else:
            assert got[0] == want[0] and got[1] == pytest.approx(want[1])
            assert got[2] == pytest.approx(want[2])
        agreements += 1
    assert agreements == 200
    _report(4, "best split equals exhaustive enumeration on 200 datasets")


def test_05_auc_oracle():
    auc, _ = ev.roc_auc([1, 1, 0, 0], [0.8, 0.4, 0.6, 0.2])
    assert auc == 0.75
    rng = Rng(1005)
    checked = 0
    while checked < 100:
        n = 25
        labels = (rng.uniform_array(n) < 0.5).astype(int)
        if labels.sum() in (0, n):
            continue
        scores = np.round(rng.uniform_array(n) * 6) / 6.0  # forced ties
        got, _ = ev.roc_auc(labels, scores)
        assert got == pytest.approx(concordance_auc(labels, scores), abs=1e-9)
        checked += 1
    _report(5, "trapezoidal AUC equals concordance AUC, 0.75 case exact")


def test_06_reference_f1_reproduction():
    # reference cardiopulmonary precision/recall pairs and their F1
    lung = ev.metrics(tp=861, fp=139, fn=144, tn=856)
    assert lung["precision"] == pytest.approx(0.861, abs=5e-4)
    assert lung["recall"] == pytest.approx(0.857, abs=5e-4)
    assert round(lung["f1"], 2) == 0.86
    assert round(ev.f1_score(0.861, 0.857), 2) == 0.86
    assert round(ev.f1_score(0.838, 0.840), 2) == 0.84
    _report(6, "reference F1 values (0.86 lung, 0.84 heart) reproduced")


def test_07_clot_benchmark_500_200():
    start = time.perf_counter()
    cfg = st.ThermalConfig()
    train = st.generate_dataset(cfg, 500, 0.5, Rng(7))
    test = st.generate_dataset(cfg, 200, 0.5, Rng(8))
    pcfg = pl.ClotPipelineConfig()
    model = pl.clot_train(train, pcfg, threads=4)
    feats = pl._feature_matrix(pl.clot_features, [im for im, _ in test], pcfg, threads=4)
    scores = svm_decision_batch(model, feats)
    labels = np.array([lab for _, lab in test])
    acc = float(np.mean((scores >= 0).astype(int) == labels))
    auc, _ = ev.roc_auc(labels, scores)
    elapsed = time.perf_counter() - start
    assert acc >= 0.85, f"clot accuracy {acc}"
    assert auc >= 0.85, f"clot AUC {auc}"
    assert elapsed < 600.0
    _report(7, f"clot benchmark acc={acc:.3f} auc={auc:.3f} in {elapsed:.0f}s")


@pytest.mark.parametrize("task", ["heart", "lung"])
def test_08_cardio_benchmark(task):
    cfg = pl.CardioPipelineConfig()
    train = sc.generate_cardio_dataset(task, 200, 0.5, 3.0, 4000, Rng(11))
    test = sc.generate_cardio_dataset(task, 100, 0.5, 3.0, 4000, Rng(12))
    model = pl.cardio_train(train, cfg, threads=4)
    preds = [pl.cardio_predict(model, sig, cfg)[1] for sig, _ in test]
    acc = float(np.mean([p == lab for p, (_, lab) in zip(preds, test)]))
    assert acc >= 0.90, f"{task} accuracy {acc}"
    _report(8, f"cardio {task} benchmark accuracy {acc:.3f} >= 0.90")


def test_09_temporal_voting_never_hurts():
    cfg = st.ThermalConfig()
    train = st.generate_dataset(cfg, 200, 0.5, Rng(7))
    pcfg = pl.ClotPipelineConfig()
    model = pl.clot_train(train, pcfg, threads=4)
    rng = Rng(13)
    frame_correct = frame_total = 0
    seq_correct = seq_total = 0
    for label in (0, 1):
        for _ in range(50):
            frames = list(st.iter_frame_sequence(cfg, label, 10, rng))
            frame_labels = [pl.clot_predict_frame(model, f, pcfg)[1] for f in frames]
            frame_correct += sum(fl == label for fl in frame_labels)
            frame_total += len(frame_labels)
            seq_correct += int(sequence_vote(frame_labels, pcfg.window) == label)
            seq_total += 1
    frame_acc = frame_correct / frame_total
    seq_acc = seq_correct / seq_total
    assert seq_acc >= frame_acc
    _report(9, f"sequence acc {seq_acc:.3f} >= frame acc {frame_acc:.3f}")


def test_10_single_sample_latency():
    cfg = st.ThermalConfig()
    pcfg = pl.ClotPipelineConfig()
    clot_model = pl.clot_train(st.generate_dataset(cfg, 24, 0.5, Rng(60)), pcfg, threads=1)
    img = st.generate_sample(cfg, 1, Rng(61))
    start = time.perf_counter()
    pl.clot_predict_frame(clot_model, img, pcfg)
    clot_ms = (time.perf_counter() - start) * 1000.0

    ccfg = pl.CardioPipelineConfig(forest=ForestHyperparams(n_trees=100))
    cardio_model = pl.cardio_train(
        sc.generate_cardio_dataset("heart", 10, 0.5, 2.0, 4000, Rng(62)), ccfg, threads=1
    )
    sig = sc.synth_cardio_sample("heart", 1, 3.0, 8000, Rng(63))
    start = time.perf_counter()
    pl.cardio_predict(cardio_model, sig, ccfg)
    cardio_ms = (time.perf_counter() - start) * 1000.0

    assert clot_ms < 2000.0 and cardio_ms < 2000.0
    _report(10, f"latency clot={clot_ms:.0f}ms cardio={cardio_ms:.0f}ms < 2 s")


def test_11_determinism_across_runs_and_threads(tmp_path, capsys, monkeypatch):
    import json

    data = tmp_path / "data"
    assert main(["synth", "thermal", "--out", str(data), "--n", "12", "--seed", "77"]) == 0
    capsys.readouterr()

    outputs = []
    for run in range(2):
        for threads in ("1", "4"):
            model = tmp_path / f"m{run}_{threads}.pdmodel.json"
            assert main(["train", "clot", "--data", str(data), "--out", str(model),
                         "--threads", threads]) == 0
            train_out = capsys.readouterr().out.replace(model.name, "MODEL")
            assert main(["eval", "--model", str(model), "--data", str(data),
                         "--threads", threads]) == 0
            eval_out = capsys.readouterr().out
            sample = sorted(data.glob("*.pgm"))[0]
            assert main(["predict", "clot", "--model", str(model),
                         "--input", str(sample)]) == 0
            pred = json.loads(capsys.readouterr().out)
            pred.pop("latency_ms")
            outputs.append((model.read_bytes(), train_out, eval_out, pred))
    assert all(o == outputs[0] for o in outputs[1:])
    _report(11, "byte-identical outputs across runs and --threads {1,4}")


def test_12_persistence_round_trip_predictions():
    svm_model = tiny_svm()
    loaded_svm, _ = persist.load_model(persist.save_model(svm_model, {}))
    rng = Rng(1012)
    for _ in range(100):
        x = rng.gaussian_array(2)
        assert svm_decision(loaded_svm, x) == svm_decision(svm_model, x)

    forest_model = tiny_forest()
    loaded_forest, _ = persist.load_model(persist.save_model(forest_model, {}))
    for _ in range(100):
        x = rng.uniform_array(3)
        assert forest_predict(loaded_forest, x) == forest_predict(forest_model, x)
    _report(12, "load(save(m)) gives bit-identical predictions, both kinds")
