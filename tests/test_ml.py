import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import prediagnose
from prediagnose.core import LabeledDataset, Rng, TrainingError
from prediagnose import forest as rf
from prediagnose import svm as sv
from prediagnose import voting
from prediagnose.pipeline import CardioPipelineConfig


def forest_hp(**overrides) -> rf.ForestHyperparams:
    """The cardio pipeline's default forest hyperparameters, with overrides."""
    cfg = dataclasses.replace(CardioPipelineConfig(), **overrides)
    return rf.ForestHyperparams(cfg.n_trees, cfg.max_depth, cfg.min_samples_leaf, cfg.mtry,
                                cfg.seed)


def kernel_rbf(x, y, gamma: float) -> float:
    """Scalar RBF kernel, the reference rbf_gram is checked against."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    d = x - y
    return float(np.exp(-gamma * np.dot(d, d)))


def dual_objective(alpha, y_pm, K):
    return alpha.sum() - 0.5 * (alpha * y_pm) @ K @ (alpha * y_pm)


def solve_dual_qp(X, y_pm, c, gamma):
    """Reference solver for the SVM dual via SLSQP."""
    K = sv.rbf_gram(X, X, gamma)
    n = len(y_pm)
    res = minimize(
        lambda a: -dual_objective(a, y_pm, K),
        x0=np.full(n, c / 2.0),
        jac=lambda a: -(np.ones(n) - y_pm * (K @ (a * y_pm))),
        bounds=[(0.0, c)] * n,
        constraints=[{"type": "eq", "fun": lambda a: a @ y_pm, "jac": lambda a: y_pm}],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-12},
    )
    assert res.success
    return res.x, dual_objective(res.x, y_pm, K), K


def model_alphas(model, X, y_pm):
    """Full-length alpha vector recovered from the sparse model."""
    alpha = np.zeros(len(y_pm))
    for sv_row, ay in zip(model.support_vectors, model.alpha_y):
        idx = next(i for i in range(len(X)) if np.array_equal(X[i], sv_row) and alpha[i] == 0.0)
        alpha[idx] = ay / y_pm[idx]
    return alpha


def overlapping_clusters(seed):
    """Two overlapping 20-point Gaussian clusters, their centres 1.6 apart."""
    rng = Rng(seed)
    X = np.vstack([rng.gaussian_array(40).reshape(20, 2) + [0.8, 0.0],
                   rng.gaussian_array(40).reshape(20, 2) - [0.8, 0.0]])
    return X, np.array([1] * 20 + [0] * 20)


class TestKernel:
    def test_examples(self):
        assert kernel_rbf([0.0], [0.0], 1.0) == 1.0
        assert kernel_rbf([0.0], [1.0], 1.0) == pytest.approx(np.exp(-1.0))
        assert kernel_rbf([1.0, 2.0], [3.0, 4.0], 0.5) == pytest.approx(np.exp(-4.0))
        with pytest.raises(ValueError):
            kernel_rbf([0.0], [0.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            kernel_rbf([0.0], [0.0], -1.0)

    def test_gram_matches_scalar(self):
        rng = Rng(1)
        A = rng.gaussian_array(12).reshape(4, 3)
        B = rng.gaussian_array(6).reshape(2, 3)
        G = sv.rbf_gram(A, B, 0.7)
        for i in range(4):
            for j in range(2):
                assert G[i, j] == pytest.approx(kernel_rbf(A[i], B[j], 0.7))

    def test_gamma_scale(self):
        X = np.array([[0.0, 0.0], [2.0, 2.0]])
        assert sv.gamma_scale(X) == pytest.approx(1.0 / (2 * X.var()))
        assert sv.gamma_scale(np.ones((3, 4))) == pytest.approx(0.25)


# sha256 of the decision scores of a seeded clot model on 40 test images, one
# svm_decision call per row, then one svm_decision_batch call over the matrix.
# The two paths sum the Gram products in different orders and differ in the
# last bits, so each has its own digest, and a one-ulp change to either fails.
# A fresh interpreter pins OpenBLAS to one thread, whose summation order does
# not depend on the core count. argv[1] is svm_gamma, or "scale" for gamma_scale.
DECISION_SCORES = """
import hashlib, sys
import numpy as np
from prediagnose import pipeline as pl, svm as sv, synththermal
from prediagnose.core import Rng
cfg = pl.ClotPipelineConfig(svm_gamma=None if sys.argv[1] == "scale" else float(sys.argv[1]))
thermal = synththermal.ThermalConfig()
model = pl.clot_train(synththermal.generate_dataset(thermal, 6, 0.5, Rng(31)), cfg, 1)
test = synththermal.generate_dataset(thermal, 40, 0.5, Rng(32))
X = np.array([pl.clot_features(img, cfg) for img, _ in test])
rows = np.array([sv.svm_decision(model, x) for x in X])
print(hashlib.sha256(rows.tobytes()).hexdigest())
print(hashlib.sha256(sv.svm_decision_batch(model, X).tobytes()).hexdigest())
"""


class TestSmo:
    def test_two_point_closed_form(self):
        # K12 = exp(-0.5 * 4) = e^-2; the unconstrained pair optimum is
        # alpha = 1 / (1 - e^-2) for both points
        X = np.array([[0.0], [2.0]])
        data = LabeledDataset(X, np.array([0, 1]))
        model = sv.train_svm_smo(data, c=10.0, gamma=0.5)
        expected = 1.0 / (1.0 - np.exp(-2.0))
        assert len(model.alpha_y) == 2
        assert np.allclose(np.abs(model.alpha_y), expected, atol=1e-3)
        # both training points sit exactly on the margins
        assert sv.svm_decision(model, [0.0]) == pytest.approx(-1.0, abs=1e-3)
        assert sv.svm_decision(model, [2.0]) == pytest.approx(1.0, abs=1e-3)

    def test_xor_memorized_and_matches_qp_oracle(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y01 = np.array([0, 0, 1, 1])
        y_pm = 2.0 * y01 - 1.0
        model = sv.train_svm_smo(LabeledDataset(X, y01), c=10.0, gamma=1.0)
        for xi, yi in zip(X, y01):
            assert sv.svm_predict(model, xi)[1] == yi
        _, obj_qp, K = solve_dual_qp(X, y_pm, 10.0, 1.0)
        alpha = model_alphas(model, X, y_pm)
        assert dual_objective(alpha, y_pm, K) == pytest.approx(obj_qp, abs=1e-3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_random_sets_match_qp_objective(self, seed):
        rng = Rng(seed)
        X = rng.gaussian_array(8).reshape(4, 2)
        y01 = np.array([0, 0, 1, 1])
        y_pm = 2.0 * y01 - 1.0
        model = sv.train_svm_smo(LabeledDataset(X, y01), c=5.0, gamma=0.8)
        _, obj_qp, K = solve_dual_qp(X, y_pm, 5.0, 0.8)
        alpha = model_alphas(model, X, y_pm)
        assert dual_objective(alpha, y_pm, K) == pytest.approx(obj_qp, abs=1e-3)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_kkt_on_separable_sets(self, seed):
        rng = Rng(seed)
        n_half, c = 10, 10.0
        X = np.vstack(
            [
                rng.gaussian_array(2 * n_half).reshape(n_half, 2) + [3.0, 0.0],
                rng.gaussian_array(2 * n_half).reshape(n_half, 2) - [3.0, 0.0],
            ]
        )
        y01 = np.array([1] * n_half + [0] * n_half)
        y_pm = 2.0 * y01 - 1.0
        model = sv.train_svm_smo(LabeledDataset(X, y01), c=c, gamma=0.5)
        scores = sv.svm_decision_batch(model, X)
        # perfect training accuracy on well-separated clusters
        assert np.all((scores >= 0).astype(int) == y01)
        # multiplier constraints
        assert abs(model.alpha_y.sum()) < 1e-6
        assert np.all(np.abs(model.alpha_y) <= c + 1e-9)
        # KKT margins: support vectors strictly inside (0, C) lie on the margin
        alpha = model_alphas(model, X, y_pm)
        margins = y_pm * scores
        # SMO stops once its KKT gap is below 1e-3, so allow a band wider
        # than that rather than machine precision
        free = (alpha > 1e-6) & (alpha < c - 1e-6)
        assert np.all(np.abs(margins[free] - 1.0) < 0.01)
        assert np.all(margins[alpha <= 1e-6] >= 1.0 - 0.01)
        assert np.all(margins[alpha >= c - 1e-6] <= 1.0 + 0.01)

    @pytest.mark.parametrize("seed", [20, 23])
    def test_non_separable_set_matches_qp_oracle(self, seed):
        # C = 1 on overlapping clusters: some multipliers are free, some sit at C.
        X, y01 = overlapping_clusters(seed)
        y_pm = 2.0 * y01 - 1.0
        model = sv.train_svm_smo(LabeledDataset(X, y01), c=1.0, gamma=0.5)
        alpha = model_alphas(model, X, y_pm)
        _, obj_qp, K = solve_dual_qp(X, y_pm, 1.0, 0.5)
        assert dual_objective(alpha, y_pm, K) == pytest.approx(obj_qp, abs=1e-3)
        free = (alpha > 1e-6) & (alpha < 1.0 - 1e-6)
        at_c = alpha >= 1.0 - 1e-6
        assert free.any() and at_c.any()
        margins = y_pm * sv.svm_decision_batch(model, X)
        assert np.all(np.abs(margins[free] - 1.0) < 0.01)
        assert np.all(margins[alpha <= 1e-6] >= 1.0 - 0.01)
        assert np.all(margins[at_c] <= 1.0 + 0.01)

    @pytest.mark.parametrize("seed", [20, 23])
    def test_bias_without_free_multipliers_meets_kkt(self, seed):
        # At C = 1e-3 every multiplier sits at C, so no free one fixes the bias.
        # Each +1 point at C needs y*f <= 1, that is b <= 1 - (K alpha_y)_i,
        # and each -1 point at C needs b >= -1 - (K alpha_y)_i.
        X, y01 = overlapping_clusters(seed)
        y_pm = 2.0 * y01 - 1.0
        c = 1e-3
        model = sv.train_svm_smo(LabeledDataset(X, y01), c=c, gamma=0.5)
        alpha = model_alphas(model, X, y_pm)
        assert np.all(alpha >= c * (1 - 1e-9))
        _, obj_qp, K = solve_dual_qp(X, y_pm, c, 0.5)
        assert dual_objective(alpha, y_pm, K) == pytest.approx(obj_qp, abs=1e-3)
        v = y_pm - K @ (alpha * y_pm)
        assert v[y01 == 0].max() <= model.bias <= v[y01 == 1].min()

    def test_step_bound_raises(self, monkeypatch):
        # Seed 20's C = 1 problem needs more than one step per sample.
        X, y01 = overlapping_clusters(20)
        monkeypatch.setattr(sv, "_MAX_STEPS", 1)
        with pytest.raises(TrainingError, match="did not converge in 40 steps"):
            sv.train_svm_smo(LabeledDataset(X, y01), c=1.0, gamma=0.5)

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            sv.train_svm_smo(LabeledDataset(np.zeros((3, 2)), np.zeros(3, dtype=int)), c=10.0,
                             gamma=None)
        with pytest.raises(TrainingError):
            sv.train_svm_smo(
                LabeledDataset(np.zeros((2, 2)), np.array([0, 1])), c=0.0, gamma=None
            )

    @pytest.mark.parametrize("c, gamma", [(-1.0, None), (float("nan"), None), (float("inf"), None),
                                          (1.0, -1.0), (1.0, float("nan")), (1.0, float("inf"))],
                             ids=["c_negative", "c_nan", "c_inf", "gamma_negative", "gamma_nan",
                                  "gamma_inf"])
    def test_c_or_gamma_out_of_range_rejected(self, c, gamma):
        # load_model would refuse the model these would give
        with pytest.raises(TrainingError, match="finite"):
            sv.train_svm_smo(LabeledDataset(np.eye(2), np.array([0, 1])), c=c, gamma=gamma)

    def test_decision_shape_check(self):
        model = sv.train_svm_smo(
            LabeledDataset(np.array([[0.0], [1.0]]), np.array([0, 1])), c=10.0, gamma=1.0
        )
        with pytest.raises(ValueError):
            sv.svm_decision(model, [0.0, 1.0])
        for x in ([0.0], [[[0.0]]]):
            with pytest.raises(ValueError, match="expected rows of 1 features"):
                sv.svm_decision_batch(model, x)

    @pytest.mark.parametrize("gamma, row_digest, batch_digest", [
        ("0.15", "ea9c206f7ed8bbe49ade02432886780e77fd32fbe3157052566c4c104c753572",
         "5c6e50348c1bd0841a58eab7da195a581634eed109e5ad899cc2d4c595a4b900"),
        ("scale", "51f9ea782c7de5d820f736b214979fcb95f706100be9d3b276bab9328ab230fd",
         "6626b0fb0f4b04503b4ad00cefe48cfe4cd56966158597fa009e4b8bc8a95eb8"),
    ], ids=["gamma_0.15", "gamma_scale"])
    def test_decision_scores_pinned(self, gamma, row_digest, batch_digest):
        src = str(Path(prediagnose.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, "-c", DECISION_SCORES, gamma], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == [row_digest, batch_digest]


def brute_force_split(X, y, features, min_leaf):
    """Independent exhaustive split search for the oracle comparison."""
    n = len(y)
    best = None
    for f in sorted(features):
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (a + b) / 2.0
            mask = X[:, f] <= thr
            nl = int(mask.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            def gini(labels):
                if len(labels) == 0:
                    return 0.0
                p1 = labels.mean()
                return 1.0 - p1 * p1 - (1 - p1) * (1 - p1)
            g = (nl * gini(y[mask]) + (n - nl) * gini(y[~mask])) / n
            if best is None or g < best[2] - 1e-15:
                best = (f, thr, g)
    return best


class TestForest:
    def test_gini_examples(self):
        assert rf.gini_impurity((5, 0)) == 0.0
        assert rf.gini_impurity((5, 5)) == pytest.approx(0.5)
        assert rf.gini_impurity((3, 1)) == pytest.approx(0.375)
        with pytest.raises(ValueError):
            rf.gini_impurity((0, 0))

    def test_best_split_simple(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        f, thr, g = rf.best_split(X, y, [0], min_samples_leaf=1)
        assert (f, thr, g) == (0, 1.5, 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_best_split_matches_brute_force(self, seed):
        rng = Rng(seed)
        X = np.round(rng.uniform_array(60).reshape(20, 3) * 4) / 4.0
        y = (rng.uniform_array(20) < 0.5).astype(int)
        got = rf.best_split(X, y, [0, 1, 2], min_samples_leaf=2)
        want = brute_force_split(X, y, [0, 1, 2], 2)
        if want is None:
            assert got is None
        else:
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1])
            assert got[2] == pytest.approx(want[2])

    def test_forest_memorizes_in_bag_patterns(self):
        rng = Rng(3)
        X = rng.gaussian_array(40).reshape(20, 2)
        y = (X[:, 0] > 0).astype(int)
        data = LabeledDataset(X, y)
        hp = forest_hp(n_trees=25, max_depth=8, min_samples_leaf=1)
        model = rf.train_random_forest(data, hp, threads=1)
        preds = [rf.forest_predict(model, x)[1] for x in X]
        assert np.mean(np.array(preds) == y) >= 0.95

    def test_forest_deterministic_across_threads(self):
        rng = Rng(4)
        X = rng.gaussian_array(60).reshape(30, 2)
        y = (X[:, 1] > 0).astype(int)
        data = LabeledDataset(X, y)
        m1 = rf.train_random_forest(data, forest_hp(n_trees=10, seed=7), threads=1)
        m4 = rf.train_random_forest(data, forest_hp(n_trees=10, seed=7), threads=4)
        probe = rng.gaussian_array(20).reshape(10, 2)
        for x in probe:
            assert rf.forest_predict(m1, x) == rf.forest_predict(m4, x)

    def test_forest_validation(self):
        with pytest.raises(TrainingError):
            rf.train_random_forest(LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int)),
                                   forest_hp(), threads=1)
        data = LabeledDataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
        with pytest.raises(TrainingError):
            rf.train_random_forest(data, forest_hp(mtry=5), threads=1)

    def test_predict_shape_check(self):
        data = LabeledDataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
        model = rf.train_random_forest(data, forest_hp(n_trees=3, min_samples_leaf=1), threads=1)
        with pytest.raises(ValueError):
            rf.forest_predict(model, np.zeros(3))

    @pytest.mark.parametrize("X", [np.zeros(2), np.zeros((4, 3)), np.zeros((4, 1)),
                                   np.zeros((1, 1, 2))], ids=["1d", "3_cols", "1_col", "3d"])
    def test_predict_batch_shape_check(self, X):
        data = LabeledDataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
        model = rf.train_random_forest(data, forest_hp(n_trees=3, min_samples_leaf=1), threads=1)
        with pytest.raises(ValueError, match="expected rows of 2 features"):
            rf.forest_predict_batch(model, X)


class TestVoting:
    def test_majority_examples(self):
        assert voting.majority_vote([0, 1, 1]) == 1
        assert voting.majority_vote([0, 0, 1]) == 0
        assert voting.majority_vote([0, 1]) == 1  # tie -> positive
        with pytest.raises(ValueError):
            voting.majority_vote([])

    def test_sliding_window_example(self):
        assert voting.sliding_window_vote([0, 0, 1, 1, 1, 0, 0], 3) == [0, 1, 1, 1, 0]

    def test_sliding_window_validation(self):
        with pytest.raises(ValueError):
            voting.sliding_window_vote([0, 1, 0], 2)
        with pytest.raises(ValueError):
            voting.sliding_window_vote([0, 1], 3)

    def test_sequence_vote(self):
        assert voting.sequence_vote([0, 0, 1, 1, 1, 0, 0], 3) == 1
        assert voting.sequence_vote([0, 0, 0, 0, 1, 0, 0], 3) == 0
        # shorter than the window: plain majority
        assert voting.sequence_vote([1, 1], 5) == 1
