import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import prediagnose
from prediagnose.core import LabeledDataset, Rng, TrainingError
from prediagnose import forest as rf
from prediagnose import persist
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

    @pytest.mark.parametrize("block_bytes", [8, 24, 1 << 20])
    def test_blocked_squared_norms_are_np_sum_bit_for_bit(self, monkeypatch, block_bytes):
        # Each row reduces on its own, so squaring a few rows at a time gives
        # np.sum(a * a, axis=1)'s bits, for views in any memory order too.
        monkeypatch.setattr(sv, "_NORM_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(5)
        for n, d in [(1, 1), (1, 7), (9, 1), (5, 3), (33, 17), (200, 130)]:
            base = rng.standard_normal((2 * n, 2 * d + 1)) * 10.0 ** rng.uniform(-3, 3, (2 * n, 1))
            for a in (base[:n, :d].copy(), base[::2, :d], base[:n, ::2][:, :d],
                      np.asfortranarray(base[:n, :d]), base[:n, :d][::-1], base[:n, :d][:, ::-1],
                      base[:d, :n].T,
                      np.broadcast_to(base[0, :d], (n, d))):
                want = np.sum(a * a, axis=1)
                assert np.array_equal(sv._sq_norms(a).view(np.int64), want.view(np.int64))

    def test_kernel_is_the_expression_bit_for_bit_in_two_buffers(self):
        # The old expression, one full-size temporary per operation, is the
        # reference; b repeats rows of a, so some squared distances round
        # below zero and are clipped. Beside the two (n, m) buffers, only the
        # broadcast sum's iteration buffers (128 KB) are allocated.
        rng = np.random.default_rng(6)
        a = rng.standard_normal((500, 20))
        b = np.vstack([a[:100], rng.standard_normal((300, 20))])
        a_sq, b_sq, gamma = np.sum(a * a, axis=1), np.sum(b * b, axis=1), 0.02
        want = np.exp(-gamma * np.maximum(a_sq[:, None] + b_sq[None, :] - 2.0 * (a @ b.T), 0.0))
        tracemalloc.start()
        try:
            got = sv._rbf_kernel(a, a_sq, b, b_sq, gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert peak < 2 * got.nbytes + 256_000


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

    def test_every_sample_kept_shares_the_training_matrix(self):
        # At gamma 50 each point is nearly alone, so every one is a support
        # vector. The model's matrix is then X itself, and it scores as a
        # copy of X would, bit for bit.
        X, y01 = overlapping_clusters(3)
        model = sv.train_svm_smo(LabeledDataset(X, y01), c=10.0, gamma=50.0)
        assert len(model.alpha_y) == len(X)
        assert np.shares_memory(model.support_vectors, X)
        copied = dataclasses.replace(model, support_vectors=X.copy())
        probe = np.vstack([X, Rng(4).gaussian_array(40).reshape(20, 2)])
        assert np.array_equal(sv.svm_decision_batch(model, probe).view(np.int64),
                              sv.svm_decision_batch(copied, probe).view(np.int64))

    def test_training_set_over_the_gram_cap_refused_before_the_gram(self):
        # The smallest refused set: its Gram matrix alone would be 8 n^2 bytes
        # (537 MB at the 1 GiB cap), and nothing near that is allocated.
        n = math.isqrt(sv.MAX_GRAM_BYTES // 16) + 1
        assert 16 * (n - 1) ** 2 <= sv.MAX_GRAM_BYTES < 16 * n ** 2
        data = LabeledDataset(np.zeros((n, 1)), np.arange(n) % 2)
        tracemalloc.start()
        try:
            with pytest.raises(TrainingError, match=rf"^{n} training samples need {16 * n * n} "
                                                    rf"bytes .* cap of {sv.MAX_GRAM_BYTES}$"):
                sv.train_svm_smo(data, c=1.0, gamma=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

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


def best_split_loop(X, y, feature_indices, min_samples_leaf):
    """The position-by-position split search that best_split replaced, kept
    as its oracle: the same Gini operations in the same order, one candidate
    at a time, with the same tie rule and result types."""
    def gini(n0, n1):
        total = n0 + n1
        p0, p1 = n0 / total, n1 / total
        return 1.0 - (p0 * p0 + p1 * p1)

    n = len(y)
    best = None
    for f in sorted(feature_indices):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        c1 = np.cumsum(y[order])
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
            g = (pos * gini(l0, l1) + (n - pos) * gini(r0, r1)) / n
            if best is None or g < best[2] - 1e-15:
                best = (f, thr, g)
    return best


def tie_heavy_column(rng: Rng, n: int) -> np.ndarray:
    """One of five kinds of column: constant, two levels, small integers,
    quarter steps, or continuous."""
    kind = rng.randint(5)
    if kind == 0:
        return np.full(n, 0.5)
    if kind == 1:
        return (rng.uniform_array(n) < 0.5).astype(np.float64)
    if kind == 2:
        return np.floor(rng.uniform_array(n) * 4)
    if kind == 3:
        return np.round(rng.uniform_array(n) * 4) / 4.0
    return rng.gaussian_array(n)


def seeded_forest_data(seed: int) -> LabeledDataset:
    """60 samples of 7 features: a constant column, a two-level column,
    heavily tied columns and continuous ones; labels follow two of them."""
    rng = Rng(seed)
    n = 60
    X = np.column_stack([
        np.round(rng.uniform_array(n) * 4) / 4.0,
        np.full(n, 1.25),
        (rng.uniform_array(n) < 0.5).astype(np.float64),
        np.floor(rng.uniform_array(n) * 3),
        rng.gaussian_array(n),
        np.round(rng.gaussian_array(n) * 2) / 2.0,
        rng.gaussian_array(n),
    ])
    y = ((X[:, 0] + 0.5 * X[:, 4] + 0.3 * rng.gaussian_array(n)) > 0.5).astype(int)
    return LabeledDataset(X, y)


class TestForest:
    def test_best_split_matches_loop_on_tie_heavy_cases(self):
        # 1,200 seeded cases: 1 to 40 samples, 1 to 8 columns of the kinds in
        # tie_heavy_column, a random subset of candidate features in random
        # order, and min_samples_leaf from 1 to 3 in half the cases and from 1
        # up to n, so often above n/2, in the others.
        # repr compares the feature's type and the result's bits as well.
        rng = Rng(20)
        cases = 0
        for _ in range(1200):
            n = 1 + rng.randint(40)
            d = 1 + rng.randint(8)
            X = np.column_stack([tie_heavy_column(rng, n) for _ in range(d)])
            y = (rng.uniform_array(n) < rng.uniform()).astype(int)
            features = rng.sample_indices(d, 1 + rng.randint(d))
            min_leaf = 1 + rng.randint(3 if rng.uniform() < 0.5 else n)
            want = best_split_loop(X, y, features, min_leaf)
            assert repr(rf.best_split(X, y, features, min_leaf)) == repr(want), (n, d, min_leaf)
            cases += want is not None
        assert cases > 600

    def test_best_split_single_sample_and_constant_columns(self):
        assert rf.best_split(np.array([[1.0, 2.0]]), np.array([1]), [0, 1], 1) is None
        X = np.column_stack([np.full(6, 3.0), np.arange(6.0)])
        y = np.array([0, 0, 1, 0, 1, 1])
        assert rf.best_split(X[:, :1], y, [0], 1) is None
        assert repr(rf.best_split(X, y, [1, 0], 1)) == repr(best_split_loop(X, y, [1, 0], 1))

    @pytest.mark.parametrize("min_leaf, mtry, max_depth, digest", [
        (1, None, 30, "b460e073af15ff5a21aa7b41c4af96ba7cdaede7a85bd9a6c083eec75869a0c6"),
        (1, 7, 30, "4eb7d3bca90195709068d79420ac4ae81fb57e37e114548fc701aec22a3c7287"),
        (3, 2, 4, "2e3ca60ed84f86b84c3f983b6e15616929160e1fa28bb5c128c44cdfcf87d492"),
        (2, 1, 2, "eafef8b5251769912cd97c73adb6d611d9d5a08a8f9d11bec351f38b9a379369"),
        (8, 3, 30, "4d5e62cb69b29cc326fd3258692d3e4715497f2891207e20e01f31a85e556b2d"),
        (25, 7, 30, "0c6ae21febe07b2d6c43937e9a900300b009089d00d8d96cddfe84dac8a2d4b5"),
    ])
    def test_saved_forest_bytes_pinned(self, min_leaf, mtry, max_depth, digest):
        # sha256 of save_model's bytes for a seeded 8-tree forest; every
        # threshold is written with 17 digits, so a one-ulp change fails. The
        # last setting splits only between positions 25 and 35 of 60.
        hp = rf.ForestHyperparams(8, max_depth, min_leaf, mtry, 11)
        model = rf.train_random_forest(seeded_forest_data(5), hp)
        assert hashlib.sha256(persist.save_model(model, {})).hexdigest() == digest

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
        model = rf.train_random_forest(data, hp)
        preds = [rf.forest_predict(model, x)[1] for x in X]
        assert np.mean(np.array(preds) == y) >= 0.95

    def test_forest_validation(self):
        with pytest.raises(TrainingError):
            rf.train_random_forest(LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int)),
                                   forest_hp())
        data = LabeledDataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
        with pytest.raises(TrainingError):
            rf.train_random_forest(data, forest_hp(mtry=5))

    def test_predict_shape_check(self):
        data = LabeledDataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
        model = rf.train_random_forest(data, forest_hp(n_trees=3, min_samples_leaf=1))
        with pytest.raises(ValueError):
            rf.forest_predict(model, np.zeros(3))

    @pytest.mark.parametrize("X", [np.zeros(2), np.zeros((4, 3)), np.zeros((4, 1)),
                                   np.zeros((1, 1, 2))], ids=["1d", "3_cols", "1_col", "3d"])
    def test_predict_batch_shape_check(self, X):
        data = LabeledDataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
        model = rf.train_random_forest(data, forest_hp(n_trees=3, min_samples_leaf=1))
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
