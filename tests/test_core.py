import numpy as np
import pytest

from prediagnose.core import GrayImage, LabeledDataset, Rng


def splitmix64_reference(seed, n):
    """Independent scalar implementation of the published recurrence."""
    mask = 0xFFFFFFFFFFFFFFFF
    state = seed & mask
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestRng:
    def test_seed_zero_first_output(self):
        assert Rng(0).next_u64() == 0xE220A8397B1DCDAF

    def test_matches_reference_for_1000_outputs(self):
        rng = Rng(0)
        expected = splitmix64_reference(0, 1000)
        assert [rng.next_u64() for _ in range(1000)] == expected

    def test_same_seed_same_stream(self):
        a, b = Rng(1234), Rng(1234)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_different_seeds_differ(self):
        assert Rng(1).next_u64() != Rng(2).next_u64()

    def test_array_matches_scalar(self):
        a, b = Rng(99), Rng(99)
        assert list(a.next_u64_array(100)) == [b.next_u64() for _ in range(100)]
        # state advanced identically: subsequent draws agree
        assert a.next_u64() == b.next_u64()

    def test_uniform_range_and_first_value(self):
        rng = Rng(0)
        v = rng.uniform()
        assert 0.0 <= v < 1.0
        assert v == pytest.approx(0xE220A8397B1DCDAF * 2.0**-64, abs=1e-9)

    def test_uniform_mean(self):
        draws = Rng(7).uniform_array(100_000)
        assert np.all((draws >= 0) & (draws < 1))
        assert abs(draws.mean() - 0.5) < 0.01

    def test_gaussian_moments(self):
        draws = Rng(42).gaussian_array(100_000)
        assert -0.02 <= draws.mean() <= 0.02
        assert 0.97 <= draws.var() <= 1.03

    def test_gaussian_deterministic(self):
        assert np.array_equal(Rng(5).gaussian_array(8), Rng(5).gaussian_array(8))

    def test_gaussian_array_matches_scalar(self):
        # Box-Muller, cosine branch, over consecutive pairs of scalar uniforms
        a, b = Rng(11), Rng(11)
        arr = a.gaussian_array(64)
        scalars = []
        for _ in range(64):
            u1, u2 = b.uniform(), b.uniform()
            scalars.append(np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2))
        assert np.array_equal(arr, scalars)
        assert a.state == b.state

    def test_shuffle_deterministic(self):
        xs, ys = list(range(20)), list(range(20))
        Rng(3).shuffle(xs)
        Rng(3).shuffle(ys)
        assert xs == ys and sorted(xs) == list(range(20))

    def test_sample_indices_distinct(self):
        idx = Rng(8).sample_indices(10, 6)
        assert len(set(idx)) == 6 and all(0 <= i < 10 for i in idx)
        with pytest.raises(ValueError):
            Rng(8).sample_indices(3, 4)
        with pytest.raises(ValueError):  # pool[:-1] would give n - 1 indices
            Rng(8).sample_indices(3, -1)


class TestTypes:
    def test_gray_image_validation(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            GrayImage(np.array([[np.nan]]))
        img = GrayImage(np.zeros((4, 7)))
        assert (img.height, img.width) == (4, 7)

    def test_dataset_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            LabeledDataset([np.zeros(3), np.zeros(4)], [0, 1])

    def test_dataset_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 2]))
