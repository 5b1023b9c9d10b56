"""Shared primitive types, deterministic pseudo-randomness, dataset containers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class FormatError(ValueError):
    """Raised when an external file (PGM/PPM/WAV/manifest/model) is malformed."""


class TrainingError(ValueError):
    """Raised when a classifier cannot be trained (e.g. single-class data)."""


def require_both_classes(labels) -> None:
    """TrainingError unless the {0,1} labels hold both classes."""
    if len(np.unique(labels)) < 2:
        raise TrainingError("training data must contain both classes")


class Rng:
    """SplitMix64 generator.

    Seeded identically it yields identical streams on every platform.  State
    advance is a single 64-bit add, so a block of n outputs can be produced
    vectorized (``uniform_array``/``gaussian_array``) while consuming exactly
    the same stream as n scalar ``uniform`` calls.  Not thread-safe; give each
    worker its own instance.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_u64_array(self, n: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            steps = np.arange(1, n + 1, dtype=np.uint64)
            z = (np.uint64(self.state) + steps * np.uint64(_GAMMA)).astype(np.uint64)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z = z ^ (z >> np.uint64(31))
        self.state = (self.state + n * _GAMMA) & _MASK64
        return z

    def uniform(self) -> float:
        # Top 53 bits; exact binary64, guarantees [0, 1).
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_array(self, n: int) -> np.ndarray:
        return (self.next_u64_array(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def gaussian_array(self, n: int) -> np.ndarray:
        # Box-Muller, cosine branch only: two uniforms per deviate.
        u = self.uniform_array(2 * n)
        return np.sqrt(-2.0 * np.log1p(-u[0::2])) * np.cos(2.0 * np.pi * u[1::2])

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self.uniform() * n)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), via partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct indices from {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


@dataclass
class GrayImage:
    """2-D grid of real intensities in [0,1], row-major.

    The PGM/PPM readers return [0,1] and write_pgm takes it; the Canny
    thresholds assume it.
    """

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2 or self.pixels.shape[0] < 1 or self.pixels.shape[1] < 1:
            raise ValueError(f"image must be 2-D and non-empty, got shape {self.pixels.shape}")
        if not np.all(np.isfinite(self.pixels)):
            raise ValueError("image contains non-finite intensities")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass
class AudioSignal:
    """Sampled mono waveform with its sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or len(self.samples) == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        self.sample_rate = int(self.sample_rate)


@dataclass
class LabeledDataset:
    """Feature matrix plus binary labels (0 = negative/normal, 1 = positive)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if len(self.labels) != self.features.shape[0]:
            raise ValueError("feature/label count mismatch")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be 0 or 1")

    def __len__(self) -> int:
        return self.features.shape[0]
