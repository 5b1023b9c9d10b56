"""Synthetic heart/lung sound generator for desk-scale pipeline testing.

Deliberately simple physiologically-flavored signal models: they validate
pipeline mechanics, not clinical performance.  Real recordings can be supplied
in the same WAV + manifest layout.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import AudioSignal, Rng
from .audioproc import MAX_DURATION_S, write_wav
from .synththermal import shuffled_labels, write_dataset

PEAK = 0.9
SAMPLE_RATES = (4000, 8000)
MIN_DURATION_S = 2.0
_TAPS = 101


def _lowpass_kernel(cutoff_hz: float, sample_rate: int) -> np.ndarray:
    """Windowed-sinc FIR low-pass of _TAPS taps, unit DC gain."""
    t = np.arange(_TAPS) - (_TAPS - 1) / 2.0
    fc = cutoff_hz / sample_rate
    k = 2 * fc * np.sinc(2 * fc * t)
    k *= np.hamming(_TAPS)
    return k / k.sum()


def _bandpass(x: np.ndarray, low_hz: float, high_hz: float, sample_rate: int) -> np.ndarray:
    lo = np.convolve(x, _lowpass_kernel(high_hz, sample_rate), mode="same")
    return lo - np.convolve(x, _lowpass_kernel(low_hz, sample_rate), mode="same")


def _one_pole(x: np.ndarray, a: float) -> np.ndarray:
    """Unit-DC-gain one-pole low-pass y[n] = a*y[n-1] + (1-a)*x[n], y[-1] = 0."""
    b = 1 - a
    # reproduces SciPy's lfilter([1 - a], [1, -a], x) bit for bit
    return np.fromiter(itertools.accumulate(x.tolist(), lambda y, v: a * y + b * v, initial=0.0),
                       float, len(x) + 1)[1:]


def _render_heart(duration_s: float, sample_rate: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Returns (base, abnormality): S1/S2 pairs over pink-like noise; the
    abnormality is a band-limited murmur between S1 and S2 of each beat."""
    n = int(round(duration_s * sample_rate))

    # pink-like background: one-pole low-passed white noise
    white = rng.gaussian_array(n)
    bg = _one_pole(white, 0.95)
    bg *= 0.04 / max(np.abs(bg).max(), 1e-12)

    impulses = np.zeros(n)
    murmur_mask = np.zeros(n)
    period = 60.0 / 72.0
    t = 0.05
    while t < duration_s - 0.5:
        jitter = 1.0 + 0.05 * (2.0 * rng.uniform() - 1.0)
        beat = period * jitter
        s1 = int(t * sample_rate)
        s2 = int((t + 0.30 * beat) * sample_rate)
        if s1 < n:
            impulses[s1] = 1.0
        if s2 < n:
            impulses[s2] = 0.7
        m0 = int((t + 0.10 * beat) * sample_rate)
        m1 = int((t + 0.26 * beat) * sample_rate)
        murmur_mask[m0 : min(m1, n)] = 1.0
        t += beat
    base = np.convolve(impulses, _lowpass_kernel(150.0, sample_rate), mode="same")
    base = base / max(np.abs(base).max(), 1e-12) + bg

    murmur_noise = rng.gaussian_array(n)
    murmur = _bandpass(murmur_noise, 150.0, 400.0, sample_rate)
    murmur = 0.30 * murmur / max(np.abs(murmur).max(), 1e-12) * murmur_mask
    return base, murmur


def _render_lung(duration_s: float, sample_rate: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Returns (base, abnormality): breathing-modulated filtered noise; the
    abnormality is an expiration wheeze tone plus sparse expiratory crackles."""
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    phase = np.sin(2.0 * np.pi * 0.25 * t)
    insp = np.maximum(phase, 0.0)
    exp = np.maximum(-phase, 0.0)
    envelope = 0.05 + 1.0 * insp + 0.25 * exp

    noise = rng.gaussian_array(n)
    breath = np.convolve(noise, _lowpass_kernel(800.0, sample_rate), mode="same")
    breath /= max(np.abs(breath).max(), 1e-12)
    base = envelope * breath

    wheeze = 0.12 * np.sin(2.0 * np.pi * 400.0 * t) * exp

    crackles = np.zeros(n)
    click = np.exp(-np.arange(40) / 6.0) * np.cos(2.0 * np.pi * 600.0 * np.arange(40) / sample_rate)
    n_crackles = 8 + rng.randint(5)
    for _ in range(n_crackles):
        pos = rng.randint(max(n - len(click), 1))
        if exp[pos] > 0.3:  # crackles confined to low-envelope expiration
            crackles[pos : pos + len(click)] += 0.08 * click
    return base, wheeze + crackles


def synth_cardio_sample(
    task: str, label: int, duration_s: float, sample_rate: int, rng: Rng
) -> AudioSignal:
    """One synthetic recording; label=1 adds the task's abnormality component.

    The abnormality stream is drawn for both labels so a positive and negative
    sample from the same seed differ only on the abnormality's support.  The
    normalization scale comes from the base signal alone (the base peak
    dominates by construction), so the peak amplitude is PEAK for both labels.
    """
    if not MIN_DURATION_S <= duration_s <= MAX_DURATION_S:  # also rejects NaN
        raise ValueError(f"duration must be in [{MIN_DURATION_S}, {MAX_DURATION_S}] s")
    if sample_rate not in SAMPLE_RATES:
        raise ValueError(f"sample_rate must be one of {SAMPLE_RATES}")
    if task == "heart":
        base, abnormality = _render_heart(duration_s, sample_rate, rng)
    elif task == "lung":
        base, abnormality = _render_lung(duration_s, sample_rate, rng)
    else:
        raise ValueError(f"unknown task {task!r}")
    scale = PEAK / np.abs(base).max()
    out = scale * (base + abnormality) if label == 1 else scale * base
    return AudioSignal(np.clip(out, -1.0, 1.0), sample_rate)


def generate_cardio_dataset(
    task: str,
    n: int,
    positive_fraction: float,
    duration_s: float,
    sample_rate: int,
    rng: Rng,
) -> list[tuple[AudioSignal, int]]:
    labels = shuffled_labels(n, positive_fraction, rng)
    return [(synth_cardio_sample(task, lab, duration_s, sample_rate, rng), lab) for lab in labels]


def write_cardio_dataset(
    out_dir, task: str, n: int, positive_fraction: float, duration_s: float,
    sample_rate: int, seed: int
) -> None:
    """WAV files plus manifest.csv (see synththermal.write_dataset)."""
    write_dataset(out_dir, n, positive_fraction, seed, lambda i, label, rng: [
        (f"rec{i:04d}.wav",
         write_wav(synth_cardio_sample(task, label, duration_s, sample_rate, rng)))])
