"""WAV ingestion, wavelet denoising, MFCC extraction, feature aggregation."""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import AudioSignal, FormatError

MAX_DURATION_S = 600.0  # ten minutes: 4.8M samples at 8 kHz, each buffer 38 MB
_FFT_BLOCK = 256  # frames mfcc windows, pads and transforms at a time


@dataclass
class MfccConfig:
    frame_len: float = 0.025
    hop: float = 0.010
    pre_emphasis: float = 0.97
    n_filters: int = 26
    n_coeffs: int = 13
    log_floor: float = 1e-10

    def __post_init__(self):
        if not (0 < self.hop <= self.frame_len):
            raise ValueError("need 0 < hop <= frame_len")
        if self.frame_len > MAX_DURATION_S:  # no recording read_wav accepts holds such a frame
            raise ValueError(f"frame_len={self.frame_len} s is over the {MAX_DURATION_S:g} s "
                             f"recording cap")
        if not (1 <= self.n_coeffs <= self.n_filters):
            raise ValueError("need 1 <= n_coeffs <= n_filters")
        if not self.log_floor > 0:  # log(0) of a silent frame would be -inf
            raise ValueError("log_floor must be > 0")


# ---------------------------------------------------------------------------
# WAV I/O


def read_wav(data: bytes) -> AudioSignal:
    """Decode RIFF/WAVE PCM16.  Multi-channel input is averaged to mono.

    A data chunk longer than MAX_DURATION_S is a FormatError, raised from its
    byte count before any sample is decoded.
    """
    if data[:4] != b"RIFF":
        raise FormatError("not a RIFF file")
    if data[8:12] != b"WAVE":
        raise FormatError("not a WAVE file")
    pos = 12
    fmt = None
    raw = None
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4 : pos + 8])
        body = data[pos + 8 : pos + 8 + size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise FormatError("truncated fmt chunk")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif chunk_id == b"data":
            if len(body) < size:
                raise FormatError("truncated data chunk")
            raw = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None:
        raise FormatError("missing fmt chunk")
    if raw is None:
        raise FormatError("missing data chunk")
    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise FormatError(f"unsupported format code {audio_format} (PCM only)")
    if bits != 16:
        raise FormatError(f"unsupported bit depth {bits} (16-bit only)")
    if n_channels < 1 or sample_rate < 1:
        raise FormatError(f"zero channels or sample rate ({n_channels}, {sample_rate} Hz)")
    n_frames = len(raw) // (2 * n_channels)
    if n_frames > MAX_DURATION_S * sample_rate:
        raise FormatError(f"data chunk holds {n_frames} frames, over the {MAX_DURATION_S:g} s "
                          f"cap of {int(MAX_DURATION_S * sample_rate)} frames at {sample_rate} Hz")
    ints = np.frombuffer(raw[: n_frames * 2 * n_channels], dtype="<i2")
    if len(ints) == 0:
        raise FormatError("empty data chunk")
    samples = ints.astype(np.float64)
    if n_channels > 1:  # the mean of one channel is its samples, bit for bit
        samples = samples.reshape(-1, n_channels).mean(axis=1)
    samples /= 32768.0
    return AudioSignal(samples, sample_rate)


def write_wav(sig: AudioSignal) -> bytes:
    """Encode mono PCM16 WAV."""
    ints = np.clip(np.round(sig.samples * 32768.0), -32768, 32767).astype("<i2")
    raw = ints.tobytes()
    sr = sig.sample_rate
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(raw), b"WAVE",
        b"fmt ", 16, 1, 1, sr, sr * 2, 2, 16,
        b"data", len(raw),
    )
    return header + raw


def read_wav_file(path) -> AudioSignal:
    with open(path, "rb") as fh:
        return read_wav(fh.read())


# ---------------------------------------------------------------------------
# Spectral primitives


def pre_emphasis(sig: AudioSignal, alpha: float) -> AudioSignal:
    if not (0 <= alpha < 1):
        raise ValueError("alpha must be in [0, 1)")
    x = sig.samples
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - alpha * x[:-1]
    return AudioSignal(y, sig.sample_rate)


def fft(x) -> np.ndarray:
    """Forward DFT along the last axis, whose length must be a power of two.

    Leading axes are a batch: each row along the last axis is transformed
    on its own, so a row's result does not depend on the batch it sits in.
    The result is a fresh complex128 copy of x, transformed in place, so a
    real input costs one array of the result's size, not two.
    """
    a = np.array(x, dtype=np.complex128)
    n = a.shape[-1] if a.ndim else 0
    if n == 0 or (n & (n - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n}")
    return np.fft.fft(a, axis=-1, out=a)


def mel(f_hz: float) -> float:
    if np.any(np.asarray(f_hz) < 0):
        raise ValueError("frequency must be non-negative")
    return 2595.0 * np.log10(1.0 + np.asarray(f_hz) / 700.0)


def mel_inverse(m: float):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def mel_filterbank(n_filters: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """Triangular unit-peak filters, equally spaced in mel over [0, sr/2].

    Returns (n_filters, fft_size//2 + 1) weights sampled at FFT bin centers.
    More than fft_size//2 filters is a ValueError.
    """
    if n_filters > fft_size // 2:
        raise ValueError(f"n_filters={n_filters} exceeds {fft_size // 2}, half the FFT size")
    points = mel_inverse(np.linspace(0.0, mel(sample_rate / 2.0), n_filters + 2))
    freqs = np.arange(fft_size // 2 + 1) * (sample_rate / fft_size)
    lower, center, upper = points[:-2, None], points[1:-1, None], points[2:, None]
    rise = (freqs - lower) / (center - lower)
    fall = (upper - freqs) / (upper - center)
    return np.clip(np.minimum(rise, fall), 0.0, None)


def _dct_basis(n_coeffs: int, n: int) -> np.ndarray:
    """The first n_coeffs rows of the orthonormal DCT-II matrix of size n
    (Ahmed, Natarajan & Rao, 1974): row k is s_k cos(pi k (2m + 1) / 2n) over
    m, with s_0 = sqrt(1/n) and s_k = sqrt(2/n) above."""
    k = np.arange(n_coeffs)[:, None]
    m = np.arange(n)[None, :]
    scale = np.where(k == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
    return scale * np.cos(np.pi * k * (2 * m + 1) / (2 * n))


def mfcc(sig: AudioSignal, cfg: MfccConfig) -> np.ndarray:
    """MFCC frame matrix of shape (n_frames, n_coeffs)."""
    frames, _ = mfcc_debug(sig, cfg)
    return frames


def mfcc_debug(sig: AudioSignal, cfg: MfccConfig) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`mfcc` but also returns pre-DCT filterbank energies."""
    sr = sig.sample_rate
    frame_n = int(round(cfg.frame_len * sr))
    hop_n = int(round(cfg.hop * sr))
    if frame_n < 2 or hop_n < 1:
        raise ValueError(f"frame_len={cfg.frame_len} s and hop={cfg.hop} s are {frame_n} and "
                         f"{hop_n} samples at {sr} Hz; need a frame of >= 2 and a hop of >= 1")
    if len(sig.samples) < frame_n:
        raise ValueError(f"signal ({len(sig.samples)} samples) shorter than one frame ({frame_n})")
    emphasized = pre_emphasis(sig, cfg.pre_emphasis).samples
    frames = sliding_window_view(emphasized, frame_n)[::hop_n]
    fft_size = 1 << (frame_n - 1).bit_length()  # next power of two >= frame samples
    n_bins = fft_size // 2 + 1
    window, bank, dct_basis = _mfcc_tables(frame_n, fft_size, sr, cfg.n_filters, cfg.n_coeffs)
    # Frames go through the FFT in blocks, so the transform's buffers stay the
    # size of a block, not of the recording; each row's spectrum is the same.
    power = np.empty((len(frames), n_bins))
    padded = np.zeros((min(_FFT_BLOCK, len(frames)), fft_size))
    for start in range(0, len(frames), _FFT_BLOCK):
        block = frames[start : start + _FFT_BLOCK]
        rows = padded[: len(block)]
        np.multiply(block, window, out=rows[:, :frame_n])
        power[start : start + len(block)] = np.abs(fft(rows)[:, :n_bins]) ** 2 / fft_size
    energies = power @ bank.T  # one product: BLAS rounds differently by shape
    log_e = np.log(np.maximum(energies, cfg.log_floor))
    return log_e @ dct_basis.T, energies


# A process uses one setting per model (train, eval and predict each load one).
# Four settings cover a heart and a lung model at two sample rates; the bound
# keeps at most four calls' tables alive (213 KB each at 2,048 FFT points).
@functools.lru_cache(maxsize=4)
def _mfcc_tables(frame_n: int, fft_size: int, sample_rate: int, n_filters: int, n_coeffs: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hamming window, mel filterbank and DCT basis for one MFCC setting.

    Every mfcc_debug call of that setting shares them, so they are read-only.
    """
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(frame_n) / (frame_n - 1))
    tables = (window, mel_filterbank(n_filters, fft_size, sample_rate),
              _dct_basis(n_coeffs, n_filters))
    for table in tables:
        table.flags.writeable = False
    return tables


def aggregate_features(frames: np.ndarray) -> np.ndarray:
    """Per-coefficient mean and population std, concatenated."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise ValueError("empty frame matrix")
    return np.concatenate([frames.mean(axis=0), frames.std(axis=0)])


# ---------------------------------------------------------------------------
# Daubechies-4 (8-tap) wavelet transform, periodic boundary


_DB4_LO = np.array(
    [
        0.230377813308855230,
        0.714846570552541500,
        0.630880767929590400,
        -0.027983769416983850,
        -0.187034811718881140,
        0.030841381835986965,
        0.032883011666982945,
        -0.010597401784997278,
    ]
)
_DB4_HI = (_DB4_LO[::-1] * np.array([1, -1] * 4)).copy()  # g[m] = (-1)^m h[L-1-m]


@dataclass
class WaveletPyramid:
    """Deepest-level approximation plus detail bands, finest first."""

    approx: np.ndarray
    details: list[np.ndarray]


def _analyze(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One analysis level: output i filters x[2i], ..., x[2i + 7], read
    periodically (Mallat's pyramid step as a strided filter bank)."""
    N = len(x) // 2
    ext = np.resize(x, len(x) + 6)  # x, then its first 6 samples again (x repeated if shorter)
    # Row i is ext[2i : 2i + 8], copied out of a strided view of ext's buffer.
    # The copy matters: a matrix-vector product over the strided view rounds differently.
    step = ext.itemsize
    windows = np.ndarray((N, 8), ext.dtype, ext, strides=(2 * step, step)).copy()
    return windows @ _DB4_LO, windows @ _DB4_HI


def _wrap_order() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Low-pass tap, high-pass tap and coefficient offset m - t of each term of
    _synthesize's outputs m < 3, as (step s, parity p, m) arrays: step s takes
    tap 2t + p, t = (m - s) mod 4."""
    s, p, m = np.ogrid[:4, :2, :3]
    t = (m - s) % 4
    return _DB4_LO[2 * t + p], _DB4_HI[2 * t + p], m - t


_WRAP_LO, _WRAP_HI, _WRAP_OFFSET = _wrap_order()
_PAIR_LO, _PAIR_HI = _DB4_LO.reshape(4, 2, 1), _DB4_HI.reshape(4, 2, 1)  # [t, p]: tap 2t + p


def _synthesize(approx: np.ndarray, detail: np.ndarray) -> np.ndarray:
    """Inverse of _analyze: coefficient i adds w_k[i] = lo[k] approx[i] +
    hi[k] detail[i] to output (2i + k) mod n, for each tap k.

    Each output sums its four terms onto 0.0 in ascending i, the order in which
    np.add.at adds them. Output 2m + p takes tap 2t + p from coefficient m - t,
    t = 0..3, so for m >= 3 ascending i is t = 3, 2, 1, 0: four in-place adds,
    each of one tap pair's terms for both parities. For m < 3 the terms with
    m - t < 0 wrap to i near N and come last, so step s adds tap pair
    t = (m - s) mod 4; all 24 of those terms come from one gather of each band.
    Below 4 coefficients, taps of one coefficient land on one output.
    """
    N = len(approx)
    n = 2 * N
    if N < 4:
        out = np.zeros(n)
        for i, k in np.ndindex(N, 8):
            out[(2 * i + k) % n] += _DB4_LO[k] * approx[i] + _DB4_HI[k] * detail[i]
        return out
    acc = np.zeros((2, N))  # acc[p, m] is output 2m + p
    body = acc[:, 3:]
    for t in (3, 2, 1, 0):
        # Built per tap pair, not as one 8 x N product matrix: that matrix and
        # its temporary are 768 KB at N = 6,000, enough to make the allocator
        # return heap pages between calls and fault them back in.
        rows = slice(3 - t, N - t)
        term = _PAIR_LO[t] * approx[rows]
        term += _PAIR_HI[t] * detail[rows]
        body += term
    i = _WRAP_OFFSET % N
    wrapped = _WRAP_LO * approx[i]
    wrapped += _WRAP_HI * detail[i]
    head = acc[:, :3]
    for step in wrapped:
        head += step
    return acc.T.ravel()  # interleaved: even outputs from acc[0], odd from acc[1]


def dwt_forward(x: np.ndarray, levels: int) -> WaveletPyramid:
    x = np.asarray(x, dtype=np.float64)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if len(x) == 0 or len(x) % (1 << levels) != 0:
        raise ValueError(f"length {len(x)} is not a positive multiple of 2^{levels}")
    details = []
    approx = x
    for _ in range(levels):
        approx, d = _analyze(approx)
        details.append(d)
    return WaveletPyramid(approx, details)


def dwt_inverse(pyr: WaveletPyramid) -> np.ndarray:
    x = pyr.approx
    for d in reversed(pyr.details):
        x = _synthesize(x, d)
    return x


def soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def wavelet_denoise(sig: AudioSignal, levels: int) -> AudioSignal:
    """Soft-threshold detail bands with the universal threshold sigma*sqrt(2 ln N).

    sigma is the MAD/0.6745 estimate from the finest detail band; the
    approximation band is untouched.  The signal is zero-padded to the
    required length multiple and truncated after reconstruction.  A signal
    shorter than 2**levels samples is a ValueError.
    """
    x = sig.samples
    if levels >= len(x).bit_length():  # 2**levels > len(x), without forming 2**levels
        raise ValueError(f"denoise_levels={levels} needs >= 2^{levels} samples, got {len(x)}")
    block = 1 << levels
    pad = (-len(x)) % block
    padded = np.concatenate([x, np.zeros(pad)]) if pad else x
    pyr = dwt_forward(padded, levels)
    sigma = np.median(np.abs(pyr.details[0])) / 0.6745
    threshold = sigma * np.sqrt(2.0 * np.log(len(padded)))
    pyr = WaveletPyramid(pyr.approx, [soft_threshold(d, threshold) for d in pyr.details])
    out = dwt_inverse(pyr)[: len(x)]
    return AudioSignal(out, sig.sample_rate)
