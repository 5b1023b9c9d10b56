import numpy as np
import pytest
from scipy.fft import dct  # the oracle for audioproc._dct_basis

from prediagnose.core import AudioSignal, FormatError, Rng
from prediagnose import audioproc as ap
from prediagnose.synthcardio import synth_cardio_sample


def naive_dft(x):
    """O(n^2) reference DFT, written independently of the fast path."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x


def tone(freq, sr=8000, seconds=1.0, amp=0.5):
    t = np.arange(int(sr * seconds)) / sr
    return AudioSignal(amp * np.sin(2 * np.pi * freq * t), sr)


class TestFft:
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
    def test_matches_naive_dft(self, n):
        rng = Rng(n)
        x = rng.gaussian_array(n) + 1j * rng.gaussian_array(n)
        assert np.max(np.abs(ap.fft(x) - naive_dft(x))) < 1e-9

    def test_parseval(self):
        x = Rng(3).gaussian_array(1024)
        spec = ap.fft(x)
        assert np.sum(np.abs(spec) ** 2) / 1024 == pytest.approx(np.sum(x**2))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            ap.fft(np.zeros(12))
        with pytest.raises(ValueError):
            ap.fft(np.zeros(0))

    def test_single_bin_impulse(self):
        # DFT of a unit impulse is all ones.
        x = np.zeros(16)
        x[0] = 1.0
        assert np.allclose(ap.fft(x), np.ones(16))

    @pytest.mark.parametrize("shape", [(7, 1), (5, 2), (9, 64), (3, 256), (2, 3, 32)])
    # real input is what mfcc passes: a float64 matrix of zero-padded frames
    @pytest.mark.parametrize("real", [False, True])
    def test_batch_equals_rows_bit_for_bit(self, shape, real):
        rng = Rng(shape[-1] + 3 * real)
        size = int(np.prod(shape))
        x = rng.gaussian_array(size) + (0 if real else 1j * rng.gaussian_array(size))
        x = x.reshape(shape)
        batch = ap.fft(x)
        assert batch.shape == shape
        rows = x.reshape(-1, shape[-1])
        per_row = np.array([ap.fft(row) for row in rows]).reshape(shape)
        assert np.array_equal(batch.view(np.uint64), per_row.view(np.uint64))
        for got, row in zip(batch.reshape(-1, shape[-1]), rows):
            assert np.max(np.abs(got - naive_dft(row))) < 1e-9

    def test_batch_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            ap.fft(np.zeros((4, 12)))
        with pytest.raises(ValueError):
            ap.fft(np.zeros((4, 0)))


class TestMelScale:
    def test_closed_form_points(self):
        assert ap.mel(0.0) == 0.0
        assert ap.mel(700.0) == pytest.approx(2595.0 * np.log10(2.0))
        assert ap.mel(1000.0) == pytest.approx(999.9855371, abs=1e-4)

    def test_inverse_roundtrip(self):
        f = np.array([0.0, 100.0, 440.0, 4000.0])
        assert np.allclose(ap.mel_inverse(ap.mel(f)), f)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ap.mel(-1.0)

    def test_filterbank_shape_and_peaks(self):
        bank = ap.mel_filterbank(26, 512, 8000)
        assert bank.shape == (26, 257)
        assert np.all(bank >= 0.0) and np.all(bank <= 1.0 + 1e-12)
        # each filter attains a value close to its unit peak at some bin
        assert np.all(bank.max(axis=1) > 0.5)

    def test_filterbank_supports_ordered(self):
        bank = ap.mel_filterbank(10, 256, 8000)
        starts = [np.nonzero(row)[0][0] for row in bank]
        assert starts == sorted(starts)


class TestMfcc:
    def test_silence_closed_form(self):
        sig = AudioSignal(np.zeros(8000), 8000)
        coeffs = ap.mfcc(sig, ap.MfccConfig())
        # all filter energies hit the floor; only c0 of the orthonormal DCT
        # survives: sqrt(26) * ln(1e-10)
        expected_c0 = np.sqrt(26.0) * np.log(1e-10)
        assert np.allclose(coeffs[:, 0], expected_c0)
        assert np.allclose(coeffs[:, 1:], 0.0, atol=1e-9)

    def test_frame_count(self):
        # 1 s at 8 kHz, 200-sample frames, 80-sample hop -> 1 + (8000-200)//80
        coeffs = ap.mfcc(AudioSignal(np.zeros(8000), 8000), ap.MfccConfig())
        assert coeffs.shape == (98, 13)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            ap.mfcc(AudioSignal(np.zeros(100), 8000), ap.MfccConfig())

    def test_tone_energy_in_nearest_filter(self):
        sig = tone(1000.0)
        _, energies = ap.mfcc_debug(sig, ap.MfccConfig())
        centers = ap.mel_inverse(
            np.linspace(0.0, ap.mel(4000.0), 26 + 2)
        )[1:-1]
        nearest = int(np.argmin(np.abs(centers - 1000.0)))
        assert np.all(energies.argmax(axis=1) == nearest)

    def test_amplitude_doubling_shifts_only_c0(self):
        c1 = ap.mfcc(tone(1000.0, amp=0.25), ap.MfccConfig())
        c2 = ap.mfcc(tone(1000.0, amp=0.5), ap.MfccConfig())
        d = c2 - c1
        # doubling amplitude multiplies every energy by 4, adding ln 4 to each
        # log energy; the orthonormal DCT maps that to sqrt(26)*ln(4) on c0
        assert np.allclose(d[:, 0], np.sqrt(26.0) * np.log(4.0), atol=1e-9)
        assert np.max(np.abs(d[:, 1:])) < 1e-9

    def test_aggregate_mean_and_population_std(self):
        frames = np.array([[1.0, 0.0], [3.0, 0.0]])
        agg = ap.aggregate_features(frames)
        assert np.allclose(agg, [2.0, 0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            ap.aggregate_features(np.zeros((0, 13)))

    @pytest.mark.parametrize("sr", [4000, 8000])
    def test_matches_per_frame_reference_bit_for_bit(self, sr):
        # The batched FFT must give what one fft call per frame gave.
        sig = AudioSignal(0.3 * Rng(sr).gaussian_array(2 * sr + 37), sr)
        cfg = ap.MfccConfig()
        frame_n = int(round(cfg.frame_len * sr))
        hop_n = int(round(cfg.hop * sr))
        fft_size = 1 << (frame_n - 1).bit_length()
        emphasized = ap.pre_emphasis(sig, cfg.pre_emphasis).samples
        frames = [emphasized[i : i + frame_n]
                  for i in range(0, len(emphasized) - frame_n + 1, hop_n)]
        window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(frame_n) / (frame_n - 1))
        power = []
        for frame in frames:
            padded = np.zeros(fft_size)
            padded[:frame_n] = frame * window
            power.append(np.abs(ap.fft(padded)[: fft_size // 2 + 1]) ** 2 / fft_size)
        energies = np.array(power) @ ap.mel_filterbank(cfg.n_filters, fft_size, sr).T
        log_e = np.log(np.maximum(energies, cfg.log_floor))
        coeffs = log_e @ ap._dct_basis(cfg.n_coeffs, cfg.n_filters).T
        got_coeffs, got_energies = ap.mfcc_debug(sig, cfg)
        assert got_energies.tobytes() == energies.tobytes()
        assert got_coeffs.tobytes() == coeffs.tobytes()

    # At 44.1 kHz a 1,102-sample frame is padded to a 2,048-point FFT, so most
    # of each transformed row is zero padding.
    @pytest.mark.parametrize("sr, n_frames", [
        *[pytest.param(4000, n, id=str(n)) for n in (1, 255, 256, 257, 513)],
        *[pytest.param(44100, n, id=f"44100Hz-{n}") for n in (255, 256, 257)],
    ])
    def test_matches_whole_matrix_reference_bit_for_bit(self, sr, n_frames):
        # Frames are transformed a block at a time; the result must be what one
        # pass over the whole frame matrix gave, at and around block edges.
        cfg = ap.MfccConfig()
        frame_n = int(round(cfg.frame_len * sr))
        hop_n = int(round(cfg.hop * sr))
        sig = AudioSignal(0.3 * Rng(n_frames).gaussian_array(frame_n + hop_n * (n_frames - 1)), sr)
        fft_size = 1 << (frame_n - 1).bit_length()
        emphasized = ap.pre_emphasis(sig, cfg.pre_emphasis).samples
        frames = np.lib.stride_tricks.sliding_window_view(emphasized, frame_n)[::hop_n]
        window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(frame_n) / (frame_n - 1))
        padded = np.zeros((len(frames), fft_size))
        padded[:, :frame_n] = frames * window
        power = np.abs(ap.fft(padded)[:, : fft_size // 2 + 1]) ** 2 / fft_size
        energies = power @ ap.mel_filterbank(cfg.n_filters, fft_size, sr).T
        log_e = np.log(np.maximum(energies, cfg.log_floor))
        coeffs = log_e @ ap._dct_basis(cfg.n_coeffs, cfg.n_filters).T
        got_coeffs, got_energies = ap.mfcc_debug(sig, cfg)
        assert len(got_coeffs) == n_frames and fft_size == (128 if sr == 4000 else 2048)
        assert got_energies.tobytes() == energies.tobytes()
        assert got_coeffs.tobytes() == coeffs.tobytes()

    def test_filterbank_is_fresh_and_cached_tables_refuse_writes(self):
        # mfcc takes its window, filterbank and DCT basis from a cache that
        # every call shares; mel_filterbank itself still builds a new array.
        cfg = ap.MfccConfig()
        sig = AudioSignal(0.3 * Rng(9).gaussian_array(4000), 4000)
        before = ap.mfcc(sig, cfg)
        bank = ap.mel_filterbank(cfg.n_filters, 128, 4000)
        assert bank.flags.writeable and bank is not ap.mel_filterbank(cfg.n_filters, 128, 4000)
        bank[:] = 7.0
        assert ap.mfcc(sig, cfg).tobytes() == before.tobytes()
        tables = ap._mfcc_tables(100, 128, 4000, cfg.n_filters, cfg.n_coeffs)
        assert tables is ap._mfcc_tables(100, 128, 4000, cfg.n_filters, cfg.n_coeffs)
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
        assert ap.mfcc(sig, cfg).tobytes() == before.tobytes()

    def test_memory_bounded_on_long_recording(self):
        # 30 s at 44.1 kHz is 10.6 MB of samples and 2,998 frames of 1,102
        # samples, padded to 2,048 for the FFT. A pass over the whole frame
        # matrix at once peaked near 270 MB; the power matrix alone is 24.6 MB.
        import tracemalloc

        sig = AudioSignal(0.1 * Rng(30).gaussian_array(30 * 44100), 44100)
        tracemalloc.start()
        try:
            coeffs = ap.mfcc(sig, ap.MfccConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coeffs.shape == (2998, 13)
        assert peak < 100e6


class TestDct:
    @pytest.mark.parametrize("sr", [4000, 8000])
    @pytest.mark.parametrize("task", ["heart", "lung"])
    def test_basis_matches_scipy_dct_on_log_mel_energies(self, task, sr):
        # The DCT is a matrix product, not SciPy's FFT-based transform, so the
        # two round differently.  On 40 synthesized 3 s recordings (both tasks
        # and rates), raw and denoised, the largest difference was 1.06 eps
        # times the frame's sum of |log energy| (7.0e-14 absolute); the bound
        # is 4 eps times that sum.
        rng = Rng(7)
        cfg = ap.MfccConfig()
        for label in (0, 1, 0, 1, 0):
            sig = synth_cardio_sample(task, label, 3.0, sr, rng)
            _, energies = ap.mfcc_debug(sig, cfg)
            log_e = np.log(np.maximum(energies, cfg.log_floor))
            want = dct(log_e, type=2, norm="ortho", axis=1)[:, : cfg.n_coeffs]
            got = log_e @ ap._dct_basis(cfg.n_coeffs, cfg.n_filters).T
            bound = 4 * np.finfo(float).eps * np.abs(log_e).sum(axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= bound)


class TestWavelet:
    def test_filters_orthonormal(self):
        assert np.sum(ap._DB4_LO**2) == pytest.approx(1.0)
        assert np.sum(ap._DB4_HI**2) == pytest.approx(1.0)
        assert np.dot(ap._DB4_LO, ap._DB4_HI) == pytest.approx(0.0, abs=1e-15)
        assert np.sum(ap._DB4_LO) == pytest.approx(np.sqrt(2.0))

    def test_constant_signal_zero_details(self):
        pyr = ap.dwt_forward(np.full(64, 3.0), 3)
        for d in pyr.details:
            assert np.max(np.abs(d)) < 1e-12
        # energy concentrates in the approximation: each level scales by sqrt(2)
        assert np.allclose(pyr.approx, 3.0 * 2.0**1.5)

    def test_ramp_details_vanish_except_wraparound(self):
        # db4 has two vanishing moments, so linear ramps give zero detail
        # except where the periodic extension wraps (last 3 output positions
        # for an 8-tap filter).
        x = np.arange(64, dtype=np.float64)
        _, d = ap._analyze(x)
        assert np.max(np.abs(d[:-3])) < 1e-10
        assert np.max(np.abs(d[-3:])) > 1.0

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 16, 250, 1000, 4002])
    def test_synthesize_equals_add_at_bit_for_bit(self, n):
        rng = Rng(n)
        approx, detail = rng.gaussian_array(n // 2), rng.gaussian_array(n // 2)
        idx = (2 * np.arange(n // 2)[:, None] + np.arange(8)[None, :]) % n
        ref = np.zeros(n)
        np.add.at(ref, idx, approx[:, None] * ap._DB4_LO + detail[:, None] * ap._DB4_HI)
        assert ap._synthesize(approx, detail).tobytes() == ref.tobytes()

    def test_analyze_equals_index_matrix_bit_for_bit(self):
        # Every even length from 2 to 4002, against the index-matrix gather
        # (x[(2i + k) % n] for output i and tap k) and its two matrix-vector
        # products; a quarter of the samples are 0.0 or -0.0.
        rng = Rng(2)
        for n in range(2, 4003, 2):
            x = rng.gaussian_array(n)
            x[rng.uniform_array(n) < 0.25] = 0.0
            x[rng.uniform_array(n) < 0.1] = -0.0
            windows = x[(2 * np.arange(n // 2)[:, None] + np.arange(8)[None, :]) % n]
            approx, detail = ap._analyze(x)
            assert approx.tobytes() == (windows @ ap._DB4_LO).tobytes(), n
            assert detail.tobytes() == (windows @ ap._DB4_HI).tobytes(), n

    def test_synthesize_equals_add_at_with_signed_zeros(self):
        # Every even length from 2 to 802, with runs of 0.0 and -0.0 in both
        # bands so that whole outputs sum zeros: np.add.at starts each output
        # from 0.0, so such an output is 0.0 whatever the signs of its terms.
        rng = Rng(3)
        for n in range(2, 803, 2):
            approx, detail = rng.gaussian_array(n // 2), rng.gaussian_array(n // 2)
            for band in (approx, detail):
                band[rng.uniform_array(n // 2) < 0.5] = 0.0
                band[rng.uniform_array(n // 2) < 0.3] = -0.0
            idx = (2 * np.arange(n // 2)[:, None] + np.arange(8)[None, :]) % n
            ref = np.zeros(n)
            np.add.at(ref, idx, approx[:, None] * ap._DB4_LO + detail[:, None] * ap._DB4_HI)
            assert ap._synthesize(approx, detail).tobytes() == ref.tobytes(), n

    def test_roundtrip(self):
        x = Rng(17).gaussian_array(256)
        back = ap.dwt_inverse(ap.dwt_forward(x, 4))
        assert np.max(np.abs(back - x)) < 1e-10

    def test_energy_preserved(self):
        x = Rng(18).gaussian_array(128)
        pyr = ap.dwt_forward(x, 2)
        total = np.sum(pyr.approx**2) + sum(np.sum(d**2) for d in pyr.details)
        assert total == pytest.approx(np.sum(x**2))

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            ap.dwt_forward(np.zeros(60), 3)
        with pytest.raises(ValueError):
            ap.dwt_forward(np.zeros(64), 0)
        with pytest.raises(ValueError, match="positive multiple"):
            ap.dwt_forward(np.zeros(0), 1)

    def test_soft_threshold_scalars(self):
        assert ap.soft_threshold(np.array([0.5]), 0.2)[0] == pytest.approx(0.3)
        assert ap.soft_threshold(np.array([-0.5]), 0.2)[0] == pytest.approx(-0.3)
        assert ap.soft_threshold(np.array([0.1]), 0.2)[0] == 0.0

    def test_denoise_improves_mse_on_noisy_sine(self):
        sr = 8000
        t = np.arange(sr) / sr
        # tone well inside the 4-level approximation band (0-250 Hz)
        clean = 0.6 * np.sin(2 * np.pi * 100 * t)
        noisy = clean + 0.1 * Rng(42).gaussian_array(sr)
        out = ap.wavelet_denoise(AudioSignal(noisy, sr), 4).samples
        mse_before = np.mean((noisy - clean) ** 2)
        mse_after = np.mean((out - clean) ** 2)
        assert mse_after < 0.5 * mse_before

    def test_denoise_second_pass_changes_little(self):
        sr = 4096
        t = np.arange(sr) / sr
        noisy = np.sin(2 * np.pi * 110 * t) + 0.05 * Rng(43).gaussian_array(sr)
        once = ap.wavelet_denoise(AudioSignal(noisy, sr), 4)
        twice = ap.wavelet_denoise(once, 4)
        delta1 = np.mean((once.samples - noisy) ** 2)
        delta2 = np.mean((twice.samples - once.samples) ** 2)
        assert delta2 < delta1

    def test_denoise_preserves_length_with_padding(self):
        sig = AudioSignal(Rng(44).gaussian_array(1000), 8000)
        assert len(ap.wavelet_denoise(sig, 4).samples) == 1000


class TestWav:
    def test_known_sample_scaling(self):
        sig = AudioSignal(np.zeros(4), 8000)
        raw = ap.write_wav(sig)
        body = bytearray(raw)
        import struct

        body[44:52] = struct.pack("<4h", 0, 16384, -16384, 32767)
        out = ap.read_wav(bytes(body))
        assert np.allclose(out.samples, [0.0, 0.5, -0.5, 32767 / 32768.0])

    def test_round_trip(self):
        samples = np.round(Rng(5).uniform_array(64) * 2 - 1, 3)
        sig = AudioSignal(samples, 16000)
        again = ap.read_wav(ap.write_wav(sig))
        assert again.sample_rate == 16000
        assert np.max(np.abs(again.samples - samples)) <= 0.5 / 32768.0

    def test_clipping_on_write(self):
        sig = AudioSignal(np.array([2.0, -2.0]), 8000)
        out = ap.read_wav(ap.write_wav(sig))
        assert out.samples[0] == pytest.approx(32767 / 32768.0)
        assert out.samples[1] == -1.0

    def test_stereo_averaged(self):
        import struct

        raw = struct.pack("<4h", 1000, 3000, -1000, -3000)
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(raw), b"WAVE",
            b"fmt ", 16, 1, 2, 8000, 8000 * 4, 4, 16,
            b"data", len(raw),
        )
        out = ap.read_wav(header + raw)
        assert np.allclose(out.samples, [2000 / 32768.0, -2000 / 32768.0])

    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_samples_are_the_channel_mean_over_32768_bit_for_bit(self, channels):
        # One channel skips the mean, which would give each sample itself.
        import struct

        ints = np.random.default_rng(channels).integers(-32768, 32768, 3 * 4096, dtype="<i2")
        raw = ints.tobytes()
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(raw), b"WAVE",
            b"fmt ", 16, 1, channels, 8000, 8000 * 2 * channels, 2 * channels, 16,
            b"data", len(raw),
        )
        want = ints.astype(np.float64).reshape(-1, channels).mean(axis=1) / 32768.0
        assert ap.read_wav(header + raw).samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("channels", [1, 2])
    def test_length_cap_counts_frames(self, channels):
        # MAX_DURATION_S at 100 Hz is 60,000 frames, however many channels.
        import struct

        def wav(n_frames):
            raw = bytes(2 * channels * n_frames)
            return struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(raw), b"WAVE",
                               b"fmt ", 16, 1, channels, 100, 200 * channels, 2 * channels, 16,
                               b"data", len(raw)) + raw

        assert len(ap.read_wav(wav(60_000)).samples) == 60_000
        with pytest.raises(FormatError, match="600 s cap"):
            ap.read_wav(wav(60_001))

    def test_bad_headers(self):
        with pytest.raises(FormatError):
            ap.read_wav(b"RIFX" + b"\x00" * 40)
        with pytest.raises(FormatError):
            ap.read_wav(b"RIFF\x00\x00\x00\x00WAVE")  # no chunks
        good = ap.write_wav(AudioSignal(np.zeros(4), 8000))
        mangled = bytearray(good)
        mangled[20] = 3  # format code: IEEE float
        with pytest.raises(FormatError):
            ap.read_wav(bytes(mangled))

    def test_pre_emphasis(self):
        sig = AudioSignal(np.array([1.0, 1.0, 1.0]), 8000)
        out = ap.pre_emphasis(sig, 0.97)
        assert np.allclose(out.samples, [1.0, 0.03, 0.03])
        with pytest.raises(ValueError):
            ap.pre_emphasis(sig, 1.0)
