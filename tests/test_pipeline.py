import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter  # the reference for synthcardio._one_pole

from prediagnose.core import AudioSignal, GrayImage, Rng, TrainingError
from prediagnose import pipeline as pl
from prediagnose import synthcardio as sc
from prediagnose import synththermal as st
from prediagnose.audioproc import read_wav
from prediagnose.forest import ForestHyperparams
from prediagnose.imageproc import read_pgm


THERMAL_CFG = st.ThermalConfig()


class TestSynthCardio:
    def test_peak_amplitude_both_labels(self):
        for task in ("heart", "lung"):
            for label in (0, 1):
                sig = sc.synth_cardio_sample(task, label, 3.0, 4000, Rng(5))
                assert np.abs(sig.samples).max() == pytest.approx(sc.PEAK, abs=1e-9)

    def test_same_seed_labels_differ_on_abnormality_only(self):
        pos = sc.synth_cardio_sample("heart", 1, 3.0, 4000, Rng(8)).samples
        neg = sc.synth_cardio_sample("heart", 0, 3.0, 4000, Rng(8)).samples
        diff = np.abs(pos - neg)
        assert diff.max() > 0.01  # the murmur is audible
        assert np.mean(diff > 1e-12) < 0.6  # but confined to part of the beat

    def test_validation(self):
        with pytest.raises(ValueError):
            sc.synth_cardio_sample("heart", 1, 1.0, 4000, Rng(0))
        with pytest.raises(ValueError, match="600"):
            sc.synth_cardio_sample("lung", 1, 600.5, 4000, Rng(0))
        with pytest.raises(ValueError):
            sc.synth_cardio_sample("heart", 1, 3.0, 44100, Rng(0))
        with pytest.raises(ValueError):
            sc.synth_cardio_sample("liver", 1, 3.0, 4000, Rng(0))

    def test_dataset_counts_and_determinism(self):
        ds1 = sc.generate_cardio_dataset("lung", 6, 0.5, 2.0, 4000, Rng(3))
        ds2 = sc.generate_cardio_dataset("lung", 6, 0.5, 2.0, 4000, Rng(3))
        assert sum(lab for _, lab in ds1) == 3
        for (a, la), (b, lb) in zip(ds1, ds2):
            assert la == lb and np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    @pytest.mark.parametrize("n", [1, 2, 12000, 24000])
    def test_one_pole_is_lfilter_bit_for_bit(self, n, scale):
        x = Rng(n).gaussian_array(n) * scale
        a = 0.95
        got = sc._one_pole(x, a)
        assert np.array_equal(got.view(np.int64), lfilter([1 - a], [1, -a], x).view(np.int64))

    def test_write_dataset_layout(self, tmp_path):
        sc.write_cardio_dataset(tmp_path, "heart", 4, 0.5, 2.0, 4000, seed=9)
        rows = st.load_manifest(tmp_path)
        assert len(rows) == 4
        sig = read_wav((tmp_path / rows[0][0]).read_bytes())
        assert sig.sample_rate == 4000
        assert len(sig.samples) == 8000


class TestClotPipeline:
    def test_dark_pgm_features_match_the_unit_range_image(self):
        # A file whose brightest sample is 1 is scaled like any other, not
        # taken to be in [0,1] already.
        on_disk = read_pgm(b"P5\n2 1\n255\n\x00\x01")
        assert on_disk.pixels.tolist() == [[0.0, 1 / 255]]
        cfg = pl.ClotPipelineConfig()
        in_memory = GrayImage(np.array([[0.0, 1 / 255]]))
        assert np.array_equal(pl.clot_features(on_disk, cfg), pl.clot_features(in_memory, cfg))

    def test_feature_length(self):
        img = st.generate_sample(THERMAL_CFG, 1, Rng(1))
        feats = pl.clot_features(img, pl.ClotPipelineConfig())
        assert feats.shape == (2 * 8100,)
        feats_edge = pl.clot_features(img, pl.ClotPipelineConfig(hog_view="edge"))
        assert feats_edge.shape == (8100,)

    def test_train_predict_smoke(self):
        train = st.generate_dataset(THERMAL_CFG, 40, 0.5, Rng(20))
        test = st.generate_dataset(THERMAL_CFG, 20, 0.5, Rng(21))
        cfg = pl.ClotPipelineConfig()
        model = pl.clot_train(train, cfg, threads=1)
        preds = [pl.clot_predict_frame(model, img, cfg)[1] for img, _ in test]
        acc = np.mean([p == lab for p, (_, lab) in zip(preds, test)])
        # tiny training set, so only a weak bound; full-scale accuracy is
        # gated by the acceptance suite
        assert acc >= 0.6

    def test_sequence_voting_path(self):
        train = st.generate_dataset(THERMAL_CFG, 16, 0.5, Rng(22))
        cfg = pl.ClotPipelineConfig()
        model = pl.clot_train(train, cfg, threads=1)
        frames = list(st.iter_frame_sequence(THERMAL_CFG, 1, 5, Rng(23)))
        assert pl.clot_predict_sequence(model, frames, cfg) in (0, 1)
        with pytest.raises(ValueError):
            pl.clot_predict_sequence(model, [], cfg)

    def test_training_errors(self):
        img = st.generate_sample(THERMAL_CFG, 1, Rng(1))
        with pytest.raises(TrainingError):
            pl.clot_train([(img, 1)], pl.ClotPipelineConfig(), threads=1)
        with pytest.raises(TrainingError):
            pl.clot_train([(img, 1), (img, 1)], pl.ClotPipelineConfig(), threads=1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            pl.ClotPipelineConfig(window=4)
        with pytest.raises(ValueError):
            pl.ClotPipelineConfig(hog_view="depth")

    def test_features_pinned_bit_for_bit(self):
        # Guards every later speed-up of the image path: a change of even one
        # ulp in any feature changes the digest. Every HOG view, both labels,
        # and a crop that is not 128x128 and so goes through the resize.
        rng = Rng(20261)
        samples = [st.generate_sample(THERMAL_CFG, label, rng) for label in (0, 1, 0, 1)]
        samples[3] = GrayImage(samples[3].pixels[:120, 4:100])
        digest = hashlib.sha256()
        for view in ("both", "edge", "intensity"):
            cfg = pl.ClotPipelineConfig(hog_view=view)
            for img in samples:
                feats = pl.clot_features(img, cfg)
                digest.update(np.ascontiguousarray(feats, dtype="<f8").tobytes())
        assert digest.hexdigest() == (
            "7ab815c52ec24b18f78c5c826299cafabb21fd252b1c22d1ac05cd5cfae3ba19")

    def test_threaded_features_match(self):
        imgs = [st.generate_sample(THERMAL_CFG, i % 2, Rng(30 + i)) for i in range(4)]
        cfg = pl.ClotPipelineConfig()
        f1 = pl._feature_matrix(pl.clot_features, imgs, cfg, threads=1)
        f4 = pl._feature_matrix(pl.clot_features, imgs, cfg, threads=4)
        rows = np.array([pl.clot_features(img, cfg) for img in imgs])
        assert f1.shape == f4.shape == rows.shape == (4, 2 * 8100)
        assert f1.tobytes() == f4.tobytes() == rows.tobytes()

    def test_one_call_peaks_under_a_megabyte(self):
        # Guards against new image-sized temporaries: a 128x128 float64 array
        # is 131 KB, and one call peaked at 0.92 MB (1.9 MB before the image
        # kernels reused their buffers).
        img = st.generate_sample(THERMAL_CFG, 1, Rng(3))
        tracemalloc.start()
        try:
            pl.clot_features(img, pl.ClotPipelineConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestCardioPipeline:
    def test_feature_length(self):
        sig = sc.synth_cardio_sample("lung", 0, 2.0, 4000, Rng(2))
        feats = pl.cardio_features(sig, pl.CardioPipelineConfig())
        assert feats.shape == (26,)  # 13 means + 13 stds

    def test_train_predict_smoke(self):
        cfg = pl.CardioPipelineConfig(forest=ForestHyperparams(n_trees=30))
        train = sc.generate_cardio_dataset("heart", 16, 0.5, 2.0, 4000, Rng(40))
        test = sc.generate_cardio_dataset("heart", 8, 0.5, 2.0, 4000, Rng(41))
        model = pl.cardio_train(train, cfg, threads=1)
        preds = [pl.cardio_predict(model, sig, cfg)[1] for sig, _ in test]
        acc = np.mean([p == lab for p, (_, lab) in zip(preds, test)])
        assert acc >= 0.75

    def test_too_short_recording_reported_with_index(self):
        good = sc.synth_cardio_sample("lung", 0, 2.0, 4000, Rng(1))
        bad = AudioSignal(np.zeros(10), 4000)
        with pytest.raises(TrainingError, match=r"indices \[1\]"):
            pl.cardio_train([(good, 0), (bad, 1)], pl.CardioPipelineConfig(), threads=1)

    def test_single_class_rejected(self):
        sig = sc.synth_cardio_sample("lung", 0, 2.0, 4000, Rng(1))
        with pytest.raises(TrainingError):
            pl.cardio_train([(sig, 0), (sig, 0)], pl.CardioPipelineConfig(), threads=1)

    def test_features_pinned_bit_for_bit(self):
        # Guards every later speed-up of the audio path: a change of even one
        # ulp in any feature changes the digest. Both rates and tasks, both
        # labels, and a length that needs the denoiser's zero padding.
        rng = Rng(20260)
        cfg = pl.CardioPipelineConfig()
        digest = hashlib.sha256()
        for rate in (4000, 8000):
            for task in ("heart", "lung"):
                for label in (0, 1):
                    sig = sc.synth_cardio_sample(task, label, 2.0, rate, rng)
                    for samples in (sig.samples, sig.samples[:-5]):
                        feats = pl.cardio_features(AudioSignal(samples, rate), cfg)
                        digest.update(np.ascontiguousarray(feats, dtype="<f8").tobytes())
        assert digest.hexdigest() == (
            "40f096dd0122efc0e2ab84f219e1896a3119c710c6455bc1a904a4c4a6d1cec2")


class TestSkinPipeline:
    def test_features_are_hog_of_224x224(self):
        img = st.generate_sample(THERMAL_CFG, 0, Rng(3))  # any grayscale image
        assert img.pixels.shape == (128, 128)
        # 14x14 cells of 16 px, 13x13 blocks of 2x2 cells, 9 bins each
        assert pl.skin_features(img, pl.SkinPipelineConfig()).shape == (13 * 13 * 4 * 9,) == (6084,)

    def test_standin_train_and_classify(self):
        rng = Rng(50)
        dark = [st.GrayImage(0.2 + 0.02 * rng.uniform_array(32 * 32).reshape(32, 32)) for _ in range(4)]
        light = [st.GrayImage(0.7 + 0.02 * rng.uniform_array(32 * 32).reshape(32, 32)) for _ in range(4)]
        train = [(im, 0) for im in dark] + [(im, 1) for im in light]
        cfg = pl.SkinPipelineConfig()
        model = pl.skin_standin_train(train, cfg, threads=1)
        score, label = pl.skin_standin_classify(model, dark[0], cfg)
        assert label in (0, 1)
        assert pl.SKIN_STANDIN_NAME == "skin-standin-hog-svm"

    def test_standin_single_class_rejected(self):
        img = st.generate_sample(THERMAL_CFG, 0, Rng(4))
        with pytest.raises(TrainingError):
            pl.skin_standin_train([(img, 1), (img, 1)], pl.SkinPipelineConfig(), threads=1)
