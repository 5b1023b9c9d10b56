import numpy as np
import pytest

from prediagnose.core import FormatError, Rng
from prediagnose import synththermal as st
from prediagnose.imageproc import read_image_file


CFG = st.ThermalConfig()


def read_dataset(data_dir):
    """(image, label) for each manifest row, in manifest order, as train reads them."""
    return [(read_image_file(data_dir / name), label) for name, label in st.load_manifest(data_dir)]


class TestRenderScene:
    def test_closed_form_pixels(self):
        cfg = st.ThermalConfig(noise_sigma=0.0)
        field = st.render_scene(cfg, vessel_col=64, clot_center=None)
        # vessel center column equals base_temp + gradient * row
        rows = np.arange(cfg.height)
        assert np.allclose(field[:, 64], cfg.base_temp + cfg.axial_gradient * rows)
        # far from the vessel: pure background
        assert np.allclose(field[:, 10], st.BACKGROUND)
        # half-cosine shoulder at a quarter of the band width
        dx = 3  # vessel_width 12 -> cos(pi*3/12) = cos(pi/4)
        expected = st.BACKGROUND + (
            cfg.base_temp + cfg.axial_gradient * rows - st.BACKGROUND
        ) * np.cos(np.pi * dx / cfg.vessel_width)
        assert np.allclose(field[:, 64 + dx], expected)

    def test_hotspot_peak_additive(self):
        cfg = st.ThermalConfig(noise_sigma=0.0)
        plain = st.render_scene(cfg, 64, None)
        hot = st.render_scene(cfg, 64, (64, 40))
        diff = hot - plain
        assert diff[40, 64] == pytest.approx(cfg.clot_amplitude)
        # Gaussian falloff: one sigma away along a row
        assert diff[40, 64 + 6] == pytest.approx(cfg.clot_amplitude * np.exp(-0.5))
        assert np.all(diff >= 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            st.ThermalConfig(vessel_width=0)
        with pytest.raises(ValueError):
            st.ThermalConfig(clot_sigma=64.0)
        with pytest.raises(ValueError):
            st.ThermalConfig(clot_margin=64)
        st.ThermalConfig(width=st.MAX_SIDE, height=st.MAX_SIDE)
        for side in ({"width": st.MAX_SIDE + 1}, {"height": st.MAX_SIDE + 1}):
            with pytest.raises(ValueError, match="at most 4096"):
                st.ThermalConfig(**side)


class TestGenerate:
    def test_range_and_shape(self):
        img = st.generate_sample(CFG, 1, Rng(1))
        assert img.pixels.shape == (128, 128)
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0

    def test_same_seed_labels_differ_only_near_hotspot(self):
        # label draws consume the same rng stream, so paired samples differ
        # exactly by the (clipped) hotspot
        pos = st.generate_sample(CFG, 1, Rng(7)).pixels
        neg = st.generate_sample(CFG, 0, Rng(7)).pixels
        diff = pos - neg
        assert diff.max() > 0.2
        # support is localized: far from the peak the images agree
        peak = np.unravel_index(np.argmax(diff), diff.shape)
        mask = np.ones_like(diff, dtype=bool)
        r0 = slice(max(peak[0] - 30, 0), peak[0] + 31)
        c0 = slice(max(peak[1] - 30, 0), peak[1] + 31)
        mask[r0, c0] = False
        assert np.max(np.abs(diff[mask])) < 1e-6

    def test_mean_intensity_gap_matches_gaussian_mass(self):
        # integral of the hotspot is A * 2*pi*sigma^2; spread over W*H pixels
        expected = CFG.clot_amplitude * 2 * np.pi * CFG.clot_sigma**2 / (128 * 128)
        rng_p, rng_n = Rng(100), Rng(100)
        gaps = [
            st.generate_sample(CFG, 1, rng_p).pixels.mean()
            - st.generate_sample(CFG, 0, rng_n).pixels.mean()
            for _ in range(1000)
        ]
        assert np.mean(gaps) == pytest.approx(expected, rel=0.2)

    def test_dataset_counts_and_determinism(self):
        ds1 = st.generate_dataset(CFG, 20, 0.5, Rng(3))
        ds2 = st.generate_dataset(CFG, 20, 0.5, Rng(3))
        assert sum(lab for _, lab in ds1) == 10
        assert all(
            np.array_equal(a.pixels, b.pixels) and la == lb
            for (a, la), (b, lb) in zip(ds1, ds2)
        )
        # rounding: 7 samples at 0.5 -> 4 positives
        assert sum(lab for _, lab in st.generate_dataset(CFG, 7, 0.5, Rng(4))) == 4

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            st.generate_dataset(CFG, 0, 0.5, Rng(0))
        with pytest.raises(ValueError):
            st.generate_dataset(CFG, 5, 1.5, Rng(0))

    def test_frame_sequence_shares_scene(self):
        frames = list(st.iter_frame_sequence(CFG, 1, 5, Rng(9)))
        assert len(frames) == 5
        # independent noise but identical underlying scene: frame means agree
        means = [f.pixels.mean() for f in frames]
        assert np.ptp(means) < 0.005
        # frames are not identical
        assert not np.array_equal(frames[0].pixels, frames[1].pixels)
        with pytest.raises(ValueError):
            list(st.iter_frame_sequence(CFG, 1, 0, Rng(9)))


class TestDatasetIO:
    def test_write_load_round_trip(self, tmp_path):
        st.write_thermal_dataset(tmp_path, CFG, 6, 0.5, seed=21, frames=0)
        samples = read_dataset(tmp_path)
        assert len(samples) == 6
        assert sum(lab for _, lab in samples) == 3
        assert all(img.pixels.shape == (128, 128) for img, _ in samples)

    def test_manifest_seed_column_regenerates_sample(self, tmp_path):
        import csv

        st.write_thermal_dataset(tmp_path, CFG, 4, 0.5, seed=33, frames=0)
        with open(tmp_path / "manifest.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rec = rows[2]
        # the stored seed is the generator state just before the sample
        regen = st.generate_sample(CFG, int(rec["label"]), Rng(int(rec["seed"])))
        from prediagnose.imageproc import read_pgm

        on_disk = read_pgm((tmp_path / rec["filename"]).read_bytes())
        quantized = np.round(np.clip(regen.pixels, 0, 1) * 255.0) / 255.0
        assert np.array_equal(on_disk.pixels, quantized)

    def test_sequence_layout(self, tmp_path):
        st.write_thermal_dataset(tmp_path, CFG, 2, 0.5, seed=5, frames=3)
        rows = st.load_manifest(tmp_path)
        assert len(rows) == 6
        assert rows[0][0].startswith("seq0000/")
        samples = read_dataset(tmp_path)
        assert len(samples) == 6

    def test_sequence_written_one_frame_at_a_time(self, tmp_path):
        # One 128 x 128 float64 frame is 128 KiB, and drawing its noise (two
        # uniforms per pixel) peaks near 8 such frames. Holding all 200 frames
        # before writing the first would peak above 200.
        import tracemalloc

        frame_bytes = CFG.width * CFG.height * 8
        tracemalloc.start()
        try:
            st.write_thermal_dataset(tmp_path, CFG, 1, 1.0, seed=5, frames=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(st.load_manifest(tmp_path)) == 200
        assert peak < 16 * frame_bytes

    @pytest.mark.parametrize("frames", [-1, st.MAX_FRAMES + 1])
    def test_frames_out_of_range_write_nothing(self, tmp_path, frames):
        with pytest.raises(ValueError, match="frames must be in"):
            st.write_thermal_dataset(tmp_path / "t", CFG, 2, 0.5, seed=1, frames=frames)
        assert not (tmp_path / "t").exists()

    def test_out_of_range_fraction_writes_nothing(self, tmp_path):
        from prediagnose.synthcardio import write_cardio_dataset

        for frac in (1.5, -0.5):
            with pytest.raises(ValueError, match="positive_fraction"):
                st.write_thermal_dataset(tmp_path / "t", CFG, 4, frac, seed=1, frames=0)
            with pytest.raises(ValueError, match="positive_fraction"):
                write_cardio_dataset(tmp_path / "c", "lung", 4, frac, 2.0, 4000, seed=1)
        assert not (tmp_path / "t").exists() and not (tmp_path / "c").exists()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            st.load_manifest(tmp_path)

    def test_bad_manifest_row(self, tmp_path):
        (tmp_path / "manifest.csv").write_text("filename,label\nfoo.pgm,notanint\n")
        with pytest.raises(FormatError):
            st.load_manifest(tmp_path)

    @pytest.mark.parametrize("data", [
        b"filename,label\n\xff.pgm,1\n",
        b"filename,label\nsample0000.pgm,2\n",
        b"label,filename\n1\n",
    ], ids=["not_utf8", "label_not_binary", "filename_missing"])
    def test_unreadable_manifest(self, tmp_path, data):
        (tmp_path / "manifest.csv").write_bytes(data)
        with pytest.raises(FormatError):
            st.load_manifest(tmp_path)

    @pytest.mark.parametrize("name", ["../outside.pgm", "seq0000/../../outside.pgm", "{abs}"])
    def test_filename_outside_data_dir(self, tmp_path, name):
        from prediagnose.core import GrayImage
        from prediagnose.imageproc import write_pgm

        outside = tmp_path / "outside.pgm"
        outside.write_bytes(write_pgm(GrayImage(np.zeros((4, 4)))))
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.csv").write_text(f"filename,label\n{name.format(abs=outside)},1\n")
        with pytest.raises(FormatError, match="outside"):
            st.load_manifest(data)
