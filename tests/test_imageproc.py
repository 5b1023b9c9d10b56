import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage  # the oracle for the blur, Sobel and hysteresis kernels

from prediagnose.core import FormatError, GrayImage, Rng
from prediagnose import imageproc as ip
from prediagnose.synththermal import ThermalConfig, generate_sample


def vertical_step(n=32):
    px = np.zeros((n, n))
    px[:, n // 2 :] = 1.0
    return GrayImage(px)


def horizontal_step(n=32):
    px = np.zeros((n, n))
    px[n // 2 :, :] = 1.0
    return GrayImage(px)


def resize_reference(src, out_w, out_h):
    """Bilinear resize by four 2-D np.ix_ gathers, one per corner."""
    h, w = src.shape
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    top = src[np.ix_(y0, x0)] * (1 - fx) + src[np.ix_(y0, x1)] * fx
    bot = src[np.ix_(y1, x0)] * (1 - fx) + src[np.ix_(y1, x1)] * fx
    return top * (1 - fy)[:, None] + bot * fy[:, None]


class TestNormalizeResize:
    def test_resize_identity(self):
        img = GrayImage(np.arange(12.0).reshape(3, 4))
        out = ip.resize_bilinear(img, 4, 3)
        assert np.allclose(out.pixels, img.pixels)

    def test_resize_1x1_constant(self):
        out = ip.resize_bilinear(GrayImage(np.array([[0.7]])), 5, 3)
        assert np.allclose(out.pixels, 0.7)

    def test_resize_row_halfpixel_map(self):
        out = ip.resize_bilinear(GrayImage(np.array([[0.0, 1.0]])), 4, 1)
        assert np.allclose(out.pixels, [[0.0, 0.25, 0.75, 1.0]])

    def test_resize_zero_dim_error(self):
        with pytest.raises(ValueError):
            ip.resize_bilinear(GrayImage(np.zeros((2, 2))), 0, 2)

    def test_resize_is_the_four_gather_formula_bit_for_bit(self):
        rng = np.random.default_rng(31)
        shapes = [((1, 1), (5, 3)), ((1, 9), (4, 1)), ((9, 1), (1, 4)), ((1, 7), (1, 7)),
                  ((120, 96), (128, 128)), ((150, 100), (128, 128)), ((600, 400), (128, 128))]
        shapes += [(tuple(rng.integers(1, 60, size=2)), tuple(rng.integers(1, 60, size=2)))
                   for _ in range(60)]
        for (h, w), (out_h, out_w) in shapes:
            px = rng.random((h, w)) * (1e-310 if h % 5 == 0 else 1.0)
            got = ip.resize_bilinear(GrayImage(px), out_w, out_h).pixels
            assert got.tobytes() == resize_reference(px, out_w, out_h).tobytes()


class TestBlur:
    def test_constant_unchanged(self):
        img = GrayImage(np.full((10, 10), 0.3))
        out = ip.gaussian_blur(img, 1.0)
        assert np.allclose(out.pixels, 0.3, atol=1e-12)

    def test_impulse_center_weight(self):
        # independent discrete-kernel oracle
        sigma = 1.0
        radius = int(np.ceil(3 * sigma))
        x = np.arange(-radius, radius + 1)
        k = np.exp(-0.5 * (x / sigma) ** 2)
        k /= k.sum()
        center_weight = k[radius] ** 2
        px = np.zeros((15, 15))
        px[7, 7] = 1.0
        out = ip.gaussian_blur(GrayImage(px), sigma)
        assert out.pixels[7, 7] == pytest.approx(center_weight, abs=1e-12)

    def test_interior_impulse_mass_preserved(self):
        px = np.zeros((21, 21))
        px[10, 10] = 1.0
        out = ip.gaussian_blur(GrayImage(px), 1.0)
        assert out.pixels.sum() == pytest.approx(1.0, abs=1e-9)

    def test_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            ip.gaussian_blur(GrayImage(np.zeros((4, 4))), 0.0)


class TestSobel:
    def test_constant_zero_magnitude(self):
        mag, _ = ip._sobel(np.full((5, 5), 0.4))
        assert np.allclose(mag, 0.0)

    def test_vertical_step_angle_zero(self):
        mag, ang = ip._sobel(vertical_step().pixels)
        boundary = mag[5:-5, 15:17] > 0
        assert boundary.all()
        assert np.allclose(ang[5:-5, 15:17], 0.0)

    def test_horizontal_step_angle_90(self):
        mag, ang = ip._sobel(horizontal_step().pixels)
        assert np.allclose(ang[15:17, 5:-5], 90.0)

    def test_angle_folding_matches_np_mod(self):
        # every signed zero, both ends, and negatives so small that +180 rounds to 180
        deg = np.array([-180.0, -179.99999999999997, -90.0, -1e-14, -1e-300, -5e-324, -0.0,
                        0.0, 5e-324, 1e-300, 45.0, 179.99999999999997, 180.0])
        gy, gx = Rng(14).gaussian_array(2000).reshape(2, -1)
        deg = np.concatenate([deg, np.degrees(np.arctan2(gy, gx))])
        assert ip._mod180(deg.copy()).tobytes() == (deg % 180.0).tobytes()

    def test_too_small(self):
        # canny holds the 3x3 stencil's size check
        with pytest.raises(ValueError, match="at least 3x3"):
            ip.canny(GrayImage(np.zeros((2, 5))), 1.4, 0.05, 0.15)

class TestCanny:
    def test_constant_empty(self):
        assert ip.canny(GrayImage(np.full((16, 16), 0.5)), 1.4, 0.05, 0.15).pixels.sum() == 0

    def test_vertical_step_single_line(self):
        edges = ip.canny(vertical_step(), 1.4, 0.05, 0.15).pixels
        cols = np.unique(np.nonzero(edges)[1])
        assert len(cols) == 1 and 14 <= cols[0] <= 17
        # contiguous down the whole image
        assert edges[:, cols[0]].sum() == edges.shape[0]

    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            ip.canny(vertical_step(), 1.4, 0.2, 0.1)

    def test_edges_subset_of_low_threshold_magnitude(self):
        img = GrayImage(Rng(9).uniform_array(32 * 32).reshape(32, 32))
        low = 0.05
        edges = ip.canny(img, 1.4, low, 0.15).pixels.astype(bool)
        blurred = ip.gaussian_blur(img, 1.4)
        mag, _ = ip._sobel(blurred.pixels)
        assert np.all(mag[edges] >= low)


class TestHog:
    def test_length_formula(self):
        img = GrayImage(np.zeros((128, 128)))
        assert len(ip.hog(img, ip.HogConfig())) == 15 * 15 * 4 * 9 == 8100

    def test_constant_all_zero(self):
        assert np.all(ip.hog(GrayImage(np.full((64, 64), 0.5)), ip.HogConfig()) == 0.0)

    def test_vertical_step_mass_in_zero_bin(self):
        desc = ip.hog(vertical_step(64), ip.HogConfig())
        per_bin = desc.reshape(-1, 9).sum(axis=0)
        assert per_bin.argmax() == 0

    def test_indivisible_dims_error(self):
        with pytest.raises(ValueError):
            ip.hog(GrayImage(np.zeros((30, 30))), ip.HogConfig())

    def test_intensity_scale_invariance(self):
        img = GrayImage(Rng(12).uniform_array(64 * 64).reshape(64, 64))
        base = ip.hog(img, ip.HogConfig())
        for c in (0.5, 0.7, 2.0):
            scaled = ip.hog(GrayImage(img.pixels * c), ip.HogConfig())
            assert np.max(np.abs(scaled - base)) < 1e-6

    def test_block_norm_bounds_instrumented(self):
        img = GrayImage(Rng(13).uniform_array(64 * 64).reshape(64, 64))
        clipped, _ = ip._blocks(img, ip.HogConfig())
        norms = np.sqrt((clipped**2).sum(axis=2))
        assert np.all(norms <= 1 + 1e-9)
        assert np.all(clipped <= 0.2 + 1e-9)


def cell_histograms_reference(img, cfg):
    """One np.add.at per interpolation half, indexed by (cell row, cell column, bin)."""
    mag, ang = ip._sobel(img.pixels)
    pos = ang / (180.0 / cfg.bins)
    lo = np.floor(pos).astype(int)
    frac = pos - lo
    h, w = mag.shape
    cell_r = np.repeat(np.arange(h // cfg.cell_size), cfg.cell_size)[:, None] * np.ones(w, int)
    cell_c = np.ones(h, int)[:, None] * np.repeat(np.arange(w // cfg.cell_size), cfg.cell_size)
    hist = np.zeros((h // cfg.cell_size, w // cfg.cell_size, cfg.bins))
    np.add.at(hist, (cell_r, cell_c, lo % cfg.bins), mag * (1 - frac))
    np.add.at(hist, (cell_r, cell_c, (lo + 1) % cfg.bins), mag * frac)
    return hist


def blocks_reference(hist, bs, eps=1e-6):
    """L2-Hys of each block, one block at a time."""
    by, bx = hist.shape[0] - bs + 1, hist.shape[1] - bs + 1
    clipped = np.zeros((by, bx, bs * bs * hist.shape[2]))
    final = np.zeros_like(clipped)
    for i in range(by):
        for j in range(bx):
            v = hist[i : i + bs, j : j + bs, :].ravel()
            clipped[i, j] = np.minimum(v / np.sqrt(np.dot(v, v) + eps * eps), 0.2)
            final[i, j] = clipped[i, j] / np.sqrt(np.dot(clipped[i, j], clipped[i, j]) + eps * eps)
    return clipped, final


def oracle_images():
    """200 random images: 3x3, 1xN and Nx1 strips, sides below every tested
    kernel's width, and larger ones, at unit scale and with subnormal values."""
    rng = np.random.default_rng(17)
    shapes = [(3, 3), (1, 1), (1, 9), (9, 1), (3, 40), (128, 128)]
    shapes += [tuple(rng.integers(1, 48, size=2)) for _ in range(200 - len(shapes))]
    return [rng.random(shape) * (1e-310 if i % 7 == 6 else 1.0) for i, shape in enumerate(shapes)]


def serpentine(n):
    """Every other row of an n x n mask, joined at alternate ends into one path."""
    weak = np.zeros((n, n), dtype=bool)
    weak[::2, :] = True
    weak[1::4, -1] = weak[3::4, 0] = True
    return weak


def hysteresis_reference(strong, weak):
    """The 8-connected components of weak that hold a strong pixel, by labeling."""
    labels, _ = ndimage.label(weak, structure=np.ones((3, 3), dtype=int))
    ids = np.unique(labels[strong])
    return np.isin(labels, ids[ids > 0]) & weak


class TestMatchesNdimage:
    """Blur and Sobel add in ndimage's order, so they agree bit for bit; the
    hysteresis keeps the components that labeling keeps."""

    @pytest.mark.parametrize("sigma", [0.7, 1.4, 3.0])
    def test_blur_is_correlate1d_bit_for_bit(self, sigma):
        k = ip.gaussian_kernel_1d(sigma)
        for px in oracle_images():
            want = ndimage.correlate1d(px, k, axis=0, mode="nearest")
            want = ndimage.correlate1d(want, k, axis=1, mode="nearest")
            assert ip.gaussian_blur(GrayImage(px), sigma).pixels.tobytes() == want.tobytes()

    def test_kernel_is_fresh_and_the_blur_kernel_refuses_writes(self):
        # gaussian_blur takes its kernel from a cache that every blur at one
        # sigma shares; gaussian_kernel_1d itself still builds a new array.
        img = GrayImage(oracle_images()[5])
        before = ip.gaussian_blur(img, 1.4).pixels.tobytes()
        k = ip.gaussian_kernel_1d(1.4)
        assert k.flags.writeable and k is not ip.gaussian_kernel_1d(1.4)
        k[:] = 7.0
        assert ip.gaussian_blur(img, 1.4).pixels.tobytes() == before
        cached = ip._blur_kernel(1.4)
        assert cached is ip._blur_kernel(1.4)
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0

    def test_sobel_is_correlate_bit_for_bit(self):
        sobel_x = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
        for px in oracle_images():
            gx = ndimage.correlate(px, sobel_x, mode="nearest")
            gy = ndimage.correlate(px, sobel_x.T, mode="nearest")
            mag, ang = ip._sobel(px)
            assert mag.tobytes() == np.sqrt(gx * gx + gy * gy).tobytes()
            assert ang.tobytes() == ip._mod180(np.degrees(np.arctan2(gy, gx))).tobytes()

    def test_hysteresis_on_random_masks(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            shape = tuple(rng.integers(1, 40, size=2))
            weak = rng.random(shape) < rng.uniform(0.0, 0.8)
            strong = rng.random(shape) < rng.uniform(0.0, 0.1)  # not always inside weak
            got = ip._hysteresis(strong, weak)
            assert np.array_equal(got, hysteresis_reference(strong, weak))

    def test_hysteresis_on_thermal_images(self):
        rng = Rng(7)
        for i in range(40):
            img = generate_sample(ThermalConfig(), i % 2, rng)
            mag, ang = ip._sobel(ip.gaussian_blur(img, 1.4).pixels)
            keep = ip._nms(mag, ang)
            strong, weak = keep & (mag >= 0.15), keep & (mag >= 0.05)
            want = hysteresis_reference(strong, weak)
            assert np.array_equal(ip._hysteresis(strong, weak), want)
            assert np.array_equal(ip.canny(img, 1.4, 0.05, 0.15).pixels, want.astype(np.float64))

    def test_hysteresis_follows_a_long_weak_path(self):
        # A serpentine weak path with its one strong pixel at one end: the
        # growth must reach the far end, past the dilation's pass limit.
        weak = serpentine(9)
        strong = np.zeros_like(weak)
        strong[-1, -1] = True
        assert np.array_equal(ip._hysteresis(strong, weak), weak)

    @pytest.mark.parametrize("transpose", [False, True], ids=["rows", "columns"])
    def test_hysteresis_on_a_long_path_is_fast(self, transpose):
        # 32,896 path pixels: growing one pixel per dilation took about 3 s.
        weak = serpentine(256)
        strong = np.zeros_like(weak)
        strong[0, 0] = True
        if transpose:
            weak, strong = weak.T.copy(), strong.T.copy()
        start = time.perf_counter()
        got = ip._hysteresis(strong, weak)
        assert time.perf_counter() - start < 0.5
        assert np.array_equal(got, hysteresis_reference(strong, weak))
        assert got.sum() == weak.sum()

    def test_labeling_on_random_masks(self, monkeypatch):
        # With no dilation pass allowed, every mask goes through the labeling.
        monkeypatch.setattr(ip, "_GROW_PASSES", 0)
        rng = np.random.default_rng(29)
        for _ in range(300):
            shape = tuple(rng.integers(1, 40, size=2))
            weak = rng.random(shape) < rng.uniform(0.0, 0.8)
            strong = rng.random(shape) < rng.uniform(0.0, 0.1)
            assert np.array_equal(ip._hysteresis(strong, weak), hysteresis_reference(strong, weak))


class TestHogMatchesLoopReference:
    """The vectorized histograms and blocks add and round exactly as the
    per-pixel np.add.at and per-block loop they replace."""

    @staticmethod
    def images():
        rng = np.random.default_rng(7)
        thermal = GrayImage(np.clip(rng.normal(0.5, 0.2, (128, 128)), 0, 1))
        return ([GrayImage(rng.random(shape)) for shape in ((128, 128), (64, 96), (40, 24))]
                + [ip.canny(thermal, 1.4, 0.05, 0.15), ip.gaussian_blur(thermal, 3.0),
                   vertical_step(64)])

    @pytest.mark.parametrize("cfg", [ip.HogConfig(),
                                     ip.HogConfig(cell_size=4, block_size=3, bins=7),
                                     ip.HogConfig(block_size=1, bins=12)],
                             ids=["default", "cell4_block3_bins7", "block1_bins12"])
    def test_bit_identical(self, cfg):
        for img in self.images():
            hist = ip._cell_histograms(img, cfg)
            assert np.array_equal(hist, cell_histograms_reference(img, cfg))
            for got, want in zip(ip._blocks(img, cfg), blocks_reference(hist, cfg.block_size)):
                assert got.shape == want.shape and np.array_equal(got, want)

    def test_angle_of_180_is_bin_0(self):
        # A step from 0 to about 1 at column 8, whose right side falls by one
        # ulp of 1 a row.  At the step the gradient points along +x, tilted by
        # about -3e-17 rad, and that angle in degrees plus 180 rounds to 180.0.
        px = np.zeros((16, 16))
        px[:, 8:] = 1.0 - 2.0**-53 * np.arange(16)[:, None]
        img = GrayImage(px)
        _, ang = ip._sobel(px)
        assert np.any(ang == 180.0)
        for cfg in (ip.HogConfig(cell_size=4), ip.HogConfig(cell_size=4, bins=7)):
            hist = ip._cell_histograms(img, cfg)
            assert hist.tobytes() == cell_histograms_reference(img, cfg).tobytes()
            assert hist[:, 1, 0].sum() > 0  # column 7's cell: 180 degrees lands in bin 0


def resize_gathered(src, out_w, out_h):
    """resize_bilinear before a side that keeps its size skipped the lerp:
    two gathers and three in-place passes per side."""
    def lerp(a, b, t):
        a *= 1 - t
        b *= t
        a += b
        return a

    h, w = src.shape
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    across = lerp(src[:, x0], src[:, x1], xs - x0)
    return lerp(across[y0], across[y1], (ys - y0)[:, None])


def cell_histograms_mod(img, cfg):
    """_cell_histograms with the bin index folded by np.mod and the cell
    offsets added by two broadcasts."""
    mag, pos = ip._sobel(img.pixels)
    bins = cfg.bins
    pos /= 180.0 / bins
    h, w = mag.shape
    cy, cx = h // cfg.cell_size, w // cfg.cell_size
    lo = np.floor(pos)
    index = lo.astype(np.intp)
    index %= bins
    index += (np.arange(h) // cfg.cell_size * cx * bins)[:, None]
    index += (np.arange(w) // cfg.cell_size * bins)[None, :]
    upper_wraps = lo == bins - 1
    frac = pos - lo
    hist = np.zeros(cy * cx * bins)
    np.add.at(hist, index.ravel(), ((1 - frac) * mag).ravel())
    index += 1
    np.subtract(index, bins, out=index, where=upper_wraps)
    np.add.at(hist, index.ravel(), (frac * mag).ravel())
    return hist.reshape(cy, cx, bins)


class TestKernelsMatchTheirLongerForms:
    """The resize, Sobel angle and histogram kernels skip passes that cannot
    change a bit; each still equals the longer form it replaced."""

    def test_resize_of_a_side_that_keeps_its_size(self):
        # Pixels outside [0, 1], signed zeros, and signed zeros next to
        # negative values, whose zero-weight term is -0.0.
        rng = np.random.default_rng(37)
        shapes = [((128, 128), (128, 128)), ((128, 96), (128, 128)), ((96, 128), (128, 128)),
                  ((128, 128), (64, 128)), ((1, 1), (1, 1)), ((1, 9), (4, 1)), ((9, 1), (1, 4)),
                  ((1, 7), (1, 7)), ((7, 1), (7, 1)), ((2, 2), (2, 2)), ((1, 9), (9, 1))]
        for _ in range(60):
            h, w = rng.integers(1, 40, size=2)
            shapes.append(((h, w), (h if rng.random() < 0.7 else rng.integers(1, 40),
                                    w if rng.random() < 0.7 else rng.integers(1, 40))))
        checked = 0
        for (h, w), (out_h, out_w) in shapes:
            px = rng.normal(size=(h, w))
            px[rng.random((h, w)) < 0.3] = -0.0
            px[rng.random((h, w)) < 0.1] = 0.0
            for image in (px, -px, np.full((h, w), -0.0)):
                got = ip.resize_bilinear(GrayImage(image), out_w, out_h).pixels
                want = resize_gathered(image, out_w, out_h)
                assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
                checked += np.signbit(want[want == 0.0]).any()
        assert checked > 0

    def test_angle_is_np_degrees_folded_by_np_mod(self):
        rng = np.random.default_rng(41)
        gy, gx = rng.normal(size=(2, 10**6)) * rng.choice([1e-300, 1e-8, 1.0, 1e8], (2, 10**6))
        rad = np.concatenate([np.arctan2(gy, gx), [0.0, -0.0, np.pi, -np.pi, np.pi / 2,
                                                   5e-324, -5e-324, 1e-300, -1e-17]])
        assert np.multiply(rad, 180.0 / np.pi).tobytes() == np.degrees(rad).tobytes()
        # The whole angle path against np.degrees and np.mod, on the oracle
        # images and on the three views of thermal images.
        rng = Rng(19)
        images = oracle_images()
        for _ in range(10):
            img = ip.resize_bilinear(generate_sample(ThermalConfig(), rng.randint(2), rng), 128, 128)
            images += [img.pixels, ip.gaussian_blur(img, 3.0).pixels,
                       ip.canny(img, 1.4, 0.05, 0.15).pixels]
        for px in images:
            gx, gy = self.gradients(px)
            want = np.degrees(np.arctan2(gy, gx)) % 180.0
            assert ip._sobel(px)[1].tobytes() == want.tobytes()

    @staticmethod
    def gradients(px):
        """_sobel's gx and gy: 0.0 plus the six taps in raster order."""
        p = np.pad(px, 1, mode="edge")
        up, mid, down = p[:-2], p[1:-1], p[2:]
        gx = (0.0 - up[:, :-2] + up[:, 2:] - mid[:, :-2] * 2.0 + mid[:, 2:] * 2.0
              - down[:, :-2] + down[:, 2:])
        gy = (0.0 - up[:, :-2] - up[:, 1:-1] * 2.0 - up[:, 2:] + down[:, :-2]
              + down[:, 1:-1] * 2.0 + down[:, 2:])
        return gx, gy

    @pytest.mark.parametrize("cfg", [ip.HogConfig(), ip.HogConfig(cell_size=4, bins=7),
                                     ip.HogConfig(cell_size=16, bins=2),
                                     ip.HogConfig(cell_size=4, bins=180)],
                             ids=["default", "cell4_bins7", "cell16_bins2", "cell4_bins180"])
    def test_cell_histograms(self, cfg):
        rng = np.random.default_rng(43)
        # 0 and 180 degrees: a vertical step, and one whose right side falls
        # by an ulp a row (see test_angle_of_180_is_bin_0)
        tilted = np.zeros((32, 32))
        tilted[:, 16:] = 1.0 - 2.0**-53 * np.arange(32)[:, None]
        assert np.any(ip._sobel(tilted)[1] == 180.0)
        images = [rng.random(shape) for shape in ((128, 128), (64, 96), (48, 16), (128, 128))]
        images += [tilted, vertical_step(64).pixels, np.zeros((128, 128)), np.zeros((16, 32))]
        for px in images:
            img = GrayImage(px)
            assert ip._cell_histograms(img, cfg).tobytes() == cell_histograms_mod(img, cfg).tobytes()
        assert not ip._cell_offsets(128 // cfg.cell_size, 128, cfg.cell_size, cfg.bins).flags.writeable

    def test_overflowing_gradients_give_nan_features_not_an_index_error(self):
        # Finite pixels near the float limit overflow the Sobel sums to inf
        # and then NaN; a NaN angle casts to a negative bin index, which must
        # still land in the histogram, as np.mod's fold placed it. hog then
        # refuses the image rather than return its 324 NaN features.
        px = np.zeros((16, 16))
        px[:, ::2] = 1.7e308
        px[::2, :] = -1.7e308
        img = GrayImage(px)
        with np.errstate(all="ignore"):
            assert np.isnan(ip._cell_histograms(img, ip.HogConfig(cell_size=4))).any()
            assert np.isnan(ip._blocks(img, ip.HogConfig(cell_size=4))[1]).all()
            with pytest.raises(ValueError, match="gradients overflow"):
                ip.hog(img, ip.HogConfig(cell_size=4))


class TestPnmIO:
    def test_pgm_round_trip(self):
        img = GrayImage(np.round(Rng(1).uniform_array(48).reshape(6, 8) * 255) / 255.0)
        again = ip.read_pgm(ip.write_pgm(img))
        assert np.array_equal(again.pixels, img.pixels)

    def test_pgm_comments_tolerated(self):
        data = b"P5\n# a comment\n2 1\n255\n\x00\xff"
        img = ip.read_pgm(data)
        assert img.pixels.tolist() == [[0.0, 1.0]]

    @pytest.mark.parametrize("read, magic, raster", [
        (ip.read_pgm, b"P5", bytes([10, 20, 30, 40])),
        (ip.read_ppm, b"P6", bytes(range(10, 130, 10))),
    ], ids=["pgm", "ppm"])
    def test_comment_right_after_maxval(self, read, magic, raster):
        # As in libnetpbm: the comment runs through its newline, and that
        # newline is the one whitespace byte that ends the header.
        want = read(magic + b"\n2 2\n255\n" + raster).pixels
        assert np.array_equal(read(magic + b"\n2 2\n255#hi\n" + raster).pixels, want)
        if magic == b"P5":
            assert want.tolist() == (np.array([[10, 20], [30, 40]]) / 255.0).tolist()
        with pytest.raises(FormatError, match="truncated header"):
            read(magic + b"\n2 2\n255#no newline")

    def test_pgm_samples_divided_by_255(self):
        img = ip.read_pgm(b"P5\n3 1\n255\n\xff\x00\x33")
        assert img.pixels.tolist() == [[1.0, 0.0, 0.2]]

    def test_pgm_bad_magic(self):
        with pytest.raises(FormatError):
            ip.read_pgm(b"P6\n1 1\n255\n\x00")

    def test_pgm_bad_maxval(self):
        with pytest.raises(FormatError):
            ip.read_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_pgm_truncated(self):
        with pytest.raises(FormatError):
            ip.read_pgm(b"P5\n2 2\n255\n\x00")

    def test_raster_over_the_pixel_cap_refused_from_the_header(self):
        side = 6000
        assert ip.MAX_PIXELS == side * side
        # At the cap the header passes, and the missing raster is the error.
        for magic, read in ((b"P5", ip.read_pgm), (b"P6", ip.read_ppm)):
            with pytest.raises(FormatError, match="truncated"):
                read(magic + b"\n%d %d\n255\n" % (side, side))
            with pytest.raises(FormatError, match="36000000-pixel cap"):
                read(magic + b"\n%d %d\n255\n" % (side + 1, side))

    def test_ppm_luminance(self):
        data = b"P6\n1 1\n255\n" + bytes([100, 200, 50])
        img = ip.read_ppm(data)
        assert img.pixels[0, 0] == pytest.approx((0.299 * 100 + 0.587 * 200 + 0.114 * 50) / 255)


@st.composite
def hog_shapes(draw):
    """A HOG setting and an image shape it fits, down to one cell."""
    cfg = ip.HogConfig(cell_size=draw(st.integers(2, 16)), block_size=draw(st.integers(1, 3)),
                       bins=draw(st.integers(2, 180)))
    cy = draw(st.integers(cfg.block_size, 4))
    cx = draw(st.integers(cfg.block_size, 4))
    return cfg, (cy * cfg.cell_size, cx * cfg.cell_size)


@st.composite
def edge_maps(draw):
    """An image of 0.0 and 1.0 pixels: all zero, all one, a checkerboard of
    squares 1 to 3 pixels wide, or a random mask of any density."""
    cfg, (h, w) = draw(hog_shapes())
    kind = draw(st.sampled_from(["zeros", "ones", "checkerboard", "random"]))
    if kind == "checkerboard":
        side = draw(st.integers(1, 3))
        mask = (np.arange(h)[:, None] // side + np.arange(w) // side) % 2 == 1
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        density = {"zeros": 0.0, "ones": 1.0}.get(kind) or draw(st.floats(0.0, 1.0))
        mask = rng.random((h, w)) < density
    return cfg, mask.astype(np.float64)


class TestHogLength:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(hog_shapes())
    def test_is_the_descriptor_length(self, setting):
        # Of any image, and of an edge map, which takes the integer path.
        cfg, (h, w) = setting
        px = np.random.default_rng(h * w).random((h, w))
        for img in (GrayImage(px), GrayImage((px < 0.5).astype(np.float64))):
            assert ip.hog_length(h, w, cfg) == len(ip.hog(img, cfg))

    @pytest.mark.parametrize("shape, cfg, message", [
        ((30, 32), ip.HogConfig(), "cell_size=8 must divide the 30-pixel image side"),
        ((40, 36), ip.HogConfig(), "cell_size=8 must divide the 36-pixel image side"),
        ((8, 64), ip.HogConfig(), "block_size=2 must be at most the 1 cells across the image"),
        ((64, 16), ip.HogConfig(cell_size=4, block_size=5),
         "block_size=5 must be at most the 4 cells across the image"),
    ])
    def test_bad_geometry_refused_before_any_histogram(self, shape, cfg, message, monkeypatch):
        built = []
        monkeypatch.setattr(ip, "_cell_histograms", lambda img, cfg: built.append(img))
        with pytest.raises(ValueError, match=message):
            ip.hog_length(*shape, cfg)
        with pytest.raises(ValueError, match=message):
            ip.hog(GrayImage(np.zeros(shape)), cfg)
        assert built == []


def float_path(img, cfg):
    """_cell_histograms by the float path alone, whatever the image."""
    return ip._gradient_histograms(img.pixels, cfg)


class TestEdgeMapPath:
    """An image of 0.0 and 1.0 pixels takes the integer path, which gives the
    float path's bits; any other image takes the float path."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(edge_maps())
    def test_edge_maps_match_the_float_path(self, case):
        cfg, px = case
        img = GrayImage(px)
        want = float_path(img, cfg)
        with mock.patch.object(ip, "_cell_histograms", float_path):
            want_hog = ip.hog(img, cfg)
        with mock.patch.object(ip, "_gradient_histograms",
                               side_effect=AssertionError("an edge map took the float path")):
            got = ip._cell_histograms(img, cfg)
            got_hog = ip.hog(img, cfg)
        assert got.tobytes() == want.tobytes()
        assert got_hog.tobytes() == want_hog.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(hog_shapes(), st.integers(0, 2**32 - 1),
           st.sampled_from(["half", "two", "one_below_one", "negative_zero"]))
    def test_near_edge_maps_take_the_float_path(self, setting, seed, kind):
        cfg, shape = setting
        rng = np.random.default_rng(seed)
        px = (rng.random(shape) < rng.random()).astype(np.float64)
        px.flat[rng.integers(px.size)] = 1.0  # so that "half" and "two" scale a pixel
        if kind == "half":
            px *= 0.5
        elif kind == "two":
            px *= 2.0
        elif kind == "one_below_one":
            px[rng.integers(shape[0]), rng.integers(shape[1])] = 1.0 - 2.0**-53
        else:
            px[rng.random(shape) < 0.5] = -0.0
            px.flat[rng.integers(px.size)] = -0.0
        img = GrayImage(px)
        with mock.patch.object(ip, "_edge_histograms",
                               side_effect=AssertionError("took the edge-map path")):
            assert ip._cell_histograms(img, cfg).tobytes() == float_path(img, cfg).tobytes()

    @pytest.mark.parametrize("cfg", [ip.HogConfig(), ip.HogConfig(cell_size=16, bins=180),
                                     ip.HogConfig(cell_size=4, block_size=3, bins=2)],
                             ids=["default", "cell16_bins180", "cell4_block3_bins2"])
    def test_canny_maps_of_thermal_images(self, cfg):
        rng = Rng(101)
        for _ in range(10):
            img = ip.resize_bilinear(generate_sample(ThermalConfig(), rng.randint(2), rng), 128, 128)
            edges = ip.canny(img, 1.4, 0.05, 0.15)
            assert edges.pixels.any()
            got = ip._cell_histograms(edges, cfg)
            assert got.tobytes() == float_path(edges, cfg).tobytes()

    def test_table_is_read_only(self):
        assert not any(column.flags.writeable for column in ip._edge_bin_table(9))


def nms_reference(mag, ang):
    """_nms with float direction classes: round(ang / 45), with 4.0 set to
    0.0, compared as float64."""
    h, w = mag.shape
    padded = np.pad(mag, 1, mode="edge")
    direction = np.round(ang / 45.0)
    direction[direction == 4.0] = 0.0
    keep = np.zeros(mag.shape, dtype=bool)
    for d, (dy, dx) in enumerate(((0, 1), (1, 1), (1, 0), (1, -1))):
        n1 = padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
        n2 = padded[1 - dy : 1 - dy + h, 1 - dx : 1 - dx + w]
        keep |= (direction == d) & (mag > n1) & (mag >= n2)
    return keep


class TestNmsClasses:
    def test_angles_on_and_next_to_class_boundaries(self):
        # Each boundary, the doubles up to 3 ulps either side of it inside
        # [0, 180], and the class centres; the quotient by 45 of a double
        # next to a boundary may round onto it.
        angles = [0.0, 45.0, 90.0, 135.0]
        for bound in (22.5, 67.5, 112.5, 157.5, 180.0):
            below = above = bound
            angles.append(bound)
            for _ in range(3):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
                angles += [below] + ([above] if above <= 180.0 else [])
        angles = np.array(angles)
        assert (np.round(angles / 45.0) % 1 == 0).all()
        rng = np.random.default_rng(53)
        for _ in range(20):
            mag = rng.random((24, 24)).round(1)  # ties between neighbours
            ang = rng.choice(angles, size=mag.shape)
            assert np.array_equal(ip._nms(mag, ang), nms_reference(mag, ang))

    def test_overflowed_gradients_without_warnings(self):
        # Pixels near the float limit overflow the Sobel sums to inf, and
        # inf - inf gives NaN: NaN and inf magnitudes, NaN angles.
        rng = np.random.default_rng(59)
        px = rng.random((32, 32))
        px[rng.random(px.shape) < 0.2] = 1.7e308
        px[rng.random(px.shape) < 0.2] = -1.7e308
        with np.errstate(all="ignore"):
            mag, ang = ip._sobel(px)
        assert np.isnan(mag).any() and np.isinf(mag).any() and np.isnan(ang).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keep = ip._nms(mag, ang)
        assert np.array_equal(keep, nms_reference(mag, ang))
        assert keep.any()


def nms_loop_reference(mag, ang):
    """_nms one pixel at a time: each pixel against its two neighbours along
    its direction class, read from the edge-padded magnitude, strict toward
    the forward one."""
    h, w = mag.shape
    padded = np.pad(mag, 1, mode="edge")
    steps = ((0, 1), (1, 1), (1, 0), (1, -1))
    keep = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            dy, dx = steps[int(np.round(ang[y, x] / 45.0)) % 4]
            m = padded[y + 1, x + 1]
            keep[y, x] = m > padded[y + 1 + dy, x + 1 + dx] and m >= padded[y + 1 - dy, x + 1 - dx]
    return keep


class TestNmsWrapLanes:
    def test_every_pixel_against_its_own_neighbours(self):
        # _nms reads each neighbour as a shifted run of one flat padded
        # buffer; a wrong offset would compare a pixel at the end of a row
        # with the start of the next.  Every oracle shape (1xN, Nx1 and 3x3
        # among them), with the raw magnitudes, ties on a coarse grid, and
        # plateaus as wide as the image.
        rng = np.random.default_rng(61)
        bounds = np.array([0.0, 22.5, 45.0, 67.5, 90.0, 112.5, 135.0, 157.5, 180.0])
        for px in oracle_images():
            ang = rng.random(px.shape) * 180.0
            on_bound = rng.random(px.shape) < 0.2
            ang[on_bound] = rng.choice(bounds, size=int(on_bound.sum()))
            for mag in (px, np.round(px * 4.0) / 4.0, np.floor(px * 2.0)):
                want = nms_loop_reference(mag, ang)
                assert ip._nms(mag, ang).tobytes() == want.tobytes()


def strided_views(px):
    """px and views of it that are not C-contiguous: transposed, every other
    row from the second column, and mirrored left to right."""
    return [px, px.T, px[::2, 1:], px[:, ::-1]]


class TestKernelOutputs:
    """Each kernel leaves its input as it was and returns fresh C-contiguous
    arrays, whatever the input's layout."""

    @staticmethod
    def check(inputs, outputs):
        for out in outputs:
            assert out.flags.c_contiguous
            for arr in inputs:
                assert not np.shares_memory(out, arr)

    def test_blur_sobel_nms_canny(self):
        rng = np.random.default_rng(67)
        for px in strided_views(rng.random((20, 17))):
            before = px.copy()
            blurred = ip.gaussian_blur(GrayImage(px), 1.4).pixels
            mag, ang = ip._sobel(px)
            edges = ip.canny(GrayImage(px), 1.4, 0.05, 0.15).pixels
            assert np.array_equal(px, before)
            self.check([px], [blurred, mag, ang, edges])
            self.check([mag], [ang])
            assert blurred.shape == mag.shape == ang.shape == edges.shape == px.shape
            mag_t, ang_t = mag.T, ang.T  # non-contiguous magnitude and angle
            for m, a in ((mag, ang), (mag_t, ang_t)):
                m_before, a_before = m.copy(), a.copy()
                keep = ip._nms(m, a)
                assert np.array_equal(m, m_before) and np.array_equal(a, a_before)
                self.check([m, a], [keep])
                assert keep.shape == m.shape

    @pytest.mark.parametrize("edge_map", [False, True], ids=["intensity", "edge_map"])
    def test_hog(self, edge_map):
        rng = np.random.default_rng(71)
        big = rng.random((64, 49))
        if edge_map:
            big = (big > 0.7).astype(np.float64)  # takes the integer gradient path
        for px in (big[::2, 1:], big[:, 1:], big[:, 1:].T, big[:, :0:-1]):
            before = px.copy()
            feats = ip.hog(GrayImage(px), ip.HogConfig())
            assert np.array_equal(px, before)
            self.check([px], [feats])
            assert feats.tobytes() == ip.hog(GrayImage(before), ip.HogConfig()).tobytes()
