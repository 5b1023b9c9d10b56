"""Image preprocessing, Canny edges, and HOG descriptors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import FormatError, GrayImage


@dataclass
class HogConfig:
    """Dalal-Triggs style HOG parameters (unsigned gradients)."""

    cell_size: int = 8
    block_size: int = 2
    bins: int = 9

    def __post_init__(self):
        if self.cell_size < 2:
            raise ValueError("cell_size must be >= 2")
        if not 2 <= self.bins <= 180:
            raise ValueError("bins must be in [2, 180], at most one per degree")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")


def resize_bilinear(img: GrayImage, out_w: int, out_h: int) -> GrayImage:
    """Resize with the half-pixel-center convention, clamped at borders."""
    if out_w < 1 or out_h < 1:
        raise ValueError("output dimensions must be >= 1")
    src = img.pixels
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
    out = top * (1 - fy)[:, None] + bot * fy[:, None]
    return GrayImage(out)


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _correlate_columns(px: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Correlate each column with a symmetric kernel, borders replicated.

    Each output is x[i]*k[r] + sum over j = -r..-1 of (x[i+j] + x[i-j])*k[r+j],
    added in that order: scipy.ndimage.correlate1d's order for a symmetric
    kernel, so the two agree bit for bit.
    """
    r = len(k) // 2
    n = len(px)
    padded = np.pad(px, ((r, r), (0, 0)), mode="edge")
    out = padded[r : r + n] * k[r]
    pair = np.empty_like(out)
    for j in range(-r, 0):
        np.add(padded[r + j : r + j + n], padded[r - j : r - j + n], out=pair)
        pair *= k[r + j]
        out += pair
    return out


def gaussian_blur(img: GrayImage, sigma: float) -> GrayImage:
    """Separable Gaussian blur with edge replication at borders."""
    k = gaussian_kernel_1d(sigma)
    return GrayImage(_correlate_columns(_correlate_columns(img.pixels, k).T, k).T)


def _mod180(deg: np.ndarray) -> np.ndarray:
    """deg % 180.0 for deg in [-180, 180], bit for bit, at a tenth of np.mod's
    cost: np.mod's fmod is exact on this range and its zeros are +0.0."""
    out = np.where(deg < 0, deg + 180.0, deg)
    out[(deg == 0.0) | (deg == 180.0)] = 0.0
    return out


def _sobel(px: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3x3 Sobel magnitude and angle (degrees in [0,180), borders replicated).

    Each gradient is 0.0 plus its six nonzero taps in raster order, the order
    scipy.ndimage.correlate adds them in, so the two agree bit for bit.
    """
    p = np.pad(px, 1, mode="edge")
    up, mid, down = p[:-2], p[1:-1], p[2:]
    gx = (0.0 - up[:, :-2] + up[:, 2:] - 2.0 * mid[:, :-2] + 2.0 * mid[:, 2:]
          - down[:, :-2] + down[:, 2:])
    gy = (0.0 - up[:, :-2] - 2.0 * up[:, 1:-1] - up[:, 2:]
          + down[:, :-2] + 2.0 * down[:, 1:-1] + down[:, 2:])
    return np.sqrt(gx * gx + gy * gy), _mod180(np.degrees(np.arctan2(gy, gx)))


def _nms(mag: np.ndarray, ang: np.ndarray) -> np.ndarray:
    """Non-maximum suppression with angles quantized to 0/45/90/135 degrees."""
    h, w = mag.shape
    padded = np.pad(mag, 1, mode="edge")
    direction = np.round(ang / 45.0).astype(int) % 4
    # Neighbor offsets along the gradient direction (y, x), image y grows down.
    offsets = {0: (0, 1), 1: (1, 1), 2: (1, 0), 3: (1, -1)}
    keep = np.zeros_like(mag, dtype=bool)
    for d, (dy, dx) in offsets.items():
        n1 = padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
        n2 = padded[1 - dy : 1 - dy + h, 1 - dx : 1 - dx + w]
        # strict toward the forward neighbor so tied plateaus thin to one line
        keep |= (direction == d) & (mag > n1) & (mag >= n2)
    return keep


def _hysteresis(strong: np.ndarray, weak: np.ndarray) -> np.ndarray:
    """The 8-connected components of weak that hold a strong pixel.

    Grows strong & weak through weak by one 3x3 dilation per pass until a pass
    adds nothing.  Every pass but the last adds a weak pixel, so the weak
    pixel count bounds the loop.
    """
    h, w = weak.shape
    edges = strong & weak
    grid = np.zeros((h + 2, w + 2), dtype=bool)
    for _ in range(np.count_nonzero(weak)):
        grid[1:-1, 1:-1] = edges
        rows = grid[:-2] | grid[1:-1] | grid[2:]
        grown = (rows[:, :-2] | rows[:, 1:-1] | rows[:, 2:]) & weak
        if np.array_equal(grown, edges):
            break
        edges = grown
    return edges


def canny(img: GrayImage, sigma: float, low: float, high: float) -> GrayImage:
    """Canny edges as a {0,1} image: blur, Sobel, NMS, double threshold,
    8-connected hysteresis."""
    if not (0 < low < high):
        raise ValueError("thresholds must satisfy 0 < low < high")
    if img.width < 3 or img.height < 3:
        raise ValueError("image must be at least 3x3")
    mag, ang = _sobel(gaussian_blur(img, sigma).pixels)
    keep = _nms(mag, ang)
    strong = keep & (mag >= high)
    weak = keep & (mag >= low)
    return GrayImage(_hysteresis(strong, weak).astype(np.float64))


def _cell_histograms(img: GrayImage, cfg: HogConfig) -> np.ndarray:
    """Per-cell orientation histograms with linear interpolation between bins."""
    mag, ang = _sobel(img.pixels)
    bins = cfg.bins
    pos = ang / (180.0 / bins)
    lo = np.floor(pos).astype(int)
    frac = pos - lo
    h, w = mag.shape
    cy, cx = h // cfg.cell_size, w // cfg.cell_size
    rows = np.repeat(np.arange(cy), cfg.cell_size)
    cols = np.repeat(np.arange(cx), cfg.cell_size)
    cell = (rows[:, None] * cx + cols[None, :]) * bins
    # Every pixel's lower-bin share, then every pixel's upper-bin share, each
    # in raster order: the order of additions fixes the rounding.
    index = np.concatenate([(cell + lo % bins).ravel(), (cell + (lo + 1) % bins).ravel()])
    weights = np.concatenate([(mag * (1 - frac)).ravel(), (mag * frac).ravel()])
    return np.bincount(index, weights=weights, minlength=cy * cx * bins).reshape(cy, cx, bins)


_EPS = 1e-6  # keeps an all-zero block's normalization finite


def _blocks(img: GrayImage, cfg: HogConfig) -> tuple[np.ndarray, np.ndarray]:
    """Return (clipped blocks before final renormalization, final blocks)."""
    h, w = img.pixels.shape
    if h % cfg.cell_size or w % cfg.cell_size:
        raise ValueError("image dimensions must be divisible by cell_size")
    hist = _cell_histograms(img, cfg)
    cy, cx, bins = hist.shape
    bs = cfg.block_size
    by, bx = cy - bs + 1, cx - bs + 1
    if by < 1 or bx < 1:
        raise ValueError("image too small for the configured block size")
    # (by, bx, bins, bs, bs) windows, each flattened in (row, column, bin) order
    v = sliding_window_view(hist, (bs, bs), axis=(0, 1)).transpose(0, 1, 3, 4, 2)
    v = v.reshape(by, bx, bs * bs * bins)
    clipped = np.minimum(v / np.sqrt(np.vecdot(v, v) + _EPS * _EPS)[..., None], 0.2)
    return clipped, clipped / np.sqrt(np.vecdot(clipped, clipped) + _EPS * _EPS)[..., None]


def hog(img: GrayImage, cfg: HogConfig) -> np.ndarray:
    """HOG descriptor: cell histograms, overlapping blocks, L2-Hys normalization."""
    _, final = _blocks(img, cfg)
    return final.ravel()


# ---------------------------------------------------------------------------
# PGM / PPM I/O: the one place where 8-bit samples and [0,1] intensities meet


def _read_pnm(data: bytes, magic: bytes, channels: int) -> np.ndarray:
    """The (height, width, channels) 8-bit samples of a binary PNM file, as floats."""
    if data[:2] != magic:
        raise FormatError(f"expected {magic.decode()} magic, got {data[:2]!r}")
    # Tokenizer tolerating whitespace and '#' comments.
    tokens = []
    i = 2
    while len(tokens) < 3:
        if i >= len(data):
            raise FormatError("truncated header")
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"non-numeric header token: {exc}") from exc
    if maxval != 255:
        raise FormatError(f"only maxval 255 supported, got {maxval}")
    if w < 1 or h < 1:
        raise FormatError("non-positive image dimensions")
    # One whitespace byte ends the header.  As in libnetpbm, a comment right
    # after maxval runs through its newline, and that newline is the byte.
    if data[i : i + 1] == b"#":
        i = data.find(b"\n", i)
        if i < 0:
            raise FormatError("truncated header")
    size = w * h * channels
    raster = data[i + 1 : i + 1 + size]
    if len(raster) < size:
        raise FormatError(f"truncated {magic.decode()} raster")
    return np.frombuffer(raster, dtype=np.uint8).astype(np.float64).reshape(h, w, channels)


def read_pgm(data: bytes) -> GrayImage:
    """Parse a binary P5 PGM (8-bit, maxval 255) into a [0,1] image (sample / 255)."""
    return GrayImage(_read_pnm(data, b"P5", 1)[:, :, 0] / 255.0)


def write_pgm(img: GrayImage) -> bytes:
    """Serialize a [0,1] image to binary P5: round(255 * intensity), clipped to [0,255]."""
    quantized = np.clip(np.round(img.pixels * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode()
    return header + quantized.tobytes()


def read_ppm(data: bytes) -> GrayImage:
    """Parse binary P6 PPM into a [0,1] luminance image, (0.299R + 0.587G + 0.114B) / 255."""
    rgb = _read_pnm(data, b"P6", 3)
    y = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
    return GrayImage(y / 255.0)


def read_image_file(path) -> GrayImage:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"P5":
        return read_pgm(data)
    if data[:2] == b"P6":
        return read_ppm(data)
    raise FormatError(f"unsupported image format in {path}")
