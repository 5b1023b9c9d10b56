"""Image preprocessing, Canny edges, and HOG descriptors."""

from __future__ import annotations

import functools
import re
from collections.abc import Callable
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


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """a*(1-t) + b*t, computed in place: a and b are fresh arrays, and the
    result is a."""
    a *= 1 - t
    b *= t
    a += b
    return a


def _same_size(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """_lerp along axis 0 of a side whose size does not change, into out.

    There every weight is exactly 1.0 or 0.0, so each output is a[i] + b*0.0
    with b the next row (the last row repeats): the same bits as the lerp,
    signed zeros included, without its two gathers.
    """
    np.multiply(a[1:], 0.0, out=out[:-1])
    np.multiply(a[-1:], 0.0, out=out[-1:])
    out += a
    return out


def _taps(n: int, out_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First and second source index and second weight of each output along
    one side, with the half-pixel-center convention, clamped at borders."""
    s = np.clip((np.arange(out_n) + 0.5) * (n / out_n) - 0.5, 0.0, n - 1.0)
    i0 = np.floor(s).astype(int)
    return i0, np.minimum(i0 + 1, n - 1), s - i0


def resize_bilinear(img: GrayImage, out_w: int, out_h: int) -> GrayImage:
    """Resize with the half-pixel-center convention, clamped at borders."""
    if out_w < 1 or out_h < 1:
        raise ValueError("output dimensions must be >= 1")
    src = img.pixels
    h, w = src.shape
    # Along x once per source row, then along y between the rows that x gave:
    # each output is still (a*(1-fx) + b*fx)*(1-fy) + (c*(1-fx) + d*fx)*fy.
    if out_w == w:
        across = _same_size(src.T, np.empty((h, w)).T).T
    else:
        x0, x1, fx = _taps(w, out_w)
        across = _lerp(src[:, x0], src[:, x1], fx)
    if out_h == h:
        return GrayImage(_same_size(across, np.empty((h, out_w))))
    y0, y1, fy = _taps(h, out_h)
    return GrayImage(_lerp(across[y0], across[y1], fy[:, None]))


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _pad_edge(px: np.ndarray, r: int) -> np.ndarray:
    """np.pad(px, r, mode="edge"), without np.pad's overhead."""
    h, w = px.shape
    p = np.empty((h + 2 * r, w + 2 * r), dtype=px.dtype)
    p[r : r + h, r : r + w] = px
    p[:r] = p[r]
    p[r + h :] = p[r + h - 1]
    p[:, :r] = p[:, r : r + 1]
    p[:, r + w :] = p[:, r + w - 1 : r + w]
    return p


# The stencils below run on the flat row-major buffer of an image padded by r
# on every side.  With row stride W = w + 2r, the padded pixel (y + dy, x + dx)
# of output pixel (y, x) sits at flat index y*W + x + dy*W + dx, so each tap
# (dy, dx) is one contiguous run of n = h*W - 2r lanes, and pixel (y, x) is
# lane y*W + x.  Lanes y*W + w .. y*W + W - 1 straddle the wrap into the next
# row: they are computed from real padded pixels and then thrown away.  A run
# is one 1-D loop for numpy, where a 2-D slice of a padded array is h short ones.
def _flat_taps(p: np.ndarray, r: int) -> tuple[int, Callable[[int, int], np.ndarray]]:
    """The lane count n of p, an image padded by r on every side, and
    tap(dy, dx), the run of p's flat buffer at offset (dy, dx), 0 <= dy, dx <= 2r."""
    width = p.shape[1]
    n = (p.shape[0] - 2 * r) * width - 2 * r
    flat = p.reshape(-1)
    return n, lambda dy, dx: flat[dy * width + dx : dy * width + dx + n]


def _correlate(padded: np.ndarray, k: np.ndarray, out: np.ndarray, pair: np.ndarray) -> None:
    """Correlate along axis 0 with a symmetric kernel: padded holds the input
    with r = len(k)//2 entries of border on each side, and pair is scratch of
    out's shape.  gaussian_blur runs it down whole padded rows, then along the
    flat buffer of the result, where a step along axis 0 is one pixel across.

    Each output is x[i]*k[r] + sum over j = -r..-1 of (x[i+j] + x[i-j])*k[r+j],
    added in that order: scipy.ndimage.correlate1d's order for a symmetric
    kernel, so the two agree bit for bit.
    """
    r = len(k) // 2
    n = len(out)
    np.multiply(padded[r : r + n], k[r], out=out)
    for j in range(-r, 0):
        np.add(padded[r + j : r + j + n], padded[r - j : r - j + n], out=pair)
        pair *= k[r + j]
        out += pair


# A pipeline blurs at one or two sigmas (Canny's and the intensity view's).
@functools.lru_cache(maxsize=4)
def _blur_kernel(sigma: float) -> np.ndarray:
    """gaussian_kernel_1d(sigma), shared by every blur at sigma, so read-only."""
    k = gaussian_kernel_1d(sigma)
    k.flags.writeable = False
    return k


def gaussian_blur(img: GrayImage, sigma: float) -> GrayImage:
    """Separable Gaussian blur with edge replication at borders."""
    k = _blur_kernel(sigma)
    r = len(k) // 2
    h, w = img.pixels.shape
    width = w + 2 * r
    p = _pad_edge(img.pixels, r)
    # Down the columns first, the border columns too: each is its edge
    # column, so its pass is the edge column's, as padding after the pass gives.
    down = np.empty((h, width))
    pair = np.empty((h, width))
    _correlate(p, k, down, pair)
    # Then across, along the flat rows, into p's buffer, which is free now.
    n = h * width - 2 * r
    across = p.reshape(-1)[: h * width]
    _correlate(down.reshape(-1), k, across[:n], pair.reshape(-1)[:n])
    del down, pair
    return GrayImage(across.reshape(h, width)[:, :w].copy())


def _mod180(deg: np.ndarray) -> np.ndarray:
    """Fold deg in [-180, 180] to deg % 180.0 in place and return it, bit for
    bit, at a small part of np.mod's cost: np.mod's fmod is exact on this
    range and its zeros are +0.0.  Every angle gains 180.0 if negative and
    0.0 if not, which turns -0.0 into +0.0; 180.0 is found before that step,
    since a tiny negative angle plus 180 rounds to 180.0, which np.mod also
    gives."""
    half_turn = deg == 180.0
    shift = np.multiply(deg < 0, 180.0)
    deg += shift
    np.copyto(deg, 0.0, where=half_turn)
    return deg


def _sobel(px: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3x3 Sobel magnitude and angle (degrees in [0,180], borders replicated;
    180.0 is a tiny negative angle folded, as np.mod folds it).

    Each gradient is 0.0 plus its six nonzero taps in raster order, the order
    scipy.ndimage.correlate adds them in, so the two agree bit for bit.
    """
    h, w = px.shape
    p = _pad_edge(px, 1)
    n, tap = _flat_taps(p, 1)
    wide = [np.empty((h, w + 2)) for _ in range(3)]  # gx, gy and a tap's product
    gx, gy, t = (a.reshape(-1)[:n] for a in wide)
    np.subtract(0.0, tap(0, 0), out=gx)
    gx += tap(0, 2)
    gx -= np.multiply(tap(1, 0), 2.0, out=t)
    gx += np.multiply(tap(1, 2), 2.0, out=t)
    gx -= tap(2, 0)
    gx += tap(2, 2)
    np.subtract(0.0, tap(0, 0), out=gy)
    gy -= np.multiply(tap(0, 1), 2.0, out=t)
    gy -= tap(0, 2)
    gy += tap(2, 0)
    gy += np.multiply(tap(2, 1), 2.0, out=t)
    gy += tap(2, 2)
    _polar(gx, gy, t)
    # The magnitudes, in gx's lanes, are cut out into p's buffer and the
    # angles, in t's, into gy's, which are free now.
    mag = p.reshape(-1)[: h * w].reshape(h, w)
    np.copyto(mag, wide[0][:, :w])
    ang = wide[1].reshape(-1)[: h * w].reshape(h, w)
    np.copyto(ang, wide[2][:, :w])
    del wide, gx, gy, t  # frees gx's and t's buffers before _mod180's temporary
    return mag, _mod180(ang)


def _polar(gx: np.ndarray, gy: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude sqrt(gx*gx + gy*gy), in gx's buffer, and angle in degrees in
    [-180, 180], in out's, of each gradient; gy's buffer is overwritten too."""
    # np.degrees(x) is x * (180/pi), at several times a multiply's cost
    ang = np.multiply(np.arctan2(gy, gx, out=out), 180.0 / np.pi, out=out)
    gx *= gx
    gy *= gy
    gx += gy
    return np.sqrt(gx, out=gx), ang


def _nms(mag: np.ndarray, ang: np.ndarray) -> np.ndarray:
    """Non-maximum suppression with angles quantized to 0/45/90/135 degrees.

    A pixel's direction class is round(ang / 45) as an int8, with 4 (ang in
    [0, 180], so only 180 degrees' class wraps) folded to 0: the classes of
    the float rule, compared at an eighth of the bytes.  A NaN angle, which
    only an overflowed gradient gives, counts as 4 before the cast, since a
    NaN has no integer value; its magnitude is NaN too, and no comparison
    keeps a NaN, so the mask is the float rule's.
    """
    h, w = mag.shape
    n, tap = _flat_taps(_pad_edge(mag, 1), 1)
    quarters = np.divide(ang, 45.0)
    np.fmin(quarters, 4.0, out=quarters)
    np.round(quarters, out=quarters)
    # Classes by lane, as the taps are; a wrap lane's class decides only its own lane.
    direction = np.zeros((h, w + 2), dtype=np.int8)
    np.copyto(direction[:, :w], quarters, casting="unsafe")
    del quarters
    classes = direction.reshape(-1)[:n]
    classes &= 3
    keep = np.zeros((h, w + 2), dtype=bool)
    kept = keep.reshape(-1)[:n]
    sel = np.empty(n, dtype=bool)
    test = np.empty_like(sel)
    centre = tap(1, 1)
    # Neighbor offsets along the gradient direction (y, x), image y grows down.
    for d, (dy, dx) in enumerate(((0, 1), (1, 1), (1, 0), (1, -1))):
        # strict toward the forward neighbor so tied plateaus thin to one line
        np.equal(classes, d, out=sel)
        sel &= np.greater(centre, tap(1 + dy, 1 + dx), out=test)
        sel &= np.greater_equal(centre, tap(1 - dy, 1 - dx), out=test)
        kept |= sel
    return keep[:, :w].copy()


# Dilation passes before _hysteresis labels the weak mask instead: on Canny
# maps of thermal images the growth settles in one pass, and rarely in more
# than a dozen.
_GROW_PASSES = 16


def _hysteresis(strong: np.ndarray, weak: np.ndarray) -> np.ndarray:
    """The 8-connected components of weak that hold a strong pixel.

    Grows strong & weak through weak by one 3x3 dilation per pass until a pass
    adds nothing.  A pass adds at most one pixel along a path, so a long weak
    path would take as many passes as it has pixels: after _GROW_PASSES
    passes the components are found by labeling instead.
    """
    h, w = weak.shape
    edges = strong & weak
    grid = np.zeros((h + 2, w + 2), dtype=bool)
    for _ in range(_GROW_PASSES):
        grid[1:-1, 1:-1] = edges
        rows = grid[:-2] | grid[1:-1] | grid[2:]
        grown = (rows[:, :-2] | rows[:, 1:-1] | rows[:, 2:]) & weak
        if np.array_equal(grown, edges):
            return edges
        edges = grown
    roots = _component_roots(weak)
    return np.isin(roots, roots[edges])


def _component_roots(mask: np.ndarray) -> np.ndarray:
    """For each pixel, the smallest flat index in its 8-connected component of
    mask (a pixel outside mask is its own).

    Pointer jumping: each round, every tree root hooks onto the smallest root
    that an edge leaving its tree reaches, then every pixel jumps to its root.
    A root that does not hook is hooked onto, or hooks the round after, so the
    trees that still have an edge between them halve every two rounds; each
    round is a pass over the pairs and O(log n) passes over the mask's pixels.
    """
    h, w = mask.shape
    stride = w + 1  # a false column after each row keeps x + 1 off the next row
    flat = np.zeros((h + 1) * stride, dtype=bool)
    flat.reshape(h + 1, stride)[:h, :w] = mask
    # Each 8-connected pair once: right, down-left, down, down-right.
    pairs = [(np.flatnonzero(flat[: flat.size - s] & flat[s:]), s)
             for s in (1, stride - 1, stride, stride + 1)]
    u = np.concatenate([a for a, _ in pairs])
    v = np.concatenate([a + s for a, s in pairs])
    nodes = np.flatnonzero(flat)
    parent = np.arange(flat.size)
    while True:
        ru, rv = parent[u], parent[v]
        cross = ru != rv
        if not cross.any():
            break
        ru, rv = ru[cross], rv[cross]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = parent[nodes]
            root = parent[up]
            if np.array_equal(up, root):
                break
            parent[nodes] = root
    return parent.reshape(h + 1, stride)[:h, :w]


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


# One HOG setting per model and one image size per pipeline; each table is
# cy * w entries, 16 KB for 8-pixel cells on a 128 x 128 image.
@functools.lru_cache(maxsize=4)
def _cell_offsets(cy: int, w: int, cell: int, bins: int) -> np.ndarray:
    """Offset of bin 0 of each pixel's cell in the flat (cell row, cell column,
    bin) histogram, by cell row and pixel column: shape (cy, 1, w), to add to
    the (cy, cell, w) view of the pixels.  Every call of one setting shares
    it, so it is read-only.  A full (h, w) map would save a little more, but
    the first call would allocate it inside the feature pass's peak."""
    offsets = (np.arange(cy) * (w // cell) * bins)[:, None, None] + np.arange(w) // cell * bins
    offsets.flags.writeable = False
    return offsets


def _bin_shares(mag: np.ndarray, ang: np.ndarray, bins: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lower bin, whether the upper bin wraps to bin 0, and the lower and upper
    interpolation shares of each gradient's magnitude, for angles in [0, 180];
    the upper shares take ang's buffer."""
    pos = np.divide(ang, 180.0 / bins, out=ang)
    lo = np.floor(pos)
    index = lo.astype(np.intp)
    # An angle of 180.0 is bin 0.  pos is at most bins, so this is index %= bins,
    # and a NaN angle (a gradient that overflowed), cast to a negative index,
    # lands in bin 0 too rather than outside the histogram.
    np.copyto(index, 0, where=index.view(np.uintp) >= bins)
    upper_wraps = lo == bins - 1
    frac = np.subtract(pos, lo, out=pos)
    lower_share = np.subtract(1, frac, out=lo)
    lower_share *= mag
    return index, upper_wraps, lower_share, np.multiply(frac, mag, out=frac)


# The bits of an edge map's one nonzero pixel value
_ONE_BITS = np.float64(1.0).view(np.uint64)


def _cell_histograms(img: GrayImage, cfg: HogConfig) -> np.ndarray:
    """Per-cell orientation histograms with linear interpolation between bins.

    An edge map, an image whose pixels are all +0.0 or 1.0 as every canny
    output's are, takes _edge_histograms, which gives the same bits at a
    small part of the cost; any other image takes _gradient_histograms.
    """
    bits = img.pixels.view(np.uint64)
    edge = bits == _ONE_BITS
    # All pixels are +0.0 or 1.0 when every pixel with nonzero bits is a 1.0
    # (a -0.0 pixel is not, and takes the float path)
    if np.count_nonzero(edge) == np.count_nonzero(bits):
        return _edge_histograms(edge, cfg)
    return _gradient_histograms(img.pixels, cfg)


def _gradient_histograms(px: np.ndarray, cfg: HogConfig) -> np.ndarray:
    """_cell_histograms of any image, from its float Sobel gradients."""
    mag, ang = _sobel(px)
    bins = cfg.bins
    h, w = mag.shape
    cy, cx = h // cfg.cell_size, w // cfg.cell_size
    index, upper_wraps, lower_share, upper_share = _bin_shares(mag, ang, bins)
    bands = index.reshape(cy, cfg.cell_size, w)  # a view: h is a multiple of the cell
    bands += _cell_offsets(cy, w, cfg.cell_size, bins)
    # Every pixel's lower-bin share, then every pixel's upper-bin share, each
    # in raster order: the order of additions fixes the rounding.
    hist = np.zeros(cy * cx * bins)
    np.add.at(hist, index.ravel(), lower_share.ravel())
    index += 1
    np.subtract(index, bins, out=index, where=upper_wraps)
    np.add.at(hist, index.ravel(), upper_share.ravel())
    return hist.reshape(cy, cx, bins)


@functools.lru_cache(maxsize=4)
def _edge_bin_table(bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lower bin, upper bin, lower share and upper share of each integer
    gradient (gx, gy) in [-4, 4]², at index 9*gy + gx + 40, computed by the
    float path's own operations.  Read-only, like _cell_offsets."""
    gy, gx = np.mgrid[-4:5, -4:5].reshape(2, 81).astype(np.float64)
    mag, ang = _polar(gx, gy, np.empty(81))
    lower, upper_wraps, lower_share, upper_share = _bin_shares(mag, _mod180(ang), bins)
    upper = lower + 1
    np.subtract(upper, bins, out=upper, where=upper_wraps)
    table = lower, upper, lower_share, upper_share
    for column in table:
        column.flags.writeable = False
    return table


def _edge_histograms(edge: np.ndarray, cfg: HogConfig) -> np.ndarray:
    """_gradient_histograms of an edge map (edge holds its nonzero pixels),
    bit for bit, from integer gradients.

    On pixels of 0 and 1 every Sobel sum is an integer in [-4, 4], exact in
    int8 as in float64, so each gradient is one of the 81 that
    _edge_bin_table holds.  Only pixels whose gradient is nonzero add to the
    histogram: the float path adds +0.0 for the others, which leaves a sum of
    non-negative shares as it is.  The rest add in the float path's order,
    the lower shares and then the upper ones, each in raster order.
    """
    h, w = edge.shape
    cell, bins = cfg.cell_size, cfg.bins
    cy, cx = h // cell, w // cell
    p = _pad_edge(edge.view(np.int8), 1)
    across = p[:, 2:] - p[:, :-2]  # right minus left neighbor
    gx = across[:-2] + across[2:]
    gx += 2 * across[1:-1]
    smooth = p[:, :-2] + p[:, 2:]
    smooth += 2 * p[:, 1:-1]
    gy = smooth[2:] - smooth[:-2]  # below minus above
    code = gy * 9
    code += gx
    at = np.flatnonzero(code)
    code = code.ravel()[at] + 40
    cells = _cell_offsets(cy, w, cell, bins)[:, 0][at // (w * cell), at % w]
    lower, upper, lower_share, upper_share = _edge_bin_table(bins)
    hist = np.zeros(cy * cx * bins)
    np.add.at(hist, cells + lower[code], lower_share[code])
    np.add.at(hist, cells + upper[code], upper_share[code])
    return hist.reshape(cy, cx, bins)


_EPS = 1e-6  # keeps an all-zero block's normalization finite


def hog_length(h: int, w: int, cfg: HogConfig) -> int:
    """Length of an h x w image's HOG descriptor, block_size² cells of bins per
    block position; a ValueError if cells do not tile it or a block does not fit."""
    cell, bs = cfg.cell_size, cfg.block_size
    for side in (h, w):
        if side % cell:
            raise ValueError(f"cell_size={cell} must divide the {side}-pixel image side")
    cells = min(h, w) // cell
    if bs > cells:
        raise ValueError(f"block_size={bs} must be at most the {cells} cells across the image")
    return (h // cell - bs + 1) * (w // cell - bs + 1) * bs * bs * cfg.bins


def _blocks(img: GrayImage, cfg: HogConfig) -> tuple[np.ndarray, np.ndarray]:
    """Return (clipped blocks before final renormalization, final blocks)."""
    hog_length(*img.pixels.shape, cfg)  # refuses a bad geometry before any histogram
    hist = _cell_histograms(img, cfg)
    cy, cx, bins = hist.shape
    bs = cfg.block_size
    by, bx = cy - bs + 1, cx - bs + 1
    # (by, bx) windows of (bs, bs, bins), each flattened in (row, column, bin) order
    clipped = np.empty((by, bx, bs * bs * bins))
    np.copyto(clipped.reshape(by, bx, bs, bs, bins),
              sliding_window_view(hist, (bs, bs), axis=(0, 1)).transpose(0, 1, 3, 4, 2))
    clipped /= np.sqrt(np.vecdot(clipped, clipped) + _EPS * _EPS)[..., None]
    np.minimum(clipped, 0.2, out=clipped)
    return clipped, clipped / np.sqrt(np.vecdot(clipped, clipped) + _EPS * _EPS)[..., None]


def hog(img: GrayImage, cfg: HogConfig) -> np.ndarray:
    """HOG descriptor: cell histograms, overlapping blocks, L2-Hys normalization.

    An edge map (every pixel +0.0 or 1.0, as canny gives) skips the float
    Sobel and arctan2: its gradients are small integers, looked up in an
    81-entry table that the float path's own operations filled, and its
    zero gradients, which add +0.0, are skipped.  So its descriptor has the
    float path's bits.  Any other image takes the float path.

    A finite image whose Sobel sums overflow (pixels near the float limit)
    has no descriptor: that is a ValueError, not a vector of NaN.
    """
    _, final = _blocks(img, cfg)
    if not np.isfinite(final).all():
        raise ValueError("HOG features are not finite: the image's gradients overflow")
    return final.ravel()


# ---------------------------------------------------------------------------
# PGM / PPM I/O: the one place where 8-bit samples and [0,1] intensities meet

# 36 megapixels, which admits 6000x4000 dermoscopy photos; a [0,1] image this
# size is 288 MB, and read_ppm holds two of them.
MAX_PIXELS = 6000 * 6000


# A header token after any whitespace and '#' comments (each to its newline).
# Possessive, so no backtracking reads a token out of a comment's tail.
_PNM_TOKEN = re.compile(rb"(?>\s|#[^\n]*+)*+([^\s#]++)")


def _pnm_header_tokens(data: bytes) -> tuple[list[bytes], int]:
    """The width, height and maxval tokens after a PNM magic, and the offset
    just past the last."""
    tokens, i = [], 2
    for _ in range(3):
        if not (match := _PNM_TOKEN.match(data, i)):
            raise FormatError("truncated header")
        tokens.append(match[1])
        i = match.end()
    return tokens, i


def _read_pnm(data: bytes, magic: bytes, channels: int) -> np.ndarray:
    """The (height, width, channels) 8-bit samples of a binary PNM file, a view
    of data.  A raster over MAX_PIXELS is a FormatError, raised from the header."""
    if data[:2] != magic:
        raise FormatError(f"expected {magic.decode()} magic, got {data[:2]!r}")
    tokens, i = _pnm_header_tokens(data)
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"non-numeric header token: {exc}") from exc
    if maxval != 255:
        raise FormatError(f"only maxval 255 supported, got {maxval}")
    if w < 1 or h < 1:
        raise FormatError("non-positive image dimensions")
    if w * h > MAX_PIXELS:
        raise FormatError(f"{w}x{h} image is over the {MAX_PIXELS}-pixel cap")
    # One whitespace byte ends the header.  As in libnetpbm, a comment right
    # after maxval runs through its newline, and that newline is the byte.
    if data[i : i + 1] == b"#":
        i = data.find(b"\n", i)
        if i < 0:
            raise FormatError("truncated header")
    size = w * h * channels
    if len(data) - (i + 1) < size:
        raise FormatError(f"truncated {magic.decode()} raster")
    return np.frombuffer(data, dtype=np.uint8, count=size, offset=i + 1).reshape(h, w, channels)


def read_pgm(data: bytes) -> GrayImage:
    """Parse a binary P5 PGM (8-bit, maxval 255) into a [0,1] image (sample / 255)."""
    return GrayImage(np.divide(_read_pnm(data, b"P5", 1)[:, :, 0], 255.0, dtype=np.float64))


def write_pgm(img: GrayImage) -> bytes:
    """Serialize a [0,1] image to binary P5: round(255 * intensity), clipped to [0,255]."""
    quantized = np.clip(np.round(img.pixels * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode()
    return header + quantized.tobytes()


def read_ppm(data: bytes) -> GrayImage:
    """Parse binary P6 PPM into a [0,1] luminance image, (0.299R + 0.587G + 0.114B) / 255."""
    rgb = _read_pnm(data, b"P6", 3)
    y = np.multiply(rgb[:, :, 0], 0.299, dtype=np.float64)
    term = np.multiply(rgb[:, :, 1], 0.587, dtype=np.float64)
    y += term
    y += np.multiply(rgb[:, :, 2], 0.114, out=term, dtype=np.float64)
    y /= 255.0
    return GrayImage(y)


def read_image_file(path) -> GrayImage:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"P5":
        return read_pgm(data)
    if data[:2] == b"P6":
        return read_ppm(data)
    raise FormatError(f"unsupported image format in {path}")
