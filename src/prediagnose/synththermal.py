"""Deterministic synthetic thermal dataset: vessel band plus optional clot hotspot."""

from __future__ import annotations

import csv
import os
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import FormatError, GrayImage, Rng
from .imageproc import write_pgm

BACKGROUND = 0.2
MAX_SIDE = 4096  # pixels; a 4096 x 4096 float64 image is 128 MiB
MAX_FRAMES = 10_000  # frames per sequence; 10,000 default 128 x 128 PGMs take 164 MB


@dataclass
class ThermalConfig:
    width: int = 128
    height: int = 128
    vessel_width: int = 12
    base_temp: float = 0.45
    axial_gradient: float = 0.0008
    clot_amplitude: float = 0.25
    clot_sigma: float = 6.0
    noise_sigma: float = 0.03
    clot_margin: int = 16

    def __post_init__(self):
        if min(self.width, self.height, self.vessel_width, self.clot_margin) <= 0:
            raise ValueError("dimensions, vessel_width and clot_margin must be positive")
        if max(self.width, self.height) > MAX_SIDE:
            raise ValueError(f"width and height must be at most {MAX_SIDE}")
        if self.base_temp <= 0 or self.clot_sigma <= 0 or self.noise_sigma < 0:
            raise ValueError("base_temp and clot_sigma must be positive, noise_sigma >= 0")
        if self.clot_sigma >= min(self.width, self.height) / 4:
            raise ValueError("clot_sigma too large for the image")
        if 2 * self.clot_margin >= min(self.width, self.height):
            raise ValueError("clot_margin leaves no room for hotspot centers")


def render_scene(cfg: ThermalConfig, vessel_col: int, clot_center: tuple[int, int] | None) -> np.ndarray:
    """Noise-free scene: background, vessel band with axial gradient, optional hotspot.

    The vessel has a transverse half-cosine profile: full vessel temperature at
    the band center, blending into the background at the band edges.
    """
    rows = np.arange(cfg.height, dtype=np.float64)[:, None]
    cols = np.arange(cfg.width, dtype=np.float64)[None, :]
    dx = cols - vessel_col
    profile = np.where(
        np.abs(dx) <= cfg.vessel_width / 2.0,
        np.cos(np.pi * dx / cfg.vessel_width),
        0.0,
    )
    vessel_temp = cfg.base_temp + cfg.axial_gradient * rows
    field = BACKGROUND + (vessel_temp - BACKGROUND) * profile
    if clot_center is not None:
        cx, cy = clot_center
        field = field + cfg.clot_amplitude * np.exp(
            -((cols - cx) ** 2 + (rows - cy) ** 2) / (2.0 * cfg.clot_sigma**2)
        )
    return field


def _draw_scene_params(cfg: ThermalConfig, rng: Rng) -> tuple[int, tuple[int, int]]:
    # Hotspot row is drawn for both labels so the noise stream stays aligned
    # between a positive and a negative sample generated from the same seed.
    lo_x, hi_x = cfg.clot_margin, cfg.width - 1 - cfg.clot_margin
    lo_y, hi_y = cfg.clot_margin, cfg.height - 1 - cfg.clot_margin
    col = lo_x + rng.randint(hi_x - lo_x + 1)
    cy = lo_y + rng.randint(hi_y - lo_y + 1)
    return col, (col, cy)


def generate_sample(cfg: ThermalConfig, label: int, rng: Rng) -> GrayImage:
    """One synthetic thermal frame; label=1 adds the clot hotspot."""
    return next(iter_frame_sequence(cfg, label, 1, rng))


def iter_frame_sequence(cfg: ThermalConfig, label: int, n_frames: int, rng: Rng
                        ) -> Iterator[GrayImage]:
    """Static-camera sequence: one scene, independent per-frame noise, each
    frame's noise drawn as the frame is taken."""
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    col, center = _draw_scene_params(cfg, rng)
    field = render_scene(cfg, col, center if label == 1 else None)
    for _ in range(n_frames):
        noisy = field
        if cfg.noise_sigma > 0:
            noisy = field + cfg.noise_sigma * rng.gaussian_array(cfg.width * cfg.height).reshape(
                cfg.height, cfg.width
            )
        yield GrayImage(np.clip(noisy, 0.0, 1.0))


def shuffled_labels(n: int, positive_fraction: float, rng: Rng) -> list[int]:
    """n labels, exactly round(n*positive_fraction) of them 1, order shuffled by rng."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 <= positive_fraction <= 1.0):
        raise ValueError("positive_fraction must be in [0, 1]")
    n_pos = int(np.floor(n * positive_fraction + 0.5))
    labels = [1] * n_pos + [0] * (n - n_pos)
    rng.shuffle(labels)
    return labels


def generate_dataset(
    cfg: ThermalConfig, n: int, positive_fraction: float, rng: Rng
) -> list[tuple[GrayImage, int]]:
    """Exactly round(n*positive_fraction) positives, order shuffled by rng."""
    labels = shuffled_labels(n, positive_fraction, rng)
    return [(generate_sample(cfg, lab, rng), lab) for lab in labels]


# ---------------------------------------------------------------------------
# Directory layout: PGM files plus manifest.csv (filename,label,seed)


def write_dataset(out_dir, n: int, positive_fraction: float, seed: int, render) -> None:
    """Write n samples and manifest.csv (filename,label,seed).  render(i, label,
    rng) gives sample i's (filename, bytes) pairs, each written before the next
    is taken.  The seed column records the generator state just before each
    sample so any row can be regenerated independently."""
    rng = Rng(seed)
    labels = shuffled_labels(n, positive_fraction, rng)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, lab in enumerate(labels):
        state = rng.state
        for name, data in render(i, lab, rng):
            (out / name).parent.mkdir(exist_ok=True)
            (out / name).write_bytes(data)
            rows.append((name, lab, state))
    write_manifest(out, rows)


def write_thermal_dataset(out_dir, cfg: ThermalConfig, n: int, positive_fraction: float, seed: int,
                          frames: int) -> None:
    """Write PGMs and a manifest.  frames in [1, MAX_FRAMES] writes per-sample
    sequence subdirs, one frame drawn and written at a time."""
    if not 0 <= frames <= MAX_FRAMES:
        raise ValueError(f"frames must be in [0, {MAX_FRAMES}], got {frames}")

    def render(i: int, label: int, rng: Rng) -> Iterator[tuple[str, bytes]]:
        names = [f"seq{i:04d}/frame{j:02d}.pgm" for j in range(frames)] or [f"sample{i:04d}.pgm"]
        images = iter_frame_sequence(cfg, label, len(names), rng)
        return ((name, write_pgm(image)) for name, image in zip(names, images))

    write_dataset(out_dir, n, positive_fraction, seed, render)


def write_manifest(out_dir, rows) -> None:
    """Write out_dir/manifest.csv from (filename, label, seed) rows."""
    with open(Path(out_dir) / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filename", "label", "seed"])
        writer.writerows(rows)


def load_manifest(data_dir) -> list[tuple[str, int]]:
    """Read manifest.csv; returns (filename, label) rows.  Each label is 0 or 1,
    and each filename is relative and stays inside data_dir: an absolute name,
    or one whose ".." parts lead out (resolved lexically, not through
    symlinks), is a FormatError."""
    path = Path(data_dir) / "manifest.csv"
    if not path.exists():
        raise FormatError(f"missing manifest.csv in {data_dir}")
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "filename" not in reader.fieldnames or "label" not in reader.fieldnames:
                raise FormatError("manifest.csv must have filename and label columns")
            for rec in reader:
                try:
                    label = int(rec["label"])
                except (TypeError, ValueError):
                    label = None
                name = rec["filename"]
                if not name or label not in (0, 1):
                    raise FormatError(f"bad manifest row {rec!r}")
                if os.path.isabs(name) or os.path.normpath(name).split(os.sep)[0] == os.pardir:
                    raise FormatError(f"manifest filename {name!r} is outside {data_dir}")
                rows.append((name, label))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"unreadable manifest.csv in {data_dir}: {exc}") from exc
    if not rows:
        raise FormatError("empty manifest")
    return rows
