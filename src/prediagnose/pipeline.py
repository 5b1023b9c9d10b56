"""End-to-end flows: thermal clot (SVM), cardiopulmonary audio (forest), skin stand-in."""

from __future__ import annotations

from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .audioproc import MfccConfig, aggregate_features, mfcc, wavelet_denoise
from .core import AudioSignal, GrayImage, LabeledDataset, TrainingError, require_both_classes
from .forest import ForestHyperparams, ForestModel, forest_predict, train_random_forest
from .imageproc import HogConfig, canny, gaussian_blur, hog, hog_length, resize_bilinear
from .svm import SvmModel, svm_predict, train_svm_smo
from .voting import sequence_vote

CLOT_IMAGE_SIZE = 128
SKIN_IMAGE_SIZE = 224
# A clot blur's 3-sigma radius may not exceed the resized image's side: a
# wider kernel is nearly flat across the image, and each pass pads the image
# by the radius on both sides, so the cap also bounds that buffer.
MAX_BLUR_RADIUS = CLOT_IMAGE_SIZE
# Clot features per image, about 16 times the default 16,200. Each feature costs 8
# bytes per training row and 16 model-file bytes per support vector, so the
# cap bounds both; cell_size = 2 with bins = 180 would give 5.7 million.
MAX_CLOT_FEATURES = 1 << 18


@dataclass
class ClotPipelineConfig:
    canny_sigma: float = 1.4
    canny_low: float = 0.05
    canny_high: float = 0.15
    intensity_blur_sigma: float = 3.0
    hog: HogConfig = field(default_factory=HogConfig)
    svm_c: float = 10.0
    # None uses the variance-scale heuristic instead.  On the acceptance
    # split (500 training, 200 test images) 0.15 gives a near-identity Gram
    # matrix (largest off-diagonal 4.8e-7) and test accuracy 0.895, against
    # 0.950 with the heuristic (gamma 0.0048).
    svm_gamma: float | None = 0.15
    window: int = 5
    hog_view: str = "both"  # edge | intensity | both

    def __post_init__(self):
        for name in ("canny_sigma", "intensity_blur_sigma"):
            sigma = getattr(self, name)
            if not 0 < 3.0 * sigma <= MAX_BLUR_RADIUS:  # checked before any blur allocates
                raise ValueError(f"{name}={sigma} must be > 0 with a 3-sigma radius of at most "
                                 f"{MAX_BLUR_RADIUS} pixels")
        if not 0 < self.canny_low < self.canny_high:  # canny would refuse them after a read
            raise ValueError(f"canny_low={self.canny_low} and canny_high={self.canny_high} must "
                             "satisfy 0 < canny_low < canny_high")
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("window must be odd and >= 1")
        # hog would refuse a bad geometry only once an image is decoded and featurized.
        per_view = hog_length(CLOT_IMAGE_SIZE, CLOT_IMAGE_SIZE, self.hog)
        if self.hog_view not in ("edge", "intensity", "both"):
            raise ValueError("hog_view must be edge, intensity or both")
        n_features = per_view * (2 if self.hog_view == "both" else 1)
        if n_features > MAX_CLOT_FEATURES:
            raise ValueError(f"the HOG settings give {n_features} features per image, over the "
                             f"cap of {MAX_CLOT_FEATURES}; use a larger cell_size or fewer bins")


@dataclass
class CardioPipelineConfig:
    mfcc: MfccConfig = field(default_factory=MfccConfig)
    denoise_levels: int = 4
    forest: ForestHyperparams = field(default_factory=ForestHyperparams)

    def __post_init__(self):
        if self.denoise_levels < 1:  # wavelet_denoise would refuse it only once a recording is read
            raise ValueError(f"denoise_levels={self.denoise_levels} must be >= 1")


def clot_features(img: GrayImage, cfg: ClotPipelineConfig) -> np.ndarray:
    """Resize a [0,1] image to 128x128, then HOG over the Canny edge map and/or
    the blurred intensity image."""
    img = resize_bilinear(img, CLOT_IMAGE_SIZE, CLOT_IMAGE_SIZE)
    parts = []
    if cfg.hog_view in ("edge", "both"):
        parts.append(hog(canny(img, cfg.canny_sigma, cfg.canny_low, cfg.canny_high), cfg.hog))
    if cfg.hog_view in ("intensity", "both"):
        parts.append(hog(gaussian_blur(img, cfg.intensity_blur_sigma), cfg.hog))
    return np.concatenate(parts)


def _feature_matrix(features, xs: list, cfg, threads: int) -> np.ndarray:
    """Each sample's features as a row of one (n, d) matrix, filled as rows arrive."""
    if threads > 1:  # one thread runs serially: a pool costs time even at one worker
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return _stack_rows(pool.map(lambda x: features(x, cfg), xs), len(xs))
    return _stack_rows((features(x, cfg) for x in xs), len(xs))


def _stack_rows(rows, n: int) -> np.ndarray:
    matrix = np.empty((0, 0))
    for i, row in enumerate(rows):
        if i == 0:
            matrix = np.empty((n, len(row)))
        matrix[i] = row
    return matrix


def _training_set(features, train: list, cfg, threads: int) -> LabeledDataset:
    """Feature matrix and labels of (sample, label) pairs; both classes required."""
    labels = [lab for _, lab in train]
    require_both_classes(labels)
    return LabeledDataset(_feature_matrix(features, [x for x, _ in train], cfg, threads),
                          np.array(labels))


def clot_train(train: list[tuple[GrayImage, int]], cfg: ClotPipelineConfig,
               threads: int) -> SvmModel:
    data = _training_set(clot_features, train, cfg, threads)
    return train_svm_smo(data, c=cfg.svm_c, gamma=cfg.svm_gamma)


def clot_predict_frame(model: SvmModel, img: GrayImage, cfg: ClotPipelineConfig
                       ) -> tuple[float, int]:
    return svm_predict(model, clot_features(img, cfg))


def clot_predict_sequence(model: SvmModel, frames: Iterable[GrayImage],
                          cfg: ClotPipelineConfig) -> int:
    """Sequence vote of the frames' labels; each frame is scored as it is taken."""
    labels = [clot_predict_frame(model, f, cfg)[1] for f in frames]
    return sequence_vote(labels, cfg.window)


def cardio_features(sig: AudioSignal, cfg: CardioPipelineConfig) -> np.ndarray:
    denoised = wavelet_denoise(sig, cfg.denoise_levels)
    return aggregate_features(mfcc(denoised, cfg.mfcc))


def cardio_train(recordings: list[tuple[AudioSignal, int]],
                 cfg: CardioPipelineConfig, threads: int) -> ForestModel:
    too_short = [
        i for i, (sig, _) in enumerate(recordings)
        if len(sig.samples) < int(round(cfg.mfcc.frame_len * sig.sample_rate))
    ]
    if too_short:
        raise TrainingError(f"recordings shorter than one MFCC frame at indices {too_short}")
    data = _training_set(cardio_features, recordings, cfg, threads)
    return train_random_forest(data, cfg.forest)


def cardio_predict(model: ForestModel, recording: AudioSignal,
                   cfg: CardioPipelineConfig) -> tuple[float, int]:
    return forest_predict(model, cardio_features(recording, cfg))


# ---------------------------------------------------------------------------
# Skin pipeline: preprocessing is in scope; the classifier is a clearly
# labeled stand-in for the out-of-scope deep model.

SKIN_STANDIN_NAME = "skin-standin-hog-svm"
_SKIN_HOG = HogConfig(cell_size=16)


@dataclass
class SkinPipelineConfig:
    """The stand-in has no settings; this gives its functions the same
    (sample, cfg) arguments as the other pipelines."""


def skin_features(img: GrayImage, cfg: SkinPipelineConfig) -> np.ndarray:
    """Resize a [0,1] image to 224x224, then HOG at cell size 16."""
    return hog(resize_bilinear(img, SKIN_IMAGE_SIZE, SKIN_IMAGE_SIZE), _SKIN_HOG)


def skin_standin_train(train: list[tuple[GrayImage, int]],
                       cfg: SkinPipelineConfig, threads: int) -> SvmModel:
    data = _training_set(skin_features, train, cfg, threads)
    return train_svm_smo(data, c=10.0, gamma=None)


def skin_standin_classify(model: SvmModel, img: GrayImage,
                          cfg: SkinPipelineConfig) -> tuple[float, int]:
    return svm_predict(model, skin_features(img, cfg))
