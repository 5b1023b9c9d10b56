"""Multimodal pre-diagnostic toolkit: thermal clot detection, cardiopulmonary
audio classification, and skin-image preprocessing with classical ML."""

import os

# OpenBLAS sums a matrix product in an order set by its thread count, so one
# thread keeps every output's bits independent of the core count. OpenBLAS
# reads this when numpy loads: a program that loads numpy first must set it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .core import AudioSignal, GrayImage, LabeledDataset, Rng  # noqa: E402

__all__ = ["AudioSignal", "GrayImage", "LabeledDataset", "Rng"]
__version__ = "0.1.0"
