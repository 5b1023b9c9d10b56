import ast
import base64
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import prediagnose
from prediagnose import config as cfgmod
from prediagnose.cli import MAX_THREADS, build_parser, main
from prediagnose.audioproc import MAX_DURATION_S, MfccConfig, write_wav
from prediagnose.core import AudioSignal, FormatError, GrayImage, Rng
from prediagnose.forest import ForestHyperparams, ForestModel
from prediagnose.imageproc import gaussian_kernel_1d, write_pgm
from prediagnose.persist import PersistError, save_model
from prediagnose.pipeline import MAX_BLUR_RADIUS, CardioPipelineConfig, ClotPipelineConfig
from prediagnose.svm import SvmModel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigFiles:
    def test_defaults_without_file(self):
        clot = cfgmod.load_config(ClotPipelineConfig, None)
        assert clot.svm_c == 10.0 and clot.window == 5
        cardio = cfgmod.load_config(CardioPipelineConfig, None)
        assert cardio.mfcc.n_coeffs == 13 and cardio.n_trees == 100

    def test_overrides(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[imageproc]\ncanny_sigma = 2.0\nhog_view = edge\n"
            "[ml]\nsvm_c = 3.5\nwindow = 7\nn_trees = 20\n"
        )
        clot = cfgmod.load_config(ClotPipelineConfig, path)
        assert clot.canny_sigma == 2.0 and clot.svm_c == 3.5
        assert clot.window == 7 and clot.hog_view == "edge"
        cardio = cfgmod.load_config(CardioPipelineConfig, path)
        assert cardio.n_trees == 20

    def test_keys_the_config_does_not_use_are_named_on_stderr(self, tmp_path, capsys):
        # One file may serve every pipeline: keys of another are ignored, not rejected.
        path = tmp_path / "cfg.ini"
        path.write_text("[audioproc]\nhop = 0.02\n[ml]\nsvm_c = 3.5\nn_trees = 5\n")
        assert cfgmod.load_config(ClotPipelineConfig, path).svm_c == 3.5
        err = capsys.readouterr().err
        assert err == f"config {path}: ClotPipelineConfig does not use hop, n_trees; ignored\n"
        assert cfgmod.load_config(CardioPipelineConfig, path).n_trees == 5
        assert capsys.readouterr().err.endswith("does not use svm_c; ignored\n")
        path.write_text("[ml]\nn_trees = 5\n[audioproc]\nhop = 0.02\n")
        cfgmod.load_config(CardioPipelineConfig, path)
        cfgmod.load_config(CardioPipelineConfig, None)
        assert capsys.readouterr().err == ""

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[teleport]\nspeed = 9\n")
        with pytest.raises(FormatError, match="unknown config section"):
            cfgmod.load_config(ClotPipelineConfig, path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[ml]\nlearning_rate = 0.1\n")
        with pytest.raises(FormatError, match="unknown config key"):
            cfgmod.load_config(ClotPipelineConfig, path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[ml]\nsvm_c = fast\n")
        with pytest.raises(FormatError, match="bad value"):
            cfgmod.load_config(ClotPipelineConfig, path)

    @pytest.mark.parametrize("line", ["[ml]\nsvm_c = nan", "[ml]\nsvm_gamma = -inf",
                                      "[imageproc]\ncanny_sigma = inf",
                                      "[audioproc]\nhop = NaN"],
                             ids=["svm_c_nan", "svm_gamma_minus_inf", "canny_sigma_inf", "hop_nan"])
    def test_non_finite_float_rejected(self, tmp_path, line):
        path = tmp_path / "cfg.ini"
        path.write_text(line + "\n")
        with pytest.raises(FormatError, match="is not finite"):
            cfgmod.load_config(ClotPipelineConfig, path)

    def test_snapshot_round_trip(self):
        cfg = cfgmod.load_config(ClotPipelineConfig, None)
        snap = cfgmod.config_snapshot("clot", cfg)
        assert cfgmod.config_from_snapshot(ClotPipelineConfig, snap) == cfg
        ccfg = cfgmod.load_config(CardioPipelineConfig, None)
        snap = cfgmod.config_snapshot("cardio", ccfg)
        assert cfgmod.config_from_snapshot(CardioPipelineConfig, snap) == ccfg

    def test_default_snapshots_are_pinned(self):
        # The created_with record of a default model, key order included:
        # saved models are compared byte for byte.
        clot = cfgmod.config_snapshot("clot", ClotPipelineConfig())
        assert list(clot.items()) == [
            ("pipeline", "clot"), ("canny_sigma", 1.4), ("canny_low", 0.05),
            ("canny_high", 0.15), ("intensity_blur_sigma", 3.0), ("cell_size", 8),
            ("block_size", 2), ("bins", 9), ("svm_c", 10.0), ("svm_gamma", 0.15),
            ("window", 5), ("hog_view", "both"),
        ]
        cardio = cfgmod.config_snapshot("cardio", CardioPipelineConfig())
        assert list(cardio.items()) == [
            ("pipeline", "cardio"), ("frame_len", 0.025), ("hop", 0.010),
            ("pre_emphasis", 0.97), ("n_filters", 26), ("n_coeffs", 13),
            ("log_floor", 1e-10), ("denoise_levels", 4), ("n_trees", 100),
            ("max_depth", 12), ("min_samples_leaf", 2), ("mtry", None), ("seed", 0),
        ]

    @pytest.mark.parametrize("cls, snap", [
        (ClotPipelineConfig, {"window": "x"}),
        (ClotPipelineConfig, {"window": None}),
        (ClotPipelineConfig, {"svm_c": True}),
        (ClotPipelineConfig, {"cell_size": 8.0}),
        (ClotPipelineConfig, {"hog_view": 3}),
        (CardioPipelineConfig, {"n_filters": "26"}),
        (CardioPipelineConfig, {"mtry": 2.5}),
        (ClotPipelineConfig, {"svm_c": float("nan")}),
        (ClotPipelineConfig, {"canny_sigma": float("inf")}),
        (ClotPipelineConfig, {"svm_gamma": -10**400}),
    ], ids=["window_str", "window_none", "svm_c_bool", "cell_size_float", "hog_view_int",
            "n_filters_str", "mtry_float", "svm_c_nan", "canny_sigma_inf", "svm_gamma_huge_int"])
    def test_snapshot_value_of_wrong_type_rejected(self, cls, snap):
        with pytest.raises(PersistError, match="config value"):
            cfgmod.config_from_snapshot(cls, snap)

    @pytest.mark.parametrize("name", ["canny_sigma", "intensity_blur_sigma"])
    def test_blur_sigma_capped_at_the_radius_bound(self, name):
        # The largest sigma whose 3-sigma radius, as gaussian_kernel_1d rounds
        # it, is MAX_BLUR_RADIUS is accepted; the next float above it is not.
        # Building the config allocates nothing, so the rejected case is safe.
        sigma = MAX_BLUR_RADIUS / 3
        while 3.0 * np.nextafter(sigma, np.inf) <= MAX_BLUR_RADIUS:
            sigma = np.nextafter(sigma, np.inf)
        ClotPipelineConfig(**{name: float(sigma)})
        assert len(gaussian_kernel_1d(float(sigma))) == 2 * MAX_BLUR_RADIUS + 1
        for bad in (float(np.nextafter(sigma, np.inf)), 0.0, -1.0):
            with pytest.raises(ValueError, match=name):
                ClotPipelineConfig(**{name: bad})

    def test_frame_len_capped_at_the_recording_cap(self):
        MfccConfig(frame_len=MAX_DURATION_S)
        with pytest.raises(ValueError, match="recording cap"):
            MfccConfig(frame_len=float(np.nextafter(MAX_DURATION_S, np.inf)))

    def test_snapshot_none_only_where_the_field_allows_it(self):
        assert cfgmod.config_from_snapshot(ClotPipelineConfig, {"svm_gamma": None}).svm_gamma is None
        assert cfgmod.config_from_snapshot(CardioPipelineConfig, {"mtry": None}).mtry is None
        assert cfgmod.config_from_snapshot(ClotPipelineConfig, {"svm_c": 3}).svm_c == 3


CLOT_FEATURES = 2 * 8100


def tiny_svm_file(created_with, **payload) -> bytes:
    """A one-vector SVM over the clot features; payload items replace its fields."""
    doc = json.loads(save_model(SvmModel(np.zeros((1, CLOT_FEATURES)), np.ones(1), 0.0, 1.0, 1.0),
                                created_with))
    doc["payload"].update(payload)
    return json.dumps(doc).encode()


def zeros_but(value) -> np.ndarray:
    """One clot support vector of zeros with value at feature 7."""
    values = np.zeros((1, CLOT_FEATURES))
    values[0, 7] = value
    return values


def packed_svm_file(values=None, shape=None, text=lambda t: t) -> bytes:
    """tiny_svm_file with its packed support vectors replaced: values (little-
    endian float64) in place of the zeros, shape in place of theirs, and
    text(t) in place of the base64 text t."""
    values = np.zeros((1, CLOT_FEATURES)) if values is None else values
    t = base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()
    return tiny_svm_file({"pipeline": "clot"}, support_vectors={
        "shape": list(np.shape(values)) if shape is None else shape, "float64le_base64": text(t)})


def tiny_forest_file(feature: int = 0, **payload) -> bytes:
    """A one-split cardio forest over 26 features whose root reads `feature`;
    payload items replace its fields."""
    root = {"feature": feature, "threshold": 0.0, "left": {"leaf": [1, 0]},
            "right": {"leaf": [0, 1]}}
    hp = ForestHyperparams(n_trees=1, max_depth=1, min_samples_leaf=1, mtry=None, seed=0)
    doc = json.loads(save_model(ForestModel([root], 26, hp), {"pipeline": "cardio"}))
    doc["payload"].update(payload)
    return json.dumps(doc).encode()


def model(data: bytes) -> dict:
    return {"m.pdmodel.json": data}


def clot_train_data(ini: str) -> dict:
    """A two-image clot training set in data/ and the config file c.ini."""
    images = {f"data/{name}.pgm": write_pgm(GrayImage(np.full((8, 8), 0.1 + 0.8 * i)))
              for i, name in enumerate("ab")}
    return {**images, "data/manifest.csv": b"filename,label\na.pgm,0\nb.pgm,1\n",
            "c.ini": ini.encode()}


def cardio_train_data(ini: str) -> dict:
    """A two-recording cardio training set in data/ and the config file c.ini."""
    wavs = {f"data/{name}.wav": write_wav(AudioSignal(np.full(2000, 0.1 * i), 4000))
            for i, name in enumerate("ab")}
    return {**wavs, "data/manifest.csv": b"filename,label\na.wav,0\nb.wav,1\n",
            "c.ini": ini.encode()}


def cardio_created_with(item: bytes) -> bytes:
    """tiny_forest_file with item (JSON text such as b'"hop": 0.5') added to created_with."""
    return tiny_forest_file(0).replace(b'"pipeline": "cardio"', b'"pipeline": "cardio", ' + item)


def four_samples(kind: str) -> dict:
    """Four samples of kind in data/, two of each label: enough for eval
    --kfold 2.  The recordings are noise, so no filterbank energy is zero."""
    if kind == "clot":
        samples = {f"{i}.pgm": write_pgm(GrayImage(np.full((8, 8), 0.1 + 0.2 * i)))
                   for i in range(4)}
    else:
        samples = {f"{i}.wav": write_wav(AudioSignal(0.1 * Rng(i).gaussian_array(2000), 4000))
                   for i in range(4)}
    rows = "".join(f"{name},{i % 2}\n" for i, name in enumerate(samples))
    return {"data/manifest.csv": f"filename,label\n{rows}".encode(),
            **{f"data/{name}": data for name, data in samples.items()}}


def clot_data(*names: str) -> dict:
    """A clot model, and a data directory whose manifest lists names with
    alternating labels."""
    rows = "".join(f"{name},{i % 2}\n" for i, name in enumerate(names))
    return {**model(tiny_svm_file({"pipeline": "clot"})),
            "data/manifest.csv": f"filename,label\n{rows}".encode()}


# One row per malformed input: argv ("{tmp}" is the test's directory, which
# also holds a valid recording x.wav and a valid image x.pgm), the files to
# write under {tmp} as {relative path: bytes}
# ("{tmp}" in the bytes is replaced too), and the exit code.  Nothing may be
# written to {tmp}/d, so commands that write name it as their output.
MALFORMED = {
    "positive_frac_above_1": (
        ["synth", "thermal", "--out", "{tmp}/d", "--n", "4", "--positive-frac", "1.5",
         "--seed", "1"], {}, 1),
    "positive_frac_below_0": (
        ["synth", "cardio", "--task", "lung", "--out", "{tmp}/d", "--n", "4",
         "--positive-frac", "-0.5", "--seed", "1"], {}, 1),
    "positive_frac_not_a_number": (
        ["synth", "thermal", "--out", "{tmp}/d", "--n", "4", "--positive-frac", "half",
         "--seed", "1"], {}, 1),
    "synth_n_zero": (
        ["synth", "thermal", "--out", "{tmp}/d", "--n", "0", "--seed", "1"], {}, 1),
    "synth_n_negative": (
        ["synth", "cardio", "--task", "heart", "--out", "{tmp}/d", "--n", "-3", "--seed", "1"],
        {}, 1),
    "threads_flag_zero": (
        ["train", "cardio", "--data", "{tmp}/d", "--out", "{tmp}/o.pdmodel.json",
         "--threads", "0"], {}, 1),
    "threads_flag_negative": (
        ["eval", "--model", "{tmp}/m.pdmodel.json", "--data", "{tmp}/d", "--threads", "-1"],
        model(tiny_svm_file({"pipeline": "clot"})), 1),
    # One above the cap is refused while parsing, before any thread starts.
    "threads_above_cap_train": (
        ["train", "cardio", "--data", "{tmp}/data", "--out", "{tmp}/d",
         "--threads", str(MAX_THREADS + 1)], cardio_train_data(""), 1),
    "threads_above_cap_eval": (
        ["eval", "--model", "{tmp}/m.pdmodel.json", "--data", "{tmp}/data",
         "--threads", str(MAX_THREADS + 1)],
        {**model(tiny_forest_file(0)), **four_samples("cardio")}, 1),
    "threads_above_cap_predict": (
        ["predict", "cardio", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.wav",
         "--threads", str(MAX_THREADS + 1)], model(tiny_forest_file(0)), 1),
    "kfold_one": (
        ["eval", "--model", "{tmp}/m.pdmodel.json", "--data", "{tmp}/d", "--kfold", "1"],
        model(tiny_svm_file({"pipeline": "clot"})), 1),
    "kfold_zero": (
        ["eval", "--model", "{tmp}/m.pdmodel.json", "--data", "{tmp}/d", "--kfold", "0"],
        model(tiny_svm_file({"pipeline": "clot"})), 1),
    "window_even": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--sequence", "{tmp}/d",
         "--window", "4"], model(tiny_svm_file({"pipeline": "clot"})), 1),
    "window_zero": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--sequence", "{tmp}/d",
         "--window", "0"], model(tiny_svm_file({"pipeline": "clot"})), 1),
    "window_negative": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--sequence", "{tmp}/d",
         "--window", "-1"], model(tiny_svm_file({"pipeline": "clot"})), 1),
    "created_with_window_not_an_int": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(tiny_svm_file({"pipeline": "clot", "window": "x"})), 2),
    "created_with_none_not_allowed": (
        ["eval", "--model", "{tmp}/m.pdmodel.json", "--data", "{tmp}/d"],
        model(tiny_svm_file({"pipeline": "clot", "window": None})), 2),
    "created_with_cardio_value_not_an_int": (
        ["predict", "cardio", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.wav"],
        model(cardio_created_with(b'"n_filters": "x"')), 2),
    "forest_feature_negative": (
        ["predict", "cardio", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.wav"],
        model(tiny_forest_file(-1)), 2),
    "forest_feature_too_large": (
        ["predict", "cardio", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.wav"],
        model(tiny_forest_file(26)), 2),
    "predict_clot_without_input": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json"],
        model(tiny_svm_file({"pipeline": "clot"})), 1),
    "predict_cardio_without_input": (
        ["predict", "cardio", "--model", "{tmp}/m.pdmodel.json"],
        model(tiny_svm_file({"pipeline": "cardio"})), 1),
    "predict_skin_without_input": (
        ["predict", "skin", "--model", "{tmp}/m.pdmodel.json"],
        model(tiny_svm_file({"pipeline": "skin"})), 1),
    "predict_input_and_sequence": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm",
         "--sequence", "{tmp}/d"], model(tiny_svm_file({"pipeline": "clot"})), 1),
    "predict_window_without_sequence": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm",
         "--window", "3"], model(tiny_svm_file({"pipeline": "clot"})), 1),
    "predict_cardio_sequence": (
        ["predict", "cardio", "--model", "{tmp}/m.pdmodel.json", "--sequence", "{tmp}/d"],
        model(tiny_forest_file(0)), 1),
    "predict_cardio_window": (
        ["predict", "cardio", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.wav",
         "--window", "3"], model(tiny_forest_file(0)), 1),
    "predict_skin_sequence": (
        ["predict", "skin", "--model", "{tmp}/m.pdmodel.json", "--sequence", "{tmp}/d"],
        model(tiny_svm_file({"pipeline": "skin"})), 1),
    "predict_skin_window": (
        ["predict", "skin", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm",
         "--window", "3"], model(tiny_svm_file({"pipeline": "skin"})), 1),
    "synth_frames_negative": (
        ["synth", "thermal", "--out", "{tmp}/d", "--n", "2", "--seed", "1", "--frames", "-2"],
        {}, 1),
    "synth_frames_above_cap": (
        ["synth", "thermal", "--out", "{tmp}/d", "--n", "2", "--seed", "1", "--frames", "10001"],
        {}, 1),
    "synth_rate_unsupported": (
        ["synth", "cardio", "--task", "lung", "--out", "{tmp}/d", "--n", "2", "--seed", "1",
         "--rate", "5000"], {}, 1),
    "synth_duration_too_short": (
        ["synth", "cardio", "--task", "heart", "--out", "{tmp}/d", "--n", "2", "--seed", "1",
         "--duration", "1"], {}, 1),
    "synth_duration_too_long": (
        ["synth", "cardio", "--task", "heart", "--out", "{tmp}/d", "--n", "2", "--seed", "1",
         "--duration", "1e7"], {}, 1),
    "config_thermal_width_huge": (
        ["synth", "thermal", "--out", "{tmp}/d", "--n", "2", "--seed", "1", "--config",
         "{tmp}/c.ini"], {"c.ini": b"[synththermal]\nwidth = 4000000000\n"}, 2),
    "svm_gamma_negative": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(tiny_svm_file({"pipeline": "clot"}, gamma=-1)), 2),
    "svm_bias_nan": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(tiny_svm_file({"pipeline": "clot"}, bias=float("nan"))), 2),
    "forest_leaf_negative": (
        ["predict", "cardio", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.wav"],
        model(tiny_forest_file(trees=[{"leaf": [-5, 0]}])), 2),
    "forest_without_trees": (
        ["predict", "cardio", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.wav"],
        model(tiny_forest_file(trees=[])), 2),
    "forest_n_trees_disagrees": (
        ["predict", "cardio", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.wav"],
        model(tiny_forest_file(hyperparams={"n_trees": 100, "max_depth": 1,
                                                "min_samples_leaf": 1, "mtry": None, "seed": 0})),
        2),
    "forest_mtry_bool": (
        ["predict", "cardio", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.wav"],
        model(tiny_forest_file(hyperparams={"n_trees": 1, "max_depth": 1,
                                                "min_samples_leaf": 1, "mtry": True, "seed": 0})),
        2),
    "model_nested_too_deeply": (
        ["predict", "cardio", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.wav"],
        model(b"[" * 100_000 + b"]" * 100_000), 2),
    "manifest_name_leaves_data_dir": (
        ["eval", "--model", "{tmp}/m.pdmodel.json", "--data", "{tmp}/data"],
        clot_data("../x.pgm", "../x.pgm"), 2),
    "manifest_name_absolute": (
        ["eval", "--model", "{tmp}/m.pdmodel.json", "--data", "{tmp}/data"],
        clot_data("{tmp}/x.pgm", "{tmp}/x.pgm"), 2),
    "manifest_not_utf8": (
        ["eval", "--model", "{tmp}/m.pdmodel.json", "--data", "{tmp}/data"],
        {**clot_data(), "data/manifest.csv": b"filename,label\n\xff.pgm,1\n"}, 2),
    "config_svm_c_nan": (
        ["train", "clot", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        clot_train_data("[ml]\nsvm_c = nan\n"), 2),
    "config_canny_sigma_inf": (
        ["train", "clot", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        clot_train_data("[imageproc]\ncanny_sigma = inf\n"), 2),
    "config_svm_gamma_negative": (
        ["train", "clot", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        clot_train_data("[ml]\nsvm_gamma = -1\n"), 3),
    "created_with_canny_sigma_infinite": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(tiny_svm_file({"pipeline": "clot"}).replace(
            b'"pipeline": "clot"', b'"pipeline": "clot", "canny_sigma": Infinity')), 2),
    "packed_not_base64_char": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(text=lambda t: t[:9] + "*" + t[10:])), 2),
    "packed_bad_padding": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(text=lambda t: t[:9] + "=" + t[10:])), 2),
    "packed_space": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(text=lambda t: t[:9] + " " + t[10:])), 2),
    "packed_newline": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(text=lambda t: t[:9] + "\n" + t[10:])), 2),
    "packed_line_breaks": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(text=lambda t: base64.encodebytes(base64.b64decode(t)).decode())), 2),
    "packed_byte_count": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(np.zeros(CLOT_FEATURES - 1), shape=[1, CLOT_FEATURES])), 2),
    "packed_byte_count_padded": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(text=lambda t: t[:-4] + "AA==")), 2),
    "packed_nan": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(zeros_but(np.nan))), 2),
    "packed_inf": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(zeros_but(np.inf))), 2),
    "packed_minus_inf": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(zeros_but(-np.inf))), 2),
    "packed_empty": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(np.zeros((1, 0)))), 2),
    "packed_shape_one_entry": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(shape=[CLOT_FEATURES])), 2),
    "packed_shape_three_entries": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(shape=[1, CLOT_FEATURES, 1])), 2),
    "packed_shape_negative": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(shape=[-1, -CLOT_FEATURES])), 2),
    "packed_shape_bool": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(shape=[True, CLOT_FEATURES])), 2),
    "packed_shape_float": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(shape=[1.0, CLOT_FEATURES])), 2),
    "packed_shape_huge": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file(shape=[2**40, 2**40])), 2),
    "packed_in_v1_file": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(packed_svm_file().replace(b'"format_version": 2', b'"format_version": 1')), 2),
    "nested_list_in_v2_file": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(tiny_svm_file({"pipeline": "clot"}, support_vectors=[[0.0] * CLOT_FEATURES])), 2),
    "synth_thermal_out_is_a_file": (
        ["synth", "thermal", "--out", "{tmp}/x.pgm", "--n", "2", "--seed", "1"], {}, 2),
    "synth_cardio_out_is_a_file": (
        ["synth", "cardio", "--task", "heart", "--out", "{tmp}/x.wav", "--n", "2", "--seed", "1"],
        {}, 2),
    "train_out_under_a_file": (
        ["train", "clot", "--data", "{tmp}/data", "--out", "{tmp}/x.pgm/m.pdmodel.json"],
        clot_train_data(""), 2),
    "predict_model_under_a_file": (
        ["predict", "clot", "--model", "{tmp}/x.pgm/x", "--input", "{tmp}/x.pgm"], {}, 2),
    "eval_roc_csv_under_a_file": (
        ["eval", "--model", "{tmp}/m.pdmodel.json", "--data", "{tmp}/data", "--roc-csv",
         "{tmp}/x.pgm/r.csv"], {**clot_train_data(""), **clot_data("a.pgm", "b.pgm")}, 2),
    "config_denoise_levels_beyond_signal": (
        ["train", "cardio", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        cardio_train_data("[audioproc]\ndenoise_levels = 40\n"), 2),
    "config_n_filters_beyond_fft": (
        ["train", "cardio", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        cardio_train_data("[audioproc]\nn_filters = 100000000\n"), 2),
    "config_hop_under_one_sample": (
        ["train", "cardio", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        cardio_train_data("[audioproc]\nhop = 0.00001\n"), 2),
    "config_frame_len_under_two_samples": (
        ["train", "cardio", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        cardio_train_data("[audioproc]\nframe_len = 0.0001\nhop = 0.0001\n"), 2),
    # Huge but finite scales: each used to end in an OverflowError traceback
    # (exit 1) when a radius or frame length was rounded to an int.  A large
    # sigma such as 1e6 would instead ask for gigabytes; the same check refuses
    # it, and it is not run here.
    "config_frame_len_over_recording_cap": (
        ["train", "cardio", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        cardio_train_data("[audioproc]\nframe_len = 1e305\n"), 2),
    "created_with_frame_len_over_recording_cap": (
        ["predict", "cardio", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.wav"],
        model(cardio_created_with(b'"frame_len": 1e305')), 2),
    "config_canny_sigma_huge": (
        ["train", "clot", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        clot_train_data("[imageproc]\ncanny_sigma = 1e308\n"), 2),
    "config_intensity_blur_sigma_huge": (
        ["train", "clot", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        clot_train_data("[imageproc]\nintensity_blur_sigma = 1e308\n"), 2),
    "created_with_intensity_blur_sigma_huge": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(tiny_svm_file({"pipeline": "clot", "intensity_blur_sigma": 1e308})), 2),
    "created_with_canny_sigma_negative": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(tiny_svm_file({"pipeline": "clot", "canny_sigma": -1.4})), 2),
    "config_bins_finer_than_a_degree": (
        ["train", "clot", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        clot_train_data("[imageproc]\nbins = 4000000000\n"), 2),
    "config_n_trees_zero": (
        ["train", "cardio", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        cardio_train_data("[ml]\nn_trees = 0\n"), 3),
    "config_n_trees_negative": (
        ["train", "cardio", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        cardio_train_data("[ml]\nn_trees = -3\n"), 3),
    "config_mtry_zero": (
        ["train", "cardio", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        cardio_train_data("[ml]\nmtry = 0\n"), 3),
    "config_mtry_negative": (
        ["train", "cardio", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        cardio_train_data("[ml]\nmtry = -1\n"), 3),
    "config_max_depth_negative": (
        ["train", "cardio", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        cardio_train_data("[ml]\nmax_depth = -1\n"), 3),
    "config_min_samples_leaf_negative": (
        ["train", "cardio", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        cardio_train_data("[ml]\nmin_samples_leaf = -2\n"), 3),
    "config_pipeline_section": (
        ["train", "cardio", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        cardio_train_data("[pipeline]\ntask = heart\n"), 2),
    "created_with_denoise_levels_beyond_signal": (
        ["predict", "cardio", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.wav"],
        model(cardio_created_with(b'"denoise_levels": 40')), 2),
    "created_with_hop_under_one_sample": (
        ["eval", "--model", "{tmp}/m.pdmodel.json", "--data", "{tmp}/data"],
        {**cardio_train_data(""), **model(cardio_created_with(b'"hop": 0.00001'))}, 2),
    "created_with_bins_finer_than_a_degree": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(tiny_svm_file({"pipeline": "clot", "bins": 4000000000})), 2),
    "config_percent_sign": (
        ["train", "clot", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        clot_train_data("[ml]\nsvm_c = 10%\n"), 2),
    "config_interpolation_of_missing_key": (
        ["train", "clot", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        clot_train_data("[ml]\nsvm_c = %(foo)s\n"), 2),
    "config_interpolation_of_other_key": (
        ["train", "clot", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        clot_train_data("[ml]\nseed = 3\nsvm_c = %(seed)s\n"), 2),
    "config_log_floor_zero": (
        ["train", "cardio", "--data", "{tmp}/data", "--config", "{tmp}/c.ini", "--out", "{tmp}/d"],
        {**four_samples("cardio"), "c.ini": b"[audioproc]\nlog_floor = 0\n"}, 2),
    "created_with_log_floor_negative": (
        ["predict", "cardio", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.wav"],
        model(cardio_created_with(b'"log_floor": -1e-10')), 2),
    "kfold_forest_tagged_clot": (
        ["eval", "--model", "{tmp}/m.pdmodel.json", "--data", "{tmp}/data", "--kfold", "2"],
        {**four_samples("clot"), **model(tiny_forest_file(0).replace(b'"cardio"', b'"clot"'))},
        2),
    "kfold_svm_tagged_cardio": (
        ["eval", "--model", "{tmp}/m.pdmodel.json", "--data", "{tmp}/data", "--kfold", "2"],
        {**four_samples("cardio"), **model(tiny_svm_file({"pipeline": "cardio"}))}, 2),
    "predict_svm_tagged_cardio": (
        ["predict", "cardio", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.wav"],
        model(save_model(SvmModel(np.zeros((1, 26)), np.ones(1), 0.0, 1.0, 1.0),
                         {"pipeline": "cardio"})), 2),
    # A tag that is not a string names no pipeline.
    "pipeline_tag_a_list": (
        ["eval", "--model", "{tmp}/m.pdmodel.json", "--data", "{tmp}/data"],
        {**four_samples("clot"), **model(tiny_svm_file({"pipeline": ["clot"]}))}, 2),
    "pipeline_tag_an_object": (
        ["predict", "clot", "--model", "{tmp}/m.pdmodel.json", "--input", "{tmp}/x.pgm"],
        model(tiny_svm_file({"pipeline": {"clot": 1}})), 2),
    "report_nested_100000_deep": (
        ["report", "--inputs", "{tmp}/r.json", "--out", "{tmp}/d"],
        {"r.json": b"[" * 100_000 + b"]" * 100_000}, 2),
    "report_nested_980_deep": (
        ["report", "--inputs", "{tmp}/r.json", "--out", "{tmp}/d"],
        {"r.json": b"[" * 980 + b"]" * 980}, 2),
    "report_nested_900_deep": (
        ["report", "--inputs", "{tmp}/r.json", "--out", "{tmp}/d"],
        {"r.json": b"[" * 900 + b"]" * 900}, 2),
    "report_input_nan": (
        ["report", "--inputs", "{tmp}/r.json", "--out", "{tmp}/d"],
        {"r.json": b'{"auc": NaN}'}, 2),
}


@pytest.mark.parametrize("row", sorted(MALFORMED))
def test_malformed_input_exit_code(row, tmp_path, capsys):
    argv, files, expected = MALFORMED[row]
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(data.replace(b"{tmp}", str(tmp_path).encode()))
    (tmp_path / "x.wav").write_bytes(write_wav(AudioSignal(np.zeros(2000), 4000)))
    (tmp_path / "x.pgm").write_bytes(write_pgm(GrayImage(np.full((8, 8), 0.5))))
    code, out, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert code == expected
    assert out == ""
    assert {1: "usage error", 2: "data error", 3: "training error"}[expected] in err
    assert not (tmp_path / "d").exists()


class TestWavLengthCap:
    def test_predict_cardio_refuses_a_recording_over_the_cap(self, tmp_path, capsys):
        # One frame over MAX_DURATION_S at 100 Hz: a 120 KB file stands in for
        # the gigabytes a long recording at a real rate would take.
        (tmp_path / "m.pdmodel.json").write_bytes(tiny_forest_file(0))
        (tmp_path / "long.wav").write_bytes(write_wav(AudioSignal(np.zeros(60_001), 100)))
        code, out, err = run(capsys, "predict", "cardio", "--model", str(tmp_path / "m.pdmodel.json"),
                             "--input", str(tmp_path / "long.wav"))
        assert (code, out) == (2, "")
        assert "data error" in err and "600 s cap of 60000 frames at 100 Hz" in err


class TestImageSizeCap:
    def test_predict_clot_refuses_an_image_over_the_cap(self, tmp_path, capsys):
        # One row over the 36-megapixel cap: a 36 MB file, refused from its
        # header before the 288 MB [0,1] image is made.
        (tmp_path / "m.pdmodel.json").write_bytes(tiny_svm_file({"pipeline": "clot"}))
        with open(tmp_path / "big.pgm", "wb") as fh:
            fh.write(b"P5\n6000 6001\n255\n")
            fh.truncate(fh.tell() + 6000 * 6001)
        code, out, err = run(capsys, "predict", "clot", "--model", str(tmp_path / "m.pdmodel.json"),
                             "--input", str(tmp_path / "big.pgm"))
        assert (code, out) == (2, "")
        assert "data error" in err and "6000x6001 image is over the 36000000-pixel cap" in err


class TestSequenceOrder:
    def test_frames_reach_the_vote_in_numeric_order(self, tmp_path, capsys, monkeypatch):
        # Digit runs compare as numbers; frame01 and frame1 tie and go by name.
        names = ["frame01", "frame1", "frame2", "frame10", "frame11", "frame100"]
        (tmp_path / "seq").mkdir()
        for i, name in enumerate(names):
            (tmp_path / "seq" / f"{name}.pgm").write_bytes(
                write_pgm(GrayImage(np.full((8, 8), i / 255))))
        (tmp_path / "m.pdmodel.json").write_bytes(tiny_svm_file({"pipeline": "clot"}))
        voted = []

        def vote(model, frames, cfg):
            voted.extend(round(frame.pixels[0, 0] * 255) for frame in frames)
            return 0

        monkeypatch.setattr("prediagnose.cli.clot_predict_sequence", vote)
        code, out, _ = run(capsys, "predict", "clot", "--model", str(tmp_path / "m.pdmodel.json"),
                           "--sequence", str(tmp_path / "seq"))
        assert code == 0 and json.loads(out)["n_frames"] == len(names)
        assert voted == list(range(len(names)))


@pytest.fixture(scope="module")
def twelve_ws(tmp_path_factory):
    """Twelve-sample thermal and heart sets, in img/ and wav/."""
    base = tmp_path_factory.mktemp("twelve")
    assert main(["synth", "thermal", "--out", str(base / "img"), "--n", "12",
                 "--seed", "12"]) == 0
    assert main(["synth", "cardio", "--task", "heart", "--out", str(base / "wav"), "--n", "12",
                 "--seed", "12", "--rate", "4000", "--duration", "2.0"]) == 0
    return base


class TestModalityRecord:
    @pytest.mark.parametrize("kind", ["clot", "cardio", "skin"])
    def test_train_accuracy_is_eval_accuracy_on_the_training_set(self, kind, twelve_ws, capsys,
                                                                 tmp_path):
        # train scores one row at a time, eval one matrix; on these sets no
        # label differs between the two.
        data = str(twelve_ws / ("wav" if kind == "cardio" else "img"))
        model = str(tmp_path / "m.pdmodel.json")
        code, out, _ = run(capsys, "train", kind, "--data", data, "--out", model)
        assert code == 0
        train_accuracy = json.loads(out)["train_accuracy"]
        code, out, _ = run(capsys, "eval", "--model", model, "--data", data)
        assert code == 0
        assert train_accuracy == json.loads(out)["accuracy"]

    def test_commands_use_the_functions_bound_in_cli_when_they_run(self, twelve_ws, capsys,
                                                                   tmp_path, monkeypatch):
        # The benchmark traces each command by rebinding these names in cli
        # after import; a record built at import would call the originals.
        calls = {}
        for name in ("cardio_features", "cardio_train", "cardio_predict", "forest_predict_batch",
                     "train_random_forest"):
            def counted(*args, fn=getattr(prediagnose.cli, name), name=name):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            monkeypatch.setattr(f"prediagnose.cli.{name}", counted)
        data, model = twelve_ws / "wav", tmp_path / "m.pdmodel.json"
        (tmp_path / "c.ini").write_text("[ml]\nn_trees = 5\n")
        commands = {
            "train": ["train", "cardio", "--data", data, "--config", tmp_path / "c.ini",
                      "--out", model],
            "eval": ["eval", "--model", model, "--data", data],
            "kfold": ["eval", "--model", model, "--data", data, "--kfold", "3"],
            "predict": ["predict", "cardio", "--model", model,
                        "--input", sorted(data.glob("*.wav"))[0]],
        }
        seen = {}
        for command, argv in commands.items():
            calls.clear()
            assert run(capsys, *map(str, argv))[0] == 0
            seen[command] = dict(calls)
        # cardio_train computes its features and fits its forest through
        # pipeline's names, not cli's.
        assert seen == {
            "train": {"cardio_train": 1, "cardio_predict": 12},
            "eval": {"cardio_features": 12, "forest_predict_batch": 1},
            "kfold": {"cardio_features": 12, "train_random_forest": 3, "forest_predict_batch": 3},
            "predict": {"cardio_predict": 1},
        }


class TestEvalMemory:
    def test_eval_holds_the_feature_matrix_not_the_decoded_inputs(self, tmp_path, capsys):
        # 60 images: 7.9 MB decoded, 7.8 MB of features. eval decodes and
        # featurizes each in one step, and eval --kfold drops each fold's
        # model, with its training copy, before the next refit. The margin
        # covers the loaded 6-image model (0.8 MB), one clot_features call
        # (0.9 MB) and the squared norms' 1 MB block.
        n, k, margin = 60, 3, 3_000_000
        for name, count, seed in (("small", 6, 3), ("images", n, 4)):
            assert run(capsys, "synth", "thermal", "--out", str(tmp_path / name),
                       "--n", str(count), "--seed", str(seed))[0] == 0
        model = str(tmp_path / "m.pdmodel.json")
        assert run(capsys, "train", "clot", "--data", str(tmp_path / "small"),
                   "--out", model)[0] == 0
        row = 8 * CLOT_FEATURES
        bounds = {(): n * row + margin,
                  # the feature matrix, the largest training fold and its held-out rows
                  ("--kfold", str(k)): (n + (n - n // k) + -(-n // k)) * row + margin}
        for extra, bound in bounds.items():
            tracemalloc.start()
            try:
                code = main(["eval", "--model", model, "--data", str(tmp_path / "images"), *extra])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < bound, extra


def fresh_python(*argv: str) -> str:
    """stdout of a fresh interpreter that imports this package from its source
    tree; a nonzero exit fails the test."""
    src = str(Path(prediagnose.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, check=True).stdout


# Runs every command of the CLI's toy flow with a finder on sys.meta_path that
# refuses any scipy module, so a SciPy import hidden inside a function fails.
NO_SCIPY_FLOW = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"the runtime imported {name}")

sys.meta_path.insert(0, RefuseScipy())
from prediagnose.cli import main

commands = [
    "synth thermal --out {t}/clot --n 8 --seed 1",
    "train clot --data {t}/clot --out {t}/clot.pdmodel.json",
    "eval --model {t}/clot.pdmodel.json --data {t}/clot",
    "eval --model {t}/clot.pdmodel.json --data {t}/clot --kfold 2",
    "predict clot --model {t}/clot.pdmodel.json --input {t}/clot/sample0000.pgm",
    "synth cardio --task heart --out {t}/cardio --n 8 --seed 1 --rate 4000 --duration 2",
    "train cardio --data {t}/cardio --out {t}/cardio.pdmodel.json",
    "eval --model {t}/cardio.pdmodel.json --data {t}/cardio",
    "eval --model {t}/cardio.pdmodel.json --data {t}/cardio --kfold 2",
    "predict cardio --model {t}/cardio.pdmodel.json --input {t}/cardio/rec0000.wav",
    "synth thermal --out {t}/seq --n 1 --seed 2 --frames 3",
    "predict clot --model {t}/clot.pdmodel.json --sequence {t}/seq/seq0000",
]
codes = [main(c.format(t=sys.argv[1]).split()) for c in commands]
print(json.dumps({"codes": codes, "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
"""


class TestStartup:
    def test_cli_import_loads_no_scipy_module(self):
        # A fresh interpreter: this test process holds SciPy, the tests' oracle.
        # Every CLI run pays the import graph, and SciPy was most of it.
        probe = ("import sys, prediagnose.cli; "
                 "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert fresh_python("-c", probe) == "[]\n"

    def test_every_command_runs_with_scipy_refused(self, tmp_path):
        last = fresh_python("-c", NO_SCIPY_FLOW, str(tmp_path)).splitlines()[-1]
        assert json.loads(last) == {"codes": [0] * 12, "scipy": []}


class TestParserReuse:
    def test_main_gives_what_fresh_parsers_give(self, tmp_path, capsys):
        # main builds its parser once per process; a parse that failed must
        # leave nothing behind for the next call.
        (tmp_path / "a.json").write_text('{"x": 1}')
        calls = [["eval", "--model", "m", "--data", "d", "--kfold", "1"],
                 ["report", "--inputs", str(tmp_path / "a.json"), "--out", str(tmp_path / "r.json")],
                 ["eval", "--model", "m", "--data", "d", "--kfold", "1"]]
        reused = [run(capsys, *argv) for argv in calls]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert [code for code, _, _ in reused] == [1, 0, 1]
        assert reused == fresh
        assert build_parser() is build_parser()


CONFIG_CLASSES = {"ThermalConfig", "ClotPipelineConfig", "HogConfig", "CardioPipelineConfig",
                  "MfccConfig"}


def own_members():
    """Every function and class defined in a prediagnose module, each once."""
    for info in pkgutil.iter_modules(prediagnose.__path__):
        module = importlib.import_module(f"prediagnose.{info.name}")
        yield from (obj for obj in vars(module).values()
                    if getattr(obj, "__module__", None) == module.__name__)


class TestOneOwnerPerDefault:
    """Config values have their defaults in the config dataclasses only, and a
    value that no caller varies is a module constant, not a parameter."""

    def test_only_parameter_default_is_main_argv(self):
        # Every function, method, nested function and lambda in the package:
        # callers pass what they use, and only the console script relies on a
        # default (main reads sys.argv when argv is None).
        found = []
        for path in sorted(Path(prediagnose.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    args = node.args
                    positional = args.posonlyargs + args.args
                    defaulted = positional[len(positional) - len(args.defaults):]
                    pairs = list(zip(defaulted, args.defaults))
                    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                    name = getattr(node, "name", "<lambda>")
                    found += [f"{path.stem}.{name}({a.arg}={ast.unparse(d)})" for a, d in pairs]
        assert found == ["cli.main(argv=None)"]

    def test_only_config_classes_have_numeric_field_defaults(self):
        owners = {obj.__name__ for obj in own_members()
                  if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                  and any(isinstance(f.default, (int, float)) for f in dataclasses.fields(obj))}
        assert owners == CONFIG_CLASSES


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        code, _, err = run(capsys, "train", "warp", "--data", "x", "--out", "y")
        assert code == 1
        assert "usage error" in err

    def test_missing_data_is_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "train", "clot", "--data", str(tmp_path / "nope"), "--out",
            str(tmp_path / "m.pdmodel.json"),
        )
        assert code == 2
        assert "data error" in err

    def test_smo_step_bound_is_3(self, capsys, tmp_path, monkeypatch):
        # At gamma 0.001 these eight images need more than one SMO step each.
        data = tmp_path / "data"
        code, _, _ = run(capsys, "synth", "thermal", "--out", str(data), "--n", "8", "--seed", "1")
        assert code == 0
        (tmp_path / "c.ini").write_text("[ml]\nsvm_gamma = 0.001\n")
        monkeypatch.setattr("prediagnose.svm._MAX_STEPS", 1)
        code, out, err = run(capsys, "train", "clot", "--data", str(data), "--config",
                             str(tmp_path / "c.ini"), "--out", str(tmp_path / "m.pdmodel.json"))
        assert (code, out) == (3, "")
        assert "training error: SMO did not converge in 8 steps" in err
        assert not (tmp_path / "m.pdmodel.json").exists()

    def test_training_set_over_the_gram_cap_is_3(self, capsys, tmp_path, monkeypatch):
        data = tmp_path / "data"
        assert run(capsys, "synth", "thermal", "--out", str(data), "--n", "8", "--seed", "1")[0] == 0
        monkeypatch.setattr("prediagnose.svm.MAX_GRAM_BYTES", 16 * 7 * 7)
        code, out, err = run(capsys, "train", "clot", "--data", str(data),
                             "--out", str(tmp_path / "m.pdmodel.json"))
        assert (code, out) == (3, "")
        assert ("training error: 8 training samples need 1024 bytes for the Gram matrix, "
                "over the cap of 784") in err

    def test_single_class_training_is_3(self, capsys, tmp_path):
        data = tmp_path / "data"
        code, _, _ = run(
            capsys, "synth", "thermal", "--out", str(data), "--n", "4",
            "--positive-frac", "0", "--seed", "1",
        )
        assert code == 0
        code, _, err = run(
            capsys, "train", "clot", "--data", str(data), "--out",
            str(tmp_path / "m.pdmodel.json"),
        )
        assert code == 3
        assert "training error" in err


@pytest.fixture(scope="module")
def thermal_ws(tmp_path_factory):
    base = tmp_path_factory.mktemp("thermal")
    assert main(["synth", "thermal", "--out", str(base / "train"), "--n", "16",
                 "--seed", "100"]) == 0
    assert main(["synth", "thermal", "--out", str(base / "test"), "--n", "8",
                 "--seed", "200"]) == 0
    assert main(["synth", "thermal", "--out", str(base / "seq"), "--n", "1",
                 "--positive-frac", "1", "--seed", "300", "--frames", "5"]) == 0
    return base


@pytest.fixture(scope="module")
def cardio_ws(tmp_path_factory):
    base = tmp_path_factory.mktemp("cardio")
    assert main(["synth", "cardio", "--task", "heart", "--out", str(base / "train"),
                 "--n", "10", "--seed", "7", "--rate", "4000", "--duration", "2.0"]) == 0
    assert main(["synth", "cardio", "--task", "heart", "--out", str(base / "test"),
                 "--n", "6", "--seed", "8", "--rate", "4000", "--duration", "2.0"]) == 0
    return base


class TestThermalFlow:
    def test_train_predict_eval(self, thermal_ws, capsys):
        workspace = thermal_ws
        model = workspace / "clot.pdmodel.json"
        code, out, _ = run(capsys, "train", "clot", "--data", str(workspace / "train"),
                           "--out", str(model))
        assert code == 0
        doc = json.loads(out)
        assert doc["pipeline"] == "clot" and doc["n_train"] == 16

        sample = next((workspace / "test").glob("*.pgm"))
        code, out, _ = run(capsys, "predict", "clot", "--model", str(model),
                           "--input", str(sample))
        assert code == 0
        pred = json.loads(out)
        assert pred["label"] in (0, 1) and "score" in pred and "latency_ms" in pred

        code, out, err = run(capsys, "eval", "--model", str(model),
                             "--data", str(workspace / "test"),
                             "--roc-csv", str(workspace / "roc.csv"))
        assert code == 0
        report = json.loads(out)
        assert report["pipeline"] == "clot"
        assert set(report["confusion"]) == {"tp", "fp", "fn", "tn"}
        assert "Accuracy" in err  # human table goes to stderr
        assert (workspace / "roc.csv").read_text().startswith("fpr,tpr")

    def test_predict_deterministic_modulo_latency(self, thermal_ws, capsys):
        workspace = thermal_ws
        model = workspace / "clot.pdmodel.json"
        if not model.exists():
            run(capsys, "train", "clot", "--data", str(workspace / "train"),
                "--out", str(model))
            capsys.readouterr()
        sample = next((workspace / "test").glob("*.pgm"))
        outs = []
        for _ in range(2):
            _, out, _ = run(capsys, "predict", "clot", "--model", str(model),
                            "--input", str(sample))
            doc = json.loads(out)
            doc.pop("latency_ms")
            outs.append(doc)
        assert outs[0] == outs[1]

    def test_sequence_prediction(self, thermal_ws, capsys):
        workspace = thermal_ws
        model = workspace / "clot.pdmodel.json"
        if not model.exists():
            run(capsys, "train", "clot", "--data", str(workspace / "train"),
                "--out", str(model))
            capsys.readouterr()
        code, out, _ = run(capsys, "predict", "clot", "--model", str(model),
                           "--sequence", str(workspace / "seq" / "seq0000"))
        assert code == 0
        doc = json.loads(out)
        assert doc["n_frames"] == 5 and doc["label"] in (0, 1)

    def test_model_pipeline_mismatch_is_2(self, thermal_ws, capsys):
        workspace = thermal_ws
        model = workspace / "clot.pdmodel.json"
        sample = next((workspace / "test").glob("*.pgm"))
        code, _, err = run(capsys, "predict", "skin", "--model", str(model),
                           "--input", str(sample))
        assert code == 2
        assert "clot pipeline" in err


class TestSkinFlow:
    def test_train_eval_kfold_predict(self, thermal_ws, capsys):
        workspace = thermal_ws
        model = workspace / "skin.pdmodel.json"
        code, out, _ = run(capsys, "train", "skin", "--data", str(workspace / "train"),
                           "--out", str(model))
        assert code == 0
        doc = json.loads(out)
        assert doc["pipeline"] == "skin" and doc["n_train"] == 16
        created_with = json.loads(model.read_text())["created_with"]
        assert created_with == {"pipeline": "skin", "standin": "skin-standin-hog-svm"}

        for extra in ([], ["--kfold", "2", "--seed", "5"]):
            code, out, err = run(capsys, "eval", "--model", str(model),
                                 "--data", str(workspace / "test"), *extra)
            assert code == 0
            report = json.loads(out)
            assert report["pipeline"] == "skin"
            assert report["standin"] == "skin-standin-hog-svm"
            assert sum(report["confusion"].values()) == 8
            assert "STAND-IN" in err

        sample = next((workspace / "test").glob("*.pgm"))
        code, out, _ = run(capsys, "predict", "skin", "--model", str(model),
                           "--input", str(sample))
        assert code == 0
        pred = json.loads(out)
        assert pred["label"] in (0, 1) and "score" in pred
        assert pred["classifier"] == "skin-standin-hog-svm"


class TestCardioFlow:
    def test_train_predict_eval_kfold(self, cardio_ws, capsys):
        workspace = cardio_ws
        cfg = workspace / "cfg.ini"
        cfg.write_text("[ml]\nn_trees = 20\n")
        model = workspace / "cardio.pdmodel.json"
        code, out, _ = run(capsys, "train", "cardio", "--data", str(workspace / "train"),
                           "--config", str(cfg), "--out", str(model))
        assert code == 0
        assert json.loads(out)["pipeline"] == "cardio"

        sample = next((workspace / "test").glob("*.wav"))
        code, out, _ = run(capsys, "predict", "cardio", "--model", str(model),
                           "--input", str(sample))
        assert code == 0
        doc = json.loads(out)
        assert 0.0 <= doc["prob"] <= 1.0

        code, out, _ = run(capsys, "eval", "--model", str(model),
                           "--data", str(workspace / "train"), "--kfold", "2", "--seed", "5")
        assert code == 0
        report = json.loads(out)
        assert report["confusion"]["tp"] + report["confusion"]["fn"] == 5

    def test_model_recording_task_loads_and_predicts(self, tmp_path, capsys):
        # Cardio models once recorded a "task" in created_with; the key is now ignored.
        path = tmp_path / "m.pdmodel.json"
        path.write_bytes(cardio_created_with(b'"task": "heart"'))
        (tmp_path / "x.wav").write_bytes(write_wav(AudioSignal(np.zeros(2000), 4000)))
        code, out, _ = run(capsys, "predict", "cardio", "--model", str(path),
                           "--input", str(tmp_path / "x.wav"))
        assert code == 0
        assert json.loads(out)["label"] in (0, 1)


class TestReport:
    def test_concatenates_modules(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"pipeline": "clot", "accuracy": 0.9}')
        b.write_text('{"pipeline": "cardio", "accuracy": 0.8}')
        out_path = tmp_path / "combined.json"
        code, out, _ = run(capsys, "report", "--inputs", str(a), str(b),
                           "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["report_version"] == 1
        assert [m["pipeline"] for m in doc["modules"]] == ["clot", "cardio"]

    def test_bad_input_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, "report", "--inputs", str(bad),
                           "--out", str(tmp_path / "o.json"))
        assert code == 2
        assert "data error" in err
