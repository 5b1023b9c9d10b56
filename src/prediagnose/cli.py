"""Command-line front end: synth, train, predict, eval, report."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import config as cfgmod
from .audioproc import MAX_DURATION_S, read_wav_file
from .core import FormatError, LabeledDataset, Rng, TrainingError
from .evaluation import evaluate, report_table, report_to_dict, roc_to_csv, stratified_kfold
from .forest import ForestModel, forest_predict_batch, train_random_forest
from .imageproc import read_image_file
from .persist import PersistError, _canon, load_model_file, save_model_file
from .pipeline import (
    SKIN_STANDIN_NAME,
    CardioPipelineConfig,
    ClotPipelineConfig,
    SkinPipelineConfig,
    _feature_matrix,
    cardio_features,
    cardio_predict,
    cardio_train,
    clot_features,
    clot_predict_frame,
    clot_predict_sequence,
    clot_train,
    skin_features,
    skin_standin_classify,
    skin_standin_train,
)
from .svm import SvmModel, svm_decision_batch, train_svm_smo
from .synthcardio import MIN_DURATION_S, SAMPLE_RATES, write_cardio_dataset
from .synththermal import (MAX_FRAMES, ThermalConfig, load_dataset, load_manifest,
                           write_thermal_dataset)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3

KINDS = ("clot", "cardio", "skin")
MAX_THREADS = 64  # fixed, so whether a --threads value is valid does not depend on the machine


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(doc: dict) -> None:
    """Single-line canonical JSON on stdout (deterministic float formatting)."""
    sys.stdout.write(_canon(doc) + "\n")


def _arg(parse, ok, what: str):
    """argparse type: parse(text), a usage error unless ok(value)."""
    def check(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value
    check.__name__ = parse.__name__  # argparse names it when parse raises ValueError
    return check


_count = _arg(int, lambda v: v >= 1, "an integer >= 1")
_threads = _arg(int, lambda v: 1 <= v <= MAX_THREADS, f"an integer in [1, {MAX_THREADS}]")
_fraction = _arg(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_window = _arg(int, lambda v: v >= 1 and v % 2 == 1, "an odd integer >= 1")
_duration = _arg(float, lambda v: MIN_DURATION_S <= v <= MAX_DURATION_S,
                 f"a number of seconds in [{MIN_DURATION_S}, {MAX_DURATION_S}]")


class _Modality(NamedTuple):
    """What the commands use of one pipeline."""

    read: Callable  # path -> sample
    config: type  # the pipeline's config dataclass
    features: Callable  # (sample, cfg) -> feature vector
    train: Callable  # (samples, cfg, threads) -> model
    predict: Callable  # (model, sample, cfg) -> (score, label)
    model_class: type
    score: Callable  # (model, feature matrix) -> one score per row
    threshold: float  # a score at or above it is label 1
    score_name: str  # the score's key in predict output
    refit: Callable  # (model, LabeledDataset) -> a model fit with model's hyperparameters
    title: str  # the eval report's title
    standin: str | None = None  # the classifier a stand-in pipeline names


def _modality(kind: str) -> _Modality:
    """The record of one pipeline.

    Built when a command runs rather than at import, so functions rebound in
    this module after import (bench/spans.py wraps them) are the ones called.
    """
    svm = dict(model_class=SvmModel, score=svm_decision_batch, threshold=0.0, score_name="score",
               refit=lambda model, data: train_svm_smo(data, c=model.c, gamma=model.gamma))
    forest = dict(model_class=ForestModel, score=forest_predict_batch, threshold=0.5,
                  score_name="prob",
                  refit=lambda model, data: train_random_forest(data, model.hyperparams))
    return {
        "clot": _Modality(read=read_image_file, config=ClotPipelineConfig, features=clot_features,
                          train=clot_train, predict=clot_predict_frame, **svm,
                          title="Blood Clot Detection (thermal)"),
        "cardio": _Modality(read=read_wav_file, config=CardioPipelineConfig,
                            features=cardio_features, train=cardio_train, predict=cardio_predict,
                            **forest, title="Cardiopulmonary Analysis"),
        "skin": _Modality(read=read_image_file, config=SkinPipelineConfig, features=skin_features,
                          train=skin_standin_train, predict=skin_standin_classify, **svm,
                          title=f"Skin STAND-IN ({SKIN_STANDIN_NAME})", standin=SKIN_STANDIN_NAME),
    }[kind]


def _standin_tag(m: _Modality) -> dict:
    """What a stand-in adds to its model file and eval report."""
    return {"standin": m.standin} if m.standin else {}


def _frame_order(path: Path) -> tuple:
    """Sort key of a sequence frame: digit runs in the name compare as
    integers (frame2 before frame10), and the name itself breaks ties."""
    parts = re.split(r"(\d+)", path.name)
    parts[1::2] = map(int, parts[1::2])
    return parts, path.name


@functools.cache  # built once per process: parsing leaves the parser as it found it
def build_parser() -> _Parser:
    parser = _Parser(prog="prediagnose", description="Multimodal pre-diagnostic toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate synthetic datasets")
    synth_sub = p_synth.add_subparsers(dest="modality", required=True)

    p_st = synth_sub.add_parser("thermal")
    p_st.add_argument("--out", required=True)
    p_st.add_argument("--n", type=_count, required=True)
    p_st.add_argument("--positive-frac", type=_fraction, default=0.5)
    p_st.add_argument("--seed", type=int, required=True)
    p_st.add_argument("--frames", type=_arg(int, lambda v: 0 <= v <= MAX_FRAMES,
                                            f"an integer in [0, {MAX_FRAMES}]"), default=0)
    p_st.add_argument("--config", default=None)

    p_sc = synth_sub.add_parser("cardio")
    p_sc.add_argument("--task", choices=["lung", "heart"], required=True)
    p_sc.add_argument("--out", required=True)
    p_sc.add_argument("--n", type=_count, required=True)
    p_sc.add_argument("--positive-frac", type=_fraction, default=0.5)
    p_sc.add_argument("--seed", type=int, required=True)
    p_sc.add_argument("--rate", type=int, choices=SAMPLE_RATES, default=8000)
    p_sc.add_argument("--duration", type=_duration, default=3.0)

    p_train = sub.add_parser("train", help="train a pipeline model")
    p_train.add_argument("pipeline", choices=KINDS)
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--config", default=None)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--threads", type=_threads, default=1)

    p_pred = sub.add_parser("predict", help="single-sample prediction")
    p_pred.add_argument("pipeline", choices=KINDS)
    p_pred.add_argument("--model", required=True)
    source = p_pred.add_mutually_exclusive_group()
    source.add_argument("--input", default=None)
    source.add_argument("--sequence", default=None)
    p_pred.add_argument("--window", type=_window, default=None)
    p_pred.add_argument("--threads", type=_threads, default=None)

    p_eval = sub.add_parser("eval", help="evaluate a model on a dataset directory")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--kfold", type=_arg(int, lambda v: v >= 2, "an integer >= 2"), default=None)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--roc-csv", default=None)
    p_eval.add_argument("--threads", type=_threads, default=1)

    p_rep = sub.add_parser("report", help="concatenate per-modality reports")
    p_rep.add_argument("--inputs", nargs="+", required=True)
    p_rep.add_argument("--out", required=True)

    return parser


def _cmd_synth(args) -> int:
    if args.modality == "thermal":
        thermal = cfgmod.load_config(ThermalConfig, args.config)
        write_thermal_dataset(args.out, thermal, args.n, args.positive_frac, args.seed,
                              frames=args.frames)
    else:
        write_cardio_dataset(args.out, args.task, args.n, args.positive_frac,
                             args.duration, args.rate, args.seed)
    print(f"wrote {args.n} samples to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_train(args) -> int:
    m = _modality(args.pipeline)
    cfg = cfgmod.load_config(m.config, args.config)
    samples = load_dataset(args.data, m.read)
    model = m.train(samples, cfg, args.threads)
    preds = [m.predict(model, x, cfg)[1] for x, _ in samples]
    labels = [lab for _, lab in samples]
    del samples  # the decoded inputs, freed before the model file is built
    accuracy = float(np.mean(np.array(preds) == np.array(labels)))
    save_model_file(args.out, model,
                    {**cfgmod.config_snapshot(args.pipeline, cfg), **_standin_tag(m)})
    _emit({"pipeline": args.pipeline, "n_train": len(labels), "train_accuracy": accuracy,
           "model": str(args.out)})
    return EXIT_OK


def _load_model(path):
    """(model, created_with, pipeline kind, pipeline record) of a model file
    whose model type is the one its pipeline tag trains."""
    model, created_with = load_model_file(path)
    kind = created_with.get("pipeline")
    if kind not in KINDS:  # a tuple, so an unhashable tag is refused, not a TypeError
        raise PersistError("model is missing its pipeline tag")
    m = _modality(kind)
    if not isinstance(model, m.model_class):
        raise PersistError(f"a {kind} model must be a {m.model_class.__name__}, "
                           f"not a {type(model).__name__}")
    return model, created_with, kind, m


def _cmd_predict(args) -> int:
    if args.pipeline != "clot" and (args.sequence is not None or args.window is not None):
        raise _UsageError(f"--sequence and --window are for clot, not {args.pipeline}")
    if args.window is not None and args.sequence is None:
        raise _UsageError("--window requires --sequence")
    if not args.sequence and not args.input:
        raise _UsageError("predict requires --input (or --sequence for clot)")
    model, created_with, kind, m = _load_model(args.model)
    if kind != args.pipeline:
        raise FormatError(f"model was trained for the {kind} pipeline, not {args.pipeline}")
    start = time.perf_counter()
    cfg = cfgmod.config_from_snapshot(m.config, created_with)
    if args.sequence:
        frames = sorted(Path(args.sequence).glob("*.pgm"), key=_frame_order)
        if not frames:
            raise FormatError(f"no PGM frames in {args.sequence}")
        if args.window is not None:
            cfg = dataclasses.replace(cfg, window=args.window)
        doc = {"label": clot_predict_sequence(model, (m.read(f) for f in frames), cfg),
               "n_frames": len(frames)}
    else:
        score, label = m.predict(model, m.read(args.input), cfg)
        doc = {m.score_name: score, "label": label}
        if m.standin:
            doc["classifier"] = m.standin
    doc["latency_ms"] = (time.perf_counter() - start) * 1000.0
    _emit(doc)
    return EXIT_OK


def _cmd_eval(args) -> int:
    model, created_with, kind, m = _load_model(args.model)
    cfg = cfgmod.config_from_snapshot(m.config, created_with)
    base = Path(args.data)
    rows = load_manifest(base)
    # Each input is decoded and featurized in one step, so only the inputs
    # being worked on are ever held decoded, never the whole set.
    feats = _feature_matrix(lambda name, c: m.features(m.read(base / name), c),
                            [name for name, _ in rows], cfg, args.threads)
    labels = np.array([lab for _, lab in rows])
    if args.kfold:
        # Retrain per fold with the model's recorded hyperparameters and pool
        # held-out predictions into one report.
        scores = np.zeros(len(labels))
        for train_idx, test_idx in stratified_kfold(labels, args.kfold, Rng(args.seed)):
            fold_model = m.refit(model, LabeledDataset(feats[train_idx], labels[train_idx]))
            scores[test_idx] = m.score(fold_model, feats[test_idx])
            del fold_model  # with its training copy, before the next fold's refit
    else:
        scores = m.score(model, feats)
    report = evaluate(labels, (scores >= m.threshold).astype(int), scores)
    if args.roc_csv:
        Path(args.roc_csv).write_text(roc_to_csv(report.roc_points))
    _emit({**report_to_dict(report), "pipeline": kind, **_standin_tag(m)})
    print(report_table(report, m.title), file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    modules = []
    for path in args.inputs:
        try:
            with open(path) as fh:
                modules.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"cannot read report input {path}: {exc}") from exc
        except RecursionError:
            raise FormatError(f"cannot read report input {path}: nested too deeply") from None
    try:
        text = _canon({"report_version": 1, "modules": modules}) + "\n"
    except RecursionError:
        raise FormatError("cannot write the report: its inputs are nested too deeply") from None
    Path(args.out).write_text(text)
    sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "predict":
            return _cmd_predict(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_report(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
