"""Command-line front end: synth, train, predict, eval, report."""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .audioproc import read_wav_file
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
from .synthcardio import MAX_DURATION_S, MIN_DURATION_S, SAMPLE_RATES, write_cardio_dataset
from .synththermal import MAX_FRAMES, ThermalConfig, load_dataset, write_thermal_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3


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
_fraction = _arg(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_window = _arg(int, lambda v: v >= 1 and v % 2 == 1, "an odd integer >= 1")
_duration = _arg(float, lambda v: MIN_DURATION_S <= v <= MAX_DURATION_S,
                 f"a number of seconds in [{MIN_DURATION_S}, {MAX_DURATION_S}]")


def _pipeline(kind: str) -> tuple:
    """(reader, config class, features, train, predict) of one pipeline.

    Built when a command runs rather than at import, so functions rebound in
    this module after import (bench/spans.py wraps them) are the ones called.
    """
    return {
        "clot": (read_image_file, ClotPipelineConfig, clot_features, clot_train,
                 clot_predict_frame),
        "cardio": (read_wav_file, CardioPipelineConfig, cardio_features, cardio_train,
                   cardio_predict),
        "skin": (read_image_file, SkinPipelineConfig, skin_features, skin_standin_train,
                 skin_standin_classify),
    }[kind]


def _model_type(model) -> tuple:
    """(batch scorer, decision threshold, refit from the model's recorded
    hyperparameters, name of the score in predict output) for an SVM or forest."""
    if isinstance(model, SvmModel):
        return (svm_decision_batch, 0.0,
                lambda data, threads: train_svm_smo(data, c=model.c, gamma=model.gamma), "score")
    return (forest_predict_batch, 0.5,
            lambda data, threads: train_random_forest(data, model.hyperparams, threads), "prob")


def _frame_order(path: Path) -> tuple:
    """Sort key of a sequence frame: digit runs in the name compare as
    integers (frame2 before frame10), and the name itself breaks ties."""
    parts = re.split(r"(\d+)", path.name)
    parts[1::2] = map(int, parts[1::2])
    return parts, path.name


def _standin_tag(kind: str) -> dict:
    return {"standin": SKIN_STANDIN_NAME} if kind == "skin" else {}


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
    p_train.add_argument("pipeline", choices=["clot", "cardio", "skin"])
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--config", default=None)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--threads", type=_count, default=1)

    p_pred = sub.add_parser("predict", help="single-sample prediction")
    p_pred.add_argument("pipeline", choices=["clot", "cardio", "skin"])
    p_pred.add_argument("--model", required=True)
    source = p_pred.add_mutually_exclusive_group()
    source.add_argument("--input", default=None)
    source.add_argument("--sequence", default=None)
    p_pred.add_argument("--window", type=_window, default=None)
    p_pred.add_argument("--threads", type=_count, default=None)

    p_eval = sub.add_parser("eval", help="evaluate a model on a dataset directory")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--kfold", type=_arg(int, lambda v: v >= 2, "an integer >= 2"), default=None)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--roc-csv", default=None)
    p_eval.add_argument("--threads", type=_count, default=1)

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
    read, config, _, train, predict = _pipeline(args.pipeline)
    cfg = cfgmod.load_config(config, args.config)
    samples = load_dataset(args.data, read)
    model = train(samples, cfg, args.threads)
    preds = [predict(model, x, cfg)[1] for x, _ in samples]
    labels = [lab for _, lab in samples]
    accuracy = float(np.mean(np.array(preds) == np.array(labels)))
    save_model_file(args.out, model,
                    {**cfgmod.config_snapshot(args.pipeline, cfg), **_standin_tag(args.pipeline)})
    _emit({"pipeline": args.pipeline, "n_train": len(labels), "train_accuracy": accuracy,
           "model": str(args.out)})
    return EXIT_OK


_MODEL_CLASS = {"clot": SvmModel, "cardio": ForestModel, "skin": SvmModel}


def _load_model(path):
    """(model, created_with, pipeline kind) of a model file whose model type
    is the one its pipeline tag trains."""
    model, created_with = load_model_file(path)
    kind = created_with.get("pipeline")
    if kind not in _MODEL_CLASS:
        raise PersistError("model is missing its pipeline tag")
    if not isinstance(model, _MODEL_CLASS[kind]):
        raise PersistError(f"a {kind} model must be a {_MODEL_CLASS[kind].__name__}, "
                           f"not a {type(model).__name__}")
    return model, created_with, kind


def _cmd_predict(args) -> int:
    if args.pipeline != "clot" and (args.sequence is not None or args.window is not None):
        raise _UsageError(f"--sequence and --window are for clot, not {args.pipeline}")
    if args.window is not None and args.sequence is None:
        raise _UsageError("--window requires --sequence")
    if not args.sequence and not args.input:
        raise _UsageError("predict requires --input (or --sequence for clot)")
    model, created_with, kind = _load_model(args.model)
    if kind != args.pipeline:
        raise FormatError(f"model was trained for the {kind} pipeline, not {args.pipeline}")
    read, config, _, _, predict = _pipeline(kind)
    start = time.perf_counter()
    cfg = cfgmod.config_from_snapshot(config, created_with)
    if args.sequence:
        frames = sorted(Path(args.sequence).glob("*.pgm"), key=_frame_order)
        if not frames:
            raise FormatError(f"no PGM frames in {args.sequence}")
        if args.window is not None:
            cfg = dataclasses.replace(cfg, window=args.window)
        doc = {"label": clot_predict_sequence(model, (read(f) for f in frames), cfg),
               "n_frames": len(frames)}
    else:
        score, label = predict(model, read(args.input), cfg)
        *_, score_name = _model_type(model)
        doc = {score_name: score, "label": label}
        if kind == "skin":
            doc["classifier"] = SKIN_STANDIN_NAME
    doc["latency_ms"] = (time.perf_counter() - start) * 1000.0
    _emit(doc)
    return EXIT_OK


_TITLES = {"clot": "Blood Clot Detection (thermal)", "cardio": "Cardiopulmonary Analysis",
           "skin": f"Skin STAND-IN ({SKIN_STANDIN_NAME})"}


def _cmd_eval(args) -> int:
    model, created_with, kind = _load_model(args.model)
    read, config, features, _, _ = _pipeline(kind)
    cfg = cfgmod.config_from_snapshot(config, created_with)
    samples = load_dataset(args.data, read)
    feats = _feature_matrix(features, [x for x, _ in samples], cfg, args.threads)
    labels = np.array([lab for _, lab in samples])
    del samples  # free the decoded inputs before the k-fold refits allocate
    score, threshold, refit, _ = _model_type(model)
    if args.kfold:
        # Retrain per fold with the model's recorded hyperparameters and pool
        # held-out predictions into one report.
        scores = np.zeros(len(labels))
        for train_idx, test_idx in stratified_kfold(labels, args.kfold, Rng(args.seed)):
            fold_model = refit(LabeledDataset(feats[train_idx], labels[train_idx]), args.threads)
            scores[test_idx] = score(fold_model, feats[test_idx])
    else:
        scores = score(model, feats)
    report = evaluate(labels, (scores >= threshold).astype(int), scores)
    if args.roc_csv:
        Path(args.roc_csv).write_text(roc_to_csv(report.roc_points))
    _emit({**report_to_dict(report), "pipeline": kind, **_standin_tag(kind)})
    print(report_table(report, _TITLES[kind]), file=sys.stderr)
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
