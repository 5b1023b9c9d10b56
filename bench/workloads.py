"""Benchmark workloads as lists of prediagnose CLI commands.

Each workload has set-up commands (dataset synthesis, untimed per command but
counted in `setup_s`) and one cycle of timed commands.  A run repeats the
cycle; every command of a cycle starts after the previous one returns (a
closed loop with one client), always with `--threads 1`.

Sizes: `bench` is what the benchmark runs, scaled so that set-up plus about
five cycles fit in one 30-second run; `toy` is for the smoke test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Why each workload exists; BENCHMARK.json carries the same reasons.
WHY = {
    "clot": "thermal clot flow: imageproc, svm and persist (a large model written by train, "
            "read by every eval and predict) do nearly all the work",
    "cardio": "heart then lung flow: audioproc and forest do the work, with no imageproc or svm "
              "and small model files, so image, SVM and persist changes must not move it",
    "kfold": "eval --kfold 5 on thermal and lung sets with 12-sample models: fits dominate "
             "(SMO, Gram matrix, forest fit) and no large model is written or read",
}

SIZES = {
    "toy": {
        "clot": dict(train=12, test=8, seqs=1, predicts=2, seq_predicts=1),
        "cardio": dict(train=12, test=8, predicts=1, duration=2.0),
        "kfold": dict(images=20, recordings=20, small=12, predicts=1, duration=2.0),
    },
    "bench": {
        "clot": dict(train=40, test=40, seqs=1, predicts=3, seq_predicts=1),
        "cardio": dict(train=24, test=16, predicts=3, duration=3.0),
        "kfold": dict(images=100, recordings=40, small=12, predicts=4, duration=3.0),
    },
}

# Quality floors checked on command reports, as {(kind, task): {field: floor}}.
# Heart and lung use the acceptance-gate floors (tests/test_acceptance.py).
# The clot eval gate (0.85) is not used: with the fixed svm_gamma the clot
# decision rests on rounding noise, and at 40 training images clot AUC ranges
# from 0.39 to 0.91 over seeds 1-30.  Clot is gated on `train_accuracy`
# instead: every training image is a support vector, so the model reproduces
# its own labels (1.0 on every seed), and broken features or a constant-class
# model fall to about 0.5.
CLOT_TRAIN = {("train", "clot"): {"train_accuracy": 0.99}}
FLOORS = {
    "bench": {("eval", "heart"): {"accuracy": 0.90}, ("eval", "lung"): {"accuracy": 0.90},
              ("eval", "lung-kfold"): {"accuracy": 0.90}, **CLOT_TRAIN},
    "toy": CLOT_TRAIN,
}

RATE = "4000"
THREADS = ["--threads", "1"]


@dataclass
class Step:
    kind: str  # synth | train | eval | predict | predict_seq
    argv: list[str]
    task: str = ""  # task a train or eval step serves (clot, heart, lung, clot-kfold, ...)
    model: str = ""  # model file a train step writes


@dataclass
class Workload:
    setup: list[Step] = field(default_factory=list)
    cycle: list[Step] = field(default_factory=list)
    floors: dict = field(default_factory=dict)


def _synth_thermal(out: str, n: int, seed: int, frames: int = 0) -> Step:
    argv = ["synth", "thermal", "--out", out, "--n", str(n), "--seed", str(seed)]
    if frames:
        argv += ["--frames", str(frames)]
    return Step("synth", argv)


def _synth_cardio(task: str, out: str, n: int, seed: int, duration: float) -> Step:
    return Step("synth", ["synth", "cardio", "--task", task, "--out", out, "--n", str(n),
                          "--seed", str(seed), "--rate", RATE, "--duration", str(duration)])


def _train(pipeline: str, data: str, model: str, task: str) -> Step:
    return Step("train", ["train", pipeline, "--data", data, "--out", model] + THREADS,
                task=task, model=model)


def _eval(model: str, data: str, task: str, kfold_seed: int | None = None) -> Step:
    argv = ["eval", "--model", model, "--data", data]
    if kfold_seed is not None:
        argv += ["--kfold", "5", "--seed", str(kfold_seed)]
    return Step("eval", argv + THREADS, task=task)


def _predict(pipeline: str, model: str, path: str) -> Step:
    return Step("predict", ["predict", pipeline, "--model", model, "--input", path] + THREADS)


def build(name: str, size: str, seed: int) -> Workload:
    """The workload's commands; dataset seeds derive from `seed` alone, and
    paths are relative to the run's working directory."""
    p = SIZES[size][name]
    sub = [seed * 16 + k for k in range(8)]  # distinct generator seeds per dataset
    w = Workload(floors=FLOORS[size])
    if name == "clot":
        w.setup = [_synth_thermal("train", p["train"], sub[0]),
                   _synth_thermal("test", p["test"], sub[1]),
                   _synth_thermal("seq", p["seqs"], sub[2], frames=10)]
        w.cycle = [_train("clot", "train", "clot.pdmodel.json", "clot"),
                   _eval("clot.pdmodel.json", "test", "clot")]
        w.cycle += [_predict("clot", "clot.pdmodel.json", f"test/sample{i:04d}.pgm")
                    for i in range(p["predicts"])]
        w.cycle += [Step("predict_seq", ["predict", "clot", "--model", "clot.pdmodel.json",
                                         "--sequence", f"seq/seq{i:04d}"] + THREADS)
                    for i in range(p["seq_predicts"])]
    elif name == "cardio":
        for k, task in enumerate(("heart", "lung")):
            model = f"{task}.pdmodel.json"
            w.setup += [_synth_cardio(task, f"{task}_train", p["train"], sub[2 * k], p["duration"]),
                        _synth_cardio(task, f"{task}_test", p["test"], sub[2 * k + 1], p["duration"])]
            w.cycle += [_train("cardio", f"{task}_train", model, task),
                        _eval(model, f"{task}_test", task)]
            w.cycle += [_predict("cardio", model, f"{task}_test/rec{i:04d}.wav")
                        for i in range(p["predicts"])]
    elif name == "kfold":
        w.setup = [_synth_thermal("images", p["images"], sub[0]),
                   _synth_thermal("images_small", p["small"], sub[1]),
                   _synth_cardio("lung", "lung", p["recordings"], sub[2], p["duration"]),
                   _synth_cardio("lung", "lung_small", p["small"], sub[3], p["duration"])]
        w.cycle = [_train("clot", "images_small", "clot_small.pdmodel.json", "clot"),
                   _train("cardio", "lung_small", "lung_small.pdmodel.json", "lung"),
                   _eval("clot_small.pdmodel.json", "images", "clot-kfold", kfold_seed=seed),
                   _eval("lung_small.pdmodel.json", "lung", "lung-kfold", kfold_seed=seed)]
        # Predicts use the lung model only: clot and lung predicts cost about
        # 60 and 35 ms, and a median over a mix of both would jump between them.
        w.cycle += [_predict("cardio", "lung_small.pdmodel.json", f"lung/rec{i:04d}.wav")
                    for i in range(p["predicts"])]
    else:
        raise KeyError(name)
    return w
