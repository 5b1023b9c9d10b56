"""prediagnose benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload clot --seed 1 --seconds 30 --trace 0

Runs from a source checkout (it imports `src/prediagnose`, nothing
installed).  With `--trace 0` it reports the end-to-end metrics of an
untraced pass; with `--trace 1` it runs an untraced pass and then a traced
pass of the same number of cycles, and reports per-layer metrics from the
traced pass plus the tracing overhead (traced minus untraced cycle time).
End-to-end times are each command's wall time, scaled to a reference
machine speed by a probe run next to the command (see normalize); raw wall
and CPU times are kept in the results file.
Every pass runs in a fresh interpreter (worker.py).  Outputs are checked:
exit codes, stdout JSON, determinism digests within a run, between the
traced and untraced passes and across runs of the same code and seed, and
the quality floors in workloads.FLOORS.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Full details (machine facts, per-task quality, every command's time) go to
.bench_work/results/, spans of a traced pass to .bench_work/trace/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_REPEATS = 3  # setup_s is the median of this many fresh-process set-ups
MIN_CYCLES = 3  # untraced pass of an end-to-end run
# One BLAS thread, to match `--threads 1`: every command then runs on one
# core, at the speed the single-threaded probe measures.  This departs from a
# default run, where OpenBLAS starts one thread per core for rbf_gram's matmul.
# A fixed string-hash seed: with a random one, peak RSS of the same kfold run
# jumps between two levels about 10 MB apart, by the seed alone.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
RUN_LIMIT_S = 170.0  # every worker must finish within this much of the run's start
# CPU time of worker.speed_probe while the machine the benchmark was defined
# on (2-vCPU Intel Xeon at 2.1 GHz under KVM, Python 3.11.7) runs at its
# faster speed.  Every time metric is a wall time scaled by this over the
# mean of the probes taken just before and just after it: seconds at that
# reference speed.
PROBE_REFERENCE_S = 0.0165

END_TO_END = {
    "setup_s": "s", "total_s": "s", "train_s": "s", "eval_s": "s",
    "predict_p50_ms": "ms", "peak_rss_mb": "MB",
}

# Per traced cycle, for each span name: which of its stats to report.
LAYER_STATS = {
    "imageproc.read_image_file": ("calls", "ms", "self_ms"),
    "imageproc.resize_bilinear": ("calls", "ms", "self_ms"),
    "imageproc.canny": ("calls", "ms", "self_ms"),
    "imageproc.gaussian_blur": ("calls", "ms", "self_ms"),
    "imageproc.hog": ("calls", "ms", "self_ms"),
    "pipeline.clot_features": ("calls", "ms"),
    "pipeline.cardio_features": ("calls", "ms"),
    "audioproc.read_wav_file": ("calls", "ms"),
    "audioproc.wavelet_denoise": ("calls", "ms"),
    "audioproc.mfcc": ("calls", "ms"),
    "audioproc.mfcc_debug": ("self_ms",),
    "audioproc.fft": ("calls", "ms"),
    "audioproc.mel_filterbank": ("calls", "ms"),
    "svm.rbf_gram": ("calls", "ms", "mb"),
    "svm.train_svm_smo": ("calls", "ms", "self_ms"),
    "svm.svm_decision": ("calls", "ms"),
    "svm.svm_decision_batch": ("calls", "ms"),
    "forest.train_random_forest": ("calls", "ms"),
    "forest.best_split": ("calls", "self_ms"),
    "forest.forest_predict": ("calls", "ms"),
    "persist.save_model": ("calls", "ms"),
    "persist.load_model": ("calls", "ms"),
    "voting.sequence_vote": ("calls", "ms"),
    "evaluation.evaluate": ("calls", "ms"),
    "evaluation.roc_auc": ("calls", "ms"),
    "evaluation.stratified_kfold": ("calls", "ms"),
    "cli.train": ("calls", "ms", "self_ms"),
    "cli.eval": ("calls", "ms", "self_ms"),
    "cli.predict": ("calls", "ms", "self_ms"),
    "cli.predict_seq": ("calls", "ms", "self_ms"),
}
# Set-up spans, reported per set-up.
SETUP_STATS = {
    "synththermal.write_thermal_dataset": ("ms",),
    "synthcardio.write_cardio_dataset": ("ms",),
}
STAT_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms", "mb": "MB"}
DERIVED_UNITS = {
    "pipeline.clot_features.calls_per_image": "ratio",
    "pipeline.cardio_features.calls_per_recording": "ratio",
    "cli.train.fit_ms": "ms",
    "cli.train.repredict_ms": "ms",
    "cli.train.save_ms": "ms",
    "cli.predict.load_ms": "ms",
    "svm.n_support": "count",
    "svm.sv_fraction": "ratio",
    "svm.svm_decision.ms_per_call": "ms",
    "svm.svm_decision.mb_per_call": "MB",
    "forest.forest_predict.ms_per_call": "ms",
    "forest.nodes": "count",
    "forest.leaves": "count",
    "forest.max_depth": "count",
    "persist.model_bytes": "bytes",
    "persist.save_model.mb_per_s": "MB/s",
    "persist.load_model.mb_per_s": "MB/s",
    "evaluation.accuracy_min": "ratio",
    "evaluation.auc_min": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{stat}": STAT_UNITS[stat]
             for table in (LAYER_STATS, SETUP_STATS) for name, stats in table.items()
             for stat in stats}
    units.update(DERIVED_UNITS)
    return units


class BenchError(Exception):
    pass


def spawn(args: dict, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its result document."""
    out = Path(args["dir"]).with_suffix(".json")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--out", str(out)]
    for key, value in args.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the next pass")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=WORKER_ENV)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run time limit: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(out.read_text())


def commands(result: dict) -> list[dict]:
    return [rec for cycle in result.get("cycles", []) for rec in cycle]


def normalize(result: dict) -> None:
    """Scale each wall time to the reference speed, by the probes taken just
    before and just after it (sets setup_norm_s, and norm_s per command).

    The host's speed swings make a slower CPU, not lost wall time: CPU and
    wall time of a command move together.  Scaling wall time, not CPU time,
    keeps time spent off the CPU (I/O, waits) in the figure.
    """
    before, after = result["setup_probe_s"]
    result["setup_norm_s"] = result["setup_wall_s"] * PROBE_REFERENCE_S / ((before + after) / 2)
    cmds = commands(result)
    if cmds:
        nexts = [r["probe_s"] for r in cmds[1:]] + [result["final_probe_s"]]
        for rec, after in zip(cmds, nexts):
            rec["norm_s"] = rec["wall_s"] * PROBE_REFERENCE_S / ((rec["probe_s"] + after) / 2)


def cycle_sums(result: dict, kind: str | None = None) -> list[float]:
    """Scaled seconds of each cycle's successful commands (of one kind, or all)."""
    return [sum(r["norm_s"] for r in cycle
                if "error" not in r and (kind is None or r["kind"] == kind))
            for cycle in result["cycles"]]


def run_digest(result: dict) -> list:
    """What must repeat exactly: the synthesized inputs, then every command's
    stdout (latency removed) and model file digests, per cycle."""
    return [result["data_digest"]] + [
        [[r["kind"], r.get("digest"), r.get("model_digest")] for r in cycle]
        for cycle in result["cycles"]]


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_outputs(results: list[dict], workload: workloads.Workload, key: str) -> list[str]:
    """Problems found in the passes' outputs; empty when every check holds."""
    problems = []
    for result in results:
        for rec in result["setup"] + commands(result):
            if "error" in rec:
                problems.append(f"{' '.join(rec['argv'])}: {rec['error']}")
    if problems:
        return problems
    if len({r["data_digest"] for r in results}) != 1:
        problems.append("synthesized inputs differ between set-ups of the same seed")
    measured = [r for r in results if "cycles" in r]
    for result in measured:
        first = run_digest(result)[1]
        if any(c != first for c in run_digest(result)[2:]):
            problems.append(f"{result['mode']} pass: outputs differ between cycles")
    if len(measured) == 2 and run_digest(measured[0])[:2] != run_digest(measured[1])[:2]:
        problems.append("traced outputs differ from untraced outputs")
    for rec in measured[0]["cycles"][0]:
        for field, floor in workload.floors.get((rec["kind"], rec["task"]), {}).items():
            if rec["doc"][field] < floor:
                problems.append(f"{rec['kind']} {rec['task']} {field} {rec['doc'][field]:.4f} "
                                f"below floor {floor}")
    # Across runs: the same code and seed must give the same digests.
    store = WORK / "digests" / f"{key}.json"
    current = {"code": code_digest(), "digest": run_digest(measured[0])[:2]}
    if store.exists():
        previous = json.loads(store.read_text())
        if previous["code"] == current["code"] and previous["digest"] != current["digest"]:
            problems.append(f"outputs differ from an earlier run of the same code and seed ({store})")
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(current))
    os.replace(tmp, store)
    return problems


def quality(result: dict) -> dict:
    """Accuracy and AUC of each successful eval report in the first cycle, by task."""
    return {r["task"]: {"accuracy": r["doc"]["accuracy"], "auc": r["doc"]["auc"]}
            for r in result["cycles"][0] if r["kind"] == "eval" and "error" not in r}


def end_to_end(setups: list[dict], plain: dict) -> tuple[dict, dict]:
    """setups are the set-up-only passes; plain's own set-up is one more."""
    setups = setups + [plain]
    ok = [r for r in commands(plain) if "error" not in r]
    predicts = [r["norm_s"] * 1e3 for r in ok if r["kind"] == "predict"]
    seqs = [r["norm_s"] * 1e3 for r in ok if r["kind"] == "predict_seq"]
    metrics = {
        "setup_s": statistics.median(r["setup_norm_s"] for r in setups),
        "total_s": statistics.median(cycle_sums(plain)),
        "train_s": statistics.median(cycle_sums(plain, "train")),
        "eval_s": statistics.median(cycle_sums(plain, "eval")),
        "predict_p50_ms": statistics.median(predicts) if predicts else 0.0,
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    detail = {
        "cycles": len(plain["cycles"]),
        "setup_s_each": [r["setup_norm_s"] for r in setups],
        "setup_wall_s_each": [r["setup_wall_s"] for r in setups],
        "setup_cpu_s_each": [r["setup_s"] for r in setups],
        "predict_n": len(predicts),
        "predict_seq_p50_ms": statistics.median(seqs) if seqs else None,
        "predict_seq_n": len(seqs),
        "quality": quality(plain),
    }
    return metrics, detail


def per_layer(plain: dict, traced: dict) -> dict:
    n_cycles = len(traced["cycles"])
    stats, setup_stats = traced["cycle_stats"], traced["setup_stats"]
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "mb": 0.0}
    metrics = {}
    for name, wanted in LAYER_STATS.items():
        st = stats.get(name, empty)
        for stat in wanted:
            metrics[f"{name}.{stat}"] = st[stat] / n_cycles
    for name, wanted in SETUP_STATS.items():
        for stat in wanted:
            metrics[f"{name}.{stat}"] = setup_stats.get(name, empty)[stat]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    by_kind = traced["commands"]["by_kind"]

    def within(kind: str, *names: str, stat: str = "ms") -> float:
        """Per cycle: a stat summed over span names, inside one command kind."""
        return sum(by_kind.get(kind, {}).get(n, empty)[stat] for n in names) / n_cycles

    trains = [r for r in traced["cycles"][0] if r["kind"] == "train"]
    n_images = sum(r["doc"]["n_train"] for r in trains if r["doc"]["pipeline"] == "clot")
    n_recordings = sum(r["doc"]["n_train"] for r in trains if r["doc"]["pipeline"] == "cardio")
    svms = [m for m in traced["models"] if m["kind"] == "svm"]
    forests = [m for m in traced["models"] if m["kind"] == "forest"]
    dec = stats.get("svm.svm_decision", empty)
    fp = stats.get("forest.forest_predict", empty)
    save, load = stats.get("persist.save_model", empty), stats.get("persist.load_model", empty)
    metrics.update({
        "pipeline.clot_features.calls_per_image":
            ratio(within("train", "pipeline.clot_features", stat="calls"), n_images),
        "pipeline.cardio_features.calls_per_recording":
            ratio(within("train", "pipeline.cardio_features", stat="calls"), n_recordings),
        "cli.train.fit_ms": within("train", "pipeline.clot_train", "pipeline.cardio_train"),
        "cli.train.repredict_ms":
            within("train", "pipeline.clot_predict_frame", "pipeline.cardio_predict"),
        "cli.train.save_ms": within("train", "persist.save_model_file"),
        "cli.predict.load_ms": within("predict", "persist.load_model_file"),
        "svm.n_support": sum(m["n_support"] for m in svms),
        "svm.sv_fraction": ratio(sum(m["n_support"] for m in svms), sum(m["n_train"] for m in svms)),
        "svm.svm_decision.ms_per_call": ratio(dec["ms"], dec["calls"]),
        "svm.svm_decision.mb_per_call": ratio(dec["mb"], dec["calls"]),
        "forest.forest_predict.ms_per_call": ratio(fp["ms"], fp["calls"]),
        "forest.nodes": sum(m["nodes"] for m in forests),
        "forest.leaves": sum(m["leaves"] for m in forests),
        "forest.max_depth": max((m["max_depth"] for m in forests), default=0),
        "persist.model_bytes": max((m["bytes"] for m in traced["models"]), default=0),
        "persist.save_model.mb_per_s": ratio(save["mb"], save["ms"] / 1e3),
        "persist.load_model.mb_per_s": ratio(load["mb"], load["ms"] / 1e3),
        "evaluation.accuracy_min": min(q["accuracy"] for q in quality(traced).values()),
        "evaluation.auc_min": min(q["auc"] for q in quality(traced).values()),
        "trace.overhead_s": statistics.median(cycle_sums(traced)) - statistics.median(cycle_sums(plain)),
        "trace.spans": traced["n_spans"] / n_cycles,
    })
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WHY), required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="dataset seed; use a second seed to check a claim on data it was not tuned on")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="bench")
    args = ap.parse_args(argv)
    if not (SRC / "prediagnose" / "cli.py").is_file():
        print(f"error: no prediagnose sources at {SRC / 'prediagnose'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    key = f"{args.workload}-{args.size}-s{args.seed}"
    run_dir = WORK / "runs" / f"{key}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base = {"workload": args.workload, "size": args.size, "seed": args.seed}
    try:
        if args.trace:
            plain = spawn({**base, "dir": run_dir / "plain", "mode": "plain",
                           "seconds": args.seconds / 2, "min_cycles": 1}, deadline)
            spans = WORK / "trace" / f"{key}.spans.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            traced = spawn({**base, "dir": run_dir / "traced", "mode": "traced",
                            "cycles": len(plain["cycles"]), "spans": spans}, deadline)
            results = [plain, traced]
        else:
            setups = [spawn({**base, "dir": run_dir / f"setup{i}", "mode": "setup"}, deadline)
                      for i in range(SETUP_REPEATS - 1)]
            plain = spawn({**base, "dir": run_dir / "plain", "mode": "plain",
                           "seconds": args.seconds, "min_cycles": MIN_CYCLES}, deadline)
            results = setups + [plain]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    workload = workloads.build(args.workload, args.size, args.seed)
    problems = check_outputs(results, workload, key)
    for result in results:
        normalize(result)
    timed = [r for result in results for r in commands(result)]
    failed = sum("error" in r for r in timed)
    metrics, units, detail = {}, {}, {}
    if not args.trace:
        (metrics, detail), units = end_to_end(setups, plain), END_TO_END
    elif not failed:
        metrics, units = per_layer(plain, traced), per_layer_units()
        detail = {"quality": quality(traced), "models": traced["models"],
                  "wrapped": traced["wrapped"], "by_kind": traced["commands"]["by_kind"],
                  "coverage": traced["commands"]["coverage"], "spans_file": str(spans)}
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    results_path = WORK / "results" / f"{key}-trace{args.trace}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(
        {**base, "trace": args.trace, "seconds": args.seconds, "machine": plain["machine"],
         "problems": problems, "metrics": metrics, "detail": detail,
         "commands": [{k: r[k] for k in ("kind", "argv", "cpu_s", "wall_s", "probe_s", "norm_s", "rc")}
                      for r in timed]},
        indent=1))

    m = plain["machine"]
    print(f"{args.workload} size={args.size} seed={args.seed} trace={args.trace} nproc={m['nproc']} "
          f"cpu={m['cpu_model']!r} python={m['python']} numpy={m['numpy']} scipy={m['scipy']} "
          f"blas={m['blas']!r} blas_threads={m['blas_threads']}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    if metrics and args.trace:
        for kind, names in traced["commands"]["by_kind"].items():
            top = sorted(names.items(), key=lambda kv: -kv[1]["self_ms"])[:6]
            print(f"  where {kind} goes (self ms per cycle): " + ", ".join(
                f"{name} {st['self_ms'] / len(traced['cycles']):.1f}" for name, st in top))
    if not args.trace:
        print(f"  cycles={detail['cycles']} predict_n={detail['predict_n']} "
              f"predict_seq_p50_ms={detail['predict_seq_p50_ms']} predict_seq_n={detail['predict_seq_n']}")
        print(f"  quality={json.dumps(detail['quality'])}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"results {results_path}")
    print(json.dumps({"correct": not problems, "attempted": len(timed), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
