"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, root: Path = ROOT) -> tuple[dict, dict, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        capture_output=True, text=True, cwd=root, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    results = next(line for line in lines if line.startswith("results ")).split(" ", 1)[1]
    return json.loads(lines[-1]), json.loads(Path(results).read_text()), proc.stdout


def copy_checkout(dest: Path, *dirs: str) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for d in dirs:
        shutil.copytree(ROOT / d, dest / d, ignore=shutil.ignore_patterns("__pycache__"))


def check_result(doc: dict, wanted: list[dict]) -> None:
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    doc, _, _ = run_bench(workload, 0)
    check_result(doc, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    doc, results, _ = run_bench(workload, 1)
    check_result(doc, SPEC["per_layer"])
    metrics = {n: m["value"] for n, m in doc["metrics"].items()}
    assert results["detail"]["coverage"]
    for cmd in results["detail"]["coverage"]:
        # Self times of all spans of a command, cli's own included, add up to
        # the command span, and that span covers the command's wall time.
        assert cmd["self_sum_ms"] == pytest.approx(cmd["span_ms"], abs=1e-3)
        assert cmd["span_ms"] <= cmd["wall_ms"] <= cmd["span_ms"] * 1.01 + 1.0
    # Counts that repeat exactly: train extracts every feature twice (fit,
    # then re-predict for train_accuracy), and every SVM sample is kept.
    if workload in ("clot", "kfold"):
        assert metrics["pipeline.clot_features.calls_per_image"] == 2.0
        assert metrics["svm.sv_fraction"] == 1.0
    if workload in ("cardio", "kfold"):
        assert metrics["pipeline.cardio_features.calls_per_recording"] == 2.0
        assert metrics["forest.nodes"] > 0
    if workload == "cardio":
        assert metrics["imageproc.hog.calls"] == 0 and metrics["svm.rbf_gram.calls"] == 0


def test_broken_clot_features_make_the_run_incorrect(tmp_path):
    # With every HOG vector zero, all images look alike and the SVM answers
    # one class, so clot's train_accuracy floor must fail the run.
    copy_checkout(tmp_path, "bench", "src")
    with open(tmp_path / "src" / "prediagnose" / "imageproc.py", "a") as fh:
        fh.write("\n_hog = hog\n\n\ndef hog(img, cfg=None):\n"
                 "    return np.zeros_like(_hog(img, cfg))\n")
    doc, _, stdout = run_bench("clot", 0, root=tmp_path)
    assert doc["correct"] is False
    assert "check failed: train clot train_accuracy" in stdout


def test_refuses_to_run_without_sources(tmp_path):
    copy_checkout(tmp_path, "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
