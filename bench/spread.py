"""Run one workload over several seeds and report each end-to-end metric's
median and spread (interquartile range as a share of the median) against its
bound in BENCHMARK.json.

    python3 bench/spread.py --workload clot --seeds 1-10 [--seconds 24]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="range such as 1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        doc = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct={doc['correct']} "
              f"attempted={doc['attempted']} failed={doc['failed']} "
              f"wall={time.monotonic() - start:.1f}s", flush=True)
        for name, entry in doc["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound {bound} ({'ok' if spread < bound / 3 else 'WIDE'})"
        print(f"{name:48s} median {med:12.6g} spread {spread:7.2%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
