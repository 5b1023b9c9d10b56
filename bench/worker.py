"""One workload process: import prediagnose, synthesize inputs, run cycles.

Started by run.py in a fresh interpreter for each pass; drives the public
entry point `prediagnose.cli.main(argv)` in-process and writes its raw
measurements to a JSON file.  Usage:

    python3 bench/worker.py --workload clot --size bench --seed 1 --dir WORK \
        --mode plain --seconds 12 --out result.json [--spans spans.json]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import spans as tr  # noqa: E402
import workloads  # noqa: E402


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    """sha256 over every file under root: relative path, then content digest."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(f"{path.relative_to(root).as_posix()}\0{sha256_file(path)}\n".encode())
    return h.hexdigest()


def output_digest(doc: dict) -> str:
    """Digest of a command's stdout document with its latency field removed."""
    doc = {k: v for k, v in doc.items() if k != "latency_ms"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def speed_probe() -> float:
    """CPU seconds of a fixed pure-Python loop that does not touch prediagnose.

    The host's speed swings (on a shared 2-vCPU VM, by up to 2x, over periods
    from under a second to minutes); run next to a command, the probe tells
    how fast the machine ran around it.
    """
    start = time.process_time()
    total = 0
    for i in range(250000):
        total += i * i
    return time.process_time() - start


class Runner:
    def __init__(self, main, tracer: tr.Tracer | None):
        self.main = main
        self.tracer = tracer

    def run(self, step: workloads.Step) -> dict:
        gc.collect()  # start each command from a collected heap, as a fresh CLI process would
        probe = speed_probe() if step.kind != "synth" else None  # untimed; see speed_probe
        out, err = io.StringIO(), io.StringIO()
        rec = {"kind": step.kind, "argv": step.argv, "task": step.task, "probe_s": probe}
        span = len(self.tracer.spans) if self.tracer else None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cpu, start = time.process_time(), time.perf_counter()
            try:
                if self.tracer:
                    rc = self.tracer.call(self.tracer.name_id(f"cli.{step.kind}"), self.main,
                                          (step.argv,), {})
                else:
                    rc = self.main(step.argv)
            except Exception:  # a crash is a failed command; keep measuring the rest
                rc = None
                err.write(traceback.format_exc())
            rec["wall_s"] = time.perf_counter() - start
            rec["cpu_s"] = time.process_time() - cpu
        rec["rc"] = rc
        if span is not None:
            rec["span"] = span
        if rc != 0:
            rec["error"] = f"exit {rc}: {err.getvalue()[-800:]}"
            return rec
        if step.kind == "synth":
            return rec
        text = out.getvalue()
        try:
            lines = text.splitlines()
            if len(lines) != 1:
                raise ValueError(f"{len(lines)} stdout lines")
            doc = json.loads(lines[0])
        except ValueError as exc:
            rec["error"] = f"stdout is not one JSON line: {exc}"
            return rec
        rec["doc"] = doc
        rec["digest"] = output_digest(doc)
        if step.model:
            model = Path(step.model)
            rec["model"] = step.model
            rec["model_digest"] = sha256_file(model)
            rec["model_bytes"] = model.stat().st_size
        return rec


def machine_facts() -> dict:
    import ctypes

    import numpy
    import scipy

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
    }
    # OpenBLAS reports its thread count through its own C API; find the
    # library numpy loaded and ask it.
    with contextlib.suppress(OSError):
        libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    facts["blas_threads"] = fn()
                    break
    return facts


def model_facts(records: list[dict]) -> list[dict]:
    """Support-vector and tree counts of the models the last cycle trained."""
    facts = []
    for rec in records:
        if rec["kind"] != "train" or "model" not in rec:
            continue
        with open(rec["model"]) as fh:
            envelope = json.load(fh)
        payload = envelope["payload"]
        fact = {"task": rec["task"], "kind": envelope["kind"], "bytes": rec["model_bytes"],
                "n_train": rec["doc"]["n_train"]}
        if envelope["kind"] == "svm":
            fact["n_support"] = len(payload["alpha_y"])
        else:
            nodes = leaves = depth = 0
            stack = [(t, 0) for t in payload["trees"]]
            while stack:
                node, d = stack.pop()
                nodes += 1
                depth = max(depth, d)
                if "leaf" in node:
                    leaves += 1
                else:
                    stack += [(node["left"], d + 1), (node["right"], d + 1)]
            fact.update(nodes=nodes, leaves=leaves, max_depth=depth)
        facts.append(fact)
    return facts


def command_stats(tracer: tr.Tracer, records: list[dict]) -> dict:
    """Per command kind, the calls, inclusive ms and self ms of each span name
    inside that kind's commands; and per command, its wall time, its root
    span's duration and the summed self time of all its spans."""
    roots = tr.roots(tracer.spans)
    selfs = tr.self_ns(tracer.spans)
    kind_of = {rec["span"]: rec["kind"] for rec in records}
    by_kind: dict[str, dict[str, dict]] = {}
    self_sum: dict[int, int] = {}
    for i, span in enumerate(tracer.spans):
        kind = kind_of.get(roots[i])
        if kind is None:
            continue
        name = tracer.names[span[tr.NAME]]
        st = by_kind.setdefault(kind, {}).setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        st["calls"] += 1
        if span[tr.OUTER]:
            st["ms"] += (span[tr.END] - span[tr.START]) / 1e6
        st["self_ms"] += selfs[i] / 1e6
        self_sum[roots[i]] = self_sum.get(roots[i], 0) + selfs[i]
    coverage = []
    for rec in records:
        root = tracer.spans[rec["span"]]
        coverage.append({"kind": rec["kind"], "wall_ms": rec["wall_s"] * 1e3,
                         "span_ms": (root[tr.END] - root[tr.START]) / 1e6,
                         "self_sum_ms": self_sum.get(rec["span"], 0) / 1e6})
    return {"by_kind": by_kind, "coverage": coverage}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--mode", choices=["setup", "plain", "traced"], required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-cycles", type=int, default=1)
    ap.add_argument("--cycles", type=int, default=0, help="fixed cycle count (overrides --seconds)")
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    out_path = Path(args.out).resolve()
    spans_path = Path(args.spans).resolve() if args.spans else None

    probes = [speed_probe()]
    cpu, start = time.process_time(), time.perf_counter()
    sys.path.insert(0, str(SRC))
    import prediagnose.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported prediagnose from {cli.__file__}, not from {SRC}")
    main_fn = cli.main
    tracer = None
    wrapped: list[str] = []
    if args.mode == "traced":
        tracer = tr.Tracer()
        wrapped = tr.install(tracer)
    runner = Runner(main_fn, tracer)

    work = Path(args.dir)
    work.mkdir(parents=True, exist_ok=False)
    os.chdir(work)
    w = workloads.build(args.workload, args.size, args.seed)
    setup = [runner.run(step) for step in w.setup]
    setup_s, setup_wall_s = time.process_time() - cpu, time.perf_counter() - start
    probes.append(speed_probe())
    result = {"mode": args.mode, "setup_s": setup_s, "setup_wall_s": setup_wall_s,
              "setup_probe_s": probes, "setup": setup,
              "data_digest": tree_digest(Path.cwd())}
    if args.mode != "setup":
        first_span = len(tracer.spans) if tracer else 0
        cycles: list[list[dict]] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            t = time.perf_counter()
            cycles.append([runner.run(step) for step in w.cycle])
            cycle_s = time.perf_counter() - t  # wall: the run's length is what --seconds bounds
            if len(cycles) == 1:
                # Peak RSS through set-up and one pass over every command.  Later
                # cycles only add what the allocator keeps from earlier ones
                # (which varies run to run); each CLI call is a fresh process.
                result["peak_rss_mb"] = peak_rss_mb()
            if args.cycles:
                if len(cycles) >= args.cycles:
                    break
            elif len(cycles) >= args.min_cycles and time.perf_counter() + cycle_s > deadline:
                break
        result["cycles"] = cycles
        result["final_probe_s"] = speed_probe()
        if tracer:
            result["wrapped"] = wrapped
            result["setup_stats"] = tr.function_stats(tracer, 0, first_span)
            result["cycle_stats"] = tr.function_stats(tracer, first_span)
            result["commands"] = command_stats(tracer, [r for c in cycles for r in c])
            result["models"] = model_facts(cycles[-1])
            result["n_spans"] = len(tracer.spans)
            if spans_path:
                tracer.write(spans_path)
    result.setdefault("peak_rss_mb", peak_rss_mb())
    result["machine"] = machine_facts()
    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
