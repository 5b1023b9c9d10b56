"""Every span name the benchmark reports on names a public function of the package.

bench/spans.py records a span per call of each public function, named
"<module>.<function>".  A metric keyed by a name that no longer exists reads 0
and raises nothing, so renaming or inlining a function would silently empty a
per-layer metric.  This test reads bench/ only; it changes nothing there.
"""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import prediagnose
from prediagnose.cli import build_parser

BENCH = Path(__file__).resolve().parent.parent / "bench"


def assigned(path: Path, name: str) -> ast.expr:
    """The value assigned to the module-level name in the file at path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def strings(node: ast.AST) -> list[str]:
    """Every string constant in node."""
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def within_names(path: Path) -> list[str]:
    """Span names passed to within(kind, *names): every positional argument but the kind."""
    return [name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "within"
            for arg in node.args[1:] for name in strings(arg)]


def span_names(table: str) -> list[str]:
    run, spans = BENCH / "run.py", BENCH / "spans.py"
    if table == "within":
        return within_names(run)
    if table == "SKIP":
        return strings(assigned(spans, "SKIP"))
    path = spans if table == "BYTES" else run
    return [key.value for key in assigned(path, table).keys]


def public_functions() -> set[str]:
    names = set()
    for info in pkgutil.iter_modules(prediagnose.__path__):
        module = importlib.import_module(f"prediagnose.{info.name}")
        names |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                  if inspect.isfunction(obj) and not name.startswith("_")
                  and obj.__module__ == module.__name__}
    return names


def bench_steps() -> list:
    """Every command step of every workload the benchmark runs, at both sizes."""
    workloads = runpy.run_path(str(BENCH / "workloads.py"))
    return [step for size in workloads["SIZES"] for name in workloads["WHY"]
            for w in [workloads["build"](name, size, 1)] for step in w.setup + w.cycle]


def command_spans() -> set[str]:
    """bench/worker.py wraps each CLI command in a span named cli.<step kind>."""
    return {f"cli.{step.kind}" for step in bench_steps()}


def test_bench_command_lines_parse():
    # A flag the benchmark passes but the CLI no longer takes would
    # otherwise fail only a benchmark run.
    steps = bench_steps()
    assert len(steps) > 20
    for step in steps:
        args = build_parser().parse_args(step.argv)
        assert args.command == step.kind.removesuffix("_seq"), step.argv


@pytest.mark.parametrize("table", ["LAYER_STATS", "SETUP_STATS", "BYTES", "SKIP", "within"])
def test_bench_span_names_are_public_functions(table):
    names = span_names(table)
    assert names, f"no span names found in {table}"
    known = public_functions() | (command_spans() if table == "LAYER_STATS" else set())
    assert [n for n in names if n not in known] == []


# A toy flow through every command kind the workloads run, in a fresh
# interpreter with bench/spans.py's tracer installed as bench/worker.py
# installs it; prints the names of the spans it recorded.
TRACED_FLOW = """
import json, sys, tempfile
sys.path.insert(0, {bench!r})
import spans
import prediagnose.cli as cli

tracer = spans.Tracer()
spans.install(tracer)
with tempfile.TemporaryDirectory() as t:
    for command in [
        "synth thermal --out {{t}}/img --n 8 --seed 1",
        "synth thermal --out {{t}}/seq --n 1 --seed 2 --frames 5",
        "synth cardio --task lung --out {{t}}/rec --n 8 --seed 3 --rate 4000 --duration 2",
        "train clot --data {{t}}/img --out {{t}}/clot.json --threads 1",
        "eval --model {{t}}/clot.json --data {{t}}/img --threads 1",
        "eval --model {{t}}/clot.json --data {{t}}/img --kfold 2 --threads 1",
        "predict clot --model {{t}}/clot.json --input {{t}}/img/sample0000.pgm --threads 1",
        "predict clot --model {{t}}/clot.json --sequence {{t}}/seq/seq0000 --threads 1",
        "train cardio --data {{t}}/rec --out {{t}}/lung.json --threads 1",
        "eval --model {{t}}/lung.json --data {{t}}/rec --threads 1",
        "predict cardio --model {{t}}/lung.json --input {{t}}/rec/rec0000.wav --threads 1",
    ]:
        assert cli.main(command.format(t=t).split()) == 0, command
print(json.dumps(sorted({{tracer.names[s[spans.NAME]] for s in tracer.spans}})))
"""


def test_bench_span_names_are_reached_by_the_commands():
    # A name the benchmark reads but no command calls (a function kept but
    # taken off the path the commands run) would read 0 with no error.
    # The cli.<kind> names are the worker's own spans around each command.
    src = str(Path(prediagnose.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", TRACED_FLOW.format(bench=str(BENCH))], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    reached = set(json.loads(proc.stdout.splitlines()[-1]))
    read = {name for table in ("LAYER_STATS", "SETUP_STATS", "BYTES", "within")
            for name in span_names(table)} - command_spans()
    assert len(read) > 30
    assert sorted(read - reached) == []
