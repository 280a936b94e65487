"""Every imported name in the package modules and the tests is used, and
every entry point the benchmark's tracer wraps exists."""

import ast
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for p in [*ROOT.glob("src/homlin/*.py"), *ROOT.glob("tests/*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Dict\nx: List = []\n") == [
        (1, "os"), (2, "Dict")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def bench_spans():
    """The benchmark's tracer module and the homlin modules it wraps."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    H = SimpleNamespace(**{m: importlib.import_module(f"homlin.{m}")
                           for m in spans.LAYER_MODULES})
    return spans, H


def test_every_entry_point_the_bench_tracer_wraps_exists():
    spans, H = bench_spans()
    missing = [(owner, attr) for owner, attr, _name, _counter in spans.targets(H)
               if attr not in vars(owner)]
    assert missing == []


def test_the_bench_tracer_counts_engine_steps():
    # the tracer reads nce_matrices' factors and degree by position, so a
    # keyword call of it would raise inside every traced instance
    spans, H = bench_spans()
    mw, var = H.matrixword, H.poly.LinearForm.variable
    objs = [
        mw.Projection("C", 3, 1, [var("x1"), var("x2"), var("x3")]),
        mw.Projection("nceL", 1, 1, [var(f"x{i}") for i in range(1, 7)]),
        mw.MatrixWord(2, [{(0, 1): H.poly.Polynomial.variable("x1")}], target=("entry", 1, 2)),
    ]
    tracer = spans.Tracer()
    tracer.install(H)
    try:
        values = [mw.border_value(obj, 1) for obj in objs]
    finally:
        tracer.uninstall()
    assert all(not v.is_zero() for v in values)
    assert tracer.layer_metrics()["families.nce_matrices.steps"] > 0
