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


def test_every_entry_point_the_bench_tracer_wraps_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    H = SimpleNamespace(**{m: importlib.import_module(f"homlin.{m}")
                           for m in spans.LAYER_MODULES})
    missing = [(owner, attr) for owner, attr, _name, _counter in spans.targets(H)
               if attr not in vars(owner)]
    assert missing == []
