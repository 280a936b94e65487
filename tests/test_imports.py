"""Every imported name in the package modules and the tests is used, every
function and method in the package is reached, and every entry point the
benchmark's tracer wraps exists."""

import ast
import importlib.util
from collections import Counter
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


SRC = sorted(ROOT.glob("src/homlin/*.py"))

# Public library entry points that no package code calls, with the reason
# each stays in the package.
ENTRY_POINTS = {
    "circuit.GradedArity3Repr.reassemble":
        "the documented inverse of vf-to-v3p's graded decomposition",
    "poly.Polynomial.is_homogeneous": "kernel predicate over homog_degrees for library callers",
    "matrixword.word_to_projection": "maps a 3x3 word onto the nceL family for library callers",
    "verify.random_formula": "seeded generator of affine arity-2 formulas",
    "verify.random_ihl_formula": "seeded generator of IHL arity-2 formulas",
    "verify.random_arity2_circuit": "seeded generator of arity-2 circuits",
    "verify.random_graded_arity3_formula": "seeded generator of graded arity-3 formulas",
    "verify.random_graded_arity3_circuit": "seeded generator of graded arity-3 circuits",
}


def unreferenced_defs(sources):
    """The top-level functions and class methods (dunders aside) of the
    given ``{module: source}`` whose name no code mentions outside their own
    ``def``, as ``module.name`` or ``module.Class.name``."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}

    def names(node):
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
        )

    everywhere = sum((names(t) for t in trees.values()), Counter())
    found = []
    for mod, tree in trees.items():
        defs = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs += [(f"{mod}.{node.name}.{f.name}", f) for f in node.body
                         if isinstance(f, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                defs.append((f"{mod}.{node.name}", node))
        for qualname, f in defs:
            if f.name.startswith("__") and f.name.endswith("__"):
                continue
            if everywhere[f.name] == names(f)[f.name]:
                found.append(qualname)
    return sorted(found)


def test_reachability_scanner_flags_an_unreferenced_def():
    sources = {
        "a": "def used():\n    return 1\n\ndef dead():\n    return dead()\n",
        "b": "import a\n\nclass K:\n    def m(self):\n        return a.used()\n"
             "    def __eq__(self, other):\n        return True\n",
    }
    assert unreferenced_defs(sources) == ["a.dead", "b.K.m"]


def wrapped_by_bench():
    """``module.name`` / ``module.Class.name`` of every callable the
    benchmark's tracer wraps."""
    spans, H = bench_spans()
    out = set()
    for owner, attr, _name, _counter in spans.targets(H):
        if isinstance(owner, type):
            out.add(f"{owner.__module__.split('.')[-1]}.{owner.__qualname__}.{attr}")
        else:
            out.add(f"{owner.__name__.split('.')[-1]}.{attr}")
    return out


def test_every_function_is_referenced_wrapped_or_an_entry_point():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC if p.name != "__init__.py"}
    unreached = set(unreferenced_defs(sources)) - wrapped_by_bench()
    assert sorted(unreached - set(ENTRY_POINTS)) == []
    # an entry point that gains a caller leaves the list
    assert sorted(set(ENTRY_POINTS) - unreached) == []


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
    mw, var = H.matrixword, H.poly.Polynomial.variable
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
