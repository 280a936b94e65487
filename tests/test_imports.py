"""Every imported name in the package modules and the tests is used, every
function and method in the package is reached, and every entry point the
benchmark's tracer wraps exists."""

import ast
import importlib.util
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the benchmark's scripts are read, never changed, by these checks
FILES = sorted(
    p for p in [*ROOT.glob("src/homlin/*.py"), *ROOT.glob("tests/*.py"),
                *ROOT.glob("bench/*.py"), *ROOT.glob("bench/tests/*.py")]
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


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)).removeprefix("src/"))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


SRC = sorted(ROOT.glob("src/homlin/*.py"))


def _mentions(*nodes):
    """The bare names and the attribute names the given nodes mention, as
    two sets."""
    names, attrs = set(), set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
    return names, attrs


def unreached_defs(sources, roots):
    """The top-level functions and class methods (dunders aside) of the
    given ``{module: source}``, as ``module.name`` or ``module.Class.name``,
    that no reached code mentions.  Reached are the ``roots`` (qualified the
    same way), module-level and class-level statements, dunder methods, and,
    transitively, every function whose name reached code mentions and every
    method whose name it mentions as an attribute (``x.name``): a bare name
    is a parameter or a local as often as a method."""
    defs, names, attrs = {}, set(), set()

    def mention(*nodes):
        found_names, found_attrs = _mentions(*nodes)
        names.update(found_names)
        attrs.update(found_attrs)

    for mod, src in sources.items():
        for node in ast.parse(src).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{mod}.{node.name}"] = (node, False)
            elif isinstance(node, ast.ClassDef):
                mention(*node.bases, *node.keywords, *node.decorator_list)
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        mention(item)
                    elif item.name.startswith("__") and item.name.endswith("__"):
                        mention(item)
                    else:
                        defs[f"{mod}.{node.name}.{item.name}"] = (item, True)
            else:
                mention(node)
    unreached = dict(defs)
    while reach := [q for q, (f, method) in unreached.items()
                    if q in roots or f.name in attrs or (not method and f.name in names)]:
        for q in reach:
            mention(unreached.pop(q)[0])
    return sorted(unreached)


def test_reachability_scanner_flags_a_dead_chain():
    sources = {
        "a": "def used():\n    return helper()\n\ndef helper():\n    return 1\n\n"
             "def dead():\n    return chained() + dead()\n\ndef chained():\n    return 2\n",
        "b": "import a\n\nclass K:\n    def m(self):\n        return a.used()\n"
             "    def __eq__(self, other):\n        return self.n()\n    def n(self):\n"
             "        return True\n\nTABLE = {'k': a.listed}\n\ndef listed():\n    return 3\n",
    }
    assert unreached_defs(sources, {"b.K.m"}) == ["a.chained", "a.dead"]
    assert unreached_defs(sources, set()) == ["a.chained", "a.dead", "a.helper", "a.used", "b.K.m"]


def test_reachability_scanner_reads_a_bare_name_as_no_call_of_a_method():
    # a method no code calls, whose name is a parameter of reached code (as
    # Polynomial.alpha was), is unreached; one read as an attribute is not
    sources = {"poly": "class Polynomial:\n    def alpha(self):\n        return 1\n"
                       "    def scale(self, c):\n        return c\n\n"
                       "def run(p, alpha):\n    return p.scale(alpha)\n"}
    assert unreached_defs(sources, {"poly.run"}) == ["poly.Polynomial.alpha"]
    sources["poly"] += "\ndef main(p):\n    return p.alpha()\n"
    assert unreached_defs(sources, {"poly.run", "poly.main"}) == []


def bench_calls(sources):
    """``module.name`` of every homlin name the given bench ``{module:
    source}`` imports (``from homlin.m import n``) or reads off its homlin
    namespace (``H.m.n``)."""
    found = set()
    for src in sources.values():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("homlin."):
                found |= {f"{node.module.split('.')[-1]}.{a.name}" for a in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                  and isinstance(node.value.value, ast.Name) and node.value.value.id == "H"):
                found.add(f"{node.value.attr}.{node.attr}")
    return found


def test_bench_call_scanner_reads_imports_and_the_homlin_namespace():
    sources = {"a": "def f(H):\n    from homlin.cli import main\n    from os import path\n"
                    "    return H.verify.verify_border(H.poly.parse_poly('x1'), H.x)\n"}
    assert bench_calls(sources) == {"cli.main", "verify.verify_border", "poly.parse_poly"}


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


def test_every_function_is_reached_from_a_command_or_the_bench():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC if p.name != "__init__.py"}
    bench = {p.stem: p.read_text(encoding="utf-8") for p in ROOT.glob("bench/*.py")}
    roots = {"cli.main"} | bench_calls(bench) | wrapped_by_bench()
    assert unreached_defs(sources, roots) == []


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


def test_the_bench_tracer_sees_every_artifact_parse(tmp_path):
    # the tracer rebinds module attributes, so the CLI must look each parser
    # up by name when it loads an artifact, not hold the function objects
    spans, H = bench_spans()
    texts = {"w.txt": "dim 2\nfactor: (1,2)=x1\nscalar: 1\ntarget: entry(1,2)\n",
             "p.txt": "projection C n 1 d 1 border 0\nform x1: x1\n",
             "c.circ": "basis arity2\ngate g1 = input x1\noutput g1\n"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    tracer = spans.Tracer()
    tracer.install(H)
    try:
        for name in texts:
            H.cli.load_artifact(str(tmp_path / name))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert (metrics.get("matrixword.parse.calls"), metrics.get("circuit.parse.calls")) == (2, 1)


def nce_matrices_calls(sources):
    """(``module:line``, whether factors and d are passed by position) for
    every ``nce_matrices`` call in the given ``{module: source}``."""
    found = []
    for mod, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "nce_matrices":
                    head = node.args[:2]
                    positional = len(head) == 2 and not any(isinstance(a, ast.Starred) for a in head)
                    found.append((f"{mod}:{node.lineno}", positional))
    return found


def test_call_scanner_flags_factors_or_degree_by_keyword():
    sources = {"a": "nce_matrices(fs, 3, read)\nf.nce_matrices(fs, d=3, read=r)\n"
                    "nce_matrices(*args)\nnce_matrices(factors=fs, d=2, read=r)\n"}
    assert nce_matrices_calls(sources) == [
        ("a:1", True), ("a:2", False), ("a:3", False), ("a:4", False)]


def test_every_nce_matrices_call_passes_factors_and_degree_by_position():
    # the bench tracer's steps counter reads them as a[0] and a[1], so a
    # keyword call would raise inside every traced instance that makes it
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC}
    calls = nce_matrices_calls(sources)
    assert calls and [where for where, positional in calls if not positional] == []


def file_writes(sources):
    """``module.function`` (or ``module`` at top level) of every ``os.open``
    call and every ``open`` call whose mode is not a constant read-only mode
    in the given ``{module: source}``."""
    found = []

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = f"{where.split('.')[0]}.{node.name}"
        if isinstance(node, ast.Call):
            fn = node.func
            if (isinstance(fn, ast.Attribute) and fn.attr == "open"
                    and isinstance(fn.value, ast.Name) and fn.value.id == "os"):
                found.append(where)
            elif isinstance(fn, ast.Name) and fn.id == "open":
                modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
                mode = modes[0] if modes else ast.Constant("r")
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+")):
                    found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for mod, src in sources.items():
        visit(ast.parse(src), mod)
    return sorted(found)


def test_write_scanner_flags_every_writing_open():
    sources = {
        "a": "def r(p):\n    return open(p).read() + open(p, 'rb').read() + open(p, mode='r')\n",
        "b": "import os\n\ndef w(p, m):\n    open(p, 'w'); open(p, mode='ab'); open(p, m)\n"
             "    os.open(p, os.O_RDONLY)\n\nopen('x', 'r+')\n",
    }
    assert file_writes(sources) == ["b", "b.w", "b.w", "b.w", "b.w"]


def test_every_file_the_package_writes_goes_through_one_writer():
    # so each artifact is overwritten in place and cut to length, never
    # truncated on open
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC}
    assert set(file_writes(sources)) == {"cli._write_text"}


def contract_checks(sources):
    """For every pass behind a ``run_pass`` branch (``return <pass>(...)``
    in ``transforms.run_pass``) and every ``compile_*`` function in
    ``matrixword``, as ``module.name``: ``"first"`` when its first statement
    after the docstring is a ``require`` call, ``"called"`` when it reaches
    ``require`` only through the functions it calls, else None.  Calls are
    matched by bare name, across all the given ``{module: source}``."""
    defs, consumers = {}, []
    for mod, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
                if mod == "matrixword" and node.name.startswith("compile_"):
                    consumers.append(f"{mod}.{node.name}")
                if mod == "transforms" and node.name == "run_pass":
                    consumers += [f"transforms.{r.value.func.id}" for r in ast.walk(node)
                                  if isinstance(r, ast.Return) and isinstance(r.value, ast.Call)
                                  and isinstance(r.value.func, ast.Name)]

    def callees(f):
        return {c.func.id if isinstance(c.func, ast.Name) else c.func.attr
                for c in ast.walk(f) if isinstance(c, ast.Call)
                and isinstance(c.func, (ast.Name, ast.Attribute))}

    def reaches(name, seen):
        if name == "require":
            return True
        if name in seen:
            return False
        seen.add(name)
        return any(reaches(c, seen) for f in defs.get(name, ()) for c in callees(f))

    def first_is_require(f):
        body = f.body[1:] if ast.get_docstring(f) is not None else f.body
        head = body[0] if body else None
        return (isinstance(head, ast.Expr) and isinstance(head.value, ast.Call)
                and isinstance(head.value.func, ast.Attribute)
                and head.value.func.attr == "require")

    found = {}
    for qualname in consumers:
        f = defs[qualname.split(".")[1]][0]
        found[qualname] = ("first" if first_is_require(f)
                           else "called" if reaches(f.name, set()) else None)
    return found


# a hand-built contract message: "<who> expects a formula", "... the <b>
# basis", "... an IHL circuit", "... arity-2 gates"
_CONTRACT_WORDING = re.compile(r"expects .*\b(formula|basis|IHL|gates)\b")


def contract_raises(sources):
    """``module.function`` (``module.Class.function`` for a method) of every
    ``raise`` whose message, a string, an f-string (its placeholders read as
    ``{}``) or a sum of them, carries contract wording, in the given
    ``{module: source}``."""
    found = set()

    def message(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.JoinedStr):
            return "".join(message(v) if isinstance(v, ast.Constant) else "{}"
                           for v in node.values)
        if isinstance(node, ast.BinOp):  # "..." + name
            return message(node.left) + message(node.right)
        return ""

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and any(_CONTRACT_WORDING.search(message(a)) for a in node.exc.args)):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for mod, src in sources.items():
        visit(ast.parse(src), mod)
    return sorted(found)


def test_contract_scanners_flag_a_consumer_without_require_and_a_hand_built_message():
    sources = {
        "transforms": (
            "def run_pass(name, c):\n    if name == 'a':\n        return a(c)\n"
            "    if name == 'b':\n        return b(c)\n    return d(c)\n"
            "def a(c):\n    '''doc'''\n    c.require('a', shape='formula')\n"
            "def b(c):\n    n = 1\n    helper(c)\n"
            "def helper(c):\n    c.require('b')\n"
            "def d(c):\n    raise BasisViolation(f'{who} expects the {b} basis')\n"),
        "matrixword": (
            "def compile_x(c):\n    return _walk(c)\n"
            "def _walk(n):\n    raise ValueError('walk expects arity-2 gates, got ' + n)\n"
            "class K:\n    def m(self):\n        raise ValueError(\"k expects a formula\")\n"
            "    def n(self):\n        raise ValueError(f'{k} expects 2 children')\n"),
    }
    assert contract_checks(sources) == {
        "transforms.a": "first", "transforms.b": "called", "transforms.d": None,
        "matrixword.compile_x": None}
    assert contract_raises(sources) == ["matrixword.K.m", "matrixword._walk", "transforms.d"]


# consumers whose contract is checked where they read each input, not first
CHECKED_IN_PLACE = {
    "matrixword.compile_continuant_even":
        "checks each even part it reads through GradedArity3Repr.part_value",
}


def test_every_pass_and_compiler_checks_its_contract_through_require():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC}
    checks = contract_checks(sources)
    assert len(checks) == 14  # ten passes and four compilers
    assert {q: how for q, how in checks.items() if how != "first"} == dict.fromkeys(
        CHECKED_IN_PLACE, "called")


def test_only_require_builds_a_contract_message():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC}
    assert contract_raises(sources) == ["circuit.Circuit.require"]
