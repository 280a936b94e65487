"""Span tracer kept in the benchmark's own files.

``Tracer.install`` wraps homlin's public entry points, in every homlin module
namespace that binds them (``homlin.cli`` imports ``compile_trace3``,
``run_pass`` and the rest by name), plus the polynomial kernel's
``Polynomial.__mul__/__rmul__/__add__`` and ``Coeff.__mul__/__rmul__``.
``uninstall`` restores the originals, so untraced runs carry no wrappers.

Each span is (name, start, end, parent span, instance); spans live in flat
arrays while the run lasts and are written out when it ends.  Counts taken
at the same boundaries (term pairs, output terms, word factors, DP steps)
are summed per metric as the wrapped calls return; a counter key with a dot
names its metric in full.

Recursive helpers (``copy_tree``, ``simplify``, ``FNode`` methods) are not
wrapped: a wrapper frame per recursion level would move the depth at which
the deep inputs hit Python's recursion limit, and with it their outcome.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAYER_MODULES = ("poly", "circuit", "transforms", "matrixword", "families", "verify", "cli")

PASS_FUNCTIONS = {
    "brent_formula": "brent",
    "input_homogenize_formula": "ihl-formula",
    "brent_arity3": "brent3",
    "to_add_negcube": "add-negcube",
    "input_homogenize_circuit": "ihl-circuit",
    "vsbr_arity3": "vsbr3",
    "vf_to_v3p": "vf-to-v3p",
}


def _terms(x) -> int:
    return len(getattr(x, "terms", None) or ()) or 1


def _mul_counts(args, out):
    return {"term_pairs": _terms(args[0]) * _terms(args[1]), "out_terms": len(out.terms)}


def _pass_counts(args, out):
    m = out[1].output_metrics
    return {"out_size": m["size"], "out_depth": m["depth"]}


def _factors(args, out):
    return {"matrixword.word_factors": out.r() if hasattr(out, "r") else out.n}


def targets(H) -> List[Tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, counter) for every wrapped callable."""
    P, C = H.poly.Polynomial, H.poly.Coeff
    t: List[Tuple[object, str, str, Optional[Callable]]] = [
        (P, "__mul__", "poly.mul", _mul_counts),
        (P, "__rmul__", "poly.mul", _mul_counts),
        (P, "__add__", "poly.add", None),
        (C, "__mul__", "poly.coeff_mul", None),
        (C, "__rmul__", "poly.coeff_mul", None),
        (P, "substitute", "poly.substitute", None),
        (P, "eps_limit", "poly.eps_limit", lambda a, out: {"out_terms": len(out.terms)}),
        (P, "homog_component", "poly.homog_component", None),
        (H.poly, "parse_poly", "poly.parse", None),
        (H.poly, "format_poly", "poly.format", None),
        (H.circuit, "parse_circuit", "circuit.parse", lambda a, out: {"bytes": len(a[0])}),
        (H.circuit, "print_circuit", "circuit.print", None),
        (H.circuit.Circuit, "eval_gates", "circuit.eval", None),
        (H.circuit, "circuit_to_tree", "circuit.tree", None),
        (H.circuit, "tree_to_circuit", "circuit.tree", None),
        (H.matrixword, "compile_trace3", "matrixword.compile.trace3", _factors),
        (H.matrixword, "compile_continuant_odd", "matrixword.compile.continuant_odd", _factors),
        (H.matrixword, "compile_continuant_even", "matrixword.compile.continuant_even", _factors),
        (H.matrixword, "expand_word", "matrixword.expand_word", None),
        (H.matrixword, "border_value", "matrixword.border_value",
         lambda a, out: {"out_terms": len(out.terms)}),
        (H.matrixword, "format_word", "matrixword.format", None),
        (H.matrixword, "format_projection", "matrixword.format", None),
        (H.matrixword, "parse_word", "matrixword.parse", None),
        (H.matrixword, "parse_projection", "matrixword.parse", None),
        (H.families, "nce_matrices", "families.nce_matrices",
         lambda a, out: {"steps": len(a[0]) * a[1]}),
        (H.verify, "verify_border", "verify.border", None),
        (H.verify, "verify_exact", "verify.exact", None),
        (H.cli, "main", "cli.main", None),
    ]
    t += [(H.transforms, fn, f"transforms.{name}", _pass_counts)
          for fn, name in PASS_FUNCTIONS.items()]
    return t


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self.instances: List[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.inst = array("i")
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}
        self._instance = -1
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def begin_instance(self, name: str):
        self.instances.append(name)
        self._instance = len(self.instances) - 1

    def _count(self, key: str, n: int):
        self.counts[key] = self.counts.get(key, 0) + n

    def _name_index(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _record(self, nid: int, start: float, end: float, parent: int, inst: int) -> int:
        """Append a span; returns its index."""
        for arr, v in zip((self.name, self.start, self.end, self.parent, self.inst),
                          (nid, start, end, parent, inst)):
            arr.append(v)
        return len(self.start) - 1

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        nid = self._name_index(name)
        stack, opened = self._stack, self._open
        in_border = name in ("poly.eps_limit", "matrixword.border_value")
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._record(nid, perf_counter(), 0.0, stack[-1] if stack else -1, tracer._instance)
            stack.append(idx)
            opened[name] = opened.get(name, 0) + 1
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
                opened[name] -= 1
            if counter is not None:
                for key, n in counter(args, out).items():
                    tracer._count(key if "." in key else f"{name}.{key}", n)
                    if in_border and key == "out_terms" and opened.get("verify.border"):
                        tracer._count(f"verify.border.{name.split('.')[-1]}_terms", n)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching --------------------------------------------------------------
    def install(self, H):
        """Wrap every target, in the owner and in every homlin module that
        binds the same function object."""
        modules = [getattr(H, m) for m in LAYER_MODULES]
        for owner, attr, name, counter in targets(H):
            fn = owner.__dict__[attr]
            w = self.wrap(name, fn, counter)
            binders = [owner] if isinstance(owner, type) else [
                m for m in modules if m.__dict__.get(attr) is fn]
            for b in binders:
                self._saved.append((b, attr, fn))
                setattr(b, attr, w)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- derivation --------------------------------------------------------------
    def self_times(self) -> array:
        """Each span's duration minus the part its child spans cover."""
        child = array("d", bytes(8 * len(self.start)))
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return array("d", (self.end[i] - self.start[i] - child[i] for i in range(len(self.start))))

    def layer_metrics(self) -> Dict[str, float]:
        """calls and self_s per span name, plus every recorded count."""
        out: Dict[str, float] = {}
        selfs = self.self_times()
        for i, s in enumerate(selfs):
            n = self.names[self.name[i]]
            out[f"{n}.calls"] = out.get(f"{n}.calls", 0) + 1
            out[f"{n}.self_s"] = out.get(f"{n}.self_s", 0.0) + s
        out.update(self.counts)
        return out

    def write(self, folder: str):
        os.makedirs(folder, exist_ok=True)
        for key in ("name", "start", "end", "parent", "inst"):
            with open(os.path.join(folder, f"{key}.{getattr(self, key).typecode}"), "wb") as fh:
                getattr(self, key).tofile(fh)
        with open(os.path.join(folder, "index.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": len(self.start), "names": self.names,
                       "instances": self.instances,
                       "arrays": "native-endian name.H start.d end.d parent.i inst.i"}, fh)


def synthetic(spans: Sequence[Tuple[str, float, float, int]]) -> Tracer:
    """A tracer holding the given (name, start, end, parent) spans; used by
    the self-tests of the self-time arithmetic."""
    t = Tracer()
    for name, start, end, parent in spans:
        t._record(t._name_index(name), start, end, parent, -1)
    return t
