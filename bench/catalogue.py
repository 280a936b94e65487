"""Build ``catalogue.json``: the fixed formula shapes of the two border
workloads.

    python3 bench/catalogue.py        # rewrites bench/catalogue.json

Shapes come from the bench's own generators (inputs.py) under fixed
catalogue seeds.  A shape is kept only if its pipeline, instantiated with
seed 0, finishes within the stratum's time cap, so a pool round fits the
run budget: words of the same style otherwise reach minutes (one r = 156
trace3 word takes 150 s; a degree-7 continuant formula about 40 s), and a
run must end within 180 s.  The recorded seconds are from the machine the
catalogue was built on.  A skeleton stores, per gate, its kind and its
children, or for a leaf the indices of its variables; workload seeds draw
the coefficients and a renaming of the variables.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import signal
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Callable, List, Optional

import inputs
from inputs import Gate, Gates

PATH = Path(__file__).resolve().parent / "catalogue.json"

TRACE3_SEED = 3
# (min r, max r, shapes, cap in seconds); r is trace3_word_length
TRACE3_STRATA = ((4, 16, 12, 0.5), (17, 40, 14, 0.5), (41, 70, 6, 1.2), (71, 100, 4, 1.2))
CONTINUANT_SEED = 4
# (degree, size budget, shapes, cap in seconds)
CONTINUANT_ODD = ((3, 6, 6, 0.5), (3, 12, 6, 0.5), (3, 20, 4, 0.5), (5, 10, 2, 1.5), (5, 16, 1, 1.5))
# (degree, summands, shapes, cap in seconds)
CONTINUANT_EVEN = ((2, 1, 4, 0.5), (2, 2, 3, 0.5), (2, 3, 1, 0.5), (4, 1, 1, 1.0))


def encode(skel: Gates) -> list:
    return [["input", list(g.lin)] if g.kind == "input" else [g.kind, list(g.kids)] for g in skel]


def decode(rows: list) -> Gates:
    return [Gate("input", lin=tuple(x)) if k == "input" else Gate(k, tuple(x)) for k, x in rows]


def load() -> dict:
    """{workload part: [entry]} with each entry's gates decoded."""
    with open(PATH, encoding="utf-8") as fh:
        data = json.load(fh)
    return {k: [{**e, "gates": decode(e["gates"])} for e in v]
            for k, v in data.items() if isinstance(v, list)}


def trace3_word_length(skel: Gates) -> int:
    """Word length compile_trace3 gives the formula itself (before Brent)."""
    off: List[int] = []
    for g in skel:
        if g.kind == "input":
            off.append(1)
        else:
            a, b = off[g.kids[0]], off[g.kids[1]]
            off.append(a + b if g.kind == "add" else 2 * (a + b))
    stack, r = [len(skel) - 1], 0
    while stack:
        g = skel[stack.pop()]
        if g.kind == "add":
            stack += g.kids
        else:
            r += 4 if g.kind == "input" else 2 * (off[g.kids[0]] + off[g.kids[1]])
    return r


class _Timeout(Exception):
    pass


def _timed(fn: Callable[[], object], cap: float) -> Optional[float]:
    """Seconds ``fn`` took, or None past ``cap``."""
    def alarm(*_):
        raise _Timeout()
    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    t = perf_counter()
    try:
        fn()
        return perf_counter() - t
    except _Timeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def build() -> dict:
    sys.path.insert(0, str(PATH.parent.parent / "src"))
    from homlin.cli import main
    from homlin.circuit import parse_circuit
    from homlin.matrixword import compile_continuant_even
    from homlin.poly import parse_poly
    from homlin.transforms import vf_to_v3p
    from homlin.verify import verify_border

    tmp = tempfile.mkdtemp()

    def pipeline(skel: Gates, basis: str, target: str) -> Callable[[], object]:
        text = inputs.circuit_text(inputs.instantiate(skel, random.Random(0)), "formula", basis)
        src = os.path.join(tmp, "in.circ")
        with open(src, "w") as fh:
            fh.write(text)

        def run():
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                if main(["pipeline", "--in", src, "--target", target, "--out", os.path.join(tmp, "o")]) != 0:
                    raise RuntimeError("pipeline failed")
        return run

    def even(skel: Gates, d: int) -> Callable[[], object]:
        gates = inputs.instantiate(skel, random.Random(0))
        text, target = inputs.circuit_text(gates, "formula", "arity2"), inputs.poly_text(inputs.expand(gates))

        def run():
            p = compile_continuant_even(vf_to_v3p(parse_circuit(text))[0], d)
            if not verify_border(p, parse_poly(target)).verdict:
                raise RuntimeError("even pipeline failed")
        return run

    def entry(skel: Gates, seconds: float, **extra) -> dict:
        return {**extra, "seconds": round(seconds, 3), "gates": encode(skel)}

    out = {"about": __doc__.strip().splitlines()[0], "trace3": [], "continuant_odd": [], "continuant_even": []}
    rng = random.Random(TRACE3_SEED)
    for lo, hi, count, cap in TRACE3_STRATA:
        kept = 0
        while kept < count:
            skel = inputs.c3_skeleton(rng)
            r = trace3_word_length(skel)
            if lo <= r <= hi:
                t = _timed(pipeline(skel, "arity2", "trace3"), cap)
                if t is not None:
                    out["trace3"].append(entry(skel, t, r=r))
                    kept += 1
    rng = random.Random(CONTINUANT_SEED)
    for d, budget, count, cap in CONTINUANT_ODD:
        kept = 0
        while kept < count:
            skel = inputs.graded3_skeleton(rng, d, budget)
            t = _timed(pipeline(skel, "arity3", "continuant"), cap)
            if t is not None:
                out["continuant_odd"].append(entry(skel, t, degree=d))
                kept += 1
    for d, terms, count, cap in CONTINUANT_EVEN:
        kept = 0
        while kept < count:
            skel = inputs.even_skeleton(rng, d, terms)
            t = _timed(even(skel, d), cap)
            if t is not None:
                out["continuant_even"].append(entry(skel, t, degree=d))
                kept += 1
    shutil.rmtree(tmp, ignore_errors=True)
    return out


if __name__ == "__main__":
    data = build()
    parts = [f' "about": {json.dumps(data.pop("about"))}']
    for key, entries in data.items():
        rows = ",\n  ".join(json.dumps(e, separators=(",", ":")) for e in entries)
        parts.append(f' "{key}": [\n  {rows}]')
        print(key, len(entries), "shapes,", round(sum(e["seconds"] for e in entries), 2), "s at seed 0")
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(parts) + "\n}\n")
