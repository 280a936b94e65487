"""Seeded input generators owned by the benchmark.

Inputs are gate lists (``Gate`` tuples, children by index, output = last
gate), written as homlin circuit text.  Deep inputs are built iteratively;
only small shapes (catalogue skeletons, graded circuits) are built by
recursion.  Nothing here imports homlin: a change to homlin's own random
helpers cannot silently change a workload.

The cost of a border expansion depends on the formula's shape far more than on
its size or word length (two shapes with the same word length differ by 100x
once Brent's pass has rebalanced them), so shapes that drive the expansion
cost come from fixed catalogues (catalogue.py): the run's seed draws every
coefficient (generic ones, so no cancellation depends on the seed), a
renaming of the variables, the instance order and every perturbation.  That
keeps the per-run statistics steady across seeds while every input still
comes from the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

VARS = ("x1", "x2", "x3", "x4")
COEFFS = (-2, -1, 1, 1, 1, 2, 3)

Mono = Tuple[Tuple[str, int], ...]
Poly = Dict[Mono, Fraction]


class Gate(NamedTuple):
    kind: str  # input | add | mul | mul3 | negcube
    kids: Tuple[int, ...] = ()
    # skeletons: a tuple of variable indices; concrete gates: {var: Fraction}
    lin: object = None
    const: Fraction = Fraction(0)
    edge: Optional[Tuple[Fraction, ...]] = None
    scale: Optional[Fraction] = None


Gates = List[Gate]


# ---------------------------------------------------------------------------
# text writers (homlin's circuit and polynomial exchange formats)
# ---------------------------------------------------------------------------


def _var_key(name: str):
    return int(name[1:]) if name[1:].isdigit() else name


def poly_text(p: Poly) -> str:
    """Polynomial text: one ``c * x1^2 * x3`` term per monomial."""
    items = [(m, c) for m, c in p.items() if c != 0]
    if not items:
        return "0"
    items.sort(key=lambda mc: (sum(e for _, e in mc[0]),
                               [(_var_key(v), e) for v, e in mc[0]]))
    out = []
    for i, (m, c) in enumerate(items):
        body = " * ".join([str(abs(c))] + [v if e == 1 else f"{v}^{e}" for v, e in m])
        sign = "-" if c < 0 else "+"
        out.append((("-" if c < 0 else "") if i == 0 else f" {sign} ") + body)
    return "".join(out)


def affine_text(lin: Dict[str, Fraction], const: Fraction) -> str:
    p: Poly = {((v, 1),): c for v, c in lin.items()}
    if const:
        p[()] = const
    return poly_text(p)


def circuit_text(gates: Gates, shape: str, basis: str) -> str:
    lines = [f"shape {shape}", f"basis {basis}"]
    for i, g in enumerate(gates, start=1):
        if g.kind == "input":
            body = "input " + affine_text(g.lin, g.const)
        else:
            body = g.kind + " " + " ".join(f"g{k + 1}" for k in g.kids)
            if g.edge is not None:
                body += " [" + " ".join(str(s) for s in g.edge) + "]"
        if g.scale is not None:
            body += f" scale {g.scale}"
        lines.append(f"gate g{i} = {body}")
    lines.append(f"output g{len(gates)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# skeletons and their instantiation
# ---------------------------------------------------------------------------


def generic_coeff(rng: random.Random) -> Fraction:
    """A nonzero integer in [-97, 97]: accidental cancellations become rare,
    so an expansion's term structure (and cost) is the shape's, not the
    seed's."""
    return Fraction(rng.randint(1, 97) * rng.choice((-1, 1)))


def instantiate(skel: Gates, rng: random.Random, n_vars: int = 4) -> Gates:
    """Concrete gates from a skeleton: seeded generic coefficients for every
    leaf variable, under a seeded renaming of the variables."""
    names = [f"x{i}" for i in range(1, n_vars + 1)]
    rng.shuffle(names)
    return [
        g._replace(lin={names[i]: generic_coeff(rng) for i in g.lin})
        if g.kind == "input" else g
        for g in skel
    ]


def _leaf(rng: random.Random, n_vars: int = 4, width: int = 2) -> Gate:
    return Gate("input", lin=tuple(sorted(rng.sample(range(n_vars), rng.randint(1, width)))))


def c3_skeleton(rng: random.Random) -> Gates:
    """Criterion-3 style IHL arity-2 formula: random depth 0-5, each
    non-bottom level stops early with probability 0.2, leaves of width 1-2."""
    out: Gates = []

    def gen(depth: int) -> int:
        if depth == 0 or (depth < 5 and rng.random() < 0.2):
            out.append(_leaf(rng))
        else:
            kind = "add" if rng.random() < 0.5 else "mul"
            a = gen(depth - 1)
            b = gen(depth - 1)
            out.append(Gate(kind, (a, b)))
        return len(out) - 1

    gen(rng.randint(0, 5))
    return out


def _odd_split(rng: random.Random, d: int) -> Tuple[int, int, int]:
    d1 = rng.randrange(1, d - 1, 2)
    d2 = rng.randrange(1, d - d1, 2)
    return d1, d2, d - d1 - d2


def graded3_skeleton(rng: random.Random, d: int, budget: int) -> Gates:
    """Graded IHL arity-3 formula of odd degree d (criterion-4 style)."""
    out: Gates = []

    def gen(deg: int, b: int) -> int:
        if deg == 1:
            if b >= 3 and rng.random() < 0.3:
                half = (b - 1) // 2
                kids = (gen(1, half), gen(1, b - 1 - half))
                out.append(Gate("add", kids))
            else:
                out.append(_leaf(rng))
        elif b >= 4 * deg and rng.random() < 0.35:
            half = (b - 1) // 2
            kids = (gen(deg, half), gen(deg, b - 1 - half))
            out.append(Gate("add", kids))
        else:
            d1, d2, d3 = _odd_split(rng, deg)
            bb = max(b - 1, 3)
            s1 = max(1, bb * d1 // deg)
            s2 = max(1, bb * d2 // deg)
            kids = (gen(d1, s1), gen(d2, s2), gen(d3, max(1, bb - s1 - s2)))
            out.append(Gate("mul3", kids))
        return len(out) - 1

    gen(d, max(budget, 2 * d))
    return out


def even_skeleton(rng: random.Random, d: int, terms: int) -> Gates:
    """Homogeneous IHL arity-2 formula of even degree d: a sum of ``terms``
    balanced products of d leaves."""
    out: Gates = []
    summands = []
    for _ in range(terms):
        level = []
        for _ in range(d):
            out.append(_leaf(rng))
            level.append(len(out) - 1)
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                out.append(Gate("mul", (level[i], level[i + 1])))
                nxt.append(len(out) - 1)
            level = nxt + level[len(level) - len(level) % 2:]
        summands.append(level[0])
    acc = summands[0]
    for s in summands[1:]:
        out.append(Gate("add", (acc, s)))
        acc = len(out) - 1
    return out


# ---------------------------------------------------------------------------
# deep and large inputs for the passes (built iteratively)
# ---------------------------------------------------------------------------


def _affine_leaf(rng: random.Random, with_const: bool) -> Gate:
    vs = rng.sample(VARS, rng.randint(1, 2))
    lin = {v: Fraction(rng.choice(COEFFS)) for v in vs}
    const = Fraction(rng.choice((0, 0, 1, -1, 2))) if with_const else Fraction(0)
    return Gate("input", lin=lin, const=const)


def caterpillar(rng: random.Random, spine: int, ops: Sequence[str],
                with_const: bool = False) -> Gates:
    """A formula whose depth is ``spine``: every spine step combines the
    running value with fresh leaves through an op from ``ops``, each op
    used equally often in a seeded order."""
    steps = [ops[i % len(ops)] for i in range(spine)]
    rng.shuffle(steps)
    out: Gates = [_affine_leaf(rng, with_const)]
    acc = 0
    for kind in steps:
        kids = [acc]
        for _ in range(2 if kind == "mul3" else 1):
            out.append(_affine_leaf(rng, with_const))
            kids.append(len(out) - 1)
        if rng.random() < 0.5:
            kids.reverse()
        out.append(Gate(kind, tuple(kids)))
        acc = len(out) - 1
    return out


def sum_of_triples(rng: random.Random, n: int) -> Gates:
    """A left-deep sum chain of n ternary products of leaves (mulDepth 1)."""
    out: Gates = []
    acc = None
    for _ in range(n):
        for _ in range(3):
            out.append(_affine_leaf(rng, False))
        k = len(out)
        out.append(Gate("mul3", (k - 3, k - 2, k - 1)))
        if acc is not None:
            out.append(Gate("add", (acc, len(out) - 1)))
        acc = len(out) - 1
    return out


def _edge(rng: random.Random) -> Optional[Tuple[Fraction, Fraction]]:
    if rng.random() < 0.6:
        return None
    return (Fraction(rng.choice((1, 2, -1, 3))), Fraction(rng.choice((1, 1, 3, -2)), rng.choice((1, 2))))


def shared_arity2_circuit(rng: random.Random, size: int) -> Gates:
    """Arity-2 circuit with shared gates, affine inputs and edge scalars.
    Each new gate consumes a recent gate no other gate uses yet, so depth
    grows with size, and the gates left unused are summed into the output,
    so every gate is reachable.  A product multiplies by an input (Horner
    style): degree and constant sizes grow linearly, not by squaring."""
    out: Gates = [_affine_leaf(rng, True) for _ in range(6)]
    leaves, unused = list(range(6)), list(range(6))
    while len(out) < size:
        n = len(out)
        if rng.random() < 0.1:
            out.append(_affine_leaf(rng, True))
            leaves.append(n)
        else:
            a = unused.pop(len(unused) - 1 - min(int(rng.expovariate(0.7)), len(unused) - 1))
            if rng.random() < 0.6:
                out.append(Gate("add", (a, rng.randrange(n)), edge=_edge(rng)))
            else:
                out.append(Gate("mul", (a, rng.choice(leaves))))
        unused.append(n)
    while len(unused) > 1:
        out.append(Gate("add", (unused.pop(), unused.pop()), edge=_edge(rng)))
        unused.append(len(out) - 1)
    return out


def graded3_circuit(rng: random.Random, d: int, size: int) -> Gates:
    """Graded IHL arity-3 circuit of odd degree d with about ``size``
    gates, built top-down so every gate is reachable; a quarter of the
    children reuse an earlier gate of the right degree."""
    out: Gates = []
    pool: Dict[int, List[int]] = {}
    budget = [size]

    def build(deg: int) -> int:
        if pool.get(deg) and (budget[0] <= 0 or rng.random() < 0.25):
            return rng.choice(pool[deg])
        budget[0] -= 1
        if deg == 1 and (budget[0] <= 0 or rng.random() < 0.35):
            g = Gate("input", lin={v: Fraction(rng.choice(COEFFS)) for v in rng.sample(VARS, rng.randint(1, 2))})
        elif budget[0] > 0 and (deg == 1 or rng.random() < 0.45):
            g = Gate("add", (build(deg), build(deg)), edge=_edge(rng))
        else:
            g = Gate("mul3", tuple(build(k) for k in _odd_split(rng, deg)))
        out.append(g)
        pool.setdefault(deg, []).append(len(out) - 1)
        return len(out) - 1

    build(d)
    return out


def binomial_product(rng: random.Random, k: int) -> Gates:
    """Product of k binomials; binomial i pairs two fixed variables (under a
    seeded renaming), so the expansion's size depends on k alone."""
    names = list(VARS)
    rng.shuffle(names)
    out: Gates = []
    acc = None
    for i in range(k):
        for v in (names[i % 4], names[(i + 1 + i // 4) % 4]):
            out.append(Gate("input", lin={v: generic_coeff(rng)}))
        out.append(Gate("add", (len(out) - 2, len(out) - 1)))
        if acc is not None:
            out.append(Gate("mul", (acc, len(out) - 1)))
        acc = len(out) - 1
    return out


def depth(gates: Gates) -> int:
    d: List[int] = []
    for g in gates:
        d.append(1 + max(d[k] for k in g.kids) if g.kids else 0)
    return d[-1]


def mul_depth(gates: Gates) -> int:
    d: List[int] = []
    for g in gates:
        inc = 1 if g.kind in ("mul", "mul3", "negcube") else 0
        d.append(inc + (max(d[k] for k in g.kids) if g.kids else 0))
    return d[-1]


# ---------------------------------------------------------------------------
# exact expansion (targets) and perturbation
# ---------------------------------------------------------------------------


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items(), key=lambda ve: _var_key(ve[0])))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def _padd(a: Poly, b: Poly, sa=1, sb=1) -> Poly:
    out = {m: c * sa for m, c in a.items()}
    for m, c in b.items():
        out[m] = out.get(m, 0) + c * sb
    return {m: c for m, c in out.items() if c != 0}


def expand(gates: Gates) -> Poly:
    """The exact polynomial a gate list computes (small inputs only)."""
    vals: List[Poly] = []
    for g in gates:
        if g.kind == "input":
            p = {((v, 1),): c for v, c in g.lin.items() if c}
            if g.const:
                p[()] = g.const
        elif g.kind == "add":
            s1, s2 = g.edge or (1, 1)
            p = _padd(vals[g.kids[0]], vals[g.kids[1]], s1, s2)
        elif g.kind == "mul":
            s1, s2 = g.edge or (1, 1)
            p = _pmul({m: c * s1 * s2 for m, c in vals[g.kids[0]].items()}, vals[g.kids[1]])
        elif g.kind == "mul3":
            p = _pmul(_pmul(vals[g.kids[0]], vals[g.kids[1]]), vals[g.kids[2]])
        else:  # negcube
            a = vals[g.kids[0]]
            p = {m: -c for m, c in _pmul(_pmul(a, a), a).items()}
        if g.scale is not None:
            p = {m: c * g.scale for m, c in p.items()}
        vals.append(p)
    return vals[-1]


def perturb(p: Poly, rng: random.Random, n_vars: int = 4) -> Poly:
    """``p`` plus one seeded monomial at a degree already present in ``p``,
    so a border verifier that restricts to the target's degree still sees
    the difference."""
    degrees = sorted({sum(e for _, e in m) for m in p})
    d = rng.choice(degrees)
    exps: Dict[str, int] = {}
    for _ in range(d):
        v = f"x{rng.randint(1, n_vars)}"
        exps[v] = exps.get(v, 0) + 1
    m = tuple(sorted(exps.items(), key=lambda ve: _var_key(ve[0])))
    return _padd(p, {m: Fraction(rng.choice((-2, -1, 1, 2, 3)))})
