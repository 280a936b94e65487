"""Source-to-source passes on formulas and circuits.

All passes are pure: they take a ``Circuit`` and return a fresh ``Circuit``
(or a richer result object) together with a ``PassReport`` that records the
size/depth bound the pass promises and whether the output met it.

Formula passes operate on the ``FNode`` tree view internally; circuit passes
sweep the topologically ordered gate list.  Trees are shared values: no pass
mutates a node, so a pass reuses the subtrees it does not change, and a
rewrite names the subtree it replaces by its position (a path of child
indices from the root), never by object identity.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import is_
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from .circuit import (
    Circuit,
    FNode,
    Gate,
    GradedArity3Repr,
    balanced_add,
    circuit_to_tree,
    tree_to_circuit,
)
from .poly import _UNIT, COEFF_ONE, COEFF_ZERO, Coeff, Polynomial, Rat, _clean, _var_key


class NeedsRootExtraction(ValueError):
    """Folding a scalar through a negative-cube gate would need a cube root."""


@dataclass
class PassReport:
    pass_name: str
    input_metrics: Dict[str, int]
    output_metrics: Dict[str, int]
    bound_formula: str
    bound_satisfied: bool
    details: Dict[str, object] = field(default_factory=dict)


def _metrics(c: Circuit) -> Dict[str, int]:
    """The size, depth and mulDepth of ``c``, as the constructor recorded them."""
    depth, mul_depth = c.depths()
    return {"size": c.size(), "depth": depth, "mulDepth": mul_depth}


# ---------------------------------------------------------------------------
# tree helpers
# ---------------------------------------------------------------------------


_ONE = Polynomial.const(1)


def _foldable(n: FNode) -> bool:
    """An ``input`` node: every fold sums these into one leaf (a sum of
    affine leaves is one affine form), and nothing else."""
    return n.kind == "input"


def _is_zero_leaf(n: FNode) -> bool:
    return n.kind == "input" and not n.form.terms


def _is_one_leaf(n: FNode) -> bool:
    return n.kind == "input" and n.form == _ONE and n.scale == 1


def simplify(node: FNode) -> Optional[FNode]:
    """The fixed simplifier: ternary product with a zero factor vanishes, an
    addition with a zero child collapses to the other child, an addition of
    two leaves is one leaf holding their sum (zero when it cancels), a
    ternary product with two constant-1 factors is its third factor, and
    vanished gates are removed transitively.  ``None`` encodes the zero
    formula.  Each gate's rule is ``_simplified``, applied once its children
    are simplified."""
    if node.kind == "input":
        return None if _is_zero_leaf(node) else node
    return _simplified(node, [simplify(ch) for ch in node.children])


def _simplified(node: FNode, kids: List[Optional[FNode]]) -> Optional[FNode]:
    """The simplifier's rule at gate ``node``, whose children simplify to
    ``kids`` (``None`` = 0); ``node`` itself when every child is unchanged
    and no rule applies."""
    kind = node.kind
    if kind == "add":
        a, b = kids
        if a is None or b is None:
            rest = b if a is None else a
            return None if rest is None else rest.scaled(node.scale)
        if _foldable(a) and _foldable(b):
            form = _affine_sum(kids, node.scale)
            return None if form is None else FNode.leaf(form)
    elif kind in ("mul", "mul3", "negcube"):
        for k in kids:
            if k is None:
                return None
        if kind == "mul3":
            ones = [i for i, k in enumerate(kids) if _is_one_leaf(k)]
            if len(ones) >= 2:
                rest = [k for i, k in enumerate(kids) if i not in ones[:2]]
                return rest[0].scaled(node.scale)
    else:  # pragma: no cover
        raise ValueError(kind)
    if all(map(is_, kids, node.children)):
        return node
    return FNode(kind, tuple(kids), scale=node.scale)


def _affine_sum(leaves: Sequence[FNode], scale: Rat = 1) -> Optional[Polynomial]:
    """The affine form ``scale * sum(n.scale * n.form)`` of the ``input``
    nodes ``leaves``, None when it cancels."""
    # one term dict for the sum: a scale tag is a Fraction, read as an int
    # when integral, that multiplies each value; the sum is cleaned once
    acc: Dict[tuple, Rat] = {}
    get = acc.get
    for n in leaves:
        s = n.scale if scale == 1 else n.scale * scale
        s = s.numerator if s.denominator == 1 else s
        for k, c in n.form.terms.items():
            acc[k] = get(k, 0) + (c if s == 1 else c * s)
    total = _clean(acc)
    return Polynomial._normalised(total) if total else None


def _folded_add(a: FNode, b: FNode) -> FNode:
    """``a + b``, as one unscaled leaf when both are ``input`` nodes whose
    sum does not cancel; a zero leaf would break the IHL contract."""
    if _foldable(a) and _foldable(b):
        form = _affine_sum((a, b))
        if form is not None:
            return FNode.leaf(form)
    return FNode.add(a, b)


def _folded_sum(nodes: Sequence[FNode]) -> FNode:
    """The balanced sum of ``nodes`` with each maximal run of adjacent
    ``input`` nodes folded into one unscaled input holding the run's value
    (``_affine_sum``); a run that sums to zero is kept as it is."""
    out: List[FNode] = []
    for leaves, group in groupby(nodes, key=_foldable):
        run = list(group)
        if leaves and len(run) > 1:
            form = _affine_sum(run)
            if form is not None:
                run = [FNode.leaf(form)]
        out += run
    return balanced_add(out)


def _subst_path(steps: list, repl: Optional[FNode]) -> Optional[FNode]:
    """``simplify`` of the tree at the root of ``steps`` with the subtree at
    the end of the path replaced by ``repl`` (``None`` = 0), built in one
    climb of the path from the bottom up: at each step the off-path children
    are simplified and ``_simplified`` joins them with the value from below.
    A product above a zero vanishes whatever its other factors are, so they
    are not read."""
    cur = None if repl is None else simplify(repl)
    for n, ci in reversed(steps):
        if cur is None and n.kind != "add":
            continue
        kids = [cur if i == ci else simplify(ch) for i, ch in enumerate(n.children)]
        cur = _simplified(n, kids)
    return cur


def _zero_circuit(variables: Sequence[str] = (), shape: str = "formula",
                  basis: str = "arity2") -> Circuit:
    g = Gate("g1", "input", form=Polynomial.zero())
    return Circuit([g], "g1", shape, basis, variables)


def _tree_or_zero(t: Optional[FNode], c: Circuit, basis: str) -> Circuit:
    """The formula of ``t`` (the zero formula for None)."""
    if t is None:
        return _zero_circuit(c.variables, "formula", basis)
    return tree_to_circuit(t, basis, c.variables)


# ---------------------------------------------------------------------------
# rescaleFormula
# ---------------------------------------------------------------------------


def _rescale_tree(node: FNode, alpha: Coeff) -> FNode:
    """alpha * node: the scalar goes into both summands of an addition and
    the first factor of a product; gate scale tags are kept."""
    if node.kind == "input":
        return FNode("input", form=node.form.scale(alpha), scale=node.scale)
    if node.kind == "add":
        kids = (_rescale_tree(node.children[0], alpha), _rescale_tree(node.children[1], alpha))
        return FNode("add", kids, scale=node.scale)
    if node.kind in ("mul", "mul3"):
        kids = (_rescale_tree(node.children[0], alpha),) + node.children[1:]
        return FNode(node.kind, kids, scale=node.scale)
    raise NeedsRootExtraction(
        "rescaling through a negative cube needs a cube root; "
        "thread the scalar instead"
    )


def rescale_formula(c: Circuit, alpha: Union[Coeff, Rat]) -> Tuple[Circuit, PassReport]:
    c.require("rescaleFormula", shape="formula")
    tree = circuit_to_tree(c)
    out_tree = _rescale_tree(tree, Coeff.of(alpha))
    out = tree_to_circuit(out_tree, c.basis, c.variables)
    im, om = _metrics(c), _metrics(out)
    report = PassReport(
        "rescale", im, om, "size = s, depth = delta (structure unchanged)",
        om["size"] == im["size"] and om["depth"] == im["depth"],
    )
    return out, report


# ---------------------------------------------------------------------------
# Brent depth reduction for formulas, over either product arity
# ---------------------------------------------------------------------------


def _separator_steps(root: FNode) -> Tuple[list, FNode]:
    """Walk from the root into the largest child (ties toward the first)
    until the subformula size drops to at most 2s/3, or to a leaf (a 1-node
    tree is never at most 2/3 of itself).  Returns the list of (node, child
    index) steps and the separator node."""
    s = root.size()
    steps = []
    cur = root
    while 3 * cur.size() > 2 * s and cur.children:
        kids = cur.children
        idx, most = 0, kids[0].size()
        for i in range(1, len(kids)):
            if kids[i].size() > most:
                idx, most = i, kids[i].size()
        steps.append((cur, idx))
        cur = kids[idx]
    return steps, cur


def _coefficient(steps: list, i: int, pidx: int) -> FNode:
    """``D``: the product of the siblings off the path ``steps[i:pidx]``
    times the last sibling at the lowest product ``steps[pidx]``; each
    product keeps its kind.  Module level, as ``circuit._append_gates`` is."""
    n, ci = steps[i]
    if n.kind == "add":
        return _coefficient(steps, i + 1, pidx)
    kept = n.children[:ci] + n.children[ci + 1:]
    if i == pidx:
        return kept[-1]
    return FNode(n.kind, (_coefficient(steps, i + 1, pidx),) + kept)


def _brent(node: FNode, audit: Optional[List[Dict[str, object]]]) -> FNode:
    """Brent's depth reduction, for ``mul`` and ``mul3`` products alike.
    With ``v`` the separator and ``p`` the lowest product on the path to it,
    ``f = D*v*X + B``: ``X`` is ``p``'s siblings of the path but the last
    (none for ``mul``, one for ``mul3``), ``D`` the product of every other
    sibling off the path and ``B`` is ``f`` with ``v := 0``.  On a path of
    additions only, ``f = v + B``.  Each level appends its piece sizes to
    ``audit``, unless ``audit`` is None.  A formula of at most 3 nodes is
    kept as it is, but for a sum of two leaves, which becomes one leaf
    (``_folded_add``), as at the final join ``main + B``."""
    s = node.size()
    if s <= 3:
        return _folded_add(*node.children) if node.kind == "add" else node
    steps, v = _separator_steps(node)
    b_tree = _subst_path(steps, None)
    pidx = max((i for i, (n, _) in enumerate(steps) if n.kind != "add"), default=None)
    factors = [v]
    if pidx is not None:
        p, pci = steps[pidx]
        siblings = p.children[:pci] + p.children[pci + 1:]
        factors = [_coefficient(steps, 0, pidx), v, *siblings[:-1]]
    if audit is not None:
        pieces = factors if b_tree is None else factors + [b_tree]
        audit.append(
            {
                "s": s,
                "pieces": [q.size() for q in pieces],
                "withinTwoThirds": all(3 * q.size() <= 2 * s + 3 for q in pieces),
            }
        )
    reduced = []
    for q in factors:  # a loop, not a comprehension: no frame per level
        reduced.append(_brent(q, audit))
    main = reduced[0] if pidx is None else FNode(p.kind, tuple(reduced))
    if b_tree is None:
        return main
    return _folded_add(main, _brent(b_tree, audit))


def _brent_pass(c: Circuit, name: str) -> Tuple[Circuit, PassReport]:
    audit: List[Dict[str, object]] = []
    tree = circuit_to_tree(c)
    reduced = _brent(tree, audit)
    out = tree_to_circuit(reduced, c.basis, c.variables)
    im, om = _metrics(c), _metrics(out)
    log_s = math.log(max(im["size"], 2), 1.5)
    report = PassReport(
        name, im, om, "depth <= 2*log_{3/2}(s) + 4",
        om["depth"] <= 2 * log_s + 4,
        details={
            "measuredDepthOverLog": om["depth"] / log_s,
            "recursionSteps": audit,
            "allStepsWithinTwoThirds": all(st["withinTwoThirds"] for st in audit),
        },
    )
    return out, report


def brent_formula(c: Circuit) -> Tuple[Circuit, PassReport]:
    c.require("brentFormula", shape="formula", basis="arity2")
    return _brent_pass(c, "brent")


def brent_arity3(c: Circuit) -> Tuple[Circuit, PassReport]:
    c.require("brentArity3", shape="formula", basis="arity3", ihl=True)
    return _brent_pass(c, "brent3")


# ---------------------------------------------------------------------------
# input homogenization (formulas)
# ---------------------------------------------------------------------------


def _ihl_pair(node: FNode) -> Tuple[Coeff, Optional[FNode]]:
    """Split a formula into (constant value, IHL formula for g - g(0))."""
    if node.kind == "input":
        lin = node.form.homog_component(1)
        return node.form.constant_part(), (FNode.leaf(lin) if lin.terms else None)
    if node.kind == "add":
        ca, ha = _ihl_pair(node.children[0])
        cb, hb = _ihl_pair(node.children[1])
        if ha is None:
            return ca + cb, hb
        if hb is None:
            return ca + cb, ha
        return ca + cb, _folded_sum([ha, hb])
    # a mul, the one other kind the arity-2 basis admits
    ca, ha = _ihl_pair(node.children[0])
    cb, hb = _ihl_pair(node.children[1])
    terms: List[FNode] = []
    if ha is not None and hb is not None:
        terms.append(FNode.mul(ha, hb))
    if hb is not None and not ca.is_zero():
        terms.append(_rescale_tree(hb, ca))
    if ha is not None and not cb.is_zero():
        terms.append(_rescale_tree(ha, cb))
    hat = _folded_sum(terms) if terms else None
    return ca * cb, hat


def input_homogenize_formula(c: Circuit) -> Tuple[Circuit, PassReport]:
    c.require("inputHomogenizeFormula", shape="formula", basis="arity2")
    tree = circuit_to_tree(c)
    reduced = _brent(tree, None)
    depth_brent = reduced.depth()
    out = _tree_or_zero(_ihl_pair(reduced)[1], c, "arity2")
    im, om = _metrics(c), _metrics(out)
    report = PassReport(
        "ihl-formula", im, om,
        "depth <= 3*depth(Brent output) + 2",
        om["depth"] <= 3 * depth_brent + 2,
        details={"brentDepth": depth_brent},
    )
    return out, report


# ---------------------------------------------------------------------------
# input homogenization (circuits)
# ---------------------------------------------------------------------------


class _CBuilder:
    """A gate list built children first, gate ``g<k>`` the k-th emitted.
    ``output`` turns the gates one gate reads into a ``Circuit``, whose
    constructor checks them and records their depths."""

    def __init__(self):
        self.gates: List[Gate] = []

    def emit(self, kind: str, children: Tuple[str, ...] = (),
             edge_scalars=None, form=None, scale=None) -> str:
        gid = f"g{len(self.gates) + 1}"
        self.gates.append(Gate(gid, kind, children, edge_scalars, form, scale))
        return gid

    def output(self, gid: Optional[str], basis: str, variables: Sequence[str]) -> Circuit:
        """The circuit of the gates ``gid`` reads, with output ``gid`` (the
        zero circuit for None); gates emitted but not read are left out."""
        if gid is None:
            return _zero_circuit(variables, "circuit", basis)
        return Circuit(_restrict_reachable(self.gates, gid), gid, "circuit", basis, variables)

    def input(self, form: Polynomial) -> str:
        return self.emit("input", form=form)

    def scaled(self, gid: str, c: Coeff) -> str:
        if c.terms == _UNIT:
            return gid
        return self.emit("add", (gid, gid), edge_scalars=(c, COEFF_ZERO))

    def linear_combo(self, parts: List[Tuple[str, Coeff]]) -> Optional[str]:
        """The gate of ``sum(s * g for g, s in parts)``, None when every
        scalar is zero: the nonzero parts are summed by ``balanced_add``.
        Most calls have one to three parts, so the parts are filtered in a
        loop (no comprehension frame) and scalars are compared by their term
        dicts."""
        live = []
        for p in parts:
            if p[1].terms:
                live.append(p)
        return self.scaled(*balanced_add(live, self._add_pair)) if live else None

    def _add_pair(self, p: Tuple[str, Coeff], q: Tuple[str, Coeff]) -> Tuple[str, Coeff]:
        """The add gate of two scaled parts, as a part of unit scalar; a pair
        of unit scalars is written without edge scalars."""
        scalars = None if p[1].terms == _UNIT == q[1].terms else (p[1], q[1])
        return self.emit("add", (p[0], q[0]), scalars), COEFF_ONE

    def balanced_sum(self, gids: List[str]) -> Optional[str]:
        return self.linear_combo([(g, COEFF_ONE) for g in gids])


def _restrict_reachable(gates: List[Gate], output_id: str) -> List[Gate]:
    """The gates ``output_id`` reads, itself included, in their order.
    ``gates`` is children first, so one sweep from the last gate back meets
    every reader of a gate before the gate: a gate is kept when a kept gate
    (or the output) reads it."""
    needed = {output_id}
    kept = []
    for g in reversed(gates):
        if g.id in needed:
            kept.append(g)
            needed.update(g.children)
    kept.reverse()
    return kept


def input_homogenize_circuit(c: Circuit) -> Tuple[Circuit, PassReport]:
    c.require("inputHomogenizeCircuit", basis="arity2")
    b = _CBuilder()
    const: Dict[str, Coeff] = {}
    hat: Dict[str, Optional[str]] = {}
    for g in c.gates:
        if g.kind == "input":
            const[g.id] = g.form.constant_part()
            lin = g.form.homog_component(1)
            hat[g.id] = b.input(lin) if lin.terms else None
        elif g.kind == "add":
            s1, s2 = g.edge_scalars or (COEFF_ONE, COEFF_ONE)
            a, bb = g.children
            const[g.id] = const[a] * s1 + const[bb] * s2
            parts = []
            if hat[a] is not None:
                parts.append((hat[a], s1))
            if hat[bb] is not None:
                parts.append((hat[bb], s2))
            hat[g.id] = b.linear_combo(parts)
        else:  # mul, the one other kind the arity-2 basis admits
            s1, s2 = g.edge_scalars or (COEFF_ONE, COEFF_ONE)
            a, bb = g.children
            t = s1 * s2
            const[g.id] = t * const[a] * const[bb]
            parts = []
            if hat[a] is not None and hat[bb] is not None:
                parts.append((b.emit("mul", (hat[a], hat[bb])), t))
            if hat[bb] is not None:
                parts.append((hat[bb], t * const[a]))
            if hat[a] is not None:
                parts.append((hat[a], t * const[bb]))
            hat[g.id] = b.linear_combo(parts)
    out = b.output(hat[c.output_id], "arity2", c.variables)
    im, om = _metrics(c), _metrics(out)
    report = PassReport(
        "ihl-circuit", im, om, "size <= 6*s and depth <= 3*s",
        om["size"] <= 6 * im["size"] and om["depth"] <= 3 * im["size"],
    )
    return out, report


# ---------------------------------------------------------------------------
# arity-3 products to additions and negative cubes
# ---------------------------------------------------------------------------

# x*y*z = (1/24) * ((x+y+z)^3 - (x+y-z)^3 - (x-y+z)^3 + (x-y-z)^3), realized
# with gates computing -t^3, so the four cube terms carry tags -+-+ / 24.
_CUBE_SIGNS = [
    ((1, 1, 1), Fraction(-1, 24)),
    ((1, 1, -1), Fraction(1, 24)),
    ((1, -1, 1), Fraction(1, 24)),
    ((1, -1, -1), Fraction(-1, 24)),
]


def _to_anc(node: FNode) -> FNode:
    if node.kind == "input":
        return node
    if node.kind == "add":
        return _folded_add(_to_anc(node.children[0]), _to_anc(node.children[1]))
    # a mul3, the one other kind the arity-3 basis admits
    conv = [_to_anc(ch) for ch in node.children]
    cubes = [
        FNode.negcube(_folded_sum([t.scaled(s) for s, t in zip(signs, conv)]), scale=tag)
        for signs, tag in _CUBE_SIGNS
    ]
    return balanced_add(cubes)


def to_add_negcube(c: Circuit) -> Tuple[Circuit, PassReport]:
    c.require("toAddNegCube", shape="formula", basis="arity3")
    tree = circuit_to_tree(c)
    out_tree = _to_anc(tree)
    out = tree_to_circuit(out_tree, "addNegCube", c.variables)
    im, om = _metrics(c), _metrics(out)
    bound = 16 * (4 ** im["mulDepth"]) * im["size"]
    report = PassReport(
        "add-negcube", im, om, "size <= 16 * 4^mulDepth * s",
        om["size"] <= bound,
    )
    return out, report


# ---------------------------------------------------------------------------
# parity homogenization
# ---------------------------------------------------------------------------


@dataclass
class ParityPair:
    odd: Optional[Circuit]
    even: Optional[Circuit]


def _parity_tree(node: FNode) -> Tuple[Optional[FNode], Optional[FNode]]:
    if node.kind == "input":
        return node, None
    if node.kind == "add":
        o1, e1 = _parity_tree(node.children[0])
        o2, e2 = _parity_tree(node.children[1])
        return _add_opt(o1, o2), _add_opt(e1, e2)
    # a mul, the one other kind the arity-2 basis admits
    o1, e1 = _parity_tree(node.children[0])
    o2, e2 = _parity_tree(node.children[1])
    odd = _add_opt(_mul_opt(e1, o2), _mul_opt(o1, e2))
    even = _add_opt(_mul_opt(e1, e2), _mul_opt(o1, o2))
    return odd, even


def _add_opt(a: Optional[FNode], b: Optional[FNode]) -> Optional[FNode]:
    if a is None:
        return b
    if b is None:
        return a
    return FNode.add(a, b)


def _mul_opt(a: Optional[FNode], b: Optional[FNode]) -> Optional[FNode]:
    if a is None or b is None:
        return None
    return FNode.mul(a, b)


def parity_homogenize(c: Circuit) -> Tuple[ParityPair, PassReport]:
    c.require("parityHomogenize", shape="formula", basis="arity2", ihl=True)
    tree = circuit_to_tree(c)
    odd_t, even_t = _parity_tree(tree)
    odd = None if odd_t is None else tree_to_circuit(odd_t, "arity2", c.variables)
    even = None if even_t is None else tree_to_circuit(even_t, "arity2", c.variables)
    im = _metrics(c)
    parts = [part for part in (odd, even) if part is not None]
    pm = [_metrics(part) for part in parts]
    om = {"size": sum(m["size"] for m in pm),
          "depth": max([m["depth"] for m in pm], default=0),
          "mulDepth": max([m["mulDepth"] for m in pm], default=0)}
    sat = om["size"] <= 7 * (2 ** im["mulDepth"]) * im["size"]
    for part in parts:  # no gate may mix even and odd components
        vals = part.eval_gates()
        sat = sat and all(len({d % 2 for d in vals[g.id].homog_degrees()}) < 2
                          for g in part.gates)
    report = PassReport(
        "parity", im, om,
        "combined size <= 7 * 2^mulDepth * s; every gate parity-pure", sat,
    )
    return ParityPair(odd, even), report


# ---------------------------------------------------------------------------
# formula derivatives
# ---------------------------------------------------------------------------


def _ddx(node: FNode, v: str) -> Optional[FNode]:
    if node.kind == "input":
        d = node.form.partial_derivative(v)
        return FNode.leaf(d) if d.terms else None
    if node.kind == "add":
        return _add_opt(_ddx(node.children[0], v), _ddx(node.children[1], v))
    # a mul, the one other kind the arity-2 basis admits
    a, bn = node.children
    t1 = _mul_opt(_ddx(a, v), bn)
    t2 = _mul_opt(a, _ddx(bn, v))
    return _add_opt(t1, t2)


def derivative_formula(c: Circuit, v: str) -> Tuple[Circuit, PassReport]:
    c.require("derivativeFormula", shape="formula", basis="arity2")
    tree = circuit_to_tree(c)
    out = _tree_or_zero(_ddx(tree, v), c, "arity2")
    im, om = _metrics(c), _metrics(out)
    report = PassReport(
        "derivative", im, om, "depth <= 2*delta",
        om["depth"] <= 2 * im["depth"],
    )
    return out, report


# ---------------------------------------------------------------------------
# formulas to graded arity-3 circuits
# ---------------------------------------------------------------------------


def formula_from_poly(p: Polynomial) -> Optional[FNode]:
    """A formula over the arity-3 basis computing ``p``, whose every monomial
    has odd degree: a balanced sum of one product per monomial.  A degree-k
    monomial is its k leaves, the coefficient folded into the first, taken
    three at a time from a FIFO queue into ``mul3`` nodes that join the
    queue's end.  With equal weights this is Huffman's rule, so its
    (k - 1) / 2 products nest ceil(log_3 k) deep.  The degree-1 terms, which
    have no product, are summed into one leaf (``_folded_sum``).  A monomial
    of even degree, a constant too, is a ``ValueError``."""
    terms = []
    for (mono, e, a), coeff in sorted(p.terms.items()):
        names = [var for var, k in mono for _ in range(k)]
        if len(names) % 2 == 0:
            raise ValueError(f"a monomial of even degree {len(names)} has no arity-3 product")
        c = Polynomial._normalised({((), e, a): coeff})
        queue = deque([FNode.leaf(Polynomial.variable(names[0]) * c)])
        queue.extend(FNode.var(v) for v in names[1:])
        while len(queue) > 1:
            queue.append(FNode("mul3", (queue.popleft(), queue.popleft(), queue.popleft())))
        terms.append(queue[0])
    return _folded_sum(terms) if terms else None


def vf_to_v3p(c: Circuit) -> Tuple[GradedArity3Repr, PassReport]:
    """The graded arity-3 form of the arity-2 formula ``c``, from its value
    ``f``: the constant ``f_0``; for each odd degree d, ``f_d`` as one part;
    for each even d, one part per variable v of ``f_d``, its partial
    derivative, which is nonzero and of odd degree d - 1.  Each part is the
    arity-3 formula ``formula_from_poly`` writes for its polynomial."""
    c.require("vfToV3p", shape="formula", basis="arity2")
    f = c.eval()
    const = f.homog_component(0)
    part = lambda p: tree_to_circuit(formula_from_poly(p), "arity3", c.variables)
    odd_parts: Dict[int, Circuit] = {}
    even_parts: Dict[int, Dict[str, Circuit]] = {}
    for d in f.homog_degrees():
        if d < 1:
            continue
        fd = f.homog_component(d)
        if d % 2 == 1:
            odd_parts[d] = part(fd)
        else:
            even_parts[d] = {v: part(fd.partial_derivative(v))
                             for v in sorted(fd.variables(), key=_var_key)}
    repr_ = GradedArity3Repr(const, odd_parts, even_parts)
    ok, reason = repr_.validate()
    im = _metrics(c)
    total = sum(p.size() for p in odd_parts.values()) + sum(
        q.size() for per in even_parts.values() for q in per.values()
    )
    om = {"size": total, "depth": 0, "mulDepth": 0}
    report = PassReport(
        "vf-to-v3p", im, om,
        "every stored circuit is IHL over the arity-3 basis and homogeneous",
        ok, details={"reason": reason},
    )
    return repr_, report


# ---------------------------------------------------------------------------
# depth reduction for graded arity-3 circuits
# ---------------------------------------------------------------------------


def _descendants(c: Circuit) -> Dict[str, Set[str]]:
    desc: Dict[str, Set[str]] = {}
    for g in c.gates:
        s = {g.id}
        for ch in g.children:
            s |= desc[ch]
        desc[g.id] = s
    return desc


def frontier(c: Circuit, deg: Dict[str, int], m: int) -> List[str]:
    """Ternary product gates of degree > m whose children all have degree <= m."""
    return [
        g.id
        for g in c.gates
        if g.kind == "mul3"
        and deg[g.id] > m
        and all(deg[ch] <= m for ch in g.children)
    ]


def _bracket_child_order(g: Gate, deg: Dict[str, int]) -> Tuple[str, str, str]:
    """(u1, u2, u3) with u1 the leftmost child of maximal degree and u3 the
    leftmost remaining child of minimal degree."""
    kids = list(g.children)
    i1 = max(range(3), key=lambda i: (deg[kids[i]], -i))
    rest = [kids[i] for i in range(3) if i != i1]
    if deg[rest[0]] <= deg[rest[1]]:
        u2, u3 = rest[1], rest[0]
    else:
        u2, u3 = rest[0], rest[1]
    return kids[i1], u2, u3


class _Vsbr:
    """The state of one ``vsbr_arity3`` run.  The mutually recursive ``U``
    and ``H`` are its methods, not closures over each other, which would
    form reference cycles that keep every memo alive until the cyclic
    collector runs."""

    def __init__(self, c: Circuit, deg: Dict[str, int]):
        self.c = c
        self.deg = deg
        self.desc = _descendants(c)
        self.b = _CBuilder()
        # accumulated linear forms of the degree-1 region
        linform: Dict[str, Polynomial] = {}
        for g in c.gates:
            if deg[g.id] != 1:
                continue
            if g.kind == "input":
                linform[g.id] = g.form
            elif g.kind == "add":
                s1, s2 = g.edge_scalars or (COEFF_ONE, COEFF_ONE)
                linform[g.id] = linform[g.children[0]].scale(s1) + linform[
                    g.children[1]
                ].scale(s2)
        self.linform = linform
        self.front_cache: Dict[int, List[str]] = {}
        self.bracket_const_memo: Dict[Tuple[str, str], Coeff] = {}
        self.memo_u: Dict[str, Optional[str]] = {}
        self.memo_h: Dict[Tuple[str, str, str], Optional[str]] = {}

    def front(self, m: int) -> List[str]:
        if m not in self.front_cache:
            self.front_cache[m] = frontier(self.c, self.deg, m)
        return self.front_cache[m]

    def bracket_const(self, u: str, v: str) -> Coeff:
        """[u:v] when deg u = deg v: a scalar multiple of z (additive paths)."""
        key = (u, v)
        if key in self.bracket_const_memo:
            return self.bracket_const_memo[key]
        if u == v:
            res = COEFF_ONE
        elif v not in self.desc[u]:
            res = COEFF_ZERO
        else:
            g = self.c.by_id[u]
            if g.kind == "add":
                s1, s2 = g.edge_scalars or (COEFF_ONE, COEFF_ONE)
                res = self.bracket_const(g.children[0], v) * s1 + self.bracket_const(
                    g.children[1], v
                ) * s2
            else:
                # products strictly increase the degree, so no equal-degree
                # path through them carries the bracket
                res = COEFF_ZERO
        self.bracket_const_memo[key] = res
        return res

    def U(self, u: str) -> Optional[str]:
        """Gate computing value(u); None when it cancels to zero."""
        if u in self.memo_u:
            return self.memo_u[u]
        deg, b = self.deg, self.b
        if deg[u] == 1:
            gid = None if self.linform[u].is_zero() else b.input(self.linform[u])
        else:
            m = -((-2 * deg[u]) // 3)
            terms = []
            for w in self.front(m):
                if w not in self.desc[u]:
                    continue
                g = self.c.by_id[w]
                kids = list(g.children)
                i3 = min(range(3), key=lambda i: (deg[kids[i]], i))
                w3 = kids[i3]
                w1, w2 = [kids[i] for i in range(3) if i != i3]
                u3, u2, u1 = self.U(w3), self.U(w2), self.U(w1)
                if u3 is None or u2 is None or u1 is None:
                    continue
                t1 = self.H(u, w, u3)
                if t1 is None:
                    continue
                terms.append(b.emit("mul3", (t1, u2, u1)))
            gid = b.balanced_sum(terms)
        self.memo_u[u] = gid
        return gid

    def H(self, u: str, v: str, repl: str) -> Optional[str]:
        if v not in self.desc[u]:
            return None
        if u == v:
            return repl
        key = (u, v, repl)
        if key in self.memo_h:
            return self.memo_h[key]
        deg, b = self.deg, self.b
        gap = deg[u] - deg[v]
        if gap == 0:
            cst = self.bracket_const(u, v)
            res = None if cst.is_zero() else b.scaled(repl, cst)
            self.memo_h[key] = res
            return res
        m = deg[u] - (-((-2 * gap) // 3))
        terms = []
        for w in self.front(m):
            if w not in self.desc[u]:
                continue
            g = self.c.by_id[w]
            w1, w2, w3 = _bracket_child_order(g, deg)
            t2 = self.H(w1, v, repl)
            if t2 is None:
                continue
            u3 = self.U(w3)
            if u3 is None:
                continue
            t1 = self.H(u, w, u3)
            if t1 is None:
                continue
            t3 = self.U(w2)
            if t3 is None:
                continue
            terms.append(b.emit("mul3", (t1, t2, t3)))
        res = b.balanced_sum(terms)
        self.memo_h[key] = res
        return res


def vsbr_arity3(c: Circuit) -> Tuple[Circuit, PassReport]:
    c.require("vsbrArity3", basis="arity3", ihl=True)
    deg = c.syntactic_degrees()  # raises DegreeMismatch if not graded
    d_out = deg[c.output_id]
    if d_out % 2 == 0:
        raise ValueError(
            "vsbrArity3 handles odd degrees; treat the partial derivatives of "
            "an even-degree component independently"
        )
    run = _Vsbr(c, deg)
    out = run.b.output(run.U(c.output_id), "arity3", c.variables)
    im, om = _metrics(c), _metrics(out)
    s = max(im["size"], 2)
    logs = math.log2(s)
    logd = math.log2(max(d_out, 2))
    fitted = om["depth"] / (logs * logd)
    report = PassReport(
        "vsbr3", im, om, "depth <= c*log2(s)*log2(d) with fitted c reported",
        True,
        details={"fittedC": fitted, "degree": d_out},
    )
    return out, report


# ---------------------------------------------------------------------------
# pass registry for the command line
# ---------------------------------------------------------------------------


class PassRow(NamedTuple):
    """One pass: ``function`` returns the pass function as this module
    binds it when the pass runs, so a function rebound by name (as the
    benchmark's tracer rebinds them) is the one run; ``flag``, the one
    option it reads and requires (None for none); and what it ``writes``:
    a ``circuit``, a ``parity`` pair or ``graded`` parts."""
    function: Callable[[], Callable]
    flag: Optional[str]
    writes: str


PASSES = {
    "rescale": PassRow(lambda: rescale_formula, "alpha", "circuit"),
    "ihl-formula": PassRow(lambda: input_homogenize_formula, None, "circuit"),
    "ihl-circuit": PassRow(lambda: input_homogenize_circuit, None, "circuit"),
    "brent": PassRow(lambda: brent_formula, None, "circuit"),
    "add-negcube": PassRow(lambda: to_add_negcube, None, "circuit"),
    "parity": PassRow(lambda: parity_homogenize, None, "parity"),
    "vf-to-v3p": PassRow(lambda: vf_to_v3p, None, "graded"),
    "derivative": PassRow(lambda: derivative_formula, "var", "circuit"),
    "brent3": PassRow(lambda: brent_arity3, None, "circuit"),
    "vsbr3": PassRow(lambda: vsbr_arity3, None, "circuit"),
}
PASS_NAMES = tuple(PASSES)


def run_pass(name: str, c: Circuit, **kwargs):
    """Run the pass ``name`` on ``c``: (result, PassReport), the result a
    Circuit, ParityPair or GradedArity3Repr as its row ``writes``.  The
    row's flag is a required keyword; no other keyword is read."""
    row = PASSES.get(name)
    if row is None:
        raise ValueError(f"unknown pass {name!r}")
    if row.flag is None:
        return row.function()(c)
    if row.flag not in kwargs:
        raise ValueError(f"the {name} pass needs {row.flag}")
    return row.function()(c, kwargs[row.flag])
