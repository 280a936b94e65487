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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from .circuit import (
    BasisViolation,
    Circuit,
    FNode,
    Gate,
    GradedArity3Repr,
    balanced_add,
    circuit_to_tree,
    tree_to_circuit,
)
from .poly import COEFF_ONE, COEFF_ZERO, Coeff, Polynomial, _var_key

Rat = Union[int, Fraction]


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
    depth, mul_depth = c.depths()
    return {"size": c.size(), "depth": depth, "mulDepth": mul_depth}


def _require(cond: bool, msg: str):
    if not cond:
        raise BasisViolation(msg)


# ---------------------------------------------------------------------------
# tree helpers
# ---------------------------------------------------------------------------


_ONE = Polynomial.const(1)


def _is_zero_leaf(n: FNode) -> bool:
    return n.kind == "input" and not n.form.terms


def _is_one_leaf(n: FNode) -> bool:
    return n.kind == "input" and n.form == _ONE and n.scale == 1


def simplify(node: FNode) -> Optional[FNode]:
    """The fixed simplifier: ternary product with a zero factor vanishes, an
    addition with a zero child collapses to the other child, a ternary
    product with two constant-1 factors is its third factor, and vanished
    gates are removed transitively.  ``None`` encodes the zero formula."""
    if node.kind == "input":
        return None if _is_zero_leaf(node) else node
    kids = [simplify(ch) for ch in node.children]
    if node.kind == "add":
        a, b = kids
        if a is None or b is None:
            rest = b if a is None else a
            return None if rest is None else rest.scaled(node.scale)
    elif node.kind in ("mul", "mul3"):
        if any(k is None for k in kids):
            return None
        if node.kind == "mul3":
            ones = [i for i, k in enumerate(kids) if _is_one_leaf(k)]
            if len(ones) >= 2:
                rest = [k for i, k in enumerate(kids) if i not in ones[:2]]
                return rest[0].scaled(node.scale)
    elif node.kind == "negcube":
        if kids[0] is None:
            return None
    else:  # pragma: no cover
        raise ValueError(node.kind)
    if all(k is ch for k, ch in zip(kids, node.children)):
        return node
    return FNode(node.kind, tuple(kids), scale=node.scale)


def _subst_path(steps: list, repl: Optional[FNode]) -> Optional[FNode]:
    """The tree at the root of ``steps`` with the subtree at the end of the
    path replaced by ``repl`` (``None`` = 0), simplified.  Only the nodes on
    the path are rebuilt; ``simplify`` is idempotent, so one run over the
    result equals simplifying every rebuilt level on the way up."""
    cur = FNode.constant(0) if repl is None else repl
    for n, ci in reversed(steps):
        cur = FNode(n.kind, n.children[:ci] + (cur,) + n.children[ci + 1:], scale=n.scale)
    return simplify(cur)


def _zero_circuit(variables: Sequence[str] = (), shape: str = "formula",
                  basis: str = "arity2") -> Circuit:
    g = Gate("g1", "input", form=Polynomial.zero())
    return Circuit([g], "g1", shape, basis, variables)


def _tree_or_zero(t: Optional[FNode], c: Circuit, basis: str) -> Circuit:
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
    _require(c.shape == "formula", "rescaleFormula expects a formula")
    out_tree = _rescale_tree(circuit_to_tree(c), Coeff.of(alpha))
    out = tree_to_circuit(out_tree, c.basis, c.variables)
    im, om = _metrics(c), _metrics(out)
    report = PassReport(
        "rescale", im, om, "size = s, depth = delta (structure unchanged)",
        om["size"] == im["size"] and om["depth"] == im["depth"],
    )
    return out, report


# ---------------------------------------------------------------------------
# classical (arity-2) depth reduction for formulas
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
        idx = max(
            range(len(cur.children)),
            key=lambda i: (cur.children[i].size(), -i),
        )
        steps.append((cur, idx))
        cur = cur.children[idx]
    return steps, cur


def _brent2(node: FNode, audit: List[Dict[str, int]]) -> FNode:
    s = node.size()
    if s <= 3:
        return node
    steps, v = _separator_steps(node)
    b_tree = _subst_path(steps, None)

    def prune(i: int) -> Optional[FNode]:
        if i == len(steps):
            return None  # reached v: the coefficient contributes a factor 1
        n, ci = steps[i]
        if n.kind == "add":
            return prune(i + 1)
        other = n.children[1 - ci]
        rest = prune(i + 1)
        return other if rest is None else FNode.mul(rest, other)

    a_tree = prune(0)
    pieces = [t for t in (a_tree, v, b_tree) if t is not None]
    audit.append(
        {
            "s": s,
            "pieces": [p.size() for p in pieces],
            "withinTwoThirds": all(3 * p.size() <= 2 * s + 3 for p in pieces),
        }
    )
    main = _brent2(v, audit) if a_tree is None else FNode.mul(
        _brent2(a_tree, audit), _brent2(v, audit)
    )
    if b_tree is None:
        return main
    return FNode.add(main, _brent2(b_tree, audit))


def brent_formula(c: Circuit) -> Tuple[Circuit, PassReport]:
    _require(c.shape == "formula", "brentFormula expects a formula")
    _require(c.basis == "arity2", "brentFormula expects the arity-2 basis")
    audit: List[Dict[str, int]] = []
    out_tree = _brent2(circuit_to_tree(c), audit)
    out = tree_to_circuit(out_tree, "arity2", c.variables)
    im, om = _metrics(c), _metrics(out)
    s = max(im["size"], 2)
    bound = 2 * math.log(s, 1.5) + 4
    report = PassReport(
        "brent", im, om, "depth <= 2*log_{3/2}(s) + 4",
        om["depth"] <= bound,
        details={
            "measuredDepthOverLog": om["depth"] / math.log(s, 1.5),
            "recursionSteps": audit,
        },
    )
    return out, report


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
        return ca + cb, FNode.add(ha, hb)
    if node.kind == "mul":
        ca, ha = _ihl_pair(node.children[0])
        cb, hb = _ihl_pair(node.children[1])
        terms: List[FNode] = []
        if ha is not None and hb is not None:
            terms.append(FNode.mul(ha, hb))
        if hb is not None and not ca.is_zero():
            terms.append(_rescale_tree(hb, ca))
        if ha is not None and not cb.is_zero():
            terms.append(_rescale_tree(ha, cb))
        hat = balanced_add(terms) if terms else None
        return ca * cb, hat
    raise BasisViolation(f"input homogenization expects arity-2 gates, got {node.kind}")


def input_homogenize_tree(node: FNode, audit: Optional[List] = None) -> Optional[FNode]:
    t = _brent2(node, audit if audit is not None else [])
    return _ihl_pair(t)[1]


def input_homogenize_formula(c: Circuit) -> Tuple[Circuit, PassReport]:
    _require(c.shape == "formula", "inputHomogenizeFormula expects a formula")
    _require(c.basis == "arity2", "inputHomogenizeFormula expects arity-2 gates")
    audit: List[Dict[str, int]] = []
    tree = circuit_to_tree(c)
    reduced = _brent2(tree, audit)
    depth_brent = reduced.depth()
    hat = _ihl_pair(reduced)[1]
    out = _tree_or_zero(hat, c, "arity2")
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
    def __init__(self):
        self.gates: List[Gate] = []
        self._n = 0

    def _fresh(self) -> str:
        self._n += 1
        return f"g{self._n}"

    def emit(self, kind: str, children: Tuple[str, ...] = (),
             edge_scalars=None, form=None, scale=None) -> str:
        gid = self._fresh()
        self.gates.append(Gate(gid, kind, children, edge_scalars, form, scale))
        return gid

    def input(self, form: Polynomial) -> str:
        return self.emit("input", form=form)

    def scaled(self, gid: str, c: Coeff) -> str:
        if c.is_one():
            return gid
        return self.emit("add", (gid, gid), edge_scalars=(c, COEFF_ZERO))

    def linear_combo(self, parts: List[Tuple[str, Coeff]]) -> Optional[str]:
        parts = [(g, s) for g, s in parts if not s.is_zero()]
        if not parts:
            return None
        while len(parts) > 1:
            nxt = []
            for i in range(0, len(parts) - 1, 2):
                (g1, s1), (g2, s2) = parts[i], parts[i + 1]
                scalars = None if (s1.is_one() and s2.is_one()) else (s1, s2)
                nxt.append((self.emit("add", (g1, g2), edge_scalars=scalars), COEFF_ONE))
            if len(parts) % 2:
                nxt.append(parts[-1])
            parts = nxt
        return self.scaled(parts[0][0], parts[0][1])

    def balanced_sum(self, gids: List[str]) -> Optional[str]:
        return self.linear_combo([(g, COEFF_ONE) for g in gids])


def _restrict_reachable(gates: List[Gate], output_id: str) -> List[Gate]:
    by_id = {g.id: g for g in gates}
    needed: Set[str] = set()
    stack = [output_id]
    while stack:
        gid = stack.pop()
        if gid in needed:
            continue
        needed.add(gid)
        stack.extend(by_id[gid].children)
    return [g for g in gates if g.id in needed]


def input_homogenize_circuit(c: Circuit) -> Tuple[Circuit, PassReport]:
    _require(c.basis == "arity2", "inputHomogenizeCircuit expects arity-2 gates")
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
        elif g.kind == "mul":
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
        else:
            raise BasisViolation(
                f"inputHomogenizeCircuit expects add/mul/input gates, got {g.kind}"
            )
    out_gid = hat[c.output_id]
    if out_gid is None:
        out = _zero_circuit(c.variables, "circuit", "arity2")
    else:
        gates = _restrict_reachable(b.gates, out_gid)
        out = Circuit(gates, out_gid, "circuit", "arity2", c.variables)
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
        return FNode.add(_to_anc(node.children[0]), _to_anc(node.children[1]))
    if node.kind == "mul3":
        conv = [_to_anc(ch) for ch in node.children]
        cubes = [
            FNode.negcube(balanced_add([t.scaled(s) for s, t in zip(signs, conv)]), scale=tag)
            for signs, tag in _CUBE_SIGNS
        ]
        return balanced_add(cubes)
    raise BasisViolation(f"toAddNegCube expects arity-3 gates, got {node.kind}")


def to_add_negcube(c: Circuit) -> Tuple[Circuit, PassReport]:
    _require(c.shape == "formula", "toAddNegCube expects a formula")
    _require(c.basis == "arity3", "toAddNegCube expects the arity-3 basis")
    out_tree = _to_anc(circuit_to_tree(c))
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
    if node.kind == "mul":
        o1, e1 = _parity_tree(node.children[0])
        o2, e2 = _parity_tree(node.children[1])
        odd = _add_opt(_mul_opt(e1, o2), _mul_opt(o1, e2))
        even = _add_opt(_mul_opt(e1, e2), _mul_opt(o1, o2))
        return odd, even
    raise BasisViolation(f"parityHomogenize expects arity-2 gates, got {node.kind}")


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
    _require(c.shape == "formula", "parityHomogenize expects a formula")
    _require(c.basis == "arity2", "parityHomogenize expects arity-2 gates")
    ok, gid, reason = c.validate("IHL")
    _require(ok, f"parityHomogenize expects an IHL formula (gate {gid}: {reason})")
    odd_t, even_t = _parity_tree(circuit_to_tree(c))
    odd = None if odd_t is None else tree_to_circuit(odd_t, "arity2", c.variables)
    even = None if even_t is None else tree_to_circuit(even_t, "arity2", c.variables)
    im = _metrics(c)
    total = (odd.size() if odd else 0) + (even.size() if even else 0)
    depth = max(odd.depth() if odd else 0, even.depth() if even else 0)
    om = {"size": total, "depth": depth, "mulDepth": 0}
    bound = 7 * (2 ** im["mulDepth"]) * im["size"]
    sat = total <= bound
    for part in (odd, even):
        if part is not None:
            sat = sat and part.validate("parityHomogeneous")[0]
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
    if node.kind == "mul":
        a, bn = node.children
        t1 = _mul_opt(_ddx(a, v), bn)
        t2 = _mul_opt(a, _ddx(bn, v))
        return _add_opt(t1, t2)
    raise BasisViolation(f"derivativeFormula expects arity-2 gates, got {node.kind}")


def derivative_formula(c: Circuit, v: str) -> Tuple[Circuit, PassReport]:
    _require(c.shape == "formula", "derivativeFormula expects a formula")
    _require(c.basis == "arity2", "derivativeFormula expects arity-2 gates")
    out_tree = _ddx(circuit_to_tree(c), v)
    out = _tree_or_zero(out_tree, c, "arity2")
    im, om = _metrics(c), _metrics(out)
    report = PassReport(
        "derivative", im, om, "depth <= 2*delta",
        om["depth"] <= 2 * im["depth"],
    )
    return out, report


# ---------------------------------------------------------------------------
# Brent-style depth reduction over the arity-3 basis
# ---------------------------------------------------------------------------


def _lowest_mul3(steps: list) -> Optional[int]:
    for i in range(len(steps) - 1, -1, -1):
        if steps[i][0].kind == "mul3":
            return i
    return None


def _brent3(node: FNode, audit: List[Dict[str, object]]) -> FNode:
    s = node.size()
    if s <= 3:
        return node
    steps, v = _separator_steps(node)
    b_tree = _subst_path(steps, None)
    pidx = _lowest_mul3(steps)

    if pidx is None:
        # only additions above the separator
        pieces = [p for p in (v, b_tree) if p is not None]
        audit.append(
            {
                "s": s,
                "case": 1,
                "pieces": [p.size() for p in pieces],
                "withinTwoThirds": all(3 * p.size() <= 2 * s + 3 for p in pieces),
            }
        )
        bv = _brent3(v, audit)
        return bv if b_tree is None else FNode.add(_brent3(b_tree, audit), bv)

    p_node, pci = steps[pidx]
    others = [ch for i, ch in enumerate(p_node.children) if i != pci]
    x_node, y_node = others[0], others[1]

    def prune(i: int) -> FNode:
        if i == pidx:
            return y_node
        n, ci = steps[i]
        if n.kind == "add":
            return prune(i + 1)
        rest = prune(i + 1)
        kept = [ch for j, ch in enumerate(n.children) if j != ci]
        return FNode.mul3(rest, kept[0], kept[1])

    d_tree = prune(0)
    pieces = [p for p in (d_tree, v, x_node, b_tree) if p is not None]
    audit.append(
        {
            "s": s,
            "case": 2,
            "pieces": [p.size() for p in pieces],
            "withinTwoThirds": all(3 * p.size() <= 2 * s + 3 for p in pieces),
        }
    )
    main = FNode.mul3(_brent3(d_tree, audit), _brent3(v, audit), _brent3(x_node, audit))
    if b_tree is None:
        return main
    return FNode.add(main, _brent3(b_tree, audit))


def brent_arity3(c: Circuit) -> Tuple[Circuit, PassReport]:
    _require(c.shape == "formula", "brentArity3 expects a formula")
    _require(c.basis == "arity3", "brentArity3 expects the arity-3 basis")
    ok, gid, reason = c.validate("IHL")
    _require(ok, f"brentArity3 expects an IHL formula (gate {gid}: {reason})")
    audit: List[Dict[str, object]] = []
    out_tree = _brent3(circuit_to_tree(c), audit)
    out = tree_to_circuit(out_tree, "arity3", c.variables)
    im, om = _metrics(c), _metrics(out)
    s = max(im["size"], 2)
    bound = 2 * math.log(s, 1.5) + 4
    report = PassReport(
        "brent3", im, om, "depth <= 2*log_{3/2}(s) + 4",
        om["depth"] <= bound,
        details={
            "recursionSteps": audit,
            "allStepsWithinTwoThirds": all(st["withinTwoThirds"] for st in audit),
        },
    )
    return out, report


# ---------------------------------------------------------------------------
# formulas to graded arity-3 circuits
# ---------------------------------------------------------------------------


def formula_from_poly(p: Polynomial) -> Optional[FNode]:
    """A balanced formula summing one product per monomial (the coefficient is
    folded into the first leaf)."""
    terms = []
    for (mono, e, a), coeff in sorted(p.terms.items()):
        c = Polynomial._normalised({((), e, a): coeff})
        leaves: List[FNode] = []
        for var, k in mono:
            for _ in range(k):
                leaves.append(FNode.var(var))
        if not leaves:
            terms.append(FNode.leaf(c))
            continue
        leaves[0] = FNode.leaf(Polynomial.variable(mono[0][0]) * c)
        terms.append(balanced_add(leaves, FNode.mul))
    return balanced_add(terms) if terms else None


def _splice(node: FNode, b: _CBuilder) -> Union[str, Callable[[str], str]]:
    """Emit an IHL arity-2 parity tree as arity-3 gates.  An odd fragment is
    emitted at once and returned as its gate id.  An even fragment computes
    ``z`` times its value, so it cannot be emitted before ``z`` exists; it is
    returned as a function that takes ``z``'s gate id, emits the fragment and
    returns its output gate.  Each such function is called exactly once, after
    ``z``'s gate exists, so the gates come out children-first."""
    if node.kind == "input":
        return b.input(node.form)
    if node.kind not in ("add", "mul"):
        raise BasisViolation(f"vfToV3p expects arity-2 gates, got {node.kind}")
    f = _splice(node.children[0], b)
    g = _splice(node.children[1], b)
    f_odd, g_odd = isinstance(f, str), isinstance(g, str)
    if node.kind == "add":
        if f_odd != g_odd:  # pragma: no cover - guarded by parity homogenization
            raise BasisViolation("addition mixes parities")
        if f_odd:
            return b.emit("add", (f, g))
        return lambda z: b.emit("add", (f(z), g(z)))
    if f_odd and g_odd:
        return lambda z: b.emit("mul3", (z, f, g))
    if f_odd:  # odd times even: the odd output is the even fragment's z
        return g(f)
    if g_odd:
        return f(g)
    # even times even computes z * f * g: f's output is g's z
    return lambda z: g(f(z))


def _odd_tree_to_arity3(tree: FNode, variables: Sequence[str]) -> Circuit:
    """Parity-homogenize an IHL formula for a homogeneous odd polynomial and
    convert it to an IHL circuit over the arity-3 basis by z-splicing."""
    odd_t, _even_t = _parity_tree(tree)
    if odd_t is None:
        return _zero_circuit(variables, "circuit", "arity3")
    b = _CBuilder()
    out_gid = _splice(odd_t, b)
    return Circuit(b.gates, out_gid, "circuit", "arity3", variables)


def vf_to_v3p(c: Circuit) -> Tuple[GradedArity3Repr, PassReport]:
    _require(c.shape == "formula", "vfToV3p expects a formula")
    _require(c.basis == "arity2", "vfToV3p expects arity-2 gates")
    f = c.eval()
    const = f.homog_component(0)
    odd_parts: Dict[int, Circuit] = {}
    even_parts: Dict[int, Dict[str, Circuit]] = {}
    for d in f.homog_degrees():
        if d < 1:
            continue
        fd = f.homog_component(d)
        base = formula_from_poly(fd)
        if d % 2 == 1:
            ihl = input_homogenize_tree(base)
            odd_parts[d] = _odd_tree_to_arity3(ihl, c.variables)
        else:
            per_var: Dict[str, Circuit] = {}
            for v in sorted(fd.variables(), key=_var_key):
                dtree = _ddx(base, v)
                if dtree is None:
                    continue
                ihl = input_homogenize_tree(dtree)
                if ihl is None:
                    continue
                per_var[v] = _odd_tree_to_arity3(ihl, c.variables)
            even_parts[d] = per_var
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


def vsbr_arity3(c: Circuit) -> Tuple[Circuit, PassReport]:
    _require(c.basis == "arity3", "vsbrArity3 expects the arity-3 basis")
    ok, gid, reason = c.validate("IHL")
    _require(ok, f"vsbrArity3 expects an IHL circuit (gate {gid}: {reason})")
    deg = c.syntactic_degrees()  # raises DegreeMismatch if not graded
    d_out = deg[c.output_id]
    if d_out % 2 == 0:
        raise ValueError(
            "vsbrArity3 handles odd degrees; treat the partial derivatives of "
            "an even-degree component independently"
        )
    desc = _descendants(c)
    b = _CBuilder()

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

    front_cache: Dict[int, List[str]] = {}

    def front(m: int) -> List[str]:
        if m not in front_cache:
            front_cache[m] = frontier(c, deg, m)
        return front_cache[m]

    bracket_const_memo: Dict[Tuple[str, str], Coeff] = {}

    def bracket_const(u: str, v: str) -> Coeff:
        """[u:v] when deg u = deg v: a scalar multiple of z (additive paths)."""
        key = (u, v)
        if key in bracket_const_memo:
            return bracket_const_memo[key]
        if u == v:
            res = COEFF_ONE
        elif v not in desc[u]:
            res = COEFF_ZERO
        else:
            g = c.by_id[u]
            if g.kind == "add":
                s1, s2 = g.edge_scalars or (COEFF_ONE, COEFF_ONE)
                res = bracket_const(g.children[0], v) * s1 + bracket_const(
                    g.children[1], v
                ) * s2
            else:
                # products strictly increase the degree, so no equal-degree
                # path through them carries the bracket
                res = COEFF_ZERO
        bracket_const_memo[key] = res
        return res

    memo_u: Dict[str, Optional[str]] = {}
    memo_h: Dict[Tuple[str, str, str], Optional[str]] = {}

    def U(u: str) -> Optional[str]:
        """Gate computing value(u); None when it cancels to zero."""
        if u in memo_u:
            return memo_u[u]
        if deg[u] == 1:
            gid = None if linform[u].is_zero() else b.input(linform[u])
        else:
            m = -((-2 * deg[u]) // 3)
            terms = []
            for w in front(m):
                if w not in desc[u]:
                    continue
                g = c.by_id[w]
                kids = list(g.children)
                i3 = min(range(3), key=lambda i: (deg[kids[i]], i))
                w3 = kids[i3]
                w1, w2 = [kids[i] for i in range(3) if i != i3]
                u3, u2, u1 = U(w3), U(w2), U(w1)
                if u3 is None or u2 is None or u1 is None:
                    continue
                t1 = H(u, w, u3)
                if t1 is None:
                    continue
                terms.append(b.emit("mul3", (t1, u2, u1)))
            gid = b.balanced_sum(terms)
        memo_u[u] = gid
        return gid

    def H(u: str, v: str, repl: str) -> Optional[str]:
        if v not in desc[u]:
            return None
        if u == v:
            return repl
        key = (u, v, repl)
        if key in memo_h:
            return memo_h[key]
        gap = deg[u] - deg[v]
        if gap == 0:
            cst = bracket_const(u, v)
            res = None if cst.is_zero() else b.scaled(repl, cst)
            memo_h[key] = res
            return res
        m = deg[u] - (-((-2 * gap) // 3))
        terms = []
        for w in front(m):
            if w not in desc[u]:
                continue
            g = c.by_id[w]
            w1, w2, w3 = _bracket_child_order(g, deg)
            t2 = H(w1, v, repl)
            if t2 is None:
                continue
            u3 = U(w3)
            if u3 is None:
                continue
            t1 = H(u, w, u3)
            if t1 is None:
                continue
            t3 = U(w2)
            if t3 is None:
                continue
            terms.append(b.emit("mul3", (t1, t2, t3)))
        res = b.balanced_sum(terms)
        memo_h[key] = res
        return res

    out_gid = U(c.output_id)
    if out_gid is None:
        out = _zero_circuit(c.variables, "circuit", "arity3")
    else:
        gates = _restrict_reachable(b.gates, out_gid)
        out = Circuit(gates, out_gid, "circuit", "arity3", c.variables)
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

PASS_NAMES = (
    "rescale",
    "ihl-formula",
    "ihl-circuit",
    "brent",
    "add-negcube",
    "parity",
    "vf-to-v3p",
    "derivative",
    "brent3",
    "vsbr3",
)


def run_pass(name: str, c: Circuit, **kwargs):
    """Dispatch a named pass.  Returns (result, PassReport); the result is a
    Circuit except for parity (ParityPair) and vf-to-v3p (GradedArity3Repr)."""
    if name == "rescale":
        return rescale_formula(c, kwargs.get("alpha", 1))
    if name == "ihl-formula":
        return input_homogenize_formula(c)
    if name == "ihl-circuit":
        return input_homogenize_circuit(c)
    if name == "brent":
        return brent_formula(c)
    if name == "add-negcube":
        return to_add_negcube(c)
    if name == "parity":
        return parity_homogenize(c)
    if name == "vf-to-v3p":
        return vf_to_v3p(c)
    if name == "derivative":
        if "var" not in kwargs:
            raise ValueError("derivative pass needs a variable name")
        return derivative_formula(c, kwargs["var"])
    if name == "brent3":
        return brent_arity3(c)
    if name == "vsbr3":
        return vsbr_arity3(c)
    raise ValueError(f"unknown pass {name!r}")
