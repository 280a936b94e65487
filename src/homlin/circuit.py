"""IR for arithmetic formulas and circuits.

Two views of the same objects:

* ``Circuit`` — a topologically ordered gate list (the serialized, shared-DAG
  form used by circuit passes and the text exchange format);
* ``FNode`` — a recursive tree (the convenient form for formula passes,
  which rewrite structurally).  A node is a value: no pass mutates a node
  after it is built, so trees share subtrees instead of copying them.

Gate kinds, shared by both views: ``input`` (a leaf holding one affine
``form``: a ``Polynomial`` whose terms all have x-degree at most 1, so its
monomial-free terms are its constant), ``add`` (binary, optional per-edge
scalars in circuit shape), ``mul`` (binary), ``mul3`` (ternary) and
``negcube`` (unary, computes -x^3).  ``input`` is the one leaf kind.
Gate-level rational scale tags are only legal in the add/negative-cube basis,
where they are later consumed by alpha-threading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .poly import (
    COEFF_ONE,
    Coeff,
    Polynomial,
    _var_key,
    format_coeff,
    format_poly,
    parse_coeff,
    parse_poly,
    parse_rational,
)

SHAPES = ("formula", "circuit")
BASES = ("arity2", "arity3", "addNegCube")


class CircuitSyntaxError(ValueError):
    def __init__(self, msg: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


class CycleError(ValueError):
    pass


class BasisViolation(ValueError):
    pass


class DegreeMismatch(ValueError):
    pass


_ARITY = {"add": 2, "mul": 2, "mul3": 3, "negcube": 1}
_MUL_KINDS = frozenset(("mul", "mul3", "negcube"))


class Gate(NamedTuple):
    """One gate; immutable.  A NamedTuple rather than a frozen dataclass:
    parsing and the passes build tens of thousands of gates per circuit, and
    a NamedTuple costs under a third as much to build."""

    id: str
    kind: str
    children: Tuple[str, ...] = ()
    edge_scalars: Optional[Tuple[Coeff, ...]] = None
    form: Optional[Polynomial] = None  # an input's affine form
    scale: Optional[Fraction] = None


class Circuit:
    """Topologically ordered gate list with a designated output."""

    def __init__(
        self,
        gates: Sequence[Gate],
        output_id: str,
        shape: str,
        basis: str,
        variables: Sequence[str] = (),
    ):
        if shape not in SHAPES:
            raise ValueError(f"unknown shape {shape!r}")
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.gates: Tuple[Gate, ...] = tuple(gates)
        self.by_id: Dict[str, Gate] = {}
        by_id = self.by_id
        vs = set(variables)
        for g in self.gates:
            gid = g.id
            if gid in by_id:
                raise ValueError(f"duplicate gate id {gid}")
            for ch in g.children:
                if ch not in by_id:
                    raise CycleError(f"gate {gid} references {ch} before definition")
            by_id[gid] = g
            if g.kind == "input":
                vs.update(g.form.variables())
        if output_id not in by_id:
            raise ValueError(f"unknown output gate {output_id}")
        self.output_id = output_id
        self.shape = shape
        self.basis = basis
        self.variables: Tuple[str, ...] = tuple(sorted(vs, key=_var_key))

    # -- evaluation ----------------------------------------------------------
    def eval_gates(self) -> Dict[str, Polynomial]:
        vals: Dict[str, Polynomial] = {}
        for g in self.gates:
            if g.kind == "input":
                p = g.form
            elif g.kind == "add":
                scalars = g.edge_scalars or (COEFF_ONE,) * len(g.children)
                p = Polynomial.zero()
                for ch, s in zip(g.children, scalars):
                    p = p + vals[ch].scale(s)
            elif g.kind == "mul":
                scalars = g.edge_scalars or (COEFF_ONE,) * 2
                p = vals[g.children[0]].scale(scalars[0]) * vals[g.children[1]].scale(
                    scalars[1]
                )
            elif g.kind == "mul3":
                p = vals[g.children[0]] * vals[g.children[1]] * vals[g.children[2]]
            elif g.kind == "negcube":
                a = vals[g.children[0]]
                p = -(a * a * a)
            else:  # pragma: no cover
                raise ValueError(f"unknown gate kind {g.kind}")
            if g.scale is not None:
                p = p * Fraction(g.scale)
            vals[g.id] = p
        return vals

    def eval(self) -> Polynomial:
        return self.eval_gates()[self.output_id]

    # -- metrics ---------------------------------------------------------------
    def size(self) -> int:
        return len(self.gates)

    def depths(self) -> Tuple[int, int]:
        """(depth, mulDepth) of the output, in one sweep over the gates."""
        depth: Dict[str, int] = {}
        mul: Dict[str, int] = {}
        dget, mget = depth.__getitem__, mul.__getitem__
        for g in self.gates:
            kids = g.children
            if kids:
                depth[g.id] = 1 + max(map(dget, kids))
                mul[g.id] = (g.kind in _MUL_KINDS) + max(map(mget, kids))
            else:
                depth[g.id] = mul[g.id] = 0
        return depth[self.output_id], mul[self.output_id]

    def depth(self) -> int:
        return self.depths()[0]

    def syntactic_degrees(self) -> Dict[str, int]:
        """Per-gate syntactic degree for graded arity-3 IHL circuits.

        Leaves have degree 1; addition children must agree; ternary products
        sum; negative cubes triple.  Raises DegreeMismatch otherwise.
        """
        deg: Dict[str, int] = {}
        for g in self.gates:
            if g.kind == "input":
                deg[g.id] = 1
            elif g.kind == "add":
                ds = {deg[ch] for ch in g.children}
                if len(ds) != 1:
                    raise DegreeMismatch(
                        f"add gate {g.id} has children of degrees {sorted(ds)}"
                    )
                deg[g.id] = ds.pop()
            elif g.kind == "mul3":
                deg[g.id] = sum(deg[ch] for ch in g.children)
            elif g.kind == "negcube":
                deg[g.id] = 3 * deg[g.children[0]]
            else:
                deg[g.id] = sum(deg[ch] for ch in g.children)
        return deg

    # -- validation --------------------------------------------------------------
    def parents(self) -> Dict[str, int]:
        count = {g.id: 0 for g in self.gates}
        for g in self.gates:
            for ch in g.children:
                count[ch] += 1
        return count

    def validate(self, predicate: str) -> Tuple[bool, Optional[str], str]:
        """Returns (ok, witness gate id, reason)."""
        if predicate == "IHL":
            for g in self.gates:
                if g.kind == "input":
                    terms = g.form.terms
                    if any(not m for m, _e, _a in terms):
                        return False, g.id, "leaf has a constant part"
                    if not terms and len(self.gates) > 1:
                        # a lone zero leaf is the canonical zero formula
                        return False, g.id, "leaf is not homogeneous linear"
            return True, None, ""
        if predicate == "arity3":
            for g in self.gates:
                if g.kind in ("mul", "negcube"):
                    return False, g.id, f"{g.kind} gate not in arity-3 basis"
            return True, None, ""
        if predicate == "addNegCube":
            for g in self.gates:
                if g.kind in ("mul", "mul3"):
                    return False, g.id, f"{g.kind} gate not in add/neg-cube basis"
            return True, None, ""
        if predicate == "formulaTree":
            if self.shape != "formula":
                return False, self.output_id, "shape is not formula"
            for g in self.gates:
                if g.edge_scalars is not None:
                    return False, g.id, "formulas carry no edge scalars"
            parents = self.parents()
            for g in self.gates:
                if g.id != self.output_id and parents[g.id] != 1:
                    return False, g.id, f"gate has {parents[g.id]} parents"
            if parents[self.output_id] != 0:
                return False, self.output_id, "output gate has a parent"
            return True, None, ""
        if predicate == "parityHomogeneous":
            vals = self.eval_gates()
            for g in self.gates:
                degs = [d for d in vals[g.id].homog_degrees()]
                if any(d % 2 == 0 for d in degs) and any(d % 2 == 1 for d in degs):
                    return False, g.id, "gate mixes even and odd components"
            return True, None, ""
        if predicate == "graded":
            try:
                self.syntactic_degrees()
            except DegreeMismatch as exc:
                return False, None, str(exc)
            return True, None, ""
        raise ValueError(f"unknown predicate {predicate!r}")


@dataclass
class GradedArity3Repr:
    """Graded decomposition of a polynomial into arity-3 IHL circuits.

    f = constant + sum over odd d of odd_parts[d]
                 + sum over even d of (1/d) * sum_i x_i * even_parts[d][x_i],
    where even_parts[d][x_i] computes the partial derivative of the degree-d
    component with respect to x_i (homogeneous of odd degree d-1).
    """

    constant_part: Polynomial
    odd_parts: Dict[int, "Circuit"]
    even_parts: Dict[int, Dict[str, "Circuit"]]

    def reassemble(self) -> Polynomial:
        out = self.constant_part
        for d in sorted(self.odd_parts):
            out = out + self.odd_parts[d].eval()
        for d in sorted(self.even_parts):
            acc = Polynomial.zero()
            for v in sorted(self.even_parts[d], key=_var_key):
                acc = acc + Polynomial.variable(v) * self.even_parts[d][v].eval()
            out = out + acc * Fraction(1, d)
        return out

    def validate(self) -> Tuple[bool, str]:
        for d, c in self.odd_parts.items():
            if d % 2 != 1:
                return False, f"odd part at even degree {d}"
            for pred in ("arity3", "IHL"):
                ok, gid, reason = c.validate(pred)
                if not ok:
                    return False, f"odd part {d}, gate {gid}: {reason}"
            p = c.eval()
            if not p.is_zero() and p.homog_degrees() != [d]:
                return False, f"odd part {d} is not homogeneous of degree {d}"
        for d, per_var in self.even_parts.items():
            if d % 2 != 0:
                return False, f"even part at odd degree {d}"
            for v, c in per_var.items():
                for pred in ("arity3", "IHL"):
                    ok, gid, reason = c.validate(pred)
                    if not ok:
                        return False, f"even part {d}/{v}, gate {gid}: {reason}"
                p = c.eval()
                if not p.is_zero() and p.homog_degrees() != [d - 1]:
                    return False, f"even part {d}/{v} not homogeneous of degree {d - 1}"
        return True, ""


# ---------------------------------------------------------------------------
# Tree view for formula passes
# ---------------------------------------------------------------------------


@dataclass
class FNode:
    """Formula tree node.

    ``kind`` is one of the gate kinds; an ``input`` node holds its affine
    ``form``, as an input gate does; ``scale`` is a rational gate tag
    (addNegCube basis only).

    A node is never mutated after it is built: passes build new nodes (for
    example with ``scaled``) and share unchanged subtrees, so one node may
    sit under several parents.  ``size`` and ``depth`` are those of the tree
    it spells out (a shared subtree counts at every position), computed once
    from the children when the node is built.
    """

    kind: str
    children: Tuple["FNode", ...] = ()
    form: Optional[Polynomial] = None
    scale: Fraction = Fraction(1)
    _size: int = field(init=False, repr=False, compare=False)
    _depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kids = self.children
        if not kids:
            self._size, self._depth = 1, 0
        elif len(kids) == 2:
            a, b = kids
            self._size = 1 + a._size + b._size
            self._depth = 1 + (a._depth if a._depth > b._depth else b._depth)
        else:
            self._size = 1 + sum([ch._size for ch in kids])
            self._depth = 1 + max([ch._depth for ch in kids])

    @staticmethod
    def leaf(form: Polynomial) -> "FNode":
        return FNode("input", form=form)

    @staticmethod
    def var(name: str, c=1) -> "FNode":
        return FNode("input", form=Polynomial.variable(name).scale(c))

    @staticmethod
    def constant(c) -> "FNode":
        return FNode("input", form=Polynomial.const(c))

    @staticmethod
    def add(a: "FNode", b: "FNode") -> "FNode":
        return FNode("add", (a, b))

    @staticmethod
    def mul(a: "FNode", b: "FNode") -> "FNode":
        return FNode("mul", (a, b))

    @staticmethod
    def mul3(a: "FNode", b: "FNode", c: "FNode") -> "FNode":
        return FNode("mul3", (a, b, c))

    @staticmethod
    def negcube(a: "FNode", scale: Fraction = Fraction(1)) -> "FNode":
        return FNode("negcube", (a,), scale=scale)

    def eval(self) -> Polynomial:
        """The tree's polynomial, evaluated through its gate list (the
        add/negative-cube basis is the one that admits every scale tag)."""
        return tree_to_circuit(self, "addNegCube").eval()

    def scaled(self, s) -> "FNode":
        """This node with its scale tag multiplied by ``s``."""
        if s == 1:
            return self
        return FNode(self.kind, self.children, self.form, self.scale * s)

    def size(self) -> int:
        return self._size

    def depth(self) -> int:
        return self._depth


def balanced_add(nodes: Sequence[FNode], op=FNode.add) -> FNode:
    """Combine a nonempty list of operands into a balanced binary tree of
    ``op`` (sums by default)."""
    nodes = list(nodes)
    if not nodes:
        raise ValueError("nothing to add")
    while len(nodes) > 1:
        nxt = []
        for i in range(0, len(nodes) - 1, 2):
            nxt.append(op(nodes[i], nodes[i + 1]))
        if len(nodes) % 2:
            nxt.append(nodes[-1])
        nodes = nxt
    return nodes[0]


def tree_to_circuit(root: FNode, basis: str, variables: Sequence[str] = ()) -> Circuit:
    """The formula-shaped gate list of a tree, children first; gate ``g<k>``
    is the k-th node in post-order.  A shared subtree is written out at every
    position."""
    gates: List[Gate] = []
    append = gates.append

    def walk(node: FNode) -> str:
        kids = node.children
        if not kids:
            ids = ()
        elif len(kids) == 2:
            ids = (walk(kids[0]), walk(kids[1]))
        else:
            ids = tuple([walk(ch) for ch in kids])
        gid = f"g{len(gates) + 1}"
        s = node.scale
        append(Gate(gid, node.kind, ids, None, node.form, None if s == 1 else s))
        return gid

    out = walk(root)
    return Circuit(gates, out, "formula", basis, variables)


def circuit_to_tree(c: Circuit) -> FNode:
    """The tree view of a circuit.  A gate read by several gates becomes one
    subtree shared by their nodes (built once, through the memo)."""

    memo: Dict[str, FNode] = {}

    def build(gid: str) -> FNode:
        if gid in memo:
            return memo[gid]
        g = c.by_id[gid]
        if g.edge_scalars is not None:
            raise BasisViolation("edge scalars have no tree form; fold them first")
        node = FNode(g.kind, tuple(build(ch) for ch in g.children), g.form)
        if g.scale is not None:
            node = node.scaled(Fraction(g.scale))
        memo[gid] = node
        return node

    return build(c.output_id)


# ---------------------------------------------------------------------------
# Text exchange format
# ---------------------------------------------------------------------------


def print_circuit(c: Circuit) -> str:
    lines = [f"shape {c.shape}", f"basis {c.basis}"]
    if c.variables:
        lines.append("var " + " ".join(c.variables))
    # Each distinct leaf and edge scalar is formatted once.  Leaves are keyed
    # by the identity of their form, which passes share between gates; the
    # gates keep the forms alive while this runs, so no id is reused.
    leaf_text: Dict[int, str] = {}
    scalar_text: Dict[Coeff, str] = {}
    for g in c.gates:
        kind = g.kind
        if kind == "input":
            key = id(g.form)
            body = leaf_text.get(key)
            if body is None:
                body = leaf_text[key] = "input " + format_poly(g.form)
        else:
            body = kind + " " + " ".join(g.children)
            if g.edge_scalars is not None:
                texts = []
                for s in g.edge_scalars:
                    t = scalar_text.get(s)
                    if t is None:
                        t = scalar_text[s] = format_coeff(s).replace(" ", "")
                    texts.append(t)
                body += " [" + " ".join(texts) + "]"
        if g.scale is not None:
            body += f" scale {g.scale}"
        lines.append(f"gate {g.id} = {body}")
    lines.append(f"output {c.output_id}")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    """Read the circuit text format (see ``print_circuit``).  Each line is
    split once; a gate line into at most five fields, the last of which is
    the input form or the child list, read as it stands."""
    shape = None
    basis = None
    variables: List[str] = []
    gates: List[Gate] = []
    seen: Set[str] = set()
    # each distinct input form and edge scalar is parsed once per circuit;
    # the values are immutable, so gates with the same text share them
    forms: Dict[str, Polynomial] = {}
    scalars: Dict[str, Coeff] = {}
    output_id = None
    lines = text.splitlines()

    for lineno, raw in enumerate(lines, start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        words = raw.split(None, 4)
        if not words:
            continue
        head = words[0]
        if head == "gate":
            if len(words) < 4 or words[2] != "=":
                raise CircuitSyntaxError("expected 'gate <id> = <kind> ...'", lineno)
            gid = words[1]
            if gid in seen:
                raise CircuitSyntaxError(f"duplicate gate id {gid}", lineno)
            try:
                gate = _parse_gate(gid, words[3], words[4] if len(words) == 5 else "",
                                   lineno, seen, forms, scalars)
            except (CircuitSyntaxError, CycleError):
                raise
            except ValueError as exc:
                raise CircuitSyntaxError(str(exc), lineno) from exc
            seen.add(gid)
            gates.append(gate)
        elif head == "shape":
            if len(words) != 2 or words[1] not in SHAPES:
                raise CircuitSyntaxError("expected 'shape formula|circuit'", lineno)
            shape = words[1]
        elif head == "basis":
            if len(words) != 2 or words[1] not in BASES:
                raise CircuitSyntaxError(
                    "expected 'basis arity2|arity3|addNegCube'", lineno
                )
            basis = words[1]
        elif head == "var":
            variables.extend(raw.split()[1:])
        elif head == "output":
            if len(words) != 2:
                raise CircuitSyntaxError("expected 'output <id>'", lineno)
            output_id = words[1]
        else:
            raise CircuitSyntaxError(f"unknown directive {head!r}", lineno)

    if output_id is None:
        raise CircuitSyntaxError("missing 'output' line", len(lines) + 1)
    if output_id not in seen:
        raise CircuitSyntaxError(f"output gate {output_id} never defined", 1)

    if basis is None:
        kinds = {g.kind for g in gates}
        if "negcube" in kinds:
            basis = "addNegCube"
        elif "mul3" in kinds:
            basis = "arity3"
        else:
            basis = "arity2"
    if shape is None:
        shape = "formula" if _is_tree(gates, output_id) else "circuit"

    c = Circuit(gates, output_id, shape, basis, variables)
    _check_basis(c)
    return c


def _is_tree(gates: Sequence[Gate], output_id: str) -> bool:
    """Every gate but the output read exactly once, the output never, and
    no edge scalars."""
    parents = dict.fromkeys((g.id for g in gates), 0)
    for g in gates:
        if g.edge_scalars is not None:
            return False
        for ch in g.children:
            parents[ch] += 1
    parents[output_id] += 1
    return all(n == 1 for n in parents.values())


def _check_basis(c: Circuit):
    if c.shape == "formula":
        ok, gid, reason = c.validate("formulaTree")
        if not ok:
            raise BasisViolation(f"gate {gid}: {reason}")
    if c.basis == "arity3":
        ok, gid, reason = c.validate("arity3")
        if not ok:
            raise BasisViolation(f"gate {gid}: {reason}")
    if c.basis == "addNegCube":
        ok, gid, reason = c.validate("addNegCube")
        if not ok:
            raise BasisViolation(f"gate {gid}: {reason}")
    if c.basis != "addNegCube":
        for g in c.gates:
            if g.scale is not None:
                raise BasisViolation(
                    f"gate {g.id}: scale tags only legal in the addNegCube basis"
                )


def _affine_leaf(text: str, lineno: int) -> Polynomial:
    """An input form, checked to be affine: no term of x-degree above 1."""
    form = parse_poly(text)
    for m, _e, _a in form.terms:
        if m and (len(m) > 1 or m[0][1] != 1):
            raise CircuitSyntaxError("input form must be affine", lineno)
    return form


def _parse_gate(gid: str, kind: str, rest: str, lineno: int, seen: Set[str],
                forms: Dict[str, Polynomial],
                scalars: Dict[str, Coeff]) -> Gate:
    """One gate from its kind and the text after it: an input form or a
    child list, either followed by ``scale <rational>``."""
    scale = None
    if "scale" in rest:
        words = rest.split()
        if "scale" in words:
            if words.index("scale") != len(words) - 2:
                raise CircuitSyntaxError("'scale' takes one rational", lineno)
            scale = parse_rational(words[-1])
            rest = rest[: rest.rindex("scale")]
    if kind == "input":
        if rest not in forms:
            forms[rest] = _affine_leaf(rest, lineno)
        return Gate(gid, "input", (), None, forms[rest], scale)
    arity = _ARITY.get(kind)
    if arity is None:
        raise CircuitSyntaxError(f"unknown gate kind {kind!r}", lineno)
    edge_scalars = None
    if "[" in rest:
        open_i = rest.index("[")
        close_i = rest.rfind("]")
        if close_i < open_i:
            raise CircuitSyntaxError("unbalanced '[' in edge scalars", lineno)
        if rest[close_i + 1:].strip():
            raise CircuitSyntaxError("unexpected text after ']'", lineno)
        texts = rest[open_i + 1 : close_i].split()
        rest = rest[:open_i]
        if kind not in ("add", "mul"):
            raise CircuitSyntaxError("edge scalars only on add/mul gates", lineno)
        if len(texts) != arity:
            raise CircuitSyntaxError(
                f"expected {arity} edge scalars, got {len(texts)}", lineno
            )
        values = []
        for t in texts:
            s = scalars.get(t)
            if s is None:
                s = scalars[t] = parse_coeff(t)
            values.append(s)
        edge_scalars = tuple(values)
    children = tuple(rest.split())
    if len(children) != arity:
        raise CircuitSyntaxError(
            f"{kind} expects {arity} children, got {len(children)}", lineno
        )
    for ch in children:
        if ch not in seen:
            raise CycleError(
                f"line {lineno}: gate {gid} references {ch} before its definition"
            )
    return Gate(gid, kind, children, edge_scalars, None, scale)
