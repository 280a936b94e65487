"""IR for arithmetic formulas and circuits.

Two views of the same objects:

* ``Circuit`` — a topologically ordered gate list (the serialized, shared-DAG
  form used by circuit passes and the text exchange format);
* ``FNode`` — a recursive tree (the convenient form for formula passes,
  which rewrite structurally).  A node is a value: no pass mutates a node
  after it is built, so trees share subtrees instead of copying them.

Gate kinds: ``input`` (affine form: homogeneous linear part + constant),
``add`` (binary, optional per-edge scalars in circuit shape), ``mul`` (binary),
``mul3`` (ternary), ``negcube`` (unary, computes -x^3), ``alpha`` (the formal
scalar leaf), ``zvar`` (the placeholder variable leaf).  Gate-level rational
scale tags are only legal in the add/negative-cube basis, where they are later
consumed by alpha-threading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import (
    COEFF_ONE,
    COEFF_ZERO,
    Coeff,
    LinearForm,
    Polynomial,
    _var_key,
    format_coeff,
    format_poly,
    parse_coeff,
    parse_poly,
)

Z_NAME = "z"

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


LEAF_KINDS = ("input", "alpha", "zvar")
GATE_KINDS = LEAF_KINDS + ("add", "mul", "mul3", "negcube")
_ARITY = {"add": 2, "mul": 2, "mul3": 3, "negcube": 1}


@dataclass(frozen=True)
class Gate:
    id: str
    kind: str
    children: Tuple[str, ...] = ()
    edge_scalars: Optional[Tuple[Coeff, ...]] = None
    lin: Optional[LinearForm] = None
    const: Optional[Coeff] = None
    scale: Optional[Fraction] = None


def affine_poly(lin: Optional[LinearForm], const: Optional[Coeff]) -> Polynomial:
    """The value ``lin + const`` of an input leaf; either part may be absent."""
    p = lin.to_poly() if lin else Polynomial.zero()
    if const is not None and not const.is_zero():
        p = p + const.to_poly()
    return p


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
        for g in self.gates:
            if g.id in self.by_id:
                raise ValueError(f"duplicate gate id {g.id}")
            for ch in g.children:
                if ch not in self.by_id:
                    raise CycleError(f"gate {g.id} references {ch} before definition")
            self.by_id[g.id] = g
        if output_id not in self.by_id:
            raise ValueError(f"unknown output gate {output_id}")
        self.output_id = output_id
        self.shape = shape
        self.basis = basis
        vs = set(variables)
        for g in self.gates:
            if g.lin is not None:
                vs.update(g.lin.coeffs)
            if g.kind == "zvar":
                vs.add(Z_NAME)
        self.variables: Tuple[str, ...] = tuple(sorted(vs, key=_var_key))

    # -- evaluation ----------------------------------------------------------
    def eval_gates(self) -> Dict[str, Polynomial]:
        vals: Dict[str, Polynomial] = {}
        for g in self.gates:
            if g.kind == "input":
                p = affine_poly(g.lin, g.const)
            elif g.kind == "alpha":
                p = Polynomial.alpha(1)
            elif g.kind == "zvar":
                p = Polynomial.variable(Z_NAME)
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

    def depth(self) -> int:
        d: Dict[str, int] = {}
        for g in self.gates:
            d[g.id] = 0 if not g.children else 1 + max(d[ch] for ch in g.children)
        return d[self.output_id]

    def mul_depth(self) -> int:
        d: Dict[str, int] = {}
        for g in self.gates:
            inc = 1 if g.kind in ("mul", "mul3", "negcube") else 0
            d[g.id] = inc if not g.children else inc + max(d[ch] for ch in g.children)
        return d[self.output_id]

    def syntactic_degrees(self) -> Dict[str, int]:
        """Per-gate syntactic degree for graded arity-3 IHL circuits.

        Leaves have degree 1; addition children must agree; ternary products
        sum; negative cubes triple.  Raises DegreeMismatch otherwise.
        """
        deg: Dict[str, int] = {}
        for g in self.gates:
            if g.kind in ("input", "zvar"):
                deg[g.id] = 1
            elif g.kind == "alpha":
                deg[g.id] = 0
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

    def metrics(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "size": self.size(),
            "depth": self.depth(),
            "mulDepth": self.mul_depth(),
        }
        try:
            out["syntacticDegreePerGate"] = self.syntactic_degrees()
        except DegreeMismatch:
            out["syntacticDegreePerGate"] = None
        return out

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
                if g.kind == "alpha":
                    return False, g.id, "alpha leaf is a constant"
                if g.kind == "input":
                    if g.const is not None and not g.const.is_zero():
                        return False, g.id, "leaf has a constant part"
                    if (g.lin is None or g.lin.is_zero()) and len(self.gates) > 1:
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

    constant_part: Coeff
    odd_parts: Dict[int, "Circuit"]
    even_parts: Dict[int, Dict[str, "Circuit"]]

    def reassemble(self) -> Polynomial:
        out = self.constant_part.to_poly()
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

    kind in {leaf, add, mul, mul3, negcube, alpha, zvar}; ``lin``/``const``
    only for leaves; ``scale`` is a rational gate tag (addNegCube basis only).

    A node is never mutated after it is built: passes build new nodes (for
    example with ``scaled``) and share unchanged subtrees, so one node may
    sit under several parents.  ``size`` and ``depth`` are those of the tree
    it spells out (a shared subtree counts at every position), computed once
    from the children when the node is built.
    """

    kind: str
    children: Tuple["FNode", ...] = ()
    lin: Optional[LinearForm] = None
    const: Optional[Coeff] = None
    scale: Fraction = Fraction(1)
    _size: int = field(init=False, repr=False, compare=False)
    _depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kids = self.children
        if kids:
            self._size = 1 + sum(ch._size for ch in kids)
            self._depth = 1 + max(ch._depth for ch in kids)
        else:
            self._size, self._depth = 1, 0

    @staticmethod
    def leaf(lin: LinearForm, const: Coeff | None = None) -> "FNode":
        return FNode("leaf", lin=lin, const=const or COEFF_ZERO)

    @staticmethod
    def var(name: str, c=1) -> "FNode":
        return FNode("leaf", lin=LinearForm.variable(name, c), const=COEFF_ZERO)

    @staticmethod
    def constant(c) -> "FNode":
        return FNode("leaf", lin=LinearForm.zero(), const=Coeff.of(c))

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
        if self.kind == "leaf":
            p = affine_poly(self.lin, self.const)
        elif self.kind == "alpha":
            p = Polynomial.alpha(1)
        elif self.kind == "zvar":
            p = Polynomial.variable(Z_NAME)
        elif self.kind == "add":
            p = self.children[0].eval() + self.children[1].eval()
        elif self.kind == "mul":
            p = self.children[0].eval() * self.children[1].eval()
        elif self.kind == "mul3":
            p = self.children[0].eval() * self.children[1].eval() * self.children[2].eval()
        elif self.kind == "negcube":
            a = self.children[0].eval()
            p = -(a * a * a)
        else:  # pragma: no cover
            raise ValueError(self.kind)
        if self.scale != 1:
            p = p * self.scale
        return p

    def scaled(self, s) -> "FNode":
        """This node with its scale tag multiplied by ``s``."""
        if s == 1:
            return self
        return FNode(self.kind, self.children, self.lin, self.const, self.scale * s)

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


def tree_to_circuit(
    root: FNode, basis: str, shape: str = "formula", variables: Sequence[str] = ()
) -> Circuit:
    gates: List[Gate] = []
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"g{counter[0]}"

    def walk(node: FNode) -> str:
        child_ids = tuple(walk(ch) for ch in node.children)
        gid = fresh()
        scale = None if node.scale == 1 else node.scale
        if node.kind == "leaf":
            gates.append(
                Gate(gid, "input", lin=node.lin, const=node.const, scale=scale)
            )
        elif node.kind in ("alpha", "zvar"):
            gates.append(Gate(gid, node.kind, scale=scale))
        else:
            gates.append(Gate(gid, node.kind, children=child_ids, scale=scale))
        return gid

    out = walk(root)
    return Circuit(gates, out, shape, basis, variables)


def circuit_to_tree(c: Circuit) -> FNode:
    """The tree view of a circuit.  A gate read by several gates becomes one
    subtree shared by their nodes (built once, through the memo)."""

    memo: Dict[str, FNode] = {}

    def build(gid: str) -> FNode:
        if gid in memo:
            return memo[gid]
        g = c.by_id[gid]
        if g.kind == "input":
            node = FNode("leaf", lin=g.lin or LinearForm.zero(), const=g.const or COEFF_ZERO)
        elif g.kind in ("alpha", "zvar"):
            node = FNode(g.kind)
        elif g.kind in ("add", "mul") and g.edge_scalars is not None:
            raise BasisViolation("edge scalars have no tree form; fold them first")
        else:
            node = FNode(g.kind, tuple(build(ch) for ch in g.children))
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
    for g in c.gates:
        if g.kind == "input":
            body = "input " + format_poly(affine_poly(g.lin, g.const))
        elif g.kind in ("alpha", "zvar"):
            body = g.kind
        else:
            body = g.kind + " " + " ".join(g.children)
            if g.edge_scalars is not None:
                body += " [" + " ".join(
                    format_coeff(s).replace(" ", "") for s in g.edge_scalars
                ) + "]"
        if g.scale is not None:
            body += f" scale {g.scale}"
        lines.append(f"gate {g.id} = {body}")
    lines.append(f"output {c.output_id}")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    shape = None
    basis = None
    variables: List[str] = []
    gates: List[Gate] = []
    seen: Dict[str, int] = {}
    output_id = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        head = words[0]
        if head == "shape":
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
            variables.extend(words[1:])
        elif head == "gate":
            if len(words) < 4 or words[2] != "=":
                raise CircuitSyntaxError("expected 'gate <id> = <kind> ...'", lineno)
            gid = words[1]
            if gid in seen:
                raise CircuitSyntaxError(f"duplicate gate id {gid}", lineno)
            kind = words[3]
            rest = words[4:]
            scale = None
            if "scale" in rest:
                i = rest.index("scale")
                if i != len(rest) - 2:
                    raise CircuitSyntaxError("'scale' takes one rational", lineno)
                scale = Fraction(rest[i + 1])
                rest = rest[:i]
            try:
                gate = _parse_gate_body(gid, kind, rest, line, lineno, seen, scale)
            except CircuitSyntaxError:
                raise
            except CycleError:
                raise
            except ValueError as exc:
                raise CircuitSyntaxError(str(exc), lineno) from exc
            seen[gid] = lineno
            gates.append(gate)
        elif head == "output":
            if len(words) != 2:
                raise CircuitSyntaxError("expected 'output <id>'", lineno)
            output_id = words[1]
        else:
            raise CircuitSyntaxError(f"unknown directive {head!r}", lineno)

    if output_id is None:
        raise CircuitSyntaxError("missing 'output' line", len(text.splitlines()) + 1)
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
        shape = "circuit"
        c = Circuit(gates, output_id, shape, basis, variables)
        parents = c.parents()
        tree = all(
            parents[g.id] == (0 if g.id == output_id else 1) for g in c.gates
        ) and all(g.edge_scalars is None for g in c.gates)
        if tree:
            shape = "formula"

    c = Circuit(gates, output_id, shape, basis, variables)
    _check_basis(c)
    return c


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


def _parse_gate_body(gid, kind, rest, line, lineno, seen, scale) -> Gate:
    if kind == "input":
        form_text = line.split("=", 1)[1].strip()
        assert form_text.startswith("input")
        form_text = form_text[len("input"):].strip()
        fwords = form_text.split()
        if "scale" in fwords:
            form_text = " ".join(fwords[: fwords.index("scale")])
        p = parse_poly(form_text)
        lin_terms = {}
        const_terms = {}
        for (m, e, a), coeff in p.terms.items():
            if not m:
                const_terms[(e, a)] = coeff
            elif len(m) == 1 and m[0][1] == 1:
                v = m[0][0]
                lin_terms.setdefault(v, {})[(e, a)] = coeff
            else:
                raise CircuitSyntaxError("input form must be affine", lineno)
        lin = LinearForm({v: Coeff(t) for v, t in lin_terms.items()})
        return Gate(gid, "input", lin=lin, const=Coeff(const_terms), scale=scale)
    if kind in ("alpha", "zvar"):
        if rest:
            raise CircuitSyntaxError(f"{kind} takes no arguments", lineno)
        return Gate(gid, kind, scale=scale)
    if kind not in _ARITY:
        raise CircuitSyntaxError(f"unknown gate kind {kind!r}", lineno)
    arity = _ARITY[kind]
    edge_scalars = None
    if "[" in " ".join(rest):
        joined = " ".join(rest)
        open_i = joined.index("[")
        close_i = joined.rindex("]") if "]" in joined else -1
        if close_i < open_i:
            raise CircuitSyntaxError("unbalanced '[' in edge scalars", lineno)
        scalar_text = joined[open_i + 1 : close_i].split()
        rest = joined[:open_i].split()
        if kind not in ("add", "mul"):
            raise CircuitSyntaxError("edge scalars only on add/mul gates", lineno)
        if len(scalar_text) != arity:
            raise CircuitSyntaxError(
                f"expected {arity} edge scalars, got {len(scalar_text)}", lineno
            )
        edge_scalars = tuple(parse_coeff(t) for t in scalar_text)
    if len(rest) != arity:
        raise CircuitSyntaxError(
            f"{kind} expects {arity} children, got {len(rest)}", lineno
        )
    for ch in rest:
        if ch not in seen:
            raise CycleError(
                f"line {lineno}: gate {gid} references {ch} before its definition"
            )
    return Gate(gid, kind, children=tuple(rest), edge_scalars=edge_scalars, scale=scale)
