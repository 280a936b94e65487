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

A ``Circuit`` is valid by construction: each basis admits the kinds that
``BASIS_KINDS`` gives it, each gate has its kind's number of children,
gate-level rational scale tags are only legal in the add/negative-cube basis
(where alpha-threading consumes them later), and a ``formula`` is a tree.  A
circuit that breaks one of these rules is never built: the constructor
raises ``BasisViolation("gate <id>: <reason>")``.
Every pass and compiler states the rest of its input contract (a shape, a
basis, IHL leaves) in one ``Circuit.require`` call before it does any work.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .poly import (
    Coeff,
    KeyLayout,
    Polynomial,
    Rat,
    _rat,
    _var_key,
    format_coeff,
    format_poly,
    parse_coeff,
    parse_poly,
    parse_rational,
)

SHAPES = ("formula", "circuit")
# the words a line of the circuit format opens with
DIRECTIVES = frozenset(("shape", "basis", "var", "gate", "output"))
# basis -> (its name in messages, the gate kinds it admits)
BASIS_KINDS = {
    "arity2": ("arity-2", frozenset(("input", "add", "mul"))),
    "arity3": ("arity-3", frozenset(("input", "add", "mul3"))),
    "addNegCube": ("add/neg-cube", frozenset(("input", "add", "negcube"))),
}
BASES = tuple(BASIS_KINDS)


class ArtifactSyntaxError(ValueError):
    """A malformed line of a circuit, word or projection; the message names
    the line."""

    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class CycleError(ValueError):
    pass


class BasisViolation(ValueError):
    pass


class DegreeMismatch(ValueError):
    pass


_ARITY = {"input": 0, "add": 2, "mul": 2, "mul3": 3, "negcube": 1}
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
    """Topologically ordered gate list with a designated output.  A shape
    of None is inferred: a formula when the gates make one, else a circuit."""

    def __init__(
        self,
        gates: Sequence[Gate],
        output_id: str,
        shape: Optional[str],
        basis: str,
        variables: Sequence[str] = (),
    ):
        """Check every gate in one sweep (a fresh id, children defined
        before it, a kind of the basis with its number of children, a scale
        tag only in the addNegCube basis) and, unless ``shape`` is
        ``circuit``, that the gates make a formula.  The same sweep gives
        each gate its (depth, mulDepth) from its children's: looking a
        child's pair up is the check that the child is defined.  The
        output's pair is kept for ``depths``.  The circuit's variables are
        ``variables`` and those of every input form; the parser and the
        passes share one form object between gates, so each distinct form
        object is read once."""
        if shape is not None and shape not in SHAPES:
            raise ValueError(f"unknown shape {shape!r}")
        if basis not in BASIS_KINDS:
            raise ValueError(f"unknown basis {basis!r}")
        name, kinds = BASIS_KINDS[basis]
        arity = {kind: _ARITY[kind] for kind in kinds}  # of each kind the basis admits
        scaled = basis == "addNegCube"
        self.gates: Tuple[Gate, ...] = tuple(gates)
        self.by_id: Dict[str, Gate] = {}
        by_id = self.by_id
        dm: Dict[str, Tuple[int, int]] = {}  # (depth, mulDepth) by gate id
        forms: Dict[int, Polynomial] = {}  # the distinct input forms, by id
        for g in self.gates:
            gid, kind, children, _edges, form, scale = g
            if gid in by_id:
                raise ValueError(f"duplicate gate id {gid}")
            try:
                if len(children) == 2:  # most gates: no list, no max()
                    (d, m), (d2, m2) = dm[children[0]], dm[children[1]]
                    d, m = (d if d > d2 else d2), (m if m > m2 else m2)
                elif children:
                    kids = [dm[ch] for ch in children]
                    d, m = max([p[0] for p in kids]), max([p[1] for p in kids])
            except KeyError as exc:
                raise CycleError(
                    f"gate {gid} references {exc.args[0]} before definition") from None
            n = arity.get(kind)
            if n is None:
                raise BasisViolation(f"gate {gid}: {kind} gate not in {name} basis")
            if len(children) != n:
                raise BasisViolation(
                    f"gate {gid}: {kind} expects {n} children, got {len(children)}")
            if scale is not None and not scaled:
                raise BasisViolation(
                    f"gate {gid}: scale tags only legal in the addNegCube basis"
                )
            by_id[gid] = g
            dm[gid] = (d + 1, m + (kind in _MUL_KINDS)) if children else (0, 0)
            if kind == "input":
                forms[id(form)] = form
        if output_id not in by_id:
            raise ValueError(f"unknown output gate {output_id}")
        self._depths: Tuple[int, int] = dm[output_id]
        if shape != "circuit":
            defect = _formula_defect(self.gates, output_id)
            if shape is None:
                shape = "circuit" if defect else "formula"
            elif defect is not None:
                raise BasisViolation(defect)
        self.output_id = output_id
        self.shape = shape
        self.basis = basis
        vs = set(variables)
        for form in forms.values():
            vs.update(form.variables())
        self.variables: Tuple[str, ...] = tuple(sorted(vs, key=_var_key))

    # -- evaluation ----------------------------------------------------------
    def eval_gates(self) -> Mapping[str, Polynomial]:
        """Every gate's value, by gate id: the gates are swept once on packed
        keys (``KeyLayout``), and a value is unpacked when it is read.
        Every field, alpha's too, holds the largest bound of a gate: a leaf's
        is the larger of 1 and its largest alpha exponent, an edge scalar
        adds its own largest, a sum takes its children's largest, a product
        their sum and a negative cube three times its child's.  No exponent
        of a gate's value exceeds the gate's bound, so no field carries."""
        bound: Dict[str, int] = {}
        for g in self.gates:
            if g.kind == "input":
                b = 1
                for _m, _e, a in g.form.terms:
                    if a > b:
                        b = a
            else:
                bs = [bound[ch] for ch in g.children]
                if g.edge_scalars is not None:
                    bs = [b + max((a for _e, a in s.terms), default=0)
                          for b, s in zip(bs, g.edge_scalars)]
                b = max(bs) if g.kind == "add" else (3 if g.kind == "negcube" else 1) * sum(bs)
            bound[g.id] = b
        top = max(bound.values())
        layout = KeyLayout(dict.fromkeys(self.variables, top), top)
        pack = layout.pack
        vals: Dict[str, Dict[int, Rat]] = {}
        for g in self.gates:
            kind = g.kind
            if kind == "input":
                p = pack(g.form)
            else:
                args = [vals[ch] for ch in g.children]
                if g.edge_scalars is not None:
                    args = [p if s.is_one() else _packed_mul(p, pack(s.to_poly()))
                            for p, s in zip(args, g.edge_scalars)]
                if kind == "add":
                    p = dict(args[0])
                    for k, c in args[1].items():
                        p[k] = p.get(k, 0) + c
                    p = {k: c for k, c in p.items() if c}
                else:  # a product; a negative cube is minus its child's cube
                    p = args[0]
                    for q in args[1:] if kind != "negcube" else (p, p):
                        p = _packed_mul(p, q)
            s = -1 if kind == "negcube" else 1
            if g.scale is not None:
                s *= _rat(g.scale)
            if s != 1:
                p = {k: c * s for k, c in p.items()}
            vals[g.id] = p
        return _Unpacked(vals, layout)

    def eval(self) -> Polynomial:
        return self.eval_gates()[self.output_id]

    # -- metrics ---------------------------------------------------------------
    def size(self) -> int:
        return len(self.gates)

    def depths(self) -> Tuple[int, int]:
        """(depth, mulDepth) of the output: the edges on its longest path to
        a leaf, and the most product gates (``mul``, ``mul3``, ``negcube``)
        on one path from it.  The constructor's check sweep records them, so
        this does no sweep of its own."""
        return self._depths

    def syntactic_degrees(self) -> Dict[str, int]:
        """Per-gate syntactic degree for graded arity-3 IHL circuits.

        Leaves have degree 1; addition children must agree; ternary products
        sum.  Raises DegreeMismatch otherwise.
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
            else:  # a mul3, the one other kind the arity-3 basis admits
                deg[g.id] = sum(deg[ch] for ch in g.children)
        return deg

    # -- input contracts -------------------------------------------------------
    def ihl_defect(self) -> Optional[str]:
        """Why this circuit is not input-homogeneous-linear, as ``"gate <id>:
        <reason>"``, or None: every leaf must be a nonzero homogeneous linear
        form (a lone zero leaf is the canonical zero formula)."""
        for g in self.gates:
            if g.kind == "input":
                terms = g.form.terms
                if any(not m for m, _e, _a in terms):
                    return f"gate {g.id}: leaf has a constant part"
                if not terms and len(self.gates) > 1:
                    return f"gate {g.id}: leaf is not homogeneous linear"
        return None

    def require(self, who: str, *, shape: Optional[str] = None,
                basis: Optional[str] = None, ihl: bool = False) -> None:
        """The input contract of a pass or compiler named ``who``: raises
        ``BasisViolation`` unless this circuit has ``shape`` and ``basis``
        (when given) and, with ``ihl``, is IHL."""
        if shape is not None and self.shape != shape:
            raise BasisViolation(f"{who} expects a {shape}")
        if basis is not None and self.basis != basis:
            raise BasisViolation(f"{who} expects the {BASIS_KINDS[basis][0]} basis")
        if ihl and (defect := self.ihl_defect()) is not None:
            raise BasisViolation(f"{who} expects an IHL {shape or 'circuit'} ({defect})")


def _packed_mul(a: Dict[int, Rat], b: Dict[int, Rat]) -> Dict[int, Rat]:
    """The product of two packed polynomials of one layout."""
    out: Dict[int, Rat] = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            if c := get(k, 0) + c1 * c2:
                out[k] = c
            else:
                del out[k]
    return out


class _Unpacked(Mapping):
    """Packed gate values, each unpacked when it is read."""

    def __init__(self, packed: Dict[str, Dict[int, Rat]], layout: KeyLayout):
        self._packed, self._layout = packed, layout

    def __getitem__(self, gid: str) -> Polynomial:
        return self._layout.unpack(self._packed[gid])

    def __iter__(self):
        return iter(self._packed)

    def __len__(self) -> int:
        return len(self._packed)


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
    # each part's value, keyed by the part, once ``part_value`` checked it
    _values: Dict["Circuit", Polynomial] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def part_value(self, c: "Circuit", who: str, degree: int) -> Polynomial:
        """The value of part ``c``, which must be an arity-3 IHL circuit that
        computes zero or a form homogeneous of ``degree``; ``BasisViolation``
        or ``DegreeMismatch`` names ``who`` otherwise.  A part is checked and
        evaluated the first time it is read; later reads reuse its value and
        check only its degree."""
        p = self._values.get(c)
        if p is None:
            c.require(who, basis="arity3", ihl=True)
            p = self._values[c] = c.eval()
        if p.terms and p.homog_degrees() != [degree]:
            raise DegreeMismatch(f"{who} computes degrees {p.homog_degrees()}, not {degree}")
        return p

    def validate(self) -> Tuple[bool, str]:
        """(True, "") when every part passes ``part_value`` at its odd degree:
        ``d`` for the odd part of degree ``d``, ``d - 1`` for the derivative
        parts of degree ``d``; else (False, the first defect)."""
        # the parity of each stored degree, an even one with no parts too
        for name, degree in [(f"odd part {d}", d) for d in self.odd_parts] + [
                (f"even part {d}", d - 1) for d in self.even_parts]:
            if degree % 2 == 0:
                return False, f"{name} is stored at a degree of the wrong parity"
        parts = [(f"odd part {d}", d, c) for d, c in self.odd_parts.items()] + [
            (f"even part {d}/{v}", d - 1, c)
            for d, per_var in self.even_parts.items() for v, c in per_var.items()]
        for name, degree, c in parts:
            try:
                self.part_value(c, name, degree)
            except (BasisViolation, DegreeMismatch) as exc:
                return False, str(exc)
        return True, ""


# ---------------------------------------------------------------------------
# Tree view for formula passes
# ---------------------------------------------------------------------------


_UNSCALED = Fraction(1)  # the scale tag of an untagged node


@dataclass(slots=True)
class FNode:
    """Formula tree node.

    ``kind`` is one of the gate kinds; an ``input`` node holds its affine
    ``form``, as an input gate does; ``scale`` is a rational gate tag
    (addNegCube basis only).

    A node is never mutated after it is built: passes build new nodes (for
    example with ``scaled``) and share unchanged subtrees, so one node may
    sit under several parents.  ``size`` and ``depth`` are those of the tree
    it spells out (a shared subtree counts at every position), computed once
    from the children when the node is built: Brent's separator walk reads
    sizes, and ``ihl-formula``'s bound reads the depth of a Brent tree that
    never becomes a circuit.  A pass reports the metrics of the circuits it
    reads and writes (``Circuit.depths``), not of its trees.
    """

    kind: str
    children: Tuple["FNode", ...] = ()
    form: Optional[Polynomial] = None
    scale: Fraction = _UNSCALED
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
    def add(a: "FNode", b: "FNode") -> "FNode":
        return FNode("add", (a, b))

    @staticmethod
    def mul(a: "FNode", b: "FNode") -> "FNode":
        return FNode("mul", (a, b))

    @staticmethod
    def negcube(a: "FNode", scale: Fraction = Fraction(1)) -> "FNode":
        return FNode("negcube", (a,), scale=scale)

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
    """The formula of a tree, output last (see ``_tree_gates``)."""
    gates = _tree_gates(root)
    return Circuit(gates, gates[-1].id, "formula", basis, variables)


def _tree_gates(root: FNode) -> List[Gate]:
    """The gate list of a tree, children first; gate ``g<k>`` is the k-th
    node in post-order.  A shared subtree is written out at every position."""
    gates: List[Gate] = []
    _append_gates(root, gates)
    return gates


def _append_gates(node: FNode, gates: List[Gate]) -> str:
    """Append the gates of ``node``'s subtree, children first; its gate id.
    Module level: a closure over itself is a reference cycle, which would
    keep ``gates`` alive until the cyclic collector runs."""
    kids = node.children
    if not kids:
        ids = ()
    elif len(kids) == 2:
        ids = (_append_gates(kids[0], gates), _append_gates(kids[1], gates))
    else:
        ids = tuple([_append_gates(ch, gates) for ch in kids])
    gid = f"g{len(gates) + 1}"
    s = node.scale
    gates.append(Gate(gid, node.kind, ids, None, node.form, None if s == 1 else s))
    return gid


def circuit_to_tree(c: Circuit) -> FNode:
    """The tree view of a circuit.  A gate read by several gates becomes one
    subtree shared by their nodes (built once, through the memo)."""
    return _tree_node(c.output_id, c.by_id, {})


def _tree_node(gid: str, by_id: Mapping[str, Gate], memo: Dict[str, FNode]) -> FNode:
    """The subtree of gate ``gid``, memoized by gate id (module level, as
    ``_append_gates`` is)."""
    if gid in memo:
        return memo[gid]
    g = by_id[gid]
    if g.edge_scalars is not None:
        raise BasisViolation("edge scalars have no tree form; fold them first")
    scale = _UNSCALED if g.scale is None else Fraction(g.scale)
    node = FNode(g.kind, tuple(_tree_node(ch, by_id, memo) for ch in g.children), g.form, scale)
    memo[gid] = node
    return node


# ---------------------------------------------------------------------------
# Text exchange format
# ---------------------------------------------------------------------------


def print_circuit(c: Circuit) -> str:
    """The circuit text format: ``shape``, ``basis`` and ``var`` lines, one
    ``gate`` line per gate in order, then ``output``.

    Each distinct leaf form and edge-scalar object is formatted once.  Both
    caches are keyed by identity, since the parser and the passes share
    these values between gates and hashing a ``Coeff`` by value builds a
    frozenset; equal values held by distinct objects format to the same
    text.  The gates keep every key alive while this runs, so no id is
    reused."""
    lines = [f"shape {c.shape}", f"basis {c.basis}"]
    if c.variables:
        lines.append("var " + " ".join(c.variables))
    leaf_text: Dict[int, str] = {}
    scalar_text: Dict[int, str] = {}
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
                    t = scalar_text.get(id(s))
                    if t is None:
                        t = scalar_text[id(s)] = format_coeff(s).replace(" ", "")
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
    given: Set[str] = set()  # the directives that may appear once
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
        if head in ("shape", "basis", "output"):
            if head in given:
                raise ArtifactSyntaxError(f"'{head}' given twice", lineno)
            given.add(head)
        if head == "gate":
            if len(words) < 4 or words[2] != "=":
                raise ArtifactSyntaxError("expected 'gate <id> = <kind> ...'", lineno)
            gid = words[1]
            if gid in seen:
                raise ArtifactSyntaxError(f"duplicate gate id {gid}", lineno)
            try:
                gate = _parse_gate(gid, words[3], words[4] if len(words) == 5 else "",
                                   lineno, seen, forms, scalars)
            except ArtifactSyntaxError:
                raise
            except ValueError as exc:
                raise ArtifactSyntaxError(str(exc), lineno) from exc
            seen.add(gid)
            gates.append(gate)
        elif head == "shape":
            if len(words) != 2 or words[1] not in SHAPES:
                raise ArtifactSyntaxError("expected 'shape formula|circuit'", lineno)
            shape = words[1]
        elif head == "basis":
            if len(words) != 2 or words[1] not in BASES:
                raise ArtifactSyntaxError(
                    "expected 'basis arity2|arity3|addNegCube'", lineno
                )
            basis = words[1]
        elif head == "var":
            variables.extend(raw.split()[1:])
        elif head == "output":
            if len(words) != 2:
                raise ArtifactSyntaxError("expected 'output <id>'", lineno)
            output_id, output_line = words[1], lineno
        else:
            raise ArtifactSyntaxError(f"unknown directive {head!r}", lineno)

    if output_id is None:
        raise ArtifactSyntaxError("missing 'output' line", len(lines) + 1)
    if output_id not in seen:
        raise ArtifactSyntaxError(f"output gate {output_id} never defined", output_line)

    if basis is None:
        basis = _implied_basis(gates)
    return Circuit(gates, output_id, shape, basis, variables)


def _implied_basis(gates: Sequence[Gate]) -> str:
    """The basis a gate list implies when none is named: ``addNegCube`` for
    a negative cube or a scale tag, else ``arity3`` for a ternary product,
    else ``arity2``."""
    kinds = {g.kind for g in gates}
    if "negcube" in kinds or any(g.scale is not None for g in gates):
        return "addNegCube"
    return "arity3" if "mul3" in kinds else "arity2"


def _formula_defect(gates: Sequence[Gate], output_id: str) -> Optional[str]:
    """Why ``gates`` read from ``output_id`` are no formula, as ``"gate <id>:
    <reason>"``, or None: a formula carries no edge scalars and reads every
    gate but the output exactly once, the output never.  Every child must be
    one of the gates, and the gate ids distinct."""
    for g in gates:
        if g.edge_scalars is not None:
            return f"gate {g.id}: formulas carry no edge scalars"
    reads = [ch for g in gates for ch in g.children]
    read = set(reads)
    # distinct reads, one fewer than the gates and none of the output, are
    # exactly one read of every other gate
    if len(read) == len(reads) == len(gates) - 1 and output_id not in read:
        return None
    parents = Counter(reads)
    for g in gates:
        if g.id != output_id and parents[g.id] != 1:
            return f"gate {g.id}: gate has {parents[g.id]} parents"
    return f"gate {output_id}: output gate has a parent"


def _affine_leaf(text: str, lineno: int) -> Polynomial:
    """An input form, checked to be affine: no term of x-degree above 1."""
    form = parse_poly(text)
    for m, _e, _a in form.terms:
        if m and (len(m) > 1 or m[0][1] != 1):
            raise ArtifactSyntaxError("input form must be affine", lineno)
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
                raise ArtifactSyntaxError("'scale' takes one rational", lineno)
            scale = parse_rational(words[-1])
            rest = rest[: rest.rindex("scale")]
    if kind == "input":
        if rest not in forms:
            forms[rest] = _affine_leaf(rest, lineno)
        return Gate(gid, "input", (), None, forms[rest], scale)
    arity = _ARITY.get(kind)
    if arity is None:
        raise ArtifactSyntaxError(f"unknown gate kind {kind!r}", lineno)
    edge_scalars = None
    if "[" in rest:
        open_i = rest.index("[")
        close_i = rest.rfind("]")
        if close_i < open_i:
            raise ArtifactSyntaxError("unbalanced '[' in edge scalars", lineno)
        if rest[close_i + 1:].strip():
            raise ArtifactSyntaxError("unexpected text after ']'", lineno)
        texts = rest[open_i + 1 : close_i].split()
        rest = rest[:open_i]
        if kind not in ("add", "mul"):
            raise ArtifactSyntaxError("edge scalars only on add/mul gates", lineno)
        if len(texts) != arity:
            raise ArtifactSyntaxError(
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
        raise ArtifactSyntaxError(
            f"{kind} expects {arity} children, got {len(children)}", lineno
        )
    for ch in children:
        if ch not in seen:
            raise ArtifactSyntaxError(
                f"gate {gid} references {ch} before its definition", lineno)
    return Gate(gid, kind, children, edge_scalars, None, scale)
