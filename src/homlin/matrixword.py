"""Compilers from formulas to matrix words and projections.

Three constructions are provided:

* ``compile_offdiag3`` — exact 3x3 words: the product of ``id + A_i`` factors
  equals ``id + f * E(i,j)`` with homogeneous linear entries;
* ``compile_trace3`` — 3x3 border words read off through a diagonal
  functional: the eps-limit of ``scalar * (product - id)`` recovers
  ``f * (E(1,1) - E(2,2))``.  Because every factor is unipotent the product
  has determinant 1, so the eps^2 coefficient is trace-free and the plain
  trace functional provably recovers 0; the word therefore targets the
  (1,1) entry;
* ``compile_continuant_odd`` / ``compile_continuant_even`` — 2x2 words of
  strictly alternating upper/lower factors whose parity-alternating
  elementary-symmetric value border-computes the target polynomial, returned
  directly as a ``Projection`` onto the ``C`` family.

Scalars never pass through cube roots: rational gate tags are threaded
through the formal ``alpha`` parameter and eliminated by the final
``alpha -> 1`` (odd case) or ``alpha -> +-eps`` (even case) substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .circuit import Circuit, FNode, circuit_to_tree, GradedArity3Repr
from .families import (
    C_WEIGHTS,
    Factor,
    L_entry,
    L_sum,
    L_trace,
    LWeights,
    OFF_DIAGONAL,
    Rows,
    border_functional,
    nce_matrices,
    parity_factor,
    word_product,
    zero_diag_factor,
)
from .poly import (
    COEFF_ONE,
    Coeff,
    Polynomial,
    format_coeff,
    format_poly,
    parse_coeff,
    parse_poly,
    _var_key,
)
from .transforms import _to_anc


class NotIHL(ValueError):
    pass


class NotFormula(ValueError):
    pass


class NotOddDegree(ValueError):
    pass


class NotEvenDegree(ValueError):
    pass


class DiagonalNonzero(ValueError):
    pass


class EntryNotHomogeneousLinear(ValueError):
    """A factor entry that a family projection cannot carry as a linear form
    (such as the constant eps^2 of trace3's degree-one gadget)."""


# ---------------------------------------------------------------------------
# word and projection types
# ---------------------------------------------------------------------------

# target is ("entry", i, j) | ("trace",) | ("functional", weights row-major)
Target = Tuple


def entry_target(i: int, j: int) -> Target:
    return ("entry", i, j)


@dataclass
class MatrixWord:
    """A product of ``id + A_i`` factors with a designated read-out.

    Each ``A_i`` is a ``Factor``: its nonzero entries, keyed by 0-based
    (row, column).  They are affine in the x-variables over the Laurent
    coefficient ring (homogeneous linear everywhere except the documented
    degree-one corner case of the diagonal-functional compiler, which injects
    a constant eps power)."""

    dim: int
    factors: List[Factor]
    global_scalar: Coeff = field(default_factory=lambda: COEFF_ONE)
    target: Target = ("trace",)

    def r(self) -> int:
        return len(self.factors)


@dataclass
class Projection:
    """A homogeneous linear (border) projection of a reference family."""

    family_tag: str  # "C" | "nceL"
    n: int
    d: int
    forms: List[Polynomial]
    scalar: Coeff = field(default_factory=lambda: COEFF_ONE)
    border: bool = True
    weights: Optional[LWeights] = None  # nceL functional

    def slot_names(self) -> List[str]:
        if self.family_tag == "C":
            return [f"x{i}" for i in range(1, self.n + 1)]
        return [f"x{a}_{b}_{i}" for i in range(1, self.n + 1) for a, b in OFF_DIAGONAL]

    def value(self, below: Optional[int] = None) -> Polynomial:
        """The projected family value, scaled; exact mod eps^below, or in
        full when ``below`` is None.

        Evaluated directly on the substituted forms, by the elementary
        symmetric matrix recurrence over the family's factors (2x2
        parity-alternating or 3x3 zero-diagonal), rather than by
        substituting into the monomial expansion, whose size explodes with
        the slot count; the two routes agree and are cross-checked on small
        instances in the tests.
        """
        if len(self.forms) != len(self.slot_names()):
            raise ValueError(
                f"{self.family_tag} projection with n = {self.n} has {len(self.forms)} forms"
            )
        forms = self.forms
        if self.family_tag == "C":
            factors = [parity_factor(i, p) for i, p in enumerate(forms, start=1)]
            weights = C_WEIGHTS
        elif self.family_tag == "nceL":
            k = len(OFF_DIAGONAL)
            factors = [zero_diag_factor(forms[k * i:k * (i + 1)]) for i in range(self.n)]
            weights = self.weights if self.weights is not None else L_sum()
        else:
            raise ValueError(f"unknown family tag {self.family_tag!r}")
        return border_functional(
            lambda order, rows: nce_matrices(factors, self.d, order, rows=rows),
            weights,
            self.scalar,
            below,
        )


def expand_word(
    w: MatrixWord, below: Optional[int] = None, rows: Optional[Iterable[int]] = None
) -> Rows:
    """The given rows (all ``w.dim`` of them by default) of the product of
    the ``id + A_i`` factors, as sparse rows, exact mod eps^below (in full
    when ``below`` is None)."""
    return word_product(w.factors, below, rows=range(w.dim) if rows is None else rows)


def target_weights(target: Target, dim: int) -> LWeights:
    """The functional's weights, as a dim x dim matrix."""
    if target[0] == "entry":
        return L_entry(target[1], target[2], dim)
    if target[0] == "trace":
        return L_trace(dim)
    if target[0] == "functional":
        return [list(target[1][i * dim:(i + 1) * dim]) for i in range(dim)]
    raise ValueError(f"unknown target {target!r}")


def border_value(obj: Union[MatrixWord, Projection], below: Optional[int] = None) -> Polynomial:
    """Scalar times functional of (product - id), before any eps-limit;
    exact mod eps^below, or in full when ``below`` is None."""
    if isinstance(obj, Projection):
        return obj.value(below)

    def residue(k: Optional[int], rows: Set[int]) -> Rows:
        m = expand_word(obj, k, rows)
        for r, row in m.items():
            p = row.get(r, Polynomial.zero()) - Polynomial.const(1)
            if p.terms:
                row[r] = p
            else:
                del row[r]
        return m

    return border_functional(
        residue, target_weights(obj.target, obj.dim), obj.global_scalar, below
    )


# ---------------------------------------------------------------------------
# eps-exponent bound of a form list
# ---------------------------------------------------------------------------


def _max_abs_eps_exp(forms: Sequence[Polynomial]) -> int:
    return max((abs(e) for p in forms for (_m, e, _a) in p.terms), default=0)


# ---------------------------------------------------------------------------
# 3x3 off-diagonal construction (exact)
# ---------------------------------------------------------------------------

FactorList = List[Factor]


def _require_ihl_formula(c: Circuit, who: str):
    if c.shape != "formula":
        raise NotFormula(f"{who} expects a formula")
    ok, gid, reason = c.validate("IHL")
    if not ok:
        raise NotIHL(f"{who} expects an IHL formula (gate {gid}: {reason})")


def _e_factor(i: int, j: int, p: Polynomial) -> Factor:
    return {(i - 1, j - 1): p} if p.terms else {}


def _third_index(i: int, j: int) -> int:
    return ({1, 2, 3} - {i, j}).pop()


def _offdiag_lists(
    node: FNode, pos: Tuple[int, int], scal: Coeff
) -> Tuple[FactorList, FactorList]:
    """Dual word lists (plus, minus) whose products are exactly
    ``id + scal*g*E(pos)`` and ``id - scal*g*E(pos)``."""
    i, j = pos
    if node.kind == "input":
        p = node.form.scale(scal)
        return [_e_factor(i, j, p)], [_e_factor(i, j, -p)]
    if node.kind == "add":
        p1, m1 = _offdiag_lists(node.children[0], pos, scal)
        p2, m2 = _offdiag_lists(node.children[1], pos, scal)
        return p1 + p2, m1 + m2
    if node.kind == "mul":
        k = _third_index(i, j)
        pf, mf = _offdiag_lists(node.children[0], (i, k), scal)
        pg, mg = _offdiag_lists(node.children[1], (k, j), COEFF_ONE)
        return pf + pg + mf + mg, mf + pg + pf + mg
    raise NotFormula(f"off-diagonal compilation expects arity-2 gates, got {node.kind}")


def compile_offdiag3(
    c: Circuit, target: Tuple[int, int], thread_scalar: Union[Coeff, int, Fraction] = 1
) -> MatrixWord:
    """Exact word: product of factors - id = thread_scalar * eval(c) * E(target)."""
    i, j = target
    if i == j or not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError("target must be an off-diagonal position of a 3x3 matrix")
    _require_ihl_formula(c, "compile_offdiag3")
    if c.basis != "arity2":
        raise NotFormula("compile_offdiag3 expects the arity-2 basis")
    plus, _minus = _offdiag_lists(circuit_to_tree(c), (i, j), Coeff.of(thread_scalar))
    return MatrixWord(3, plus, COEFF_ONE, entry_target(i, j))


# ---------------------------------------------------------------------------
# 3x3 diagonal-functional border construction
# ---------------------------------------------------------------------------


def _summands(node: FNode) -> List[FNode]:
    if node.kind == "add":
        return _summands(node.children[0]) + _summands(node.children[1])
    return [node]


def compile_trace3(c: Circuit) -> MatrixWord:
    """Border word with global scalar eps^-2 and target entry (1,1).

    The eps-limit of scalar*(product - id) is eval(c) * (E(1,1) - E(2,2)):
    every factor is unipotent, forcing determinant 1, hence a trace-free
    eps^2 coefficient; the (1,1) entry therefore carries the value while the
    trace would cancel to 0."""
    _require_ihl_formula(c, "compile_trace3")
    if c.basis != "arity2":
        raise NotFormula("compile_trace3 expects the arity-2 basis")
    eps = Coeff.eps(1)
    factors: FactorList = []
    for s in _summands(circuit_to_tree(c)):
        if s.kind == "mul":
            g, h = s.children
            pg, mg = _offdiag_lists(g, (1, 2), eps)
            ph, mh = _offdiag_lists(h, (2, 1), eps)
            factors += pg + ph + mg + mh
        elif s.kind == "input":
            # degree-1 corner: no product pair exists under IHL, so use the
            # pair (eps^-1 * l, eps): gadget entries are l and the constant
            # eps^2, and every entry of the gadget stays O(eps^2)
            lf = s.form
            e2 = Polynomial.eps(2)
            factors += [
                _e_factor(1, 2, lf),
                _e_factor(2, 1, e2),
                _e_factor(1, 2, -lf),
                _e_factor(2, 1, -e2),
            ]
        else:
            raise NotFormula(
                f"compile_trace3 expects a sum of products, got a {s.kind} gate"
            )
    return MatrixWord(3, factors, Coeff.eps(-2), entry_target(1, 1))


# ---------------------------------------------------------------------------
# 2x2 alternating-word border construction
# ---------------------------------------------------------------------------
#
# A 2x2 word is kept as a list of linear forms, laid out as matrices by
# ``parity_factor`` (upper-triangular at odd slots, lower-triangular at even
# ones).  Every recursive invariant word has odd length, starts
# upper-triangular, and satisfies: the eps-limit of (product - id) exists and
# equals alpha * value * E_upper exactly.


_ALPHA = Coeff.alpha(1)


def _cont_odd_word(node: FNode, s: Fraction) -> List[Polynomial]:
    """Word for alpha * s * eval_raw(node); the node's own scale tag is
    folded into s."""
    s = s * node.scale
    if node.kind == "input":
        return [node.form.scale(_ALPHA * s)]
    if node.kind == "add":
        w1 = _cont_odd_word(node.children[0], s)
        w2 = _cont_odd_word(node.children[1], s)
        return w1 + [Polynomial.zero()] + w2  # pad to keep strict alternation
    if node.kind == "negcube":
        base = _cont_odd_word(node.children[0], Fraction(1))
        # every error term of the base product is eps^e * alpha^a with e >= 1
        # (exact-limit invariant) and a at most the number of alpha-carrying
        # (form, variable) pairs; eps -> eps^k, alpha -> eps^-1 sends it to
        # eps^(ke-a), so any k >= a_max + 2 provably yields the required
        # congruence mod eps^2
        a_max = sum(len({m for (m, _e, a) in lf.terms if a}) for lf in base)
        k = max(2 * (1 + _max_abs_eps_exp(base)), a_max + 2)
        block1 = [lf.subst(k, Coeff.eps(-1)) for lf in base]
        middle_alpha = Coeff({(2, 1): s})  # eps^2 * s * alpha
        block2 = [lf.subst(3, middle_alpha) for lf in reversed(base)]
        block3 = [lf.subst(k, -Coeff.eps(-1)) for lf in base]
        return block1 + block2 + block3
    raise NotFormula(
        f"continuant compilation expects add/negative-cube gates, got {node.kind}"
    )


def compile_continuant_odd(c: Circuit, d: Optional[int] = None) -> Projection:
    """Border projection of the parity-alternating family computing the odd
    homogeneous degree-d polynomial of an add/negative-cube IHL formula."""
    _require_ihl_formula(c, "compile_continuant_odd")
    if c.basis != "addNegCube":
        raise NotFormula("compile_continuant_odd expects the add/neg-cube basis")
    f = c.eval()
    degs = f.homog_degrees()
    if d is None:
        d = degs[-1] if degs else 1
    if d % 2 == 0:
        raise NotOddDegree(f"degree {d} is even")
    if not f.is_zero() and degs != [d]:
        raise NotOddDegree(f"formula is not homogeneous of degree {d}")
    word = _cont_odd_word(circuit_to_tree(c), Fraction(1))
    forms = [lf.subst(alpha=1) for lf in word]
    return Projection("C", len(forms), d, forms, COEFF_ONE, border=True)


def compile_continuant_even(g: GradedArity3Repr, d: int) -> Projection:
    """Border projection for the even homogeneous degree-d component, built
    from the per-variable derivative circuits via the telescoping diagonal
    gadget and the homogeneous-function identity."""
    if d % 2 == 1 or d < 2:
        raise NotEvenDegree(f"degree {d} is not a positive even number")
    per_var = g.even_parts.get(d, {})
    eps = Coeff.eps(1)
    forms: List[Polynomial] = []
    for v in sorted(per_var, key=_var_key):
        part = per_var[v]
        if part.eval().is_zero():
            continue
        # invariant word for alpha * eval(part) / d
        base = _cont_odd_word(_to_anc(circuit_to_tree(part)), Fraction(1, d))
        # b-blocks: eps -> eps^3, alpha -> +-eps, transposed and reversed
        b_plus = [lf.subst(3, eps) for lf in reversed(base)]
        b_minus = [lf.subst(3, -eps) for lf in reversed(base)]
        a_plus = Polynomial.variable(v).scale(eps)
        a_minus = -a_plus
        forms += [a_minus] + b_minus + [a_plus] + b_plus
    if not forms:
        forms = [Polynomial.zero()]
    forms = [lf.subst(d // 2) for lf in forms]
    return Projection("C", len(forms), d, forms, Coeff.eps(-d), border=True)


# ---------------------------------------------------------------------------
# word -> family projection
# ---------------------------------------------------------------------------


def word_to_projection(
    w: MatrixWord,
    d: int,
    n: Optional[int] = None,
    weights: Optional[LWeights] = None,
) -> Projection:
    """Map a 3x3 word onto the zero-diagonal elementary-symmetric family at
    degree d: each factor's six off-diagonal entries fill one factor's
    variable slots (after the eps -> eps^d substitution), unused factors get
    zero forms, and the word's scalar is kept separate (no d-th root is ever
    taken).

    A word whose factors and scalar carry no eps, as every
    ``compile_offdiag3`` word, maps to an exact projection (``border 0``)
    with its entries as they are."""
    if w.dim != 3:
        raise ValueError("family projection needs a 3x3 word")
    if d < 1:
        raise ValueError("degree must be positive")
    r = w.r()
    if n is None:
        n = r
    if n < r:
        raise ValueError(f"need at least {r} factor slots, got {n}")
    if weights is None:
        weights = target_weights(w.target, 3)
    border = any(e for (e, _a) in w.global_scalar.terms) or any(
        e for a in w.factors for p in a.values() for (_m, e, _a) in p.terms
    )
    zero = Polynomial.zero()
    forms: List[Polynomial] = []
    for k, a in enumerate(w.factors, 1):
        for i in range(3):
            if (i, i) in a:
                raise DiagonalNonzero(f"factor entry ({i + 1},{i + 1}) = {format_poly(a[i, i])}")
        for i, j in OFF_DIAGONAL:
            p = a.get((i - 1, j - 1), zero)
            if not p.constant_part().is_zero() or p.degree() > 1:
                raise EntryNotHomogeneousLinear(
                    f"factor {k} entry ({i},{j}) is not homogeneous linear: {format_poly(p)}"
                )
            forms.append(p.subst(d) if border else p)
    forms += [zero] * (len(OFF_DIAGONAL) * (n - r))
    scalar = w.global_scalar
    if border:
        scalar = scalar.to_poly().subst(d).constant_part()
    return Projection("nceL", n, d, forms, scalar, border=border, weights=weights)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def format_word(w: MatrixWord) -> str:
    lines = [f"dim {w.dim}"]
    for a in w.factors:
        parts = [f"({i + 1},{j + 1})={format_poly(p)}" for (i, j), p in sorted(a.items())]
        lines.append("factor: " + "; ".join(parts))
    lines.append(f"scalar: {format_coeff(w.global_scalar)}")
    if w.target[0] == "entry":
        lines.append(f"target: entry({w.target[1]},{w.target[2]})")
    elif w.target[0] == "trace":
        lines.append("target: trace")
    else:
        ws = ",".join(format_coeff(Coeff.of(x)).replace(" ", "") for x in w.target[1])
        lines.append(f"target: L({ws})")
    return "\n".join(lines) + "\n"


class ArtifactSyntaxError(ValueError):
    """A malformed word or projection line; the message names the line."""

    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


def _lines(text: str):
    """(line number, line) for each line that is not blank once its
    comment is cut off."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _int(text: str, what: str, lineno: int, low: int, high: Optional[int] = None) -> int:
    """``text`` as an integer in low..high (no upper end when None)."""
    try:
        k = int(text)
    except ValueError:
        raise ArtifactSyntaxError(f"{what}: expected an integer, got {text.strip()!r}",
                                  lineno) from None
    if k < low or (high is not None and k > high):
        span = f"{low}..{high}" if high is not None else f">= {low}"
        raise ArtifactSyntaxError(f"{what} {k} outside {span}", lineno)
    return k


def _entry_index(text: str, dim: int, lineno: int) -> Tuple[int, int]:
    """``(i,j)`` with both indices in 1..dim."""
    if not (text.startswith("(") and text.endswith(")")) or text.count(",") != 1:
        raise ArtifactSyntaxError(f"expected an entry '(i,j)', got {text!r}", lineno)
    i, j = text[1:-1].split(",")
    return _int(i, "row index", lineno, 1, dim), _int(j, "column index", lineno, 1, dim)


def parse_word(text: str) -> MatrixWord:
    dim = None
    factors: List[Factor] = []
    scalar = COEFF_ONE
    target: Target = ("trace",)
    for lineno, line in _lines(text):
        head, _, body = line.partition(":") if ":" in line else line.partition(" ")
        head, body = head.strip(), body.strip()
        try:
            if head == "dim":
                if dim is not None:
                    raise ArtifactSyntaxError("'dim' given twice", lineno)
                dim = _int(body, "dim", lineno, 1, 3)
            elif dim is None:
                raise ArtifactSyntaxError("'dim' must come first", lineno)
            elif head == "factor":
                m: Factor = {}
                for part in body.split(";") if body else ():
                    lhs, eq, rhs = part.partition("=")
                    if not eq:
                        raise ArtifactSyntaxError(
                            f"expected '(i,j)=<entry>', got {part.strip()!r}", lineno)
                    i, j = _entry_index(lhs.strip(), dim, lineno)
                    p = parse_poly(rhs)
                    # a repeated entry replaces the earlier one; a zero one clears it
                    if p.terms:
                        m[i - 1, j - 1] = p
                    else:
                        m.pop((i - 1, j - 1), None)
                factors.append(m)
            elif head == "scalar":
                scalar = parse_coeff(body)
            elif head == "target":
                if body == "trace":
                    target = ("trace",)
                elif body.startswith("entry(") and body.endswith(")"):
                    target = ("entry", *_entry_index(body[len("entry"):], dim, lineno))
                elif body.startswith("L(") and body.endswith(")"):
                    ws = [parse_coeff(t) for t in body[2:-1].split(",")]
                    if len(ws) != dim * dim:
                        raise ArtifactSyntaxError(
                            f"expected {dim * dim} functional weights, got {len(ws)}", lineno)
                    target = ("functional", ws)
                else:
                    raise ArtifactSyntaxError(f"unknown target {body!r}", lineno)
            else:
                raise ArtifactSyntaxError(f"unknown word directive {line!r}", lineno)
        except ArtifactSyntaxError:
            raise
        except ValueError as exc:
            raise ArtifactSyntaxError(str(exc), lineno) from exc
    if dim is None:
        raise ValueError("missing 'dim'")
    return MatrixWord(dim, factors, scalar, target)


def format_projection(p: Projection) -> str:
    lines = [
        f"projection {p.family_tag} n {p.n} d {p.d} border {int(p.border)}",
        f"scalar: {format_coeff(p.scalar)}",
    ]
    if p.weights is not None:
        ws = ",".join(
            format_coeff(Coeff.of(x)).replace(" ", "")
            for row in p.weights
            for x in row
        )
        lines.append(f"weights: {ws}")
    for name, lf in zip(p.slot_names(), p.forms, strict=True):
        lines.append(f"form {name}: {format_poly(lf)}")
    return "\n".join(lines) + "\n"


def parse_projection(text: str) -> Projection:
    tag = n = d = border = None
    scalar = COEFF_ONE
    weights = None
    forms: Dict[str, Tuple[int, Polynomial]] = {}
    for lineno, line in _lines(text):
        try:
            if line.startswith("projection"):
                if tag is not None:
                    raise ArtifactSyntaxError("projection header given twice", lineno)
                words = line.split()
                if len(words) != 8 or words[2::2] != ["n", "d", "border"]:
                    raise ArtifactSyntaxError(
                        "expected 'projection C|nceL n <n> d <d> border 0|1'", lineno)
                tag = words[1]
                if tag not in ("C", "nceL"):
                    raise ArtifactSyntaxError(f"unknown family tag {tag!r}", lineno)
                n = _int(words[3], "n", lineno, 1)
                d = _int(words[5], "d", lineno, 0)
                border = bool(_int(words[7], "border", lineno, 0, 1))
            elif line.startswith("scalar:"):
                scalar = parse_coeff(line[len("scalar:"):])
            elif line.startswith("weights:"):
                flat = [parse_coeff(t) for t in line[len("weights:"):].split(",")]
                if len(flat) != 9:
                    raise ArtifactSyntaxError(f"expected 9 weights, got {len(flat)}", lineno)
                weights = [flat[i * 3:(i + 1) * 3] for i in range(3)]
            elif line.startswith("form "):
                head, colon, body = line.partition(":")
                name = head[len("form "):].strip()
                if not colon:
                    raise ArtifactSyntaxError("expected 'form <slot>: <form>'", lineno)
                if name in forms:
                    raise ArtifactSyntaxError(f"form {name} given twice", lineno)
                lf = parse_poly(body)
                if any(len(m) != 1 or m[0][1] != 1 for (m, _e, _a) in lf.terms):
                    raise ArtifactSyntaxError("polynomial is not homogeneous linear", lineno)
                forms[name] = (lineno, lf)
            else:
                raise ArtifactSyntaxError(f"unknown projection directive {line!r}", lineno)
        except ArtifactSyntaxError:
            raise
        except ValueError as exc:
            raise ArtifactSyntaxError(str(exc), lineno) from exc
    if tag is None:
        raise ValueError("missing projection header")
    p = Projection(tag, n, d, [], scalar, border, weights)
    slots = p.slot_names()
    known = set(slots)
    for name, (lineno, _) in forms.items():
        if name not in known:
            raise ArtifactSyntaxError(f"{tag} projection with n = {n} has no slot {name}", lineno)
    p.forms = [forms[name][1] if name in forms else Polynomial.zero() for name in slots]
    return p
