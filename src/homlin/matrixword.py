"""Compilers from formulas to matrix words and projections.

Three constructions are provided:

* ``compile_offdiag3`` — exact 3x3 words: the product of ``id + A_i`` factors
  equals ``id + f * E(i,j)`` with homogeneous linear entries;
* ``compile_trace3`` — 3x3 border words read off through a diagonal
  functional: the eps-limit of ``scalar * (product - id)`` recovers
  ``f * (E(1,1) - E(2,2))``.  Because every factor is unipotent the product
  has determinant 1, so the eps^2 coefficient is trace-free and the plain
  trace functional provably recovers 0; the word therefore targets the
  (1,1) entry.  Both 3x3 compilers merge adjacent factors on one entry
  as they join their lists (``_joined``);
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
from typing import Dict, List, Optional, Set, Tuple, Union

from .circuit import ArtifactSyntaxError, Circuit, FNode, circuit_to_tree, GradedArity3Repr
from .families import (
    MATRIX_FAMILIES,
    PROJECTION_TAGS,
    Factor,
    Functional,
    L_entry,
    L_trace,
    LWeights,
    family_value,
    slot_names,
    word_product,
)
from .poly import (
    COEFF_ONE,
    Coeff,
    Mono,
    Polynomial,
    Rat,
    format_coeff,
    format_poly,
    parse_coeff,
    parse_poly,
    _clean,
    _rat,
    _var_key,
)
from .transforms import _to_anc


class NotOddDegree(ValueError):
    pass


class NotEvenDegree(ValueError):
    pass


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
        return slot_names(self.family_tag, self.n)

    def value(self, below: Optional[int] = None) -> Polynomial:
        """The projected family value, scaled; exact mod eps^below, or in
        full when ``below`` is None.  Evaluated by the elementary symmetric
        matrix recurrence on the forms (``family_value``), never through the
        family's monomial expansion, whose size explodes with the slot
        count; the tests cross-check the two routes on small instances."""
        return family_value(self.family_tag, self.n, self.d, self.forms, self.scalar,
                            self.weights, below)


def expand_word(w: MatrixWord, read: Functional) -> Polynomial:
    """``read``'s value on (product - id), for the product of the word's
    ``id + A_i`` factors."""
    return word_product(w.factors, read)


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
    return expand_word(
        obj, Functional(target_weights(obj.target, obj.dim), obj.global_scalar, below))


# ---------------------------------------------------------------------------
# 3x3 off-diagonal construction (exact)
# ---------------------------------------------------------------------------

FactorList = List[Factor]


def _require_continuant_leaves(c: Circuit, who: str):
    """The continuant compilers thread gate scalars through ``alpha``, so an
    input form that carries ``alpha`` would be conflated with it; and the
    word invariant (every error term carries ``eps^e`` with ``e >= 1``)
    holds only for input forms with no negative eps power."""
    for g in c.gates:
        if g.kind == "input":
            for _m, e, a in g.form.terms:
                if a:
                    raise ValueError(f"{who}: gate {g.id}'s input form carries alpha, "
                                     "the compiler's own scalar parameter")
                if e < 0:
                    raise ValueError(f"{who}: gate {g.id}'s input form has a negative "
                                     "eps power, which breaks the word invariant")


def _e_factors(i: int, j: int, p: Polynomial) -> FactorList:
    """The one-factor list ``id + p * E(i,j)``; empty when p is zero, since
    an identity factor changes neither the product nor any ``e_d``."""
    return [{(i - 1, j - 1): p}] if p.terms else []


def _third_index(i: int, j: int) -> int:
    return ({1, 2, 3} - {i, j}).pop()


# Every factor the 3x3 compilers build holds one off-diagonal entry, and two
# adjacent factors on the same entry are merged into one as the lists are
# joined: with E = E(i,j), i != j, E^2 = 0, so
#
# * the product is unchanged: (id + aE)(id + bE) = id + (a + b)E + ab E^2
#   = id + (a + b)E;
# * so is the elementary symmetric value e_d, at every d: a term that uses
#   both factors holds aE * bE = 0, and every other term uses at most one of
#   them, at the same place in its product, so the terms sum to those of the
#   shorter list with (a + b)E there.
#
# So compile_offdiag3's exact identity, trace3's border limit and the word's
# nceL value (the tests' ``oracle_word_to_projection``) all hold as for the
# word built in full.  A sum that cancels to zero is an identity factor and
# is dropped, which can bring two more same-entry factors together: the
# merge cascades outward.  Each list joined is already merged, so only its
# seam can merge, and a join is linear in its output.  The rewriting is
# confluent, so the result is the word built in full and merged once by a
# flat stack pass, factor for factor.  Merging at the seams of the recursion
# rather than once at the end keeps factor sharing: a merged dict is built
# once and shared by every ancestor list that holds it, as the commutator
# gadgets share their parts.


def _joined(*lists: FactorList) -> FactorList:
    """The concatenation of merged factor lists, merged at each seam (see
    above).  No list or factor dict is changed; a merged entry is a new
    dict."""
    out: FactorList = []
    for factors in lists:
        k = 0
        while out and k < len(factors) and out[-1].keys() == factors[k].keys():
            ((t, a),) = out.pop().items()
            s = a + factors[k][t]
            k += 1
            if s.terms:
                out.append({t: s})
                break
        out += factors[k:] if k else factors
    return out


def _offdiag_lists(
    node: FNode, pos: Tuple[int, int], scal: Coeff
) -> Tuple[FactorList, FactorList]:
    """Dual merged word lists (plus, minus) whose products are exactly
    ``id + scal*g*E(pos)`` and ``id - scal*g*E(pos)``."""
    i, j = pos
    if node.kind == "input":
        p = node.form.scale(scal)
        return _e_factors(i, j, p), _e_factors(i, j, -p)
    if node.kind == "add":
        p1, m1 = _offdiag_lists(node.children[0], pos, scal)
        p2, m2 = _offdiag_lists(node.children[1], pos, scal)
        return _joined(p1, p2), _joined(m1, m2)
    # a mul, the one other kind the arity-2 basis admits
    k = _third_index(i, j)
    pf, mf = _offdiag_lists(node.children[0], (i, k), scal)
    pg, mg = _offdiag_lists(node.children[1], (k, j), COEFF_ONE)
    return _joined(pf, pg, mf, mg), _joined(mf, pg, pf, mg)


def compile_offdiag3(c: Circuit, target: Tuple[int, int]) -> MatrixWord:
    """Exact word: product of factors - id = eval(c) * E(target).  Adjacent
    factors on one entry are merged (see ``_joined``), so no two neighbours
    share an entry and no factor is the identity; a formula whose value
    cancels can give the empty word."""
    c.require("compile_offdiag3", shape="formula", basis="arity2", ihl=True)
    i, j = target
    if i == j or not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError("target must be an off-diagonal position of a 3x3 matrix")
    plus, _minus = _offdiag_lists(circuit_to_tree(c), (i, j), COEFF_ONE)
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
    trace would cancel to 0.  Each summand gives one block, the blocks are
    joined in order, and adjacent factors on one entry are merged at every
    seam, inside a block and between blocks (see ``_joined``)."""
    c.require("compile_trace3", shape="formula", basis="arity2", ihl=True)
    eps = Coeff.eps(1)
    blocks: List[FactorList] = []
    for s in _summands(circuit_to_tree(c)):
        if s.kind == "mul":
            g, h = s.children
            pg, mg = _offdiag_lists(g, (1, 2), eps)
            ph, mh = _offdiag_lists(h, (2, 1), eps)
            blocks.append(_joined(pg, ph, mg, mh))
        else:
            # an input, the degree-1 corner: no product pair exists under
            # IHL, so use the pair (eps^-1 * l, eps): gadget entries are l and
            # the constant eps^2, and every entry of the gadget stays O(eps^2)
            lf = s.form
            e2 = Polynomial.eps(2)
            blocks.append(_joined(_e_factors(1, 2, lf), _e_factors(2, 1, e2),
                                  _e_factors(1, 2, -lf), _e_factors(2, 1, -e2)))
    return MatrixWord(3, _joined(*blocks), Coeff.eps(-2), entry_target(1, 1))


# ---------------------------------------------------------------------------
# 2x2 alternating-word border construction
# ---------------------------------------------------------------------------
#
# A 2x2 word is kept as a list of linear forms, laid out as matrices by the
# ``C`` family's slots (upper-triangular at odd slots, lower-triangular at
# even ones).  Every recursive invariant word has odd length, starts
# upper-triangular, and satisfies: the eps-limit of (product - id) exists and
# equals alpha * value * E_upper exactly.
#
# While a word is built, each slot is a term dict {(m, e, a): v}, free of
# zero values, standing for the sum of v * m * eps^e * alpha^a.  Every alpha
# image the compilers use is one term ic * eps^ie * alpha^ia: eps^-1 and
# -eps^-1 in a cube's outer blocks, s * eps^2 * alpha in its middle block,
# +-eps in the even b-blocks, and alpha itself under a plain eps power.  So
# the ring map eps -> eps^k, alpha -> that image sends each term on its own,
# (m, e, a) -> (m, k*e + ie*a, ia*a) with its value times ic^a.
#
# Every interior zero slot is absorbed as soon as it appears: three slots
# x, 0, y become the one slot x + y, at the position of x.  This changes
# neither the word's product nor its elementary symmetric value e_d, for any
# d.  Slots p and p + 2 have the same parity, so they hold x * U and y * U for
# one nilpotent U (E12 or E21, U^2 = 0), and slot p + 1 is the identity factor
# (zero matrix):
#
# * product: (I + xU) I (I + yU) = I + (x + y)U + xy U^2 = I + (x + y)U;
# * e_d: a term that uses slot p + 1 is zero, and one that uses both p and
#   p + 2 holds the adjacent factors xU * yU = 0.  Every other term uses at
#   most one of the two, at the same place in its product, so the terms sum
#   to those of the shorter list with (x + y)U at p.
#
# The list shrinks by 2, so its length and every later slot keep their
# parity.  A sum that cancels to zero is absorbed in turn.  Absorption
# happens in two places.  An add joins its two absorbed words around a zero
# slot, which keeps the alternation strict, so only the seam w1[-1], 0, w2[0]
# can absorb, cascading outward while the sums cancel.  A cube's three blocks
# are ring images of an absorbed word, and a map can zero a slot (a
# scale-0 cube sends alpha to 0) or cancel terms that meet at one key, so
# every mapped slot is pushed through the same check.  The ring map is a
# homomorphism that sends 0 to 0 and the rewriting is confluent, so the
# result is the word built in full and absorbed once at the end, slot for
# slot and term for term.
#
# A cube's eps power k (``_Word.cube_power``) is read from the absorbed base
# word: k = 2 + the sum, over its slots, of the largest alpha exponent in the
# slot.  The base product is id + alpha * value * E_upper + (error terms), and
# every error term is eps^e * alpha^a with e >= 1 (the invariant).  The
# absorbed word has the product of the word built in full, and each term of a
# product entry takes at most one term from each slot, so a <= a_max, the sum
# above.  The outer blocks map eps -> eps^k, alpha -> +-eps^-1, which sends
# the error term to eps^(k*e - a) with k*e - a >= k - a_max >= 2: it vanishes
# mod eps^2, as the cube gadget needs.

Terms = Dict[Tuple[Mono, int, int], Rat]
Image = Tuple[Rat, int, int]  # (ic, ie, ia): the alpha image ic * eps^ie * alpha^ia


def _map_terms(terms: Terms, k: int, image: Image) -> Terms:
    """A slot's terms under the ring map eps -> eps^k, alpha -> image, free
    of zero values.  Images +-1 skip the rational products."""
    ic, ie, ia = image
    if ic == 1:
        out = {(m, k * e + ie * a, ia * a): v for (m, e, a), v in terms.items()}
    elif ic == -1:
        out = {(m, k * e + ie * a, ia * a): -v if a & 1 else v
               for (m, e, a), v in terms.items()}
    elif ic == 0:
        out = {(m, k * e, 0): v for (m, e, a), v in terms.items() if not a}
    else:
        out = {(m, k * e + ie * a, ia * a): v * ic ** a if a else v
               for (m, e, a), v in terms.items()}
    # with ia = 1 (or a zero image) the map is injective on keys; otherwise
    # a shorter dict means two terms met at one key, and they are summed
    if ia or not ic or len(out) == len(terms):
        return out
    out = {}
    for (m, e, a), v in terms.items():
        key = (m, k * e + ie * a, 0)
        out[key] = out.get(key, 0) + v * ic ** a
    return {key: v for key, v in out.items() if v}


class _Word:
    """A continuant word with its zero slots absorbed as it is built (see
    above)."""

    __slots__ = ("slots",)

    def __init__(self):
        self.slots: List[Terms] = []

    @staticmethod
    def leaf(form: Polynomial, s: Fraction) -> "_Word":
        """The one-slot word alpha * s * form."""
        w = _Word()
        s = _rat(s)
        w.slots.append({(m, e, a + 1): v * s for (m, e, a), v in form.terms.items()}
                       if s else {})
        return w

    def push(self, terms: Terms) -> None:
        """Append one slot; if it closes an interior zero slot x, 0, it is
        added into x instead."""
        slots = self.slots
        if len(slots) > 1 and not slots[-1]:
            slots.pop()
            acc = slots[-1]
            for key, v in terms.items():
                v += acc.get(key, 0)
                if v:
                    acc[key] = v
                else:
                    del acc[key]
        else:
            slots.append(terms)

    def join(self, other: "_Word") -> None:
        """Append a zero slot and then ``other``, whose slots this word takes
        over.  Only the seam can absorb: once a pushed slot leaves a nonzero
        last slot, the rest of ``other`` holds no interior zero."""
        self.push({})
        rest = other.slots
        for i, terms in enumerate(rest):
            self.push(terms)
            if self.slots[-1]:
                self.slots += rest[i + 1:]
                break

    def extend_mapped(self, word: "_Word", k: int, image: Image, reverse: bool = False) -> None:
        """Append ``word`` (reversed when asked) under the ring map
        eps -> eps^k, alpha -> image."""
        for terms in reversed(word.slots) if reverse else word.slots:
            self.push(_map_terms(terms, k, image))

    def mapped(self, k: int, image: Image) -> "_Word":
        """This word under the ring map eps -> eps^k, alpha -> image."""
        w = _Word()
        w.extend_mapped(self, k, image)
        return w

    def cube_power(self) -> int:
        """The eps power k of a negative cube over this word: 2 plus the sum
        of each slot's largest alpha exponent (the bound proved above)."""
        return 2 + sum(max((a for (_m, _e, a) in terms), default=0)
                       for terms in self.slots)

    def forms(self) -> List[Polynomial]:
        """The slots as polynomials, integral values as ints."""
        return [Polynomial._normalised(_clean(t)) for t in self.slots]


def _cont_odd_word(node: FNode, s: Fraction) -> _Word:
    """Word for alpha * s * eval_raw(node); the node's own scale tag is
    folded into s."""
    if node.scale != 1:
        s = s * node.scale
    if node.kind == "input":
        return _Word.leaf(node.form, s)
    if node.kind == "add":
        w = _cont_odd_word(node.children[0], s)
        w.join(_cont_odd_word(node.children[1], s))
        return w
    # a negcube, the one other kind the add/neg-cube basis admits
    base = _cont_odd_word(node.children[0], Fraction(1))
    k = base.cube_power()
    w = _Word()
    w.extend_mapped(base, k, (1, -1, 0))
    w.extend_mapped(base, 3, (_rat(s), 2, 1), reverse=True)
    w.extend_mapped(base, k, (-1, -1, 0))
    return w


def compile_continuant_odd(c: Circuit, value: Optional[Polynomial] = None) -> Projection:
    """Border projection of the parity-alternating family computing the odd
    homogeneous degree-d polynomial of an add/negative-cube IHL formula.

    ``d`` is the top degree of the formula's value (1 for zero): ``value``
    when the caller holds it (it must be ``c.eval()``), else the evaluated
    formula.  A value of more than one degree, or of even degree, is
    ``NotOddDegree``."""
    c.require("compile_continuant_odd", shape="formula", basis="addNegCube", ihl=True)
    _require_continuant_leaves(c, "compile_continuant_odd")
    degs = (c.eval() if value is None else value).homog_degrees()
    if len(degs) > 1:
        raise NotOddDegree(f"formula is not homogeneous: degrees {degs}")
    d = degs[0] if degs else 1
    if d % 2 == 0:
        raise NotOddDegree(f"degree {d} is even")
    word = _cont_odd_word(circuit_to_tree(c), Fraction(1))
    forms = word.mapped(1, (1, 0, 0)).forms()  # alpha -> 1
    return Projection("C", len(forms), d, forms, COEFF_ONE, border=True)


def compile_continuant_even(g: GradedArity3Repr, d: int) -> Projection:
    """Border projection for the even homogeneous degree-d component, built
    from the per-variable derivative circuits via the telescoping diagonal
    gadget and the homogeneous-function identity.  Each part must be an
    arity-3 IHL circuit computing zero or a form of degree ``d - 1``
    (``GradedArity3Repr.part_value``)."""
    if d % 2 == 1 or d < 2:
        raise NotEvenDegree(f"degree {d} is not a positive even number")
    per_var = g.even_parts.get(d, {})
    word = _Word()
    for v in sorted(per_var, key=_var_key):
        part, who = per_var[v], f"compile_continuant_even (part for {v})"
        value = g.part_value(part, who, d - 1)
        _require_continuant_leaves(part, who)
        if not value.terms:
            continue
        # invariant word for alpha * eval(part) / d
        base = _cont_odd_word(_to_anc(circuit_to_tree(part)), Fraction(1, d))
        # b-blocks: eps -> eps^3, alpha -> +-eps, transposed and reversed;
        # between them the slots -x_v * eps and x_v * eps
        x_v = (((v, 1),), 1, 0)
        word.push({x_v: -1})
        word.extend_mapped(base, 3, (-1, 1, 0), reverse=True)
        word.push({x_v: 1})
        word.extend_mapped(base, 3, (1, 1, 0), reverse=True)
    if not word.slots:
        word.push({})
    forms = word.mapped(d // 2, (1, 0, 1)).forms()
    return Projection("C", len(forms), d, forms, Coeff.eps(-d), border=True)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def format_word(w: MatrixWord) -> str:
    lines = [f"dim {w.dim}"]
    # Each distinct factor is formatted once.  Compilers share factor dicts
    # between positions, so a factor is keyed by its identity; the word keeps
    # its factors alive while this runs, so no id is reused.
    factor_text: Dict[int, str] = {}
    for a in w.factors:
        line = factor_text.get(id(a))
        if line is None:
            parts = [f"({i + 1},{j + 1})={format_poly(p)}" for (i, j), p in sorted(a.items())]
            line = factor_text[id(a)] = "factor: " + "; ".join(parts)
        lines.append(line)
    lines.append(f"scalar: {format_coeff(w.global_scalar)}")
    if w.target[0] == "entry":
        lines.append(f"target: entry({w.target[1]},{w.target[2]})")
    elif w.target[0] == "trace":
        lines.append("target: trace")
    else:
        ws = ",".join(format_coeff(Coeff.of(x)).replace(" ", "") for x in w.target[1])
        lines.append(f"target: L({ws})")
    return "\n".join(lines) + "\n"


def _lines(text: str):
    """(line number, line) for each line that is not blank once its
    comment is cut off."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _once(head: str, given: Set[str], lineno: int) -> None:
    """Record a directive that may appear once; a repeat is a syntax error."""
    if head in given:
        raise ArtifactSyntaxError(f"'{head}' given twice", lineno)
    given.add(head)


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


def _parse_factor(body: str, dim: int, lineno: int) -> Factor:
    """The factor of a ``factor:`` line's body."""
    m: Factor = {}
    for part in body.split(";") if body else ():
        lhs, eq, rhs = part.partition("=")
        if not eq:
            raise ArtifactSyntaxError(f"expected '(i,j)=<entry>', got {part.strip()!r}", lineno)
        i, j = _entry_index(lhs.strip(), dim, lineno)
        p = parse_poly(rhs)
        # a repeated entry replaces the earlier one; a zero one clears it
        if p.terms:
            m[i - 1, j - 1] = p
        else:
            m.pop((i - 1, j - 1), None)
    return m


def parse_word(text: str) -> MatrixWord:
    dim = None
    factors: List[Factor] = []
    parsed: Dict[str, Factor] = {}
    scalar = COEFF_ONE
    target: Target = ("trace",)
    given: Set[str] = set()
    for lineno, line in _lines(text):
        head, _, body = line.partition(":") if ":" in line else line.partition(" ")
        head, body = head.strip(), body.strip()
        try:
            if head in ("dim", "scalar", "target"):
                _once(head, given, lineno)
            if head == "dim":
                dim = _int(body, "dim", lineno, 1, 3)
            elif dim is None:
                raise ArtifactSyntaxError("'dim' must come first", lineno)
            elif head == "factor":
                # each distinct line is parsed once, and its repeats share
                # the one factor dict (factors are never mutated)
                m = parsed.get(body)
                if m is None:
                    m = parsed[body] = _parse_factor(body, dim, lineno)
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


# the size of the functional a ``weights:`` line lists, row by row: that of
# the one projection family whose L is a parameter (nceL)
_LISTED, = {dim for dim, *_, projected in MATRIX_FAMILIES.values() if projected}


def parse_projection(text: str) -> Projection:
    tag = n = d = border = None
    scalar = COEFF_ONE
    weights = weights_line = None
    forms: Dict[str, Tuple[int, Polynomial]] = {}
    given: Set[str] = set()
    for lineno, line in _lines(text):
        try:
            if line.startswith("projection"):
                if tag is not None:
                    raise ArtifactSyntaxError("projection header given twice", lineno)
                words = line.split()
                if len(words) != 8 or words[2::2] != ["n", "d", "border"]:
                    raise ArtifactSyntaxError(
                        f"expected 'projection {'|'.join(PROJECTION_TAGS)} n <n> d <d> border 0|1'",
                        lineno)
                tag = words[1]
                if tag not in PROJECTION_TAGS:
                    raise ArtifactSyntaxError(f"unknown family tag {tag!r}", lineno)
                n = _int(words[3], "n", lineno, 1)
                d = _int(words[5], "d", lineno, 0)
                border = bool(_int(words[7], "border", lineno, 0, 1))
            elif line.startswith("scalar:"):
                _once("scalar", given, lineno)
                scalar = parse_coeff(line[len("scalar:"):])
            elif line.startswith("weights:"):
                _once("weights", given, lineno)
                flat = [parse_coeff(t) for t in line[len("weights:"):].split(",")]
                k = _LISTED
                if len(flat) != k * k:
                    raise ArtifactSyntaxError(f"expected {k * k} weights, got {len(flat)}", lineno)
                weights, weights_line = [flat[i * k:(i + 1) * k] for i in range(k)], lineno
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
    if weights is not None and not MATRIX_FAMILIES[tag][5]:
        raise ArtifactSyntaxError(f"a {tag} projection takes no weights", weights_line)
    p = Projection(tag, n, d, [], scalar, border, weights)
    slots = p.slot_names()
    known = set(slots)
    for name, (lineno, _) in forms.items():
        if name not in known:
            raise ArtifactSyntaxError(f"{tag} projection with n = {n} has no slot {name}", lineno)
    p.forms = [forms[name][1] if name in forms else Polynomial.zero() for name in slots]
    return p
