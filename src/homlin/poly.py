"""Exact sparse multivariate polynomial arithmetic over Q[eps, eps^-1][alpha].

Coefficients live in the ring of Laurent polynomials in a degeneration
parameter ``eps`` (integer exponents, possibly negative) further extended by a
formal scalar ``alpha`` (nonnegative exponents), with rational (Fraction)
constants.  Variables are named by strings (``x1``, ``x1_2_3``, ...) and are
totally ordered by a natural sort of their numeric components.

Representation:

  Coeff       = {(epsExp, alphaExp): Fraction}      (no zero entries)
  Monomial    = tuple of (varName, positiveExp) pairs, sorted canonically
  Polynomial  = {(Monomial, epsExp, alphaExp): Fraction}   (flat, no zeros)

The zero polynomial is the empty mapping.  All values are immutable after
construction and every operation is a pure function.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

Mono = Tuple[Tuple[str, int], ...]
Rat = Union[int, Fraction]


class LimitDiverges(Exception):
    """An eps -> 0 limit was requested but a negative eps power survives."""


class PrimeTooSmall(Exception):
    """Modular evaluation prime is too small for a Schwartz-Zippel guarantee."""


_VAR_CHUNKS = re.compile(r"(\d+)")


def _var_key(name: str):
    """Natural-sort key so x2 < x10 and x1_2 < x1_10."""
    return tuple(int(c) if c.isdigit() else c for c in _VAR_CHUNKS.split(name))


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    exps: Dict[str, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items(), key=lambda it: _var_key(it[0])))


def _mono_deg(m: Mono) -> int:
    return sum(e for _, e in m)


class Coeff:
    """An element of Q[eps, eps^-1][alpha]; the scalar ring of this artifact."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Tuple[int, int], Rat] | None = None):
        clean: Dict[Tuple[int, int], Fraction] = {}
        if terms:
            for (e, a), c in terms.items():
                if a < 0:
                    raise ValueError("alpha exponent must be nonnegative")
                c = Fraction(c)
                if c != 0:
                    clean[(e, a)] = clean.get((e, a), Fraction(0)) + c
        self.terms = {k: v for k, v in clean.items() if v != 0}

    @staticmethod
    def from_rational(c: Rat) -> "Coeff":
        return Coeff({(0, 0): Fraction(c)})

    @staticmethod
    def of(x: Union["Coeff", Rat]) -> "Coeff":
        """``x`` itself if it is a Coeff, else the constant rational ``x``."""
        return x if isinstance(x, Coeff) else Coeff.from_rational(x)

    @staticmethod
    def eps(k: int = 1) -> "Coeff":
        return Coeff({(k, 0): Fraction(1)})

    @staticmethod
    def alpha(k: int = 1) -> "Coeff":
        return Coeff({(0, k): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0, 0): Fraction(1)}

    def __add__(self, other: "Coeff") -> "Coeff":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return Coeff(out)

    def __neg__(self) -> "Coeff":
        return Coeff({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self + (-other)

    def __mul__(self, other: Union["Coeff", Rat]) -> "Coeff":
        other = Coeff.of(other)
        out: Dict[Tuple[int, int], Fraction] = {}
        for (e1, a1), c1 in self.terms.items():
            for (e2, a2), c2 in other.terms.items():
                k = (e1 + e2, a1 + a2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return Coeff(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Coeff.from_rational(other)
        return isinstance(other, Coeff) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __pow__(self, n: int) -> "Coeff":
        if n < 0:
            raise ValueError("negative scalar power")
        out = COEFF_ONE
        for _ in range(n):
            out = out * self
        return out

    def subst(self, eps_power: int = 1, alpha: Union["Coeff", Rat, None] = None) -> "Coeff":
        """The ring map eps -> eps^eps_power, alpha -> ``alpha`` (alpha is
        kept when None).  The image of alpha is not itself substituted."""
        image = Coeff.alpha() if alpha is None else Coeff.of(alpha)
        out = COEFF_ZERO
        for (e, a), c in self.terms.items():
            out = out + Coeff({(e * eps_power, 0): c}) * image ** a
        return out

    def to_poly(self) -> "Polynomial":
        return Polynomial({((), e, a): c for (e, a), c in self.terms.items()})

    def __repr__(self):
        return f"Coeff({self.terms!r})"


COEFF_ZERO = Coeff()
COEFF_ONE = Coeff.from_rational(1)


class Polynomial:
    """Exact sparse multivariate polynomial with Coeff-valued coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Tuple[Mono, int, int], Rat] | None = None):
        clean: Dict[Tuple[Mono, int, int], Fraction] = {}
        if terms:
            for key, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[key] = clean.get(key, Fraction(0)) + c
        self.terms = {k: v for k, v in clean.items() if v != 0}

    # -- constructors -----------------------------------------------------
    @staticmethod
    def _normalised(terms: Dict[Tuple[Mono, int, int], Fraction]) -> "Polynomial":
        """Wrap a term dict that already holds only nonzero Fractions."""
        p = object.__new__(Polynomial)
        p.terms = terms
        return p

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def const(c: Union[Rat, Coeff]) -> "Polynomial":
        if isinstance(c, Coeff):
            return c.to_poly()
        return Polynomial({((), 0, 0): Fraction(c)})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial({(((name, 1),), 0, 0): Fraction(1)})

    @staticmethod
    def eps(k: int = 1) -> "Polynomial":
        return Polynomial({((), k, 0): Fraction(1)})

    @staticmethod
    def alpha(k: int = 1) -> "Polynomial":
        return Polynomial({((), 0, k): Fraction(1)})

    # -- ring operations ---------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", Coeff, Rat]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.const(other)
        if not self.terms or not other.terms:
            return Polynomial()
        out: Dict[Tuple[Mono, int, int], Fraction] = {}
        for (m1, e1, a1), c1 in self.terms.items():
            for (m2, e2, a2), c2 in other.terms.items():
                k = (_mono_mul(m1, m2), e1 + e2, a1 + a2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.const(1)
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c: Union[Coeff, Rat]) -> "Polynomial":
        return self * Coeff.of(c)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total x-degree (eps and alpha do not count); zero polynomial -> -1."""
        if not self.terms:
            return -1
        return max(_mono_deg(m) for (m, _, _) in self.terms)

    def variables(self) -> set:
        out = set()
        for (m, _, _) in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def coeff_of_mono(self, m: Mono) -> Coeff:
        out = {}
        for (m2, e, a), c in self.terms.items():
            if m2 == m:
                out[(e, a)] = c
        return Coeff(out)

    def constant_part(self) -> Coeff:
        """The monomial-free part (may still carry eps/alpha)."""
        return self.coeff_of_mono(())

    def max_eps_exp(self) -> int:
        return max((e for (_, e, _) in self.terms), default=0)

    def min_eps_exp(self) -> int:
        return min((e for (_, e, _) in self.terms), default=0)

    # -- spec operations ----------------------------------------------------
    def homog_component(self, d: int) -> "Polynomial":
        if d < 0:
            raise ValueError("degree must be nonnegative")
        return Polynomial(
            {k: c for k, c in self.terms.items() if _mono_deg(k[0]) == d}
        )

    def homog_degrees(self) -> list:
        return sorted({_mono_deg(m) for (m, _, _) in self.terms})

    def is_homogeneous(self, d: int | None = None) -> bool:
        degs = self.homog_degrees()
        if not degs:
            return True
        return degs == [d] if d is not None else len(degs) == 1

    def partial_derivative(self, v: str) -> "Polynomial":
        out: Dict[Tuple[Mono, int, int], Fraction] = {}
        for (m, e, a), c in self.terms.items():
            exps = dict(m)
            dexp = exps.get(v, 0)
            if dexp == 0:
                continue
            if dexp == 1:
                del exps[v]
            else:
                exps[v] = dexp - 1
            mono = tuple(sorted(exps.items(), key=lambda it: _var_key(it[0])))
            key = (mono, e, a)
            out[key] = out.get(key, Fraction(0)) + c * dexp
        return Polynomial(out)

    def substitute(self, sigma: Mapping[str, Union["Polynomial", "LinearForm"]]) -> "Polynomial":
        """Substitute polynomials (or linear forms) for variables.

        Unmapped variables substitute to themselves.
        """
        images: Dict[str, Polynomial] = {}
        for v, img in sigma.items():
            images[v] = img.to_poly() if isinstance(img, LinearForm) else img
        out = Polynomial()
        cache: Dict[Tuple[str, int], Polynomial] = {}
        for (m, e, a), c in self.terms.items():
            term = Polynomial({((), e, a): c})
            for v, exp in m:
                if v in images:
                    key = (v, exp)
                    if key not in cache:
                        cache[key] = images[v] ** exp
                    term = term * cache[key]
                else:
                    term = term * Polynomial({(((v, exp),), 0, 0): Fraction(1)})
                if not term.terms:
                    break
            out = out + term
        return out

    def eps_limit(self) -> "Polynomial":
        """Set eps = 0: keep epsExp 0 parts, error on surviving negatives."""
        out = {}
        for (m, e, a), c in self.terms.items():
            if e < 0:
                raise LimitDiverges(
                    f"negative eps power eps^{e} survives on monomial {format_mono(m)}"
                )
            if e == 0:
                out[(m, 0, a)] = c
        return Polynomial(out)

    def mod_eps(self, k: int) -> "Polynomial":
        """Drop all terms whose eps exponent is >= k (negatives kept)."""
        return Polynomial({key: c for key, c in self.terms.items() if key[1] < k})

    def eval_random(self, point: Mapping[str, Rat], field=None) -> Dict[int, object]:
        """Evaluate x-variables numerically, leaving eps symbolic.

        Returns {epsExp: value}; values are Fractions, or residues mod the
        given prime.  alpha must have been substituted away beforehand.
        """
        prime = None
        if field not in (None, "rational"):
            prime = int(field)
        if prime is not None and prime <= max(self.degree(), 0):
            raise PrimeTooSmall(f"prime {prime} <= degree {self.degree()}")
        out: Dict[int, object] = {}
        for (m, e, a), c in self.terms.items():
            if a != 0:
                raise ValueError("alpha must be substituted before evaluation")
            if prime is None:
                val = c
                for v, exp in m:
                    val *= Fraction(point[v]) ** exp
                out[e] = out.get(e, Fraction(0)) + val
            else:
                num = c.numerator % prime
                den = pow(c.denominator % prime, prime - 2, prime)
                val = num * den % prime
                for v, exp in m:
                    val = val * pow(int(point[v]) % prime, exp, prime) % prime
                out[e] = (out.get(e, 0) + val) % prime
        return {e: v for e, v in out.items() if v != 0}

    def __repr__(self):
        return f"Polynomial<{format_poly(self)}>"


def _eps_of(item) -> int:
    return item[0][1]


def dot(
    pairs: Iterable[Tuple[Polynomial, Polynomial]],
    below: int | float | None = None,
    start: Polynomial | None = None,
) -> Polynomial:
    """``start`` plus the sum of ``a * b`` over the pairs, reduced mod
    eps^below (negative powers kept, as in ``mod_eps``).

    Two terms whose eps exponents sum to ``below`` or more are never
    multiplied; with ``below=None`` every term is kept."""
    top = math.inf if below is None else below
    out: Dict[Tuple[Mono, int, int], Fraction] = {}
    if start is not None:
        out = {k: c for k, c in start.terms.items() if k[1] < top}
    get = out.get
    for a, b in pairs:
        if not a.terms or not b.terms:
            continue
        inner = sorted(b.terms.items(), key=_eps_of)
        for (m1, e1, a1), c1 in a.terms.items():
            lim = top - e1
            for (m2, e2, a2), c2 in inner:
                if e2 >= lim:
                    break
                key = (_mono_mul(m1, m2), e1 + e2, a1 + a2)
                out[key] = get(key, 0) + c1 * c2
    return Polynomial._normalised({k: c for k, c in out.items() if c})


class LinearForm:
    """A homogeneous degree-1 polynomial: {varName: Coeff}, no constant term."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[str, Union[Coeff, Rat]] | None = None):
        clean: Dict[str, Coeff] = {}
        if coeffs:
            for v, c in coeffs.items():
                c = Coeff.of(c)
                if not c.is_zero():
                    clean[v] = c
        self.coeffs = clean

    @staticmethod
    def variable(name: str, c: Union[Coeff, Rat] = 1) -> "LinearForm":
        return LinearForm({name: c})

    @staticmethod
    def zero() -> "LinearForm":
        return LinearForm()

    @staticmethod
    def from_poly(p: Polynomial) -> "LinearForm":
        out: Dict[str, Coeff] = {}
        for (m, e, a), c in p.terms.items():
            if len(m) != 1 or m[0][1] != 1:
                raise ValueError("polynomial is not homogeneous linear")
            v = m[0][0]
            out[v] = out.get(v, COEFF_ZERO) + Coeff({(e, a): c})
        return LinearForm(out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LinearForm") -> "LinearForm":
        out = dict(self.coeffs)
        for v, c in other.coeffs.items():
            out[v] = out.get(v, COEFF_ZERO) + c
        return LinearForm(out)

    def __neg__(self) -> "LinearForm":
        return LinearForm({v: -c for v, c in self.coeffs.items()})

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + (-other)

    def scale(self, c: Union[Coeff, Rat]) -> "LinearForm":
        c = Coeff.of(c)
        return LinearForm({v: k * c for v, k in self.coeffs.items()})

    def subst(self, eps_power: int = 1, alpha: Union[Coeff, Rat, None] = None) -> "LinearForm":
        """``Coeff.subst`` applied to every coefficient."""
        return LinearForm({v: c.subst(eps_power, alpha) for v, c in self.coeffs.items()})

    def to_poly(self) -> Polynomial:
        out = {}
        for v, c in self.coeffs.items():
            for (e, a), x in c.terms.items():
                out[(((v, 1),), e, a)] = x
        return Polynomial(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        return f"LinearForm<{format_poly(self.to_poly())}>"


# ---------------------------------------------------------------------------
# Text syntax: terms joined by +/-; each term `c * x3^2 * eps^-1 * alpha^2`
# with `c` a rational literal p/q.  Whitespace insignificant.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<rat>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[\^*+()-]))"
)


class PolySyntaxError(ValueError):
    pass


def _tokenize(text: str):
    pos = 0
    toks = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise PolySyntaxError(f"bad character at offset {pos}: {text[pos]!r}")
            break
        pos = m.end()
        if m.lastgroup == "rat":
            toks.append(("rat", m.group("rat")))
        elif m.lastgroup == "name":
            toks.append(("name", m.group("name")))
        else:
            toks.append(("op", m.group("op")))
    return toks


def parse_poly(text: str) -> Polynomial:
    toks = _tokenize(text)
    if not toks:
        return Polynomial.zero()
    out = Polynomial.zero()
    i = 0
    sign = 1
    while i < len(toks) and toks[i][0] == "op" and toks[i][1] in "+-":
        if toks[i][1] == "-":
            sign = -sign
        i += 1
    while i < len(toks):
        term, i = _parse_term(toks, i)
        out = out + term.scale(sign)
        sign = 1
        while i < len(toks) and toks[i][0] == "op" and toks[i][1] in "+-":
            if toks[i][1] == "-":
                sign = -sign
            i += 1
            if i >= len(toks):
                raise PolySyntaxError("dangling sign at end of input")
        if i < len(toks) and toks[i][0] == "op" and toks[i][1] == "*":
            raise PolySyntaxError("unexpected '*'")
    return out


def _parse_term(toks, i):
    term = Polynomial.const(1)
    expect_factor = True
    while expect_factor:
        if i >= len(toks):
            raise PolySyntaxError("expected a factor")
        kind, val = toks[i]
        if kind == "rat":
            i += 1
            term = term * Polynomial.const(Fraction(val))
        elif kind == "name":
            name = val
            i += 1
            exp = 1
            if i < len(toks) and toks[i] == ("op", "^"):
                i += 1
                neg = False
                if i < len(toks) and toks[i] == ("op", "-"):
                    neg = True
                    i += 1
                if i >= len(toks) or toks[i][0] != "rat" or "/" in toks[i][1]:
                    raise PolySyntaxError("expected integer exponent after '^'")
                exp = int(toks[i][1])
                if neg:
                    exp = -exp
                i += 1
            if name == "eps":
                term = term * Polynomial.eps(exp)
            elif name == "alpha":
                if exp < 0:
                    raise PolySyntaxError("alpha exponent must be nonnegative")
                term = term * Polynomial.alpha(exp)
            else:
                if exp < 0:
                    raise PolySyntaxError("variable exponent must be positive")
                term = term * (Polynomial.variable(name) ** exp)
        else:
            raise PolySyntaxError(f"unexpected token {val!r}")
        expect_factor = False
        if i < len(toks) and toks[i] == ("op", "*"):
            i += 1
            expect_factor = True
    return term, i


def format_mono(m: Mono) -> str:
    if not m:
        return "1"
    return " * ".join(v if e == 1 else f"{v}^{e}" for v, e in m)


def _term_key(key):
    m, e, a = key
    return (_mono_deg(m), tuple((_var_key(v), x) for v, x in m), e, a)


def format_poly(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    pieces = []
    for (m, e, a) in sorted(p.terms, key=_term_key):
        c = p.terms[(m, e, a)]
        factors = []
        if m:
            factors.append(format_mono(m))
        if e:
            factors.append(f"eps^{e}" if e != 1 else "eps")
        if a:
            factors.append(f"alpha^{a}" if a != 1 else "alpha")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = " * ".join(factors)
        else:
            body = str(mag) + " * " + " * ".join(factors)
        pieces.append(("-" if c < 0 else "+", body))
    sign0, body0 = pieces[0]
    text = ("-" if sign0 == "-" else "") + body0
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def parse_coeff(text: str) -> Coeff:
    p = parse_poly(text)
    out = {}
    for (m, e, a), c in p.terms.items():
        if m:
            raise PolySyntaxError("expected a scalar (no variables)")
        out[(e, a)] = c
    return Coeff(out)


def parse_linear_form(text: str) -> LinearForm:
    return LinearForm.from_poly(parse_poly(text))


def format_coeff(c: Coeff) -> str:
    return format_poly(c.to_poly())
