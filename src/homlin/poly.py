"""Exact sparse multivariate polynomial arithmetic over Q[eps, eps^-1][alpha].

Coefficients live in the ring of Laurent polynomials in a degeneration
parameter ``eps`` (integer exponents, possibly negative) further extended by a
formal scalar ``alpha`` (nonnegative exponents), with rational constants.
Variables are named by strings (``x1``, ``x1_2_3``, ...) and are totally
ordered by a natural sort of their numeric components.

Representation:

  Rational    = int | Fraction     (integral values are always int)
  Coeff       = {(epsExp, alphaExp): Rational}      (no zero entries)
  Monomial    = tuple of (varName, positiveExp) pairs, sorted canonically
  Polynomial  = {(Monomial, epsExp, alphaExp): Rational}   (flat, no zeros)

A linear form (an input leaf's form, a projection slot) is a ``Polynomial``
whose monomials all have the form ``((varName, 1),)``, plus, in a leaf's form,
the empty monomial of its constant.
The one eps/alpha ring map is ``matrixword._map_terms``, with which the
continuant compilers map their word slots term by term.

The public constructors ``Coeff(...)`` and ``Polynomial(...)`` accept any
rational values and normalise them.  Every internal result is wrapped by the
trusted constructors ``Coeff._normalised`` and ``Polynomial._normalised``,
which take a term dict as it is: its values must already be nonzero, with
integral ones as ``int``.  Integer arithmetic is native, so the common
integral coefficients never pay for ``Fraction`` normalisation.

The zero polynomial is the empty mapping.  All values are immutable after
construction and every operation is a pure function.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Mapping, Tuple, Union

Mono = Tuple[Tuple[str, int], ...]
Rat = Union[int, Fraction]


class LimitDiverges(Exception):
    """An eps -> 0 limit was requested but a negative eps power survives."""


class PrimeTooSmall(ValueError):
    """Modular evaluation prime is too small for a Schwartz-Zippel guarantee."""


class DenominatorDivisibleByPrime(ValueError):
    """A coefficient has no image mod the evaluation prime: the prime divides
    its denominator."""


_VAR_CHUNKS = re.compile(r"(\d+)")
_VAR_KEYS: Dict[str, tuple] = {}


def _var_key(name: str):
    """Natural-sort key so x2 < x10 and x1_2 < x1_10, computed once per name.

    The name itself breaks ties, so names that differ only in leading zeros
    (x01, x1) are still ordered and every monomial has one canonical form."""
    key = _VAR_KEYS.get(name)
    if key is None:
        chunks = tuple(int(c) if c.isdigit() else c for c in _VAR_CHUNKS.split(name))
        key = _VAR_KEYS[name] = (chunks, name)
    return key


def _mono_mul(a: Mono, b: Mono) -> Mono:
    """The product of two canonical monomials: a merge of their sorted
    variable lists."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        if x[0] == y[0]:
            out.append((x[0], x[1] + y[1]))
            i += 1
            j += 1
        elif _var_key(x[0]) < _var_key(y[0]):
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    return (*out, *a[i:], *b[j:])


def _mono_deg(m: Mono) -> int:
    return sum(e for _, e in m)


def _rat(c) -> Rat:
    """``c`` as an exact rational: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _clean(terms: dict) -> dict:
    """The nonzero entries of a summed term dict, integral values as int."""
    return {
        k: c if type(c) is int or c.denominator != 1 else c.numerator
        for k, c in terms.items()
        if c
    }


def _add_terms(x: dict, y: dict) -> dict:
    """The term-wise sum of two normalised term dicts, normalised."""
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + c
    return _clean(out)


_UNIT = {(0, 0): 1}  # the term dict of the scalar 1


class Coeff:
    """An element of Q[eps, eps^-1][alpha]; the scalar ring of this artifact."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Tuple[int, int], Rat] | None = None):
        clean: Dict[Tuple[int, int], Rat] = {}
        if terms:
            for (e, a), c in terms.items():
                if a < 0:
                    raise ValueError("alpha exponent must be nonnegative")
                c = _rat(c)
                if c:
                    clean[(e, a)] = c
        self.terms = clean

    @staticmethod
    def _normalised(terms: Dict[Tuple[int, int], Rat]) -> "Coeff":
        """Wrap a term dict that already holds only nonzero normalised values."""
        c = object.__new__(Coeff)
        c.terms = terms
        return c

    @staticmethod
    def from_rational(c: Rat) -> "Coeff":
        c = _rat(c)
        return Coeff._normalised({(0, 0): c} if c else {})

    @staticmethod
    def of(x: Union["Coeff", Rat]) -> "Coeff":
        """``x`` itself if it is a Coeff, else the constant rational ``x``."""
        return x if isinstance(x, Coeff) else Coeff.from_rational(x)

    @staticmethod
    def eps(k: int = 1) -> "Coeff":
        return Coeff._normalised({(k, 0): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == _UNIT

    def __add__(self, other: "Coeff") -> "Coeff":
        return Coeff._normalised(_add_terms(self.terms, other.terms))

    def __neg__(self) -> "Coeff":
        return Coeff._normalised({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self + (-other)

    def __mul__(self, other: Union["Coeff", Rat]) -> "Coeff":
        other = Coeff.of(other)
        # values are immutable, so a unit or zero factor returns an operand
        if not self.terms or not other.terms:
            return COEFF_ZERO
        if other.terms == _UNIT:
            return self
        if self.terms == _UNIT:
            return other
        out: Dict[Tuple[int, int], Rat] = {}
        get = out.get
        for (e1, a1), c1 in self.terms.items():
            for (e2, a2), c2 in other.terms.items():
                k = (e1 + e2, a1 + a2)
                out[k] = get(k, 0) + c1 * c2
        return Coeff._normalised(_clean(out))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Coeff.from_rational(other)
        return isinstance(other, Coeff) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def to_poly(self) -> "Polynomial":
        return Polynomial._normalised({((), e, a): c for (e, a), c in self.terms.items()})

    def __repr__(self):
        return f"Coeff({self.terms!r})"


COEFF_ZERO = Coeff()
COEFF_ONE = Coeff.from_rational(1)


class Polynomial:
    """Exact sparse multivariate polynomial with Coeff-valued coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Tuple[Mono, int, int], Rat] | None = None):
        clean: Dict[Tuple[Mono, int, int], Rat] = {}
        if terms:
            for key, c in terms.items():
                c = _rat(c)
                if c:
                    clean[key] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------
    @staticmethod
    def _normalised(terms: Dict[Tuple[Mono, int, int], Rat]) -> "Polynomial":
        """Wrap a term dict that already holds only nonzero normalised values."""
        p = object.__new__(Polynomial)
        p.terms = terms
        return p

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial._normalised({})

    @staticmethod
    def const(c: Union[Rat, Coeff]) -> "Polynomial":
        if isinstance(c, Coeff):
            return c.to_poly()
        c = _rat(c)
        return Polynomial._normalised({((), 0, 0): c} if c else {})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial._normalised({(((name, 1),), 0, 0): 1})

    @staticmethod
    def eps(k: int = 1) -> "Polynomial":
        return Polynomial._normalised({((), k, 0): 1})

    # -- ring operations ---------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not other.terms:
            return self
        if not self.terms:
            return other
        return Polynomial._normalised(_add_terms(self.terms, other.terms))

    def __neg__(self) -> "Polynomial":
        return Polynomial._normalised({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", Coeff, Rat]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.const(other)
        out: Dict[Tuple[Mono, int, int], Rat] = {}
        get = out.get
        for (m1, e1, a1), c1 in self.terms.items():
            for (m2, e2, a2), c2 in other.terms.items():
                key = (_mono_mul(m1, m2), e1 + e2, a1 + a2)
                out[key] = get(key, 0) + c1 * c2
        return Polynomial._normalised(_clean(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.const(1)
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c: Union[Coeff, Rat]) -> "Polynomial":
        c = Coeff.of(c)
        if len(c.terms) != 1:
            return self * c
        # one term v * eps^e * alpha^a moves each key on its own, so no two
        # products meet at one key; values are immutable, so a unit scalar
        # returns the operand
        ((e, a), v), = c.terms.items()
        if v == 1 and not e and not a:
            return self
        return Polynomial._normalised(_clean(
            {(m, e1 + e, a1 + a): c1 * v for (m, e1, a1), c1 in self.terms.items()}))

    def scale_vars(self, c: Rat) -> "Polynomial":
        """``p(c*x)``: each term of x-degree k times c^k; eps and alpha are
        left alone.  ``p`` itself when c == 1."""
        if c == 1:
            return self
        out = {key: v * c ** _mono_deg(key[0]) for key, v in self.terms.items()}
        return Polynomial._normalised(_clean(out))

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
        return Coeff._normalised(
            {(e, a): c for (m2, e, a), c in self.terms.items() if m2 == m}
        )

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
        return Polynomial._normalised(
            {k: c for k, c in self.terms.items() if _mono_deg(k[0]) == d}
        )

    def homog_degrees(self) -> list:
        return sorted({_mono_deg(m) for (m, _, _) in self.terms})

    def partial_derivative(self, v: str) -> "Polynomial":
        out: Dict[Tuple[Mono, int, int], Rat] = {}
        for (m, e, a), c in self.terms.items():
            for i, (w, x) in enumerate(m):
                if w == v:
                    # Lowering one exponent keeps the variable order.
                    rest = m[i + 1:] if x == 1 else ((v, x - 1),) + m[i + 1:]
                    out[(m[:i] + rest, e, a)] = c * x
                    break
        return Polynomial._normalised(_clean(out))

    def substitute(self, sigma: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for variables.

        Unmapped variables substitute to themselves.
        """
        out = Polynomial.zero()
        cache: Dict[Tuple[str, int], Polynomial] = {}
        for (m, e, a), c in self.terms.items():
            term = Polynomial._normalised({((), e, a): c})
            for v, exp in m:
                if v in sigma:
                    key = (v, exp)
                    if key not in cache:
                        cache[key] = sigma[v] ** exp
                    term = term * cache[key]
                else:
                    term = term * Polynomial._normalised({(((v, exp),), 0, 0): 1})
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
        return Polynomial._normalised(out)

    def eval_random(self, point: Mapping[str, Rat], prime: int) -> Dict[int, int]:
        """Evaluate x-variables mod ``prime``, leaving eps symbolic.

        Returns {epsExp: residue mod prime}, zero residues dropped.  alpha
        must have been substituted away beforehand.
        """
        if prime <= max(self.degree(), 0):
            raise PrimeTooSmall(f"prime {prime} <= degree {self.degree()}")
        out: Dict[int, int] = {}
        for (m, e, a), c in self.terms.items():
            if a != 0:
                raise ValueError("alpha must be substituted before evaluation")
            if c.denominator % prime == 0:
                raise DenominatorDivisibleByPrime(
                    f"coefficient {c} has no value mod {prime}: "
                    f"{prime} divides its denominator"
                )
            val = c.numerator * pow(c.denominator, -1, prime) % prime
            for v, exp in m:
                val = val * pow(int(point[v]) % prime, exp, prime) % prime
            out[e] = (out.get(e, 0) + val) % prime
        return {e: v for e, v in out.items() if v != 0}

    def __repr__(self):
        return f"Polynomial<{format_poly(self)}>"


class KeyLayout:
    """Packed term keys (Johnson, "Sparse polynomial arithmetic", 1974;
    Monagan and Pearce's POLY, 2012): x^m * eps^e * alpha^a is the integer
    (e << shift) + (a << alpha_shift) + sum_v (m_v << off_v), the variables
    in ``_var_key`` order from bit 0 up, alpha above them and the signed eps
    exponent on top.  Each field is just wide enough for its bound (a
    variable's in ``bounds``, given in ``_var_key`` order, and alpha's in
    ``alpha``).  While no exponent
    passes its bound no field carries: the key of a product of terms is the
    sum of their keys, and e < K exactly when key < K << shift."""

    __slots__ = ("fields", "offset", "alpha_shift", "shift")

    def __init__(self, bounds: Mapping[str, int], alpha: int):
        self.fields, off = [], 0
        for v, bound in bounds.items():
            width = bound.bit_length()
            self.fields.append((v, off, (1 << width) - 1))
            off += width
        self.offset = {v: o for v, o, _mask in self.fields}
        self.alpha_shift, self.shift = off, off + alpha.bit_length()

    def pack(self, p: Polynomial, scale: int = 1) -> Dict[int, Rat]:
        """The terms of p(scale*x) by key; ``scale`` must make every
        non-constant coefficient integral or be 1."""
        shift, alpha_shift, offset = self.shift, self.alpha_shift, self.offset
        out = {}
        for (mono, e, a), c in p.terms.items():
            k = (e << shift) + (a << alpha_shift)
            deg = 0
            for v, x in mono:
                k += x << offset[v]
                deg += x
            if deg and scale != 1:
                m = scale ** deg
                c = c * m if type(c) is int else c.numerator * (m // c.denominator)
            out[k] = c
        return out

    def unpack(self, terms: Mapping[int, Rat]) -> Polynomial:
        """The polynomial of packed terms; zero coefficients are dropped."""
        shift, alpha_shift, fields = self.shift, self.alpha_shift, self.fields
        out = {}
        for k, c in terms.items():
            e = k >> shift
            low = k - (e << shift)
            mono = []
            for v, off, mask in fields:
                if x := (low >> off) & mask:
                    mono.append((v, x))
            out[(tuple(mono), e, low >> alpha_shift)] = c
        return Polynomial._normalised(_clean(out))


# ---------------------------------------------------------------------------
# Text syntax: terms joined by +/-; each term `c * x3^2 * eps^-1 * alpha^2`
# with `c` a rational literal p/q.  Whitespace insignificant.
#
# One compiled pattern splits the whole text into tokens in a single C-level
# scan; its last alternative takes any other non-space character, so no
# character is skipped and a stray one still reaches the parser, which
# reports its offset.  Terms are built straight from the token list.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+(?:/\d+)?|[A-Za-z_][A-Za-z_0-9]*|\S)")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_OPS = frozenset("^*+()-")


class PolySyntaxError(ValueError):
    pass


def parse_rational(text: str) -> Fraction:
    """A rational literal (``3``, ``-1/2``, ...); a zero denominator or any
    other malformed text is a PolySyntaxError."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PolySyntaxError(f"bad rational {text!r}") from None


def _literal(tok: str) -> Rat:
    """The value of a rational token ``p/q``, normalised."""
    p, q = tok.split("/")
    if int(q) == 0:
        raise PolySyntaxError(f"zero denominator in {tok!r}")
    return _rat(Fraction(int(p), int(q)))


def _unexpected(text: str, toks: list, i: int, what: str) -> PolySyntaxError:
    """The error for token ``i``: a stray character is named with its offset
    (found by a second scan, on this error path only)."""
    tok = toks[i]
    if tok[0] in _NAME_START or tok[0].isdecimal() or tok in _OPS:
        return PolySyntaxError(f"{what} {tok!r}")
    offset = list(_TOKEN.finditer(text))[i].start(1)
    return PolySyntaxError(f"bad character at offset {offset}: {tok!r}")


def parse_poly(text: str) -> Polynomial:
    toks = _TOKEN.findall(text)
    n = len(toks)
    out: Dict[Tuple[Mono, int, int], Rat] = {}
    get = out.get
    i = 0
    while i < n:
        # the signs in front of a term
        c: Rat = 1
        tok = toks[i]
        while tok == "+" or tok == "-":
            if tok == "-":
                c = -c
            i += 1
            if i == n:
                raise PolySyntaxError("dangling sign at end of input")
            tok = toks[i]
        # one term: factors joined by '*'.  Most terms have at most one
        # variable, held in var/xv; a dict is made only for a second one.
        var = None
        xv = e = a = 0
        exps = None
        while True:
            i += 1
            if tok[0] in _NAME_START:
                x = 1
                if i < n and toks[i] == "^":
                    neg = i + 1 < n and toks[i + 1] == "-"
                    i += 2 if neg else 1
                    if i == n or not toks[i][0].isdecimal() or "/" in toks[i]:
                        raise PolySyntaxError("expected integer exponent after '^'")
                    x = -int(toks[i]) if neg else int(toks[i])
                    i += 1
                if tok == "eps":
                    e += x
                elif tok == "alpha":
                    if x < 0:
                        raise PolySyntaxError("alpha exponent must be nonnegative")
                    a += x
                elif x < 0:
                    raise PolySyntaxError("variable exponent must be positive")
                elif var is None:
                    var, xv = tok, x
                else:
                    if exps is None:
                        exps = {var: xv}
                    exps[tok] = exps.get(tok, 0) + x
            elif tok[0].isdecimal():
                c *= int(tok) if "/" not in tok else _literal(tok)
            else:
                raise _unexpected(text, toks, i - 1, "unexpected token")
            if i == n or toks[i] != "*":
                break
            i += 1
            if i == n:
                raise PolySyntaxError("expected a factor")
            tok = toks[i]
        if exps is not None:
            mono: Mono = tuple(sorted(((v, x) for v, x in exps.items() if x),
                                      key=lambda t: _var_key(t[0])))
        else:
            mono = ((var, xv),) if xv else ()
        key = (mono, e, a)
        out[key] = get(key, 0) + c
        if i < n and toks[i] != "+" and toks[i] != "-":
            raise _unexpected(text, toks, i, "expected '+' or '-' between terms, got")
    return Polynomial._normalised(_clean(out))


def format_mono(m: Mono) -> str:
    if not m:
        return "1"
    return " * ".join(v if e == 1 else f"{v}^{e}" for v, e in m)


def _term_order(terms) -> list:
    """The (key, value) items of a term dict in print order: by x-degree,
    then by monomial (variables in natural order, then exponents), then by
    eps and alpha exponents.  Each variable's sort key is looked up once,
    as its rank among the variables present."""
    items = list(terms.items())
    if len(items) < 2:
        return items
    names = {v for (m, _, _) in terms for v, _ in m}
    rank = {v: r for r, v in enumerate(sorted(names, key=_var_key))}

    def key(item):
        m, e, a = item[0]
        if not m:
            return 0, (), e, a
        if len(m) == 1:
            (v, x), = m
            return x, (rank[v], x), e, a
        flat = []
        for v, x in m:
            flat += (rank[v], x)
        return sum(flat[1::2]), tuple(flat), e, a

    items.sort(key=key)
    return items


def format_poly(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    pieces = []
    for (m, e, a), c in _term_order(p.terms):
        if m:
            body = format_mono(m)
            if e:
                body += f" * eps^{e}" if e != 1 else " * eps"
        elif e:
            body = f"eps^{e}" if e != 1 else "eps"
        else:
            body = ""
        if a:
            alpha = f"alpha^{a}" if a != 1 else "alpha"
            body = f"{body} * {alpha}" if body else alpha
        if c < 0:
            c = -c
            sign = " - "
        else:
            sign = " + "
        if not body:
            body = str(c)
        elif c != 1:
            body = f"{c} * {body}"
        pieces.append(sign)
        pieces.append(body)
    pieces[0] = "" if pieces[0] == " + " else "-"
    return "".join(pieces)


def parse_coeff(text: str) -> Coeff:
    p = parse_poly(text)
    out = {}
    for (m, e, a), c in p.terms.items():
        if m:
            raise PolySyntaxError("expected a scalar (no variables)")
        out[(e, a)] = c
    return Coeff._normalised(out)


def format_coeff(c: Coeff) -> str:
    return format_poly(c.to_poly())
