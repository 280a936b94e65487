"""Generators for the reference graded polynomial families.

These are the independent oracles the compilations are verified against.
Variable naming schemes (stable, used by projections and golden files):

  P        x1 .. xn
  Q        xi_j            (i-th summand, j-th position, 1-based)
  C        x1 .. xn
  IMM      xi_j_k          (row i, column j, factor k; boundary factors are
                            the 1 x n row (k=1) and the n x 1 column (k=d))
  nceGeneric / nceL
           xa_b_i          (entry (a,b) of the i-th factor; nceL omits a=b)
  E        xi_r_c          (off-diagonal entry (r,c) of the i-th factor)

Elementary-symmetric-type families with d > n are zero (empty index set);
nceL, nceGeneric and C return 1 at degree 0 (empty-product convention).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Union

from .poly import Coeff, Polynomial, dot

FAMILY_TAGS = ("IMM", "nceGeneric", "nceL", "Ccomb", "Cmatrix", "C", "E", "P", "Q")


class InvalidParameters(ValueError):
    pass


Matrix = List[List[Polynomial]]


# ---------------------------------------------------------------------------
# matrix-product engine
# ---------------------------------------------------------------------------
#
# Every border value is  scalar * L(M)  for a matrix product M: a word of
# id + A_i factors, or the elementary symmetric sum of a factor list.  Its
# eps-limit reads only the terms below eps^1, so the engine computes M mod
# eps^K.  A term of a partial product reaches the end only through the
# factors still to come, whose entries have bounded-below eps exponents, so a
# term whose exponent plus the cheapest completion is K or more is dropped as
# soon as it would be formed; every term kept is exact (Bini 1980's
# exact-from-approximate argument).  With ``below=None`` nothing is dropped:
# that exact route is the oracle the truncated one is tested against.


def zeros(k: int) -> Matrix:
    return [[Polynomial.zero() for _ in range(k)] for _ in range(k)]


def identity(k: int) -> Matrix:
    m = zeros(k)
    for i in range(k):
        m[i][i] = Polynomial.const(1)
    return m


def mat_mul(
    a: Matrix, b: Matrix, below: Optional[float] = None, acc: Optional[Matrix] = None
) -> Matrix:
    """``acc + a * b`` (``acc`` defaults to zero), exact mod eps^below.

    Product terms at eps^below or above are never formed; an entry of
    ``acc`` that no product reaches is passed on as it is."""
    k = len(a)
    out = zeros(k) if acc is None else [row[:] for row in acc]
    for j in range(k):
        col = [(t, b[t][j]) for t in range(k) if b[t][j].terms]
        if not col:
            continue
        for i in range(k):
            out[i][j] = dot(
                ((a[i][t], x) for t, x in col),
                below,
                acc[i][j] if acc is not None else None,
            )
    return out


def _mod_eps(m: Matrix, below: Optional[int]) -> Matrix:
    if below is None:
        return m
    return [[p.mod_eps(below) for p in row] for row in m]


def _min_eps(m: Matrix) -> float:
    """The smallest eps exponent among the entries of m; inf if m is zero."""
    return min(
        (e for row in m for p in row for (_mono, e, _a) in p.terms), default=math.inf
    )


def word_product(factors: Sequence[Matrix], dim: int, below: Optional[int] = None) -> Matrix:
    """The product of the ``id + A`` factors, exact mod eps^below.

    With m_j the smallest eps exponent among the entries of factor j, a term
    of the prefix ending at factor i is kept only if its exponent plus the
    sum over j > i of min(0, m_j) stays below ``below``."""
    lows = [min(0, _min_eps(a)) for a in factors]
    rest = sum(lows)
    acc = identity(dim)
    for a, low in zip(factors, lows):
        rest -= low
        acc = mat_mul(acc, a, None if below is None else below - rest, acc)
    return _mod_eps(acc, below)


def _cheapest_completions(lows: Sequence[float], d: int) -> List[List[float]]:
    """out[i][n]: the smallest sum of n of the exponents lows[i:], for
    n <= d; inf when fewer than n are left."""
    out = [[0] + [math.inf] * d]
    best: List[float] = []
    for low in reversed(lows):
        bisect.insort(best, low)
        del best[d:]
        out.append([0, *accumulate(best)] + [math.inf] * (d - len(best)))
    out.reverse()
    return out


def nce_matrices(factors: Sequence[Matrix], d: int, below: Optional[int] = None) -> Matrix:
    """Noncommutative elementary symmetric polynomial of matrix arguments,
    exact mod eps^below.

    Sum over increasing index sequences I_1 < ... < I_d of X_{I_1} ... X_{I_d},
    computed by one left-to-right dynamic-programming sweep.  ``dp[t]`` still
    needs d - t of the later factors, so its terms are kept only if their
    exponent plus the smallest sum of d - t later entry exponents stays below
    ``below``; it is cleared when fewer than d - t factors remain.
    """
    if d < 0:
        raise InvalidParameters("degree must be nonnegative")
    if not factors:
        k = 1
    else:
        k = len(factors[0])
    completions = _cheapest_completions([_min_eps(x) for x in factors], d)
    dp: List[Matrix] = [identity(k)] + [zeros(k) for _ in range(d)]
    for i, X in enumerate(factors):
        for t in range(min(d, i + 1), 0, -1):
            bound = None if below is None else below - completions[i + 1][d - t]
            if bound == -math.inf:
                dp[t] = zeros(k)
            else:
                dp[t] = mat_mul(dp[t - 1], X, bound, dp[t])
    return _mod_eps(dp[d], below)


def border_functional(
    product: Callable[[Optional[int]], Matrix],
    weights: LWeights,
    scalar: Coeff,
    below: Optional[int] = None,
) -> Polynomial:
    """``scalar * L(M)`` mod eps^below, where ``product(k)`` returns M exact
    mod eps^k.

    L and the scalar lower an exponent by at most the smallest exponent of a
    nonzero weight and of the scalar, so M is asked for to that much higher
    order."""
    weights = [[Coeff.of(w) for w in row] for row in weights]
    w_low = min((e for row in weights for w in row for (e, _a) in w.terms), default=None)
    if scalar.is_zero() or w_low is None:
        return Polynomial.zero()
    if below is None:
        return apply_L(product(None), weights).scale(scalar)
    s_low = min(e for (e, _a) in scalar.terms)
    value = apply_L(product(below - s_low - w_low), weights).scale(scalar)
    return value.mod_eps(below)


def _var(*idx: int) -> Polynomial:
    return Polynomial.variable("x" + "_".join(str(i) for i in idx))


def gen_P(n: int, d: int) -> Polynomial:
    _check(n, d)
    out = Polynomial.zero()
    for i in range(1, n + 1):
        out = out + _var(i) ** d
    return out


def gen_Q(n: int, d: int) -> Polynomial:
    _check(n, d)
    out = Polynomial.zero()
    for i in range(1, n + 1):
        term = Polynomial.const(1)
        for j in range(1, d + 1):
            term = term * _var(i, j)
        out = out + term
    return out


def gen_IMM(n: int, d: int) -> Polynomial:
    _check(n, d)
    if d < 2:
        raise InvalidParameters("IMM needs degree >= 2 (row times column)")
    # row vector (k=1), square factors (k=2..d-1), column vector (k=d)
    row = [_var(1, j, 1) for j in range(1, n + 1)]
    for k in range(2, d):
        new = [Polynomial.zero() for _ in range(n)]
        for j in range(n):
            acc = Polynomial.zero()
            for i in range(n):
                acc = acc + row[i] * _var(i + 1, j + 1, k)
            new[j] = acc
        row = new
    out = Polynomial.zero()
    for i in range(n):
        out = out + row[i] * _var(i + 1, 1, d)
    return out


def gen_C_comb(n: int, d: int) -> Polynomial:
    """Parity-alternating elementary symmetric polynomial, by enumeration.

    Sum of x_{i_1} ... x_{i_d} over increasing sequences with i_j == j (mod 2).
    """
    _check(n, d)
    if d == 0:
        return Polynomial.const(1)
    out = Polynomial.zero()

    def extend(prefix: List[int], j: int):
        nonlocal out
        if j > d:
            term = Polynomial.const(1)
            for i in prefix:
                term = term * _var(i)
            out = out + term
            return
        start = prefix[-1] + 1 if prefix else 1
        for i in range(start, n + 1):
            if i % 2 == j % 2:
                extend(prefix + [i], j + 1)

    extend([], 1)
    return out


def parity_factor(i: int, p: Polynomial) -> Matrix:
    """The 2x2 factor at (1-based) slot i of a parity-alternating word: p in
    the upper-triangular position for odd i, the lower one for even i."""
    m = zeros(2)
    if i % 2 == 1:
        m[0][1] = p
    else:
        m[1][0] = p
    return m


def gen_C_matrix(n: int, d: int) -> Polynomial:
    """The same family through its 2x2 matrix-word definition: the word of
    parity-shaped factors fed to the noncommutative elementary symmetric
    polynomial; the value is the sum of the two top entries."""
    _check(n, d)
    if d == 0:
        return Polynomial.const(1)
    A = nce_matrices([parity_factor(i, _var(i)) for i in range(1, n + 1)], d)
    return A[0][0] + A[0][1]


def gen_nce_generic(n: int, d: int) -> Polynomial:
    """Sum of all 9 entries of the elementary symmetric polynomial in n
    generic 3x3 matrices (9 fresh variables each)."""
    _check(n, d)
    if d == 0:
        return Polynomial.const(1)
    factors = [
        [[_var(a, b, i) for b in range(1, 4)] for a in range(1, 4)]
        for i in range(1, n + 1)
    ]
    A = nce_matrices(factors, d)
    out = Polynomial.zero()
    for r in range(3):
        for c in range(3):
            out = out + A[r][c]
    return out


LWeights = Sequence[Sequence[Union[Coeff, int, Fraction]]]


def L_sum() -> LWeights:
    return [[1] * 3 for _ in range(3)]


def L_trace(dim: int = 3) -> LWeights:
    return [[1 if r == c else 0 for c in range(dim)] for r in range(dim)]


def L_entry(i: int, j: int, dim: int = 3) -> LWeights:
    return [[1 if (r, c) == (i - 1, j - 1) else 0 for c in range(dim)] for r in range(dim)]


# the (row, column) positions of a zero-diagonal 3x3 factor, in the order its
# entries are listed: the nceL variable slots and a projection's forms
OFF_DIAGONAL = tuple((a, b) for a in range(1, 4) for b in range(1, 4) if a != b)


def zero_diag_factor(entries: Sequence[Polynomial]) -> Matrix:
    """The 3x3 factor with zero diagonal and ``entries`` at OFF_DIAGONAL."""
    m = zeros(3)
    for (a, b), p in zip(OFF_DIAGONAL, entries, strict=True):
        m[a - 1][b - 1] = p
    return m


def apply_L(A: Matrix, weights: LWeights) -> Polynomial:
    """The linear functional sum_{r,c} weights[r][c] * A[r][c]."""
    out = Polynomial.zero()
    for r in range(len(A)):
        for c in range(len(A)):
            w = Coeff.of(weights[r][c])
            if w.is_one():
                out = out + A[r][c]
            elif not w.is_zero():
                out = out + A[r][c].scale(w)
    return out


def gen_nce_L(n: int, d: int, weights: LWeights | None = None) -> Polynomial:
    """L applied to the elementary symmetric polynomial in n zero-diagonal
    3x3 matrices of 6 fresh variables each; degree 0 is fixed to 1."""
    _check(n, d)
    if d == 0:
        return Polynomial.const(1)
    factors = [
        zero_diag_factor([_var(a, b, i) for a, b in OFF_DIAGONAL]) for i in range(1, n + 1)
    ]
    A = nce_matrices(factors, d)
    return apply_L(A, weights if weights is not None else L_sum())


def gen_E(n: int, d: int) -> Polynomial:
    """Homogeneous degree-d part of the sum of the entries of the product of
    n all-ones-diagonal 3x3 factors, minus the identity."""
    _check(n, d)
    prod = identity(3)
    for i in range(1, n + 1):
        factor = [
            [
                Polynomial.const(1) if r == c else _var(i, r + 1, c + 1)
                for c in range(3)
            ]
            for r in range(3)
        ]
        prod = mat_mul(prod, factor)
    total = Polynomial.zero()
    for r in range(3):
        for c in range(3):
            total = total + prod[r][c]
    total = total - Polynomial.const(3)  # subtract the identity's entry sum
    return total.homog_component(d)


@dataclass
class FamilySpec:
    tag: str
    n: int
    d: int
    weights: Optional[LWeights] = None

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise InvalidParameters(f"unknown family tag {self.tag!r}")


def _check(n: int, d: int):
    if n < 1 or d < 0:
        raise InvalidParameters(f"need n >= 1 and d >= 0, got n={n}, d={d}")


def gen_family(spec: FamilySpec) -> Polynomial:
    tag, n, d = spec.tag, spec.n, spec.d
    if tag == "P":
        return gen_P(n, d)
    if tag == "Q":
        return gen_Q(n, d)
    if tag == "IMM":
        return gen_IMM(n, d)
    if tag in ("C", "Ccomb"):
        return gen_C_comb(n, d)
    if tag == "Cmatrix":
        return gen_C_matrix(n, d)
    if tag == "nceGeneric":
        return gen_nce_generic(n, d)
    if tag == "nceL":
        return gen_nce_L(n, d, spec.weights)
    if tag == "E":
        return gen_E(n, d)
    raise InvalidParameters(tag)  # pragma: no cover


def varphi_combine(
    gen: Callable[[int, int], Polynomial],
    a: Callable[[int, int], Union[int, Fraction, Coeff]],
    m: Callable[[int], int],
    d: Callable[[int], int],
    n: int,
) -> Polynomial:
    """The associated ungraded family: sum over i <= d(n) of a(n,i) * gen(m(n), i)."""
    out = Polynomial.zero()
    for i in range(0, d(n) + 1):
        coeff = Coeff.of(a(n, i))
        if coeff.is_zero():
            continue
        out = out + gen(m(n), i).scale(coeff)
    return out
