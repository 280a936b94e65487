"""Generators for the reference graded polynomial families.

These are the independent oracles the compilations are verified against.
The matrix families (C, nceL, nceGeneric, E) are rows of one table,
``MATRIX_FAMILIES``: each row gives the matrix size, the slots of each
factor and their variable names, the default weights of the functional and
the value at degree 0.  ``gen`` fills the slots with the variables and a
projection with its linear forms, and ``family_value`` evaluates both.
Variable naming schemes (stable, used by projections and golden files):

  P        x1 .. xn
  Q        xi_j            (i-th summand, j-th position, 1-based)
  C        x1 .. xn
  IMM      xi_j_k          (row i, column j, factor k; boundary factors are
                            the 1 x n row (k=1) and the n x 1 column (k=d))
  nceGeneric / nceL
           xa_b_i          (entry (a,b) of the i-th factor; nceL omits a=b)
  E        xi_r_c          (off-diagonal entry (r,c) of the i-th factor)

Elementary-symmetric-type families with d > n are zero (empty index set).
At degree 0, nceL, nceGeneric and C (and Ccomb) are scalar * 1 (the
empty-product convention), E is 0.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from itertools import accumulate, cycle
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .poly import COEFF_ONE, Coeff, KeyLayout, Polynomial, Rat, _var_key

FAMILY_TAGS = ("IMM", "nceGeneric", "nceL", "Ccomb", "C", "E", "P", "Q")


class InvalidParameters(ValueError):
    pass


# A matrix factor: its nonzero entries, keyed by 0-based (row, column).
Factor = Dict[Tuple[int, int], Polynomial]
# A functional's weights, as a square matrix: L(M) = sum_{r,c} w[r][c] * M[r][c].
LWeights = Sequence[Sequence[Union[Coeff, int, Fraction]]]


# ---------------------------------------------------------------------------
# matrix-product engine
# ---------------------------------------------------------------------------
#
# Every border value is  scalar * L(M)  for a matrix product M and a
# ``Functional`` L: M - id for a word of id + A_i factors, or the elementary
# symmetric sum of a factor list.  Both are left-to-right products, so row r
# of M depends only on row r of each prefix: the engine carries only the rows
# L reads, each as a sparse row, and multiplies it by a factor's nonzero
# entries alone, grouped by column once per factor.  Its eps-limit reads only
# the terms below eps^1, so the engine computes M mod eps^K.  A term of a
# partial product reaches the end only through the factors still to come,
# whose entries have bounded-below eps exponents, so a term whose exponent
# plus the cheapest completion is K or more is dropped as soon as it would be
# formed; every term kept is exact (Bini 1980's exact-from-approximate
# argument).  A functional built with ``below=None`` drops nothing: that
# exact route is what the truncated one is tested against.
#
# The products run on integers.  x -> D*x is a ring automorphism of
# Q[eps, eps^-1][alpha][x], so M(D*x) is the same product of the factors
# A_i(D*x); with D the lcm of the denominators of the entries' non-constant
# coefficients, every such coefficient of A_i(D*x) is an integer.  The engine
# multiplies those and maps the result back once, at the end, by x -> x/D.
# The map leaves eps and alpha exponents alone, so the truncation bounds are
# the same in both coordinates.  (The aim of fraction-free elimination,
# Bareiss 1968: keep the arithmetic on integers.)
#
# Each term is one integer key (``KeyLayout``), each exponent field wide
# enough for any product term, the functional's weights and scalar included
# (``_Packing``): a product's key is the sum of its factors' keys, and the
# truncation below eps^K is one integer comparison.  Packing (``_Packing``)
# and the one unpacking of the result by the functional are the one seam
# between Polynomial terms and the keys the sweeps work on.  Packing works
# once per distinct factor object, which the 3x3 compilers share between the
# positions of their commutator gadgets; the sweeps still step through every
# position, reading its distinct factor's record through a position index.
# The functional applies the weights and the scalar and truncates
# on the packed rows, and unpacks the one polynomial they sum to.
#
# Partial products are accumulated in place, into dicts that belong to one
# state alone.  A state's bound only tightens as the sweep goes on, and the
# state is pruned to the new bound exactly when it does, so later steps do
# not visit terms that can no longer reach the output.  A pruned term lies
# at or above K minus the cheapest exponent sum still to come, so every term
# it could lead to lies at or above K and would be dropped at the end anyway.

# A packed polynomial: key -> coefficient, with no zero coefficients.
Terms = Dict[int, Rat]
# A packed factor entry: its (key, coefficient) pairs, sorted by key.
Entry = List[Tuple[int, Rat]]
# A factor's packed entries in one column j: (j, [(t, a[t, j]), ...]).
PackedColumn = Tuple[int, List[Tuple[int, Entry]]]
# A sparse row of packed entries: column -> its terms.
PackedRow = Dict[int, Terms]


def _top_sum(maxima: Dict[int, int], held: Sequence[int], count: int) -> int:
    """The sum of the ``count`` largest per-position maxima of one exponent,
    given per distinct factor k as its maximum ``maxima[k]`` (0 when absent)
    held at ``held[k]`` positions; of all of them when fewer are held."""
    at: Dict[int, int] = {}  # each maximum, with the positions that hold it
    for k, x in maxima.items():
        at[x] = at.get(x, 0) + held[k]
    total = 0
    for x in sorted(at, reverse=True):
        if count <= at[x]:
            return total + count * x
        total += at[x] * x
        count -= at[x]
    return total


class _Packing:
    """A factor list packed for the engine, once per distinct factor object.
    ``records[index[i]]`` is position i's record ``(low, columns, both)``:
    its smallest eps exponent (inf for a zero factor), its nonzero entries
    grouped by column as sorted (key, coefficient) lists under x -> D*x,
    and the rows it reads that it also writes.  ``scale`` is D, the lcm of
    the denominators of the entries' non-constant coefficients.

    The key layout serves products of at most ``count`` terms, each from a
    different position, times one term of a functional's scalar and weight,
    which adds at most ``alpha`` to the alpha exponent.  So a product's
    exponent of a variable (or of alpha) is at most the sum of the ``count``
    largest per-position maxima of that exponent (plus ``alpha``), and its
    field is sized for that bound.  A distinct factor counts once per
    position that holds it."""

    def __init__(self, factors: Sequence[Factor], count: int, alpha: int = 0):
        # each distinct factor, keyed by identity, is scanned and packed
        # once; ``factors`` keeps them all alive, so no id is reused
        # meanwhile.  ``index[i]`` is position i's distinct factor, and
        # ``held[k]`` counts the positions that hold distinct factor k.
        n = len(factors)
        if len({id(f) for f in factors}) == n:  # nothing is shared
            distinct, held, self.index = factors, [1] * n, range(n)
        else:
            slots: Dict[int, int] = {}
            distinct, held, self.index = [], [], []
            for f in factors:
                k = slots.get(id(f))
                if k is None:
                    k = slots[id(f)] = len(distinct)
                    distinct.append(f)
                    held.append(1)
                else:
                    held[k] += 1
                self.index.append(k)
        # one scan of every term, read from the factor dicts: per field, the
        # largest exponent in each distinct factor; per factor, the smallest
        # and largest eps exponent
        tops: Dict[str, Dict[int, int]] = {}
        a_tops: Dict[int, int] = {}
        spans: List[Tuple[float, int]] = []
        dens = set()
        for k, f in enumerate(distinct):
            e_most, low, a_most = 0, math.inf, 0
            for p in f.values():
                for (mono, e, a), c in p.terms.items():
                    if e < low:
                        low = e
                    if e > e_most:
                        e_most = e
                    if a > a_most:
                        a_most = a
                    if mono and type(c) is not int:
                        dens.add(c.denominator)
                    for v, x in mono:
                        top = tops.get(v)
                        if top is None:
                            tops[v] = {k: x}
                        elif x > top.get(k, 0):
                            top[k] = x
            if a_most:
                a_tops[k] = a_most
            spans.append((low, e_most))
        self.scale = scale = math.lcm(*dens)
        self.layout = layout = KeyLayout(
            {v: _top_sum(tops[v], held, count) for v in sorted(tops, key=_var_key)},
            _top_sum(a_tops, held, count) + alpha)
        self.records: List[Tuple[float, List[PackedColumn], Tuple[int, ...]]] = []
        for f, (low, _e_most) in zip(distinct, spans):
            if len(f) == 1:  # every trace3, offdiag3 and continuant factor
                ((t, j), p), = f.items()
                cols = [(j, [(t, sorted(layout.pack(p, scale).items()))])]
                both = (t,) if t == j else ()
            else:
                by_col: Dict[int, List[Tuple[int, Entry]]] = {}
                for t, j in sorted(f):
                    entry = sorted(layout.pack(f[t, j], scale).items())
                    by_col.setdefault(j, []).append((t, entry))
                cols = sorted(by_col.items())
                both = tuple({t for t, _j in f}.intersection(by_col))
            self.records.append((low, cols, both))
        # a product term's eps exponent is at most the sum of the positions'
        # largest positive ones, so no key reaches this one
        highs = sum(e_most * n for (_low, e_most), n in zip(spans, held))
        self.ceiling = (highs + 1) << layout.shift

    def top(self, below: Optional[int]) -> int:
        """The key bound of eps^below; the ceiling when ``below`` is None."""
        return self.ceiling if below is None else below << self.layout.shift

    def polynomial(self, terms: Terms) -> Polynomial:
        """Packed terms as a Polynomial, mapped back by x -> x/D."""
        p = self.layout.unpack(terms)
        return p if self.scale == 1 else p.scale_vars(Fraction(1, self.scale))


def _add_row_times(out: PackedRow, row: PackedRow, cols: Sequence[PackedColumn], top: int):
    """``out += row * a`` in place, for the factor ``a`` given by its packed
    columns; only product keys below ``top`` are formed.

    Only pairs of nonzero entries are multiplied, and each factor entry is
    sorted, so the scan of its terms stops at the first key at or above
    ``top - k1``."""
    for j, col in cols:
        for t, b in col:
            a = row.get(t)
            if not a:
                continue
            acc = out.setdefault(j, {})
            get = acc.get
            for k1, c1 in a.items():
                lim = top - k1
                for k2, c2 in b:
                    if k2 >= lim:
                        break
                    k = k1 + k2
                    if c := get(k, 0) + c1 * c2:
                        acc[k] = c
                    else:
                        del acc[k]


def _prune(row: PackedRow, top: int):
    """Drop a row's terms at or above ``top``, in place; an entry left
    empty is removed."""
    for j, terms in list(row.items()):
        kept = {k: c for k, c in terms.items() if k < top}
        if kept:
            row[j] = kept
        else:
            del row[j]


def _identity_rows(rows: Iterable[int]) -> Dict[int, PackedRow]:
    """The given rows of the identity, packed; no dict is shared."""
    return {r: {r: {0: 1}} for r in rows}


class Functional:
    """``scalar * L`` mod eps^below (in full when ``below`` is None), for the
    functional L of the given weights, read off the engine's packed rows of
    a product: ``word_product`` hands it M - id, ``nce_matrices`` their sum.

    ``weights`` holds the nonzero weights times the scalar, as (c, w[r][c])
    pairs per row r, so the engine carries only those rows.  L and the
    scalar lower an eps exponent by at most the smallest exponent among
    them, so the engine computes M mod eps^``order``, that much higher than
    ``below``.  ``alpha`` is the most that a weight adds to an alpha
    exponent."""

    def __init__(self, weights: LWeights, scalar: Coeff, below: Optional[int] = None):
        self.weights: Dict[int, List[Tuple[int, Coeff]]] = {}
        for r, row in enumerate(weights):
            for c, w in enumerate(row):
                if (w := Coeff.of(w)).terms and (sw := scalar * w).terms:
                    self.weights.setdefault(r, []).append((c, sw))
        terms = [t for row in self.weights.values() for _c, w in row for t in w.terms]
        self.below = below
        self.order = None if below is None else below - min((e for e, _a in terms), default=0)
        self.alpha = max((a for _e, a in terms), default=0)

    def __call__(self, m: Dict[int, PackedRow], packing: _Packing) -> Polynomial:
        """The value on the rows ``m``: each read row is multiplied into one
        column by the weights, packed for the engine's layout, so a product
        key at or above eps^below is never formed; the sum is unpacked
        once."""
        pack = packing.layout.pack
        # not the product's ceiling: a weight can raise an eps exponent past it
        top = math.inf if self.below is None else packing.top(self.below)
        out: PackedRow = {}
        for r, row in self.weights.items():
            col = [(0, [(c, sorted(pack(w.to_poly()).items())) for c, w in row])]
            _add_row_times(out, m[r], col, top)
        return packing.polynomial(out.get(0, {}))


def word_product(factors: Sequence[Factor], read: Functional) -> Polynomial:
    """``read``'s value on M - id, for M the product of the ``id + A``
    factors.

    Only the rows ``read`` reads are carried, exact mod eps^K for K its
    ``order``.  With m_j the smallest eps exponent among the entries of
    factor j, a term of the prefix ending at factor i is kept only if its
    exponent plus the sum over j > i of min(0, m_j) stays below K."""
    below = read.order
    packing = _Packing(factors, len(factors), read.alpha)
    steps = [(min(0, low), c, both) for low, c, both in packing.records]
    rest = sum(steps[k][0] for k in packing.index)
    acc = _identity_rows(read.weights)
    for low, c, both in map(steps.__getitem__, packing.index):
        rest -= low
        top = packing.top(None if below is None else below - rest)
        # acc * (id + A) = acc + acc * A, row by row.  An entry this factor
        # both reads and writes is read from a copy taken before the step.
        # The terms carried over from acc were kept under the previous bound,
        # so they are pruned after the step when the bound has tightened.
        for row in acc.values():
            before = row
            if both:
                before = {**row, **{t: dict(row[t]) for t in both if t in row}}
            _add_row_times(row, before, c, top)
            if low and below is not None:
                _prune(row, top)
    # minus the identity: the constant key 0 at (r, r).  Where K <= 0 the
    # sweep may have dropped that term, but the functional then drops every
    # product of a key-0 term with a weight, which lies at or above eps^below
    for r, row in acc.items():
        one = row.setdefault(r, {})
        if c := one.get(0, 0) - 1:
            one[0] = c
        else:
            del one[0]
    return read(acc, packing)


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


def nce_matrices(factors: Sequence[Factor], d: int, read: Functional) -> Polynomial:
    """``read``'s value on the noncommutative elementary symmetric
    polynomial of square matrix arguments.

    Sum over increasing index sequences I_1 < ... < I_d of X_{I_1} ... X_{I_d},
    computed by one left-to-right dynamic-programming sweep, exact mod eps^K
    for K the ``order`` of ``read``.  ``dp[t]`` still needs d - t of the
    later factors, so its terms are kept only if their exponent plus the
    smallest sum of d - t later entry exponents stays below K; it is pruned
    when that sum grows, and cleared when fewer than d - t factors remain.
    Only the rows ``read`` reads are carried.
    """
    if d < 0:
        raise InvalidParameters("degree must be nonnegative")
    below = read.order
    carried = list(read.weights)
    packing = _Packing(factors, d, read.alpha)
    steps = list(map(packing.records.__getitem__, packing.index))
    completions = _cheapest_completions([low for low, _c, _both in steps], d)
    dp = [_identity_rows(carried)] + [{r: {} for r in carried} for _ in range(d)]
    for i, (_low, c, _both) in enumerate(steps):
        if not c:
            continue  # a zero factor adds nothing and leaves every bound as it is
        here, after = completions[i], completions[i + 1]
        # descending t: dp[t - 1] is read before this factor updates it
        for t in range(min(d, i + 1), 0, -1):
            need = after[d - t]
            if need == math.inf:
                dp[t] = {r: {} for r in carried}
                continue
            top = packing.top(None if below is None else below - need)
            if below is not None and need != here[d - t]:
                for row in dp[t].values():
                    _prune(row, top)
            prev, cur = dp[t - 1], dp[t]
            for r in carried:
                _add_row_times(cur[r], prev[r], c, top)
    return read(dp[d], packing)


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


def L_trace(dim: int = 3) -> LWeights:
    return [[1 if r == c else 0 for c in range(dim)] for r in range(dim)]


def L_entry(i: int, j: int, dim: int = 3) -> LWeights:
    return [[1 if (r, c) == (i - 1, j - 1) else 0 for c in range(dim)] for r in range(dim)]


# the positions of a zero-diagonal 3x3 factor's slots, in their listed order
_OFF = tuple((a, b) for a in range(3) for b in range(3) if a != b)
_L_SUM = ((1, 1, 1),) * 3

# The matrix families.  Each is  scalar * L(e_d(X_1, ..., X_n)),  the
# functional L of the noncommutative elementary symmetric polynomial in n
# square factors X_i whose nonzero entries are slots: ``gen`` fills them with
# the family's variables, a projection with its linear forms.  Per tag:
#   dim        the matrix size;
#   slots      the 0-based (row, column) positions of factor i's slots, in
#              their listed order: slots[(i - 1) % len(slots)] for 1-based i;
#   name       a slot's variable, formatted with i and 1-based row a, column b;
#   weights    the default L, as a dim x dim matrix;
#   empty      the value at degree 0 (the empty product), times the scalar;
#   projected  None where no projection targets the family, False where a
#              projection reads the default L alone, True where it may list
#              its own (nceL, whose L is a parameter of the family).
# C is the parity-alternating family (a 2x2 word of upper-triangular factors
# at odd i and lower-triangular ones at even i, read off by the sum of its two
# top entries); nceL and E take zero-diagonal factors, nceGeneric full ones.
# Elementary-symmetric sums with d > n are zero (empty index set).
MATRIX_FAMILIES = {
    "C": (2, (((0, 1),), ((1, 0),)), "x{i}", ((1, 1), (0, 0)), 1, False),
    "nceL": (3, (_OFF,), "x{a}_{b}_{i}", _L_SUM, 1, True),
    "nceGeneric": (3, (tuple((a, b) for a in range(3) for b in range(3)),), "x{a}_{b}_{i}",
                   _L_SUM, 1, None),
    "E": (3, (_OFF,), "x{i}_{a}_{b}", _L_SUM, 0, None),
}
# the families a projection may target
PROJECTION_TAGS = tuple(tag for tag, row in MATRIX_FAMILIES.items() if row[5] is not None)


def _family(tag: str) -> tuple:
    row = MATRIX_FAMILIES.get(tag)
    if row is None:
        raise InvalidParameters(f"unknown family tag {tag!r}")
    return row


def slot_names(tag: str, n: int) -> List[str]:
    """The variables of the slots of family ``tag`` with n factors, in order."""
    _dim, slots, name, *_ = _family(tag)
    return [name.format(i=i, a=r + 1, b=c + 1)
            for i, positions in zip(range(1, n + 1), cycle(slots)) for r, c in positions]


def family_value(tag: str, n: int, d: int, forms: Sequence[Polynomial],
                 scalar: Coeff = COEFF_ONE, weights: Optional[LWeights] = None,
                 below: Optional[int] = None) -> Polynomial:
    """``scalar * L(e_d(X_1, ..., X_n))`` for family ``tag`` with ``forms``
    in its slots, in ``slot_names`` order, and L the given weights (the
    family's default when None); exact mod eps^below, or in full when
    ``below`` is None."""
    _dim, slots, _name, default, empty, projected = _family(tag)
    width = len(slots[0])
    if len(forms) != n * width:
        raise ValueError(f"{tag} projection with n = {n} has {len(forms)} forms")
    if weights is None:
        weights = default
    elif not projected:
        raise ValueError(f"a {tag} projection takes no weights")
    if d == 0:  # the empty product, its terms from eps^below on dropped
        value = scalar * empty
        return Coeff({(e, a): c for (e, a), c in value.terms.items()
                      if below is None or e < below}).to_poly()
    if width == 1:  # one slot per factor (C): each factor is built directly
        factors = [{at: p} if p.terms else {} for (at,), p in zip(cycle(slots), forms)]
    else:
        factors = [{at: p for at, p in zip(positions, forms[k:k + width]) if p.terms}
                   for k, positions in zip(range(0, len(forms), width), cycle(slots))]
    return nce_matrices(factors, d, Functional(weights, scalar, below))


def _check(n: int, d: int):
    if n < 1 or d < 0:
        raise InvalidParameters(f"need n >= 1 and d >= 0, got n={n}, d={d}")


def gen_family(tag: str, n: int, d: int) -> Polynomial:
    """The family ``tag`` in its own variables."""
    if tag not in FAMILY_TAGS:
        raise InvalidParameters(f"unknown family tag {tag!r}")
    if tag in MATRIX_FAMILIES:
        _check(n, d)
        return family_value(tag, n, d, [Polynomial.variable(v) for v in slot_names(tag, n)])
    # Ccomb is the enumeration of C, kept as the named oracle
    return {"P": gen_P, "Q": gen_Q, "IMM": gen_IMM, "Ccomb": gen_C_comb}[tag](n, d)
