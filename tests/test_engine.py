"""Property tests for the eps-truncated matrix-product engine: every value
computed mod eps^K equals the exact route's value (``below=None``) reduced
mod eps^K, and equals an independent dense oracle (test_matrixword's), which
carries every row, reduced mod eps^K.  Whole matrices are compared entry by
entry, through ``L_entry`` functionals.

Coefficients are rationals with denominators 1, 2, 3, 5 and 24, on terms of
every x-degree (fractional constants included), so the engine's integral
coordinates x -> D*x and its map back are exercised.  Monomials reach x1^3
and x1^2*x2, alpha^2 and eps^-3..eps^3, on up to eight 2x2 factors (five
3x3 ones), so the bounds that size the engine's packed exponent fields land
on and just past powers of two."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homlin.families import Functional, L_entry, nce_matrices, word_product
from homlin.matrixword import (
    MatrixWord,
    Projection,
    border_value,
    expand_word,
    target_weights,
)
from homlin.poly import COEFF_ONE, Coeff, Polynomial, parse_coeff, parse_poly
from test_matrixword import (
    dense,
    entry_values,
    minus_identity,
    mod_eps,
    oracle_nce,
    oracle_value_by_substitution,
    oracle_word_product,
    sparse,
)
from test_poly import oracle_subst

VARS = ("x1", "x2", "x3")
MONOS = (
    (), (("x1", 1),), (("x2", 1),), (("x1", 1), ("x3", 1)),
    (("x1", 2),), (("x1", 3),), (("x1", 2), ("x2", 1)),
)
ORDERS = st.sampled_from([0, 1, 3])
RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5, 24]))


def assert_normalised(p):
    """Every integral coefficient of an engine result is stored as an int."""
    assert all(type(c) is int or c.denominator != 1 for c in p.terms.values()), p.terms


@st.composite
def coeffs(draw, max_terms=2):
    """Zero, one or several terms; eps exponents of both signs."""
    n = draw(st.integers(0, max_terms))
    return Coeff({
        (draw(st.integers(-3, 3)), draw(st.integers(0, 2))): draw(RATIONALS)
        for _ in range(n)
    })


@st.composite
def entries(draw):
    if draw(st.integers(0, 2)) == 0:
        return Polynomial.zero()
    return Polynomial({
        (draw(st.sampled_from(MONOS)), draw(st.integers(-3, 3)), draw(st.integers(0, 2))):
            draw(RATIONALS)
        for _ in range(draw(st.integers(1, 2)))
    })


@st.composite
def words(draw):
    dim = draw(st.sampled_from([2, 3]))
    # a long 3x3 word of dense entries has too many terms to expand exactly
    factors = [
        sparse([[draw(entries()) for _ in range(dim)] for _ in range(dim)])
        for _ in range(draw(st.integers(0, 8 if dim == 2 else 5)))
    ]
    kind = draw(st.sampled_from(["entry", "trace", "functional"]))
    if kind == "entry":
        target = ("entry", draw(st.integers(1, dim)), draw(st.integers(1, dim)))
    elif kind == "trace":
        target = ("trace",)
    else:
        target = ("functional", [draw(coeffs()) for _ in range(dim * dim)])
    return MatrixWord(dim, factors, draw(coeffs(3)), target)


@st.composite
def forms(draw):
    """A homogeneous linear form: every term's monomial is one variable."""
    vs = draw(st.sets(st.sampled_from(VARS)))
    return Polynomial({
        (((v, 1),), e, a): x for v in vs for (e, a), x in draw(coeffs(2)).terms.items()
    })


@st.composite
def polys(draw, max_terms):
    """Up to ``max_terms`` terms on every monomial of MONOS, the constant one
    included."""
    return Polynomial({
        (draw(st.sampled_from(MONOS)), draw(st.integers(-3, 3)), draw(st.integers(0, 2))):
            draw(RATIONALS)
        for _ in range(draw(st.integers(0, max_terms)))
    })


@st.composite
def projections(draw):
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        fs = [draw(forms()) for _ in range(n)]
        return Projection("C", n, draw(st.integers(0, 3)), fs, draw(coeffs(3)))
    n = draw(st.integers(1, 3))
    fs = [draw(forms()) for _ in range(6 * n)]
    weights = [[draw(coeffs()) for _ in range(3)] for _ in range(3)]
    return Projection("nceL", n, draw(st.integers(0, 3)), fs, draw(coeffs(3)), weights=weights)


def mod(m, k):
    return [[mod_eps(p, k) for p in row] for row in m]


@settings(max_examples=150, deadline=None)
@given(words(), ORDERS)
def test_word_engine_matches_exact_route(w, k):
    assert entry_values(w, k) == mod(entry_values(w), k)
    assert border_value(w, k) == mod_eps(border_value(w), k)


@settings(max_examples=100, deadline=None)
@given(projections(), ORDERS)
def test_projection_engine_matches_exact_route(p, k):
    assert p.value(k) == mod_eps(p.value(), k)
    assert border_value(p, k) == p.value(k)


def nce_entries(factors, d, below=None):
    """The 2x2 elementary symmetric sum, mod eps^below, entry by entry: the
    engine's value of each ``L_entry`` functional."""
    return [[nce_matrices(factors, d, Functional(L_entry(i, j, 2), COEFF_ONE, below))
             for j in (1, 2)] for i in (1, 2)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(entries(), min_size=4, max_size=4), max_size=8),
       st.integers(0, 4), ORDERS)
def test_nce_engine_matches_exact_route(flat, d, k):
    factors = [sparse([row[:2], row[2:]]) for row in flat]
    got = nce_entries(factors, d, k)
    assert got == mod(nce_entries(factors, d), k)
    assert got == mod(oracle_nce([[row[:2], row[2:]] for row in flat], d, 2), k)
    for row in got:
        for p in row:
            assert_normalised(p)


# ---------------------------------------------------------------------------
# the dense test oracle (its products are in test_matrixword): every row of
# every product, no truncation
# ---------------------------------------------------------------------------


def oracle_L(m, weights):
    """Test oracle: sum_{r,c} weights[r][c] * m[r][c] over every entry."""
    out = Polynomial.zero()
    for row, wrow in zip(m, weights):
        for p, w in zip(row, wrow):
            out = out + p.scale(Coeff.of(w))
    return out


def oracle_word_value(w):
    m = minus_identity(oracle_word_product([dense(a, w.dim) for a in w.factors], w.dim))
    return oracle_L(m, target_weights(w.target, w.dim)).scale(w.global_scalar)


# positions of the zero-diagonal and parity-alternating factors, laid out here
# independently of the library's layout helpers
OFF = [(a, b) for a in range(3) for b in range(3) if a != b]


def oracle_projection_value(p):
    if p.d == 0:  # C and nceL are 1 at degree 0, whatever L reads off the identity
        return Polynomial.const(p.scalar)
    polys = p.forms
    if p.family_tag == "C":
        factors = []
        for i, q in enumerate(polys, start=1):
            m = [[Polynomial.zero()] * 2 for _ in range(2)]
            m[0 if i % 2 else 1][1 if i % 2 else 0] = q
            factors.append(m)
        weights, dim = [[1, 1], [0, 0]], 2
    else:
        factors = []
        for i in range(p.n):
            m = [[Polynomial.zero()] * 3 for _ in range(3)]
            for (a, b), q in zip(OFF, polys[6 * i:6 * i + 6]):
                m[a][b] = q
            factors.append(m)
        weights, dim = p.weights, 3
    return oracle_L(oracle_nce(factors, p.d, dim), weights).scale(p.scalar)


@st.composite
def sparse_weights(draw, dim):
    """Weights with some rows and columns all zero, so the engine leaves
    rows out; the other weights are drawn freely (zero included)."""
    zero_rows = draw(st.sets(st.integers(0, dim - 1)))
    zero_cols = draw(st.sets(st.integers(0, dim - 1)))
    return [
        [Coeff() if r in zero_rows or c in zero_cols else draw(coeffs()) for c in range(dim)]
        for r in range(dim)
    ]


@st.composite
def sparse_words(draw):
    w = draw(words())
    if draw(st.booleans()):
        flat = [x for row in draw(sparse_weights(w.dim)) for x in row]
        w.target = ("functional", flat)
    return w


@st.composite
def sparse_projections(draw):
    p = draw(projections())
    if p.family_tag == "nceL":
        p.weights = draw(sparse_weights(3))
    return p


ORACLE_ORDERS = st.sampled_from([None, 0, 1, 3])


def reduce(p, k):
    return p if k is None else mod_eps(p, k)


@settings(max_examples=150, deadline=None)
@given(sparse_words(), ORACLE_ORDERS)
def test_word_value_matches_dense_oracle(w, k):
    got = border_value(w, k)
    assert got == reduce(oracle_word_value(w), k)
    assert_normalised(got)
    m = entry_values(w, k)
    want = minus_identity(oracle_word_product([dense(a, w.dim) for a in w.factors], w.dim))
    assert m == [[reduce(p, k) for p in row] for row in want]
    for row in m:
        for p in row:
            assert_normalised(p)


@settings(max_examples=100, deadline=None)
@given(sparse_projections(), ORACLE_ORDERS)
def test_projection_value_matches_dense_oracle(p, k):
    got = border_value(p, k)
    assert got == reduce(oracle_projection_value(p), k)
    assert_normalised(got)


@st.composite
def small_projections(draw):
    """C projections with n <= 5 and nceL projections with n <= 2, small
    enough for the monomial expansion."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        fs = [draw(forms()) for _ in range(n)]
        return Projection("C", n, draw(st.integers(0, 3)), fs, draw(coeffs(2)))
    n = draw(st.integers(1, 2))
    fs = [draw(forms()) for _ in range(6 * n)]
    return Projection("nceL", n, draw(st.integers(1, 2)), fs, draw(coeffs(2)),
                      weights=draw(sparse_weights(3)))


@settings(max_examples=60, deadline=None)
@given(small_projections(), ORACLE_ORDERS)
def test_projection_value_matches_substitution(p, k):
    got = border_value(p, k)
    assert got == reduce(oracle_value_by_substitution(p), k)
    assert_normalised(got)


def test_nce_clears_states_that_cannot_reach_degree_d():
    # only one factor is left after the first, so e_3 of two factors is 0
    x = {(0, 0): Polynomial.variable("x1"), (1, 1): Polynomial.variable("x2")}
    assert nce_matrices([x, x], 3, Functional([[1, 1], [1, 1]], COEFF_ONE, 1)).is_zero()


def test_word_engine_skips_pairs_at_or_above_the_order():
    e = Polynomial.eps
    x = Polynomial.variable("x1")
    a, b = x * e(-1) + x * e(1), x + x * e(2)
    w = MatrixWord(1, [{(0, 0): a}, {(0, 0): b}])
    # (1 + a)(1 + b) - 1 = a + b + a*b, and a*b = x1^2 (eps^-1 + 2 eps + eps^3)
    assert expand_word(w, Functional([[1]], COEFF_ONE, 1)) == x * e(-1) + x + x * x * e(-1)


def test_packed_fields_hold_the_proven_exponent_bound():
    # Four factors x1^2 * x2 * alpha * eps^-1: the packed fields of x1, x2 and
    # alpha must hold 8, 4 and 4, powers of two that need one bit more than
    # the values below them, and the product reaches each bound exactly.
    factors = [{(0, 0): parse_poly("x1^2*x2*alpha*eps^-1")} for _ in range(4)]
    want = parse_poly("x1^8*x2^4*alpha^4*eps^-4")

    def read(below=None):
        return Functional([[1]], COEFF_ONE, below)

    assert nce_matrices(factors, 4, read()) == want
    assert nce_matrices(factors, 4, read(-3)) == want
    assert nce_matrices(factors, 4, read(-4)).is_zero()
    binomial = parse_poly(
        "4*x1^2*x2*alpha*eps^-1 + 6*x1^4*x2^2*alpha^2*eps^-2"
        " + 4*x1^6*x2^3*alpha^3*eps^-3 + x1^8*x2^4*alpha^4*eps^-4"
    )
    assert word_product(factors, read()) == binomial
    assert word_product(factors, read(-2)) == mod_eps(binomial, -2)


# ---------------------------------------------------------------------------
# the key layout leaves room for the functional
# ---------------------------------------------------------------------------

# No factor entry below carries more than alpha^1 or less than eps^-1, while
# the scalar and the weights reach alpha^3 and eps^-3: a layout sized from the
# factors alone gives alpha too narrow a field, and alpha carries into eps.
SCALAR = parse_coeff("alpha^3 * eps^-3 + 2 * alpha")
WEIGHTS = [[parse_coeff("alpha^3 * eps^-2"), parse_coeff("alpha^2 - eps^-3")],
           [parse_coeff("3 * alpha^3"), parse_coeff("eps^-1 * alpha")]]
NCE_WEIGHTS = [[parse_coeff(t) for t in row] for row in (
    ("alpha^3", "eps^-3 * alpha^2", "1"), ("0", "alpha^3 * eps^-1", "alpha"),
    ("2 * alpha^2", "0", "eps^-2 * alpha^3"))]


def layout_cases(c):
    """A word, a C projection and an nceL projection whose linear entries
    carry the coefficient ``c``."""
    x = parse_poly
    word = MatrixWord(2, [
        {(0, 1): x(f"{c} * x1 * alpha + x2 * eps^-1")},
        {(1, 0): x("x2 * alpha - x1"), (1, 1): x(f"{c} * x1")},
        {(0, 0): x("x1 * eps^-1 + x2 * alpha")},
    ], SCALAR, ("functional", [w for row in WEIGHTS for w in row]))
    forms = [x(f"{c} * x1 * alpha"), x("x2 * eps^-1 + x1"), x(f"x3 * alpha - {c} * x2")]
    proj_c = Projection("C", 3, 2, forms, SCALAR)
    proj_l = Projection("nceL", 1, 1, forms * 2, SCALAR, weights=NCE_WEIGHTS)
    return [word, proj_c, proj_l]


@pytest.mark.parametrize("c", [1, "1/2"])
@pytest.mark.parametrize("k", [None, -4, 0, 1, 3])
def test_the_key_layout_holds_the_scalar_and_weights(c, k):
    word, proj_c, proj_l = layout_cases(c)
    got = border_value(word, k)
    assert got == reduce(oracle_word_value(word), k)
    assert got.terms and max(a for _m, _e, a in oracle_word_value(word).terms) >= 7
    for p in (proj_c, proj_l):
        assert border_value(p, k) == reduce(oracle_projection_value(p), k)
    if k is not None:
        for obj in (word, proj_c, proj_l):
            assert border_value(obj, k) == mod_eps(border_value(obj), k)
            assert_normalised(border_value(obj, k))


# ---------------------------------------------------------------------------
# the eps/alpha substitution map
# ---------------------------------------------------------------------------

POWERS = st.integers(-2, 3)


@settings(max_examples=150, deadline=None)
@given(polys(3), polys(3), POWERS, coeffs(2))
def test_subst_is_a_ring_map(x, y, m, c):
    assert oracle_subst(x + y, m, c) == oracle_subst(x, m, c) + oracle_subst(y, m, c)
    assert oracle_subst(x * y, m, c) == oracle_subst(x, m, c) * oracle_subst(y, m, c)
    assert oracle_subst(x + y, m) == oracle_subst(x, m) + oracle_subst(y, m)
    assert oracle_subst(x * y, m) == oracle_subst(x, m) * oracle_subst(y, m)


@settings(max_examples=150, deadline=None)
@given(polys(3), POWERS, coeffs(2))
def test_subst_is_eps_then_alpha(x, m, c):
    assert oracle_subst(x, m, c) == oracle_subst(oracle_subst(x, m), alpha=c)


@settings(max_examples=100, deadline=None)
@given(forms(), POWERS, st.one_of(st.none(), coeffs(2)))
def test_linear_form_subst_maps_each_coefficient(lf, m, c):
    got = oracle_subst(lf, m, c)
    assert {mono for (mono, _e, _a) in got.terms} <= {((v, 1),) for v in VARS}
    for v in VARS:
        mono = ((v, 1),)
        want = oracle_subst(lf.coeff_of_mono(mono).to_poly(), m, c).constant_part()
        assert got.coeff_of_mono(mono) == want
