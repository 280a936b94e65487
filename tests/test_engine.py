"""Property tests for the eps-truncated matrix-product engine: every value
computed mod eps^K equals the exact route's value (``below=None``, the
oracle) reduced mod eps^K."""

from hypothesis import given, settings, strategies as st

from homlin.families import nce_matrices
from homlin.matrixword import MatrixWord, Projection, border_value, expand_word
from homlin.poly import Coeff, LinearForm, Polynomial, dot

VARS = ("x1", "x2", "x3")
MONOS = ((), (("x1", 1),), (("x2", 1),), (("x1", 1), ("x3", 1)))
ORDERS = st.sampled_from([0, 1, 3])


@st.composite
def coeffs(draw, max_terms=2):
    """Zero, one or several terms; eps exponents of both signs."""
    n = draw(st.integers(0, max_terms))
    return Coeff({
        (draw(st.integers(-2, 3)), draw(st.integers(0, 1))): draw(st.integers(-3, 3))
        for _ in range(n)
    })


@st.composite
def entries(draw):
    if draw(st.integers(0, 2)) == 0:
        return Polynomial.zero()
    return Polynomial({
        (draw(st.sampled_from(MONOS)), draw(st.integers(-2, 2)), draw(st.integers(0, 1))):
            draw(st.integers(-3, 3))
        for _ in range(draw(st.integers(1, 2)))
    })


@st.composite
def words(draw):
    dim = draw(st.sampled_from([2, 3]))
    factors = [
        [[draw(entries()) for _ in range(dim)] for _ in range(dim)]
        for _ in range(draw(st.integers(0, 4)))
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
    return LinearForm({v: draw(coeffs(2)) for v in draw(st.sets(st.sampled_from(VARS)))})


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
    return [[p.mod_eps(k) for p in row] for row in m]


@settings(max_examples=150, deadline=None)
@given(words(), ORDERS)
def test_word_engine_matches_exact_route(w, k):
    assert expand_word(w, k) == mod(expand_word(w), k)
    assert border_value(w, k) == border_value(w).mod_eps(k)


@settings(max_examples=100, deadline=None)
@given(projections(), ORDERS)
def test_projection_engine_matches_exact_route(p, k):
    assert p.value(k) == p.value().mod_eps(k)
    assert border_value(p, k) == p.value(k)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(entries(), min_size=4, max_size=4), max_size=5),
       st.integers(0, 4), ORDERS)
def test_nce_engine_matches_exact_route(flat, d, k):
    factors = [[row[:2], row[2:]] for row in flat]
    assert nce_matrices(factors, d, k) == mod(nce_matrices(factors, d), k)


def test_nce_clears_states_that_cannot_reach_degree_d():
    # only one factor is left after the first, so e_3 of two factors is 0
    x = [[Polynomial.variable("x1"), Polynomial.zero()],
         [Polynomial.zero(), Polynomial.variable("x2")]]
    assert nce_matrices([x, x], 3, 1) == [[Polynomial.zero()] * 2] * 2


def test_dot_skips_pairs_at_or_above_the_order():
    e = Polynomial.eps
    x = Polynomial.variable("x1")
    got = dot([(x * e(-1) + x * e(1), x + x * e(2))], below=1)
    assert got == (x * x * e(-1) + x * x * e(1)).mod_eps(1)


# ---------------------------------------------------------------------------
# the eps/alpha substitution map
# ---------------------------------------------------------------------------

POWERS = st.integers(-2, 3)


@settings(max_examples=150, deadline=None)
@given(coeffs(3), coeffs(3), POWERS, coeffs(2))
def test_coeff_subst_is_a_ring_map(x, y, m, c):
    assert (x + y).subst(m, c) == x.subst(m, c) + y.subst(m, c)
    assert (x * y).subst(m, c) == x.subst(m, c) * y.subst(m, c)
    assert (x + y).subst(m) == x.subst(m) + y.subst(m)
    assert (x * y).subst(m) == x.subst(m) * y.subst(m)


@settings(max_examples=150, deadline=None)
@given(coeffs(3), POWERS, coeffs(2))
def test_coeff_subst_is_eps_then_alpha(x, m, c):
    assert x.subst(m, c) == x.subst(m).subst(alpha=c)


@settings(max_examples=100, deadline=None)
@given(forms(), POWERS, st.one_of(st.none(), coeffs(2)))
def test_linear_form_subst_maps_each_coefficient(lf, m, c):
    got = lf.subst(m, c)
    for v in VARS:
        assert got.coeffs.get(v, Coeff()) == lf.coeffs.get(v, Coeff()).subst(m, c)
