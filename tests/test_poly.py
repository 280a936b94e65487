"""Unit and property tests for the exact polynomial ring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homlin.poly import (
    Coeff,
    LimitDiverges,
    LinearForm,
    Polynomial,
    PrimeTooSmall,
    format_poly,
    parse_coeff,
    parse_linear_form,
    parse_poly,
)

X1 = Polynomial.variable("x1")
X2 = Polynomial.variable("x2")
X3 = Polynomial.variable("x3")
EPS = Polynomial.eps


def test_add_same_variable():
    assert X1 + X1 == parse_poly("2 * x1")


def test_eps_exponents_cancel():
    assert (EPS(-1) * X1) * (EPS(1) * X2) == X1 * X2


def test_product_of_sum_and_difference():
    # independently expanded by hand: (x+y)(x-y) = x^2 - y^2
    assert (X1 + X2) * (X1 - X2) == X1 * X1 - X2 * X2


def test_substitute_merges_variables():
    y = Polynomial.variable("y")
    assert (X1 * X2).substitute({"x1": y, "x2": y}) == y * y


def test_substitute_zero_form_allowed():
    assert (X1 + X2).substitute({"x1": X1, "x2": Polynomial.zero()}) == X1


def test_substitute_unmapped_variables_fixed():
    assert (X1 * X2).substitute({"x1": X3}) == X3 * X2


def test_homog_component():
    p = X1 * X2 + X1 + Polynomial.const(7)
    assert p.homog_component(2) == X1 * X2
    assert p.homog_component(0) == Polynomial.const(7)
    assert p.homog_component(3) == Polynomial.zero()


def test_homog_component_ignores_eps_degree():
    p = EPS(-1) * X1 + X1 * X1
    assert p.homog_component(1) == EPS(-1) * X1


def test_partial_derivative():
    p = X1 * X1 * X2  # x^2 y
    assert p.partial_derivative("x1") == 2 * X1 * X2
    assert (X2 ** 3).partial_derivative("x1") == Polynomial.zero()


def test_euler_identity_fixed_case():
    p = X1 * X1 * X2
    total = sum(
        (Polynomial.variable(v) * p.partial_derivative(v) for v in p.variables()),
        Polynomial.zero(),
    )
    assert total == 3 * p


def test_limit_drops_positive_eps():
    assert (Polynomial.const(3) + EPS(1) * X1).eps_limit() == Polynomial.const(3)


def test_limit_diverges_on_negative_eps():
    with pytest.raises(LimitDiverges):
        (EPS(-1) * X1).eps_limit()


def test_subst_eps_power():
    lf = LinearForm.from_poly(EPS(2) * X1 + EPS(-1) * X2)
    assert lf.subst(3) == LinearForm.from_poly(EPS(6) * X1 + EPS(-3) * X2)


def test_mod_eps_keeps_negative_exponents():
    p = EPS(-1) * X1 + X2 + EPS(5) * X3
    assert p.mod_eps(3) == EPS(-1) * X1 + X2


def test_subst_alpha():
    lf = LinearForm.from_poly(Polynomial.alpha(2) * X1 + Polynomial.alpha(1) * X2 + X3)
    c = Coeff.from_rational(Fraction(1, 2))
    expected = Fraction(1, 4) * X1 + Fraction(1, 2) * X2 + X3
    assert lf.subst(alpha=c) == LinearForm.from_poly(expected)


def test_eval_random_rational():
    assert (X1 * X2).eval_random({"x1": 2, "x2": 3}) == {0: Fraction(6)}
    assert (EPS(1) * X1).eval_random({"x1": 5}) == {1: Fraction(5)}


def test_eval_random_prime_field():
    p = X1 * X2 + X1
    assert p.eval_random({"x1": 2, "x2": 3}, field=101) == {0: 8}


def test_eval_random_prime_too_small():
    with pytest.raises(PrimeTooSmall):
        (X1 ** 5).eval_random({"x1": 1}, field=3)


def test_eval_random_rejects_alpha():
    with pytest.raises(ValueError):
        (Polynomial.alpha(1) * X1).eval_random({"x1": 1})


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_rationals = st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 4)
)


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(0, 5))
    p = Polynomial.zero()
    for _ in range(n_terms):
        c = draw(_rationals)
        eps = draw(st.integers(-2, 2))
        term = Polynomial.const(c) * Polynomial.eps(eps)
        for v in ("x1", "x2", "x3"):
            term = term * (Polynomial.variable(v) ** draw(st.integers(0, 2)))
        p = p + term
    return p


@settings(max_examples=100, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=100, deadline=None)
@given(small_polys(), small_polys())
def test_degree_homomorphism(a, b):
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
    else:
        assert (a * b).degree() == a.degree() + b.degree()


@settings(max_examples=60, deadline=None)
@given(small_polys())
def test_euler_identity(p):
    for d in p.homog_degrees():
        if d < 1:
            continue
        pd = p.homog_component(d)
        total = sum(
            (Polynomial.variable(v) * pd.partial_derivative(v) for v in pd.variables()),
            Polynomial.zero(),
        )
        assert total == d * pd


@settings(max_examples=60, deadline=None)
@given(small_polys(), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_linear_substitution_preserves_homogeneous_degree(p, c1, c2, c3):
    sigma = {
        "x1": LinearForm({"y1": c1, "y2": c2}),
        "x2": LinearForm({"y1": c3}),
        "x3": LinearForm({"y2": 1}),
    }
    for d in p.homog_degrees():
        q = p.homog_component(d).substitute(sigma)
        assert q.is_zero() or q.homog_degrees() == [d]


@settings(max_examples=60, deadline=None)
@given(small_polys(), st.integers(1, 4))
def test_mod_eps_then_limit(p, k):
    try:
        expected = p.eps_limit()
    except LimitDiverges:
        return
    assert p.mod_eps(k).eps_limit() == expected


@settings(max_examples=80, deadline=None)
@given(small_polys())
def test_text_round_trip(p):
    assert parse_poly(format_poly(p)) == p


def test_parse_examples():
    assert parse_poly("3/2 * x1^2 * eps^-1 * alpha^2") == (
        Polynomial.const(Fraction(3, 2))
        * X1 ** 2
        * Polynomial.eps(-1)
        * Polynomial.alpha(2)
    )
    assert parse_poly("x1 - x2 + 1") == X1 - X2 + Polynomial.const(1)
    assert parse_poly("") == Polynomial.zero()
    assert parse_poly("-x1") == -X1


def test_parse_coeff_and_linear_form():
    assert parse_coeff("1/2 * eps^2") == Coeff({(2, 0): Fraction(1, 2)})
    lf = parse_linear_form("2 * x1 - eps * x2")
    assert lf.to_poly() == 2 * X1 - EPS(1) * X2
    with pytest.raises(ValueError):
        parse_linear_form("x1 + 1")


def test_schwartz_zippel_frequency_estimate():
    # two distinct degree-3 polynomials agree at a uniform point of F_P with
    # empirical frequency well below d/P over many trials
    import random

    rng = random.Random(7)
    P = 10007
    a = X1 ** 3 + X2
    b = X1 ** 3 + X2 + X1 * X2
    agree = 0
    trials = 10_000
    for _ in range(trials):
        pt = {"x1": rng.randrange(P), "x2": rng.randrange(P)}
        if a.eval_random(pt, field=P) == b.eval_random(pt, field=P):
            agree += 1
    assert agree / trials <= 3 / P + 0.01
