"""Unit and property tests for the exact polynomial ring."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homlin.matrixword import parse_projection
from homlin.poly import (
    Coeff,
    DenominatorDivisibleByPrime,
    LimitDiverges,
    Polynomial,
    PrimeTooSmall,
    format_poly,
    parse_coeff,
    PolySyntaxError,
    parse_poly,
    parse_rational,
)

X1 = Polynomial.variable("x1")
X2 = Polynomial.variable("x2")
X3 = Polynomial.variable("x3")
Y1 = Polynomial.variable("y1")
Y2 = Polynomial.variable("y2")
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
    lf = EPS(2) * X1 + EPS(-1) * X2
    assert lf.subst(3) == EPS(6) * X1 + EPS(-3) * X2
    five = Polynomial.const(5)
    p = EPS(2) * X1 * X2 ** 2 + EPS(-1) * X3 + EPS(1) * Polynomial.alpha(1) + five
    assert p.subst(3) == EPS(6) * X1 * X2 ** 2 + EPS(-3) * X3 + EPS(3) * Polynomial.alpha(1) + five


def test_mod_eps_keeps_negative_exponents():
    p = EPS(-1) * X1 + X2 + EPS(5) * X3
    assert p.mod_eps(3) == EPS(-1) * X1 + X2


def test_subst_alpha():
    lf = Polynomial.alpha(2) * X1 + Polynomial.alpha(1) * X2 + X3
    c = Coeff.from_rational(Fraction(1, 2))
    expected = Fraction(1, 4) * X1 + Fraction(1, 2) * X2 + X3
    assert lf.subst(alpha=c) == expected
    p = Polynomial.alpha(2) * X1 * X2 + EPS(1) * Polynomial.alpha(1) * X3 ** 2 + Polynomial.alpha(1)
    half = Polynomial.const(Fraction(1, 2))
    expected = Fraction(1, 4) * X1 * X2 + half * EPS(1) * X3 ** 2 + half
    assert p.subst(alpha=c) == expected


_SCALARS = [Coeff(), Coeff.from_rational(1), Coeff.from_rational(-1),
            Coeff.eps(1), parse_coeff("2 * alpha + eps^-1"), parse_coeff("1/2 - eps^3")]


@pytest.mark.parametrize("a", _SCALARS, ids=repr)
@pytest.mark.parametrize("b", _SCALARS + [0, 1, Fraction(1, 2)], ids=repr)
def test_coeff_product_with_a_unit_or_zero_factor_equals_the_full_product(a, b):
    # the full product, term by term, through the polynomial ring
    want = a.to_poly() * Coeff.of(b).to_poly()
    assert (a * b).to_poly() == want
    assert (b * a).to_poly() == want
    if b == 1 and not a.is_zero():
        assert a * b is a  # the other operand itself, not a copy


def test_eval_random_rational():
    assert (X1 * X2).eval_random({"x1": 2, "x2": 3}) == {0: Fraction(6)}
    assert (EPS(1) * X1).eval_random({"x1": 5}) == {1: Fraction(5)}


def test_eval_random_prime_field():
    p = X1 * X2 + X1
    assert p.eval_random({"x1": 2, "x2": 3}, field=101) == {0: 8}


def test_eval_random_prime_too_small():
    with pytest.raises(PrimeTooSmall):
        (X1 ** 5).eval_random({"x1": 1}, field=3)
    assert issubclass(PrimeTooSmall, ValueError)


def test_eval_random_fraction_mod_prime():
    # 1/3 = 34 mod 101, and 34 * 3 = 102 = 1 mod 101
    assert parse_poly("1/3*x1").eval_random({"x1": 3}, field=101) == {0: 1}
    assert parse_poly("1/3*x1").eval_random({"x1": 1}, field=101) == {0: 34}


def test_eval_random_rejects_a_prime_dividing_a_denominator():
    with pytest.raises(DenominatorDivisibleByPrime, match=r"1/3 .* mod 3"):
        parse_poly("x2 + 1/3*x1").eval_random({"x1": 1, "x2": 1}, field=3)
    assert issubclass(DenominatorDivisibleByPrime, ValueError)


def test_scale_vars_scales_each_term_by_its_degree():
    p = parse_poly("1/2*x1*x2*eps^-1 + 1/3*x1 + 1/5 + 7*x2^3*alpha")
    assert p.scale_vars(6) == parse_poly("18*x1*x2*eps^-1 + 2*x1 + 1/5 + 1512*x2^3*alpha")
    assert p.scale_vars(6).scale_vars(Fraction(1, 6)) == p
    assert p.scale_vars(1) is p
    # integral results are stored as int
    assert {type(c) for c in p.scale_vars(30).terms.values()} == {int, Fraction}
    assert type(p.scale_vars(30).terms[((("x1", 1),), 0, 0)]) is int


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
        "x1": c1 * Y1 + c2 * Y2,
        "x2": c3 * Y1,
        "x3": Y2,
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
    form = "projection C n 1 d 1 border 1\nform x1: {}\n"
    lf = parse_projection(form.format("2 * x1 - eps * x2")).forms[0]
    assert lf == 2 * X1 - EPS(1) * X2
    with pytest.raises(ValueError):
        parse_projection(form.format("x1 + 1"))


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


# ---------------------------------------------------------------------------
# the kernel against a plain Fraction-dict oracle
# ---------------------------------------------------------------------------
#
# The oracle keys a term by (frozenset of (var, exp), epsExp, alphaExp), so it
# needs no variable order, and sums and multiplies Fractions only.

_KVARS = ("x1", "x2", "x10")


def _natural(v):
    return tuple(int(t) if t.isdigit() else t for t in re.split(r"(\d+)", v))


def oracle_terms(p):
    """The kernel's terms in the oracle's form, after checking that every
    monomial is in canonical order and every coefficient is normalised."""
    out = {}
    for (m, e, a), c in p.terms.items():
        names = [v for v, _ in m]
        assert names == sorted(names, key=_natural) and len(set(names)) == len(names)
        assert all(x > 0 for _, x in m)
        assert c != 0
        assert type(c) is int if Fraction(c).denominator == 1 else type(c) is Fraction
        out[(frozenset(m), e, a)] = Fraction(c)
    return out


def oracle_add(*dicts):
    out = {}
    for d in dicts:
        for k, c in d.items():
            out[k] = out.get(k, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


def oracle_mul(x, y):
    out = {}
    for (m1, e1, a1), c1 in x.items():
        for (m2, e2, a2), c2 in y.items():
            exps = dict(m1)
            for v, k in m2:
                exps[v] = exps.get(v, 0) + k
            key = (frozenset(exps.items()), e1 + e2, a1 + a2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c}


def oracle_scalar(c):
    """A Coeff's terms in the oracle's form."""
    return oracle_terms(c.to_poly())


# ints, Fractions and integral Fractions such as 4/2
_mixed = st.one_of(
    st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
)


@st.composite
def mixed_polys(draw, max_alpha=1):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = {v: draw(st.integers(0, 2)) for v in _KVARS}
        mono = tuple(sorted(((v, x) for v, x in exps.items() if x), key=lambda t: _natural(t[0])))
        terms[(mono, draw(st.integers(-2, 2)), draw(st.integers(0, max_alpha)))] = draw(_mixed)
    return Polynomial(terms)


@st.composite
def mixed_coeffs(draw):
    return Coeff({
        (draw(st.integers(-2, 2)), draw(st.integers(0, 2))): draw(_mixed)
        for _ in range(draw(st.integers(0, 3)))
    })


@settings(max_examples=150, deadline=None)
@given(mixed_polys(), mixed_polys())
def test_kernel_matches_fraction_dict_oracle(a, b):
    A, B = map(oracle_terms, (a, b))
    assert oracle_terms(a + b) == oracle_add(A, B)
    assert oracle_terms(a - b) == oracle_add(A, {k: -x for k, x in B.items()})
    assert oracle_terms(a * b) == oracle_mul(A, B)


@settings(max_examples=100, deadline=None)
@given(mixed_polys(), _mixed, mixed_coeffs())
def test_kernel_scale_matches_oracle(p, r, k):
    P = oracle_terms(p)
    assert oracle_terms(p.scale(r)) == oracle_mul(P, {(frozenset(), 0, 0): Fraction(r)})
    assert oracle_terms(p.scale(k)) == oracle_mul(P, oracle_scalar(k))


@settings(max_examples=100, deadline=None)
@given(mixed_polys(max_alpha=2), st.integers(-1, 2),
       st.one_of(st.none(), _mixed, mixed_coeffs()))
def test_subst_matches_oracle(p, power, alpha):
    # term by term: x^m * eps^e * alpha^a -> x^m * eps^(e*power) * image^a
    if alpha is None:
        image = {(frozenset(), 0, 1): Fraction(1)}
    else:
        image = oracle_scalar(Coeff.of(alpha))
    want = {}
    for (m, e, a), x in p.terms.items():
        term = {(frozenset(m), e * power, 0): Fraction(x)}
        for _ in range(a):
            term = oracle_mul(term, image)
        want = oracle_add(want, term)
    assert oracle_terms(p.subst(power, alpha)) == want


@settings(max_examples=100, deadline=None)
@given(mixed_polys())
def test_kernel_text_round_trip_keeps_normal_form(p):
    q = parse_poly(format_poly(p))
    assert q == p
    assert oracle_terms(q) == oracle_terms(p)


def test_parse_repeated_and_cancelling_monomials():
    p = parse_poly("x1 + x1 - 2*x1 + x2 + 1/2*x3 + 3/2 * x3")
    assert p.terms == {((("x2", 1),), 0, 0): 1, ((("x3", 1),), 0, 0): 2}
    assert all(type(c) is int for c in p.terms.values())
    assert parse_poly("x1*x1*x1^0 - x1^2") == Polynomial.zero()


def test_every_monomial_has_one_canonical_order():
    # x01 and x1 split into the same digit chunks; the product must not
    # depend on the order of its factors
    assert parse_poly("x01 * x1") == parse_poly("x1 * x01")
    assert Polynomial.variable("x1") * Polynomial.variable("x01") == parse_poly("x01*x1")
    # names with and without digits compare
    p = parse_poly("x1 * x * y2 * y")
    assert format_poly(p) == "x * x1 * y * y2"
    assert p == Polynomial.variable("y") * Polynomial.variable("x1") * parse_poly("y2 * x")


@pytest.mark.parametrize("text", ["x1 x2", "1e3", "2 x1", "x1 + 2 3", "x1^2 x2", "eps alpha"])
def test_juxtaposed_terms_are_a_syntax_error(text):
    # a missing '+' or '-' between two terms must not be read as '+'
    with pytest.raises(PolySyntaxError, match="between terms"):
        parse_poly(text)


def test_separated_terms_still_parse():
    assert parse_poly("x1 + x2") == X1 + X2
    assert parse_poly("1 - - x1") == Polynomial.const(1) + X1
    assert parse_poly("2 * x1 * 3") == 6 * X1
    assert parse_poly("x1^0 + eps^0") == Polynomial.const(2)


@pytest.mark.parametrize("text", ["1/0", "x1 + 1/0 * x2", "1/0 * eps"])
def test_zero_denominator_is_a_syntax_error(text):
    with pytest.raises(PolySyntaxError, match="zero denominator"):
        parse_poly(text)


@pytest.mark.parametrize("text", ["1/0", "abc", "", "1//2"])
def test_parse_rational_rejects_malformed_numbers(text):
    with pytest.raises(PolySyntaxError):
        parse_rational(text)
    assert issubclass(PolySyntaxError, ValueError)


def test_parse_rational_reads_signed_fractions():
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational("4") == 4


@pytest.mark.parametrize("text, offset, char", [
    ("x1 + $", 5, "$"), ("x1 $", 3, "$"), ("2 * x1 / 3", 7, "/"), ("x\u00e9", 1, "\u00e9"),
])
def test_bad_character_is_reported_with_its_offset(text, offset, char):
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly(text)
    assert str(exc.value) == f"bad character at offset {offset}: {char!r}"


@pytest.mark.parametrize("text, message", [
    ("x1 +", "dangling sign"),
    ("-", "dangling sign"),
    ("x1 *", "expected a factor"),
    ("x1 * * x2", "unexpected token '*'"),
    ("x1^", "integer exponent"),
    ("x1^1/2", "integer exponent"),
    ("x1^-1", "variable exponent must be positive"),
    ("alpha^-1", "alpha exponent must be nonnegative"),
    ("(x1)", "unexpected token '('"),
    ("x1^2^3", "between terms, got '^'"),
])
def test_malformed_polynomials_name_their_defect(text, message):
    with pytest.raises(PolySyntaxError, match=re.escape(message)):
        parse_poly(text)
