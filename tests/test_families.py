"""Oracle tests for the reference family generators."""

from itertools import combinations

import pytest

from homlin import families
from homlin.families import (
    MATRIX_FAMILIES,
    PROJECTION_TAGS,
    InvalidParameters,
    L_entry,
    L_trace,
    family_value,
    gen_C_comb,
    gen_IMM,
    gen_P,
    gen_Q,
    gen_family,
    slot_names,
)
from homlin.matrixword import Projection
from homlin.poly import Coeff, Polynomial, parse_coeff, parse_poly
from test_matrixword import family_in_variables, oracle_word_product


def V(*idx):
    return Polynomial.variable("x" + "_".join(str(i) for i in idx))


def brute_C(n, d):
    """Independent enumeration: increasing sequences with i_j == j (mod 2)."""
    if d == 0:
        return Polynomial.const(1)
    out = Polynomial.zero()
    for combo in combinations(range(1, n + 1), d):
        if all(i % 2 == (j + 1) % 2 for j, i in enumerate(combo)):
            term = Polynomial.const(1)
            for i in combo:
                term = term * V(i)
            out = out + term
    return out


def test_C_5_3_explicit():
    expected = parse_poly("x1*x2*x3 + x1*x2*x5 + x1*x4*x5 + x3*x4*x5")
    assert gen_C_comb(5, 3) == expected
    assert len(gen_C_comb(5, 3).terms) == 4


def test_P_2_3():
    assert gen_P(2, 3) == V(1) ** 3 + V(2) ** 3


def test_Q_expansion():
    assert gen_Q(2, 2) == V(1, 1) * V(1, 2) + V(2, 1) * V(2, 2)


def test_IMM_2_2():
    assert gen_IMM(2, 2) == V(1, 1, 1) * V(1, 1, 2) + V(1, 2, 1) * V(2, 1, 2)


def test_IMM_2_3_against_direct_product():
    # row * square * column multiplied out by hand with the poly oracle
    expected = Polynomial.zero()
    for i in range(1, 3):
        for j in range(1, 3):
            expected = expected + V(1, i, 1) * V(i, j, 2) * V(j, 1, 3)
    assert gen_IMM(2, 3) == expected


def test_E_1_1_is_offdiagonal_sum():
    expected = Polynomial.zero()
    for r in range(1, 4):
        for c in range(1, 4):
            if r != c:
                expected = expected + V(1, r, c)
    assert gen_family("E", 1, 1) == expected


def test_E_is_the_degree_d_part_of_the_dense_word_product():
    # E reads e_d of the off-diagonal parts; the oracle multiplies the
    # whole word of id + A_i factors and takes the degree-d part of L_sum(M - id)
    for n in range(1, 5):
        factors = [[[V(i, r, c) if r != c else Polynomial.zero() for c in range(1, 4)]
                    for r in range(1, 4)] for i in range(1, n + 1)]
        m = oracle_word_product(factors, 3)
        total = sum((p for row in m for p in row), Polynomial.const(-3))
        for d in range(6):
            assert gen_family("E", n, d) == total.homog_component(d), (n, d)


def test_nce_generic_degree_one():
    p = gen_family("nceGeneric", 2, 1)
    expected = Polynomial.zero()
    for i in range(1, 3):
        for a in range(1, 4):
            for b in range(1, 4):
                expected = expected + V(a, b, i)
    assert p == expected


def test_nce_degree_zero_convention():
    assert gen_family("nceL", 3, 0) == Polynomial.const(1)
    assert gen_family("nceGeneric", 3, 0) == Polynomial.const(1)
    assert gen_C_comb(3, 0) == Polynomial.const(1)


def test_nce_degree_above_n_is_zero():
    assert gen_family("nceL", 2, 3).is_zero()
    assert gen_C_comb(3, 4).is_zero()


def test_oracle_equivalence_Ccomb_Cmatrix():
    for n in range(1, 10):
        for d in range(1, n + 1):
            assert gen_C_comb(n, d) == gen_family("C", n, d), (n, d)


def test_parity_lemma():
    for n in range(2, 10):
        for d in range(0, n + 1):
            if (n - d) % 2 == 1:
                assert gen_C_comb(n, d) == gen_C_comb(n - 1, d), (n, d)


def test_C_matches_brute_force_counts():
    for n in range(1, 13):
        for d in range(0, min(n, 6) + 1):
            assert gen_C_comb(n, d) == brute_C(n, d), (n, d)


def test_homogeneity_of_all_families():
    cases = [
        (gen_P(3, 4), 4),
        (gen_Q(2, 3), 3),
        (gen_IMM(2, 3), 3),
        (gen_C_comb(6, 4), 4),
        (gen_family("nceGeneric", 3, 2), 2),
        (gen_family("nceL", 3, 2), 2),
        (gen_family("E", 2, 2), 2),
    ]
    for p, d in cases:
        assert p.is_zero() or p.homog_degrees() == [d]


def test_nceL_specializes_nceGeneric():
    # substituting the diagonal variables of the generic family to zero and
    # applying the all-ones functional gives the zero-diagonal family
    for n in range(1, 5):
        for d in range(0, 4):
            generic = gen_family("nceGeneric", n, d)
            sigma = {
                f"x{a}_{a}_{i}": Polynomial.zero()
                for a in range(1, 4)
                for i in range(1, n + 1)
            }
            assert generic.substitute(sigma) == gen_family("nceL", n, d), (n, d)


def test_L_variants():
    p_tr = family_in_variables("nceL", 2, 2, L_trace())
    p_13 = family_in_variables("nceL", 2, 2, L_entry(1, 3))
    assert p_tr != p_13
    full = gen_family("nceL", 2, 2)
    # sum functional equals trace + all six off-diagonal entry functionals
    acc = p_tr
    for r in range(1, 4):
        for c in range(1, 4):
            if r != c:
                acc = acc + family_in_variables("nceL", 2, 2, L_entry(r, c))
    assert acc == full


def oracle_varphi_combine(gen, a, m, d, n):
    """Test oracle: the associated ungraded family, the sum over i <= d(n)
    of a(n, i) * gen(m(n), i)."""
    out = Polynomial.zero()
    for i in range(0, d(n) + 1):
        coeff = Coeff.of(a(n, i))
        if coeff.is_zero():
            continue
        out = out + gen(m(n), i).scale(coeff)
    return out


def test_varphi_all_ones_C():
    p = oracle_varphi_combine(gen_C_comb, lambda n, i: 1, lambda n: n, lambda n: n, 2)
    assert p == parse_poly("1 + x1 + x1*x2")


def test_varphi_zero_table():
    p = oracle_varphi_combine(gen_C_comb, lambda n, i: 0, lambda n: n, lambda n: n, 3)
    assert p.is_zero()


def test_varphi_single_entry_P():
    p = oracle_varphi_combine(
        gen_P, lambda n, i: 2 if i == 3 else 0, lambda n: n, lambda n: 3, 2
    )
    assert p == 2 * (V(1) ** 3 + V(2) ** 3)


def test_gen_family_dispatch_and_errors():
    assert gen_family("C", 5, 3) == gen_C_comb(5, 3)
    with pytest.raises(InvalidParameters, match="unknown family tag 'bogus'"):
        gen_family("bogus", 1, 1)
    with pytest.raises(InvalidParameters):
        gen_family("P", 0, 2)
    with pytest.raises(InvalidParameters, match="need n >= 1"):
        gen_family("nceL", 0, 2)


def test_family_C_is_generated_by_the_matrix_recurrence(monkeypatch):
    # C used to enumerate every index sequence (99.6 s at n = 24, d = 12,
    # against 0.2 s by the recurrence); the enumeration stays as Ccomb
    want = gen_C_comb(9, 5)

    def enumeration(n, d):
        raise AssertionError("the enumeration ran")

    monkeypatch.setattr(families, "gen_C_comb", enumeration)
    assert gen_family("C", 9, 5) == want
    with pytest.raises(AssertionError, match="the enumeration ran"):
        gen_family("Ccomb", 9, 5)


@pytest.mark.parametrize("tag", PROJECTION_TAGS)
def test_a_projection_at_degree_zero_is_the_scalar_times_the_family(tag):
    # an nceL projection at d = 0 once read L_sum(id) = 3 where gen printed 1
    for n in range(1, 4):
        forms = [Polynomial.variable(f"x{k}") for k in range(len(slot_names(tag, n)))]
        for scalar in map(parse_coeff, ["1", "eps^-1", "-2 * alpha", "0"]):
            p = Projection(tag, n, 0, forms, scalar)
            assert p.value() == gen_family(tag, n, 0).scale(scalar), (tag, n, scalar)


def test_every_matrix_family_reads_its_slots_and_its_degree_zero_value():
    for tag, (dim, slots, _name, _weights, empty, _projected) in MATRIX_FAMILIES.items():
        for n in range(1, 4):
            names = slot_names(tag, n)
            assert len(set(names)) == len(names) == n * len(slots[0]), (tag, n)
            assert all(r < dim and c < dim for positions in slots for r, c in positions)
            assert gen_family(tag, n, 0) == Polynomial.const(empty), (tag, n)
            used = set().union(*(gen_family(tag, n, d).variables() for d in range(1, n + 1)))
            assert used == set(names), (tag, n)


def test_family_value_checks_its_forms_and_weights():
    x = [Polynomial.variable(f"x{i}") for i in range(1, 7)]
    with pytest.raises(ValueError, match="C projection with n = 2 has 3 forms"):
        family_value("C", 2, 1, x[:3])
    with pytest.raises(ValueError, match="a C projection takes no weights"):
        family_value("C", 2, 1, x[:2], weights=L_trace(2))
    with pytest.raises(InvalidParameters, match="unknown family tag 'bogus'"):
        family_value("bogus", 1, 1, x)
    assert family_value("nceL", 1, 1, x, weights=L_entry(1, 2)) == x[0]
