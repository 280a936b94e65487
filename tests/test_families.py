"""Oracle tests for the reference family generators."""

from itertools import combinations

import pytest

from homlin import families
from homlin.families import (
    FamilySpec,
    InvalidParameters,
    L_entry,
    L_trace,
    gen_C_comb,
    gen_C_matrix,
    gen_E,
    gen_IMM,
    gen_P,
    gen_Q,
    gen_family,
    gen_nce_L,
    gen_nce_generic,
)
from homlin.poly import Coeff, Polynomial, parse_poly
from test_matrixword import oracle_word_product


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
    assert gen_E(1, 1) == expected


def test_E_is_the_degree_d_part_of_the_dense_word_product():
    # gen_E reads e_d of the off-diagonal parts; the oracle multiplies the
    # whole word of id + A_i factors and takes the degree-d part of L_sum(M - id)
    for n in range(1, 5):
        factors = [[[V(i, r, c) if r != c else Polynomial.zero() for c in range(1, 4)]
                    for r in range(1, 4)] for i in range(1, n + 1)]
        m = oracle_word_product(factors, 3)
        total = sum((p for row in m for p in row), Polynomial.const(-3))
        for d in range(6):
            assert gen_E(n, d) == total.homog_component(d), (n, d)


def test_nce_generic_degree_one():
    p = gen_nce_generic(2, 1)
    expected = Polynomial.zero()
    for i in range(1, 3):
        for a in range(1, 4):
            for b in range(1, 4):
                expected = expected + V(a, b, i)
    assert p == expected


def test_nce_degree_zero_convention():
    assert gen_nce_L(3, 0) == Polynomial.const(1)
    assert gen_nce_generic(3, 0) == Polynomial.const(1)
    assert gen_C_comb(3, 0) == Polynomial.const(1)


def test_nce_degree_above_n_is_zero():
    assert gen_nce_L(2, 3).is_zero()
    assert gen_C_comb(3, 4).is_zero()


def test_oracle_equivalence_Ccomb_Cmatrix():
    for n in range(1, 10):
        for d in range(1, n + 1):
            assert gen_C_comb(n, d) == gen_C_matrix(n, d), (n, d)


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
        (gen_nce_generic(3, 2), 2),
        (gen_nce_L(3, 2), 2),
        (gen_E(2, 2), 2),
    ]
    for p, d in cases:
        assert p.is_zero() or p.homog_degrees() == [d]


def test_nceL_specializes_nceGeneric():
    # substituting the diagonal variables of the generic family to zero and
    # applying the all-ones functional gives the zero-diagonal family
    for n in range(1, 5):
        for d in range(0, 4):
            generic = gen_nce_generic(n, d)
            sigma = {
                f"x{a}_{a}_{i}": Polynomial.zero()
                for a in range(1, 4)
                for i in range(1, n + 1)
            }
            assert generic.substitute(sigma) == gen_nce_L(n, d), (n, d)


def test_L_variants():
    p_tr = gen_nce_L(2, 2, L_trace())
    p_13 = gen_nce_L(2, 2, L_entry(1, 3))
    assert p_tr != p_13
    full = gen_nce_L(2, 2)
    # sum functional equals trace + all six off-diagonal entry functionals
    acc = p_tr
    for r in range(1, 4):
        for c in range(1, 4):
            if r != c:
                acc = acc + gen_nce_L(2, 2, L_entry(r, c))
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
    assert gen_family(FamilySpec("C", 5, 3)) == gen_C_comb(5, 3)
    with pytest.raises(InvalidParameters):
        FamilySpec("bogus", 1, 1)
    with pytest.raises(InvalidParameters):
        gen_family(FamilySpec("P", 0, 2))


def test_family_C_is_generated_by_the_matrix_recurrence(monkeypatch):
    # C used to enumerate every index sequence (99.6 s at n = 24, d = 12,
    # against 0.2 s by the recurrence); the enumeration stays as Ccomb
    want = gen_C_comb(9, 5)

    def enumeration(n, d):
        raise AssertionError("the enumeration ran")

    monkeypatch.setattr(families, "gen_C_comb", enumeration)
    assert gen_family(FamilySpec("C", 9, 5)) == want
    with pytest.raises(AssertionError, match="the enumeration ran"):
        gen_family(FamilySpec("Ccomb", 9, 5))
