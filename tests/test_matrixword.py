"""Tests for the matrix-word compilers: exact off-diagonal words, the
diagonal-functional border words, the 2x2 alternating-word border
constructions, family projections, and serialization."""

import random
from fractions import Fraction

import pytest

from homlin.circuit import FNode, circuit_to_tree, tree_to_circuit
from homlin.families import L_entry, gen_C_comb, gen_nce_L
from homlin.matrixword import (
    ArtifactSyntaxError,
    DiagonalNonzero,
    EntryNotHomogeneousLinear,
    MatrixWord,
    NotEvenDegree,
    NotFormula,
    NotIHL,
    NotOddDegree,
    Projection,
    _cont_odd_word,
    _offdiag_lists,
    border_value,
    compile_continuant_even,
    compile_continuant_odd,
    compile_offdiag3,
    compile_trace3,
    entry_target,
    expand_word,
    format_projection,
    format_word,
    parse_projection,
    parse_word,
    word_to_projection,
)
from homlin.poly import (
    COEFF_ONE,
    Coeff,
    Polynomial,
    format_poly,
    parse_poly,
)
from homlin.transforms import run_pass, to_add_negcube, vf_to_v3p
from homlin.verify import (
    random_graded_arity3_formula,
    random_ihl_formula,
    verify_border,
)


def as_formula(tree, basis="arity2"):
    return tree_to_circuit(tree, basis)


def X(name):
    return FNode.var(name)


def P(text):
    return parse_poly(text)


def sparse(m):
    """A dense matrix as a factor: its nonzero entries, keyed by 0-based
    (row, column)."""
    return {(i, j): p for i, row in enumerate(m) for j, p in enumerate(row) if p.terms}


def dense(m, dim):
    """Sparse rows ({row: {column: entry}}) or a factor ({(row, column):
    entry}) as a dim x dim list of lists, its zero entries filled in."""
    zero = Polynomial.zero()
    out = [[zero] * dim for _ in range(dim)]
    for key, value in m.items():
        if isinstance(key, tuple):
            out[key[0]][key[1]] = value
        else:
            for c, p in value.items():
                out[key][c] = p
    return out


def oracle_word2(forms):
    """Test oracle: the 2x2 word of a list of forms, laid out here
    independently of the library: the form at (1-based) slot i is the (1,2)
    entry of its factor for odd i and the (2,1) entry for even i."""
    factors = []
    for i, p in enumerate(forms, start=1):
        factors.append({(0, 1) if i % 2 else (1, 0): p} if p.terms else {})
    return MatrixWord(2, factors, COEFF_ONE, entry_target(1, 2))


def expand(w, below=None):
    """The whole product of a word, as a dense matrix."""
    return dense(expand_word(w, below), w.dim)


def matrices_equal(m, expect):
    return all(
        m[i][j] == P(expect[i][j]) for i in range(len(m)) for j in range(len(m))
    )


# ---------------------------------------------------------------------------
# expand_word
# ---------------------------------------------------------------------------


def test_expand_empty_word_is_identity():
    m = expand(MatrixWord(3, []))
    assert matrices_equal(m, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


def test_expand_two_factor_2x2():
    w = oracle_word2([Polynomial.variable("x1"), Polynomial.variable("x2")])
    m = expand(w)
    assert matrices_equal(m, [["1 + x1*x2", "x1"], ["x2", "1"]])


def test_expand_four_factor_commutator_symbolic():
    # (id+fE12)(id+gE23)(id-fE12)(id-gE23) = id + f*g*E13, f and g fresh
    f, g = Polynomial.variable("f"), Polynomial.variable("g")
    zero = Polynomial.zero()

    def e(i, j, p):
        return {(i - 1, j - 1): p}

    w = MatrixWord(3, [e(1, 2, f), e(2, 3, g), e(1, 2, -f), e(2, 3, -g)])
    m = expand(w)
    assert m[0][2] == f * g
    for i in range(3):
        for j in range(3):
            if (i, j) == (0, 2):
                continue
            assert m[i][j] == (Polynomial.const(1) if i == j else zero)


# ---------------------------------------------------------------------------
# compile_offdiag3
# ---------------------------------------------------------------------------


def offdiag_residue(c, target=(1, 3), thread=1):
    w = compile_offdiag3(c, target, thread)
    m = expand(w)
    for i in range(3):
        m[i][i] = m[i][i] - Polynomial.const(1)
    return w, m


def test_offdiag_leaf():
    c = as_formula(FNode.leaf(Polynomial.variable("x1").scale(2)))
    w, m = offdiag_residue(c)
    assert w.r() == 1
    assert m[0][2] == P("2*x1")
    assert all(m[i][j].is_zero() for i in range(3) for j in range(3) if (i, j) != (0, 2))


def test_offdiag_product_four_factors():
    c = as_formula(FNode.mul(X("x1"), X("x2")))
    w, m = offdiag_residue(c)
    assert w.r() == 4
    assert m[0][2] == P("x1*x2")


def test_offdiag_depth_two_r_bound():
    t = FNode.mul(FNode.mul(X("x1"), X("x2")), FNode.add(X("x3"), X("x4")))
    c = as_formula(t)
    w, m = offdiag_residue(c)
    assert w.r() <= 16
    assert m[0][2] == c.eval()


def test_offdiag_thread_scalar():
    c = as_formula(FNode.mul(X("x1"), X("x2")))
    _w, m = offdiag_residue(c, thread=Coeff.eps(1))
    assert m[0][2] == P("eps * x1*x2")


def test_offdiag_other_targets():
    c = as_formula(FNode.mul(X("x1"), X("x2")))
    for tgt in [(1, 2), (2, 1), (2, 3), (3, 1), (3, 2)]:
        w, m = offdiag_residue(c, target=tgt)
        assert m[tgt[0] - 1][tgt[1] - 1] == P("x1*x2")


def test_offdiag_rejects_bad_input():
    with pytest.raises(ValueError):
        compile_offdiag3(as_formula(X("x1")), (2, 2))
    affine = as_formula(FNode.leaf(P("x1 + 1")))
    with pytest.raises(NotIHL):
        compile_offdiag3(affine, (1, 3))
    from homlin.verify import random_arity2_circuit

    shared = random_arity2_circuit(random.Random(0), 8, 3)
    with pytest.raises(NotFormula):
        compile_offdiag3(shared, (1, 3))


def test_offdiag_random_exactness_and_bound():
    rng = random.Random(2024)
    for _ in range(30):
        t = random_ihl_formula(rng, rng.randint(1, 15), 4)
        c = as_formula(t)
        w, m = offdiag_residue(c)
        assert m[0][2] == c.eval()
        for i in range(3):
            for j in range(3):
                if (i, j) != (0, 2):
                    assert m[i][j].is_zero()
        assert w.r() <= 4 ** c.depth()


def test_offdiag_duality_minus_word():
    rng = random.Random(7)
    for _ in range(10):
        t = random_ihl_formula(rng, rng.randint(1, 9), 3)
        c = as_formula(t)
        _plus, minus = _offdiag_lists(circuit_to_tree(c), (1, 3), COEFF_ONE)
        m = expand(MatrixWord(3, minus))
        assert m[0][2] == -c.eval()
        for i in range(3):
            for j in range(3):
                if (i, j) != (0, 2):
                    want = Polynomial.const(1) if i == j else Polynomial.zero()
                    assert m[i][j] == want


def oracle_transpose_reverse(w):
    """Test oracle: the word reversed, each factor transposed; its expansion
    is the transpose of the word's."""
    factors = [{(j, i): p for (i, j), p in a.items()} for a in reversed(w.factors)]
    return MatrixWord(w.dim, factors, w.global_scalar, w.target)


def oracle_value_by_substitution(p):
    """Test oracle: a projection's value by substituting its forms into the
    family's monomial expansion; exponential in the slot count, so for small
    n only."""
    family = gen_C_comb(p.n, p.d) if p.family_tag == "C" else gen_nce_L(p.n, p.d, p.weights)
    return family.substitute(dict(zip(p.slot_names(), p.forms))).scale(p.scalar)


def test_transpose_reverse_symmetry():
    rng = random.Random(5)
    for _ in range(8):
        t = random_ihl_formula(rng, rng.randint(1, 9), 3)
        w = compile_offdiag3(as_formula(t), (1, 3))
        m = expand(w)
        mt = expand(oracle_transpose_reverse(w))
        for i in range(3):
            for j in range(3):
                assert mt[i][j] == m[j][i]


# ---------------------------------------------------------------------------
# compile_trace3
# ---------------------------------------------------------------------------


def test_trace3_single_product_gadget():
    c = as_formula(FNode.mul(X("x1"), X("x2")))
    w = compile_trace3(c)
    assert w.r() == 4
    assert w.global_scalar == Coeff.eps(-2)
    assert w.target == ("entry", 1, 1)
    entries = [p for a in w.factors for p in a.values()]
    eps = Coeff.eps(1)
    want = [
        P("x1").scale(eps), P("x2").scale(eps),
        P("-x1").scale(eps), P("-x2").scale(eps),
    ]
    assert sorted(entries, key=format_poly) == sorted(want, key=format_poly)
    assert border_value(w).eps_limit() == P("x1*x2")


def test_trace3_full_limit_is_difference_of_diagonal_entries():
    # determinant-1 factors force a trace-free limit: the value f appears at
    # (1,1) and -f at (2,2), so the (1,1) entry is the sound read-out
    c = as_formula(FNode.mul(X("x1"), X("x2")))
    w = compile_trace3(c)
    m = expand(w)
    for i in range(3):
        m[i][i] = m[i][i] - Polynomial.const(1)
    f = P("x1*x2")
    scal = Coeff.eps(-2)
    assert m[0][0].scale(scal).eps_limit() == f
    assert m[1][1].scale(scal).eps_limit() == -f
    assert m[0][1].scale(scal).eps_limit().is_zero()
    assert m[1][0].scale(scal).eps_limit().is_zero()


def test_trace3_sum_of_products():
    t = FNode.add(FNode.mul(X("x1"), X("x2")), FNode.mul(X("x3"), X("x4")))
    w = compile_trace3(as_formula(t))
    assert border_value(w).eps_limit() == P("x1*x2 + x3*x4")


def test_trace3_bare_leaf():
    c = as_formula(FNode.leaf(parse_poly("2*x1 - x2")))
    w = compile_trace3(c)
    assert w.r() == 4
    assert border_value(w).eps_limit() == P("2*x1 - x2")


def test_trace3_mixed_leaf_and_product():
    t = FNode.add(X("x1"), FNode.mul(X("x2"), X("x3")))
    w = compile_trace3(as_formula(t))
    assert border_value(w).eps_limit() == P("x1 + x2*x3")


def test_trace3_random_border():
    rng = random.Random(99)
    for _ in range(20):
        t = random_ihl_formula(rng, rng.randint(1, 12), 4)
        c = as_formula(t)
        w = compile_trace3(c)
        rep = verify_border(w, c.eval())
        assert rep.verdict, rep.witness


def test_trace3_border_verifies_a_large_word():
    c = as_formula(random_ihl_formula(random.Random(51), 51, 6))
    for name in ("brent", "ihl-formula"):
        c, _report = run_pass(name, c)
    w = compile_trace3(c)
    assert w.r() == 502
    f = c.eval()
    assert verify_border(w, f).verdict
    rep = verify_border(w, f + P("x1^2*x2"))
    assert not rep.verdict and rep.witness


# ---------------------------------------------------------------------------
# compile_continuant_odd
# ---------------------------------------------------------------------------


def test_continuant_odd_leaf():
    c = as_formula(FNode.leaf(Polynomial.variable("x1").scale(2)), "addNegCube")
    p = compile_continuant_odd(c)
    assert (p.family_tag, p.n, p.d, p.border) == ("C", 1, 1, True)
    assert p.forms == [Polynomial.variable("x1").scale(2)]
    assert p.value() == P("2*x1")  # C_{1,1}(2x1), exact without a limit


def test_continuant_odd_add_with_padding():
    c = as_formula(FNode.add(X("x1"), X("x2")), "addNegCube")
    p = compile_continuant_odd(c)
    assert p.n == 3 and p.forms[1].is_zero()  # zero form at the seam
    assert p.value().eps_limit() == P("x1 + x2")


def test_continuant_odd_negcube():
    c = as_formula(FNode.negcube(X("x1")), "addNegCube")
    p = compile_continuant_odd(c)
    assert p.d == 3
    assert p.value().eps_limit() == P("-x1^3")
    assert verify_border(p, P("-x1^3")).verdict


def test_continuant_odd_threads_scale_tags():
    inner = FNode.add(X("x1"), X("x2"))
    c = as_formula(FNode.negcube(inner, Fraction(-1, 24)), "addNegCube")
    p = compile_continuant_odd(c)
    want = (P("x1 + x2") ** 3).scale(Fraction(1, 24))
    assert p.value().eps_limit() == want


def test_continuant_odd_alpha_fully_substituted():
    c = as_formula(FNode.negcube(X("x1")), "addNegCube")
    p = compile_continuant_odd(c)
    for lf in p.forms:
        assert all(a == 0 for (_m, _e, a) in lf.terms)


def test_continuant_odd_rejects_even_degree_request():
    c = as_formula(FNode.leaf(Polynomial.variable("x1")), "addNegCube")
    with pytest.raises(NotOddDegree):
        compile_continuant_odd(c, 2)


def test_continuant_odd_rejects_wrong_basis():
    c = as_formula(FNode.mul(X("x1"), X("x2")))
    with pytest.raises(NotFormula):
        compile_continuant_odd(c)


def test_continuant_odd_random_pipeline():
    rng = random.Random(31)
    for _ in range(12):
        d = rng.choice([1, 3])
        t = random_graded_arity3_formula(rng, d, rng.randint(2, 10), 3)
        c = tree_to_circuit(t, "arity3")
        anc, _rep = to_add_negcube(c)
        p = compile_continuant_odd(anc, d)
        rep = verify_border(p, c.eval())
        assert rep.verdict, rep.witness


def test_continuant_alternation_zero_padding_invariance():
    c = as_formula(FNode.negcube(X("x1")), "addNegCube")
    p = compile_continuant_odd(c)
    padded = Projection(
        "C", p.n + 2, p.d, list(p.forms) + [Polynomial.zero()] * 2,
        p.scalar, p.border,
    )
    assert padded.value() == p.value()


def word2_invariant_holds(forms, expected):
    """Test oracle for the proven eps-precision of ``_cont_odd_word``: the
    limit of (product - id) exists and equals expected * E_upper, i.e. the
    whole 2x2 product is id + expected * E_upper mod eps^1."""
    one, zero = Polynomial.const(1), Polynomial.zero()
    m = expand(oracle_word2(forms), below=1)
    return m == [[one, expected.mod_eps(1)], [zero, one]]


# the oracle expands the whole product, whose cost grows steeply with the
# word length (seconds for one 200-factor cube word); longer words are left
# to verify_border on the projection of their formula
ORACLE_MAX_FACTORS = 120


def _subtrees(node, seen):
    if id(node) not in seen:
        seen[id(node)] = node
        for ch in node.children:
            _subtrees(ch, seen)
    return seen.values()


def test_cont_odd_word_meets_the_invariant_with_the_proven_precision():
    trees = [
        FNode.negcube(FNode.add(FNode.negcube(X("x1"), Fraction(1, 3)), X("x2")),
                      Fraction(-1, 24)),
        FNode.negcube(FNode.negcube(FNode.leaf(Polynomial.variable("x1").scale(Fraction(2, 5))))),
        FNode.add(FNode.negcube(FNode.add(X("x1"), X("x2")), Fraction(3, 2)),
                  FNode.negcube(FNode.negcube(X("x3")), Fraction(-1))),
    ]
    rng = random.Random(5)
    for d in (3, 5, 7):
        for _ in range(3):
            t = random_graded_arity3_formula(rng, d, rng.randint(3, 9), 3)
            anc, _rep = to_add_negcube(tree_to_circuit(t, "arity3"))
            trees.append(circuit_to_tree(anc))
    cubes = 0
    for tree in trees:
        for t in _subtrees(tree, {}):
            word = _cont_odd_word(t, Fraction(1))
            if len(word) > ORACLE_MAX_FACTORS:
                continue
            assert word2_invariant_holds(word, t.eval().scale(Coeff.alpha(1))), t
            cubes += t.kind == "negcube"
    assert cubes >= 200


# ---------------------------------------------------------------------------
# compile_continuant_even
# ---------------------------------------------------------------------------


def even_projection(tree, d):
    g, _rep = vf_to_v3p(as_formula(tree))
    return compile_continuant_even(g, d)


def test_continuant_even_product():
    p = even_projection(FNode.mul(X("x1"), X("x2")), 2)
    assert p.d == 2 and p.border
    assert verify_border(p, P("x1*x2")).verdict


def test_continuant_even_square():
    p = even_projection(FNode.mul(X("x1"), X("x1")), 2)
    assert verify_border(p, P("x1^2")).verdict


def test_continuant_even_sum():
    t = FNode.add(FNode.mul(X("x1"), X("x2")), FNode.mul(X("x3"), X("x4")))
    p = even_projection(t, 2)
    assert verify_border(p, P("x1*x2 + x3*x4")).verdict


def test_continuant_even_degree_four():
    t = FNode.mul(FNode.mul(X("x1"), X("x2")), FNode.mul(X("x3"), X("x4")))
    p = even_projection(t, 4)
    assert p.scalar == Coeff.eps(-4)
    assert verify_border(p, P("x1*x2*x3*x4")).verdict


def test_continuant_even_rejects_odd_degree():
    g, _ = vf_to_v3p(as_formula(FNode.mul(X("x1"), X("x2"))))
    with pytest.raises(NotEvenDegree):
        compile_continuant_even(g, 3)


def test_even_gadget_telescopes_mod_eps3():
    # (the 4-factor diagonal gadget for (a,b)) == diag(1+eps^2 ab, 1-eps^2 ab)
    # mod eps^3, and two gadgets multiply to the gadget of the sum mod eps^3
    eps = Coeff.eps(1)

    def gadget(av, bv):
        return [
            Polynomial.variable(av).scale(-eps),
            Polynomial.variable(bv).scale(-eps),
            Polynomial.variable(av).scale(eps),
            Polynomial.variable(bv).scale(eps),
        ]

    def m_of(p):
        one = Polynomial.const(1)
        e2 = Polynomial.eps(2)
        return [[one + e2 * p, Polynomial.zero()], [Polynomial.zero(), one - e2 * p]]

    m1 = expand(oracle_word2(gadget("a1", "b1")))
    want1 = m_of(P("a1*b1"))
    for i in range(2):
        for j in range(2):
            assert m1[i][j].mod_eps(3) == want1[i][j].mod_eps(3)

    both = expand(oracle_word2(gadget("a1", "b1") + gadget("a2", "b2")))
    want = m_of(P("a1*b1 + a2*b2"))
    for i in range(2):
        for j in range(2):
            assert both[i][j].mod_eps(3) == want[i][j].mod_eps(3)


# ---------------------------------------------------------------------------
# word_to_projection
# ---------------------------------------------------------------------------


def test_word_to_projection_offdiag_product():
    c = as_formula(FNode.mul(X("x1"), X("x2")))
    w = compile_offdiag3(c, (1, 3))
    p = word_to_projection(w, d=2)
    assert p.family_tag == "nceL" and p.n == w.r()
    assert len(p.forms) == 6 * p.n
    assert p.weights == L_entry(1, 3)
    assert p.value().eps_limit() == P("x1*x2")
    # cross-check against the monomial-expansion route
    assert p.value() == oracle_value_by_substitution(p)


@pytest.mark.parametrize("tree", [
    FNode.add(FNode.mul(X("x1"), X("x2")), FNode.mul(X("x3"), X("x1"))),
    FNode.mul(FNode.mul(X("x1"), X("x2")), FNode.add(X("x3"), X("x2"))),
])
def test_word_to_projection_of_an_eps_free_word_is_exact(tree):
    # e_d of the factors of id + f * E(1,3) is f * E(1,3): no eps, no limit
    c = as_formula(tree)
    f = c.eval()
    p = word_to_projection(compile_offdiag3(c, (1, 3)), d=f.degree())
    assert p.border is False and p.scalar == COEFF_ONE
    assert p.value() == f
    text = format_projection(p)
    assert text.startswith(f"projection nceL n {p.n} d {p.d} border 0\n")
    q = parse_projection(text)
    assert q.border is False and q.forms == p.forms and q.weights == p.weights
    assert format_projection(q) == text
    assert q.value() == f


def test_word_to_projection_zero_slot_padding():
    c = as_formula(FNode.mul(X("x1"), X("x2")))
    w = compile_offdiag3(c, (1, 3))
    p = word_to_projection(w, d=2)
    padded = word_to_projection(w, d=2, n=w.r() + 2)
    assert padded.n == w.r() + 2
    assert padded.value() == p.value()


def test_word_to_projection_keeps_trace3_scalar():
    c = as_formula(FNode.mul(X("x1"), X("x2")))
    w = compile_trace3(c)
    p = word_to_projection(w, d=2)
    assert p.scalar == Coeff.eps(-4)  # eps^-2 after eps -> eps^2
    assert verify_border(p, P("x1*x2")).verdict


@pytest.mark.parametrize("tag,count", [("nceL", 5), ("nceL", 7), ("C", 2)])
def test_projection_with_wrong_form_count_fails_loudly(tag, count):
    p = Projection(tag, 1, 1, [Polynomial.variable("x1")] * count)
    with pytest.raises(ValueError):
        p.value()
    with pytest.raises(ValueError):
        format_projection(p)


def test_word_to_projection_rejects_nonzero_diagonal():
    m = {(1, 1): Polynomial.variable("x1")}
    w = MatrixWord(3, [m], COEFF_ONE, entry_target(1, 1))
    with pytest.raises(DiagonalNonzero):
        word_to_projection(w, d=1)


def test_word_to_projection_names_a_constant_gadget_entry():
    # a degree-1 summand compiles to a gadget with the constant entry eps^2
    w = compile_trace3(as_formula(X("x1")))
    with pytest.raises(EntryNotHomogeneousLinear, match=r"factor 2 entry \(2,1\).*eps\^2"):
        word_to_projection(w, d=1)


def test_nce_projection_matches_family_oracle():
    # zero forms in every slot except one factor reproduces a family value
    n, d = 2, 1
    forms = []
    for i in range(1, n + 1):
        for a in range(1, 4):
            for b in range(1, 4):
                if a != b:
                    forms.append(Polynomial.variable(f"x{a}_{b}_{i}"))
    p = Projection("nceL", n, d, forms, weights=L_entry(1, 2))
    assert p.value() == gen_nce_L(n, d, L_entry(1, 2))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_word_serialization_round_trip():
    c = as_formula(FNode.add(X("x1"), FNode.mul(X("x2"), X("x3"))))
    for w in [compile_offdiag3(c, (1, 3)), compile_trace3(c)]:
        w2 = parse_word(format_word(w))
        assert w2.dim == w.dim
        assert w2.global_scalar == w.global_scalar
        assert w2.target == w.target
        assert len(w2.factors) == len(w.factors)
        assert expand_word(w2) == expand_word(w)
        assert format_word(w2) == format_word(w)


def test_projection_serialization_round_trip():
    c = as_formula(FNode.negcube(X("x1")), "addNegCube")
    p = compile_continuant_odd(c)
    p2 = parse_projection(format_projection(p))
    assert (p2.family_tag, p2.n, p2.d, p2.border) == (p.family_tag, p.n, p.d, p.border)
    assert p2.forms == p.forms and p2.scalar == p.scalar
    assert p2.value() == p.value()

    c2 = as_formula(FNode.mul(X("x1"), X("x2")))
    w = compile_trace3(c2)
    q = word_to_projection(w, d=2)
    q2 = parse_projection(format_projection(q))
    assert q2.weights is not None
    assert q2.value() == q.value()


def test_border_value_on_projection_equals_value():
    c = as_formula(FNode.negcube(X("x1")), "addNegCube")
    p = compile_continuant_odd(c)
    assert border_value(p) == p.value()


def test_word_factor_entry_given_twice_keeps_the_last_and_zero_is_absent():
    w = parse_word("dim 2\nfactor: (1,2)=x1; (1,2)=x2; (2,1)=0\nfactor: (1,2)=x1; (1,2)=0\n")
    assert w.factors == [{(0, 1): P("x2")}, {}]
    assert format_word(w) == "dim 2\nfactor: (1,2)=x2\nfactor: \nscalar: 1\ntarget: trace\n"


_WORD = "dim 3\nfactor: (1,2)=x1 * eps\nfactor: (2,1)=x2\nscalar: eps^-1\ntarget: entry(1,1)\n"


@pytest.mark.parametrize("old, new, line", [
    ("(1,2)=x1", "(0,2)=x1", 2),     # index 0 must not wrap round to row 3
    ("(2,1)=x2", "(4,1)=x2", 3),     # past dim 3
    ("(2,1)=x2", "(2,-1)=x2", 3),
    ("entry(1,1)", "entry(0,0)", 5),  # not a zero read-out, which fails verification
    ("entry(1,1)", "entry(1,4)", 5),
    ("(1,2)=x1", "(1,2,3)=x1", 2),
    ("(1,2)=x1", "1,2=x1", 2),
    ("(1,2)=x1", "(1,a)=x1", 2),
])
def test_word_indices_outside_the_matrix_are_rejected_with_line(old, new, line):
    with pytest.raises(ArtifactSyntaxError) as exc:
        parse_word(_WORD.replace(old, new))
    assert exc.value.line == line and isinstance(exc.value, ValueError)
    assert str(exc.value).startswith(f"line {line}:")


@pytest.mark.parametrize("text, line", [
    ("factor: (1,2)=x1\n", 1),                  # no dim
    ("dim 3\ndim 3\n", 2),
    ("dim 0\n", 1),
    ("dim 4\n", 1),                           # no compiler writes more than 3
    ("dim three\n", 1),
    ("dim 2\ntarget: L(1,0,0)\n", 2),           # 4 weights for dim 2
    ("dim 2\ntarget: entry(1,1\n", 2),
    ("dim 2\nfactor: (1,2)=x1 x2\n", 2),        # juxtaposed terms
    ("dim 2\nfactor: (1,2)\n", 2),
    ("dim 2\nscalar: x1\n", 2),
    ("dim 2\nwhat: 1\n", 2),
])
def test_malformed_word_lines_are_rejected_with_line(text, line):
    with pytest.raises(ArtifactSyntaxError) as exc:
        parse_word(text)
    assert exc.value.line == line


def test_word_functional_target_round_trips():
    w = MatrixWord(2, [{(0, 1): parse_poly("x1"), (1, 0): parse_poly("x2")}],
                   COEFF_ONE, ("functional", [Coeff.of(1), Coeff.of(0), Coeff.of(0),
                                              Coeff.of(Fraction(1, 2))]))
    assert format_word(parse_word(format_word(w))) == format_word(w)


_PROJ = "projection C n 2 d 1 border 1\nscalar: eps^-1\nform x1: x1 * eps\nform x2: x2 * eps\n"


@pytest.mark.parametrize("old, new, line", [
    ("C n 2", "D n 2", 1),
    ("n 2", "n 0", 1),
    ("d 1", "d -1", 1),
    ("border 1", "border 2", 1),
    ("border 1", "border", 1),
    ("n 2 d 1", "d 1 n 2", 1),
    ("form x2:", "form x3:", 4),          # no such slot: not silently dropped
    ("form x2:", "form x1:", 4),
    ("form x2:", "form x2", 4),
    ("x2 * eps\n", "x2 * eps + 1\n", 4),
    ("x2 * eps\n", "x1 * x2 * eps\n", 4),
])
def test_malformed_projection_lines_are_rejected_with_line(old, new, line):
    with pytest.raises(ArtifactSyntaxError) as exc:
        parse_projection(_PROJ.replace(old, new))
    assert exc.value.line == line


def test_projection_weights_need_nine_entries():
    text = "projection nceL n 1 d 1 border 0\nweights: 1,0,0\n"
    with pytest.raises(ArtifactSyntaxError) as exc:
        parse_projection(text)
    assert exc.value.line == 2 and "9 weights" in str(exc.value)
