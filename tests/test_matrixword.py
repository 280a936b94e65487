"""Tests for the matrix-word compilers: exact off-diagonal words, the
diagonal-functional border words, the 2x2 alternating-word border
constructions, family projections, and serialization."""

import copy
import random
from fractions import Fraction
from itertools import combinations

import pytest

from homlin.circuit import (
    ArtifactSyntaxError,
    BasisViolation,
    Circuit,
    DegreeMismatch,
    FNode,
    GradedArity3Repr,
    balanced_add,
    circuit_to_tree,
    tree_to_circuit,
)
from homlin import matrixword, transforms
from homlin.families import (
    Functional, L_entry, _Packing, family_value, gen_C_comb, slot_names,
)
from homlin.matrixword import (
    MatrixWord,
    NotEvenDegree,
    NotOddDegree,
    Projection,
    _Word,
    _cont_odd_word,
    _map_terms,
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
    target_weights,
)
from homlin.poly import (
    COEFF_ONE,
    Coeff,
    Polynomial,
    format_poly,
    parse_poly,
)
from homlin.transforms import run_pass, to_add_negcube, vf_to_v3p
from homlin.verify import verify_border
from generators import random_graded_arity3_formula, random_ihl_formula, tree_value
from test_poly import oracle_subst

ALPHA = Coeff({(0, 1): 1})


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


def mod_eps(p, k):
    """Test oracle: ``p`` with every term at or above eps^k dropped."""
    return Polynomial({key: c for key, c in p.terms.items() if key[1] < k})


def oracle_identity(k):
    one, zero = Polynomial.const(1), Polynomial.zero()
    return [[one if i == j else zero for j in range(k)] for i in range(k)]


def oracle_mat_mul(a, b):
    """Test oracle: the plain dense triple-loop product of square matrices."""
    k = len(a)
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), Polynomial.zero()) for j in range(k)]
        for i in range(k)
    ]


def oracle_word_product(factors, dim):
    """Test oracle: the product of the id + A factors, left to right."""
    one = Polynomial.const(1)
    acc = oracle_identity(dim)
    for a in factors:
        step = [[p + one if i == j else p for j, p in enumerate(row)] for i, row in enumerate(a)]
        acc = oracle_mat_mul(acc, step)
    return acc


def oracle_nce(factors, d, dim):
    """Test oracle: the elementary symmetric sum, one product per index
    subset (small n only)."""
    total = [[Polynomial.zero()] * dim for _ in range(dim)]
    for subset in combinations(range(len(factors)), d):
        prod = oracle_identity(dim)
        for i in subset:
            prod = oracle_mat_mul(prod, factors[i])
        total = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(total, prod)]
    return total


def expand(w):
    """The whole product of a word, as a dense matrix, by the dense oracle."""
    return oracle_word_product([dense(a, w.dim) for a in w.factors], w.dim)


def minus_identity(m):
    return [[p - q for p, q in zip(r1, r2)] for r1, r2 in zip(m, oracle_identity(len(m)))]


def entry_values(w, below=None):
    """(product - id) of a word, mod eps^below, entry by entry: the engine's
    value of each ``L_entry`` functional."""
    return [[expand_word(w, Functional(L_entry(i, j, w.dim), COEFF_ONE, below))
             for j in range(1, w.dim + 1)] for i in range(1, w.dim + 1)]


def matrices_equal(m, expect):
    return all(
        m[i][j] == P(expect[i][j]) for i in range(len(m)) for j in range(len(m))
    )


# ---------------------------------------------------------------------------
# word products
# ---------------------------------------------------------------------------


# each checks the dense oracle and, entry by entry, the engine


def test_expand_empty_word_is_identity():
    w = MatrixWord(3, [])
    m = expand(w)
    assert matrices_equal(m, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    assert entry_values(w) == minus_identity(m)


def test_expand_two_factor_2x2():
    w = oracle_word2([Polynomial.variable("x1"), Polynomial.variable("x2")])
    m = expand(w)
    assert matrices_equal(m, [["1 + x1*x2", "x1"], ["x2", "1"]])
    assert entry_values(w) == minus_identity(m)


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
    assert entry_values(w) == minus_identity(m)


# ---------------------------------------------------------------------------
# compile_offdiag3
# ---------------------------------------------------------------------------


def offdiag_residue(c, target=(1, 3)):
    w = compile_offdiag3(c, target)
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


def test_offdiag_lists_thread_a_scalar_through_the_left_factor():
    # compile_trace3 threads eps this way: the pair's products are
    # id +- eps * g * E(1,3), with every other entry of the residue zero
    c = as_formula(FNode.mul(X("x1"), FNode.add(X("x2"), X("x3"))))
    plus, minus = _offdiag_lists(circuit_to_tree(c), (1, 3), Coeff.eps(1))
    for factors, sign in ((plus, 1), (minus, -1)):
        m = expand(MatrixWord(3, factors))
        for i in range(3):
            for j in range(3):
                want = Polynomial.const(1) if i == j else Polynomial.zero()
                if (i, j) == (0, 2):
                    want = P("eps * x1*x2 + eps * x1*x3").scale(sign)
                assert m[i][j] == want


def test_offdiag_other_targets():
    c = as_formula(FNode.mul(X("x1"), X("x2")))
    for tgt in [(1, 2), (2, 1), (2, 3), (3, 1), (3, 2)]:
        w, m = offdiag_residue(c, target=tgt)
        assert m[tgt[0] - 1][tgt[1] - 1] == P("x1*x2")


def test_offdiag_rejects_bad_input():
    with pytest.raises(ValueError):
        compile_offdiag3(as_formula(X("x1")), (2, 2))
    affine = as_formula(FNode.leaf(P("x1 + 1")))
    with pytest.raises(BasisViolation):
        compile_offdiag3(affine, (1, 3))
    from generators import random_arity2_circuit

    shared = random_arity2_circuit(random.Random(0), 8, 3)
    with pytest.raises(BasisViolation):
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
        assert w.r() <= 4 ** c.depths()[0]


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
    family = (gen_C_comb(p.n, p.d) if p.family_tag == "C"
              else family_in_variables(p.family_tag, p.n, p.d, p.weights))
    return family.substitute(dict(zip(p.slot_names(), p.forms))).scale(p.scalar)


def family_in_variables(tag, n, d, weights=None):
    """The family ``tag`` in its own variables, read off through ``weights``
    (its default functional when None)."""
    return family_value(tag, n, d, [Polynomial.variable(v) for v in slot_names(tag, n)],
                        weights=weights)


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
    assert w.r() == 376
    f = c.eval()
    assert verify_border(w, f).verdict
    rep = verify_border(w, f + P("x1^2*x2"))
    assert not rep.verdict and rep.witness


# ---------------------------------------------------------------------------
# seam merging in the 3x3 compilers
# ---------------------------------------------------------------------------


def oracle_merged_word(factors):
    """Test oracle: one flat stack pass over a factor list.  An identity
    (empty) factor is dropped; a factor on the same single entry as the last
    one kept is added into it, and a sum that cancels is dropped, so the
    next factor meets the one below."""
    out = []
    for f in factors:
        if not f:
            continue
        if out and len(f) == 1 and out[-1].keys() == f.keys():
            ((t, a),) = out.pop().items()
            if (s := a + f[t]).terms:
                out.append({t: s})
        else:
            out.append(f)
    return out


def unmerged(compile_word, *args):
    """The word a 3x3 compiler builds in full: every seam a plain
    concatenation, a zero leaf an identity factor."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(matrixword, "_joined", lambda *lists: [f for fs in lists for f in fs])
        m.setattr(matrixword, "_e_factors",
                  lambda i, j, p: [{(i - 1, j - 1): p} if p.terms else {}])
        return compile_word(*args)


def unfolded(run, *args):
    """Test oracle: ``run(*args)`` on the route with no fold, as the passes
    ran before they folded affine leaves.  No node reads as foldable
    (``transforms._foldable``), so every sum is an add tree of its parts:
    the simplifier's and add-negcube's adds, Brent's final join,
    add-negcube's cube arguments and both sums of the IHL split."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(transforms, "_foldable", lambda n: False)
        return run(*args)


def _offdiag13(c):
    return compile_offdiag3(c, (1, 3))


def _cancelling_formula(rng, size):
    """A random arity-2 formula over the leaves +-x1 and +-x2, so that sums
    cancel and seams merge and drop factors."""
    if size <= 1:
        return FNode.var(rng.choice(("x1", "x2")), rng.choice((1, -1)))
    left = rng.randint(1, size - 1)
    op = FNode.add if rng.random() < 0.5 else FNode.mul
    return op(_cancelling_formula(rng, left), _cancelling_formula(rng, size - 1 - left))


def _seeded_formulas():
    for seed in range(30):
        rng = random.Random(seed)
        yield as_formula(random_ihl_formula(rng, rng.randint(1, 25), 4))
        yield as_formula(_cancelling_formula(rng, rng.randint(2, 12)))


def test_seam_merged_words_equal_the_flat_oracle():
    shorter = 0
    for c in _seeded_formulas():
        for compile_word in (_offdiag13, compile_trace3):
            w, full = compile_word(c), unmerged(compile_word, c)
            assert w.factors == oracle_merged_word(full.factors)
            assert all(len(a) == 1 for a in w.factors)
            assert all(a.keys() != b.keys() for a, b in zip(w.factors, w.factors[1:]))
            assert (w.global_scalar, w.target) == (full.global_scalar, full.target)
            shorter += w.r() < full.r()
    assert shorter > 30


def test_seam_merging_keeps_the_product_and_every_e_d():
    for c in _seeded_formulas():
        for compile_word in (_offdiag13, compile_trace3):
            w, full = compile_word(c), unmerged(compile_word, c)
            if full.r() <= 24:
                assert expand(w) == expand(full)
        # the offdiag3 words are exact and homogeneous linear, so they map
        # onto nceL; e_d reads every factor subset, not only the product
        w, full = _offdiag13(c), unmerged(_offdiag13, c)
        if full.r() <= 24:
            for d in (1, 2, 3):
                assert (oracle_word_to_projection(w, d).value()
                        == oracle_word_to_projection(full, d).value())


def test_a_cancelling_seam_drops_factors_and_cascades():
    # (x1 - x1) * x2 is x1, -x1, x2, -x1, x1, -x2 in full: its left lists
    # cancel, which brings x2 and -x2 together, and they cancel in turn
    zero = FNode.mul(FNode.add(X("x1"), FNode.var("x1", -1)), X("x2"))
    c = as_formula(FNode.add(X("x3"), FNode.add(zero, X("x4"))))
    assert unmerged(_offdiag13, c).r() == 8
    w = _offdiag13(c)
    assert w.factors == [{(0, 2): P("x3 + x4")}]
    assert verify_border(w, P("x3 + x4")).verdict
    # in ((-x2 * x2) * (x1 - x1)) * x2, one seam of the root's commutator
    # cancels a pair and then merges the pair behind it
    t = FNode.mul(FNode.mul(FNode.mul(FNode.var("x2", -1), X("x2")),
                            FNode.add(X("x1"), FNode.var("x1", -1))), X("x2"))
    c = as_formula(t)
    w = _offdiag13(c)
    assert w.factors == oracle_merged_word(unmerged(_offdiag13, c).factors)
    assert w.r() == 12 and verify_border(w, Polynomial.zero()).verdict
    for compile_word in (_offdiag13, compile_trace3):
        w = compile_word(as_formula(zero))
        assert w.r() == 0 and unmerged(compile_word, as_formula(zero)).r() > 0
        text = format_word(w)
        assert "factor" not in text
        w2 = parse_word(text)
        assert (w2.factors, w2.global_scalar, w2.target) == ([], w.global_scalar, w.target)
        assert format_word(w2) == text
        for word in (w, w2):
            assert verify_border(word, Polynomial.zero()).verdict
            assert not verify_border(word, P("x1*x2")).verdict


def test_merged_words_round_trip_and_verify():
    for c in _seeded_formulas():
        f = c.eval()
        for compile_word in (_offdiag13, compile_trace3):
            w = compile_word(c)
            w2 = parse_word(format_word(w))
            assert w2.factors == w.factors and format_word(w2) == format_word(w)
            assert verify_border(w2, f).verdict


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
    # the word x1, 0, x2 absorbs its seam zero into the one slot x1 + x2
    c = as_formula(FNode.add(X("x1"), X("x2")), "addNegCube")
    p = compile_continuant_odd(c)
    assert p.n == 1 and p.forms == [P("x1 + x2")]
    assert p.value() == P("x1 + x2")


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


def test_continuant_odd_rejects_an_even_degree_value():
    # an IHL add/neg-cube formula computes odd degrees only, so only a held
    # value can be of even degree
    c = as_formula(FNode.leaf(Polynomial.variable("x1")), "addNegCube")
    with pytest.raises(NotOddDegree, match="degree 2 is even"):
        compile_continuant_odd(c, P("x1^2"))


def test_continuant_odd_reads_its_degree_off_the_value(monkeypatch):
    calls = []
    eval_gates = Circuit.eval_gates
    monkeypatch.setattr(Circuit, "eval_gates", lambda c: calls.append(c) or eval_gates(c))
    cube = as_formula(FNode.negcube(FNode.add(X("x1"), X("x2"))), "addNegCube")
    assert compile_continuant_odd(cube).d == 3 and len(calls) == 1  # evaluated
    # -(x1)^3 + (x2 - x2) is not graded but computes a form of degree 3
    ungraded = as_formula(
        FNode.add(FNode.negcube(X("x1")), FNode.add(X("x2"), FNode.var("x2", -1))),
        "addNegCube")
    assert compile_continuant_odd(ungraded).d == 3 and len(calls) == 2
    # a value the caller holds replaces the evaluation
    value, calls[:] = ungraded.eval(), []
    assert compile_continuant_odd(ungraded, value).d == 3 and not calls
    # a value of two degrees is rejected, naming them, held or evaluated
    mixed = as_formula(FNode.add(FNode.negcube(X("x1")), X("x2")), "addNegCube")
    for held in (None, mixed.eval()):
        with pytest.raises(NotOddDegree, match=r"not homogeneous: degrees \[1, 3\]"):
            compile_continuant_odd(mixed, held)


def test_continuant_odd_rejects_wrong_basis():
    c = as_formula(FNode.mul(X("x1"), X("x2")))
    with pytest.raises(BasisViolation):
        compile_continuant_odd(c)


def test_continuant_odd_random_pipeline():
    rng = random.Random(31)
    for _ in range(12):
        d = rng.choice([1, 3])
        t = random_graded_arity3_formula(rng, d, rng.randint(2, 10), 3)
        c = tree_to_circuit(t, "arity3")
        anc, _rep = to_add_negcube(c)
        p = compile_continuant_odd(anc)
        assert p.d == d
        rep = verify_border(p, c.eval())
        assert rep.verdict, rep.witness


def test_continuant_compilers_reject_an_alpha_carrying_input_form():
    # alpha threads the gate scalars, so a leaf carrying it would be read as
    # one of them: x1 * alpha under a cube compiled to a projection that
    # failed verification against the formula's own value
    x1_alpha = FNode.leaf(Polynomial.variable("x1").scale(ALPHA))
    with pytest.raises(ValueError, match="gate g1's input form carries alpha"):
        compile_continuant_odd(as_formula(FNode.negcube(x1_alpha), "addNegCube"))
    with pytest.raises(ValueError, match=r"\(part for x1\): gate g1's input form"):
        even_projection(FNode.mul(x1_alpha, X("x2")), 2)


def test_continuant_compilers_reject_a_negative_eps_power_in_an_input_form():
    # the word invariant needs every error term to carry eps^e, e >= 1: a
    # cube of x1 * eps^-1 + x2 compiled to forms in eps^-4; positive eps
    # powers stay legal
    x1_neg = FNode.leaf(parse_poly("x1 * eps^-1 + x2"))
    with pytest.raises(ValueError, match="gate g1's input form has a negative eps power"):
        compile_continuant_odd(as_formula(FNode.negcube(x1_neg), "addNegCube"))
    with pytest.raises(ValueError, match=r"\(part for x1\): gate g1's input form has a neg"):
        even_projection(FNode.mul(FNode.leaf(parse_poly("x1 * eps^-1")), X("x2")), 2)
    x1_pos = FNode.leaf(parse_poly("x1 * eps^2 + x2"))
    assert compile_continuant_odd(as_formula(FNode.negcube(x1_pos), "addNegCube")).d == 3


def test_continuant_alternation_zero_padding_invariance():
    c = as_formula(FNode.negcube(X("x1")), "addNegCube")
    p = compile_continuant_odd(c)
    padded = Projection(
        "C", p.n + 2, p.d, list(p.forms) + [Polynomial.zero()] * 2,
        p.scalar, p.border,
    )
    assert padded.value() == p.value()


def word2_invariant_holds(forms, expected):
    """Test oracle for the proven eps-precision of the continuant word: the
    limit of (product - id) exists and equals expected * E_upper, i.e. the
    whole 2x2 product is id + expected * E_upper mod eps^1."""
    zero = Polynomial.zero()
    return entry_values(oracle_word2(forms), 1) == [[zero, mod_eps(expected, 1)], [zero, zero]]


# the projection-value oracle expands the whole unabsorbed word, whose cost
# grows steeply with its length (seconds for one 200-factor cube word);
# longer words are left to verify_border on the projection of their formula
ORACLE_MAX_FACTORS = 120

# the invariant check expands the absorbed word mod eps^1, at a cost that
# follows the word's terms, not its length: a cube nested in a cube takes
# about 0.05 s at 70-80 terms and 1-3 s at 110-150 terms, at 27 to 53 slots
ORACLE_MAX_TERMS = 80


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
    # the cube trees of the folded route, which the pass emits, and of the
    # unfolded one
    rng = random.Random(5)
    for d in (3, 5, 7):
        for _ in range(3):
            t = random_graded_arity3_formula(rng, d, rng.randint(3, 9), 3)
            c = tree_to_circuit(t, "arity3")
            for anc, _rep in (to_add_negcube(c), unfolded(to_add_negcube, c)):
                trees.append(circuit_to_tree(anc))
    # and small trees of the folded route, cubes of one folded leaf each at
    # d = 3 and a nested cube at d = 5
    mul3 = lambda a, b, c: FNode("mul3", (a, b, c))  # noqa: E731
    folded = [
        mul3(X("x2"), mul3(X("x1"), X("x1"), X("x3")), FNode.leaf(parse_poly("x1 + 2*x3"))),
        FNode.add(mul3(X("x1"), X("x2"), X("x3")),
                  mul3(X("x3"), X("x3"), FNode.leaf(parse_poly("x1 - x2")))),
    ]
    rng = random.Random(6)
    folded += [random_graded_arity3_formula(rng, 3, rng.randint(3, 6), 3) for _ in range(3)]
    for t in folded:
        anc, _rep = to_add_negcube(tree_to_circuit(t, "arity3"))
        trees.append(circuit_to_tree(anc))
    # a subtree recurs in each of the four cubes above it, so each distinct
    # word and value is checked once
    checked = set()
    cubes = nested = 0
    for tree in trees:
        for t in _subtrees(tree, {}):
            word = _cont_odd_word(t, Fraction(1)).forms()
            if sum(len(lf.terms) for lf in word) > ORACLE_MAX_TERMS:
                continue
            value = tree_value(t).scale(ALPHA)
            if (key := (tuple(word), value)) not in checked:
                assert_no_interior_zero(word)
                assert len(word) % 2 == 1
                assert word2_invariant_holds(word, value), t
                checked.add(key)
            if t.kind == "negcube":
                cubes += 1
                nested += any(u.kind == "negcube" for u in _subtrees(t.children[0], {}))
    assert cubes >= 400 and nested >= 60


def oracle_cont_odd_word(node, s):
    """Test oracle: the continuant word for alpha * s * eval_raw(node), built
    by substituting into whole forms at every negative cube."""
    s = s * node.scale
    if node.kind == "input":
        return [node.form.scale(ALPHA * s)]
    if node.kind == "add":
        w1 = oracle_cont_odd_word(node.children[0], s)
        w2 = oracle_cont_odd_word(node.children[1], s)
        return w1 + [Polynomial.zero()] + w2
    base = oracle_cont_odd_word(node.children[0], Fraction(1))
    # k = 2 + the sum over the absorbed base word's slots of their largest
    # alpha exponent
    k = 2 + sum(max((a for (_m, _e, a) in lf.terms), default=0)
                for lf in oracle_absorbed(base))
    block1 = [oracle_subst(lf, k, Coeff.eps(-1)) for lf in base]
    block2 = [oracle_subst(lf, 3, Coeff({(2, 1): s})) for lf in reversed(base)]
    block3 = [oracle_subst(lf, k, -Coeff.eps(-1)) for lf in base]
    return block1 + block2 + block3


# leaf scalars: rational, and carrying eps, eps^-1 or alpha
_LEAF_SCALARS = [1, 2, Fraction(-3, 5), Coeff.eps(1), Coeff.eps(-1), ALPHA,
                 Coeff({(1, 1): 2, (0, 0): 1})]
_SCALE_TAGS = [Fraction(1), Fraction(0), Fraction(-1, 24), Fraction(3, 2)]


def random_anc_tree(rng, depth):
    """A random add/neg-cube tree, unhomogeneous in general, with scale tags
    on leaves and cubes."""
    if depth == 0 or rng.random() < 0.25:
        form = Polynomial.zero()
        for v in rng.sample(["x1", "x2", "x3"], rng.randint(1, 2)):
            form = form + Polynomial.variable(v).scale(rng.choice(_LEAF_SCALARS))
        return FNode.leaf(form).scaled(rng.choice(_SCALE_TAGS))
    if rng.random() < 0.5:
        return FNode.add(random_anc_tree(rng, depth - 1), random_anc_tree(rng, depth - 1))
    return FNode.negcube(random_anc_tree(rng, depth - 1), rng.choice(_SCALE_TAGS))


def oracle_absorbed(forms):
    """Test oracle for the zero-slot absorption: rewrite the first interior
    zero slot of x, 0, y to x + y, by whole-form sums, until none is left."""
    forms = list(forms)
    while True:
        i = next((i for i in range(1, len(forms) - 1) if forms[i].is_zero()), None)
        if i is None:
            return forms
        forms[i - 1:i + 2] = [forms[i - 1] + forms[i + 1]]


def assert_no_interior_zero(forms):
    assert not any(lf.is_zero() for lf in forms[1:-1]), forms


def assert_matches_oracle(tree, s):
    """The builder's word for (tree, s), with alpha kept and under the odd
    compiler's final alpha -> 1, equals the oracle word absorbed once at the
    end, term for term; returns the unabsorbed and absorbed lengths."""
    want = oracle_cont_odd_word(tree, s)
    word = _cont_odd_word(tree, s)
    got = word.forms()
    assert got == oracle_absorbed(want), tree
    assert_no_interior_zero(got)
    assert len(got) % 2 == len(want) % 2 == 1
    assert word.mapped(1, (1, 0, 0)).forms() == oracle_absorbed(
        [oracle_subst(lf, alpha=1) for lf in want])
    return len(want), len(got)


def test_cont_odd_word_equals_the_substitution_oracle_term_for_term():
    rng = random.Random(15)
    cubes = absorbed = 0
    for _ in range(150):
        tree = random_anc_tree(rng, rng.randint(1, 4))
        full, kept = assert_matches_oracle(tree, rng.choice(_SCALE_TAGS))
        cubes += sum(t.kind == "negcube" for t in _subtrees(tree, {}))
        absorbed += full - kept
    assert cubes >= 150 and absorbed >= 1000


def test_cont_odd_word_equals_the_oracle_on_depth_five_trees():
    rng = random.Random(19)
    absorbed = 0
    for _ in range(1000):
        full, kept = assert_matches_oracle(random_anc_tree(rng, 5), rng.choice(_SCALE_TAGS))
        absorbed += full - kept
    assert absorbed >= 20000


def cube_power(tree):
    return _cont_odd_word(tree, Fraction(1)).cube_power()


def test_cube_power_sums_the_largest_alpha_exponent_of_each_absorbed_slot():
    # x1, 0, x2 absorbs to the one slot alpha * (x1 + x2): k = 2 + 1, where
    # a count of alpha-carrying terms would give 4
    assert cube_power(FNode.add(X("x1"), X("x2"))) == 3
    # a scale-0 inner cube sends alpha to 0 in its middle block, and its
    # outer blocks x1/eps, 0, -x1/eps cancel: it adds nothing to k; at
    # scale 1 its middle block carries alpha and adds 1
    assert cube_power(FNode.add(FNode.negcube(X("x1"), Fraction(0)), X("x2"))) == 3
    assert cube_power(FNode.add(FNode.negcube(X("x1")), X("x2"))) == 4
    # a slot's largest exponent counts, not its number of terms
    x2 = Polynomial.variable("x2")
    tree = FNode.add(FNode.leaf(x2.scale(Coeff.eps(1))),
                     FNode.leaf(x2.scale(ALPHA) + Polynomial.variable("x3")))
    assert cube_power(tree) == 4
    assert_matches_oracle(FNode.negcube(tree), Fraction(1))


@pytest.mark.parametrize("d, size", [(5, 40), (7, 60)])
def test_nested_cube_formulas_verify_with_one_alpha_per_carrying_slot(d, size):
    # graded formulas through brent3 nest cubes a few levels deep; their
    # leaves carry no alpha, so every slot's largest alpha exponent is 0 or 1
    c = tree_to_circuit(random_graded_arity3_formula(random.Random(d), d, size, 3), "arity3")
    anc, _rep = run_pass("add-negcube", run_pass("brent3", c)[0])
    cubes = [t for t in _subtrees(circuit_to_tree(anc), {}) if t.kind == "negcube"]
    assert len(cubes) >= 20
    for cube in cubes:
        base = _cont_odd_word(cube.children[0], Fraction(1))
        alphas = [max((a for (_m, _e, a) in lf.terms), default=0) for lf in base.forms()]
        assert max(alphas) == 1
        assert base.cube_power() == 2 + sum(alphas)
    f = c.eval()
    p = compile_continuant_odd(anc)
    assert p.d == d and verify_border(p, f).verdict
    assert not verify_border(p, f + Polynomial.variable("x1") ** d).verdict


def test_join_absorbs_at_the_seam_and_cascades_while_sums_cancel():
    def word(*slots):
        w = _Word()
        w.slots = [dict(t) for t in slots]
        return w

    x, y, z = ((((v, 1),), 0, 0) for v in ("x1", "x2", "x3"))
    # x, y, 0 | 0 | -y, z: the pad closes 0, 0 -> 0 + (-y); y - y cancels,
    # which closes x, 0, z -> x + z
    w = word({x: 1}, {y: 1}, {})
    w.join(word({}, {y: -1}, {z: 1}))
    assert w.slots == [{x: 1, z: 1}]
    # x | y, 0: the pad is absorbed, and the end slot 0 stays
    w = word({x: 1})
    w.join(word({y: 1}, {}))
    assert w.slots == [{x: 1, y: 1}, {}]
    # 0 | y, z: the first word's end slot 0 is now interior and absorbs too
    w = word({})
    w.join(word({y: 1}, {z: 1}))
    assert w.slots == [{y: 1}, {z: 1}]


def test_map_terms_sums_the_terms_a_ring_map_sends_to_one_key():
    m = (("x1", 1),)
    terms = {(m, 0, 0): 2, (m, 1, 2): Fraction(1, 3), (m, 0, 1): -1}
    # eps -> eps^2, alpha -> -eps^-1: eps^1 alpha^2 and eps^0 alpha^0 meet at eps^0
    assert _map_terms(terms, 2, (-1, -1, 0)) == {
        (m, 0, 0): Fraction(7, 3), (m, -1, 0): 1}
    # alpha -> 1 can cancel a slot to zero
    assert _map_terms({(m, 0, 0): 1, (m, 0, 1): -1}, 1, (1, 0, 0)) == {}
    # a zero image keeps only the alpha-free terms
    assert _map_terms(terms, 3, (0, 2, 1)) == {(m, 0, 0): 2}


def test_absorbed_projection_has_the_full_value_of_the_unabsorbed_word():
    # x, 0, y -> x + y leaves e_d unchanged at every d: the compiled
    # projection's exact value, eps and alpha included, equals the oracle
    # word's term for term, for words whose leaves carry eps, eps^-1 and alpha
    rng = random.Random(17)
    checked = absorbed = 0
    while checked < 60:
        tree = random_anc_tree(rng, rng.randint(1, 4))
        s = rng.choice(_SCALE_TAGS)
        want = oracle_cont_odd_word(tree, s)
        if len(want) > ORACLE_MAX_FACTORS:
            continue
        got = _cont_odd_word(tree, s).forms()
        for d in (1, 2, 3, 4, 5):
            assert (Projection("C", len(got), d, got).value()
                    == Projection("C", len(want), d, want).value()), (tree, d)
        checked += 1
        absorbed += len(want) - len(got)
    assert absorbed >= 400


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


@pytest.mark.parametrize("names, n", [(["x1"] * 8, 308), (["x1", "x2", "x3", "x4"] * 2, 1520)])
def test_continuant_even_of_a_degree_8_monomial_has_pinned_size(names, n):
    # each part is a degree-7 monomial, its mul3 products nested
    # ceil(log_3 7) = 2 deep; n grows about 6x with each extra level
    f = P("*".join(names))
    p = even_projection(balanced_add([X(v) for v in names], FNode.mul), 8)
    assert p.n == n
    assert verify_border(p, f).verdict
    assert not verify_border(p, f + P("x1^8")).verdict


def test_continuant_even_rejects_odd_degree():
    g, _ = vf_to_v3p(as_formula(FNode.mul(X("x1"), X("x2"))))
    with pytest.raises(NotEvenDegree):
        compile_continuant_even(g, 3)


def _even_part(tree):
    return GradedArity3Repr(Polynomial.zero(), {}, {2: {"x1": tree_to_circuit(tree, "arity3")}})


def test_continuant_even_rejects_a_part_with_a_constant_leaf():
    # such a part once compiled to a projection whose forms parse_projection
    # refuses, since they are not homogeneous linear
    g = _even_part(FNode.leaf(P("x2 + 1")))
    with pytest.raises(BasisViolation) as exc:
        compile_continuant_even(g, 2)
    assert str(exc.value) == ("compile_continuant_even (part for x1) expects an IHL circuit "
                              "(gate g1: leaf has a constant part)")


def test_continuant_even_rejects_a_part_of_the_wrong_degree():
    # the degree-2 component's parts must be of degree 1
    g = _even_part(FNode.add(X("x2"), FNode("mul3", (X("x1"), X("x2"), X("x3")))))
    with pytest.raises(DegreeMismatch) as exc:
        compile_continuant_even(g, 2)
    assert str(exc.value) == "compile_continuant_even (part for x1) computes degrees [1, 3], not 1"


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
            assert mod_eps(m1[i][j], 3) == mod_eps(want1[i][j], 3)

    both = expand(oracle_word2(gadget("a1", "b1") + gadget("a2", "b2")))
    want = m_of(P("a1*b1 + a2*b2"))
    for i in range(2):
        for j in range(2):
            assert mod_eps(both[i][j], 3) == mod_eps(want[i][j], 3)


# ---------------------------------------------------------------------------
# word -> nceL projection (a test oracle)
# ---------------------------------------------------------------------------


def oracle_word_to_projection(w, d):
    """Test oracle: a 3x3 word with zero-diagonal, homogeneous linear factor
    entries as an nceL projection at degree d.  Each factor's six
    off-diagonal entries fill one factor's slots and the word's scalar is
    kept apart (no d-th root is taken).  A word that carries eps maps under
    eps -> eps^d, its scalar too, to a border projection; an eps-free word,
    as every ``compile_offdiag3`` word, maps as it is to an exact one."""
    border = any(e for (e, _a) in w.global_scalar.terms) or any(
        e for a in w.factors for p in a.values() for (_m, e, _a) in p.terms)
    zero = Polynomial.zero()
    forms = [a.get((i, j), zero) for a in w.factors for i in range(3) for j in range(3) if i != j]
    scalar = w.global_scalar
    if border:
        forms = [oracle_subst(p, d) for p in forms]
        scalar = oracle_subst(scalar.to_poly(), d).constant_part()
    return Projection("nceL", w.r(), d, forms, scalar, border=border,
                      weights=target_weights(w.target, 3))


def test_word_to_projection_offdiag_product():
    c = as_formula(FNode.mul(X("x1"), X("x2")))
    w = compile_offdiag3(c, (1, 3))
    p = oracle_word_to_projection(w, d=2)
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
    p = oracle_word_to_projection(compile_offdiag3(c, (1, 3)), d=f.degree())
    assert p.border is False and p.scalar == COEFF_ONE
    assert p.value() == f
    text = format_projection(p)
    assert text.startswith(f"projection nceL n {p.n} d {p.d} border 0\n")
    q = parse_projection(text)
    assert q.border is False and q.forms == p.forms and q.weights == p.weights
    assert format_projection(q) == text
    assert q.value() == f


def test_word_to_projection_keeps_trace3_scalar():
    c = as_formula(FNode.mul(X("x1"), X("x2")))
    w = compile_trace3(c)
    p = oracle_word_to_projection(w, d=2)
    assert p.scalar == Coeff.eps(-4)  # eps^-2 after eps -> eps^2
    assert verify_border(p, P("x1*x2")).verdict


@pytest.mark.parametrize("tag,count", [("nceL", 5), ("nceL", 7), ("C", 2)])
def test_projection_with_wrong_form_count_fails_loudly(tag, count):
    p = Projection(tag, 1, 1, [Polynomial.variable("x1")] * count)
    with pytest.raises(ValueError):
        p.value()
    with pytest.raises(ValueError):
        format_projection(p)


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
    assert p.value() == family_in_variables("nceL", n, d, L_entry(1, 2))


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
        assert entry_values(w2) == entry_values(w)
        assert format_word(w2) == format_word(w)


def _shared_words():
    """Words whose factor lists share factor dicts between positions, as
    the commutator gadgets of both 3x3 compilers do."""
    words = []
    for seed in range(4):
        c = as_formula(random_ihl_formula(random.Random(seed), 9 + 4 * seed, 3))
        words += [(c, compile_trace3(c)), (c, compile_offdiag3(c, (1, 3)))]
    assert any(len({id(f) for f in w.factors}) < w.r() for _c, w in words)
    return words


def _unshared(w):
    """The word with every factor copied on its own: no two positions share
    a factor dict or an entry."""
    return MatrixWord(w.dim, [copy.deepcopy(f) for f in w.factors], w.global_scalar, w.target)


def _distinct_factor_lines(text):
    return {line for line in text.splitlines() if line.startswith("factor:")}


def test_shared_factors_format_and_parse_like_unshared_ones():
    for c, w in _shared_words():
        flat = _unshared(w)
        text = format_word(w)
        assert text == format_word(flat)
        parsed = parse_word(text)
        assert len({id(f) for f in parsed.factors}) == len(_distinct_factor_lines(text))
        assert parsed.factors == flat.factors
        for k in (None, 1):
            assert border_value(parsed, k) == border_value(flat, k) == border_value(w, k)
        f = c.eval()
        assert verify_border(parsed, f).verdict and verify_border(flat, f).verdict
        assert not verify_border(parsed, f + P("x1")).verdict
        assert not verify_border(flat, f + P("x1")).verdict


def test_shared_factors_pack_like_unshared_ones():
    # the compilers' factors hold one entry each; a shared factor with
    # several, which reads and writes a row, takes the column-table branch
    m = {(0, 0): P("x1"), (0, 1): P("1/2 * x2 * eps"), (1, 1): P("x3 * eps^-1")}
    words = [w for _c, w in _shared_words()] + [MatrixWord(2, [m, {(1, 0): P("x1")}, m, m])]
    for w in words:
        for count in (1, w.r()):
            a, b = _Packing(w.factors, count, 2), _Packing(_unshared(w).factors, count, 2)
            assert [a.records[i] for i in a.index] == [b.records[i] for i in b.index]
            assert (a.scale, a.ceiling) == (b.scale, b.ceiling)
            assert ((a.layout.fields, a.layout.alpha_shift, a.layout.shift)
                    == (b.layout.fields, b.layout.alpha_shift, b.layout.shift))


def test_a_key_field_holds_the_count_largest_position_maxima():
    # a product of two terms from different positions reaches, per field,
    # the sum of the two largest per-position maxima, plus the functional's
    # alpha; a factor held at two positions counts twice
    a, b = {(0, 1): P("x1^5 + x2 * alpha^2")}, {(1, 0): P("x1")}
    layout = _Packing([a, b, a], 2, 1).layout
    # x1: 5 + 5 in 4 bits, x2: 1 + 1 in 2, alpha: 2 + 2 + 1 in 3
    assert layout.fields == [("x1", 0, 15), ("x2", 4, 3)]
    assert (layout.alpha_shift, layout.shift) == (6, 9)
    layout = _Packing([a, b], 2, 1).layout
    # x1: 5 + 1 in 3 bits, x2: 1 in 1, alpha: 2 + 1 in 2; twice the largest
    # maximum would take 4, 2 and 3
    assert layout.fields == [("x1", 0, 7), ("x2", 3, 1)]
    assert (layout.alpha_shift, layout.shift) == (4, 6)


def _counted(monkeypatch, name):
    calls = []
    fn = getattr(matrixword, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(matrixword, name, counted)
    return calls


def test_the_codec_handles_each_distinct_entry_once(monkeypatch):
    formatted, parsed = _counted(monkeypatch, "format_poly"), _counted(monkeypatch, "parse_poly")
    for _c, w in _shared_words():
        formatted.clear()
        text = format_word(w)
        assert len(formatted) == sum(len(f) for f in {id(f): f for f in w.factors}.values())
        parsed.clear()
        parse_word(text)
        lines = _distinct_factor_lines(text)
        assert len(parsed) == sum(line.count("=") for line in lines)


def test_projection_serialization_round_trip():
    c = as_formula(FNode.negcube(X("x1")), "addNegCube")
    p = compile_continuant_odd(c)
    p2 = parse_projection(format_projection(p))
    assert (p2.family_tag, p2.n, p2.d, p2.border) == (p.family_tag, p.n, p.d, p.border)
    assert p2.forms == p.forms and p2.scalar == p.scalar
    assert p2.value() == p.value()

    c2 = as_formula(FNode.mul(X("x1"), X("x2")))
    w = compile_trace3(c2)
    q = oracle_word_to_projection(w, d=2)
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


@pytest.mark.parametrize("text, line", [
    (_WORD + "scalar: 3\n", 6),
    (_WORD + "target: trace\n", 6),
    (_WORD.replace("target: entry(1,1)\n", "target: trace\ntarget: entry(1,1)\n"), 6),
], ids=["scalar", "target", "target-then-entry"])
def test_a_repeated_word_directive_is_rejected_with_line(text, line):
    # the last of the two once won without a word
    with pytest.raises(ArtifactSyntaxError, match="given twice") as exc:
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


_C_WITH_WEIGHTS = "weights: 0,0,0,0,0,0,0,0,0\n"


@pytest.mark.parametrize("text, line", [
    ("projection C n 3 d 1 border 1\n" + _C_WITH_WEIGHTS + "form x1: x1\nform x3: x3\n", 2),
    (_C_WITH_WEIGHTS + "projection C n 3 d 1 border 1\nform x1: x1\n", 1),
])
def test_a_C_projection_takes_no_weights(text, line):
    # a C projection's value reads C_WEIGHTS: weights on it would be printed
    # back by format_projection and ignored by the value
    with pytest.raises(ArtifactSyntaxError, match="takes no weights") as exc:
        parse_projection(text)
    assert exc.value.line == line
    p = Projection("C", 3, 1, [P("x1"), Polynomial.zero(), P("x3")], weights=[[0] * 3] * 3)
    with pytest.raises(ValueError, match="takes no weights"):
        p.value()


@pytest.mark.parametrize("text, line", [
    (_PROJ.replace("scalar: eps^-1\n", "scalar: 2\nscalar: eps^-1\n"), 3),
    ("projection nceL n 1 d 1 border 0\n" + 2 * ("weights: " + ",".join("1" * 9) + "\n"), 3),
], ids=["scalar", "weights"])
def test_a_repeated_projection_directive_is_rejected_with_line(text, line):
    # the last of the two once won without a word
    with pytest.raises(ArtifactSyntaxError, match="given twice") as exc:
        parse_projection(text)
    assert exc.value.line == line


def test_projection_weights_need_nine_entries():
    text = "projection nceL n 1 d 1 border 0\nweights: 1,0,0\n"
    with pytest.raises(ArtifactSyntaxError) as exc:
        parse_projection(text)
    assert exc.value.line == 2 and "9 weights" in str(exc.value)
