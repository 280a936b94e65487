"""Tests for every source-to-source pass: fixed examples, semantic
preservation on random instances, validity transport, and bound audits."""

import math
import random
from fractions import Fraction

import pytest

from homlin.circuit import (
    BasisViolation,
    Circuit,
    CycleError,
    DegreeMismatch,
    FNode,
    Gate,
    GradedArity3Repr,
    parse_circuit,
    print_circuit,
    tree_to_circuit,
)
from homlin.matrixword import (
    compile_continuant_even,
    compile_continuant_odd,
    compile_trace3,
    format_projection,
)
from homlin.poly import Coeff, Polynomial, format_coeff, format_poly, parse_poly
from homlin import transforms
from homlin.verify import verify_border
from homlin.transforms import (
    PASS_NAMES,
    NeedsRootExtraction,
    brent_arity3,
    brent_formula,
    derivative_formula,
    formula_from_poly,
    frontier,
    input_homogenize_circuit,
    input_homogenize_formula,
    parity_homogenize,
    rescale_formula,
    run_pass,
    simplify,
    to_add_negcube,
    vf_to_v3p,
    vsbr_arity3,
    _brent,
    _descendants,
    _separator_steps,
    _subst_path,
)
from generators import (
    _random_linear,
    random_arity2_circuit,
    random_caterpillar,
    random_formula,
    random_graded_arity3_circuit,
    random_graded_arity3_formula,
    random_ihl_formula,
    tree_value,
)
from test_acceptance import oracle_bracket_poly, oracle_reassemble
from test_matrixword import unfolded

X1 = Polynomial.variable("x1")
X2 = Polynomial.variable("x2")
X3 = Polynomial.variable("x3")
X4 = Polynomial.variable("x4")
X5 = Polynomial.variable("x5")


def leaf(name, c=1):
    return FNode.var(name, c)


def const(c):
    return FNode.leaf(Polynomial.const(c))


def as_formula(tree, basis="arity2"):
    return tree_to_circuit(tree, basis)


# ---------------------------------------------------------------------------
# rescale
# ---------------------------------------------------------------------------


def test_rescale_leaf():
    out, rep = rescale_formula(as_formula(leaf("x1")), 3)
    assert out.eval() == 3 * X1
    assert rep.bound_satisfied


def test_rescale_mul_left_child_convention():
    out, _ = rescale_formula(as_formula(FNode.mul(leaf("x1"), leaf("x2"))), 2)
    assert out.eval() == 2 * X1 * X2
    first_leaf = out.gates[0]
    assert first_leaf.kind == "input"
    assert first_leaf.form == Polynomial.variable("x1").scale(2)


def test_rescale_add_both_children():
    out, _ = rescale_formula(as_formula(FNode.add(leaf("x1"), leaf("x2"))), -1)
    assert out.eval() == -(X1 + X2)
    assert all(
        g.form in (Polynomial.variable("x1").scale(-1), Polynomial.variable("x2").scale(-1))
        for g in out.gates
        if g.kind == "input"
    )


def test_rescale_negcube_needs_root_extraction():
    t = FNode.negcube(leaf("x1"))
    c = tree_to_circuit(t, "addNegCube")
    with pytest.raises(NeedsRootExtraction):
        rescale_formula(c, 2)


def test_rescale_keeps_gate_scale_tags():
    c = parse_circuit(
        "shape formula\nbasis addNegCube\n"
        "gate g1 = input x1 scale 2\ngate g2 = input x2\n"
        "gate g3 = add g1 g2 scale 1/3\noutput g3\n"
    )
    out, rep = rescale_formula(c, 5)
    assert out.eval() == Fraction(10, 3) * X1 + Fraction(5, 3) * X2
    assert out.eval() == c.eval() * 5
    assert rep.bound_satisfied


def test_rescale_random_semantics():
    rng = random.Random(11)
    for _ in range(50):
        t = random_formula(rng, rng.randint(1, 60), 4)
        a = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
        c = as_formula(t)
        out, rep = rescale_formula(c, a)
        assert out.eval() == c.eval() * a
        assert rep.bound_satisfied


# ---------------------------------------------------------------------------
# brent (arity 2)
# ---------------------------------------------------------------------------


def test_brent_single_leaf_unchanged():
    c = as_formula(leaf("x1"))
    out, rep = brent_formula(c)
    assert out.eval() == X1
    assert out.size() == 1


def test_brent_add_comb_64_leaves():
    t = leaf("x1")
    expected = X1
    for i in range(2, 65):
        t = FNode.add(t, leaf(f"x{i}"))
        expected = expected + Polynomial.variable(f"x{i}")
    c = as_formula(t)
    assert c.depths()[0] == 63
    out, rep = brent_formula(c)
    assert out.eval() == expected
    assert out.depths()[0] <= 2 * math.log(c.size(), 1.5) + 4
    assert rep.bound_satisfied
    assert all(st["withinTwoThirds"] for st in rep.details["recursionSteps"])


def test_brent_mul_comb():
    t = leaf("x1")
    for i in range(2, 30):
        t = FNode.mul(leaf(f"x{i % 4 + 1}"), t)
    c = as_formula(t)
    out, rep = brent_formula(c)
    assert out.eval() == c.eval()
    assert rep.bound_satisfied


def test_brent_random_semantics_and_bound():
    rng = random.Random(23)
    for _ in range(50):
        c = as_formula(random_formula(rng, rng.randint(1, 60), 4))
        out, rep = brent_formula(c)
        assert out.eval() == c.eval()
        assert rep.bound_satisfied
        assert all(st["withinTwoThirds"] for st in rep.details["recursionSteps"])


def test_brent_and_ihl_on_a_repeated_subtree():
    # one node under both children of the root: the separator is the first
    # occurrence, and zeroing it must leave the second one in place
    m = FNode.mul(FNode.leaf(parse_poly("x1 + 1")), leaf("x2"))
    t = FNode.add(m, m)
    assert tree_value(_brent(t, [])) == 2 * (X1 + Polynomial.const(1)) * X2
    c0, hat = transforms._ihl_pair(t)
    assert c0.is_zero() and tree_value(hat) == 2 * (X1 + Polynomial.const(1)) * X2


# ---------------------------------------------------------------------------
# inputHomogenizeFormula
# ---------------------------------------------------------------------------


def test_ihl_formula_strips_constant():
    t = FNode.add(FNode.mul(leaf("x1"), leaf("x2")), const(3))
    out, _ = input_homogenize_formula(as_formula(t))
    assert out.eval() == X1 * X2
    assert out.ihl_defect() is None


def test_ihl_formula_affine_product():
    t = FNode.mul(
        FNode.leaf(parse_poly("x1 + 1")),
        FNode.leaf(parse_poly("x2 + 2")),
    )
    out, _ = input_homogenize_formula(as_formula(t))
    assert out.eval() == parse_poly("x1*x2 + 2*x1 + x2")
    assert out.ihl_defect() is None


def test_ihl_formula_constant_is_zero():
    out, _ = input_homogenize_formula(as_formula(const(5)))
    assert out.eval().is_zero()
    assert out.ihl_defect() is None


def test_ihl_formula_random_semantics():
    rng = random.Random(37)
    for _ in range(50):
        c = as_formula(random_formula(rng, rng.randint(1, 60), 4))
        out, rep = input_homogenize_formula(c)
        f = c.eval()
        assert out.eval() == f - f.constant_part().to_poly()
        assert out.ihl_defect() is None
        assert rep.bound_satisfied


@pytest.mark.parametrize("form", ["2*x1 + 7", "x1 + 2*eps^-1 - alpha", "x1 - x2 + eps^2*alpha"])
@pytest.mark.parametrize("run", [input_homogenize_formula, input_homogenize_circuit],
                         ids=["ihl-formula", "ihl-circuit"])
def test_ihl_passes_subtract_a_leaf_constant_that_carries_eps(run, form):
    c = parse_circuit(f"gate g1 = input {form}\ngate g2 = input x2 + eps\n"
                      "gate g3 = mul g1 g2\noutput g3\n")
    out, _ = run(c)
    f = c.eval()
    assert out.eval() == f - f.homog_component(0)
    assert out.ihl_defect() is None


# ---------------------------------------------------------------------------
# inputHomogenizeCircuit
# ---------------------------------------------------------------------------


def test_ihl_circuit_strips_constant():
    g = Gate("g1", "input", form=parse_poly("2*x1 + 7"))
    c = Circuit([g], "g1", "circuit", "arity2")
    out, rep = input_homogenize_circuit(c)
    assert out.eval() == 2 * X1
    assert out.ihl_defect() is None
    assert rep.bound_satisfied


def test_ihl_circuit_shared_square():
    g1 = Gate("g1", "input", form=parse_poly("x1 + 1"))
    g2 = Gate("g2", "mul", children=("g1", "g1"))
    c = Circuit([g1, g2], "g2", "circuit", "arity2")
    out, _ = input_homogenize_circuit(c)
    assert out.eval() == X1 * X1 + 2 * X1
    assert out.ihl_defect() is None


def test_ihl_circuit_random_semantics_and_bounds():
    rng = random.Random(41)
    for _ in range(50):
        c = random_arity2_circuit(rng, rng.randint(2, 60), 4)
        out, rep = input_homogenize_circuit(c)
        f = c.eval()
        assert out.eval() == f - f.constant_part().to_poly()
        assert out.ihl_defect() is None
        assert out.size() <= 6 * c.size()
        assert out.depths()[0] <= 3 * c.size()
        assert rep.bound_satisfied


# ---------------------------------------------------------------------------
# toAddNegCube
# ---------------------------------------------------------------------------


def test_cube_identity():
    x, y, z = X1, X2, X3
    lhs = (x + y + z) ** 3 - (x + y - z) ** 3 - (x - y + z) ** 3 + (x - y - z) ** 3
    assert lhs == 24 * x * y * z


def test_add_negcube_single_mul3():
    t = FNode("mul3", (leaf("x1"), leaf("x2"), leaf("x3")))
    c = tree_to_circuit(t, "arity3")
    out, rep = to_add_negcube(c)
    assert out.basis == "addNegCube"
    assert out.eval() == X1 * X2 * X3
    assert out.ihl_defect() is None
    assert rep.bound_satisfied


def test_add_negcube_leaf_unchanged():
    c = tree_to_circuit(leaf("x1"), "arity3")
    out, _ = to_add_negcube(c)
    assert out.size() == 1
    assert out.eval() == X1


def test_add_negcube_random_semantics():
    rng = random.Random(43)
    for _ in range(50):
        d = rng.choice([1, 3, 3, 5])
        t = random_graded_arity3_formula(rng, d, rng.randint(2 * d, 40), 4)
        c = tree_to_circuit(t, "arity3")
        out, rep = to_add_negcube(c)
        assert out.eval() == c.eval()
        assert out.basis == "addNegCube"
        assert out.ihl_defect() is None
        assert rep.bound_satisfied


# ---------------------------------------------------------------------------
# folding affine sums into one leaf
# ---------------------------------------------------------------------------


def kinds(c):
    return [g.kind for g in c.gates]


def test_add_negcube_of_a_leaf_level_product_is_eleven_gates():
    c = tree_to_circuit(FNode("mul3", (leaf("x1"), leaf("x2", 2), leaf("x3"))), "arity3")
    out, rep = to_add_negcube(c)
    assert out.size() == 11 and unfolded(to_add_negcube, c)[0].size() == 27
    assert kinds(out).count("input") == 4 and kinds(out).count("negcube") == 4
    assert out.eval() == 2 * X1 * X2 * X3
    assert out.ihl_defect() is None and rep.bound_satisfied
    # each cube argument is one unscaled leaf, x1 +- 2*x2 +- x3
    args = {g.form for g in out.gates if g.kind == "input"}
    assert args == {X1 + 2 * X2 + X3, X1 + 2 * X2 - X3, X1 - 2 * X2 + X3, X1 - 2 * X2 - X3}
    assert all(g.scale is None for g in out.gates if g.kind == "input")


def test_add_negcube_fold_keeps_the_value_and_never_grows():
    rng = random.Random(331)
    smaller = 0
    for _ in range(40):
        d = rng.choice([1, 3, 3, 5])
        t = random_graded_arity3_formula(rng, d, rng.randint(2 * d, 40), 4)
        c = tree_to_circuit(t, "arity3")
        out, rep = to_add_negcube(c)
        base, _ = unfolded(to_add_negcube, c)
        assert out.eval() == c.eval()
        assert out.ihl_defect() is None and rep.bound_satisfied
        assert out.size() <= base.size()
        smaller += out.size() < base.size()
    assert smaller > 20


def test_a_cancelling_run_stays_unfolded():
    # mul3(x1, x1, x1 + x1): add-negcube folds the sum to the leaf 2*x1, and
    # the cube argument x1 + x1 - 2*x1 cancels, so it stays an add tree
    c = tree_to_circuit(FNode("mul3", (leaf("x1"), leaf("x1"), FNode.add(leaf("x1"), leaf("x1")))),
                        "arity3")
    out, _ = to_add_negcube(c)
    assert out.eval() == 2 * X1 ** 3
    assert out.ihl_defect() is None
    assert all(g.form.terms for g in out.gates if g.kind == "input")
    # three cubes of one leaf, 4*x1, 2*x1 and -2*x1, and one of the five
    # gates x1 + x1 - 2*x1: 15 gates, where the unfolded route took 35
    args = [out.by_id[g.children[0]] for g in out.gates if g.kind == "negcube"]
    assert sorted(a.kind for a in args) == ["add", "input", "input", "input"]
    assert out.size() == 15 and unfolded(to_add_negcube, c)[0].size() == 35
    # the IHL split of (x1 + 1) + -x1: x1 and -x1 stay two leaves
    pair = FNode.add(FNode.leaf(X1 + Polynomial.const(1)), leaf("x1", -1))
    c0, hat = transforms._ihl_pair(pair)
    assert c0 == Coeff.of(1) and kinds(as_formula(hat)) == ["input", "input", "add"]
    assert as_formula(hat).ihl_defect() is None and tree_value(hat).is_zero()
    # ihl-formula's Brent folds that sum to the leaf 1 first, so its IHL
    # part is the zero formula
    out, _ = input_homogenize_formula(as_formula(pair))
    assert kinds(out) == ["input"] and out.eval().is_zero()


def test_ihl_split_folds_linear_sums_into_one_leaf():
    # (x1 + x2) + 3*x3 and (x1 + 1) * (x2 + 2): the degree-1 sum
    # 2*x1 + x2 of the product is one leaf too
    c = as_formula(FNode.add(FNode.add(leaf("x1"), leaf("x2")), leaf("x3", 3)))
    out, _ = input_homogenize_formula(c)
    assert kinds(out) == ["input"] and out.eval() == X1 + X2 + 3 * X3
    t = FNode.mul(FNode.leaf(X1 + Polynomial.const(1)), FNode.leaf(X2 + Polynomial.const(2)))
    out, _ = input_homogenize_formula(as_formula(t))
    assert kinds(out) == ["input", "input", "mul", "input", "add"]
    assert out.gates[3].form == 2 * X1 + X2


def graded_arity2_formula(rng, d, n_vars):
    """A seeded arity-2 formula homogeneous of degree ``d``, with IHL
    leaves; its degree-1 parts are often sums of leaves."""
    if d == 1:
        if rng.random() < 0.4:
            return FNode.add(graded_arity2_formula(rng, 1, n_vars),
                             graded_arity2_formula(rng, 1, n_vars))
        return FNode.leaf(_random_linear(rng, n_vars))
    if rng.random() < 0.3:
        return FNode.add(graded_arity2_formula(rng, d, n_vars),
                         graded_arity2_formula(rng, d, n_vars))
    k = rng.randint(1, d - 1)
    return FNode.mul(graded_arity2_formula(rng, k, n_vars),
                     graded_arity2_formula(rng, d - k, n_vars))


def _odd_projection(c):
    return compile_continuant_odd(to_add_negcube(brent_arity3(c)[0])[0])


def _even_projection(c, d):
    return compile_continuant_even(vf_to_v3p(c)[0], d)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_odd_continuant_projections_are_byte_identical_to_the_unfolded_route(d):
    rng = random.Random(700 + d)
    for _ in range(6):
        t = random_graded_arity3_formula(rng, d, rng.randint(2 * d, 24 - d), 4)
        c = tree_to_circuit(t, "arity3")
        assert (format_projection(_odd_projection(c))
                == format_projection(unfolded(_odd_projection, c)))


@pytest.mark.parametrize("d", [2, 4])
def test_even_continuant_projections_are_byte_identical_to_the_unfolded_route(d):
    rng = random.Random(800 + d)
    for _ in range(8):
        c = as_formula(graded_arity2_formula(rng, d, 4))
        assert (format_projection(_even_projection(c, d))
                == format_projection(unfolded(_even_projection, c, d)))


def _trace3_word(c):
    return compile_trace3(input_homogenize_formula(brent_formula(c)[0])[0])


def test_trace3_words_of_the_folded_split_verify_and_are_no_longer_on_25_seeded_formulas():
    """On these 25 seeded formulas of at most 14 nodes the folded route's
    words are never longer than the unfolded route's.  That is no general
    property: Brent's separators read node counts, so on the words of
    ``random_ihl_formula(Random(s), s, 6)`` the folded route is longer at
    s = 26 (r 94 -> 96) and s = 236 (r 1,256 -> 1,644), among others."""
    rng = random.Random(977)
    shorter = 0
    for _ in range(25):
        c = as_formula(random_formula(rng, rng.randint(1, 14), 3))
        f = c.eval()
        f = f - f.homog_component(0)
        w, base = _trace3_word(c), unfolded(_trace3_word, c)
        assert w.r() <= base.r()
        shorter += w.r() < base.r()
        assert verify_border(w, f).verdict
        assert not verify_border(w, f + X1 ** 2).verdict
    assert shorter > 5


def seeded_fold_runs(seed, n):
    """(pass, input, IHL promised) for each pass that folds affine sums, on
    ``n`` seeded arity-2 and graded arity-3 formulas."""
    rng = random.Random(seed)
    for _ in range(n):
        c2 = as_formula(random_formula(rng, rng.randint(1, 80), 4))
        d = rng.choice([1, 3, 5, 7])
        t3 = random_graded_arity3_formula(rng, d, rng.randint(2 * d, 60), 4)
        c3 = tree_to_circuit(t3, "arity3")
        yield brent_formula, c2, False
        yield input_homogenize_formula, c2, True
        yield brent_arity3, c3, True
        yield to_add_negcube, c3, True


def test_folded_passes_keep_the_value_and_shrink():
    # add-negcube folds subtree by subtree, so it never grows.  Brent's
    # separator walk reads sizes, so a smaller B can move a later separator
    # and split a product over a sum: one brent3 output here grows from 30
    # to 31 gates (over 800 draws per pass, one brent3 and one ihl-formula
    # output grew, by at most 3.3%)
    smaller = dict.fromkeys(("brent", "ihl-formula", "brent3", "add-negcube"), 0)
    total = {name: [0, 0] for name in smaller}
    for run, c, ihl in seeded_fold_runs(409, 40):
        out, rep = run(c)
        base, _ = unfolded(run, c)
        assert out.eval() == base.eval()
        assert rep.bound_satisfied
        assert not ihl or out.ihl_defect() is None
        if rep.pass_name == "add-negcube":
            assert out.size() <= base.size()
        assert out.size() <= 1.05 * base.size()
        smaller[rep.pass_name] += out.size() < base.size()
        total[rep.pass_name][0] += out.size()
        total[rep.pass_name][1] += base.size()
    assert min(smaller.values()) >= 20, smaller
    assert all(folded < 0.85 * base for folded, base in total.values()), total


def affine_values(c):
    """The value of each gate of the formula ``c`` (no edge scalars) that
    reads only input and add gates."""
    val = {}
    for g in c.gates:
        tag = g.scale if g.scale is not None else 1
        if g.kind == "input":
            val[g.id] = g.form.scale(tag)
        elif g.kind == "add" and all(ch in val for ch in g.children):
            a, b = g.children
            val[g.id] = (val[a] + val[b]).scale(tag)
    return val


def leaf_sums(c):
    """The add gates of ``c`` over two input gates."""
    return [g.id for g in c.gates
            if g.kind == "add" and all(c.by_id[ch].kind == "input" for ch in g.children)]


def unfolded_leaf_sums(c):
    """The add gates over two input gates that a fold would have made one
    leaf: a fold keeps a sum that cancels as a whole, so an add of two
    leaves stays only when it, or an all-affine sum above it, is zero."""
    val = affine_values(c)
    parent = {ch: g.id for g in c.gates if g.kind == "add" and g.id in val for ch in g.children}
    left = []
    for x in leaf_sums(c):
        gid = x
        while not val[x].is_zero() and x in parent:
            x = parent[x]
        if not val[x].is_zero():
            left.append(gid)
    return left


def test_no_pass_output_holds_a_sum_of_two_leaves_that_does_not_cancel():
    held = 0
    for run, c, _ihl in seeded_fold_runs(83, 40):
        out, _rep = run(c)
        assert unfolded_leaf_sums(out) == [], run.__name__
        held += len(unfolded_leaf_sums(unfolded(run, c)[0]))
    assert held >= 100  # the check sees the sums the unfolded route keeps
    # a run that cancels is kept: x1 + x1 - 2*x1 in add-negcube, x3 - x3
    # at Brent's size-3 base case
    t = FNode("mul3", (leaf("x1"), leaf("x1"), FNode.add(leaf("x1"), leaf("x1"))))
    out, _rep = to_add_negcube(tree_to_circuit(t, "arity3"))
    assert len(leaf_sums(out)) == 1 and unfolded_leaf_sums(out) == []
    out, _rep = brent_formula(as_formula(FNode.add(leaf("x3"), leaf("x3", -1))))
    assert leaf_sums(out) == ["g3"] and unfolded_leaf_sums(out) == []


def test_a_cancelling_sum_in_brents_b_is_the_zero_formula():
    pair = FNode.add(leaf("x3"), leaf("x3", -1))
    assert simplify(pair) is None
    # the separator is the product, so B = pair, which simplifies to zero:
    # the output is the product alone, each of its sums one leaf
    prod = FNode.mul(FNode.add(leaf("x1"), leaf("x2")), FNode.add(leaf("x2"), leaf("x4")))
    c = as_formula(FNode.add(prod, pair))
    out, rep = brent_formula(c)
    assert out.eval() == (X1 + X2) * (X2 + X4)
    assert rep.details["recursionSteps"][0]["pieces"] == [7]
    assert kinds(out) == ["input", "input", "mul"]
    base, _ = unfolded(brent_formula, c)
    assert base.size() == 11 and "x3" in print_circuit(base)


def value_at(c, point):
    """Test oracle: the exact value of an eps- and alpha-free formula
    without edge scalars at ``point``, a map from variable names to
    integers, gate by gate."""
    val = {}
    for g in c.gates:
        kids = [val[ch] for ch in g.children]
        if g.kind == "input":
            v = sum(coef * math.prod(point[x] ** k for x, k in mono)
                    for (mono, _e, _a), coef in g.form.terms.items())
        elif g.kind == "add":
            v = sum(kids)
        elif g.kind == "negcube":
            v = -kids[0] ** 3
        else:  # a mul or mul3
            v = math.prod(kids)
        val[g.id] = v if g.scale is None else g.scale * v
    return val[c.output_id]


@pytest.mark.parametrize("spine", [40, 150, 400])
def test_brent_bounds_hold_on_caterpillars(spine):
    rng = random.Random(spine)
    points = [{f"x{i}": rng.randint(-3, 3) for i in range(1, 5)} for _ in range(2)]
    for run, ops, basis in ((brent_formula, ("add", "mul"), "arity2"),
                            (brent_arity3, ("add", "mul3"), "arity3")):
        c = tree_to_circuit(random_caterpillar(rng, spine, ops, 4, basis == "arity2"), basis)
        assert c.depths()[0] == spine
        out, rep = run(c)
        assert rep.bound_satisfied and rep.details["allStepsWithinTwoThirds"]
        assert all(value_at(out, p) == value_at(c, p) for p in points)
        assert basis == "arity2" or out.ihl_defect() is None
        assert unfolded_leaf_sums(out) == []
        assert out.size() <= unfolded(run, c)[0].size()


# ---------------------------------------------------------------------------
# parityHomogenize
# ---------------------------------------------------------------------------


def test_parity_splits_components():
    t = FNode.add(leaf("x1"), FNode.mul(leaf("x1"), leaf("x2")))
    pair, rep = parity_homogenize(as_formula(t))
    assert pair.odd.eval() == X1
    assert pair.even.eval() == X1 * X2
    assert rep.bound_satisfied


def test_parity_homogeneous_odd_has_no_even_root():
    t = FNode.mul(FNode.mul(leaf("x1"), leaf("x2")), leaf("x3"))
    pair, _ = parity_homogenize(as_formula(t))
    assert pair.even is None
    assert pair.odd.eval() == X1 * X2 * X3


def test_parity_requires_ihl():
    t = FNode.add(leaf("x1"), const(2))
    with pytest.raises(BasisViolation):
        parity_homogenize(as_formula(t))


def test_parity_random_semantics():
    rng = random.Random(47)
    for _ in range(50):
        c = as_formula(random_ihl_formula(rng, rng.randint(1, 40), 4))
        pair, rep = parity_homogenize(c)
        total = Polynomial.zero()
        for part, parity in ((pair.odd, 1), (pair.even, 0)):
            if part is None:
                continue
            p = part.eval()
            total = total + p
            assert all(d % 2 == parity for d in p.homog_degrees())
            assert part.ihl_defect() is None
        assert total == c.eval()
        assert rep.bound_satisfied


def test_parity_report_takes_the_largest_part_mul_depth():
    # add(mul(mul(x1, x2), x3), x1): one odd part, of mulDepth 2
    t = FNode.add(FNode.mul(FNode.mul(leaf("x1"), leaf("x2")), leaf("x3")), leaf("x1"))
    pair, rep = parity_homogenize(as_formula(t))
    assert pair.even is None
    assert rep.output_metrics == {"size": pair.odd.size(), "depth": pair.odd.depths()[0],
                                  "mulDepth": pair.odd.depths()[1]}
    assert rep.output_metrics["mulDepth"] == 2


def test_parity_audit_flags_a_gate_that_mixes_parities(monkeypatch):
    # x1 + x1*x2 mixes an odd and an even component at its root
    mixed = FNode.add(leaf("x1"), FNode.mul(leaf("x1"), leaf("x2")))
    monkeypatch.setattr(transforms, "_parity_tree", lambda node: (mixed, None))
    _pair, rep = parity_homogenize(as_formula(leaf("x1")))
    assert not rep.bound_satisfied


# ---------------------------------------------------------------------------
# derivativeFormula
# ---------------------------------------------------------------------------


def test_derivative_product():
    t = FNode.mul(leaf("x1"), leaf("x2"))
    out, _ = derivative_formula(as_formula(t), "x1")
    assert out.eval() == X2


def test_derivative_absent_variable_is_zero():
    t = FNode.add(leaf("x1"), leaf("x2"))
    out, _ = derivative_formula(as_formula(t), "x3")
    assert out.eval().is_zero()


def test_derivative_square_depth():
    t = FNode.mul(leaf("x1"), FNode.mul(leaf("x1"), leaf("x2")))
    c = as_formula(t)
    out, rep = derivative_formula(c, "x1")
    assert out.eval() == 2 * X1 * X2
    assert out.depths()[0] <= 2 * c.depths()[0]
    assert rep.bound_satisfied


def test_derivative_random_against_poly_oracle():
    rng = random.Random(53)
    for _ in range(50):
        c = as_formula(random_formula(rng, rng.randint(1, 60), 4))
        v = f"x{rng.randint(1, 4)}"
        out, rep = derivative_formula(c, v)
        assert out.eval() == c.eval().partial_derivative(v)
        assert out.depths()[0] <= 2 * c.depths()[0]
        assert rep.bound_satisfied


# ---------------------------------------------------------------------------
# brentArity3
# ---------------------------------------------------------------------------


def test_brent3_small_sum_is_one_leaf_unless_it_cancels():
    out, _ = brent_arity3(tree_to_circuit(FNode.add(leaf("x1"), leaf("x2")), "arity3"))
    assert kinds(out) == ["input"] and out.eval() == X1 + X2
    c = tree_to_circuit(FNode.add(leaf("x1"), leaf("x1", -1)), "arity3")
    out, _ = brent_arity3(c)
    assert print_circuit(out) == print_circuit(c)


def test_brent3_deep_mul3_comb():
    t = FNode("mul3", (leaf("x1"), leaf("x2"), leaf("x3")))
    for i in range(12):
        t = FNode("mul3", (t, leaf(f"x{i % 3 + 1}"), leaf(f"x{(i + 1) % 3 + 1}")))
    c = tree_to_circuit(t, "arity3")
    out, rep = brent_arity3(c)
    assert out.eval() == c.eval()
    assert out.depths()[0] <= 2 * math.log(c.size(), 1.5) + 4
    assert rep.bound_satisfied
    assert rep.details["allStepsWithinTwoThirds"]


def test_brent3_random_semantics_and_depth():
    rng = random.Random(59)
    for _ in range(50):
        d = rng.choice([3, 5, 7])
        t = random_graded_arity3_formula(rng, d, rng.randint(2 * d, 60), 4)
        c = tree_to_circuit(t, "arity3")
        out, rep = brent_arity3(c)
        assert out.eval() == c.eval()
        assert out.depths()[0] <= 2 * math.log(max(c.size(), 2), 1.5) + 4
        assert out.ihl_defect() is None
        assert out.basis == "arity3"
        assert out.syntactic_degrees()[out.output_id] == d
        assert rep.details["allStepsWithinTwoThirds"]


def _replace_nodes(node, repl):
    """``node`` with the subtrees whose ids key ``repl`` replaced; an identity
    walk is valid here because the generated trees share no subtree."""
    if id(node) in repl:
        return repl[id(node)]
    kids = tuple(_replace_nodes(ch, repl) for ch in node.children)
    return FNode(node.kind, kids, node.form, node.scale)


def oracle_brent_linearization(tree):
    """Test oracle for the linearization of ``_brent``: find the separator
    ``v`` and the lowest product ``p`` on the path to it, and return (v, X,
    F1, F0).  ``X`` is ``p``'s siblings of the path but the last: none for a
    binary product, one for a ternary one.  F1 is the formula with ``v`` and
    ``X`` set to 1, F0 with ``v`` set to 0, both realized through the
    simplifier rules.  None in the additions-only case."""
    steps, v = _separator_steps(tree)
    pidx = next((i for i in reversed(range(len(steps))) if steps[i][0].kind != "add"), None)
    if pidx is None:
        return None
    p_node, pci = steps[pidx]
    xs = [i for i in range(len(p_node.children)) if i != pci][:-1]
    one = const(1)
    p1 = FNode(p_node.kind, tuple(one if i in xs else ch for i, ch in enumerate(p_node.children)),
               scale=p_node.scale)
    f1 = _subst_path(steps[:pidx] + [(p1, pci)] + steps[pidx + 1:], one)
    f0 = _subst_path(steps, None)
    return v, [p_node.children[i] for i in xs], f1, f0


def _check_linearization(tree):
    """F(a) == a*(F(1) - F(0)) + F(0) over a binary product, and
    F(a, b) == a*b*(F(1,1) - F(0,0)) + F(0,0) over a ternary one, with fresh
    variables a, b substituted for the separator and ``X``; False in the
    additions-only case."""
    res = oracle_brent_linearization(tree)
    if res is None:
        return False
    v, xs, f1, f0 = res
    fresh = dict(zip([id(v)] + [id(x) for x in xs], ["a", "b"]))
    lhs = tree_value(_replace_nodes(tree, {k: FNode.var(name) for k, name in fresh.items()}))
    p1 = tree_value(f1) if f1 is not None else Polynomial.zero()
    p0 = tree_value(f0) if f0 is not None else Polynomial.zero()
    factor = Polynomial.const(1)
    for name in fresh.values():
        factor = factor * Polynomial.variable(name)
    assert lhs == factor * (p1 - p0) + p0
    return True


def test_brent_linearization_identity():
    rng = random.Random(61)
    checked = 0
    while checked < 20:
        t = random_formula(rng, rng.randint(12, 40), 3)
        checked += _check_linearization(t)


def test_brent3_linearization_identity():
    rng = random.Random(61)
    checked = 0
    while checked < 20:
        d = rng.choice([3, 5])
        checked += _check_linearization(random_graded_arity3_formula(rng, d, rng.randint(12, 40), 3))


@pytest.mark.parametrize("tree", [leaf("x1"), FNode.add(leaf("x1"), leaf("x2"))])
def test_brent3_linearization_without_a_product_is_none(tree):
    assert oracle_brent_linearization(tree) is None


# ---------------------------------------------------------------------------
# vfToV3p
# ---------------------------------------------------------------------------


def test_vf_to_v3p_even_degree_two():
    t = FNode.mul(leaf("x1"), leaf("x2"))
    repr_, rep = vf_to_v3p(as_formula(t))
    assert rep.bound_satisfied
    assert set(repr_.even_parts) == {2}
    assert repr_.even_parts[2]["x1"].eval() == X2
    assert repr_.even_parts[2]["x2"].eval() == X1
    assert oracle_reassemble(repr_) == X1 * X2


def test_vf_to_v3p_odd_single_mul3():
    t = FNode.mul(FNode.mul(leaf("x1"), leaf("x2")), leaf("x3"))
    repr_, _ = vf_to_v3p(as_formula(t))
    assert set(repr_.odd_parts) == {3}
    part = repr_.odd_parts[3]
    assert part.eval() == X1 * X2 * X3
    assert part.basis == "arity3"
    assert part.ihl_defect() is None


def test_vf_to_v3p_mixed_degrees():
    t = FNode.add(leaf("x1"), FNode.mul(FNode.mul(leaf("x1"), leaf("x2")), leaf("x3")))
    repr_, _ = vf_to_v3p(as_formula(t))
    assert set(repr_.odd_parts) == {1, 3}
    assert repr_.odd_parts[1].eval() == X1
    assert repr_.odd_parts[3].eval() == X1 * X2 * X3
    assert oracle_reassemble(repr_) == X1 + X1 * X2 * X3


def graded_parts(repr_, f):
    """(part, polynomial it must compute, degree of that polynomial) for
    each stored part of ``repr_``, the graded form of ``f``."""
    for d, part in repr_.odd_parts.items():
        yield part, f.homog_component(d), d
    for d, per in repr_.even_parts.items():
        fd = f.homog_component(d)
        assert set(per) == fd.variables()
        for v, part in per.items():
            yield part, fd.partial_derivative(v), d - 1


def test_vf_to_v3p_random_reassembly():
    # each part is formula_from_poly of its polynomial, spliced: a degree-k
    # polynomial of T terms is a tree of 2kT - 1 nodes, and the splice
    # emits at most one gate per node
    rng = random.Random(67)
    linear = 0
    for _ in range(60):
        c = as_formula(random_formula(rng, rng.randint(1, 24), 3))
        f = c.eval()
        repr_, rep = vf_to_v3p(c)
        assert oracle_reassemble(repr_) == f
        ok, reason = repr_.validate()
        assert ok and rep.bound_satisfied, reason
        for part, p, k in graded_parts(repr_, f):
            assert part.eval() == p
            assert part.size() <= 2 * k * len(p.terms) - 1
            assert_spliced(part)
        if 1 in repr_.odd_parts:
            linear += 1
            assert kinds(repr_.odd_parts[1]) == ["input"]
    assert linear >= 20


def test_every_vf_to_v3p_part_is_a_formula_that_brent3_and_add_negcube_take():
    # each part is written with its real shape, so the arity-3 formula route
    # runs on it: brent3, then add-negcube, each keeping the value and its bound
    rng = random.Random(151)
    parts = 0
    for _ in range(25):
        c = as_formula(random_formula(rng, rng.randint(1, 16), 3))
        f = c.eval()
        repr_, _rep = vf_to_v3p(c)
        for part, p, _k in graded_parts(repr_, f):
            assert part.shape == "formula"
            balanced, rep3 = brent_arity3(part)
            anc, rep_anc = to_add_negcube(balanced)
            assert rep3.bound_satisfied and rep_anc.bound_satisfied
            assert balanced.eval() == anc.eval() == p
            parts += 1
    assert parts >= 60


def test_the_parity_split_is_the_identity_on_a_homogeneous_odd_polynomial():
    # why vf-to-v3p splices formula_from_poly's tree with no parity split
    rng = random.Random(139)
    seen = 0
    for _ in range(40):
        f = as_formula(random_formula(rng, rng.randint(1, 24), 3)).eval()
        for d in f.homog_degrees():
            if d % 2 == 1:
                t = formula_from_poly(f.homog_component(d))
                assert transforms._parity_tree(t) == (t, None)
                seen += 1
    assert seen >= 40


def count_evals(monkeypatch):
    """The circuits whose gates are evaluated from now on, in call order."""
    calls = []
    eval_gates = Circuit.eval_gates
    monkeypatch.setattr(Circuit, "eval_gates", lambda self: calls.append(self) or eval_gates(self))
    return calls


def test_vf_to_v3p_parts_are_evaluated_once_through_continuant_even(monkeypatch):
    calls = count_evals(monkeypatch)
    t = FNode.add(FNode.mul(leaf("x1"), leaf("x2")), FNode.mul(leaf("x3"), leaf("x4")))
    repr_, rep = vf_to_v3p(as_formula(t))
    compile_continuant_even(repr_, 2)
    parts = list(repr_.even_parts[2].values())
    assert rep.bound_satisfied and len(parts) == 4
    # the input once, then each part once: validate and the compiler share it
    assert len(calls) == 1 + len(parts)
    assert sorted(map(id, calls[1:])) == sorted(map(id, parts))
    # a later read at another degree is still checked
    with pytest.raises(DegreeMismatch):
        repr_.part_value(parts[0], "part", 3)
    assert len(calls) == 1 + len(parts)


def test_a_hand_built_graded_repr_is_checked_when_first_read(monkeypatch):
    calls = count_evals(monkeypatch)
    part = tree_to_circuit(FNode("mul3", (leaf("x1"), leaf("x2"), leaf("x3"))), "arity3")
    affine = tree_to_circuit(FNode.leaf(parse_poly("x1 + 1")), "arity3")
    good = GradedArity3Repr(Polynomial.zero(), {}, {4: {"x1": part}})
    compile_continuant_even(good, 4)
    assert good.validate() == (True, "")
    assert calls == [part]
    bad = GradedArity3Repr(Polynomial.zero(), {}, {2: {"x1": affine}})
    for _ in range(2):  # a part that fails its check is never stored
        with pytest.raises(BasisViolation):
            compile_continuant_even(bad, 2)
    assert calls == [part]


def assert_spliced(part):
    """The splice emits only gates the output reads, in the arity-3 IHL kinds."""
    assert len(transforms._restrict_reachable(part.gates, part.output_id)) == part.size()
    assert {g.kind for g in part.gates} <= {"input", "add", "mul3"}


def _odd_ihl_formula(rng):
    while True:
        odd = transforms._parity_tree(random_ihl_formula(rng, rng.randint(1, 8), 4))[0]
        if odd is not None:
            return odd


def test_splice_of_an_even_times_odd_product():
    # with a, b and c odd, (a*b)*c is an even fragment times an odd one: the
    # fragment's mul3 reads c's gate as its z, and c is spliced after a and b
    rng = random.Random(73)
    for _ in range(20):
        a, b, c = _odd_ihl_formula(rng), _odd_ihl_formula(rng), _odd_ihl_formula(rng)
        tree = FNode.mul(FNode.mul(a, b), c)
        assert transforms._parity_tree(tree) == (tree, None)
        part = transforms._odd_tree_to_arity3(tree, ())
        assert part.eval() == tree_value(tree)
        assert_spliced(part)


def test_formula_from_poly_round_trip():
    rng = random.Random(71)
    for _ in range(20):
        p = as_formula(random_formula(rng, rng.randint(1, 20), 3)).eval()
        t = formula_from_poly(p)
        got = tree_value(t) if t is not None else Polynomial.zero()
        assert got == p


# ---------------------------------------------------------------------------
# vsbrArity3
# ---------------------------------------------------------------------------


def test_vsbr_nested_mul3():
    t = FNode("mul3", (
        FNode("mul3", (leaf("x1"), leaf("x2"), leaf("x3"))), leaf("x4"), leaf("x5")
    ))
    c = tree_to_circuit(t, "arity3")
    out, rep = vsbr_arity3(c)
    assert out.eval() == X1 * X2 * X3 * X4 * X5
    assert out.basis == "arity3"
    assert out.ihl_defect() is None
    assert "fittedC" in rep.details


def test_vsbr_shared_gate_degree_nine():
    g1 = Gate("g1", "input", form=Polynomial.variable("x1"))
    g2 = Gate("g2", "input", form=Polynomial.variable("x2"))
    g3 = Gate("g3", "input", form=Polynomial.variable("x3"))
    g4 = Gate("g4", "mul3", children=("g1", "g2", "g3"))
    g5 = Gate("g5", "mul3", children=("g4", "g4", "g4"))
    c = Circuit([g1, g2, g3, g4, g5], "g5", "circuit", "arity3")
    assert c.syntactic_degrees()["g5"] == 9
    out, _ = vsbr_arity3(c)
    assert out.eval() == c.eval()


def test_bracket_self_is_z():
    t = FNode("mul3", (leaf("x1"), leaf("x2"), leaf("x3")))
    c = tree_to_circuit(t, "arity3")
    assert oracle_bracket_poly(c, c.output_id, c.output_id) == Polynomial.variable("z")


def test_bracket_outside_subcircuit_is_zero():
    g1 = Gate("g1", "input", form=Polynomial.variable("x1"))
    g2 = Gate("g2", "input", form=Polynomial.variable("x2"))
    g3 = Gate("g3", "input", form=Polynomial.variable("x3"))
    g4 = Gate("g4", "mul3", children=("g1", "g2", "g3"))
    c = Circuit([g1, g2, g3, g4], "g4", "circuit", "arity3")
    # g4 is not below g1
    assert oracle_bracket_poly(c, "g1", "g4").is_zero()


def _z_subst(p, q):
    return p.substitute({"z": q})


def test_vsbr_usum_lemma_random():
    rng = random.Random(73)
    samples = 0
    while samples < 30:
        d = rng.choice([3, 5, 7])
        c = random_graded_arity3_circuit(rng, d, rng.randint(8, 28), 3)
        deg = c.syntactic_degrees()
        vals = c.eval_gates()
        candidates = [g.id for g in c.gates if deg[g.id] > 1]
        if not candidates:
            continue
        u = rng.choice(candidates)
        m = rng.randint(1, deg[u] - 1)
        desc = _descendants(c)
        acc = Polynomial.zero()
        for w in frontier(c, deg, m):
            if w not in desc[u]:
                continue
            acc = acc + _z_subst(oracle_bracket_poly(c, u, w), vals[w])
        assert acc == vals[u], (u, m)
        samples += 1


def test_vsbr_uvsum_lemma_random():
    rng = random.Random(79)
    samples = 0
    while samples < 30:
        d = rng.choice([5, 7])
        c = random_graded_arity3_circuit(rng, d, rng.randint(10, 28), 3)
        deg = c.syntactic_degrees()
        desc = _descendants(c)
        pairs = [
            (g.id, v)
            for g in c.gates
            for v in desc[g.id]
            if deg[g.id] - deg[v] >= 2
        ]
        if not pairs:
            continue
        u, v = rng.choice(pairs)
        m = rng.randint(deg[v], deg[u] - 1)
        lhs = oracle_bracket_poly(c, u, v)
        acc = Polynomial.zero()
        for w in frontier(c, deg, m):
            if w not in desc[u]:
                continue
            acc = acc + _z_subst(oracle_bracket_poly(c, u, w), oracle_bracket_poly(c, w, v))
        assert acc == lhs, (u, v, m)
        samples += 1


def test_vsbr_random_semantics():
    rng = random.Random(83)
    for _ in range(50):
        d = rng.choice([3, 5])
        c = random_graded_arity3_circuit(rng, d, rng.randint(6, 30), 3)
        out, rep = vsbr_arity3(c)
        assert out.eval() == c.eval()
        assert out.basis == "arity3"
        assert out.ihl_defect() is None
        out.syntactic_degrees()  # raises DegreeMismatch unless graded
        assert rep.details["fittedC"] >= 0


def test_vsbr_high_degree_semantics_and_shared_inner_sums():
    # at these degrees a bracket's middle child w2 often has degree > 1;
    # its value is U(w2), built once and shared, not rebuilt per bracket
    for seed in range(12):
        for d in (15, 17, 19, 21):
            c = random_graded_arity3_circuit(random.Random(seed), d, 30 * d, 4)
            out, _rep = vsbr_arity3(c)
            assert out.eval() == c.eval(), (seed, d)
    c = random_graded_arity3_circuit(random.Random(2), 19, 570, 4)
    assert vsbr_arity3(c)[0].size() <= 40


# ---------------------------------------------------------------------------
# simplifier and registry
# ---------------------------------------------------------------------------


def test_simplify_rules():
    # ternary product with a zero factor vanishes
    t = FNode("mul3", (leaf("x1"), const(0), leaf("x2")))
    assert simplify(t) is None
    # addition with a zero child collapses
    t = FNode.add(leaf("x1"), const(0))
    assert tree_value(simplify(t)) == X1
    # two constant-1 factors drop out
    t = FNode("mul3", (const(1), const(1), leaf("x2")))
    assert tree_value(simplify(t)) == X2
    # an addition of two leaves is one leaf, tags and all, or zero
    t = FNode("add", (leaf("x1"), leaf("x2").scaled(2)), scale=Fraction(1, 3))
    assert simplify(t) == FNode.leaf(X1.scale(Fraction(1, 3)) + X2.scale(Fraction(2, 3)))
    assert simplify(FNode.add(leaf("x1", 2), leaf("x1").scaled(-2))) is None


def oracle_subst_path(steps, repl):
    """Reference for ``_subst_path``: rebuild every node on the path with
    ``repl`` (None = 0) at its end, then simplify the whole rebuilt tree."""
    cur = const(0) if repl is None else repl
    for n, ci in reversed(steps):
        cur = FNode(n.kind, n.children[:ci] + (cur,) + n.children[ci + 1:], scale=n.scale)
    return simplify(cur)


# gate kinds of each basis's inner nodes; addNegCube nodes carry scale tags
INNER_KINDS = {"arity2": ("add", "mul"), "arity3": ("add", "mul3"),
               "addNegCube": ("add", "negcube")}


def random_simplifiable_tree(rng, basis, size):
    """A tree of ``basis`` with zero and constant-1 leaves among affine ones,
    and random scale tags in the addNegCube basis."""
    scale = Fraction(rng.choice([1, 1, 2, -1]), rng.choice([1, 3])) if basis == "addNegCube" else 1
    if size <= 1:
        form = rng.choice([Polynomial.zero(), Polynomial.const(1), X1,
                           X2 + Polynomial.const(1), X3.scale(2)])
        return FNode("input", form=form, scale=scale)
    kind = rng.choice(INNER_KINDS[basis])
    arity = {"add": 2, "mul": 2, "mul3": 3, "negcube": 1}[kind]
    cuts = sorted(rng.randint(0, size - 1) for _ in range(arity - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [size - 1])]
    kids = tuple(random_simplifiable_tree(rng, basis, max(k, 1)) for k in sizes)
    return FNode(kind, kids, scale=scale)


def _random_steps(rng, t):
    """A path of (node, child index) steps from the root to a random node."""
    steps = []
    while t.children and rng.random() < 0.85:
        ci = rng.randrange(len(t.children))
        steps.append((t, ci))
        t = t.children[ci]
    return steps


def test_separator_steps_enter_the_first_of_the_largest_children():
    pair = FNode.add(leaf("x1"), leaf("x2"))
    t = FNode("mul3", (leaf("x3"), pair, FNode.mul(leaf("x4"), leaf("x5"))))
    assert [ci for _n, ci in _separator_steps(t)[0]] == [1]
    assert [ci for _n, ci in _separator_steps(FNode.mul(pair, pair))[0]] == [0]


@pytest.mark.parametrize("basis", sorted(INNER_KINDS))
def test_simplify_keeps_the_value(basis):
    rng = random.Random(41)
    for _ in range(100):
        t = random_simplifiable_tree(rng, basis, rng.randint(1, 25))
        s = simplify(t)
        for point in ({"x1": 2, "x2": -1, "x3": 3}, {"x1": -3, "x2": 5, "x3": 1}):
            want = value_at(tree_to_circuit(t, basis), point)
            assert (0 if s is None else value_at(tree_to_circuit(s, basis), point)) == want


@pytest.mark.parametrize("basis", sorted(INNER_KINDS))
def test_subst_path_matches_rebuilding_then_simplifying(basis):
    rng = random.Random(97)
    one = const(1)
    for _ in range(150):
        t = random_simplifiable_tree(rng, basis, rng.randint(1, 40))
        for steps in (_separator_steps(t)[0], _random_steps(rng, t)):
            for repl in (None, one):
                assert _subst_path(steps, repl) == oracle_subst_path(steps, repl)


def oracle_depths(c):
    """Reference for ``Circuit.depths``: (depth, mulDepth) of the output by
    a sweep of every gate, each gate's pair from its children's."""
    depth, mul = {}, {}
    for g in c.gates:
        if g.children:
            depth[g.id] = 1 + max(depth[ch] for ch in g.children)
            mul[g.id] = (g.kind in ("mul", "mul3", "negcube")) + max(
                mul[ch] for ch in g.children)
        else:
            depth[g.id] = mul[g.id] = 0
    return depth[c.output_id], mul[c.output_id]


def oracle_metrics(c):
    """Size, depth and mulDepth of ``c`` by ``oracle_depths``, independent
    of what the constructor recorded."""
    depth, mul_depth = oracle_depths(c)
    return {"size": c.size(), "depth": depth, "mulDepth": mul_depth}


@pytest.mark.parametrize("basis", sorted(INNER_KINDS))
def test_tree_metrics_match_the_circuit_sweep(basis):
    # a node's size and depth are those of the formula it spells out
    rng = random.Random(101)
    for _ in range(60):
        stack = [random_simplifiable_tree(rng, basis, rng.randint(1, 40))]
        while stack:
            t = stack.pop()
            c = tree_to_circuit(t, basis)
            assert (t.size(), t.depth()) == (c.size(), oracle_depths(c)[0])
            stack.extend(t.children)


def random_gate_list(rng, basis):
    """Gates of ``basis`` (shape circuit) where a gate may be read by several
    later ones, with edge scalars on some additions and, in the addNegCube
    basis, scale tags."""
    gates = [Gate(f"g{k}", "input", form=X1.scale(k)) for k in range(1, rng.randint(2, 5))]
    for _ in range(rng.randint(0, 40)):
        kind = rng.choice(INNER_KINDS[basis])
        arity = {"add": 2, "mul": 2, "mul3": 3, "negcube": 1}[kind]
        kids = tuple(rng.choice(gates).id for _ in range(arity))
        edges = (Coeff.of(2), Coeff.of(-1)) if kind == "add" and rng.random() < 0.3 else None
        scale = Fraction(rng.choice([2, -1]), 3) if basis == "addNegCube" and rng.random() < 0.3 else None
        gates.append(Gate(f"g{len(gates) + 1}", kind, kids, edges, None, scale))
    return gates


@pytest.mark.parametrize("basis", sorted(INNER_KINDS))
def test_the_constructor_records_the_depths_of_a_gate_sweep(basis):
    rng = random.Random(127)
    for _ in range(150):
        gates = random_gate_list(rng, basis)
        # every gate as the output: the gates after it are unread, yet counted
        for g in gates:
            c = Circuit(gates, g.id, "circuit", basis)
            assert c.depths() == oracle_depths(c)
            assert transforms._metrics(c) == oracle_metrics(c)
            assert c.size() == len(gates)
    for c in [random_arity2_circuit(rng, rng.randint(2, 60), 4) for _ in range(30)] + [
            random_graded_arity3_circuit(rng, rng.choice([3, 5, 7]), rng.randint(5, 40), 3)
            for _ in range(30)]:
        assert transforms._metrics(c) == oracle_metrics(c)
        assert parse_circuit(print_circuit(c)).depths() == oracle_depths(c)
    zero = {"size": 1, "depth": 0, "mulDepth": 0}
    for b in INNER_KINDS:
        for shape in ("formula", "circuit"):
            assert transforms._metrics(transforms._zero_circuit((), shape, b)) == zero


def _gates(*specs):
    """Gates from ``(id, kind, children)`` or ``(id, kind, children, scale)``."""
    return [Gate(gid, kind, kids, None, X1 if kind == "input" else None, *rest)
            for gid, kind, kids, *rest in specs]


_X = ("g1", "input", ())
_CONSTRUCTOR_ERRORS = [
    ([_X, ("g1", "input", ())], "arity2", ValueError, "duplicate gate id g1"),
    ([_X, ("g2", "mul", ("g1", "g9"))], "arity2", CycleError,
     "gate g2 references g9 before definition"),
    ([_X, ("g2", "mul3", ("g1", "g8", "g9"))], "arity3", CycleError,
     "gate g2 references g8 before definition"),
    ([_X, ("g2", "add", ("g8", "g9"))], "arity2", CycleError,
     "gate g2 references g8 before definition"),
    ([_X, ("g2", "negcube", ("g0",))], "addNegCube", CycleError,
     "gate g2 references g0 before definition"),
    ([_X, ("g2", "mul", ("g1", "g1"))], "arity3", BasisViolation,
     "gate g2: mul gate not in arity-3 basis"),
    ([("g1", "input", (), Fraction(2))], "arity2", BasisViolation,
     "gate g1: scale tags only legal in the addNegCube basis"),
    # a gate with two defects is reported by the first check it fails
    ([_X, ("g1", "mul", ("g1", "g9"))], "arity2", ValueError, "duplicate gate id g1"),
    ([_X, ("g2", "negcube", ("g9",))], "arity2", CycleError,
     "gate g2 references g9 before definition"),
    ([_X, ("g2", "mul", ("g9", "g1"))], "arity3", CycleError,
     "gate g2 references g9 before definition"),
    ([_X, ("g2", "mul3", ("g1", "g1", "g1"), Fraction(3))], "arity2", BasisViolation,
     "gate g2: mul3 gate not in arity-2 basis"),
]


@pytest.mark.parametrize("specs, basis, error, message", _CONSTRUCTOR_ERRORS)
def test_the_constructor_keeps_its_checks_and_messages(specs, basis, error, message):
    gates = _gates(*specs)
    with pytest.raises(error) as info:
        Circuit(gates, gates[-1].id, "circuit", basis)
    assert type(info.value) is error and str(info.value) == message


def _combined_metrics(parts):
    """The output metrics of a pass with several output circuits."""
    pm = [oracle_metrics(p) for p in parts]
    return {"size": sum(m["size"] for m in pm),
            "depth": max([m["depth"] for m in pm], default=0),
            "mulDepth": max([m["mulDepth"] for m in pm], default=0)}


def _output_metrics(name, out):
    if name == "parity":
        return _combined_metrics([p for p in (out.odd, out.even) if p is not None])
    if name == "vf-to-v3p":  # only the size is reported
        parts = list(out.odd_parts.values()) + [
            q for per in out.even_parts.values() for q in per.values()]
        return {**_combined_metrics(parts), "depth": 0, "mulDepth": 0}
    return oracle_metrics(out)


_ZERO_OUTPUT_RUNS = [
    # a constant has no IHL part, in a formula and in a circuit
    ("ihl-formula", "gate g1 = input 5\noutput g1", {}),
    ("ihl-circuit", "gate g1 = input 3\ngate g2 = input 2\ngate g3 = mul g1 g2\noutput g3", {}),
    # x9 does not occur
    ("derivative", "gate g1 = input x1\ngate g2 = input x2\ngate g3 = mul g1 g2\noutput g3",
     {"var": "x9"}),
    # m - m: the only frontier product's bracket is 1 - 1 = 0
    ("vsbr3", "basis arity3\ngate g1 = input x1\ngate g2 = input x2\ngate g3 = input x3\n"
     "gate g4 = mul3 g1 g2 g3\ngate g5 = add g4 g4 [1 -1]\noutput g5", {}),
    # x1*x2 has no odd part, and a constant has no parts at all
    ("parity", "gate g1 = input x1\ngate g2 = input x2\ngate g3 = mul g1 g2\noutput g3", {}),
    ("vf-to-v3p", "gate g1 = input 4\noutput g1", {}),
]


def test_every_pass_reports_the_metrics_of_a_depths_sweep():
    # every pass reads its metrics off what the constructor recorded for its
    # input and output circuits; all must equal the oracle's sweep of them
    rng = random.Random(103)
    runs = []
    for _ in range(25):
        c2 = as_formula(random_formula(rng, rng.randint(1, 50), 3))
        ci = as_formula(random_ihl_formula(rng, rng.randint(1, 50), 3))
        c3 = tree_to_circuit(random_graded_arity3_formula(rng, 5, rng.randint(10, 50), 3), "arity3")
        runs += [("rescale", c2, {"alpha": 3}), ("brent", c2, {}), ("ihl-formula", c2, {}),
                 ("derivative", c2, {"var": "x1"}), ("derivative", c2, {"var": "x9"}),
                 ("parity", ci, {}), ("add-negcube", c3, {}), ("brent3", c3, {}),
                 ("ihl-circuit", random_arity2_circuit(rng, rng.randint(2, 60), 4), {}),
                 ("vsbr3", random_graded_arity3_circuit(rng, rng.choice([3, 5, 7]),
                                                        rng.randint(5, 40), 3), {}),
                 ("vf-to-v3p", as_formula(random_formula(rng, rng.randint(1, 12), 3)), {})]
    for name, text, kwargs in _ZERO_OUTPUT_RUNS:
        runs.append((name, parse_circuit(text), kwargs))
    assert {name for name, _c, _kw in runs} == set(PASS_NAMES)
    for name, c, kwargs in runs:
        out, rep = run_pass(name, c, **kwargs)
        assert rep.input_metrics == oracle_metrics(c), name
        assert rep.output_metrics == _output_metrics(name, out), name
    zero = {"size": 1, "depth": 0, "mulDepth": 0}
    for name, text, kwargs in _ZERO_OUTPUT_RUNS[:4]:  # the one-circuit passes
        out, rep = run_pass(name, parse_circuit(text), **kwargs)
        assert out.eval().is_zero() and rep.output_metrics == zero, name


def test_brent_skips_its_audit_record_when_given_none():
    rng = random.Random(107)
    for _ in range(20):
        for t in (random_formula(rng, rng.randint(1, 80), 3),
                  random_graded_arity3_formula(rng, 5, rng.randint(10, 60), 3)):
            audit = []
            assert _brent(t, None) == _brent(t, audit)
            assert all(st["s"] > 3 for st in audit)
    _out, rep = brent_formula(as_formula(random_formula(random.Random(1), 60, 3)))
    assert rep.details["recursionSteps"] and rep.details["allStepsWithinTwoThirds"]


def oracle_restrict_reachable(gates, output_id):
    """Reference for ``_restrict_reachable``: a depth-first search from the
    output through a table of the gates by id, then the list filtered."""
    by_id = {g.id: g for g in gates}
    needed, stack = set(), [output_id]
    while stack:
        gid = stack.pop()
        if gid not in needed:
            needed.add(gid)
            stack.extend(by_id[gid].children)
    return [g for g in gates if g.id in needed]


def test_restrict_reachable_matches_a_depth_first_search():
    rng = random.Random(109)
    for _ in range(200):
        basis = rng.choice(sorted(INNER_KINDS))
        b = transforms._CBuilder()
        pool = [b.input(X1.scale(k)) for k in range(1, rng.randint(2, 5))]
        for _ in range(rng.randint(0, 40)):
            kind = rng.choice(INNER_KINDS[basis])
            arity = {"add": 2, "mul": 2, "mul3": 3, "negcube": 1}[kind]
            pool.append(b.emit(kind, tuple(rng.choice(pool) for _ in range(arity))))
        out = rng.choice(pool)  # often not the last gate: later gates are unreachable
        kept = transforms._restrict_reachable(b.gates, out)
        assert kept == oracle_restrict_reachable(b.gates, out)
        # the builder's output holds those gates, and reports their metrics
        c = b.output(out, basis, ())
        assert list(c.gates) == kept and transforms._metrics(c) == oracle_metrics(c)


def oracle_print_circuit(c):
    """Reference for ``print_circuit``: every leaf form and edge scalar
    formatted again at each use, with no cache."""
    lines = [f"shape {c.shape}", f"basis {c.basis}"]
    if c.variables:
        lines.append("var " + " ".join(c.variables))
    for g in c.gates:
        if g.kind == "input":
            body = "input " + format_poly(g.form)
        else:
            body = g.kind + " " + " ".join(g.children)
            if g.edge_scalars is not None:
                body += " [" + " ".join(format_coeff(s).replace(" ", "")
                                        for s in g.edge_scalars) + "]"
        if g.scale is not None:
            body += f" scale {g.scale}"
        lines.append(f"gate {g.id} = {body}")
    lines.append(f"output {c.output_id}")
    return "\n".join(lines) + "\n"


def test_print_circuit_matches_an_uncached_printer():
    # equal scalars held by distinct objects (each gate of random_arity2_circuit
    # builds its own), shared ones (the ihl-circuit outputs) and scalars with
    # eps and alpha; the identity-keyed cache must print what no cache prints
    rng = random.Random(113)
    eps_alpha = [Coeff({(1, 0): 2}), Coeff({(1, 0): 2}), Coeff({(-2, 1): Fraction(-1, 3)})]
    for _ in range(40):
        c = random_arity2_circuit(rng, rng.randint(2, 60), 4)
        gates = list(c.gates) + [
            Gate(f"e{i}", "add", (c.output_id, c.output_id),
                 (eps_alpha[i], eps_alpha[(i + 1) % 3])) for i in range(3)]
        gates.append(Gate("top", "add", ("e0", "e1")))
        gates.append(Gate("out", "add", ("top", "e2")))
        for circ in (c, input_homogenize_circuit(c)[0],
                     Circuit(gates, "out", "circuit", "arity2")):
            text = print_circuit(circ)
            assert text == oracle_print_circuit(circ)
            assert parse_circuit(text).gates == circ.gates


def _snapshot(n):
    return (n.kind, n.form, n.scale, n.size(), n.depth(),
            tuple(_snapshot(ch) for ch in n.children))


def test_tree_passes_leave_their_input_tree_unchanged(monkeypatch):
    # capture every tree a pass builds from its input (circuit_to_tree, and
    # formula_from_poly for vf-to-v3p) and compare it after the pass
    seen = []

    def capturing(fn):
        def wrapped(*args):
            t = fn(*args)
            if t is not None:
                seen.append((t, _snapshot(t)))
            return t
        return wrapped

    for name in ("circuit_to_tree", "formula_from_poly"):
        monkeypatch.setattr(transforms, name, capturing(getattr(transforms, name)))
    rng = random.Random(89)
    for _ in range(15):
        c2 = as_formula(random_formula(rng, rng.randint(1, 40), 4))
        ci = as_formula(random_ihl_formula(rng, rng.randint(1, 40), 4))
        c3 = tree_to_circuit(random_graded_arity3_formula(rng, 5, rng.randint(10, 40), 4), "arity3")
        small = as_formula(random_formula(rng, rng.randint(1, 16), 3))
        runs = [("rescale", c2, {"alpha": 3}), ("brent", c2, {}), ("ihl-formula", c2, {}),
                ("derivative", c2, {"var": "x1"}), ("parity", ci, {}),
                ("add-negcube", c3, {}), ("brent3", c3, {}), ("vf-to-v3p", small, {})]
        for name, c, kwargs in runs:
            before = len(seen)
            run_pass(name, c, **kwargs)
            assert len(seen) > before, name
    for t, snap in seen:
        assert _snapshot(t) == snap


def test_run_pass_dispatch():
    assert set(PASS_NAMES) == {
        "rescale", "ihl-formula", "ihl-circuit", "brent", "add-negcube",
        "parity", "vf-to-v3p", "derivative", "brent3", "vsbr3",
    }
    c = as_formula(FNode.mul(leaf("x1"), leaf("x2")))
    out, rep = run_pass("rescale", c, alpha=2)
    assert out.eval() == 2 * X1 * X2
    with pytest.raises(ValueError, match="unknown pass 'bogus'"):
        run_pass("bogus", c)
    with pytest.raises(ValueError, match="the derivative pass needs var"):
        run_pass("derivative", c)
    with pytest.raises(ValueError, match="the rescale pass needs alpha"):
        run_pass("rescale", c)
