"""Tests for every source-to-source pass: fixed examples, semantic
preservation on random instances, validity transport, and bound audits."""

import math
import random
from fractions import Fraction

import pytest

from homlin.circuit import (
    BasisViolation,
    Circuit,
    FNode,
    Gate,
    parse_circuit,
    tree_to_circuit,
)
from homlin.poly import Polynomial, parse_poly
from homlin import transforms
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
    _brent2,
    _descendants,
    _lowest_mul3,
    _separator_steps,
    _subst_path,
    input_homogenize_tree,
)
from homlin.verify import (
    random_arity2_circuit,
    random_formula,
    random_graded_arity3_circuit,
    random_graded_arity3_formula,
    random_ihl_formula,
)
from test_acceptance import oracle_bracket_poly

X1 = Polynomial.variable("x1")
X2 = Polynomial.variable("x2")
X3 = Polynomial.variable("x3")
X4 = Polynomial.variable("x4")
X5 = Polynomial.variable("x5")


def leaf(name, c=1):
    return FNode.var(name, c)


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
    assert c.depth() == 63
    out, rep = brent_formula(c)
    assert out.eval() == expected
    assert out.depth() <= 2 * math.log(c.size(), 1.5) + 4
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
    assert _brent2(t, []).eval() == 2 * (X1 + Polynomial.const(1)) * X2
    assert input_homogenize_tree(t).eval() == 2 * (X1 + Polynomial.const(1)) * X2


# ---------------------------------------------------------------------------
# inputHomogenizeFormula
# ---------------------------------------------------------------------------


def test_ihl_formula_strips_constant():
    t = FNode.add(FNode.mul(leaf("x1"), leaf("x2")), FNode.constant(3))
    out, _ = input_homogenize_formula(as_formula(t))
    assert out.eval() == X1 * X2
    assert out.validate("IHL")[0]


def test_ihl_formula_affine_product():
    t = FNode.mul(
        FNode.leaf(parse_poly("x1 + 1")),
        FNode.leaf(parse_poly("x2 + 2")),
    )
    out, _ = input_homogenize_formula(as_formula(t))
    assert out.eval() == parse_poly("x1*x2 + 2*x1 + x2")
    assert out.validate("IHL")[0]


def test_ihl_formula_constant_is_zero():
    out, _ = input_homogenize_formula(as_formula(FNode.constant(5)))
    assert out.eval().is_zero()
    assert out.validate("IHL")[0]


def test_ihl_formula_random_semantics():
    rng = random.Random(37)
    for _ in range(50):
        c = as_formula(random_formula(rng, rng.randint(1, 60), 4))
        out, rep = input_homogenize_formula(c)
        f = c.eval()
        assert out.eval() == f - f.constant_part().to_poly()
        assert out.validate("IHL")[0]
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
    assert out.validate("IHL")[0]


# ---------------------------------------------------------------------------
# inputHomogenizeCircuit
# ---------------------------------------------------------------------------


def test_ihl_circuit_strips_constant():
    g = Gate("g1", "input", form=parse_poly("2*x1 + 7"))
    c = Circuit([g], "g1", "circuit", "arity2")
    out, rep = input_homogenize_circuit(c)
    assert out.eval() == 2 * X1
    assert out.validate("IHL")[0]
    assert rep.bound_satisfied


def test_ihl_circuit_shared_square():
    g1 = Gate("g1", "input", form=parse_poly("x1 + 1"))
    g2 = Gate("g2", "mul", children=("g1", "g1"))
    c = Circuit([g1, g2], "g2", "circuit", "arity2")
    out, _ = input_homogenize_circuit(c)
    assert out.eval() == X1 * X1 + 2 * X1
    assert out.validate("IHL")[0]


def test_ihl_circuit_random_semantics_and_bounds():
    rng = random.Random(41)
    for _ in range(50):
        c = random_arity2_circuit(rng, rng.randint(2, 60), 4)
        out, rep = input_homogenize_circuit(c)
        f = c.eval()
        assert out.eval() == f - f.constant_part().to_poly()
        assert out.validate("IHL")[0]
        assert out.size() <= 6 * c.size()
        assert out.depth() <= 3 * c.size()
        assert rep.bound_satisfied


# ---------------------------------------------------------------------------
# toAddNegCube
# ---------------------------------------------------------------------------


def test_cube_identity():
    x, y, z = X1, X2, X3
    lhs = (x + y + z) ** 3 - (x + y - z) ** 3 - (x - y + z) ** 3 + (x - y - z) ** 3
    assert lhs == 24 * x * y * z


def test_add_negcube_single_mul3():
    t = FNode.mul3(leaf("x1"), leaf("x2"), leaf("x3"))
    c = tree_to_circuit(t, "arity3")
    out, rep = to_add_negcube(c)
    assert out.basis == "addNegCube"
    assert out.eval() == X1 * X2 * X3
    assert out.validate("addNegCube")[0]
    assert out.validate("IHL")[0]
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
        assert out.validate("addNegCube")[0]
        assert out.validate("IHL")[0]
        assert rep.bound_satisfied


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
    t = FNode.add(leaf("x1"), FNode.constant(2))
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
            assert part.validate("parityHomogeneous")[0]
            assert part.validate("IHL")[0]
        assert total == c.eval()
        assert rep.bound_satisfied


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
    assert out.depth() <= 2 * c.depth()
    assert rep.bound_satisfied


def test_derivative_random_against_poly_oracle():
    rng = random.Random(53)
    for _ in range(50):
        c = as_formula(random_formula(rng, rng.randint(1, 60), 4))
        v = f"x{rng.randint(1, 4)}"
        out, rep = derivative_formula(c, v)
        assert out.eval() == c.eval().partial_derivative(v)
        assert out.depth() <= 2 * c.depth()
        assert rep.bound_satisfied


# ---------------------------------------------------------------------------
# brentArity3
# ---------------------------------------------------------------------------


def test_brent3_small_formula_unchanged():
    t = FNode.add(leaf("x1"), leaf("x2"))
    c = tree_to_circuit(t, "arity3")
    out, _ = brent_arity3(c)
    assert out.size() == c.size()
    assert out.eval() == c.eval()


def test_brent3_deep_mul3_comb():
    t = FNode.mul3(leaf("x1"), leaf("x2"), leaf("x3"))
    for i in range(12):
        t = FNode.mul3(t, leaf(f"x{i % 3 + 1}"), leaf(f"x{(i + 1) % 3 + 1}"))
    c = tree_to_circuit(t, "arity3")
    out, rep = brent_arity3(c)
    assert out.eval() == c.eval()
    assert out.depth() <= 2 * math.log(c.size(), 1.5) + 4
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
        assert out.depth() <= 2 * math.log(max(c.size(), 2), 1.5) + 4
        assert out.validate("IHL")[0]
        assert out.validate("arity3")[0]
        assert out.validate("graded")[0]
        assert rep.details["allStepsWithinTwoThirds"]


def _replace_nodes(node, repl):
    """``node`` with the subtrees whose ids key ``repl`` replaced; an identity
    walk is valid here because the generated trees share no subtree."""
    if id(node) in repl:
        return repl[id(node)]
    kids = tuple(_replace_nodes(ch, repl) for ch in node.children)
    return FNode(node.kind, kids, node.form, node.scale)


def oracle_brent3_linearization(tree):
    """Test oracle for the case-2 linearization of ``_brent3``: find the
    separator and, if its lowest strict ancestor product exists, return
    (v, x, F11, F00), where F11/F00 are realized through the simplifier
    rules.  None in the additions-only case."""
    steps, v = _separator_steps(tree)
    pidx = _lowest_mul3(steps)
    if pidx is None:
        return None
    p_node, pci = steps[pidx]
    xi = 1 if pci == 0 else 0
    one = FNode.constant(1)
    # F(1,1): x, the product's first other child, becomes 1 as well
    p11 = FNode("mul3", p_node.children[:xi] + (one,) + p_node.children[xi + 1:],
                scale=p_node.scale)
    f11 = _subst_path(steps[:pidx] + [(p11, pci)] + steps[pidx + 1:], one)
    f00 = _subst_path(steps, None)
    return v, p_node.children[xi], f11, f00


def test_brent3_linearization_identity():
    # F(a, b) == a*b*(F(1,1) - F(0,0)) + F(0,0) with fresh variables a, b
    # substituted for the separator and its product sibling.
    rng = random.Random(61)
    checked = 0
    while checked < 20:
        d = rng.choice([3, 5])
        t = random_graded_arity3_formula(rng, d, rng.randint(12, 40), 3)
        res = oracle_brent3_linearization(t)
        if res is None:
            continue
        v, x, f11, f00 = res
        lhs = _replace_nodes(t, {id(v): FNode.var("a"), id(x): FNode.var("b")}).eval()
        p11 = f11.eval() if f11 is not None else Polynomial.zero()
        p00 = f00.eval() if f00 is not None else Polynomial.zero()
        ab = Polynomial.variable("a") * Polynomial.variable("b")
        assert lhs == ab * (p11 - p00) + p00
        checked += 1


@pytest.mark.parametrize("tree", [leaf("x1"), FNode.add(leaf("x1"), leaf("x2"))])
def test_brent3_linearization_without_a_product_is_none(tree):
    assert oracle_brent3_linearization(tree) is None


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
    assert repr_.reassemble() == X1 * X2


def test_vf_to_v3p_odd_single_mul3():
    t = FNode.mul(FNode.mul(leaf("x1"), leaf("x2")), leaf("x3"))
    repr_, _ = vf_to_v3p(as_formula(t))
    assert set(repr_.odd_parts) == {3}
    part = repr_.odd_parts[3]
    assert part.eval() == X1 * X2 * X3
    assert part.validate("arity3")[0]
    assert part.validate("IHL")[0]


def test_vf_to_v3p_mixed_degrees():
    t = FNode.add(leaf("x1"), FNode.mul(FNode.mul(leaf("x1"), leaf("x2")), leaf("x3")))
    repr_, _ = vf_to_v3p(as_formula(t))
    assert set(repr_.odd_parts) == {1, 3}
    assert repr_.odd_parts[1].eval() == X1
    assert repr_.odd_parts[3].eval() == X1 * X2 * X3
    assert repr_.reassemble() == X1 + X1 * X2 * X3


def test_vf_to_v3p_random_reassembly():
    rng = random.Random(67)
    for _ in range(50):
        c = as_formula(random_formula(rng, rng.randint(1, 22), 3))
        repr_, rep = vf_to_v3p(c)
        assert repr_.reassemble() == c.eval()
        ok, reason = repr_.validate()
        assert ok, reason
        assert rep.bound_satisfied
        stored = list(repr_.odd_parts.values()) + [
            q for per in repr_.even_parts.values() for q in per.values()]
        for part in stored:
            assert_spliced(part)


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
        assert part.eval() == tree.eval()
        assert_spliced(part)


def test_formula_from_poly_round_trip():
    rng = random.Random(71)
    for _ in range(20):
        p = as_formula(random_formula(rng, rng.randint(1, 20), 3)).eval()
        t = formula_from_poly(p)
        got = t.eval() if t is not None else Polynomial.zero()
        assert got == p


# ---------------------------------------------------------------------------
# vsbrArity3
# ---------------------------------------------------------------------------


def test_vsbr_nested_mul3():
    t = FNode.mul3(
        FNode.mul3(leaf("x1"), leaf("x2"), leaf("x3")), leaf("x4"), leaf("x5")
    )
    c = tree_to_circuit(t, "arity3")
    out, rep = vsbr_arity3(c)
    assert out.eval() == X1 * X2 * X3 * X4 * X5
    assert out.validate("arity3")[0]
    assert out.validate("IHL")[0]
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
    t = FNode.mul3(leaf("x1"), leaf("x2"), leaf("x3"))
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
        assert out.validate("arity3")[0]
        assert out.validate("IHL")[0]
        assert out.validate("graded")[0]
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
    t = FNode.mul3(leaf("x1"), FNode.constant(0), leaf("x2"))
    assert simplify(t) is None
    # addition with a zero child collapses
    t = FNode.add(leaf("x1"), FNode.constant(0))
    assert simplify(t).eval() == X1
    # two constant-1 factors drop out
    t = FNode.mul3(FNode.constant(1), FNode.constant(1), leaf("x2"))
    assert simplify(t).eval() == X2


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
    with pytest.raises(ValueError):
        run_pass("bogus", c)
    with pytest.raises(ValueError):
        run_pass("derivative", c)
