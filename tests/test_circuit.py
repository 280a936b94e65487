"""Tests for the circuit IR, evaluation, metrics, validation and text format."""

import random
from fractions import Fraction

import pytest

from homlin.circuit import (
    BASES,
    BASIS_KINDS,
    ArtifactSyntaxError,
    BasisViolation,
    Circuit,
    DegreeMismatch,
    FNode,
    Gate,
    GradedArity3Repr,
    balanced_add,
    circuit_to_tree,
    parse_circuit,
    print_circuit,
    tree_to_circuit,
)
from homlin.poly import COEFF_ONE, Coeff, Polynomial, parse_poly
from generators import tree_value

X1 = Polynomial.variable("x1")
X2 = Polynomial.variable("x2")
X3 = Polynomial.variable("x3")


def _leaf(name, c=1):
    return FNode.var(name, c)


def test_eval_mul():
    t = FNode.mul(_leaf("x1"), _leaf("x2"))
    assert tree_value(t) == X1 * X2


def test_eval_negcube():
    t = FNode.negcube(_leaf("x1"))
    assert tree_value(t) == -(X1 ** 3)


def test_eval_mul3_distributes():
    # oracle: (x1+x2)*x1*x3 = x1^2 x3 + x1 x2 x3
    t = FNode("mul3", (
        FNode.leaf(parse_poly("x1 + x2")), _leaf("x1"), _leaf("x3")
    ))
    assert tree_value(t) == X1 * X1 * X3 + X1 * X2 * X3


def test_metrics_single_input():
    c = tree_to_circuit(_leaf("x1"), "arity2")
    assert c.size() == 1
    assert c.depths()[0] == 0
    assert c.syntactic_degrees()[c.output_id] == 1


def test_metrics_mul3():
    t = FNode("mul3", (_leaf("x1"), _leaf("x2"), _leaf("x3")))
    c = tree_to_circuit(t, "arity3")
    assert c.size() == 4
    assert c.depths()[0] == 1
    assert c.syntactic_degrees()[c.output_id] == 3


def test_metrics_nested_mul3_degree():
    inner = FNode("mul3", (_leaf("x1"), _leaf("x2"), _leaf("x3")))
    t = FNode("mul3", (inner, _leaf("x1"), _leaf("x2")))
    c = tree_to_circuit(t, "arity3")
    assert c.syntactic_degrees()[c.output_id] == 5


def test_degree_mismatch_on_ungraded_add():
    t = FNode.add(_leaf("x1"), FNode("mul3", (_leaf("x1"), _leaf("x2"), _leaf("x3"))))
    c = tree_to_circuit(t, "arity3")
    with pytest.raises(DegreeMismatch, match="add gate g6 has children of degrees"):
        c.syntactic_degrees()


def test_validate_ihl():
    ok_c = tree_to_circuit(FNode.add(_leaf("x1"), _leaf("x2")), "arity2")
    assert ok_c.ihl_defect() is None
    bad = tree_to_circuit(FNode.add(_leaf("x1"), FNode.leaf(Polynomial.const(3))), "arity2")
    assert bad.ihl_defect() == "gate g2: leaf has a constant part"


@pytest.mark.parametrize("form, reason", [
    ("x1 + 3", "leaf has a constant part"),
    ("x1 + eps", "leaf has a constant part"),
    ("x1 + alpha", "leaf has a constant part"),
    ("0", "leaf is not homogeneous linear"),
])
def test_ihl_rejects_a_leaf_with_a_constant_or_a_zero_leaf(form, reason):
    c = parse_circuit(f"gate g1 = input x2\ngate g2 = input {form}\n"
                      "gate g3 = add g1 g2\noutput g3\n")
    assert c.ihl_defect() == f"gate g2: {reason}"


@pytest.mark.parametrize("tree, basis, reason", [
    (FNode.mul(_leaf("x1"), _leaf("x2")), "arity3", "gate g3: mul gate not in arity-3 basis"),
    (FNode.negcube(_leaf("x1")), "arity3", "gate g2: negcube gate not in arity-3 basis"),
    (FNode("mul3", (_leaf("x1"), _leaf("x2"), _leaf("x3"))), "addNegCube",
     "gate g4: mul3 gate not in add/neg-cube basis"),
    (FNode.negcube(_leaf("x1")), "arity2", "gate g2: negcube gate not in arity-2 basis"),
    (FNode("mul3", (_leaf("x1"), _leaf("x2"), _leaf("x3"))), "arity2",
     "gate g4: mul3 gate not in arity-2 basis"),
    (FNode.mul(_leaf("x1"), _leaf("x2")).scaled(2), "arity2",
     "gate g3: scale tags only legal in the addNegCube basis"),
])
def test_a_circuit_outside_its_basis_is_never_built(tree, basis, reason):
    with pytest.raises(BasisViolation) as exc:
        tree_to_circuit(tree, basis)
    assert str(exc.value) == reason


@pytest.mark.parametrize("gates, output, reason", [
    ([Gate("g1", "input", form=X1), Gate("g2", "mul", ("g1", "g1"))], "g2",
     "gate g1: gate has 2 parents"),
    ([Gate("g1", "input", form=X1), Gate("g2", "input", form=X2)], "g2",
     "gate g1: gate has 0 parents"),
    ([Gate("g1", "input", form=X1), Gate("g2", "mul", ("g1", "g1"), (COEFF_ONE, COEFF_ONE))], "g2",
     "gate g2: formulas carry no edge scalars"),
])
def test_a_formula_that_is_no_tree_is_never_built(gates, output, reason):
    with pytest.raises(BasisViolation) as exc:
        Circuit(gates, output, "formula", "arity2")
    assert str(exc.value) == reason
    assert Circuit(gates, output, "circuit", "arity2").size() == 2


def test_graded_repr_validate_names_the_first_bad_part():
    x = [_leaf(f"x{i}") for i in (1, 2, 3)]
    cube = tree_to_circuit(FNode("mul3", tuple(x)), "arity3")
    affine = tree_to_circuit(FNode.leaf(parse_poly("x1 + 1")), "arity3")
    zero = Polynomial.zero()
    assert GradedArity3Repr(zero, {3: cube}, {4: {"x1": cube}}).validate() == (True, "")
    assert GradedArity3Repr(zero, {5: cube}, {}).validate() == (
        False, "odd part 5 computes degrees [3], not 5")
    assert GradedArity3Repr(zero, {}, {3: {"x1": cube}}).validate() == (
        False, "even part 3 is stored at a degree of the wrong parity")
    # an odd degree among the even parts is wrong even with no parts under it
    assert GradedArity3Repr(zero, {}, {3: {}}).validate() == (
        False, "even part 3 is stored at a degree of the wrong parity")
    assert GradedArity3Repr(zero, {}, {2: {"x2": affine}}).validate() == (
        False, "even part 2/x2 expects an IHL circuit (gate g1: leaf has a constant part)")


def test_ihl_zero_constant_term():
    # IHL circuits can only compute polynomials with zero constant term
    t = FNode.mul(FNode.add(_leaf("x1"), _leaf("x2")), _leaf("x3"))
    c = tree_to_circuit(t, "arity2")
    assert c.ihl_defect() is None
    assert c.eval().constant_part().is_zero()


def test_balanced_add_is_logarithmic():
    leaves = [_leaf(f"x{i}") for i in range(1, 33)]
    t = balanced_add(leaves)
    assert t.depth() == 5
    assert tree_value(t) == sum(
        (Polynomial.variable(f"x{i}") for i in range(1, 33)), Polynomial.zero()
    )


def test_parse_single_input():
    c = parse_circuit("gate g1 = input 2 * x1\noutput g1\n")
    assert c.eval() == 2 * X1
    assert c.shape == "formula"


def test_parse_trailing_comment_and_blank():
    text = "# header\n\ngate g1 = input x1  # leaf\noutput g1\n"
    assert parse_circuit(text).eval() == X1


def test_formula_with_edge_scalar_is_basis_violation():
    text = (
        "shape formula\n"
        "gate g1 = input x1\n"
        "gate g2 = input x2\n"
        "gate g3 = add g1 g2 [2 3]\n"
        "output g3\n"
    )
    with pytest.raises(BasisViolation):
        parse_circuit(text)


def test_circuit_edge_scalars_evaluate():
    text = (
        "shape circuit\n"
        "gate g1 = input x1\n"
        "gate g2 = input x2\n"
        "gate g3 = add g1 g2 [1/2 eps^2]\n"
        "output g3\n"
    )
    c = parse_circuit(text)
    assert c.eval() == parse_poly("1/2 * x1 + eps^2 * x2")


def test_forward_reference_is_a_syntax_error_with_line():
    text = "gate g0 = input x2\ngate g1 = add g2 g2\ngate g2 = input x1\noutput g1\n"
    with pytest.raises(ArtifactSyntaxError) as exc:
        parse_circuit(text)
    assert exc.value.line == 2
    assert str(exc.value) == "line 2: gate g1 references g2 before its definition"


def test_syntax_error_reports_line():
    with pytest.raises(ArtifactSyntaxError) as exc:
        parse_circuit("gate g1 = input x1\nbogus line here\noutput g1\n")
    assert exc.value.line == 2


def test_scale_tag_requires_addnegcube():
    text = "gate g1 = input x1\ngate g2 = mul g1 g1 scale 1/2\noutput g2\n"
    with pytest.raises(BasisViolation):
        parse_circuit(text)


def test_scale_tag_on_negcube():
    text = (
        "gate g1 = input x1 + x2\n"
        "gate g2 = negcube g1 scale -1/24\n"
        "output g2\n"
    )
    c = parse_circuit(text)
    assert c.basis == "addNegCube"
    assert c.eval() == Fraction(1, 24) * (X1 + X2) ** 3


GOLDEN = """shape formula
basis arity3
var x1 x2 x3
gate g1 = input x1
gate g2 = input x2
gate g3 = input x3
gate g4 = mul3 g1 g2 g3
gate g5 = input x1 - x2
gate g6 = add g4 g5
output g6
"""


def test_golden_round_trip_byte_identical():
    c = parse_circuit(GOLDEN)
    assert print_circuit(c) == GOLDEN
    again = parse_circuit(print_circuit(c))
    assert print_circuit(again) == GOLDEN
    assert again.eval() == c.eval() == X1 * X2 * X3 + X1 - X2


@pytest.mark.parametrize("form, printed", [
    ("x1 + 2*eps^-1 - alpha", "2 * eps^-1 - alpha + x1"),
    ("2 * x1 - 1", "-1 + 2 * x1"),
    ("x1", "x1"),
])
def test_an_affine_leaf_round_trips_byte_identically(form, printed):
    def text(f):
        return f"shape formula\nbasis arity2\nvar x1\ngate g1 = input {f}\noutput g1\n"

    c = parse_circuit(text(form))
    assert c.eval() == parse_poly(form)
    assert print_circuit(c) == text(printed)
    assert print_circuit(parse_circuit(text(printed))) == text(printed)


def test_round_trip_preserves_eval_random_trees():
    import random

    from generators import random_formula

    rng = random.Random(5)
    for _ in range(15):
        t = random_formula(rng, size=20, n_vars=4)
        c = tree_to_circuit(t, "arity2")
        c2 = parse_circuit(print_circuit(c))
        assert c2.eval() == c.eval()


def test_circuit_to_tree_shares_shared_gates():
    g1 = Gate("g1", "input", form=Polynomial.variable("x1"))
    g2 = Gate("g2", "mul", children=("g1", "g1"))
    c = Circuit([g1, g2], "g2", "circuit", "arity2")
    t = circuit_to_tree(c)
    assert tree_value(t) == X1 * X1
    assert t.size() == 3
    assert t.children[0] is t.children[1]


def test_juxtaposed_input_terms_are_a_syntax_error_with_line():
    with pytest.raises(ArtifactSyntaxError) as exc:
        parse_circuit("gate g1 = input x1\ngate g2 = input 2 x1\noutput g2\n")
    assert exc.value.line == 2 and "between terms" in str(exc.value)


@pytest.mark.parametrize("line", [
    "gate g2 = negcube g1 scale 1/0",
    "gate g2 = negcube g1 scale abc",
    "gate g2 = input 1/0 * x1",
    "gate g2 = add g1 g1 [1/0 1]",
])
def test_malformed_numbers_are_syntax_errors_with_line(line):
    text = f"basis addNegCube\ngate g1 = input x1\n{line}\noutput g2\n"
    with pytest.raises(ArtifactSyntaxError) as exc:
        parse_circuit(text)
    assert exc.value.line == 3


@pytest.mark.parametrize("line, message", [
    ("gate g2 = add g1 g1 [1 1] g1", "after ']'"),
    ("gate g2 = add g1 g1 [1 1", "unbalanced"),
    ("gate g2 = add g1 g1 scale", "'scale' takes one rational"),
    ("gate g2 = add g1 g1 scale 2 3", "'scale' takes one rational"),
    ("gate g2 = alpha", "unknown gate kind"),
    ("gate g2 = zvar", "unknown gate kind"),
    ("gate g2 = input x1 * x1", "affine"),
    ("gate g2 = input x1*x2", "input form must be affine"),
    ("gate g2 = mul g1", "expects 2 children"),
    ("gate g2 = pow g1 g1", "unknown gate kind"),
    ("gate g2 add g1 g1", "expected 'gate <id> = <kind> ...'"),
    ("gate g1 = input x2", "duplicate gate id"),
])
def test_malformed_gate_lines_name_line_and_defect(line, message):
    with pytest.raises(ArtifactSyntaxError) as exc:
        parse_circuit(f"gate g1 = input x1\n{line}\noutput g2\n")
    assert exc.value.line == 2 and message in str(exc.value)


@pytest.mark.parametrize("again", ["shape circuit", "basis arity2", "output g1"])
def test_a_repeated_circuit_directive_is_rejected_with_line(again):
    # the last of the two once won without a word
    text = "shape formula\nbasis arity3\nvar x2\ngate g1 = input x1\noutput g1\n"
    with pytest.raises(ArtifactSyntaxError, match="given twice") as exc:
        parse_circuit(f"{text}{again}\n")
    assert exc.value.line == 6
    # var lines may repeat: each extends the variable list
    assert parse_circuit(text + "var x3\n").variables == ("x1", "x2", "x3")


def test_gate_id_with_equals_sign_is_a_plain_gate():
    c = parse_circuit("gate a=b = input x1 # one leaf\noutput a=b\n")
    assert c.eval() == X1


def test_repeated_input_forms_and_edge_scalars_are_parsed_once_and_shared():
    text = (
        "shape circuit\n"
        "gate g1 = input 2 * x1 - 1\n"
        "gate g2 = input 2 * x1 - 1\n"
        "gate g3 = add g1 g2 [1/2 1/2]\n"
        "output g3\n"
    )
    c = parse_circuit(text)
    g1, g2, g3 = c.gates
    assert g1.form is g2.form
    assert g3.edge_scalars[0] is g3.edge_scalars[1]
    assert c.eval() == parse_poly("2 * x1 - 1")
    assert print_circuit(c) == text.replace("input 2 * x1 - 1", "input -1 + 2 * x1").replace(
        "shape circuit\n", "shape circuit\nbasis arity2\nvar x1\n")


def test_gate_is_an_immutable_value_with_keyword_construction():
    g = Gate("g1", "input", form=Polynomial.variable("x1"))
    assert (g.id, g.kind, g.children, g.edge_scalars, g.scale) == ("g1", "input", (), None, None)
    with pytest.raises(AttributeError):
        g.kind = "add"
    assert g == Gate("g1", "input", form=Polynomial.variable("x1"))


@pytest.mark.parametrize("product, basis", [
    (FNode.mul, "arity2"),
    (lambda a, b: FNode("mul3", (a, b, _leaf("x4"))), "arity3"),
])
def test_depths_counts_all_gates_and_product_gates_in_one_sweep(product, basis):
    t = FNode.add(product(_leaf("x1"), product(_leaf("x2"), _leaf("x3"))), _leaf("x3"))
    c = tree_to_circuit(t, basis)
    assert c.depths() == (3, 2)


def test_depths_count_a_negative_cube_as_a_product_gate():
    t = FNode.add(FNode.negcube(FNode.add(FNode.negcube(_leaf("x1")), _leaf("x2"))), _leaf("x3"))
    c = tree_to_circuit(t, "addNegCube")
    assert c.depths() == (4, 2)


# ---------------------------------------------------------------------------
# the packed evaluator against the Polynomial sweep
# ---------------------------------------------------------------------------


def oracle_eval_gates(c):
    """Test oracle: every gate's value by a sweep of Polynomial arithmetic,
    the evaluator as it was before gates were evaluated on packed keys."""
    vals = {}
    for g in c.gates:
        if g.kind == "input":
            p = g.form
        elif g.kind == "add":
            scalars = g.edge_scalars or (COEFF_ONE,) * len(g.children)
            p = Polynomial.zero()
            for ch, s in zip(g.children, scalars):
                p = p + vals[ch].scale(s)
        elif g.kind == "mul":
            scalars = g.edge_scalars or (COEFF_ONE,) * 2
            p = vals[g.children[0]].scale(scalars[0]) * vals[g.children[1]].scale(scalars[1])
        elif g.kind == "mul3":
            p = vals[g.children[0]] * vals[g.children[1]] * vals[g.children[2]]
        else:
            a = vals[g.children[0]]
            p = -(a * a * a)
        if g.scale is not None:
            p = p * Fraction(g.scale)
        vals[g.id] = p
    return vals


RATIONALS = (1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3))


def random_scalar(rng):
    """A scalar of one or two terms, eps^-2..eps^2 and alpha^0..alpha^2."""
    return Coeff({(rng.randint(-2, 2), rng.randint(0, 2)): rng.choice(RATIONALS)
                  for _ in range(rng.randint(1, 2))})


def random_leaf_form(rng):
    """An affine form in x1..x3 whose terms carry eps and alpha powers."""
    monos = ((), (("x1", 1),), (("x2", 1),), (("x3", 1),))
    return Polynomial({(rng.choice(monos), rng.randint(-2, 2), rng.randint(0, 2)):
                       rng.choice(RATIONALS) for _ in range(rng.randint(1, 3))})


def random_circuit(rng, basis, size, edges):
    """A circuit over ``basis`` with shared gates, every kind of the basis,
    scale tags in the add/negative-cube basis, and edge scalars on add and
    mul gates when ``edges``; the syntactic degree stays at most 9."""
    kinds = sorted(BASIS_KINDS[basis][1] - {"input"})
    arity = {"add": 2, "mul": 2, "mul3": 3, "negcube": 1}
    gates, deg = [], {}
    while len(gates) < size:
        gid = f"g{len(gates) + 1}"
        kind = "input" if len(gates) < 2 or rng.random() < 0.25 else rng.choice(kinds)
        kids = tuple(rng.choice(gates).id for _ in range(arity.get(kind, 0)))
        d = [deg[k] for k in kids]
        deg[gid] = 1 if kind == "input" else max(d) if kind == "add" else (
            3 * d[0] if kind == "negcube" else sum(d))
        if deg[gid] > 9:
            continue
        scalars = None
        if edges and kind in ("add", "mul") and rng.random() < 0.5:
            scalars = tuple(random_scalar(rng) for _ in kids)
        scale = None
        if basis == "addNegCube" and rng.random() < 0.3:
            scale = Fraction(rng.choice([-1, 2, 3]), rng.choice([1, 2, 24]))
        form = random_leaf_form(rng) if kind == "input" else None
        gates.append(Gate(gid, kind, kids, scalars, form, scale))
    return Circuit(gates, gates[-1].id, "circuit", basis)


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("seed", range(12))
def test_packed_evaluator_matches_the_polynomial_sweep(basis, seed):
    rng = random.Random(f"{basis}-{seed}")
    c = random_circuit(rng, basis, rng.randint(3, 12), edges=True)
    want = oracle_eval_gates(c)
    got = c.eval_gates()
    assert list(got) == [g.id for g in c.gates] and len(got) == len(c.gates)
    for g in c.gates:
        assert got[g.id] == want[g.id], g
        assert all(type(x) is int or x.denominator != 1 for x in got[g.id].terms.values())
    assert c.eval() == want[c.output_id]
    # the tree view carries no edge scalars; its evaluation agrees too
    bare = random_circuit(rng, basis, rng.randint(3, 12), edges=False)
    assert tree_value(circuit_to_tree(bare)) == oracle_eval_gates(bare)[bare.output_id]


@pytest.mark.parametrize("basis", BASES)
def test_packed_evaluator_on_zero_circuits(basis):
    zero = Circuit([Gate("g1", "input", form=Polynomial.zero())], "g1", "formula", basis)
    assert zero.eval() == Polynomial.zero()
    # a sum that cancels, carrying eps and alpha, and a gate above it
    top = ("negcube", ("g3",)) if basis == "addNegCube" else ("add", ("g3", "g3"))
    c = Circuit([
        Gate("g1", "input", form=parse_poly("x1 * eps * alpha - 2")),
        Gate("g2", "input", form=parse_poly("2 - x1 * eps * alpha")),
        Gate("g3", "add", ("g1", "g2")),
        Gate("g4", *top),
    ], "g4", "circuit", basis)
    vals = c.eval_gates()
    assert vals["g3"] == Polynomial.zero() and vals["g4"] == Polynomial.zero()


def test_parse_runs_the_formula_check_once(monkeypatch):
    from homlin import circuit
    calls = []
    check = circuit._formula_defect
    monkeypatch.setattr(circuit, "_formula_defect", lambda *a: calls.append(a) or check(*a))
    shared = "gate g1 = input x1\ngate g2 = mul g1 g1\noutput g2\n"
    assert parse_circuit("gate g1 = input x1\ngate g2 = input x2\n"
                         "gate g3 = mul g1 g2\noutput g3\n").shape == "formula"
    assert parse_circuit(shared).shape == "circuit"
    assert len(calls) == 2
    assert parse_circuit("shape circuit\n" + shared).shape == "circuit"
    assert len(calls) == 2
