"""Tests for the circuit IR, evaluation, metrics, validation and text format."""

from fractions import Fraction

import pytest

from homlin.circuit import (
    BasisViolation,
    Circuit,
    CircuitSyntaxError,
    CycleError,
    DegreeMismatch,
    FNode,
    Gate,
    balanced_add,
    circuit_to_tree,
    parse_circuit,
    print_circuit,
    tree_to_circuit,
)
from homlin.poly import Polynomial, parse_poly

X1 = Polynomial.variable("x1")
X2 = Polynomial.variable("x2")
X3 = Polynomial.variable("x3")


def _leaf(name, c=1):
    return FNode.var(name, c)


def test_eval_mul():
    t = FNode.mul(_leaf("x1"), _leaf("x2"))
    assert t.eval() == X1 * X2


def test_eval_negcube():
    t = FNode.negcube(_leaf("x1"))
    assert t.eval() == -(X1 ** 3)


def test_eval_mul3_distributes():
    # oracle: (x1+x2)*x1*x3 = x1^2 x3 + x1 x2 x3
    t = FNode.mul3(
        FNode.leaf(parse_poly("x1 + x2")), _leaf("x1"), _leaf("x3")
    )
    assert t.eval() == X1 * X1 * X3 + X1 * X2 * X3


def test_metrics_single_input():
    c = tree_to_circuit(_leaf("x1"), "arity2")
    assert c.size() == 1
    assert c.depth() == 0
    assert c.syntactic_degrees()[c.output_id] == 1


def test_metrics_mul3():
    t = FNode.mul3(_leaf("x1"), _leaf("x2"), _leaf("x3"))
    c = tree_to_circuit(t, "arity3")
    assert c.size() == 4
    assert c.depth() == 1
    assert c.syntactic_degrees()[c.output_id] == 3


def test_metrics_nested_mul3_degree():
    inner = FNode.mul3(_leaf("x1"), _leaf("x2"), _leaf("x3"))
    t = FNode.mul3(inner, _leaf("x1"), _leaf("x2"))
    c = tree_to_circuit(t, "arity3")
    assert c.syntactic_degrees()[c.output_id] == 5


def test_degree_mismatch_on_ungraded_add():
    t = FNode.add(_leaf("x1"), FNode.mul3(_leaf("x1"), _leaf("x2"), _leaf("x3")))
    c = tree_to_circuit(t, "arity3")
    with pytest.raises(DegreeMismatch):
        c.syntactic_degrees()
    ok, _, _ = c.validate("graded")
    assert not ok


def test_validate_ihl():
    ok_c = tree_to_circuit(FNode.add(_leaf("x1"), _leaf("x2")), "arity2")
    assert ok_c.validate("IHL")[0]
    bad = tree_to_circuit(FNode.add(_leaf("x1"), FNode.constant(3)), "arity2")
    ok, gid, _ = bad.validate("IHL")
    assert not ok and gid is not None


@pytest.mark.parametrize("form, reason", [
    ("x1 + 3", "leaf has a constant part"),
    ("x1 + eps", "leaf has a constant part"),
    ("x1 + alpha", "leaf has a constant part"),
    ("0", "leaf is not homogeneous linear"),
])
def test_ihl_rejects_a_leaf_with_a_constant_or_a_zero_leaf(form, reason):
    c = parse_circuit(f"gate g1 = input x2\ngate g2 = input {form}\n"
                      "gate g3 = add g1 g2\noutput g3\n")
    assert c.validate("IHL") == (False, "g2", reason)


def test_validate_arity3():
    c = tree_to_circuit(FNode.mul(_leaf("x1"), _leaf("x2")), "arity2")
    ok, gid, _ = c.validate("arity3")
    assert not ok


def test_validate_parity():
    mixed = FNode.add(
        _leaf("x1"), FNode.mul(_leaf("x1"), _leaf("x2"))
    )  # x1 + x1 x2 mixes parities
    c = tree_to_circuit(mixed, "arity2")
    ok, gid, _ = c.validate("parityHomogeneous")
    assert not ok and gid == c.output_id


def test_ihl_zero_constant_term():
    # IHL circuits can only compute polynomials with zero constant term
    t = FNode.mul(FNode.add(_leaf("x1"), _leaf("x2")), _leaf("x3"))
    c = tree_to_circuit(t, "arity2")
    assert c.validate("IHL")[0]
    assert c.eval().constant_part().is_zero()


def test_balanced_add_is_logarithmic():
    leaves = [_leaf(f"x{i}") for i in range(1, 33)]
    t = balanced_add(leaves)
    assert t.depth() == 5
    assert t.eval() == sum(
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


def test_forward_reference_is_cycle_error():
    text = "gate g1 = add g2 g2\ngate g2 = input x1\noutput g1\n"
    with pytest.raises(CycleError):
        parse_circuit(text)


def test_syntax_error_reports_line():
    with pytest.raises(CircuitSyntaxError) as exc:
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

    from homlin.verify import random_formula

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
    assert t.eval() == X1 * X1
    assert t.size() == 3
    assert t.children[0] is t.children[1]


def test_juxtaposed_input_terms_are_a_syntax_error_with_line():
    with pytest.raises(CircuitSyntaxError) as exc:
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
    with pytest.raises(CircuitSyntaxError) as exc:
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
    with pytest.raises(CircuitSyntaxError) as exc:
        parse_circuit(f"gate g1 = input x1\n{line}\noutput g2\n")
    assert exc.value.line == 2 and message in str(exc.value)


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


def test_depths_counts_all_gates_and_product_gates_in_one_sweep():
    t = FNode.add(FNode.mul(_leaf("x1"), FNode.negcube(_leaf("x2"))), _leaf("x3"))
    c = tree_to_circuit(t, "arity2")
    assert c.depths() == (3, 2) and c.depth() == 3
