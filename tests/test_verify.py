"""Tests for the verification harness and the tests' random instance
generators."""

import gc
import hashlib
import random
from pathlib import Path

import pytest

from homlin.circuit import FNode, print_circuit, tree_to_circuit
from homlin.matrixword import MatrixWord, compile_continuant_odd, compile_trace3, parse_word
from homlin.poly import Coeff, Polynomial, parse_poly
from homlin.verify import (
    DEFAULT_PRIME,
    VerifyReport,
    audit_bounds,
    verify_border,
    verify_exact,
    verify_random,
)
from generators import (
    random_arity2_circuit,
    random_formula,
    random_graded_arity3_circuit,
    random_graded_arity3_formula,
    random_ihl_formula,
)

P = parse_poly


# ---------------------------------------------------------------------------
# verify_exact
# ---------------------------------------------------------------------------


def test_exact_binomial_square():
    assert verify_exact(P("x1 + x2") ** 2, P("x1^2 + 2*x1*x2 + x2^2")).verdict


def test_exact_eps_perturbation_fails_with_witness():
    rep = verify_exact(P("x1*x2"), P("x1*x2 + eps*x1"))
    assert not rep.verdict
    assert "x1" in rep.witness and "eps" in rep.witness


def test_exact_zero_vs_empty():
    assert verify_exact(Polynomial.zero(), Polynomial()).verdict


def test_failing_report_requires_witness():
    with pytest.raises(ValueError):
        VerifyReport("exact", False)


# ---------------------------------------------------------------------------
# verify_border
# ---------------------------------------------------------------------------


def test_border_trace3_word():
    c = tree_to_circuit(FNode.mul(FNode.var("x1"), FNode.var("x2")), "arity2")
    assert verify_border(compile_trace3(c), P("x1*x2")).verdict


def test_border_wrong_scalar_diverges():
    c = tree_to_circuit(FNode.mul(FNode.var("x1"), FNode.var("x2")), "arity2")
    w = compile_trace3(c)
    bad = MatrixWord(w.dim, w.factors, Coeff.eps(-3), w.target)
    rep = verify_border(bad, P("x1*x2"))
    assert not rep.verdict and rep.witness.startswith("LimitDiverges")


def test_border_continuant_projection():
    c = tree_to_circuit(FNode.negcube(FNode.var("x1")), "addNegCube")
    assert verify_border(compile_continuant_odd(c), P("-x1^3")).verdict


def test_border_wrong_target_gives_monomial_witness():
    c = tree_to_circuit(FNode.mul(FNode.var("x1"), FNode.var("x2")), "arity2")
    rep = verify_border(compile_trace3(c), P("x1*x3"))
    assert not rep.verdict and rep.witness


def test_border_fails_on_a_component_at_another_degree():
    # the limit is x1*x2 + x3: its degree-1 part is not the target's
    w = MatrixWord(2, [{(0, 1): P("x1*x2 + x3")}], Coeff.from_rational(1), ("entry", 1, 2))
    rep = verify_border(w, P("x1*x2"))
    assert not rep.verdict and "x3" in rep.witness
    assert rep.details["degreesCompared"] == [1, 2]


def test_border_truncated_value_keeps_a_diverging_term():
    # (id + eps^-1 x1 E12)(id + x2 E21) - id has eps^-1 x1*x2 at (1,1)
    w = MatrixWord(2, [{(0, 1): P("eps^-1*x1")}, {(1, 0): P("x2")}],
                   Coeff.from_rational(1), ("entry", 1, 1))
    rep = verify_border(w, P("x1*x2"))
    assert not rep.verdict and rep.witness.startswith("LimitDiverges")
    assert "eps^-1" in rep.witness


def test_border_golden_word_compares_its_target_degrees_and_the_union_on_a_failure():
    # tests/golden/trace3.word compiles (x1 + 2*x2)*(x2 - x3) + (1/2)*x1*x3
    w = parse_word((Path(__file__).parent / "golden" / "trace3.word").read_text())
    target = P("x1*x2 - 1/2*x1*x3 + 2*x2^2 - 2*x2*x3")
    rep = verify_border(w, target)
    assert rep.verdict and rep.details == {"truncationOrder": 1, "degreesCompared": [2]}
    rep = verify_border(w, target + P("x3"))
    assert not rep.verdict and rep.witness == "-x3"
    assert rep.details == {"truncationOrder": 1, "degreesCompared": [1, 2]}


def test_border_rejects_eps_target():
    c = tree_to_circuit(FNode.var("x1"), "arity2")
    with pytest.raises(ValueError):
        verify_border(compile_trace3(c), P("eps*x1"))


def test_border_restricts_to_homogeneous_degree():
    # the whole limit is compared: the details name the truncation order and
    # every degree checked, and no degree is dropped
    c = tree_to_circuit(FNode.mul(FNode.var("x1"), FNode.var("x2")), "arity2")
    rep = verify_border(compile_trace3(c), P("x1*x2"))
    assert rep.verdict
    assert rep.details == {"truncationOrder": 1, "degreesCompared": [2]}


# ---------------------------------------------------------------------------
# verify_random
# ---------------------------------------------------------------------------


def test_random_agrees_with_exact_pass():
    a = P("x1 + x2") ** 3
    b = P("x1^3 + 3*x1^2*x2 + 3*x1*x2^2 + x2^3")
    for seed in range(3):
        assert verify_random(a, b, seed=seed).verdict


def test_random_detects_difference():
    rep = verify_random(P("x1*x2"), P("x1*x2 + x1"), seed=0)
    assert not rep.verdict and rep.witness.startswith("trial")


def test_random_eps_kept_symbolic():
    # same residues per eps exponent pass; a shifted exponent fails
    assert verify_random(P("eps*x1"), P("eps*x1")).verdict
    assert not verify_random(P("eps*x1"), P("eps^2*x1")).verdict


def test_random_mode_records_parameters():
    rep = verify_random(P("x1"), P("x1"), trials=5)
    assert rep.mode == f"random(5, {DEFAULT_PRIME})"


# ---------------------------------------------------------------------------
# audit_bounds
# ---------------------------------------------------------------------------


def test_audit_mapping_pass_and_fail():
    assert audit_bounds({"value": 58, "bound": 60}).verdict
    rep = audit_bounds({"value": 70, "bound": 64})
    assert not rep.verdict and "70" in rep.witness


def test_audit_mapping_takes_finite_ints_and_floats_only():
    assert audit_bounds({"value": 1.5, "bound": 2}).verdict
    assert audit_bounds({"value": 10 ** 400, "bound": 10 ** 401}).verdict
    for bad in ("3", None, True, [1], {"b": 1}, float("nan"), float("-inf")):
        with pytest.raises(ValueError, match="'bound' must be a finite number"):
            audit_bounds({"value": 1, "bound": bad})


def test_verify_random_rejects_fewer_than_one_trial():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="at least 1 trial"):
            verify_random(P("x1^2"), P("x1^3"), trials=trials)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_random_ihl_formula_is_ihl():
    rng = random.Random(11)
    for _ in range(20):
        c = tree_to_circuit(random_ihl_formula(rng, rng.randint(1, 20), 4), "arity2")
        assert c.ihl_defect() is None


def test_random_formula_sizes():
    rng = random.Random(12)
    for _ in range(10):
        size = rng.randint(1, 25)
        c = tree_to_circuit(random_formula(rng, size, 4), "arity2")
        assert c.shape == "formula"


def test_random_graded_arity3_formula_homogeneous_odd():
    rng = random.Random(13)
    for _ in range(15):
        d = rng.choice([1, 3, 5])
        t = random_graded_arity3_formula(rng, d, rng.randint(3, 25), 4)
        c = tree_to_circuit(t, "arity3")
        assert c.ihl_defect() is None and c.syntactic_degrees()[c.output_id] == d
        f = c.eval()
        assert f.is_zero() or f.homog_degrees() == [d]


def test_random_graded_arity3_circuit_valid():
    rng = random.Random(14)
    for _ in range(10):
        d = rng.choice([3, 5, 7])
        c = random_graded_arity3_circuit(rng, d, rng.randint(10, 40), 4)
        assert c.basis == "arity3" and c.syntactic_degrees()[c.output_id] == d
        f = c.eval()
        assert f.is_zero() or f.homog_degrees() == [d]


# each generator's draws at seeds 1 and 2, printed as circuits (sizes, then
# degrees for the graded ones, rise with k), so a change to a generator that
# moves the inputs of the seeded and hypothesis tests fails here
GENERATOR_DRAWS = {
    random_formula: (lambda rng, k: tree_to_circuit(random_formula(rng, k, 4), "arity2"),
                     (1, 7, 25), "a42609d90828b351"),
    random_ihl_formula: (lambda rng, k: tree_to_circuit(random_ihl_formula(rng, k, 4), "arity2"),
                         (1, 7, 25), "f13ae6d34d8b2bfb"),
    random_arity2_circuit: (lambda rng, k: random_arity2_circuit(rng, k, 4),
                            (3, 12, 40), "24dcc92ec056af19"),
    random_graded_arity3_formula: (
        lambda rng, k: tree_to_circuit(
            random_graded_arity3_formula(rng, 2 * (k // 10) + 1, k, 4), "arity3"),
        (3, 20, 45), "b7aaf86782e122fc"),
    random_graded_arity3_circuit: (
        lambda rng, k: random_graded_arity3_circuit(rng, 2 * (k // 10) + 3, k, 4),
        (5, 20, 45), "284d7b626b9c39fb"),
}


@pytest.mark.parametrize("make", GENERATOR_DRAWS, ids=lambda f: f.__name__)
def test_generator_draws_are_pinned(make):
    draw, sizes, digest = GENERATOR_DRAWS[make]
    h = hashlib.sha256()
    for seed in (1, 2):
        for k in sizes:
            h.update(print_circuit(draw(random.Random(seed), k)).encode())
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize("make", [random_graded_arity3_formula, random_graded_arity3_circuit])
def test_graded_generators_leave_no_cyclic_garbage(make):
    # no recursive closure holds the builder, pool or rng in a cycle, so
    # reference counting alone frees what a call leaves behind
    gc.collect()
    gc.disable()
    try:
        for seed in range(3):
            make(random.Random(seed), 5, 20, 3)
            assert gc.collect() == 0
    finally:
        gc.enable()
