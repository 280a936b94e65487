"""Self-tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import math
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import catalogue  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from run import classify, median_ranked, tail  # noqa: E402

from homlin.circuit import parse_circuit, print_circuit  # noqa: E402
from homlin.poly import parse_poly  # noqa: E402
from homlin.transforms import to_add_negcube  # noqa: E402


# -- percentile rule --------------------------------------------------------


def test_tail_leaves_ten_instances_beyond():
    value, pct, n = tail([float(i) for i in range(1, 101)], 0)
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(t > value for t in range(1, 101)) == 10


def test_failed_instances_rank_slowest():
    value, pct, n = tail([float(i) for i in range(1, 96)], 5)
    assert (value, pct, n) == (90.0, 90.0, 100)
    # eleven failures leave no finite sample with only ten beyond it
    assert math.isinf(tail([1.0] * 89, 11)[0])
    assert median_ranked([1.0, 2.0], 1) == 2.0
    assert math.isinf(median_ranked([1.0], 2))


def test_tail_of_a_small_sample_is_its_maximum():
    assert tail([3.0, 1.0, 2.0], 0) == (3.0, 100.0, 3)


def test_outcome_classes():
    assert classify(0, 0, None) == "ok"
    assert classify(1, 0, None) == "wrong"  # a perturbed target passed
    assert classify(2, 1, None) == "wrong"  # a malformed artifact got a verdict
    assert classify(0, 2, None) == "exit"
    assert classify(0, None, "RecursionError: ...") == "raised"


def test_reference_speed_comes_from_samples_around_an_instance():
    refs = [(0.0, 0.002), (1.0, 0.001), (1.1, 0.001), (3.0, 0.001), (9.0, 0.004)]
    # a short instance: the samples right before and after it, both 1 ms
    assert speed.factor(refs, 1.05, 1.08) == speed.NOMINAL_S / 0.001
    # a long one: 1 ms before, 4 ms after, none near
    assert math.isclose(speed.factor(refs, 3.5, 8.5), speed.NOMINAL_S / 0.0025)


# -- self-time arithmetic -----------------------------------------------------


def test_self_time_subtracts_children():
    t = spans.synthetic([
        ("cli.main", 0.0, 10.0, -1),
        ("poly.mul", 1.0, 4.0, 0),
        ("verify.border", 5.0, 9.0, 0),
        ("poly.mul", 6.0, 7.0, 2),
    ])
    assert list(t.self_times()) == [3.0, 3.0, 3.0, 1.0]
    m = t.layer_metrics()
    assert m["poly.mul.calls"] == 2 and m["poly.mul.self_s"] == 4.0
    assert m["cli.main.self_s"] == 3.0 and m["verify.border.self_s"] == 3.0
    # self times of nested spans add up to the root's duration
    assert sum(t.self_times()) == 10.0


def test_tracer_restores_originals():
    from run import import_homlin

    H = import_homlin()
    before = (H.poly.Polynomial.__mul__, H.cli.compile_trace3, H.matrixword.compile_trace3)
    tr = spans.Tracer()
    tr.install(H)
    assert H.cli.compile_trace3 is H.matrixword.compile_trace3 is not before[1]
    x = H.poly.Polynomial.variable("x1")
    assert (x * x).terms and tr.layer_metrics()["poly.mul.calls"] == 1
    tr.uninstall()
    assert (H.poly.Polynomial.__mul__, H.cli.compile_trace3, H.matrixword.compile_trace3) == before


# -- the F_p oracle against Circuit.eval ------------------------------------------


def _homlin_value(text: str, point) -> int:
    value = parse_circuit(text).eval().eval_random(point, oracle.P)
    assert set(value) <= {0}
    return value.get(0, 0)


def _small_inputs(rng):
    yield inputs.caterpillar(rng, 6, ("add", "mul"), with_const=True), "formula", "arity2"
    yield inputs.caterpillar(rng, 4, ("add", "mul3")), "formula", "arity3"
    yield inputs.sum_of_triples(rng, 3), "formula", "arity3"
    yield inputs.shared_arity2_circuit(rng, 14), "circuit", "arity2"
    yield inputs.graded3_circuit(rng, 5, 12), "circuit", "arity3"
    yield inputs.binomial_product(rng, 3), "formula", "arity2"


def test_fp_evaluator_agrees_with_circuit_eval():
    rng = random.Random(5)
    for seed in range(4):
        for gates, shape, basis in _small_inputs(random.Random(seed)):
            text = inputs.circuit_text(gates, shape, basis)
            pt = oracle.random_point(rng)
            want = _homlin_value(text, pt)
            assert oracle.eval_gates_fp(gates, pt) == want
            assert oracle.eval_circuit_fp(text, pt)["value"] == want
            # homlin's own printing of the same circuit reads back the same
            assert oracle.eval_circuit_fp(print_circuit(parse_circuit(text)), pt)["value"] == want


def test_fp_evaluator_reads_negcube_scales():
    gates = inputs.caterpillar(random.Random(2), 3, ("add", "mul3"))
    c = parse_circuit(inputs.circuit_text(gates, "formula", "arity3"))
    anc, _ = to_add_negcube(c)
    text = print_circuit(anc)
    assert " scale " in text
    pt = oracle.random_point(random.Random(3))
    assert oracle.eval_circuit_fp(text, pt)["value"] == _homlin_value(text, pt)
    assert oracle.eval_gates_fp(gates, pt) == _homlin_value(text, pt)


def test_exact_expansion_matches_circuit_eval():
    for gates, shape, basis in _small_inputs(random.Random(9)):
        if len(gates) > 40:
            continue
        text = inputs.circuit_text(gates, shape, basis)
        assert parse_poly(inputs.poly_text(inputs.expand(gates))) == parse_circuit(text).eval()


# -- perturbed targets ------------------------------------------------------------


def _degrees(p):
    return {sum(e for _, e in m) for m in p}


def test_perturbations_differ_in_a_checked_degree():
    """verify_border restricts a homogeneous target's comparison to its
    degree; every perturbation must land in a degree the target has."""
    shapes = catalogue.load()
    skels = shapes["trace3"] + shapes["continuant_odd"] + shapes["continuant_even"]
    for seed in range(3):
        rng = random.Random(seed)
        for skel in (e["gates"] for e in skels):
            target = inputs.expand(inputs.instantiate(skel, rng))
            if not target:
                continue
            bad = inputs.perturb(target, rng)
            diff = {m: bad.get(m, 0) - target.get(m, 0) for m in set(bad) | set(target)}
            diff = {m: c for m, c in diff.items() if c}
            assert diff, "perturbation left the target unchanged"
            assert _degrees(diff) <= _degrees(target)
            if len(_degrees(target)) == 1:
                assert _degrees(diff) == _degrees(target)


def test_catalogue_round_trips():
    for rows in catalogue.load().values():
        for e in rows:
            assert catalogue.decode(catalogue.encode(e["gates"])) == e["gates"]
