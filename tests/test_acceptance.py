"""Acceptance gate: the ten binding criteria, all exact (zero tolerance).

Every criterion uses seeded randomness so failures reproduce; independent
oracles (polynomial evaluation, brute-force enumeration, symbolic matrix
expansion) pin the expected values.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

from homlin.circuit import BasisViolation, FNode, tree_to_circuit
from homlin.families import gen_C_comb, gen_family
from homlin.matrixword import (
    MatrixWord,
    compile_continuant_even,
    compile_continuant_odd,
    compile_offdiag3,
    compile_trace3,
)
from homlin.poly import COEFF_ONE, Polynomial
from homlin.transforms import (
    _bracket_child_order,
    _descendants,
    brent_arity3,
    frontier,
    input_homogenize_circuit,
    to_add_negcube,
    vf_to_v3p,
    vsbr_arity3,
)
from homlin.verify import verify_border
from generators import (
    _random_linear,
    random_arity2_circuit,
    random_formula,
    random_graded_arity3_circuit,
    random_graded_arity3_formula,
)
from test_matrixword import expand


def _ihl_formula_of_depth(rng, depth, n_vars):
    if depth == 0 or (depth < 5 and rng.random() < 0.2):
        return FNode.leaf(_random_linear(rng, n_vars))
    op = FNode.add if rng.random() < 0.5 else FNode.mul
    return op(
        _ihl_formula_of_depth(rng, depth - 1, n_vars),
        _ihl_formula_of_depth(rng, depth - 1, n_vars),
    )


def test_criterion_1_input_homogenization():
    rng = random.Random(101)
    for _ in range(50):
        c = random_arity2_circuit(rng, rng.randint(2, 40), rng.randint(1, 6))
        s = c.size()
        out, rep = input_homogenize_circuit(c)
        f = c.eval()
        want = f - f.constant_part().to_poly()
        assert out.eval() == want
        assert out.size() <= 6 * s
        assert out.depths()[0] <= 3 * s
        assert rep.bound_satisfied


def _criterion_2_3_formulas():
    rng = random.Random(202)
    out = []
    for _ in range(30):
        t = _ihl_formula_of_depth(rng, rng.randint(0, 5), 4)
        out.append(tree_to_circuit(t, "arity2"))
    return out


def test_criterion_2_offdiag_exact():
    for c in _criterion_2_3_formulas():
        w = compile_offdiag3(c, (1, 3))
        assert w.r() <= 4 ** c.depths()[0]
        m = expand(w)
        for i in range(3):
            m[i][i] = m[i][i] - Polynomial.const(1)
        assert m[0][2] == c.eval()
        for i in range(3):
            for j in range(3):
                if (i, j) != (0, 2):
                    assert m[i][j].is_zero()


def test_criterion_3_trace_border():
    for c in _criterion_2_3_formulas():
        rep = verify_border(compile_trace3(c), c.eval())
        assert rep.verdict, rep.witness


def test_criterion_4_continuant_odd_pipeline():
    rng = random.Random(404)
    for _ in range(20):
        d = rng.choice([1, 3, 3, 5])
        size = rng.randint(2, 30) if d < 5 else rng.randint(2, 12)
        t = random_graded_arity3_formula(rng, d, size, 4)
        c = tree_to_circuit(t, "arity3")
        f = c.eval()
        balanced, _rep1 = brent_arity3(c)
        anc, _rep2 = to_add_negcube(balanced)
        p = compile_continuant_odd(anc)
        assert p.d == d
        rep = verify_border(p, f)
        assert rep.verdict, rep.witness


def test_criterion_5_continuant_even():
    rng = random.Random(505)

    def lf():
        return FNode.leaf(_random_linear(rng, 4))

    random_deg4 = FNode.add(
        FNode.mul(FNode.mul(lf(), lf()), FNode.mul(lf(), lf())),
        FNode.mul(FNode.mul(lf(), lf()), FNode.mul(lf(), lf())),
    )
    fixtures = [
        (FNode.mul(FNode.var("x1"), FNode.var("x2")), 2),
        (FNode.mul(FNode.var("x1"), FNode.var("x1")), 2),
        (
            FNode.add(
                FNode.mul(FNode.var("x1"), FNode.var("x2")),
                FNode.mul(FNode.var("x3"), FNode.var("x4")),
            ),
            2,
        ),
        (random_deg4, 4),
    ]
    for tree, d in fixtures:
        c = tree_to_circuit(tree, "arity2")
        f = c.eval()
        g, _rep = vf_to_v3p(c)
        p = compile_continuant_even(g, d)
        rep = verify_border(p, f)
        assert rep.verdict, rep.witness
        assert not verify_border(p, f + Polynomial.variable("x1") ** d).verdict
        # zero slots are absorbed, and the length stays even
        assert not any(lf.is_zero() for lf in p.forms[1:-1])
        assert p.n % 2 == 0


def test_criterion_6_brent_arity3():
    rng = random.Random(606)
    for _ in range(30):
        d = rng.choice([3, 5, 7])
        size = rng.randint(10, 200)
        t = random_graded_arity3_formula(rng, d, size, 4)
        c = tree_to_circuit(t, "arity3")
        out, rep = brent_arity3(c)
        s = c.size()
        assert out.depths()[0] <= 2 * math.log(s, 1.5) + 4
        assert out.eval() == c.eval()
        assert rep.bound_satisfied  # per-step recursion audits


def test_criterion_7_vsbr_semantics_and_depth():
    rng = random.Random(707)
    for _ in range(20):
        d = rng.choice([3, 5, 7])
        c = random_graded_arity3_circuit(rng, d, rng.randint(10, 60), 4)
        out, rep = vsbr_arity3(c)
        assert out.eval() == c.eval()
        assert out.basis == "arity3"
        assert out.ihl_defect() is None
        assert "fittedC" in rep.details  # measured constant, reported not asserted


def _z_subst(p, q):
    return p.substitute({"z": q})


def oracle_bracket_poly(c, uid, vid):
    """Test oracle: the bracket polynomial [u:v] of an arity-3 circuit,
    linear in the placeholder variable z, by the recursion that defines it
    (vsbr3 computes only its constant coefficients)."""
    vals = c.eval_gates()
    deg = c.syntactic_degrees()
    memo = {}

    def rec(u):
        if u in memo:
            return memo[u]
        if u == vid:
            p = Polynomial.variable("z")
        else:
            g = c.by_id[u]
            if g.kind == "input":
                p = Polynomial.zero()
            elif g.kind == "add":
                s1, s2 = g.edge_scalars or (COEFF_ONE, COEFF_ONE)
                p = rec(g.children[0]).scale(s1) + rec(g.children[1]).scale(s2)
            elif g.kind == "mul3":
                u1, u2, u3 = _bracket_child_order(g, deg)
                p = rec(u1) * vals[u2] * vals[u3]
            else:
                raise BasisViolation(f"bracket over arity-3 basis only, got {g.kind}")
        memo[u] = p
        return p

    return rec(uid)


def test_criterion_7_usum_lemma_samples():
    rng = random.Random(717)
    samples = 0
    while samples < 50:
        d = rng.choice([3, 5, 7])
        c = random_graded_arity3_circuit(rng, d, rng.randint(8, 30), 3)
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
            if w in desc[u]:
                acc = acc + _z_subst(oracle_bracket_poly(c, u, w), vals[w])
        assert acc == vals[u], (u, m)
        samples += 1


def test_criterion_7_uvsum_lemma_samples():
    rng = random.Random(727)
    samples = 0
    while samples < 50:
        d = rng.choice([5, 7])
        c = random_graded_arity3_circuit(rng, d, rng.randint(10, 30), 3)
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
            if w in desc[u]:
                acc = acc + _z_subst(oracle_bracket_poly(c, u, w), oracle_bracket_poly(c, w, v))
        assert acc == lhs, (u, v, m)
        samples += 1


def oracle_reassemble(g):
    """Test oracle: the polynomial a graded decomposition stands for,
    f = constant + odd parts + sum over even d of (1/d) * sum_i x_i * part_i
    (see ``GradedArity3Repr``)."""
    out = g.constant_part
    for part in g.odd_parts.values():
        out = out + part.eval()
    for d, parts in g.even_parts.items():
        for v, part in parts.items():
            out = out + Polynomial.variable(v) * part.eval() * Fraction(1, d)
    return out


def test_criterion_8_vf_to_v3p():
    rng = random.Random(808)
    for _ in range(30):
        c = tree_to_circuit(random_formula(rng, rng.randint(1, 18), 4), "arity2")
        g, _rep = vf_to_v3p(c)
        assert oracle_reassemble(g) == c.eval()
        assert g.validate()[0]


def test_criterion_9_family_oracles():
    for n in range(1, 10):
        for d in range(1, n + 1):
            assert gen_C_comb(n, d) == gen_family("C", n, d)
    for n in range(2, 10):
        for d in range(0, n + 1):
            if n % 2 != d % 2:
                assert gen_C_comb(n, d) == gen_C_comb(n - 1, d)
    # |C(5,3)| against brute-force enumeration of parity-alternating triples
    count = sum(
        1
        for combo in combinations(range(1, 6), 3)
        if all(i % 2 == (j + 1) % 2 for j, i in enumerate(combo))
    )
    assert count == 4
    assert len(gen_C_comb(5, 3).terms) == 4


def test_criterion_10_identity_fixtures():
    t0 = time.perf_counter()
    x, y, z = (Polynomial.variable(v) for v in "xyz")
    lhs = (
        (x + y + z) ** 3
        - (x + y - z) ** 3
        - (x - y + z) ** 3
        + (x - y - z) ** 3
    )
    assert lhs == x * y * z * 24

    f, g = Polynomial.variable("f"), Polynomial.variable("g")

    def factor(i, j, p):
        return {(i - 1, j - 1): p}

    w = MatrixWord(
        3, [factor(1, 2, f), factor(2, 3, g), factor(1, 2, -f), factor(2, 3, -g)]
    )
    m = expand(w)
    for i in range(3):
        for j in range(3):
            if (i, j) == (0, 2):
                assert m[i][j] == f * g
            else:
                assert m[i][j] == (
                    Polynomial.const(1) if i == j else Polynomial.zero()
                )
    assert time.perf_counter() - t0 < 1.0
