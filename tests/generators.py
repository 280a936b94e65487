"""Seeded random instance generators for the tests.

Every draw comes from the caller's ``random.Random``, so a failing test
reproduces from its seed.  ``test_verify.py`` pins the circuits they print
at seeds 1 and 2, so a change here that moves a draw fails there.
"""

import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from homlin.circuit import Circuit, FNode, _implied_basis, _tree_gates
from homlin.poly import Coeff, Polynomial
from homlin.transforms import _CBuilder


def tree_value(t: FNode) -> Polynomial:
    """The polynomial of a formula tree, evaluated through its gate list in
    the basis its gates imply."""
    gates = _tree_gates(t)
    return Circuit(gates, gates[-1].id, "formula", _implied_basis(gates)).eval()


def _random_linear(rng: random.Random, n_vars: int, width: int = 2) -> Polynomial:
    """A nonzero linear form in a few of x1..x{n_vars}, small integer coeffs."""
    k = rng.randint(1, min(width, n_vars))
    names = rng.sample([f"x{i}" for i in range(1, n_vars + 1)], k)
    return Polynomial({(((v, 1),), 0, 0): rng.choice([-2, -1, 1, 1, 1, 2, 3]) for v in names})


def random_formula(rng: random.Random, size: int, n_vars: int) -> FNode:
    """An arbitrary arity-2 formula tree with affine leaves, about ``size``
    nodes."""
    if size <= 1:
        lin = _random_linear(rng, n_vars)
        return FNode.leaf(lin + Polynomial.const(rng.choice([0, 0, 1, -1, 2])))
    left = rng.randint(1, size - 1)
    op = FNode.add if rng.random() < 0.5 else FNode.mul
    return op(
        random_formula(rng, left, n_vars),
        random_formula(rng, size - 1 - left, n_vars),
    )


def random_ihl_formula(rng: random.Random, size: int, n_vars: int) -> FNode:
    """An arity-2 formula whose every leaf is homogeneous linear."""
    if size <= 1:
        return FNode.leaf(_random_linear(rng, n_vars))
    left = rng.randint(1, size - 1)
    op = FNode.add if rng.random() < 0.5 else FNode.mul
    return op(
        random_ihl_formula(rng, left, n_vars),
        random_ihl_formula(rng, size - 1 - left, n_vars),
    )


def random_caterpillar(rng: random.Random, spine: int, ops: Tuple[str, ...],
                       n_vars: int, with_const: bool = False) -> FNode:
    """A formula of depth ``spine``: each step of the spine combines the
    running value with fresh leaves (two for a ``mul3``, one otherwise)
    through an op of ``ops``, each op used equally often in a seeded order,
    the running value on a random side.  Leaves are linear, or affine with
    ``with_const``."""
    def fresh() -> FNode:
        form = _random_linear(rng, n_vars)
        if with_const:
            form = form + Polynomial.const(rng.choice([0, 0, 1, -1, 2]))
        return FNode.leaf(form)

    steps = [ops[i % len(ops)] for i in range(spine)]
    rng.shuffle(steps)
    acc = fresh()
    for kind in steps:
        kids = [acc] + [fresh() for _ in range(2 if kind == "mul3" else 1)]
        if rng.random() < 0.5:
            kids.reverse()
        acc = FNode(kind, tuple(kids))
    return acc


def _split_odd_degree(rng: random.Random, d: int) -> Tuple[int, int, int]:
    """Three odd positive parts summing to the odd d >= 3."""
    d1 = rng.randrange(1, d - 1, 2)
    d2 = rng.randrange(1, d - d1, 2)
    return d1, d2, d - d1 - d2


def random_graded_arity3_formula(
    rng: random.Random, d: int, size: int, n_vars: int
) -> FNode:
    """A graded IHL formula over the arity-3 basis computing a homogeneous
    polynomial of odd degree d, roughly ``size`` nodes."""
    if d < 1 or d % 2 == 0:
        raise ValueError("degree must be odd and positive")
    return _graded_formula(rng, n_vars, d, max(size, 2 * d))


def _graded_formula(rng: random.Random, n_vars: int, deg: int, budget: int) -> FNode:
    """A graded arity-3 subformula of odd degree ``deg``, roughly ``budget``
    nodes."""
    if deg == 1:
        if budget >= 3 and rng.random() < 0.3:
            half = (budget - 1) // 2
            return FNode.add(_graded_formula(rng, n_vars, 1, half),
                             _graded_formula(rng, n_vars, 1, budget - 1 - half))
        return FNode.leaf(_random_linear(rng, n_vars))
    if budget >= 4 * deg and rng.random() < 0.35:
        half = (budget - 1) // 2
        return FNode.add(_graded_formula(rng, n_vars, deg, half),
                         _graded_formula(rng, n_vars, deg, budget - 1 - half))
    d1, d2, d3 = _split_odd_degree(rng, deg)
    b = max(budget - 1, 3)
    s1 = max(1, b * d1 // deg)
    s2 = max(1, b * d2 // deg)
    s3 = max(1, b - s1 - s2)
    return FNode("mul3", (_graded_formula(rng, n_vars, d1, s1),
                          _graded_formula(rng, n_vars, d2, s2),
                          _graded_formula(rng, n_vars, d3, s3)))


def random_graded_arity3_circuit(
    rng: random.Random,
    d: int,
    size: int,
    n_vars: int,
    edge_scalars: bool = True,
) -> Circuit:
    """A graded IHL circuit (shared gates allowed) over the arity-3 basis,
    output homogeneous of odd degree d."""
    if d < 1 or d % 2 == 0:
        raise ValueError("degree must be odd and positive")
    cb = _CBuilder()
    # the gates built so far, by degree
    pool: Dict[int, List[str]] = {}
    for _ in range(max(3, n_vars)):
        pool.setdefault(1, []).append(cb.input(_random_linear(rng, n_vars)))

    def rand_scalars() -> Optional[Tuple[Coeff, Coeff]]:
        if not edge_scalars or rng.random() < 0.6:
            return None
        pick = lambda: Coeff.from_rational(
            Fraction(rng.choice([1, 1, 2, 3, -1]), rng.choice([1, 1, 2]))
        )
        return (pick(), pick())

    while len(cb.gates) < size:
        if rng.random() < 0.4:
            deg = rng.choice(list(pool))
            a = rng.choice(pool[deg])
            b = rng.choice(pool[deg])
            pool[deg].append(cb.emit("add", (a, b), rand_scalars()))
        else:
            degs = list(pool)
            d1 = rng.choice(degs)
            rest = d - d1
            if rest < 2:
                continue
            d2 = rng.choice([x for x in degs if x <= rest - 1] or [1])
            cap = rest - d2
            opts = [x for x in degs if x <= cap]
            d3 = rng.choice(opts) if opts else 1
            gid = cb.emit(
                "mul3",
                (rng.choice(pool[d1]), rng.choice(pool[d2]), _pool_gate(rng, cb, pool, d3)),
            )
            pool.setdefault(d1 + d2 + d3, []).append(gid)

    return cb.output(_pool_gate(rng, cb, pool, d), "arity3", ())


def _pool_gate(rng: random.Random, cb: _CBuilder, pool: Dict[int, List[str]], deg: int) -> str:
    """A pool gate of the exact odd degree, built bottom-up if missing."""
    if deg in pool:
        return rng.choice(pool[deg])
    gid = cb.emit("mul3", (_pool_gate(rng, cb, pool, deg - 2), _pool_gate(rng, cb, pool, 1),
                           _pool_gate(rng, cb, pool, 1)))
    pool.setdefault(deg, []).append(gid)
    return gid


def random_arity2_circuit(rng: random.Random, size: int, n_vars: int) -> Circuit:
    """An arity-2 circuit with shared gates, affine inputs, and random edge
    scalars on additions."""
    cb = _CBuilder()
    pool: List[str] = []

    for _ in range(max(2, n_vars // 2 + 1)):
        const = Polynomial.const(rng.choice([0, 0, 0, 1, -1, 2]))
        pool.append(cb.input(_random_linear(rng, n_vars) + const))

    while len(cb.gates) < size:
        a, b = rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.55:
            scalars = None
            if rng.random() < 0.4:
                scalars = (
                    Coeff.from_rational(rng.choice([1, 2, -1, Fraction(1, 2)])),
                    Coeff.from_rational(rng.choice([1, 1, 3, -2])),
                )
            pool.append(cb.emit("add", (a, b), scalars))
        else:
            pool.append(cb.emit("mul", (a, b)))

    return cb.output(pool[-1], "arity2", ())
