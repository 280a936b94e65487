"""Correctness harness: exact equivalence, border (eps-limit) equivalence,
randomized identity testing, bound audits, and the random instance generators
used throughout the test suite.

All randomness is drawn from a caller-supplied ``random.Random`` so failures
reproduce from a seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .circuit import Circuit, FNode
from .matrixword import border_value
from .poly import (
    Coeff,
    LimitDiverges,
    Polynomial,
    _term_order,
    format_poly,
)
from .transforms import PassReport, _CBuilder, _restrict_reachable

# 2^61 - 1: single-machine-word Mersenne prime; error probability per trial is
# degree/P, negligible at the sizes this tool handles.
DEFAULT_PRIME = (1 << 61) - 1
DEFAULT_TRIALS = 20


@dataclass
class VerifyReport:
    mode: str  # "exact" | "border" | "random(trials, prime)" | "audit"
    verdict: bool
    witness: Optional[str] = None
    timing: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.verdict and self.witness is None:
            raise ValueError("a failing report needs a witness")


def _first_differing_monomial(diff: Polynomial) -> str:
    key, c = _term_order(diff.terms)[0]
    return format_poly(Polynomial._normalised({key: c}))


def verify_exact(a: Polynomial, b: Polynomial) -> VerifyReport:
    """Pass iff the two polynomials' canonical forms are identical."""
    t0 = time.perf_counter()
    diff = a - b
    elapsed = time.perf_counter() - t0
    if diff.is_zero():
        return VerifyReport("exact", True, timing=elapsed)
    return VerifyReport(
        "exact", False, witness=_first_differing_monomial(diff), timing=elapsed
    )


# the eps-limit reads the eps^0 terms and diverges on a negative power, so the
# value is needed only mod eps^1
BORDER_ORDER = 1


def verify_border(obj, target: Polynomial) -> VerifyReport:
    """Pass iff the matrix word / projection, after applying its scalar and
    functional, has an eps-limit equal to the target in every degree.

    The value is computed mod eps^BORDER_ORDER, which keeps every term of
    exponent <= 0 exactly.  The details name the truncation order and the
    x-degrees compared.  ``target`` must be eps-free.
    """
    if target.max_eps_exp() != 0 or target.min_eps_exp() != 0:
        raise ValueError("border target must be eps-free")
    t0 = time.perf_counter()
    p = border_value(obj, below=BORDER_ORDER)
    details: Dict[str, object] = {"truncationOrder": BORDER_ORDER}
    try:
        lim = p.eps_limit()
    except LimitDiverges as exc:
        return VerifyReport(
            "border", False, witness=f"LimitDiverges: {exc}",
            timing=time.perf_counter() - t0, details=details,
        )
    details["degreesCompared"] = sorted(set(lim.homog_degrees()) | set(target.homog_degrees()))
    elapsed = time.perf_counter() - t0
    if lim == target:
        return VerifyReport("border", True, timing=elapsed, details=details)
    return VerifyReport(
        "border", False, witness=_first_differing_monomial(lim - target),
        timing=elapsed, details=details,
    )


def verify_random(
    a: Polynomial,
    b: Polynomial,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    prime: int = DEFAULT_PRIME,
) -> VerifyReport:
    """Schwartz-Zippel identity test at random points of the prime field.

    eps stays symbolic (per-exponent comparison); alpha must already be
    substituted away.
    """
    rng = random.Random(seed)
    t0 = time.perf_counter()
    vs = sorted(a.variables() | b.variables())
    mode = f"random({trials}, {prime})"
    for t in range(trials):
        point = {v: rng.randrange(prime) for v in vs}
        if a.eval_random(point, prime) != b.eval_random(point, prime):
            return VerifyReport(
                mode, False, witness=f"trial {t}: point {point}",
                timing=time.perf_counter() - t0,
            )
    return VerifyReport(mode, True, timing=time.perf_counter() - t0)


def audit_bounds(report: Union[PassReport, Mapping[str, object]]) -> VerifyReport:
    """Re-assert a pass report's hard bound, or check a plain counts mapping
    of the form {"value": v, "bound": B} (pass iff v <= B).  Asymptotic
    bounds carry their fitted constants in the details, informationally."""
    t0 = time.perf_counter()
    if isinstance(report, PassReport):
        ok = report.bound_satisfied
        details = {"bound": report.bound_formula, **report.details}
        witness = None if ok else (
            f"pass {report.pass_name}: {report.bound_formula} violated "
            f"(metrics {report.output_metrics})"
        )
    else:
        v, bound = report["value"], report["bound"]
        ok = v <= bound
        details = dict(report)
        witness = None if ok else f"value {v} exceeds bound {bound}"
    return VerifyReport(
        "audit", ok, witness=witness, timing=time.perf_counter() - t0,
        details=details,
    )


# ---------------------------------------------------------------------------
# random instance generators
# ---------------------------------------------------------------------------


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

    def gen(deg: int, budget: int) -> FNode:
        if deg == 1:
            if budget >= 3 and rng.random() < 0.3:
                half = (budget - 1) // 2
                return FNode.add(gen(1, half), gen(1, budget - 1 - half))
            return FNode.leaf(_random_linear(rng, n_vars))
        if budget >= 4 * deg and rng.random() < 0.35:
            half = (budget - 1) // 2
            return FNode.add(gen(deg, half), gen(deg, budget - 1 - half))
        d1, d2, d3 = _split_odd_degree(rng, deg)
        b = max(budget - 1, 3)
        s1 = max(1, b * d1 // deg)
        s2 = max(1, b * d2 // deg)
        s3 = max(1, b - s1 - s2)
        return FNode.mul3(gen(d1, s1), gen(d2, s2), gen(d3, s3))

    return gen(d, max(size, 2 * d))


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
    pool: Dict[int, List[str]] = {}

    def add_to_pool(deg: int, gid: str):
        pool.setdefault(deg, []).append(gid)

    for _ in range(max(3, n_vars)):
        add_to_pool(1, cb.input(_random_linear(rng, n_vars)))

    def rand_scalars() -> Optional[Tuple[Coeff, Coeff]]:
        if not edge_scalars or rng.random() < 0.6:
            return None
        pick = lambda: Coeff.from_rational(
            Fraction(rng.choice([1, 1, 2, 3, -1]), rng.choice([1, 1, 2]))
        )
        return (pick(), pick())

    def ensure(deg: int) -> str:
        """A pool gate of the exact odd degree, built bottom-up if missing."""
        if deg in pool:
            return rng.choice(pool[deg])
        gid = cb.emit("mul3", (ensure(deg - 2), ensure(1), ensure(1)))
        add_to_pool(deg, gid)
        return gid

    while len(cb.gates) < size:
        if rng.random() < 0.4:
            deg = rng.choice(list(pool))
            a = rng.choice(pool[deg])
            b = rng.choice(pool[deg])
            add_to_pool(deg, cb.emit("add", (a, b), rand_scalars()))
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
                (rng.choice(pool[d1]), rng.choice(pool[d2]), ensure(d3)),
            )
            add_to_pool(d1 + d2 + d3, gid)

    out = ensure(d)
    gates = _restrict_reachable(cb.gates, out)
    return Circuit(gates, out, "circuit", "arity3")


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

    out = pool[-1]
    gates = _restrict_reachable(cb.gates, out)
    return Circuit(gates, out, "circuit", "arity2")
