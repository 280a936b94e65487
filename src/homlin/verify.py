"""Correctness harness: exact equivalence, border (eps-limit) equivalence,
randomized identity testing and the ``audit`` command's bound check.

Random verification draws its points from a seeded ``random.Random``, so a
failure reproduces from its seed.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from .matrixword import border_value
from .poly import LimitDiverges, Polynomial, _term_order, format_poly

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
    if lim == target:  # so the limit's degrees are the target's
        details["degreesCompared"] = target.homog_degrees()
        return VerifyReport("border", True, timing=time.perf_counter() - t0, details=details)
    details["degreesCompared"] = sorted(set(lim.homog_degrees()) | set(target.homog_degrees()))
    return VerifyReport(
        "border", False, witness=_first_differing_monomial(lim - target),
        timing=time.perf_counter() - t0, details=details,
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
    if trials < 1:
        raise ValueError(f"random verification needs at least 1 trial, got {trials}")
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


def audit_bounds(report: Mapping[str, object]) -> VerifyReport:
    """Check a counts mapping of the form {"value": v, "bound": B}: pass iff
    v <= B."""
    t0 = time.perf_counter()
    v, bound = report["value"], report["bound"]
    for name, x in (("value", v), ("bound", bound)):
        if type(x) is not int and not (type(x) is float and math.isfinite(x)):
            raise ValueError(f"audit field {name!r} must be a finite number, got {x!r}")
    ok = v <= bound
    return VerifyReport(
        "audit", ok, witness=None if ok else f"value {v} exceeds bound {bound}",
        timing=time.perf_counter() - t0, details=dict(report),
    )
