"""The three workloads: set-up (seeded inputs written as artifacts) and the
instances a run times.

An instance is one call into homlin, from input artifact to verdict or
output: ``homlin.cli.main`` for every CLI path, library calls for the
even-degree continuant path (the CLI has none).  Each instance knows its
expected exit code, the artifacts it writes (digested for determinism), how
to check its outputs with the bench's own oracle after the timed window,
and its output size.

Instances come in groups: a perturbed negative re-reads the artifact its
positive wrote, so it runs right after it.
"""

from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, Dict, List, Optional

import catalogue
import inputs
import oracle
from inputs import Gates, circuit_text, poly_text


class Instance:
    """One timed call into homlin and what its answer must be."""

    def __init__(self, name: str, expect: int, run: Callable[["Instance"], int],
                 artifacts: Callable[[], List[str]] = lambda: [],
                 check: Optional[Callable[["Instance", random.Random], List[str]]] = None,
                 size: Callable[["Instance"], int] = lambda inst: 0):
        self.name = name
        self.expect = expect  # 0 pass, 1 verification fails, 2 invalid input
        self._run = run
        self.artifacts = artifacts
        self.check = check
        self.size = size
        self.stdout = ""

    def run(self) -> int:
        return self._run(self)


def _write(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cli(H, argv: List[str]) -> Callable[[Instance], int]:
    def run(inst: Instance) -> int:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = H.cli.main(argv)
        inst.stdout = out.getvalue()
        return code
    return run


def _files(folder: str, names: List[str]) -> Callable[[], List[str]]:
    return lambda: [os.path.join(folder, n) for n in names]


def _negative(H, name: str, artifact: str, target: Dict, rng: random.Random, work: str) -> Instance:
    """``homlin verify --mode border`` of a written word or projection
    against a target with one extra monomial: the known answer is FAIL."""
    bad = _write(os.path.join(work, "in", f"{name}-neg.poly"), poly_text(inputs.perturb(target, rng)) + "\n")
    return Instance(f"{name}-neg", 1, _cli(H, ["verify", "--mode", "border", "--in", artifact, "--against", bad]))


def costliest(costs: List[float], k: int) -> set:
    """The k catalogue entries that cost the most: their negatives re-verify
    the words where a verifier change shows most, and the same entries get
    one under every seed, so the pool's cost does not depend on the seed
    (the seed draws each perturbation)."""
    return set(sorted(range(len(costs)), key=lambda i: -costs[i])[:k])


def _stage_check(gates: Gates, folder: str, stages: List[str]):
    def check(inst: Instance, rng: random.Random) -> List[str]:
        problems: List[str] = []
        for s in stages:
            problems += oracle.check_stage(gates, os.path.join(folder, s), rng)
        return problems
    return check


def _count_lines(path: str, prefix: str) -> int:
    return sum(1 for line in _read(path).splitlines() if line.startswith(prefix))


def _projection_forms(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        words = fh.readline().split()
    return int(words[words.index("n") + 1])


# ---------------------------------------------------------------------------
# trace3-border
# ---------------------------------------------------------------------------

# shapes: catalogue.json (see catalogue.py); perturbed negatives for the costliest
TRACE3_NEGATIVES = 6


def setup_trace3(H, seed: int, work: str) -> List[List[Instance]]:
    rng = random.Random(seed)
    groups = []
    shapes = catalogue.load()["trace3"]
    negatives = costliest([e["seconds"] for e in shapes], TRACE3_NEGATIVES)
    for i, skel in enumerate(e["gates"] for e in shapes):
        name = f"t3-{i:02d}"
        gates = inputs.instantiate(skel, rng)
        src = _write(os.path.join(work, "in", f"{name}.circ"), circuit_text(gates, "formula", "arity2"))
        out = os.path.join(work, "out", name)
        word = os.path.join(out, "word.txt")
        pos = Instance(
            name, 0, _cli(H, ["pipeline", "--in", src, "--target", "trace3", "--out", out]),
            artifacts=_files(out, ["01-brent.circ", "02-ihl-formula.circ", "word.txt", "report.txt"]),
            check=_stage_check(gates, out, ["01-brent.circ", "02-ihl-formula.circ"]),
            size=lambda inst, word=word: _count_lines(word, "factor:"))
        group = [pos]
        target = inputs.expand(gates) if i in negatives else None
        if target:
            group.append(_negative(H, name, word, target, rng, work))
        groups.append(group)
    return groups


# ---------------------------------------------------------------------------
# continuant-border
# ---------------------------------------------------------------------------

# odd degrees 3 and 5 by the CLI pipeline, even 2 and 4 by library calls
CONTINUANT_NEGATIVES = 4


def _even_library(H, src: str, target: str, out: str, d: int) -> Callable[[Instance], int]:
    """vf_to_v3p -> compile_continuant_even -> verify_border, as library
    calls from the artifacts on disk."""
    def run(inst: Instance) -> int:
        c = H.circuit.parse_circuit(_read(src))
        g, _report = H.transforms.vf_to_v3p(c)
        p = H.matrixword.compile_continuant_even(g, d)
        _write(os.path.join(out, "projection.txt"), H.matrixword.format_projection(p))
        rep = H.verify.verify_border(p, H.poly.parse_poly(_read(target)))
        return 0 if rep.verdict else 1
    return run


def setup_continuant(H, seed: int, work: str) -> List[List[Instance]]:
    rng = random.Random(seed)
    shapes = catalogue.load()
    odd, even = shapes["continuant_odd"], shapes["continuant_even"]
    negatives = costliest([e["seconds"] for e in odd + even], CONTINUANT_NEGATIVES)
    groups = []
    for i, (d, skel) in enumerate((e["degree"], e["gates"]) for e in odd + even):
        gates = inputs.instantiate(skel, rng)
        target = inputs.expand(gates) if i in negatives or i >= len(odd) else None
        out = os.path.join(work, "out", f"ct-{i:02d}")
        proj = os.path.join(out, "projection.txt")
        size = lambda inst, proj=proj: _projection_forms(proj)
        if i < len(odd):
            name = f"ct-{i:02d}-odd{d}"
            src = _write(os.path.join(work, "in", f"{name}.circ"), circuit_text(gates, "formula", "arity3"))
            stages = ["01-brent3.circ", "02-add-negcube.circ"]
            pos = Instance(
                name, 0, _cli(H, ["pipeline", "--in", src, "--target", "continuant", "--out", out]),
                artifacts=_files(out, stages + ["projection.txt", "report.txt"]),
                check=_stage_check(gates, out, stages), size=size)
        else:
            name = f"ct-{i:02d}-even{d}"
            src = _write(os.path.join(work, "in", f"{name}.circ"), circuit_text(gates, "formula", "arity2"))
            target_file = _write(os.path.join(work, "in", f"{name}.poly"), poly_text(target) + "\n")
            pos = Instance(name, 0, _even_library(H, src, target_file, out, d),
                           artifacts=_files(out, ["projection.txt"]), size=size)
        group = [pos]
        if i in negatives and target:
            group.append(_negative(H, name, proj, target, rng, work))
        groups.append(group)
    return groups


# ---------------------------------------------------------------------------
# passes-deep
# ---------------------------------------------------------------------------

# (pass, generator, argument) schedule.  Spine lengths set the formula depth;
# the 650-700 deep ones are past the depth at which today's recursive tree
# passes raise RecursionError (between 450 and 500), and stay in the workload
# so that defect shows in failed_ratio.
PASSES_SCHEDULE = (
    [("brent", "caterpillar2", n) for n in (40, 80, 120, 160, 200, 260, 320, 400, 700)]
    + [("brent3", "caterpillar3", n) for n in (30, 60, 100, 150, 200, 250, 300, 350)]
    + [("add-negcube", "triples", n) for n in (10, 20, 40, 60, 80, 100, 650)]
    + [("ihl-circuit", "shared2", n) for n in (200, 400, 800, 1600, 4000)]
    + [("vsbr3", "graded3", n) for n in (5, 7, 9, 11, 13)]
    + [("vf-to-v3p", "binomials", n) for n in (3, 4, 5, 6)]
)
MALFORMED = ("dangling-child", "unknown-kind", "missing-output", "non-affine-input")


def _pass_input(rng: random.Random, gen: str, n: int):
    """(gates, shape, basis) for one schedule entry."""
    if gen == "caterpillar2":
        return inputs.caterpillar(rng, n, ("add", "mul"), with_const=True), "formula", "arity2"
    if gen == "caterpillar3":
        return inputs.caterpillar(rng, n, ("add", "mul3")), "formula", "arity3"
    if gen == "triples":
        return inputs.sum_of_triples(rng, n), "formula", "arity3"
    if gen == "shared2":
        return inputs.shared_arity2_circuit(rng, n), "circuit", "arity2"
    if gen == "graded3":
        return inputs.graded3_circuit(rng, n, 20 * n), "circuit", "arity3"
    return inputs.binomial_product(rng, n), "formula", "arity2"


def malformed_text(kind: str, rng: random.Random) -> str:
    """A small valid formula's text with one seeded defect."""
    text = circuit_text(inputs.caterpillar(rng, 3, ("add", "mul")), "formula", "arity2")
    lines = text.splitlines()
    if kind == "dangling-child":
        lines[-2] = lines[-2].rsplit(" ", 1)[0] + " g99"
    elif kind == "unknown-kind":
        lines[-2] = lines[-2].replace(" = add ", " = pow ").replace(" = mul ", " = pow ")
    elif kind == "missing-output":
        lines = lines[:-1]
    else:
        lines[2] = lines[2].split(" = ")[0] + f" = input x{rng.randint(1, 4)}^2"
    return "\n".join(lines) + "\n"


def setup_passes(H, seed: int, work: str) -> List[List[Instance]]:
    rng = random.Random(seed)
    groups = []
    os.makedirs(os.path.join(work, "out"), exist_ok=True)
    for i, (pass_name, gen, n) in enumerate(PASSES_SCHEDULE):
        name = f"ps-{i:02d}-{pass_name}-{n}"
        gates, shape, basis = _pass_input(rng, gen, n)
        src = _write(os.path.join(work, "in", f"{name}.circ"), circuit_text(gates, shape, basis))
        dst = os.path.join(work, "out", f"{name}.circ")
        if pass_name == "vf-to-v3p":
            artifacts = lambda dst=dst: sorted(
                os.path.join(os.path.dirname(dst), f) for f in os.listdir(os.path.dirname(dst))
                if f.startswith(os.path.basename(dst) + "."))
        else:
            artifacts = lambda dst=dst: [dst]
        groups.append([Instance(
            name, 0, _cli(H, ["transform", "--pass", pass_name, "--in", src, "--out", dst]),
            artifacts=artifacts,
            check=lambda inst, r, p=pass_name, g=gates, dst=dst: oracle.check_pass(p, g, dst, inst.stdout, r),
            size=lambda inst: oracle.parse_pass_report(inst.stdout)["output"]["size"])])
    for kind in MALFORMED:
        src = _write(os.path.join(work, "in", f"bad-{kind}.circ"), malformed_text(kind, rng))
        dst = os.path.join(work, "out", f"bad-{kind}.circ")
        groups.append([Instance(f"bad-{kind}", 2, _cli(H, ["transform", "--pass", "brent", "--in", src, "--out", dst]))])
    return groups


WORKLOADS = {
    "trace3-border": setup_trace3,
    "continuant-border": setup_continuant,
    "passes-deep": setup_passes,
}
