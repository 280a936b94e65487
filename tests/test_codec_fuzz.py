"""Property tests for the artifact text codec.

Random circuits, words and projections survive a print -> parse -> print
round trip byte for byte, with equal values.  Single-character mutations of
valid circuit, word, projection and polynomial texts, sent through the
command line, exit 0, 1 or 2: a malformed artifact is invalid input, never
an internal error (exit 3)."""

import io
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from homlin.circuit import (
    BASES,
    Circuit,
    FNode,
    Gate,
    parse_circuit,
    print_circuit,
    tree_to_circuit,
)
from homlin.cli import main
from homlin.matrixword import (
    MatrixWord,
    Projection,
    compile_continuant_odd,
    compile_offdiag3,
    compile_trace3,
    format_projection,
    format_word,
    parse_projection,
    parse_word,
)
from homlin.poly import Coeff, Polynomial, format_poly
from homlin.transforms import to_add_negcube
from homlin.verify import random_arity2_circuit, random_formula, random_graded_arity3_circuit
from test_matrixword import sparse

# bounded example counts keep the whole file to a few seconds
ROUND_TRIP = settings(max_examples=50, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow])
MUTATIONS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 1, 2, 3, 7]))
_names = st.sampled_from(["x1", "x2", "x3", "x10", "x1_2", "y", "z"])


@st.composite
def coeffs(draw, allow_zero=True):
    terms = draw(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(0, 2)),
                                 _rationals, max_size=3))
    c = Coeff(terms)
    if not allow_zero and c.is_zero():
        return Coeff.from_rational(1)
    return c


@st.composite
def linear_forms(draw):
    lin = draw(st.dictionaries(_names, coeffs(), max_size=3))
    return Polynomial({
        (((v, 1),), e, a): x for v, c in lin.items() for (e, a), x in c.terms.items()
    })


@st.composite
def affine_forms(draw):
    """An input leaf's form: a linear form plus a constant."""
    return draw(linear_forms()) + draw(coeffs()).to_poly()


@st.composite
def polys(draw):
    p = Polynomial.zero()
    for _ in range(draw(st.integers(0, 4))):
        term = draw(coeffs()).to_poly()
        for v in draw(st.lists(_names, max_size=3)):
            term = term * Polynomial.variable(v) ** draw(st.integers(1, 3))
        p = p + term
    return p


@st.composite
def circuits(draw):
    """A shared-gate circuit over any basis, in the form the parser builds:
    an input's form carries both linear terms and a constant."""
    basis = draw(st.sampled_from(BASES))
    kinds = {"arity2": ["add", "mul"], "arity3": ["add", "mul3"],
             "addNegCube": ["add", "negcube"]}[basis]
    arity = {"add": 2, "mul": 2, "mul3": 3, "negcube": 1}
    gates = []
    for k in range(1, draw(st.integers(1, 10)) + 1):
        gid = f"g{k}" if draw(st.booleans()) else f"n_{k}"
        scale = draw(st.none() | _rationals) if basis == "addNegCube" else None
        kind = draw(st.sampled_from(["input", "input"] + (kinds if gates else [])))
        if kind == "input":
            gates.append(Gate(gid, "input", form=draw(affine_forms()), scale=scale))
        else:
            kids = tuple(draw(st.sampled_from(gates)).id for _ in range(arity[kind]))
            scalars = None
            if kind in ("add", "mul") and draw(st.booleans()):
                scalars = (draw(coeffs()), draw(coeffs()))
            gates.append(Gate(gid, kind, children=kids, edge_scalars=scalars, scale=scale))
    extra = draw(st.lists(_names, max_size=2))
    return Circuit(gates, gates[-1].id, "circuit", basis, extra)


@st.composite
def words(draw):
    dim = draw(st.integers(1, 3))
    factors = [sparse([[draw(polys()) if draw(st.booleans()) else Polynomial.zero()
                        for _ in range(dim)] for _ in range(dim)])
               for _ in range(draw(st.integers(0, 3)))]
    kind = draw(st.sampled_from(["trace", "entry", "functional"]))
    if kind == "trace":
        target = ("trace",)
    elif kind == "entry":
        target = ("entry", draw(st.integers(1, dim)), draw(st.integers(1, dim)))
    else:
        target = ("functional", [draw(coeffs()) for _ in range(dim * dim)])
    return MatrixWord(dim, factors, draw(coeffs()), target)


@st.composite
def projections(draw):
    tag = draw(st.sampled_from(["C", "nceL"]))
    n = draw(st.integers(1, 3))
    d = draw(st.integers(0, n))
    weights = None
    if tag == "nceL" and draw(st.booleans()):
        weights = [[draw(coeffs()) for _ in range(3)] for _ in range(3)]
    p = Projection(tag, n, d, [], draw(coeffs()), draw(st.booleans()), weights)
    p.forms = [draw(linear_forms()) for _ in p.slot_names()]
    return p


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


@ROUND_TRIP
@given(circuits())
def test_circuit_text_round_trip(c):
    text = print_circuit(c)
    again = parse_circuit(text)
    assert print_circuit(again) == text
    assert again.gates == c.gates
    assert (again.output_id, again.shape, again.basis, again.variables) == (
        c.output_id, c.shape, c.basis, c.variables)


_leaves = st.builds(FNode.leaf, affine_forms())
_add_negcube_trees = st.recursive(
    _leaves,
    lambda t: st.builds(FNode.add, t, t) | st.builds(FNode.negcube, t, _rationals),
    max_leaves=8,
)


@ROUND_TRIP
@given(st.integers(0, 10 ** 6), st.integers(1, 25), _add_negcube_trees)
def test_formula_text_round_trip(seed, size, anc):
    for c in (tree_to_circuit(random_formula(random.Random(seed), size, 4), "arity2"),
              tree_to_circuit(anc, "addNegCube")):
        _check_formula_round_trip(c)


def _check_formula_round_trip(c):
    text = print_circuit(c)
    again = parse_circuit(text)
    assert again.shape == "formula"
    assert print_circuit(again) == text and again.gates == c.gates


@ROUND_TRIP
@given(words())
def test_word_text_round_trip(w):
    text = format_word(w)
    again = parse_word(text)
    assert format_word(again) == text
    assert (again.dim, again.factors, again.global_scalar) == (w.dim, w.factors, w.global_scalar)
    assert again.target == w.target


@ROUND_TRIP
@given(projections())
def test_projection_text_round_trip(p):
    text = format_projection(p)
    again = parse_projection(text)
    assert format_projection(again) == text
    assert (again.family_tag, again.n, again.d, again.border) == (p.family_tag, p.n, p.d, p.border)
    assert (again.forms, again.scalar, again.weights) == (p.forms, p.scalar, p.weights)


# ---------------------------------------------------------------------------
# single-character mutations through the command line
# ---------------------------------------------------------------------------

_ALPHABET = "0123456789 -+*^/()[],;:=#\nxgepsaldzLC_" + "$é"


@st.composite
def mutated(draw, texts):
    """One of ``texts`` with one character deleted, replaced or inserted."""
    text = draw(st.sampled_from(texts))
    i = draw(st.integers(0, len(text)))
    op = draw(st.sampled_from(["delete", "replace", "insert"]))
    ch = draw(st.sampled_from(_ALPHABET))
    if op == "insert" or i == len(text):
        return text[:i] + ch + text[i:]
    return text[:i] + ("" if op == "delete" else ch) + text[i + 1:]


def _cli(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, err.getvalue()


def _x(name, c=1):
    return FNode.var(name, c)


def _circuit_texts():
    rng = random.Random(3)
    arity3 = FNode.add(FNode.mul3(_x("x1"), _x("x2", 2), _x("x3")), _x("x1", Fraction(-1, 2)))
    return [
        print_circuit(tree_to_circuit(random_formula(rng, 7, 3), "arity2")),
        print_circuit(random_arity2_circuit(rng, 6, 3)),
        print_circuit(tree_to_circuit(arity3, "arity3")),
        print_circuit(to_add_negcube(tree_to_circuit(FNode.mul3(_x("x1"), _x("x2"), _x("x3")),
                                                     "arity3"))[0]),
        print_circuit(random_graded_arity3_circuit(rng, 3, 8, 3)),
    ]


_CIRCUITS = _circuit_texts()
_PASSES = [["--pass", p] for p in ("ihl-formula", "ihl-circuit", "brent", "add-negcube",
                                   "parity", "vf-to-v3p", "brent3", "vsbr3")]
_PASSES += [["--pass", "rescale", "--alpha", "-2/3"], ["--pass", "derivative", "--var", "x1"]]


@MUTATIONS
@given(mutated(_CIRCUITS), st.sampled_from(_PASSES))
def test_mutated_circuit_never_exits_3(text, pass_args):
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "in.circ")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, err = _cli(["transform", *pass_args, "--in", src,
                          "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2), err


def _artifacts():
    """(artifact text, target polynomial text) pairs: offdiag3 and trace3
    words and a continuant projection, each with the value it computes."""
    f = tree_to_circuit(FNode.add(FNode.mul(_x("x1"), _x("x2", 2)), _x("x3")), "arity2")
    g = tree_to_circuit(FNode.negcube(FNode.add(_x("x1"), _x("x2"))), "addNegCube")
    return [
        (format_word(compile_offdiag3(f, (1, 3))), format_poly(f.eval())),
        (format_word(compile_trace3(f)), format_poly(f.eval())),
        (format_projection(compile_continuant_odd(g)), format_poly(g.eval())),
    ]


_ARTIFACTS = _artifacts()


@MUTATIONS
@given(st.data())
def test_mutated_word_projection_or_target_never_exits_3(data):
    artifact, target = data.draw(st.sampled_from(_ARTIFACTS))
    if data.draw(st.booleans()):
        artifact = data.draw(mutated([artifact]))
    else:
        target = data.draw(mutated([target]))
    with tempfile.TemporaryDirectory() as tmp:
        a, t = os.path.join(tmp, "artifact.txt"), os.path.join(tmp, "target.poly")
        for path, text in ((a, artifact), (t, target)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        code, err = _cli(["verify", "--mode", "border", "--in", a, "--against", t])
    assert code in (0, 1, 2), err


_POLYS = ["3/2 * x1^2 * eps^-1 * alpha^2 - x2 + 7", "x1 * x2 - 1/3 * x3^2 + eps", "-x1_2 + 2"]


@MUTATIONS
@given(mutated(_POLYS), st.sampled_from(_POLYS), st.sampled_from(["exact", "random"]))
def test_mutated_polynomial_never_exits_3(text, other, mode):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = os.path.join(tmp, "a.poly"), os.path.join(tmp, "b.poly")
        for path, t in ((a, text), (b, other)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(t)
        code, err = _cli(["verify", "--mode", mode, "--in", a, "--against", b])
    assert code in (0, 1, 2), err
