"""Byte-for-byte pins of compiled artifacts.

Each file under ``tests/golden/`` holds the ``format_word`` or
``format_projection`` text of one small fixed formula, or the
``print_circuit`` text of a Brent pass's output.  A change to an eps/alpha
substitution, a factor layout, an eps power, a formatter or a Brent
reduction that alters an artifact fails here; rewrite a file only for an intended change
that ``CHANGES.md`` records, with the file's old and new sha256."""

from fractions import Fraction
from pathlib import Path

import pytest

from homlin.circuit import FNode, print_circuit, tree_to_circuit
from homlin.matrixword import (
    compile_continuant_even,
    compile_continuant_odd,
    compile_offdiag3,
    compile_trace3,
    format_projection,
    format_word,
)
from homlin.poly import Coeff
from homlin.transforms import brent_arity3, brent_formula, vf_to_v3p
from test_matrixword import oracle_word_to_projection

GOLDEN = Path(__file__).parent / "golden"


def X(name, c=1):
    return FNode.var(name, c)


def _sum_of_products():
    # (x1 + 2*x2) * (x2 - x3) + x1 * (1/2)*x3
    return tree_to_circuit(
        FNode.add(
            FNode.mul(FNode.add(X("x1"), X("x2", 2)), FNode.add(X("x2"), X("x3", -1))),
            FNode.mul(X("x1"), X("x3", Fraction(1, 2))),
        ),
        "arity2",
    )


def _nested_product():
    # (x1 * x2) * (x3 + x4) + 3*x4
    return tree_to_circuit(
        FNode.add(
            FNode.mul(FNode.mul(X("x1"), X("x2")), FNode.add(X("x3"), X("x4"))),
            X("x4", 3),
        ),
        "arity2",
    )


def _scaled_cubes():
    # (1/2) * -(x1 + 2*x2)^3 + -(x3)^3
    return tree_to_circuit(
        FNode.add(
            FNode.negcube(FNode.add(X("x1"), X("x2", 2)), scale=Fraction(1, 2)),
            FNode.negcube(X("x3")),
        ),
        "addNegCube",
    )


def _nested_cubes():
    # -((3/2) * -(x1 + eps*x2)^3 + -(x3)^3)^3: a cube inside a cube, so the
    # inner cube's scale tag and eps power reach the outer one's blocks
    return tree_to_circuit(
        FNode.negcube(
            FNode.add(
                FNode.negcube(FNode.add(X("x1"), X("x2", Coeff.eps(1))), scale=Fraction(3, 2)),
                FNode.negcube(X("x3")),
            )
        ),
        "addNegCube",
    )


def _even_product():
    # (x1 + x2) * x3
    c = tree_to_circuit(FNode.mul(FNode.add(X("x1"), X("x2")), X("x3")), "arity2")
    g, _report = vf_to_v3p(c)
    return compile_continuant_even(g, 2)


def _brent_input():
    # x4 * ((x1 + 2*x2) * (x2 + (-x3 + x1))) + (x1 * (1/2)*x3 + (x4 + x2)):
    # the reduction meets both a path through products and one of additions
    return tree_to_circuit(
        FNode.add(
            FNode.mul(X("x4"), FNode.mul(FNode.add(X("x1"), X("x2", 2)),
                                         FNode.add(X("x2"), FNode.add(X("x3", -1), X("x1"))))),
            FNode.add(FNode.mul(X("x1"), X("x3", Fraction(1, 2))), FNode.add(X("x4"), X("x2"))),
        ),
        "arity2",
    )


def _brent3_input():
    # a graded degree-3 sum of four ternary products, over both kinds of path
    return tree_to_circuit(
        FNode.add(
            FNode.add(
                FNode("mul3", (FNode.add(X("x1"), X("x2", 2)), X("x3"),
                               FNode.add(X("x2"), X("x4", -1)))),
                FNode("mul3", (X("x1"), X("x2"), X("x3", Fraction(1, 2)))),
            ),
            FNode.add(
                FNode("mul3", (X("x4"), X("x1"), X("x2"))),
                FNode("mul3", (X("x3"), FNode.add(X("x1"), X("x4")), X("x2", 3))),
            ),
        ),
        "arity3",
    )


ARTIFACTS = {
    "brent.circ": lambda: print_circuit(brent_formula(_brent_input())[0]),
    "brent3.circ": lambda: print_circuit(brent_arity3(_brent3_input())[0]),
    "trace3.word": lambda: format_word(compile_trace3(_sum_of_products())),
    "offdiag3_1_3.word": lambda: format_word(compile_offdiag3(_nested_product(), (1, 3))),
    "trace3_d2.projection": lambda: format_projection(
        oracle_word_to_projection(compile_trace3(_sum_of_products()), d=2)
    ),
    "continuant_odd.projection": lambda: format_projection(
        compile_continuant_odd(_scaled_cubes())
    ),
    "continuant_even.projection": lambda: format_projection(_even_product()),
    "continuant_nested.projection": lambda: format_projection(
        compile_continuant_odd(_nested_cubes())
    ),
}


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_artifact_matches_golden_file(name):
    assert ARTIFACTS[name]() == (GOLDEN / name).read_text(encoding="utf-8")
