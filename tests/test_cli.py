"""End-to-end tests for the command-line front end."""

import gc
import json
import os
import random
import shlex

import pytest

from homlin import cli, transforms
from homlin.circuit import (
    BASIS_KINDS,
    BasisViolation,
    Circuit,
    FNode,
    GradedArity3Repr,
    parse_circuit,
    print_circuit,
    tree_to_circuit,
)
from homlin.cli import main
from homlin.families import gen_C_comb
from homlin.matrixword import (
    compile_continuant_even,
    compile_continuant_odd,
    compile_offdiag3,
    compile_trace3,
    format_word,
)
from homlin.poly import Polynomial, format_poly, parse_poly
from homlin.transforms import PASS_NAMES, PASSES, run_pass
from generators import (
    random_arity2_circuit,
    random_formula,
    random_graded_arity3_circuit,
    random_graded_arity3_formula,
    random_ihl_formula,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def product_circ(tmp_path):
    c = tree_to_circuit(FNode.mul(FNode.var("x1"), FNode.var("x2")), "arity2")
    path = tmp_path / "prod.circ"
    path.write_text(print_circuit(c))
    return str(path)


@pytest.fixture
def negcube_circ(tmp_path):
    c = tree_to_circuit(FNode.negcube(FNode.var("x1")), "addNegCube")
    path = tmp_path / "cube.circ"
    path.write_text(print_circuit(c))
    return str(path)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_matches_oracle(capsys, tmp_path):
    out = tmp_path / "c53.txt"
    code, _o, _e = run(capsys, "gen", "--family", "C", "--n", "5", "--d", "3",
                       "--out", str(out))
    assert code == 0
    assert parse_poly(out.read_text()) == gen_C_comb(5, 3)


def test_gen_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--family", "P", "--n", "2", "--d", "3")
    assert code == 0
    assert parse_poly(out) == parse_poly("x1^3 + x2^3")


def test_gen_invalid_parameters_exit_2(capsys):
    code, _o, err = run(capsys, "gen", "--family", "C", "--n", "0", "--d", "1")
    assert code == 2 and "error" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_against_oracle(capsys, tmp_path):
    f = tmp_path / "c.txt"
    f.write_text(format_poly(gen_C_comb(5, 3)) + "\n")
    code, out, _ = run(capsys, "verify", "--in", str(f),
                       "--against-oracle", "C", "--n", "5", "--d", "3")
    assert code == 0 and "pass" in out


def test_verify_against_oracle_fail(capsys, tmp_path):
    f = tmp_path / "c.txt"
    f.write_text(format_poly(gen_C_comb(5, 3)) + "\n")
    code, out, _ = run(capsys, "verify", "--in", str(f),
                       "--against-oracle", "P", "--n", "5", "--d", "3")
    assert code == 1 and "FAIL" in out


def test_verify_exact_and_random_modes(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("x1^2 + 2*x1*x2 + x2^2\n")
    b.write_text("(unused)")
    b.write_text(format_poly(parse_poly("x1 + x2") ** 2) + "\n")
    code, out, _ = run(capsys, "verify", "--mode", "exact",
                       "--in", str(a), "--against", str(b))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--mode", "random", "--seed", "5",
                       "--in", str(a), "--against", str(b))
    assert code == 0 and "random(" in out


def test_verify_circuit_against_polynomial(capsys, product_circ, tmp_path):
    t = tmp_path / "t.txt"
    t.write_text("x1*x2\n")
    code, _o, _e = run(capsys, "verify", "--mode", "exact",
                       "--in", product_circ, "--against", str(t))
    assert code == 0


def test_verify_reads_comments_in_polynomial_artifacts(capsys, tmp_path):
    a, b = tmp_path / "a.poly", tmp_path / "b.poly"
    a.write_text("# the product\nx1 * x2\n")
    b.write_text("x2 * x1  # the same, reordered\n")
    code, out, _ = run(capsys, "verify", "--in", str(a), "--against", str(b))
    assert code == 0 and "verdict=pass" in out
    # a comment is blanked, not cut: an error's offset counts in the file
    b.write_text("# c\nx1 * $\n")
    code, out, err = run(capsys, "verify", "--in", str(a), "--against", str(b))
    assert (code, out) == (2, "")
    assert err == f"error: {b}: bad character at offset 9: '$'\n"


def test_an_undefined_output_names_its_own_line(capsys, tmp_path):
    bad = tmp_path / "bad.circ"
    bad.write_text("var x1\ngate g1 = input x1\n\noutput g7\n")
    code, out, err = run(capsys, "compile", "--target", "trace3", "--in", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: line 4: output gate g7 never defined\n"


def test_verify_missing_reference_exit_2(capsys, product_circ):
    code, _o, err = run(capsys, "verify", "--in", product_circ)
    assert code == 2 and "against" in err


def verify_random_field(capsys, tmp_path, a_text, b_text, field):
    a, b = tmp_path / "a.poly", tmp_path / "b.poly"
    a.write_text(a_text)
    b.write_text(b_text)
    return run(capsys, "verify", "--mode", "random", "--in", str(a), "--against", str(b),
               "--field", field)


def test_verify_random_prime_dividing_a_denominator_exit_2(capsys, tmp_path):
    # 1/3 has no value mod 3; read as 0 it would pass x2 + 1/3*x1 = x2
    code, out, err = verify_random_field(capsys, tmp_path, "x2 + 1/3*x1\n", "x2\n", "prime:3")
    assert code == 2 and "pass" not in out
    assert "1/3" in err and "mod 3" in err


def test_verify_random_composite_modulus_exit_2(capsys, tmp_path):
    code, out, err = verify_random_field(capsys, tmp_path, "x1\n", "x1\n", "prime:4")
    assert code == 2 and out == "" and "prime 4" in err


def test_verify_random_prime_below_the_degree_exit_2(capsys, tmp_path):
    code, out, err = verify_random_field(capsys, tmp_path, "x1^3\n", "x1^3\n", "prime:2")
    assert code == 2 and out == ""
    assert "internal" not in err and "prime 2 <= degree 3" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_random_with_no_trials_exit_2(capsys, tmp_path, trials):
    # zero trials check nothing, so x1^2 would pass against x1^3
    a, b = tmp_path / "a.poly", tmp_path / "b.poly"
    a.write_text("x1^2\n")
    b.write_text("x1^3\n")
    code, out, err = run(capsys, "verify", "--mode", "random", "--trials", trials,
                         "--in", str(a), "--against", str(b))
    assert code == 2 and out == ""
    assert err == f"error: --trials must be at least 1, got {trials}\n"


@pytest.mark.parametrize("flags, message", [
    # random-mode flags outside random mode
    (["--mode", "exact", "--seed", "3", "--trials", "7", "--field", "prime:7"],
     "--seed applies only to --mode random"),
    (["--mode", "border", "--field", "prime:7"], "--field applies only to --mode random"),
    (["--trials", "4"], "--trials applies only to --mode random"),
    # --mode and --against beside --against-oracle, --n and --d without it
    (["--mode", "border", "--against-oracle", "P", "--n", "2", "--d", "1"],
     "--mode does not apply with --against-oracle"),
    (["--against-oracle", "P", "--n", "2", "--d", "1", "--against", "B"],
     "--against does not apply with --against-oracle"),
    (["--n", "2", "--against", "B"], "--n needs --against-oracle"),
    (["--mode", "random", "--d", "2", "--against", "B"], "--d needs --against-oracle"),
])
def test_verify_flag_its_mode_does_not_read_exit_2(capsys, tmp_path, flags, message):
    a, b = tmp_path / "a.poly", tmp_path / "b.poly"
    a.write_text("x1\n")
    b.write_text("x1\n")
    flags = [str(b) if f == "B" else f for f in flags]
    code, out, err = run(capsys, "verify", "--in", str(a), *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def test_transform_brent_roundtrip(capsys, product_circ, tmp_path):
    out = tmp_path / "b.circ"
    code, stdout, _ = run(capsys, "transform", "--pass", "brent",
                          "--in", product_circ, "--out", str(out))
    assert code == 0 and "pass brent" in stdout and "bound" in stdout
    reparsed = parse_circuit(out.read_text())
    assert reparsed.eval() == parse_poly("x1*x2")


def test_transform_parity_writes_components(capsys, tmp_path):
    t = FNode.add(FNode.var("x1"), FNode.mul(FNode.var("x1"), FNode.var("x2")))
    path = tmp_path / "mixed.circ"
    path.write_text(print_circuit(tree_to_circuit(t, "arity2")))
    out = tmp_path / "par"
    code, stdout, _ = run(capsys, "transform", "--pass", "parity",
                          "--in", str(path), "--out", str(out))
    assert code == 0
    odd = parse_circuit((tmp_path / "par.odd").read_text())
    even = parse_circuit((tmp_path / "par.even").read_text())
    assert odd.eval() == parse_poly("x1")
    assert even.eval() == parse_poly("x1*x2")


def test_transform_vf_to_v3p_writes_components(capsys, tmp_path):
    t = FNode.add(FNode.var("x3"), FNode.mul(FNode.var("x1"), FNode.var("x2")))
    path = tmp_path / "mixed.circ"
    path.write_text(print_circuit(tree_to_circuit(t, "arity2")))
    out = tmp_path / "v3p"
    code, stdout, _ = run(capsys, "transform", "--pass", "vf-to-v3p",
                          "--in", str(path), "--out", str(out))
    assert code == 0 and "wrote components" in stdout
    assert parse_poly((tmp_path / "v3p.const").read_text()) == parse_poly("0")
    assert parse_circuit((tmp_path / "v3p.odd.1").read_text()).eval() == parse_poly("x3")
    assert parse_circuit((tmp_path / "v3p.even.2.x1").read_text()).eval() == parse_poly("x2")


@pytest.mark.parametrize("helper", ["_brent", "_ihl_pair", "_ddx", "_parity_tree"])
def test_transform_vf_to_v3p_needs_no_tree_pass(capsys, tmp_path, monkeypatch, helper):
    # each part is spliced from its polynomial's formula: no Brent, IHL
    # split, derivative tree or parity split runs on the way
    def boom(*args):
        raise AssertionError(helper)

    monkeypatch.setattr(f"homlin.transforms.{helper}", boom)
    t = FNode.mul(FNode.leaf(parse_poly("x1 + x2 + 1")),
                  FNode.mul(FNode.var("x2"), FNode.var("x3")))
    path = tmp_path / "f.circ"
    path.write_text(print_circuit(tree_to_circuit(t, "arity2")))
    out = tmp_path / "v3p"
    code, stdout, _ = run(capsys, "transform", "--pass", "vf-to-v3p",
                          "--in", str(path), "--out", str(out))
    assert code == 0 and "wrote components" in stdout
    part = lambda name: parse_circuit((tmp_path / f"v3p.{name}").read_text()).eval()
    assert part("odd.3") == parse_poly("x1*x2*x3 + x2^2*x3")
    assert part("even.2.x3") == parse_poly("x2")


def test_transform_rejects_polynomial_input(capsys, tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("x1 + x2\n")
    code, _o, err = run(capsys, "transform", "--pass", "brent", "--in", str(p))
    assert code == 2 and "circuit" in err


def test_transform_precondition_violation_exit_2(capsys, negcube_circ):
    # brent expects the arity-2 basis
    code, _o, err = run(capsys, "transform", "--pass", "brent",
                        "--in", negcube_circ)
    assert code == 2 and "error" in err


@pytest.mark.parametrize("pass_name, flag, value, reader", [
    ("brent", "--alpha", "3", "rescale"),
    ("derivative", "--alpha", "3", "rescale"),
    ("brent", "--var", "x1", "derivative"),
    ("rescale", "--var", "x1", "derivative"),
])
def test_transform_flag_the_pass_does_not_read_exit_2(capsys, product_circ, tmp_path,
                                                      pass_name, flag, value, reader):
    out = tmp_path / "out.circ"
    code, stdout, err = run(capsys, "transform", "--pass", pass_name, flag, value,
                            "--in", product_circ, "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"error: {flag} applies only to the {reader} pass, not {pass_name}\n"
    # checked before any work: the input is not even read
    code, _o, err = run(capsys, "transform", "--pass", pass_name, flag, value,
                        "--in", str(tmp_path / "missing.circ"))
    assert code == 2 and flag in err


@pytest.mark.parametrize("pass_name, flag", [("rescale", "--alpha"), ("derivative", "--var")])
def test_transform_without_the_flag_its_pass_needs_exit_2(capsys, product_circ, tmp_path,
                                                          pass_name, flag):
    out = tmp_path / "out.circ"
    code, stdout, err = run(capsys, "transform", "--pass", pass_name,
                            "--in", product_circ, "--out", str(out))
    assert (code, stdout, err) == (2, "", f"error: {pass_name} needs {flag}\n")
    assert not out.exists()
    # checked before the input is read
    code, _o, err = run(capsys, "transform", "--pass", pass_name,
                        "--in", str(tmp_path / "missing.circ"))
    assert code == 2 and flag in err


@pytest.mark.parametrize("pass_name", ["parity", "vf-to-v3p"])
def test_transform_with_several_outputs_needs_out_before_any_work(capsys, product_circ, tmp_path,
                                                                   pass_name):
    code, stdout, err = run(capsys, "transform", "--pass", pass_name, "--in", product_circ)
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: {pass_name} needs --out ")
    # checked before the input is read
    code, stdout, err = run(capsys, "transform", "--pass", pass_name,
                            "--in", str(tmp_path / "missing.circ"))
    assert code == 2 and stdout == "" and "needs --out" in err


def _caterpillar_text(depth: int) -> str:
    """A formula text whose depth is ``depth``: alternating add and mul
    gates, each combining the running value with a fresh leaf."""
    lines = ["shape formula", "basis arity2",
             "var " + " ".join(f"x{i}" for i in range(depth + 1)), "gate g0 = input x0"]
    for i in range(1, depth + 1):
        lines.append(f"gate l{i} = input x{i}")
        lines.append(f"gate g{i} = {'add' if i % 2 else 'mul'} g{i - 1} l{i}")
    return "\n".join(lines + [f"output g{depth}"]) + "\n"


def test_recursion_error_is_an_internal_error_exit_3(capsys, tmp_path):
    # past the recursion limit brent raises RecursionError; that is a crash,
    # not a failed verification (1) and not invalid input (2)
    path = tmp_path / "deep.circ"
    path.write_text(_caterpillar_text(700))
    code, _o, err = run(capsys, "transform", "--pass", "brent", "--in", str(path))
    assert code == 3
    assert err.startswith("error: internal: RecursionError: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unexpected_compiler_exception_is_an_internal_error_exit_3(
        capsys, negcube_circ, monkeypatch):
    def broken(*_args):
        raise RuntimeError("compiler bug")

    monkeypatch.setattr(cli, "compile_continuant_odd", broken)
    code, _o, err = run(capsys, "compile", "--target", "continuant", "--in", negcube_circ)
    assert code == 3
    assert err == "error: internal: RuntimeError: compiler bug\n"


_COMPILE = ["compile", "--target", "trace3", "--in", "CIRC"]
_PIPELINE = ["pipeline", "--target", "trace3", "--in", "CIRC", "--out", "OUT"]


@pytest.mark.parametrize("argv", [
    ["transform", "--pass", "brent", "--in", "CIRC", "--format", "text"],
    ["transform", "--pass", "brent", "--in", "CIRC", "--seed", "1"],
    ["audit", "--in", "CIRC", "--mod-eps", "1"],
    ["audit", "--in", "CIRC", "--field", "rational"],
    ["gen", "--family", "C", "--n", "3", "--d", "1", "--mod-eps", "1"],
    _COMPILE + ["--verify", "exact"],
    _COMPILE + ["--verify", "random"],
    _COMPILE + ["--mod-eps", "1"],
    _COMPILE + ["--seed", "3"],
    _COMPILE + ["--field", "rational"],
    _PIPELINE + ["--verify", "border"],
    _PIPELINE + ["--mod-eps", "1"],
    _PIPELINE + ["--seed", "3"],
    _PIPELINE + ["--field", "rational"],
])
def test_options_outside_their_subcommand_exit_2(capsys, product_circ, tmp_path, argv):
    out = tmp_path / "out"
    argv = [{"CIRC": product_circ, "OUT": str(out)}.get(a, a) for a in argv]
    code, _o, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err and argv[-2] in err
    assert not out.exists()


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "compile", "--help")
    assert code == 0 and "--verify" in out


def test_consecutive_calls_share_one_parser(capsys, product_circ, tmp_path):
    word = tmp_path / "w.txt"
    assert run(capsys, "gen", "--family", "P", "--n", "2", "--d", "3")[0] == 0
    assert run(capsys, "compile", "--target", "trace3", "--in", product_circ,
               "--out", str(word))[0] == 0
    assert run(capsys, "compile", "--target", "trace3", "--in", product_circ,
               "--seed", "1")[0] == 2
    code, _o, _e = run(capsys, "verify", "--mode", "border", "--in", str(word),
                       "--against", product_circ)
    assert code == 0


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def test_compile_offdiag_with_border_verify(capsys, product_circ, tmp_path):
    out = tmp_path / "w.txt"
    code, stdout, _ = run(capsys, "compile", "--target", "offdiag3", "1", "3",
                          "--in", product_circ, "--verify", "border",
                          "--out", str(out))
    assert code == 0
    assert "r = 4" in stdout and "pass" in stdout
    assert out.read_text().startswith("dim 3")


def test_compile_trace3_border(capsys, product_circ, tmp_path):
    out = tmp_path / "w.txt"
    code, stdout, _ = run(capsys, "compile", "--target", "trace3",
                          "--in", product_circ, "--verify", "border",
                          "--out", str(out))
    assert code == 0 and "verdict=pass" in stdout


def test_compile_continuant_alpha_carrying_leaf_exit_2(capsys, tmp_path):
    # alpha is the compiler's scalar parameter: the leaf x1 * alpha is
    # invalid input, not a projection that fails verification
    c = tree_to_circuit(
        FNode.negcube(FNode.leaf(parse_poly("alpha * x1"))), "addNegCube")
    src = tmp_path / "c.circ"
    src.write_text(print_circuit(c))
    code, out, err = run(capsys, "compile", "--target", "continuant", "--verify", "border",
                         "--in", str(src), "--out", str(tmp_path / "p.txt"))
    assert code == 2 and out == ""
    assert "gate g1's input form carries alpha" in err


def test_compile_continuant_negative_eps_leaf_exit_2(capsys, tmp_path):
    # the word invariant needs leaves with no negative eps power: the cube
    # of x1 * eps^-1 + x2 was written as forms in eps^-4, with exit 0
    src = tmp_path / "c.circ"
    src.write_text("shape formula\nbasis addNegCube\ngate g1 = input x1 * eps^-1 + x2\n"
                   "gate g2 = negcube g1\noutput g2\n")
    code, out, err = run(capsys, "compile", "--target", "continuant",
                         "--in", str(src), "--out", str(tmp_path / "p.txt"))
    assert code == 2 and out == ""
    assert "gate g1's input form has a negative eps power" in err


def test_compile_continuant(capsys, negcube_circ, tmp_path):
    out = tmp_path / "p.txt"
    code, stdout, _ = run(capsys, "compile", "--target", "continuant",
                          "--in", negcube_circ, "--verify", "border",
                          "--out", str(out))
    assert code == 0 and "degree 3" in stdout
    assert out.read_text().startswith("projection C")


def _circ(tmp_path, name, tree, basis):
    path = tmp_path / name
    path.write_text(print_circuit(tree_to_circuit(tree, basis)))
    return str(path)


def _projection_degree(path):
    return path.read_text().splitlines()[0].split(" d ")[1].split()[0]


# -(x1)^3 + -(-x1)^3: graded of degree 3, value zero
_CUBES_THAT_CANCEL = FNode.add(FNode.negcube(FNode.var("x1")), FNode.negcube(FNode.var("x1", -1)))


@pytest.mark.parametrize("tree", [_CUBES_THAT_CANCEL, FNode.negcube(FNode.var("x1"), scale=0)],
                         ids=["cubes-that-cancel", "scale-0-cube"])
def test_compile_continuant_of_a_zero_formula_is_degree_1(capsys, tmp_path, tree):
    out = tmp_path / "p.txt"
    code, _o, _e = run(capsys, "compile", "--target", "continuant",
                       "--in", _circ(tmp_path, "z.circ", tree, "addNegCube"),
                       "--out", str(out))
    assert code == 0 and _projection_degree(out) == "1"


def test_compile_continuant_of_a_mixed_degree_formula_exits_2_naming_its_degrees(capsys,
                                                                                tmp_path):
    out = tmp_path / "p.txt"
    src = _circ(tmp_path, "m.circ", FNode.add(FNode.negcube(FNode.var("x1")), FNode.var("x2")),
                "addNegCube")
    code, stdout, err = run(capsys, "compile", "--target", "continuant", "--in", src,
                            "--out", str(out))
    assert (code, stdout, err) == (2, "", "error: formula is not homogeneous: degrees [1, 3]\n")
    assert not out.exists()


def test_compile_unknown_target_exit_2(capsys, product_circ):
    code, _o, err = run(capsys, "compile", "--target", "nonsense",
                        "--in", product_circ)
    assert code == 2 and "target" in err


@pytest.mark.parametrize("argv, named", [
    (["compile", "--target", "continuant", "--d", "3", "--in", "{cube}", "--out", "{out}"],
     "--d"),
    (["pipeline", "--target", "continuant", "--d", "3", "--in", "{cube}", "--out", "{out}"],
     "--d"),
    # a field is checked before any input is read
    (["verify", "--mode", "random", "--field", "rational", "--in", "{missing}",
      "--against", "{cube}"], "rational"),
    (["gen", "--family", "Cmatrix", "--n", "5", "--d", "3", "--out", "{out}"], "Cmatrix"),
], ids=["compile-d", "pipeline-d", "verify-field-rational", "gen-Cmatrix"])
def test_a_knob_the_program_works_out_itself_exits_2(capsys, negcube_circ, tmp_path,
                                                      argv, named):
    # the continuant's d is read off the formula, --mode exact checks over
    # the rationals, and C is the matrix recurrence
    out = tmp_path / "out"
    argv = [a.format(cube=negcube_circ, out=out, missing=tmp_path / "missing") for a in argv]
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == "" and named in err
    assert not out.exists()


def test_compile_malformed_circuit_exit_2_with_location(capsys, tmp_path):
    bad = tmp_path / "bad.circ"
    bad.write_text("shape formula\nbasis arity2\ngate g1 = wat\n")
    code, _o, err = run(capsys, "compile", "--target", "trace3", "--in", str(bad))
    assert code == 2 and "line 3" in err


def test_compile_wrong_basis_exit_2(capsys, negcube_circ):
    code, _o, err = run(capsys, "compile", "--target", "trace3",
                        "--in", negcube_circ)
    assert code == 2


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_pass_and_fail(capsys, tmp_path):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"value": 58, "bound": 60}))
    assert run(capsys, "audit", "--in", str(ok))[0] == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"value": 70, "bound": 64}))
    assert run(capsys, "audit", "--in", str(bad))[0] == 1


def test_audit_malformed_json_exit_2(capsys, tmp_path):
    bad = tmp_path / "nope.json"
    bad.write_text("{")
    assert run(capsys, "audit", "--in", str(bad))[0] == 2


@pytest.mark.parametrize("text, field", [
    ('{"value": "x", "bound": 3}', "value"),
    ('{"value": [1], "bound": 3}', "value"),
    ('{"value": null, "bound": 3}', "value"),
    ('{"value": true, "bound": 3}', "value"),
    ('{"value": NaN, "bound": 3}', "value"),
    ('{"value": 1, "bound": {"b": 3}}', "bound"),
    ('{"value": 1, "bound": Infinity}', "bound"),
    ('{"value": 1, "bound": false}', "bound"),
])
def test_audit_malformed_field_exit_2(capsys, tmp_path, text, field):
    path = tmp_path / "audit.json"
    path.write_text(text)
    code, out, err = run(capsys, "audit", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: audit field '{field}' must be a finite number")


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def test_pipeline_trace3(capsys, product_circ, tmp_path):
    out = tmp_path / "run1"
    code, stdout, _ = run(capsys, "pipeline", "--in", product_circ,
                          "--target", "trace3", "--out", str(out))
    assert code == 0
    assert (out / "word.txt").exists()
    assert (out / "report.txt").exists()
    assert "verify (border): pass" in (out / "report.txt").read_text()
    assert (out / "01-brent.circ").exists()


def test_pipeline_continuant(capsys, tmp_path):
    t = FNode("mul3", (FNode.var("x1"), FNode.var("x2"), FNode.var("x3")))
    path = tmp_path / "m3.circ"
    path.write_text(print_circuit(tree_to_circuit(t, "arity3")))
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, "pipeline", "--in", str(path),
                          "--target", "continuant", "--out", str(out))
    assert code == 0
    assert (out / "projection.txt").exists()
    report = (out / "report.txt").read_text()
    assert "brent3" in report and "add-negcube" in report
    assert "verify (border): pass" in report


def _pipeline_passes():
    """The ``--pass`` choices of ``pipeline``."""
    sub = cli._PARSER._subparsers._group_actions[0].choices["pipeline"]
    return next(a.choices for a in sub._actions if a.dest == "passes")


@pytest.mark.parametrize("name", ["nosuch", "rescale", "derivative", "parity", "vf-to-v3p"])
def test_pipeline_unknown_pass_exit_2(capsys, product_circ, tmp_path, name):
    # argparse's choices reject the name before any work: a pipeline stage
    # must write a circuit and read no flag, so rescale, derivative, parity
    # and vf-to-v3p are no choices; each target's default passes are ones
    out = tmp_path / "out"
    code, _o, err = run(capsys, "pipeline", "--in", product_circ, "--pass", name,
                        "--out", str(out))
    assert code == 2 and name in err
    assert not out.exists()
    assert {p for t in cli.TARGETS.values() for p in t.passes} <= set(_pipeline_passes())


def test_pipeline_offers_the_passes_that_write_a_circuit_and_read_no_flag():
    assert sorted(_pipeline_passes()) == [
        "add-negcube", "brent", "brent3", "ihl-circuit", "ihl-formula", "vsbr3"]


def test_pipeline_exits_1_on_a_violated_pass_bound(capsys, product_circ, tmp_path, monkeypatch):
    # the pass is rebound by name, as the benchmark's tracer rebinds it, and
    # run_pass reads the name when it runs
    def violating(c, brent=transforms.brent_formula):
        out, rep = brent(c)
        rep.bound_satisfied = False
        return out, rep

    monkeypatch.setattr(transforms, "brent_formula", violating)
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, "pipeline", "--in", product_circ,
                          "--target", "trace3", "--out", str(out))
    assert code == 1
    assert "stage 1 brent" in stdout and "VIOLATED" in stdout
    assert "verify (border): pass" in stdout and (out / "word.txt").exists()


def _wrong_trace3(c):
    """The trace3 word of x1, whatever ``c`` computes."""
    return compile_trace3(tree_to_circuit(FNode.var("x1"), "arity2"))


def test_compile_and_pipeline_exit_1_on_a_wrong_word(capsys, product_circ, tmp_path, monkeypatch):
    # the compiler is rebound by name in cli, as the benchmark's tracer
    # rebinds it, and the target table reads the name when it compiles
    monkeypatch.setattr(cli, "compile_trace3", _wrong_trace3)
    word = tmp_path / "w.txt"
    code, stdout, _ = run(capsys, "compile", "--target", "trace3", "--verify", "border",
                          "--in", product_circ, "--out", str(word))
    assert code == 1 and "verdict=FAIL" in stdout and word.exists()
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, "pipeline", "--in", product_circ,
                          "--target", "trace3", "--out", str(out))
    assert code == 1 and "verify (border): FAIL" in stdout
    assert "VIOLATED" not in stdout and (out / "word.txt").exists()


@pytest.mark.parametrize("target, message", [
    (["offdiag3"], "target offdiag3 takes 2 indices, got 0"),
    (["offdiag3", "1"], "target offdiag3 takes 2 indices, got 1"),
    (["offdiag3", "1", "2", "3"], "target offdiag3 takes 2 indices, got 3"),
    (["offdiag3", "1", "b"], "offdiag3 indices must be integers"),
    (["trace3", "1"], "target trace3 takes no indices, got 1"),
    (["continuant", "1", "3"], "target continuant takes no indices, got 2"),
    (["nosuch"], "unknown compile target 'nosuch'"),
])
def test_target_errors_exit_2_before_any_file_is_written(capsys, product_circ, tmp_path,
                                                         target, message):
    for command in ("compile", "pipeline"):
        out = tmp_path / command
        code, stdout, err = run(capsys, command, "--target", *target, "--in", product_circ,
                                "--out", str(out))
        assert (code, stdout, err) == (2, "", f"error: {message}\n"), command
        assert not out.exists(), command


def test_compile_offdiag3_on_the_diagonal_exit_2(capsys, product_circ):
    code, stdout, err = run(capsys, "compile", "--target", "offdiag3", "2", "2",
                            "--in", product_circ)
    assert (code, stdout) == (2, "")
    assert err == "error: target must be an off-diagonal position of a 3x3 matrix\n"


@pytest.mark.parametrize("command", ["compile", "pipeline"])
def test_target_help_names_each_target_with_its_indices(capsys, command):
    code, stdout, _ = run(capsys, command, "--help")
    assert code == 0 and "offdiag3 I J | trace3 | continuant" in " ".join(stdout.split())


def _text_of(make, basis=None):
    """An input maker: the text of the circuit ``make(rng)``, or of the
    formula of the tree ``make(rng)`` in ``basis``."""
    if basis is None:
        return lambda rng: print_circuit(make(rng))
    return lambda rng: print_circuit(tree_to_circuit(make(rng), basis))


_F2 = _text_of(lambda rng: random_formula(rng, 40, 4), "arity2")
_IHL2 = _text_of(lambda rng: random_ihl_formula(rng, 30, 4), "arity2")
_SMALL_IHL2 = _text_of(lambda rng: random_ihl_formula(rng, 9, 3), "arity2")
_GRADED3 = _text_of(lambda rng: random_graded_arity3_formula(rng, 5, 20, 3), "arity3")
_TRACE3_WORD = lambda rng: format_word(compile_trace3(
    tree_to_circuit(random_ihl_formula(rng, 30, 4), "arity2")))


def _transform(pass_name, make, *flags):
    return (f"transform-{pass_name}", 0,
            ["transform", "--pass", pass_name, *flags, "--in", "{a}", "--out", "{out}"],
            {"a": make})


# (id, exit code, argv, inputs): each input maker gets its own
# random.Random(5), and "{name}" in argv is the path of input ``name``
# ("{out}" a fresh output path), so _IHL2 and _TRACE3_WORD draw one formula
_GC_CASES = [
    ("gen", 0, ["gen", "--family", "C", "--n", "5", "--d", "3", "--out", "{out}"], {}),
    _transform("rescale", _F2, "--alpha", "3"),
    _transform("ihl-formula", _F2),
    _transform("ihl-circuit", _text_of(lambda rng: random_arity2_circuit(rng, 30, 4))),
    _transform("brent", _F2),
    _transform("add-negcube", _GRADED3),
    _transform("parity", _IHL2),
    _transform("vf-to-v3p", _SMALL_IHL2),
    _transform("derivative", _F2, "--var", "x1"),
    _transform("brent3", _GRADED3),
    _transform("vsbr3", _text_of(lambda rng: random_graded_arity3_circuit(rng, 7, 30, 3))),
    ("compile-trace3", 0,
     ["compile", "--target", "trace3", "--verify", "border", "--in", "{a}", "--out", "{out}"],
     {"a": _IHL2}),
    ("compile-continuant", 0,
     ["compile", "--target", "continuant", "--verify", "border", "--in", "{a}", "--out", "{out}"],
     {"a": _text_of(lambda rng: run_pass("add-negcube", tree_to_circuit(
         random_graded_arity3_formula(rng, 5, 20, 3), "arity3"))[0])}),
    ("verify-exact", 0, ["verify", "--in", "{a}", "--against", "{a}"], {"a": _F2}),
    ("verify-border", 0, ["verify", "--mode", "border", "--in", "{w}", "--against", "{a}"],
     {"w": _TRACE3_WORD, "a": _IHL2}),
    ("verify-random", 0, ["verify", "--mode", "random", "--in", "{a}", "--against", "{a}"],
     {"a": _F2}),
    ("verify-fails", 1, ["verify", "--in", "{a}", "--against", "{b}"],
     {"a": _F2, "b": _IHL2}),
    ("audit", 0, ["audit", "--in", "{j}"],
     {"j": lambda rng: json.dumps({"value": 58, "bound": 60})}),
    ("pipeline-trace3", 0, ["pipeline", "--target", "trace3", "--in", "{a}", "--out", "{out}"],
     {"a": _IHL2}),
    ("pipeline-continuant", 0,
     ["pipeline", "--target", "continuant", "--in", "{a}", "--out", "{out}"], {"a": _GRADED3}),
    ("invalid-input-exit-2", 2,
     ["transform", "--pass", "brent", "--in", "{a}", "--out", "{out}"],
     {"a": lambda rng: _caterpillar_text(3).replace(" = mul ", " = pow ")}),
    ("internal-error-exit-3", 3,
     ["transform", "--pass", "brent", "--in", "{a}", "--out", "{out}"],
     {"a": lambda rng: _caterpillar_text(700)}),
]


def test_gc_cases_cover_every_subcommand_and_pass():
    argvs = [argv for _id, _code, argv, _inputs in _GC_CASES]
    assert {argv[0] for argv in argvs} == set(cli._PARSER._subparsers._group_actions[0].choices)
    assert {argv[2] for argv in argvs if argv[0] == "transform"} == set(PASS_NAMES)
    assert {code for _id, code, _argv, _inputs in _GC_CASES} == {0, 1, 2, 3}


@pytest.mark.parametrize("code, argv, inputs", [case[1:] for case in _GC_CASES],
                         ids=[case[0] for case in _GC_CASES])
def test_commands_leave_no_cyclic_garbage(capsys, tmp_path, code, argv, inputs):
    # every tree, memo, gate list and exception a command builds is freed by
    # reference counting alone (no recursive closure holds it in a cycle), so
    # with the cyclic collector off there is nothing left for it to find;
    # this is why main can pause the collector while a command runs
    paths = {"out": str(tmp_path / "out")}
    for name, make in inputs.items():
        path = tmp_path / f"{name}.in"
        path.write_text(make(random.Random(5)))
        paths[name] = str(path)
    gc.collect()
    gc.disable()
    try:
        got = main([arg.format(**paths) for arg in argv])
        found = gc.collect()
    finally:
        gc.enable()
    assert got == code, capsys.readouterr().err
    assert found == 0


def _gen_raising(exc):
    def gen(tag, n, d):
        raise exc
    return gen


_GEN = ["gen", "--family", "P", "--n", "2", "--d", "3"]


# (exit code, argv, what gen_family does instead of generating, or None)
@pytest.mark.parametrize("code, argv, gen", [
    (0, _GEN, None),
    (0, ["gen", "--help"], None),
    (1, ["audit", "--in", "{fail}"], None),
    (2, ["gen", "--family", "P", "--n", "two", "--d", "3"], None),
    (2, _GEN, _gen_raising(ValueError("bad"))),
    (3, _GEN, _gen_raising(RuntimeError("bug"))),
], ids=["exit-0", "help-exit-0", "exit-1", "bad-flag-exit-2", "exit-2", "exit-3"])
@pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
def test_main_pauses_the_collector_and_restores_it(capsys, tmp_path, monkeypatch,
                                                   code, argv, gen, enabled):
    fail = tmp_path / "fail.json"
    fail.write_text(json.dumps({"value": 70, "bound": 64}))
    during = []

    def gen_family(tag, n, d, real=cli.gen_family):
        during.append(gc.isenabled())
        return real(tag, n, d) if gen is None else gen(tag, n, d)

    monkeypatch.setattr(cli, "gen_family", gen_family)
    (gc.enable if enabled else gc.disable)()
    try:
        got = main([arg.format(fail=fail) for arg in argv])
        after = gc.isenabled()
    finally:
        gc.enable()
    capsys.readouterr()
    assert (got, after) == (code, enabled)
    assert during == ([False] if argv is _GEN else [])


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
def test_main_restores_the_collector_when_a_command_is_interrupted(monkeypatch, enabled):
    monkeypatch.setattr(cli, "gen_family", _gen_raising(KeyboardInterrupt()))
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(KeyboardInterrupt):
            main(_GEN)
        after = gc.isenabled()
    finally:
        gc.enable()
    assert after is enabled


def _count_evaluations(monkeypatch):
    calls = []
    eval_gates = Circuit.eval_gates

    def counted(self):
        calls.append(self)
        return eval_gates(self)

    monkeypatch.setattr(Circuit, "eval_gates", counted)
    return calls


def test_pipeline_continuant_evaluates_a_graded_formula_once(capsys, tmp_path, monkeypatch):
    x = [FNode.var(f"x{i}") for i in (1, 2, 3)]
    src = _circ(tmp_path, "m.circ",
                FNode.add(FNode("mul3", tuple(x)), FNode("mul3", (x[0], x[0], x[1]))),
                "arity3")
    calls = _count_evaluations(monkeypatch)
    code, _o, _e = run(capsys, "pipeline", "--in", src, "--target", "continuant",
                       "--out", str(tmp_path / "run"))
    assert code == 0
    assert len(calls) == 1  # the target f, before the passes


def test_pipeline_continuant_hands_the_compiler_its_value(capsys, tmp_path, monkeypatch):
    # x1 * x2 * (x1 x2 x3): add-negcube writes Waring cubes of mixed-degree
    # sums, so the compiled formula is not graded
    x = [FNode.var(f"x{i}") for i in (1, 2, 3)]
    src = _circ(tmp_path, "m.circ", FNode("mul3", (x[0], x[1], FNode("mul3", tuple(x)))), "arity3")
    calls = _count_evaluations(monkeypatch)
    out = tmp_path / "run"
    code, _o, _e = run(capsys, "pipeline", "--in", src, "--target", "continuant",
                       "--out", str(out))
    assert code == 0 and _projection_degree(out / "projection.txt") == "5"
    assert len(calls) == 1


def test_pipeline_without_a_target_evaluates_nothing(capsys, product_circ, tmp_path,
                                                     monkeypatch):
    # f is read only by the verifier, which runs only when there is a target
    calls = _count_evaluations(monkeypatch)
    code, out, _e = run(capsys, "pipeline", "--in", product_circ, "--pass", "brent",
                        "--pass", "ihl-formula", "--out", str(tmp_path / "run"))
    assert code == 0 and "target: (none)" in out and "ihl-formula" in out
    assert not calls


def test_compile_continuant_border_verify_evaluates_once(capsys, tmp_path, monkeypatch):
    x1, x2 = FNode.var("x1"), FNode.var("x2")
    src = _circ(tmp_path, "c.circ", FNode.negcube(FNode.add(x1, x2)), "addNegCube")
    calls = _count_evaluations(monkeypatch)
    code, stdout, _e = run(capsys, "compile", "--target", "continuant", "--in", src,
                           "--verify", "border", "--out", str(tmp_path / "p.txt"))
    assert code == 0 and "verdict=pass" in stdout
    assert len(calls) == 1


def test_pipeline_continuant_of_a_zero_formula_is_degree_1(capsys, tmp_path):
    x1 = FNode.var("x1")
    t = FNode.add(FNode("mul3", (x1, x1, x1)), FNode("mul3", (FNode.var("x1", -1), x1, x1)))
    out = tmp_path / "run"
    code, _o, _e = run(capsys, "pipeline", "--in", _circ(tmp_path, "z.circ", t, "arity3"),
                       "--target", "continuant", "--out", str(out))
    assert code == 0 and _projection_degree(out / "projection.txt") == "1"


def test_pipeline_deterministic_artifacts(capsys, product_circ, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _o, _e = run(capsys, "pipeline", "--in", product_circ,
                           "--target", "trace3", "--out", str(out))
        assert code == 0
        outs.append(out)
    for art in ("word.txt", "report.txt", "01-brent.circ", "02-ihl-formula.circ"):
        assert (outs[0] / art).read_bytes() == (outs[1] / art).read_bytes()


def test_pipeline_rerun_into_one_directory_rewrites_identical_bytes(capsys, product_circ,
                                                                   tmp_path):
    x = [FNode.var(f"x{i}") for i in range(1, 5)]
    longer = _circ(tmp_path, "a-longer-name.circ",
                   FNode.mul(FNode.add(x[0], x[1]), FNode.add(x[2], x[3])), "arity2")

    def pipeline(src, out):
        code, _o, _e = run(capsys, "pipeline", "--in", src, "--target", "trace3",
                           "--out", str(out))
        assert code == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    shared = tmp_path / "shared"
    first = pipeline(longer, shared)
    assert pipeline(longer, shared) == first
    # shorter artifacts over longer ones leave exactly the shorter bytes
    fresh = pipeline(product_circ, tmp_path / "fresh")
    assert all(len(fresh[n]) < len(first[n]) for n in fresh)
    assert pipeline(product_circ, shared) == fresh


def test_rewriting_a_file_with_shorter_text_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "a.txt"
    cli._write_text(str(path), "x1 + x2 + x3 + x4 + x5 + x6\n")
    cli._write_text(str(path), "\u03b5 x1\n")
    assert path.read_bytes() == "\u03b5 x1\n".encode("utf-8")


@pytest.mark.parametrize("first, second", [
    ("x1 + x2\n", "x3 - x4\n"),  # equal length: nothing to cut
    ("\u03b5 x1\n", "x1 + x2 + x3 + x4 + x5 + x6\n"),  # longer
    ("x1 + x2 + x3 + x4 + x5 + x6\n", "\u03b5 x1\n"),  # shorter: cut
])
def test_a_rewrite_cuts_the_file_only_when_it_was_longer(tmp_path, monkeypatch, first, second):
    path = tmp_path / "a.txt"
    cli._write_text(str(path), first)
    inode = path.stat().st_ino
    cuts = []
    ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, n: cuts.append(n) or ftruncate(fd, n))
    cli._write_text(str(path), second)
    new = second.encode("utf-8")
    assert path.read_bytes() == new and path.stat().st_ino == inode
    assert cuts == ([len(new)] if len(first.encode("utf-8")) > len(new) else [])


def test_a_new_file_gets_the_mode_open_w_gives(tmp_path):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "by-open", "w", encoding="utf-8") as fh:
            fh.write("x1\n")
        cli._write_text(str(tmp_path / "by-cli"), "x1\n")
    finally:
        os.umask(old)
    assert (tmp_path / "by-cli").stat().st_mode == (tmp_path / "by-open").stat().st_mode


@pytest.mark.skipif(os.name != "posix", reason="needs /dev/null")
def test_gen_out_dev_null_exits_0(capsys):
    code, out, err = run(capsys, "gen", "--family", "P", "--n", "2", "--d", "2",
                         "--out", os.devnull)
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("command", ["gen", "pipeline"])
def test_an_unwritable_output_exits_2_naming_the_path(capsys, product_circ, tmp_path, command):
    (tmp_path / "file").write_text("x1\n")
    if command == "gen":
        target = str(tmp_path / "no-such-dir" / "x")
        argv = ["gen", "--family", "P", "--n", "2", "--d", "2", "--out", target]
    else:  # an output directory below a regular file
        target = str(tmp_path / "file" / "run")
        argv = ["pipeline", "--in", product_circ, "--target", "trace3", "--out", target]
    code, _o, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert target in err and "internal" not in err


def test_pipeline_empty_is_header_only(capsys, product_circ, tmp_path):
    out = tmp_path / "empty"
    code, stdout, _ = run(capsys, "pipeline", "--in", product_circ,
                          "--out", str(out))
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "passes: (none)" in report and "target: (none)" in report


def test_pipeline_bad_pass_combination_exit_2(capsys, negcube_circ, tmp_path):
    # brent (arity-2) on an add/neg-cube formula violates its precondition
    out = tmp_path / "x"
    code, _o, err = run(capsys, "pipeline", "--in", negcube_circ,
                        "--pass", "brent", "--out", str(out))
    assert code == 2 and "error" in err


def test_prime_test_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))

    assert all(cli._is_prime(n) == by_trial_division(n) for n in range(-2, 3000))
    assert cli._is_prime((1 << 61) - 1)
    # strong pseudoprimes to the bases 2..7, 2..37 and the 2^61 - 1 neighbour
    for n in (3215031751, 318665857834031151167461, (1 << 61) + 1):
        assert not cli._is_prime(n)


# ---------------------------------------------------------------------------
# malformed artifacts exit 2
# ---------------------------------------------------------------------------


def _circuit_with(tmp_path, gate_line, basis="addNegCube"):
    path = tmp_path / "bad.circ"
    path.write_text(f"shape formula\nbasis {basis}\ngate g1 = input x1\n{gate_line}\n"
                    "output g2\n")
    return str(path)


# Formulas declared arity-2 that hold a gate the basis does not admit, with
# that gate's id.  Before the basis was checked when a circuit is built,
# brent raised IndexError on the first (exit 3) and wrote x1*x2*x4 for the
# second (exit 0).
_OUTSIDE_ARITY2 = {
    "negcube": ("g4", "gate g1 = input x1\ngate g2 = input x2\ngate g3 = mul g1 g2\n"
                      "gate g4 = negcube g3\ngate g5 = input x3\ngate g6 = add g4 g5\n"
                      "output g6\n"),
    "mul3": ("g4", "gate g1 = input x1\ngate g2 = input x2\ngate g3 = input x3\n"
                   "gate g4 = mul3 g1 g2 g3\ngate g5 = input x4\ngate g6 = mul g4 g5\n"
                   "output g6\n"),
}
# a value of each flag a pass reads
_FLAG_VALUE = {"alpha": "2", "var": "x1"}


@pytest.mark.parametrize("kind", sorted(_OUTSIDE_ARITY2))
@pytest.mark.parametrize("argv", [
    *(["transform", "--pass", p, *([f"--{r.flag}", _FLAG_VALUE[r.flag]] if r.flag else [])]
      for p, r in PASSES.items()),
    *(["pipeline", "--target", *t] for t in (["offdiag3", "1", "3"], ["trace3"], ["continuant"])),
], ids=" ".join)
def test_a_gate_outside_the_declared_basis_exits_2(capsys, tmp_path, kind, argv):
    gid, gates = _OUTSIDE_ARITY2[kind]
    src = tmp_path / "f.circ"
    src.write_text("shape formula\nbasis arity2\n" + gates)
    code, out, err = run(capsys, *argv, "--in", str(src), "--out", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err == f"error: {src}: gate {gid}: {kind} gate not in arity-2 basis\n"


@pytest.mark.parametrize("gate_line", [
    "gate g2 = negcube g1 scale 1/0",
    "gate g2 = negcube g1 scale abc",
    "gate g2 = input 1/0 * x1",
    "gate g2 = input 2 x1",
])
def test_malformed_circuit_numbers_exit_2_with_line(capsys, tmp_path, gate_line):
    code, _o, err = run(capsys, "transform", "--pass", "parity",
                        "--in", _circuit_with(tmp_path, gate_line), "--out", str(tmp_path / "o"))
    assert code == 2 and "line 4" in err and "internal" not in err


@pytest.mark.parametrize("text", ["1/0 * x1\n", "x1 x2\n", "1e3\n"])
def test_malformed_polynomial_exit_2(capsys, tmp_path, text):
    a, b = tmp_path / "a.poly", tmp_path / "b.poly"
    a.write_text(text)
    b.write_text("x1\n")
    code, out, err = run(capsys, "verify", "--mode", "exact", "--in", str(a), "--against", str(b))
    assert code == 2 and out == "" and "internal" not in err


@pytest.mark.parametrize("alpha", ["1/0", "abc"])
def test_rescale_with_malformed_alpha_exit_2(capsys, product_circ, alpha):
    code, _o, err = run(capsys, "transform", "--pass", "rescale", "--alpha", alpha,
                        "--in", product_circ)
    assert code == 2 and "internal" not in err and alpha in err


@pytest.mark.parametrize("argv, text, line", [
    (["verify", "--mode", "border", "--against"],
     "dim 2\nfactor: (1,2)=x1\nscalar: 2\nscalar: 3\ntarget: trace\n", 4),
    (["verify", "--mode", "border", "--against"],
     "dim 2\nfactor: (1,2)=x1\ntarget: trace\ntarget: entry(1,2)\n", 4),
    (["transform", "--pass", "brent", "--out"],
     "shape formula\nbasis arity3\nbasis arity2\ngate g1 = input x1\noutput g1\n", 3),
], ids=["word-scalar", "word-target", "circuit-basis"])
def test_a_repeated_singleton_directive_exits_2_with_line(capsys, tmp_path, argv, text, line):
    # each of these once ran on the last of the two lines and exited 0
    src, other = tmp_path / "in.txt", tmp_path / "other.txt"
    src.write_text(text)
    other.write_text("3*x1\n")
    code, out, err = run(capsys, *argv, str(other), "--in", str(src))
    assert code == 2 and out == ""
    assert f"line {line}" in err and "given twice" in err


def test_weights_on_a_C_projection_exit_2_with_line(capsys, tmp_path):
    proj, target = tmp_path / "p.txt", tmp_path / "t.poly"
    proj.write_text("projection C n 3 d 1 border 1\nscalar: 1\n"
                    "weights: 0,0,0,0,0,0,0,0,0\nform x1: x1\nform x3: x3\n")
    target.write_text("x1 + x3\n")
    code, out, err = run(capsys, "verify", "--mode", "border", "--in", str(proj),
                         "--against", str(target))
    assert code == 2 and out == ""
    assert "line 3" in err and "takes no weights" in err


@pytest.mark.parametrize("tag, form", [("nceL", "x1_2_1"), ("C", "x1")])
def test_a_degree_zero_projection_verifies_against_gen(capsys, tmp_path, tag, form):
    # an nceL projection at d = 0 once read L_sum(id) = 3, not gen's 1, and
    # failed with witness 2
    proj, target = tmp_path / "p.txt", tmp_path / "t.poly"
    proj.write_text(f"projection {tag} n 1 d 0 border 0\nscalar: 1\nform {form}: x1\n")
    assert run(capsys, "gen", "--family", tag, "--n", "1", "--d", "0", "--out", str(target))[0] == 0
    assert target.read_text() == "1\n"
    code, out, _err = run(capsys, "verify", "--mode", "border", "--in", str(proj),
                          "--against", str(target))
    assert code == 0 and "verdict=pass" in out


@pytest.mark.parametrize("old, new", [
    ("(1,2)=x1", "(0,2)=x1"), ("(2,3)=x2", "(4,3)=x2"), ("entry(1,3)", "entry(0,0)"),
    ("dim 3", "dim 300"),
])
def test_word_with_index_outside_the_matrix_exit_2(capsys, product_circ, tmp_path, old, new):
    word = tmp_path / "w.txt"
    assert run(capsys, "compile", "--target", "offdiag3", "1", "3", "--in", product_circ,
               "--out", str(word))[0] == 0
    text = word.read_text()
    assert old in text
    word.write_text(text.replace(old, new, 1))
    target = tmp_path / "t.poly"
    target.write_text("x1 * x2\n")
    code, out, err = run(capsys, "verify", "--mode", "border", "--in", str(word),
                         "--against", str(target))
    assert code == 2 and out == "" and "line " in err


_PRODUCT_LINES = ["gate g1 = input x1", "gate g2 = input x2", "gate g3 = mul g1 g2"]


@pytest.mark.parametrize("opening", ["basis arity2", "var x1 x2", "output g3", None],
                         ids=["basis", "var", "output", "gate"])
@pytest.mark.parametrize("argv", [
    ["transform", "--pass", "brent", "--in", "{src}", "--out", "{out}"],
    ["compile", "--target", "trace3", "--verify", "border", "--in", "{src}", "--out", "{out}"],
    ["pipeline", "--target", "trace3", "--in", "{src}", "--out", "{out}"],
    ["verify", "--in", "{poly}", "--against", "{src}"],
], ids=["transform", "compile", "pipeline", "verify-against"])
def test_a_circuit_with_no_shape_line_loads_as_a_circuit(capsys, tmp_path, opening, argv):
    # shape and basis are optional: a circuit that opened with another
    # directive was once read as a polynomial and exited 2
    lines = [opening] if opening else []
    lines += _PRODUCT_LINES + ([] if opening == "output g3" else ["output g3"])
    src, poly = tmp_path / "f.circ", tmp_path / "f.poly"
    src.write_text("\n".join(lines) + "\n")
    poly.write_text("x1 * x2\n")
    code, _o, err = run(capsys, *[a.format(src=src, poly=poly, out=tmp_path / "out")
                                  for a in argv])
    assert (code, err) == (0, "")
    assert isinstance(cli.load_artifact(str(src)), Circuit)


@pytest.mark.parametrize("text, want", [
    ("gate * x1\n", "gate*x1"),
    ("var\n", "var"),
    ("\ngate ^2 + output - x1\n", "gate^2 + output - x1"),
    ("shape\n+ basis\n", "shape + basis"),
    ("dim - x1\n", "dim - x1"),
], ids=["gate-times", "var", "gate-power", "sum-over-lines", "dim-minus"])
def test_a_polynomial_in_directive_words_loads_as_a_polynomial(tmp_path, text, want):
    path = tmp_path / "p.poly"
    path.write_text(text)
    assert cli.load_artifact(str(path)) == parse_poly(want)


# a defect of each line format, with its line number and message
_DEFECTS = {
    "gate-kind": ("shape formula\nbasis arity2\ngate g1 = input x1\ngate g2 = pow g1 g1\n"
                  "output g2\n", "line 4: unknown gate kind 'pow'"),
    "undefined-child": ("gate g1 = input x1\ngate g2 = input x2\ngate g3 = mul g1 g9\n"
                        "output g3\n", "line 3: gate g3 references g9 before its definition"),
    "word": ("dim 3\nfactor: (0,2)=x1\nscalar: 1\ntarget: entry(1,3)\n",
             "line 2: row index 0 outside 1..3"),
    "projection": ("projection C n 2 d 1 border 0\nform x3: x1\n",
                   "line 2: C projection with n = 2 has no slot x3"),
}


@pytest.mark.parametrize("defect", sorted(_DEFECTS))
@pytest.mark.parametrize("broken", ["in", "against"])
def test_a_syntax_error_names_its_file_and_line(capsys, tmp_path, defect, broken):
    # with two artifacts, the message says which of them is broken
    text, message = _DEFECTS[defect]
    good, bad = tmp_path / "good.poly", tmp_path / "bad.txt"
    good.write_text("x1\n")
    bad.write_text(text)
    paths = {"in": good, "against": good, broken: bad}
    mode = ["--mode", "border"] if defect in ("word", "projection") and broken == "in" else []
    code, out, err = run(capsys, "verify", *mode, "--in", str(paths["in"]),
                         "--against", str(paths["against"]))
    assert (code, out, err) == (2, "", f"error: {bad}: {message}\n")


def _readme_cli_lines():
    """The ``homlin ...`` lines of the README's CLI code block."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("homlin ")]


def test_the_readme_cli_block_has_examples_of_every_subcommand():
    commands = {shlex.split(line)[1] for line in _readme_cli_lines()}
    assert commands == set(cli._PARSER._subparsers._group_actions[0].choices)


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_every_readme_cli_example_parses(capsys, line):
    # only parsed, not run: a flag or choice the parser dropped but the
    # docs still show fails here
    try:
        cli._PARSER.parse_args(shlex.split(line)[1:])
    except SystemExit:
        pytest.fail(f"{line}: {capsys.readouterr().err}")


# ---------------------------------------------------------------------------
# input contracts: every pass and compiler checks its input through
# Circuit.require, and a violation names the consumer and exits 2
# ---------------------------------------------------------------------------


def _compile_even(part):
    return compile_continuant_even(GradedArity3Repr(Polynomial.zero(), {}, {4: {"x1": part}}), 4)


# (the consumer's name in its messages, its library call, the command that
# reaches it or None, and its contract: shape, basis, IHL leaves)
_CONSUMERS = [
    ("rescaleFormula", lambda c: run_pass("rescale", c, alpha=2),
     ["transform", "--pass", "rescale", "--alpha", "2"], "formula", None, False),
    ("inputHomogenizeFormula", lambda c: run_pass("ihl-formula", c),
     ["transform", "--pass", "ihl-formula"], "formula", "arity2", False),
    ("inputHomogenizeCircuit", lambda c: run_pass("ihl-circuit", c),
     ["transform", "--pass", "ihl-circuit"], None, "arity2", False),
    ("brentFormula", lambda c: run_pass("brent", c),
     ["transform", "--pass", "brent"], "formula", "arity2", False),
    ("toAddNegCube", lambda c: run_pass("add-negcube", c),
     ["transform", "--pass", "add-negcube"], "formula", "arity3", False),
    ("parityHomogenize", lambda c: run_pass("parity", c),
     ["transform", "--pass", "parity"], "formula", "arity2", True),
    ("vfToV3p", lambda c: run_pass("vf-to-v3p", c),
     ["transform", "--pass", "vf-to-v3p"], "formula", "arity2", False),
    ("derivativeFormula", lambda c: run_pass("derivative", c, var="x1"),
     ["transform", "--pass", "derivative", "--var", "x1"], "formula", "arity2", False),
    ("brentArity3", lambda c: run_pass("brent3", c),
     ["transform", "--pass", "brent3"], "formula", "arity3", True),
    ("vsbrArity3", lambda c: run_pass("vsbr3", c),
     ["transform", "--pass", "vsbr3"], None, "arity3", True),
    ("compile_offdiag3", lambda c: compile_offdiag3(c, (1, 3)),
     ["compile", "--target", "offdiag3", "1", "3"], "formula", "arity2", True),
    ("compile_trace3", compile_trace3,
     ["compile", "--target", "trace3"], "formula", "arity2", True),
    ("compile_continuant_odd", compile_continuant_odd,
     ["compile", "--target", "continuant"], "formula", "addNegCube", True),
    ("compile_continuant_even (part for x1)", _compile_even, None, None, "arity3", True),
]
# one input per basis, built around its first leaf
_INPUTS = {
    "arity2": lambda lead: FNode.mul(lead, FNode.var("x2")),
    "arity3": lambda lead: FNode("mul3", (lead, FNode.var("x2"), FNode.var("x3"))),
    "addNegCube": lambda lead: FNode.negcube(lead),
}
_OTHER_BASIS = {"arity2": "arity3", "arity3": "arity2", "addNegCube": "arity2"}
_CONTRACT_CASES = [
    (consumer, defect)
    for consumer in _CONSUMERS
    for defect, applies in zip(("shape", "basis", "ihl"), consumer[3:])
    if applies
]


def _contract_input(basis, defect=None):
    """An input that meets a consumer's contract in ``basis``, or breaks it
    by ``defect``; with the message the consumer must raise for it."""
    basis = basis or "arity2"
    if defect == "basis":
        basis = _OTHER_BASIS[basis]
    lead = FNode.leaf(parse_poly("x1 + 1")) if defect == "ihl" else FNode.var("x1")
    c = tree_to_circuit(_INPUTS[basis](lead), basis)
    if defect == "shape":
        c = Circuit(c.gates, c.output_id, "circuit", basis)
    return c


def _contract_message(consumer, defect):
    who, _call, _argv, shape, basis, _ihl = consumer
    return {
        "shape": f"{who} expects a {shape}",
        "basis": f"{who} expects the {BASIS_KINDS[basis or 'arity2'][0]} basis",
        "ihl": f"{who} expects an IHL {shape or 'circuit'} (gate g1: leaf has a constant part)",
    }[defect]


@pytest.mark.parametrize("consumer", _CONSUMERS, ids=lambda c: c[0].split()[0])
def test_each_consumer_takes_an_input_that_meets_its_contract(consumer):
    _who, call, _argv, _shape, basis, _ihl = consumer
    call(_contract_input(basis))


@pytest.mark.parametrize("consumer, defect", _CONTRACT_CASES,
                         ids=[f"{c[0].split()[0]}-{d}" for c, d in _CONTRACT_CASES])
def test_each_consumer_rejects_an_input_outside_its_contract(consumer, defect):
    _who, call, _argv, _shape, basis, _ihl = consumer
    with pytest.raises(BasisViolation) as exc:
        call(_contract_input(basis, defect))
    assert str(exc.value) == _contract_message(consumer, defect)


_CLI_CONTRACT_CASES = [(c, d) for c, d in _CONTRACT_CASES if c[2] is not None]


@pytest.mark.parametrize("consumer, defect", _CLI_CONTRACT_CASES,
                         ids=[f"{c[0]}-{d}" for c, d in _CLI_CONTRACT_CASES])
def test_an_input_outside_a_contract_exits_2_naming_the_consumer(capsys, tmp_path,
                                                                 consumer, defect):
    _who, _call, argv, _shape, basis, _ihl = consumer
    src = tmp_path / "in.circ"
    src.write_text(print_circuit(_contract_input(basis, defect)))
    code, out, err = run(capsys, *argv, "--in", str(src), "--out", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err == f"error: {_contract_message(consumer, defect)}\n"
