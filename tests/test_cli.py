"""End-to-end tests for the command-line front end."""

import json
import os

import pytest

from homlin import cli
from homlin.circuit import Circuit, FNode, parse_circuit, print_circuit, tree_to_circuit
from homlin.cli import main
from homlin.families import gen_C_comb
from homlin.poly import format_poly, parse_poly


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
                       "--against-oracle", "Cmatrix", "--n", "5", "--d", "3")
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


@pytest.mark.parametrize("d", ["-1", "-3"])
def test_compile_continuant_rejects_a_degree_below_1(capsys, tmp_path, d):
    out = tmp_path / "p.txt"
    src = _circ(tmp_path, "z.circ", _CUBES_THAT_CANCEL, "addNegCube")
    code, _o, err = run(capsys, "compile", "--target", "continuant", "--d", d,
                        "--in", src, "--out", str(out))
    assert code == 2 and f"degree {d} " in err
    assert not out.exists()


@pytest.mark.parametrize("tree", [_CUBES_THAT_CANCEL, FNode.negcube(FNode.var("x1"), scale=0)],
                         ids=["cubes-that-cancel", "scale-0-cube"])
def test_compile_continuant_of_a_zero_formula_is_degree_1(capsys, tmp_path, tree):
    out = tmp_path / "p.txt"
    code, _o, _e = run(capsys, "compile", "--target", "continuant",
                       "--in", _circ(tmp_path, "z.circ", tree, "addNegCube"),
                       "--out", str(out))
    assert code == 0 and _projection_degree(out) == "1"


def test_compile_unknown_target_exit_2(capsys, product_circ):
    code, _o, err = run(capsys, "compile", "--target", "nonsense",
                        "--in", product_circ)
    assert code == 2 and "target" in err


@pytest.mark.parametrize("argv, named", [
    (("compile", "--target", "offdiag3", "1", "3"), "offdiag3"),
    (("compile", "--target", "trace3"), "trace3"),
    (("pipeline", "--target", "trace3"), "trace3"),
    (("pipeline",), "no target"),
], ids=["compile-offdiag3", "compile-trace3", "pipeline-trace3", "pipeline-no-target"])
def test_d_outside_the_continuant_target_exit_2(capsys, product_circ, tmp_path, argv, named):
    # only the continuant reads --d; elsewhere it must not be dropped silently
    out = tmp_path / "out"
    code, _o, err = run(capsys, *argv, "--d", "3", "--in", product_circ, "--out", str(out))
    assert code == 2 and err.count("\n") == 1
    assert "--d" in err and named in err
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
    t = FNode.mul3(FNode.var("x1"), FNode.var("x2"), FNode.var("x3"))
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
    src = _circ(tmp_path, "m.circ", FNode.add(FNode.mul3(*x), FNode.mul3(x[0], x[0], x[1])),
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
    src = _circ(tmp_path, "m.circ", FNode.mul3(x[0], x[1], FNode.mul3(*x)), "arity3")
    calls = _count_evaluations(monkeypatch)
    out = tmp_path / "run"
    code, _o, _e = run(capsys, "pipeline", "--in", src, "--target", "continuant",
                       "--out", str(out))
    assert code == 0 and _projection_degree(out / "projection.txt") == "5"
    assert len(calls) == 1


@pytest.mark.parametrize("d", [[], ["--d", "3"]], ids=["no-d", "d-3"])
def test_compile_continuant_border_verify_evaluates_once(capsys, tmp_path, monkeypatch, d):
    x1, x2 = FNode.var("x1"), FNode.var("x2")
    src = _circ(tmp_path, "c.circ", FNode.negcube(FNode.add(x1, x2)), "addNegCube")
    calls = _count_evaluations(monkeypatch)
    code, stdout, _e = run(capsys, "compile", "--target", "continuant", *d, "--in", src,
                           "--verify", "border", "--out", str(tmp_path / "p.txt"))
    assert code == 0 and "verdict=pass" in stdout
    assert len(calls) == 1


def test_pipeline_continuant_of_a_zero_formula_is_degree_1(capsys, tmp_path):
    x1 = FNode.var("x1")
    t = FNode.add(FNode.mul3(x1, x1, x1), FNode.mul3(FNode.var("x1", -1), x1, x1))
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
