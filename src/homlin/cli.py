"""Command-line front end: family generators, transformation passes,
word/projection compilers, verification, bound audits, and canonical
pipelines with serialized artifacts.

Exit codes: 0 all pass, 1 verification failure, 2 invalid input or an
output that cannot be written, 3 internal error (an exception the program
did not expect, reported in one line).

All artifacts are deterministic given the configuration: reports written to
files carry no timing information.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import stat
import sys
from typing import List, Optional, Sequence

from .circuit import DIRECTIVES, Circuit, parse_circuit, print_circuit
from .families import FAMILY_TAGS, gen_family
from .matrixword import (
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
from .poly import Polynomial, format_poly, parse_poly, parse_rational
from .transforms import PASS_NAMES, ParityPair, PassReport, run_pass
from .verify import (
    DEFAULT_PRIME,
    DEFAULT_TRIALS,
    VerifyReport,
    audit_bounds,
    verify_border,
    verify_exact,
    verify_random,
)


class CliError(Exception):
    """Invalid input or configuration; mapped to exit code 2."""


# ---------------------------------------------------------------------------
# artifact IO
# ---------------------------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(str(exc)) from exc


def _write_text(path: Optional[str], text: str):
    """Write ``text`` to ``path`` (stdout for None or '-').  This is the one
    place the package writes a file.

    An existing file is overwritten in place and then cut to the new length,
    not truncated on open: on ext4 (``auto_da_alloc``), truncating a
    non-empty file to zero makes ``close()`` start writeback of the new
    data, which took a third to a half of a small trace3 pipeline rerun
    into the same directory.  The file is cut only when it was longer than
    the new bytes: even a no-op ``ftruncate`` slows a same-length rewrite
    (3 KB on ext4: 12.5-14.9 us with it, 7.6-11.3 us without).
    The bytes, and the mode of a new file (0o666 less the umask), are those
    of ``open(path, "w")``.  Like that, the write is neither atomic nor
    durable: there is no fsync, and a run killed mid-write leaves a partial
    file.  Only a regular file is cut, since ``ftruncate`` fails on
    ``/dev/null`` or a pipe."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as fh:
            old = os.fstat(fd)
            fh.write(data)
            fh.flush()
            if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
                os.ftruncate(fd, len(data))
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


_COMMENT = re.compile(r"#.*")


def load_artifact(path: str):
    """Parse a serialized artifact, telling its format from its first line.
    A line that opens with a directive of the word, projection or circuit
    format, followed by a word that does not open with an operator, is that
    format's: a polynomial can continue a name only with one (``gate * x1``
    or ``var`` alone is a polynomial).  Every other text is a polynomial.
    Every format takes ``#`` comments to the end of a line.  A syntax error
    reads ``<path>: line N: <msg>``."""
    text = _read_text(path)
    words: List[str] = []
    for line in text.splitlines():
        words = line.split("#", 1)[0].split()
        if words:
            break
    head = words[0] if len(words) > 1 and words[1][0] not in "^*+-" else ""
    try:
        if head == "dim":
            return parse_word(text)
        if head == "projection":
            return parse_projection(text)
        if head in DIRECTIVES:
            return parse_circuit(text)
        # a comment runs from '#' to the end of its line, as in the other
        # formats; it is blanked, not cut, so an offset still counts in the file
        return parse_poly(_COMMENT.sub(lambda m: " " * len(m.group()), text))
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _as_polynomial(obj) -> Polynomial:
    if isinstance(obj, Polynomial):
        return obj
    if isinstance(obj, Circuit):
        return obj.eval()
    raise CliError("expected a polynomial or circuit artifact")


def _render_verify(rep: VerifyReport) -> str:
    lines = [f"verify mode={rep.mode} verdict={'pass' if rep.verdict else 'FAIL'}"]
    if rep.witness:
        lines.append(f"  witness: {rep.witness}")
    for k in sorted(rep.details):
        lines.append(f"  {k}: {rep.details[k]}")
    lines.append(f"  time: {rep.timing:.3f}s")
    return "\n".join(lines) + "\n"


def _render_pass_report(rep: PassReport) -> str:
    lines = [
        f"pass {rep.pass_name}",
        f"  input:  {rep.input_metrics}",
        f"  output: {rep.output_metrics}",
        f"  bound:  {rep.bound_formula} -> "
        f"{'satisfied' if rep.bound_satisfied else 'VIOLATED'}",
    ]
    for k in sorted(rep.details):
        lines.append(f"  {k}: {rep.details[k]}")
    return "\n".join(lines) + "\n"


# Miller-Rabin with these bases decides primality for every n below
# 3.3 * 10^24 (Sorenson and Webster 2017); above that it is a fixed-base
# strong probable-prime test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _parse_field(text: str) -> int:
    """The prime ``P`` of a ``prime:P`` field spec, the one field of
    random mode (``--mode exact`` checks over the rationals)."""
    if not text.startswith("prime:"):
        raise CliError(f"unknown field {text!r} (use prime:P)")
    try:
        p = int(text[len("prime:"):])
    except ValueError as exc:
        raise CliError(f"bad field spec {text!r}") from exc
    if not _is_prime(p):
        raise CliError(f"bad prime {p}: not a prime")
    return p


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    p = gen_family(args.family, args.n, args.d)
    _write_text(args.out, format_poly(p) + "\n")
    return 0


# the pass that reads each pass-specific flag of ``transform``
_PASS_OPTIONS = {"alpha": "rescale", "var": "derivative"}
# the passes that write several outputs, so need --out to name them
_OUT_PREFIX = {"parity": "to name the two outputs", "vf-to-v3p": "as an output prefix"}


def cmd_transform(args) -> int:
    for flag, reader in _PASS_OPTIONS.items():
        if getattr(args, flag) is not None and args.pass_name != reader:
            raise CliError(f"--{flag} applies only to the {reader} pass, not {args.pass_name}")
    if args.out is None and args.pass_name in _OUT_PREFIX:
        raise CliError(f"{args.pass_name} needs --out {_OUT_PREFIX[args.pass_name]}")
    c = load_artifact(args.infile)
    if not isinstance(c, Circuit):
        raise CliError("transform expects a circuit artifact")
    kwargs = {}
    if args.alpha is not None:
        kwargs["alpha"] = parse_rational(args.alpha)
    if args.var is not None:
        kwargs["var"] = args.var
    result, report = run_pass(args.pass_name, c, **kwargs)
    sys.stdout.write(_render_pass_report(report))
    if isinstance(result, Circuit):
        _write_text(args.out, print_circuit(result))
    elif isinstance(result, ParityPair):
        for tag, part in (("odd", result.odd), ("even", result.even)):
            if part is not None:
                _write_text(f"{args.out}.{tag}", print_circuit(part))
                print(f"wrote {args.out}.{tag}")
            else:
                print(f"{tag} component: zero (not written)")
    else:  # vf-to-v3p's GradedArity3Repr
        _write_text(f"{args.out}.const", format_poly(result.constant_part) + "\n")
        for d in sorted(result.odd_parts):
            _write_text(f"{args.out}.odd.{d}", print_circuit(result.odd_parts[d]))
        for d in sorted(result.even_parts):
            for v in sorted(result.even_parts[d]):
                _write_text(f"{args.out}.even.{d}.{v}",
                            print_circuit(result.even_parts[d][v]))
        print(f"wrote components under prefix {args.out}")
    return 0


def _compile_target(target: Sequence[str], c: Circuit, value: Optional[Polynomial]):
    name = target[0]
    if name == "offdiag3":
        if len(target) != 3:
            raise CliError("offdiag3 target needs two indices, e.g. offdiag3 1 3")
        try:
            i, j = int(target[1]), int(target[2])
        except ValueError as exc:
            raise CliError("offdiag3 indices must be integers") from exc
        return compile_offdiag3(c, (i, j))
    if len(target) != 1:
        raise CliError(f"target {name} takes no indices")
    if name == "trace3":
        return compile_trace3(c)
    if name == "continuant":
        return compile_continuant_odd(c, value)
    raise CliError(f"unknown compile target {name!r}")


def _compile(target: Sequence[str], c: Circuit, f: Optional[Polynomial]):
    """The compile step of ``compile`` and ``pipeline``: ``c`` compiled to
    ``target``, as (word or projection, its text, its border verification
    against ``c``'s value ``f``, or None when ``f`` is None).  A compiler's
    ``ValueError`` is invalid input, which ``main`` reports with exit 2."""
    obj = _compile_target(target, c, f)
    text = format_word(obj) if isinstance(obj, MatrixWord) else format_projection(obj)
    return obj, text, None if f is None else verify_border(obj, f)


def cmd_compile(args) -> int:
    c = load_artifact(args.infile)
    if not isinstance(c, Circuit):
        raise CliError("compile expects a circuit artifact")
    f = c.eval() if args.verify == "border" else None
    obj, text, rep = _compile(args.target, c, f)
    if isinstance(obj, MatrixWord):
        print(f"compiled {args.target[0]}: r = {obj.r()} factors")
    else:
        print(f"compiled {args.target[0]}: r = {obj.n} forms at degree {obj.d}")
    _write_text(args.out, text)
    if rep is not None:
        sys.stdout.write(_render_verify(rep))
        if not rep.verdict:
            return 1
    return 0


def _check_verify_flags(args):
    """A flag that the chosen verification does not read exits 2."""
    oracle = args.against_oracle is not None
    by_prime = args.mode == "random"
    beside = "does not apply with --against-oracle"
    random_only = "applies only to --mode random"
    for flag, value, unread, why in (
        ("--mode", args.mode, oracle, beside),
        ("--against", args.against, oracle, beside),
        ("--n", args.n, not oracle, "needs --against-oracle"),
        ("--d", args.d, not oracle, "needs --against-oracle"),
        ("--seed", args.seed, not by_prime, random_only),
        ("--trials", args.trials, not by_prime, random_only),
        ("--field", args.field, not by_prime, random_only),
    ):
        if value is not None and unread:
            raise CliError(f"{flag} {why}")
    if args.trials is not None and args.trials < 1:  # zero trials pass any pair unchecked
        raise CliError(f"--trials must be at least 1, got {args.trials}")


def cmd_verify(args) -> int:
    _check_verify_flags(args)
    prime = DEFAULT_PRIME if args.field is None else _parse_field(args.field)
    if args.against_oracle is not None:
        if args.n is None or args.d is None:
            raise CliError("--against-oracle needs --n and --d")
        got = _as_polynomial(load_artifact(args.infile))
        want = gen_family(args.against_oracle, args.n, args.d)
        rep = verify_exact(got, want)
        sys.stdout.write(_render_verify(rep))
        return 0 if rep.verdict else 1

    if args.against is None:
        raise CliError("verify needs --against FILE or --against-oracle TAG")
    left = load_artifact(args.infile)
    if args.mode == "border":
        if not isinstance(left, (MatrixWord, Projection)):
            raise CliError("border mode expects a word or projection input")
        target = _as_polynomial(load_artifact(args.against))
        rep = verify_border(left, target)
    else:
        a = _as_polynomial(left)
        b = _as_polynomial(load_artifact(args.against))
        if args.mode == "random":
            rep = verify_random(a, b, seed=args.seed or 0,
                                trials=args.trials or DEFAULT_TRIALS, prime=prime)
        else:
            rep = verify_exact(a, b)
    sys.stdout.write(_render_verify(rep))
    return 0 if rep.verdict else 1


def cmd_audit(args) -> int:
    text = _read_text(args.infile)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.infile}: {exc}") from exc
    if not isinstance(data, dict) or "value" not in data or "bound" not in data:
        raise CliError('audit input must be JSON {"value": v, "bound": B}')
    rep = audit_bounds(data)
    sys.stdout.write(_render_verify(rep))
    return 0 if rep.verdict else 1


CANONICAL_PASSES = {
    "offdiag3": ["brent", "ihl-formula"],
    "trace3": ["brent", "ihl-formula"],
    "continuant": ["brent3", "add-negcube"],
}


def cmd_pipeline(args) -> int:
    c = load_artifact(args.infile)
    if not isinstance(c, Circuit):
        raise CliError("pipeline expects a circuit artifact")
    outdir = args.out
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create directory {outdir}: {exc.strerror or exc}") from exc
    passes: List[str] = list(args.passes or [])
    if not passes and args.target is not None:
        passes = CANONICAL_PASSES.get(args.target[0], [])

    report_lines = [
        f"pipeline input={args.infile}",
        f"  passes: {' '.join(passes) if passes else '(none)'}",
        f"  target: {' '.join(args.target) if args.target else '(none)'}",
    ]
    # the passes preserve f, so it is the value of their output as well
    f = c.eval() if args.target is not None else None
    current = c
    failed_audit = False
    for idx, name in enumerate(passes, start=1):
        try:
            result, rep = run_pass(name, current)
        except ValueError as exc:
            raise CliError(f"pass {name}: {exc}") from exc
        if not isinstance(result, Circuit):
            raise CliError(f"pass {name} does not produce a circuit; "
                           "run it through 'transform' instead")
        current = result
        path = os.path.join(outdir, f"{idx:02d}-{name}.circ")
        _write_text(path, print_circuit(current))
        failed_audit = failed_audit or not rep.bound_satisfied
        report_lines.append(
            f"  stage {idx} {name}: {rep.input_metrics} -> {rep.output_metrics}; "
            f"bound {rep.bound_formula}: "
            f"{'ok' if rep.bound_satisfied else 'VIOLATED'}"
        )

    verdict_ok = True
    if args.target is not None:
        obj, text, rep = _compile(args.target, current, f)
        if isinstance(obj, MatrixWord):
            artifact, size = "word.txt", f"r = {obj.r()}"
        else:
            artifact, size = "projection.txt", f"r = {obj.n}, d = {obj.d}"
        _write_text(os.path.join(outdir, artifact), text)
        report_lines.append(f"  compile {args.target[0]}: {size} -> {artifact}")
        verdict_ok = rep.verdict
        report_lines.append(
            f"  verify (border): {'pass' if rep.verdict else 'FAIL'}"
            + (f"; witness: {rep.witness}" if rep.witness else "")
        )

    report = "\n".join(report_lines) + "\n"
    _write_text(os.path.join(outdir, "report.txt"), report)
    sys.stdout.write(report)
    if not verdict_ok or failed_audit:
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="homlin",
        description="compiler workbench for homogeneous-linear matrix-word "
        "and projection constructions",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def infile(p):
        p.add_argument("--in", dest="infile", required=True,
                       help="input artifact ('-' for stdin)")

    g = sub.add_parser("gen", help="emit a reference family polynomial")
    g.add_argument("--family", required=True, choices=sorted(FAMILY_TAGS))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--out", default=None)
    g.set_defaults(fn=cmd_gen)

    t = sub.add_parser("transform", help="run a named transformation pass")
    t.add_argument("--pass", dest="pass_name", required=True,
                   choices=list(PASS_NAMES))
    t.add_argument("--out", default=None)
    t.add_argument("--alpha", default=None, help="scalar for the rescale pass")
    t.add_argument("--var", default=None, help="variable for the derivative pass")
    infile(t)
    t.set_defaults(fn=cmd_transform)

    c = sub.add_parser("compile", help="compile a circuit to a word/projection")
    c.add_argument("--target", nargs="+", required=True,
                   help="offdiag3 I J | trace3 | continuant")
    c.add_argument("--out", default=None)
    c.add_argument("--verify", choices=["none", "border"], default="none")
    infile(c)
    c.set_defaults(fn=cmd_compile)

    v = sub.add_parser("verify", help="verify two artifacts against each other")
    v.add_argument("--mode", choices=["exact", "border", "random"], default=None,
                   help="exact (the default), border or random")
    v.add_argument("--against", default=None, help="reference artifact")
    v.add_argument("--against-oracle", dest="against_oracle", default=None,
                   choices=sorted(FAMILY_TAGS))
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--d", type=int, default=None)
    v.add_argument("--trials", type=int, default=None,
                   help="random mode: trials (default %d)" % DEFAULT_TRIALS)
    v.add_argument("--seed", type=int, default=None, help="random mode: seed (default 0)")
    v.add_argument("--field", default=None,
                   help="random mode: prime:P (default prime:%d)" % DEFAULT_PRIME)
    infile(v)
    v.set_defaults(fn=cmd_verify)

    a = sub.add_parser("audit", help="re-assert a bound from a JSON report")
    infile(a)
    a.set_defaults(fn=cmd_audit)

    p = sub.add_parser("pipeline", help="run passes, compile, verify, report")
    p.add_argument("--pass", dest="passes", action="append", default=None,
                   choices=list(PASS_NAMES),
                   help="may repeat; defaults to the target's canonical passes")
    p.add_argument("--target", nargs="+", default=None,
                   help="offdiag3 I J | trace3 | continuant")
    p.add_argument("--out", required=True, help="output directory")
    infile(p)
    p.set_defaults(fn=cmd_pipeline)

    return top


# parse_args leaves a parser unchanged, so every call of main shares one.
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; its exit code.  The cyclic garbage collector is
    paused while the command runs and restored to the caller's setting on
    every exit: a command's trees, memos and gate lists hold no reference
    cycle, so reference counting frees them and a collection finds nothing
    (``tests/test_cli.py`` checks this for every subcommand)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: Optional[Sequence[str]]) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # a bad flag (2) or --help (0)
        return exc.code
    try:
        return args.fn(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as a failed verification (1)
        message = str(exc).replace("\n", " ")
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
