"""Independent verdict oracle: a gate-walk evaluator over F_p.

It reads homlin's circuit and polynomial text with its own small parser and
evaluates at random points modulo p = 2^61 - 1, so a pass output is checked
against the bench's own input gate list without homlin's parser, evaluator
or polynomial arithmetic.  ``check_pass`` also re-derives each pass's size
or depth bound from the bench's own measurements and compares them with the
``PassReport`` the command printed.
"""

from __future__ import annotations

import ast
import math
import os
import random
import re
from typing import Dict, List, Mapping, Tuple

from inputs import Gates, depth, mul_depth

P = (1 << 61) - 1

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*^]))")


def _rat(text: str) -> int:
    num, _, den = text.partition("/")
    return int(num) * pow(int(den or 1), -1, P) % P


def eval_poly_fp(text: str, point: Mapping[str, int]) -> int:
    """Value of polynomial text (``3 * x1^2 * eps^-1 - 1/2 * x2``) mod P."""
    toks, pos, text = [], 0, text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad polynomial text at offset {pos}: {text!r}")
        toks.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    total, i = 0, 0
    while i < len(toks):
        sign = 1
        while toks[i][0] == "op" and toks[i][1] in "+-":
            sign = -sign if toks[i][1] == "-" else sign
            i += 1
        term = 1
        while True:
            kind, val = toks[i]
            i += 1
            if kind == "num":
                term = term * _rat(val) % P
            elif kind == "name":
                exp = 1
                if i < len(toks) and toks[i] == ("op", "^"):
                    neg = toks[i + 1] == ("op", "-")
                    i += 2 if neg else 1
                    exp = -int(toks[i][1]) if neg else int(toks[i][1])
                    i += 1
                term = term * pow(point[val], exp, P) % P
            else:
                raise ValueError(f"unexpected {val!r} in {text!r}")
            if i < len(toks) and toks[i] == ("op", "*"):
                i += 1
                continue
            break
        total = (total + sign * term) % P
    return total


def eval_gates_fp(gates: Gates, point: Mapping[str, int]) -> int:
    """Value of a bench gate list mod P."""
    vals: List[int] = []
    for g in gates:
        if g.kind == "input":
            v = sum(_rat(str(c)) * point[x] for x, c in g.lin.items()) + _rat(str(g.const))
        elif g.kind in ("add", "mul"):
            s1, s2 = (_rat(str(s)) for s in g.edge) if g.edge else (1, 1)
            a, b = s1 * vals[g.kids[0]], s2 * vals[g.kids[1]]
            v = a + b if g.kind == "add" else a * b
        elif g.kind == "mul3":
            v = vals[g.kids[0]] * vals[g.kids[1]] % P * vals[g.kids[2]]
        else:  # negcube
            v = -pow(vals[g.kids[0]], 3, P)
        if g.scale is not None:
            v *= _rat(str(g.scale))
        vals.append(v % P)
    return vals[-1]


def eval_circuit_fp(text: str, point: Mapping[str, int]) -> Dict[str, int]:
    """Evaluate homlin circuit text mod P; also measures size, depth and
    multiplicative depth from the text."""
    vals: Dict[str, int] = {}
    dep: Dict[str, int] = {}
    mdep: Dict[str, int] = {}
    out = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.split()[0] in ("shape", "basis", "var"):
            continue
        words = line.split()
        if words[0] == "output":
            out = words[1]
            continue
        if words[0] != "gate" or words[2] != "=":
            raise ValueError(f"bad circuit line {line!r}")
        gid, kind = words[1], words[3]
        body = line.split("=", 1)[1].strip()[len(kind):].strip()
        scale = 1
        if " scale " in f" {body}":
            body, _, q = f" {body}".rpartition(" scale ")
            body, scale = body.strip(), _rat(q.strip())
        edge = (1, 1)
        if "[" in body:
            body, _, e = body.partition("[")
            edge = tuple(eval_poly_fp(t, point) for t in e.rstrip("] ").split())
        kids = body.split()
        if kind == "input":
            v = eval_poly_fp(body, point)
        elif kind == "alpha":
            v = point["alpha"]
        elif kind == "zvar":
            v = point["z"]
        elif kind == "add":
            v = edge[0] * vals[kids[0]] + edge[1] * vals[kids[1]]
        elif kind == "mul":
            v = edge[0] * vals[kids[0]] % P * edge[1] * vals[kids[1]]
        elif kind == "mul3":
            v = vals[kids[0]] * vals[kids[1]] % P * vals[kids[2]]
        elif kind == "negcube":
            v = -pow(vals[kids[0]], 3, P)
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
        if kind == "input":
            kids = []
        vals[gid] = v * scale % P
        dep[gid] = 1 + max(dep[k] for k in kids) if kids else 0
        inc = 1 if kind in ("mul", "mul3", "negcube") else 0
        mdep[gid] = inc + (max(mdep[k] for k in kids) if kids else 0)
    if out is None:
        raise ValueError("circuit text has no output line")
    return {"value": vals[out], "size": len(vals), "depth": dep[out], "mulDepth": mdep[out]}


def random_point(rng: random.Random, n_vars: int = 4) -> Dict[str, int]:
    pt = {f"x{i}": rng.randrange(1, P) for i in range(1, n_vars + 1)}
    pt.update(eps=rng.randrange(1, P), alpha=rng.randrange(1, P), z=rng.randrange(1, P))
    return pt


def _scaled(point: Mapping[str, int], t: int) -> Dict[str, int]:
    return {k: (v * t % P if k.startswith("x") else v) for k, v in point.items()}


# ---------------------------------------------------------------------------
# pass outputs
# ---------------------------------------------------------------------------


def parse_pass_report(stdout: str) -> Dict[str, object]:
    rep: Dict[str, object] = {}
    for line in stdout.splitlines():
        key, _, rest = line.strip().partition(":")
        if key in ("input", "output"):
            rep[key] = ast.literal_eval(rest.strip())
        elif key == "bound":
            rep["satisfied"] = rest.strip().endswith("-> satisfied")
    return rep


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def graded_parts(prefix: str) -> Tuple[str, Dict[int, str], Dict[Tuple[int, str], str]]:
    """The const / odd / even files ``homlin transform --pass vf-to-v3p``
    wrote under ``prefix``."""
    folder, base = os.path.split(prefix)
    odd: Dict[int, str] = {}
    even: Dict[Tuple[int, str], str] = {}
    for name in os.listdir(folder):
        if not name.startswith(base + "."):
            continue
        parts = name[len(base) + 1:].split(".")
        if parts[0] == "odd":
            odd[int(parts[1])] = os.path.join(folder, name)
        elif parts[0] == "even":
            even[(int(parts[1]), parts[2])] = os.path.join(folder, name)
    return prefix + ".const", odd, even


def check_pass(pass_name: str, gates: Gates, out_path: str, stdout: str,
               rng: random.Random, points: int = 2) -> List[str]:
    """Problems with one ``homlin transform`` result; empty when the output
    computes what it must and the report's bound holds."""
    problems: List[str] = []
    rep = parse_pass_report(stdout)
    s_in, d_in, md_in = len(gates), depth(gates), mul_depth(gates)
    if rep.get("input") != {"size": s_in, "depth": d_in, "mulDepth": md_in}:
        problems.append(f"reported input metrics {rep.get('input')} != measured")
    if not rep.get("satisfied"):
        problems.append("report says the bound is violated")
    measured = None
    for _ in range(points):
        pt = random_point(rng)
        want = eval_gates_fp(gates, pt)
        if pass_name == "vf-to-v3p":
            const, odd, even = graded_parts(out_path)
            got = eval_poly_fp(_read(const), pt)
            size = 0
            t = rng.randrange(2, P)
            for d, path in odd.items():
                text = _read(path)
                r = eval_circuit_fp(text, pt)
                size += r["size"]
                got += r["value"]
                if eval_circuit_fp(text, _scaled(pt, t))["value"] != r["value"] * pow(t, d, P) % P:
                    problems.append(f"odd part {d} is not homogeneous of degree {d}")
            for (d, v), path in even.items():
                text = _read(path)
                r = eval_circuit_fp(text, pt)
                size += r["size"]
                got += pt[v] * r["value"] * pow(d, -1, P)
                if eval_circuit_fp(text, _scaled(pt, t))["value"] != r["value"] * pow(t, d - 1, P) % P:
                    problems.append(f"even part {d}/{v} is not homogeneous of degree {d - 1}")
            measured = {"size": size, "depth": 0, "mulDepth": 0}
        else:
            measured = eval_circuit_fp(_read(out_path), pt)
            got = measured.pop("value")
            if pass_name == "ihl-circuit":
                want -= eval_gates_fp(gates, {k: 0 for k in pt})
        if got % P != want % P:
            problems.append("output differs from the input at a random point mod 2^61-1")
            break
    if rep.get("output") != measured:
        problems.append(f"reported output metrics {rep.get('output')} != measured {measured}")
    s, d_out = max(s_in, 2), measured["depth"]
    size_out = measured["size"]
    if pass_name in ("brent", "brent3") and d_out > 2 * math.log(s, 1.5) + 4:
        problems.append(f"depth {d_out} exceeds 2*log_1.5({s}) + 4")
    if pass_name == "add-negcube" and size_out > 16 * 4 ** md_in * s_in:
        problems.append(f"size {size_out} exceeds 16 * 4^{md_in} * {s_in}")
    if pass_name == "ihl-circuit" and (size_out > 6 * s_in or d_out > 3 * s_in):
        problems.append(f"size {size_out} / depth {d_out} exceed 6s / 3s for s = {s_in}")
    return problems


def check_stage(gates: Gates, path: str, rng: random.Random) -> List[str]:
    """A pipeline stage file must compute the input polynomial (the inputs
    of the border workloads are IHL, so homogenizing them is the identity)."""
    pt = random_point(rng)
    if eval_circuit_fp(_read(path), pt)["value"] != eval_gates_fp(gates, pt):
        return [f"{os.path.basename(path)} differs from the input at a random point"]
    return []
