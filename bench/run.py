"""homlin benchmark: seeded workloads through homlin's CLI and library entry
points, timed end to end (``--trace 0``) or traced per layer (``--trace 1``).

    python3 bench/run.py --workload trace3-border --seed 1 --seconds 20 --trace 0

Workloads: trace3-border, continuant-border, passes-deep (see workloads.py);
all three in turn:

    for w in trace3-border continuant-border passes-deep; do
        python3 bench/run.py --workload $w --seed 1 --seconds 25 --trace 0; done

Run from anywhere; homlin is imported from ``src/`` next to this directory.
Self-tests: ``PYTHONPATH=src python -m pytest -q bench/tests``.

A run sets up its inputs several times (the median is ``setup_s``), then
repeats complete rounds over the instance pool, in one single-threaded
process, until ``--seconds`` have passed.  Every round holds the same
instances, so each instance's time is its median over the rounds;
``verdict_p50_s`` and ``verdict_tail_s`` rank those per-instance times, and
``instances_per_s`` is the median over rounds of the round's throughput.
End-to-end times are seconds at a fixed reference speed: each is scaled by
a reference kernel timed around it (speed.py), because the host's CPU speed
drifts by more than any useful bound.  Raw times are printed beside them.

Every verdict is checked against its known answer, pass outputs against the
bench's own F_p oracle, and artifact digests across rounds and across runs
of the same seed and code.  The run prints one line per metric, then one
JSON object as the last line, and exits 1 if any answer was wrong.

A traced run alternates an untraced and a traced round over the pool (at
least one pair, more while under ``--seconds``) and reports per-layer
metrics per traced round (raw seconds), plus ``trace.overhead_ratio``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import speed
import workloads
from spans import LAYER_MODULES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 5
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "output_size": "count",
}

# per-layer metric -> unit; every one is reported on every workload
LAYER_UNITS: Dict[str, str] = {}
for _n in ("mul", "add", "coeff_mul"):
    LAYER_UNITS.update({f"poly.{_n}.calls": "count", f"poly.{_n}.self_s": "s"})
LAYER_UNITS.update({"poly.mul.term_pairs": "count", "poly.mul.out_terms": "count"})
for _n in ("substitute", "eps_limit", "homog_component", "parse", "format"):
    LAYER_UNITS[f"poly.{_n}.self_s"] = "s"
LAYER_UNITS.update({
    "circuit.parse.self_s": "s", "circuit.parse.bytes": "bytes", "circuit.print.self_s": "s",
    "circuit.eval.self_s": "s", "circuit.tree.self_s": "s",
})
for _n in ("brent", "ihl-formula", "brent3", "add-negcube", "ihl-circuit", "vsbr3", "vf-to-v3p"):
    LAYER_UNITS.update({f"transforms.{_n}.self_s": "s", f"transforms.{_n}.out_size": "count",
                        f"transforms.{_n}.out_depth": "count"})
LAYER_UNITS.update({
    "matrixword.compile.trace3.self_s": "s", "matrixword.compile.continuant_odd.self_s": "s",
    "matrixword.compile.continuant_even.self_s": "s", "matrixword.word_factors": "count",
    "matrixword.expand_word.calls": "count", "matrixword.expand_word.self_s": "s",
    "matrixword.border_value.self_s": "s", "matrixword.border_value.out_terms": "count",
    "matrixword.format.self_s": "s", "matrixword.parse.self_s": "s",
    "families.nce_matrices.calls": "count", "families.nce_matrices.self_s": "s",
    "families.nce_matrices.steps": "count",
    "verify.border.calls": "count", "verify.border.self_s": "s",
    "verify.border.kept_term_ratio": "ratio", "verify.exact.self_s": "s",
    "cli.main.calls": "count", "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio", "trace.wall_s": "s", "trace.layer_self_s": "s",
})
# counts that must repeat exactly across runs of one seed and commit
DETERMINISTIC_COUNTS = ("matrixword.border_value.out_terms", "families.nce_matrices.steps")


class Record:
    """One timed instance run: raw seconds (the reference samples taken
    during it deducted), and seconds at the reference speed (``norm``,
    filled in when its round ends)."""
    __slots__ = ("inst", "round", "start", "end", "raw", "norm", "code", "error", "outcome")

    def __init__(self, inst, round_: int, start: float, end: float, raw: float,
                 code: Optional[int], error: Optional[str]):
        self.inst, self.round, self.start, self.end = inst, round_, start, end
        self.raw = self.norm = raw
        self.code, self.error = code, error
        self.outcome = classify(inst.expect, code, error)


def classify(expect: int, code: Optional[int], error: Optional[str]) -> str:
    """ok | raised | wrong (a verdict that differs from the known answer) |
    exit (any other wrong exit code, such as 2 for a valid input)."""
    if error is not None:
        return "raised"
    if code == expect:
        return "ok"
    if expect == 2 or (code in (0, 1) and expect in (0, 1)):
        return "wrong"
    return "exit"


def tail(times: Sequence[float], failed: int) -> Tuple[float, float, int]:
    """(value, percentile, samples) for the highest percentile that has at
    least TAIL_BEYOND instances beyond it; failed instances rank slowest."""
    ranked = sorted(times) + [math.inf] * failed
    n = len(ranked)
    if n <= TAIL_BEYOND:
        return ranked[-1], 100.0, n
    return ranked[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def median_ranked(times: Sequence[float], failed: int) -> float:
    return statistics.median(sorted(times) + [math.inf] * failed)


def instance_times(records, attr: str = "norm") -> Tuple[Dict[str, float], set]:
    """Each instance's median time over the rounds, and the instances that
    failed in some round (those rank slowest)."""
    times: Dict[str, List[float]] = {}
    bad = set()
    for r in records:
        times.setdefault(r.inst.name, []).append(getattr(r, attr))
        if r.outcome != "ok":
            bad.add(r.inst.name)
    return {k: statistics.median(v) for k, v in times.items()}, bad


def import_homlin() -> SimpleNamespace:
    """A fresh import of homlin from src/ (earlier imports are dropped, so
    each set-up pays the import)."""
    for name in [m for m in sys.modules if m == "homlin" or m.startswith("homlin.")]:
        del sys.modules[name]
    H = SimpleNamespace(**{m: importlib.import_module(f"homlin.{m}") for m in LAYER_MODULES})
    if ROOT / "src" not in Path(H.cli.__file__).resolve().parents:
        raise ImportError(f"homlin was imported from {H.cli.__file__}, not from {ROOT / 'src'}")
    return H


def digest(paths: Sequence[str]) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def code_digest() -> str:
    """Digest of homlin's sources and the benchmark's own files."""
    files = list((ROOT / "src").rglob("*.py")) + list(BENCH.glob("*.py")) + [BENCH / "catalogue.json"]
    return digest([str(p.relative_to(ROOT)) for p in files])


class Run:
    def __init__(self, groups, seed: int):
        self.groups = groups
        self.seed = seed
        self.records: List[Record] = []
        self.digests: Dict[str, str] = {}
        self.nondeterministic: List[str] = []
        self.problems: List[str] = []
        self.rounds = 0

    def round(self, tracer=None) -> float:
        """One pass over the whole pool, in a seeded order (set-up order
        first); returns the round's instance time at the reference speed."""
        order = list(range(len(self.groups)))
        if self.rounds:
            random.Random(f"{self.seed}-{self.rounds}").shuffle(order)
        self.rounds += 1
        first = len(self.records)
        # traced rounds take no samples inside instances, so spans hold only homlin's time
        with speed.Sampler(armed=tracer is None) as sampler:
            sampler.edge()
            for gi in order:
                for inst in self.groups[gi]:
                    if tracer is not None:
                        tracer.begin_instance(inst.name)
                    n = len(sampler.samples)
                    t = perf_counter()
                    try:
                        code, error = inst.run(), None
                    except Exception as exc:  # a crash is a failed instance, not a failed run
                        code, error = None, f"{type(exc).__name__}: {str(exc)[:120]}"
                    end = perf_counter()
                    rec = Record(inst, self.rounds, t, end, end - t - sampler.taken_since(n), code, error)
                    self.records.append(rec)
                    if rec.outcome == "ok" and inst.artifacts():
                        self._digest(rec)
                    sampler.edge()
        recs = self.records[first:]
        for rec in recs:
            rec.norm = rec.raw * speed.factor(sampler.samples, rec.start, rec.end)
        return sum(r.norm for r in recs)

    def _digest(self, rec: Record):
        """Compare the digest of an instance's artifacts with its earlier
        rounds'; a success that left no artifacts is a wrong answer."""
        try:
            d = digest(rec.inst.artifacts())
        except OSError as exc:
            rec.outcome = "wrong"
            self.problems.append(f"{rec.inst.name}: {exc}")
            return
        if self.digests.setdefault(rec.inst.name, d) != d:
            self.nondeterministic.append(rec.inst.name)

    def check_outputs(self) -> List[str]:
        """Run each executed instance's oracle once; an instance whose output
        is wrong turns all its runs into wrong verdicts."""
        problems = list(self.problems)
        rng = random.Random(f"oracle-{self.seed}")
        seen = {}
        for rec in self.records:
            if rec.outcome == "ok" and rec.inst.check is not None and rec.inst.name not in seen:
                try:
                    seen[rec.inst.name] = rec.inst.check(rec.inst, rng)
                except (OSError, ValueError, KeyError, SyntaxError) as exc:  # unreadable output is wrong
                    seen[rec.inst.name] = [f"unreadable output: {type(exc).__name__}: {exc}"]
        for name, found in seen.items():
            problems += [f"{name}: {p}" for p in found]
        for rec in self.records:
            if seen.get(rec.inst.name):
                rec.outcome = "wrong"
        return problems

    def output_size(self) -> Tuple[int, List[str]]:
        """Σ output sizes of the pool's correct positives, and the ones whose
        size could not be read."""
        done = {}
        for rec in self.records:
            if rec.outcome == "ok" and rec.inst.expect == 0:
                done.setdefault(rec.inst.name, rec.inst)
        total, problems = 0, []
        for name, inst in done.items():
            try:
                total += inst.size(inst)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"{name}: unreadable output size: {exc}")
        return total, problems

    def run_digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.digests):
            h.update(f"{name} {self.digests[name]}\n".encode())
        return h.hexdigest()


def compare_record(path: Path, fields: Dict[str, object]) -> List[str]:
    """Check ``fields`` against the record an earlier run of the same
    workload, seed and code left, then merge them into it."""
    old = {}
    if path.exists():
        old = json.loads(path.read_text())
        if old.get("code") != fields["code"]:
            old = {}
    diffs = [f"{k}: {old[k]} earlier, {v} now" for k, v in fields.items() if k in old and old[k] != v]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**old, **fields}, indent=1, sort_keys=True))
    return diffs


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def end_to_end(run: Run, setup_raw: List[float], setup_norm: List[float], wall: float,
               rss: float, out_size: int) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The end-to-end metrics of a timed run, and a note on each."""
    med, bad = instance_times(run.records)
    times = [t for k, t in med.items() if k not in bad]
    p50 = median_ranked(times, len(bad))
    tail_v, tail_pct, n_inst = tail(times, len(bad))
    raw_med, _ = instance_times(run.records, "raw")
    raw_times = [t for k, t in raw_med.items() if k not in bad]
    raw_p50, raw_tail = median_ranked(raw_times, len(bad)), tail(raw_times, len(bad))[0]
    n = f"{n_inst} instances x {run.rounds} rounds"
    n_ok = sum(r.outcome == "ok" for r in run.records)
    metrics = {
        "setup_s": statistics.median(setup_norm),
        # an infinite rank means more failed instances than the rule leaves room for
        "verdict_p50_s": p50 if not math.isinf(p50) else wall,
        "verdict_tail_s": tail_v if not math.isinf(tail_v) else wall,
        # the pool's correct instances over its instance time, each at its median
        "instances_per_s": len(times) / sum(med.values()),
        "peak_rss_mib": rss,
        "output_size": out_size,
    }
    notes = {
        "setup_s": f"median of {SETUPS} set-ups; raw " + ", ".join(f"{t:.4f}" for t in setup_raw),
        "verdict_p50_s": f"n={n}; raw {raw_p50:.6g}",
        "verdict_tail_s": f"p{tail_pct:.2f}, {TAIL_BEYOND} instances beyond; n={n}; raw {raw_tail:.6g}",
        "instances_per_s": f"n={n}; raw {n_ok} correct in {wall:.2f} s wall",
        "peak_rss_mib": "ru_maxrss after the timed window",
        "output_size": "sum over the pool of word factors, projection forms or output gates",
    }
    return metrics, notes


def traced_rounds(run: Run, H, seconds: float, workload: str) -> Tuple[Dict[str, float], List[str], str]:
    """Pairs of an untraced and a traced round until ``seconds`` have
    passed; returns the per-layer metrics per traced round, problems found,
    and a summary line.  The spans are written under .bench_work/."""
    tracer = Tracer()
    plain = traced = traced_wall = 0.0
    per_round = set()
    t0 = perf_counter()
    while True:
        plain += run.round()
        before = [tracer.counts.get(k, 0) for k in DETERMINISTIC_COUNTS]
        tracer.install(H)
        t = perf_counter()
        try:
            traced += run.round(tracer)
        finally:
            traced_wall += perf_counter() - t
            tracer.uninstall()
        per_round.add(tuple(tracer.counts.get(k, 0) - b for k, b in zip(DETERMINISTIC_COUNTS, before)))
        if perf_counter() - t0 >= seconds:
            break
    rounds = run.rounds // 2
    problems = []
    if len(per_round) != 1:
        problems.append(f"per-round counts {DETERMINISTIC_COUNTS} differ between traced rounds: {per_round}")
    raw = tracer.layer_metrics()
    metrics: Dict[str, float] = {k: raw.get(k, 0) / rounds for k in LAYER_UNITS}
    value_terms = raw.get("verify.border.border_value_terms", 0)
    metrics["verify.border.kept_term_ratio"] = (
        raw.get("verify.border.eps_limit_terms", 0) / value_terms if value_terms else 0.0)
    layer_self = sum(v for k, v in raw.items() if k.endswith(".self_s"))
    metrics["trace.overhead_ratio"] = traced / plain - 1
    metrics["trace.wall_s"] = traced_wall / rounds
    metrics["trace.layer_self_s"] = layer_self / rounds
    if layer_self > traced_wall:
        problems.append(f"layer self times sum to {layer_self:.4f} s, more than the traced wall {traced_wall:.4f} s")
    folder = os.path.join(".bench_work", f"spans-{workload}")
    tracer.write(folder)
    summary = (f"  {rounds} untraced + {rounds} traced rounds in {perf_counter() - t0:.2f} s; "
               f"{len(tracer.start)} spans ({len(tracer.start) // rounds} per round) written to {folder}/")
    return metrics, problems, summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "homlin").is_dir():
        print(f"no homlin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    work = os.path.join(".bench_work", f"{args.workload}-s{args.seed}")
    setup = workloads.WORKLOADS[args.workload]

    setup_raw, setup_norm = [], []
    for _ in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        with speed.Sampler(armed=True) as sampler:
            sampler.edge()
            t = perf_counter()
            H = import_homlin()
            groups = setup(H, args.seed, work)
            end = perf_counter()
            setup_raw.append(end - t - sampler.taken_since(1))
            sampler.edge()
        setup_norm.append(setup_raw[-1] * speed.factor(sampler.samples, t, end))

    run = Run(groups, args.seed)
    if args.trace:
        metrics, problems, summary = traced_rounds(run, H, args.seconds, args.workload)
        units = LAYER_UNITS
    else:
        t0 = perf_counter()
        while True:
            run.round()
            if perf_counter() - t0 >= args.seconds:
                break
        wall = perf_counter() - t0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems, units = [], E2E_UNITS

    problems += run.check_outputs()
    recs = run.records
    failed = [r for r in recs if r.outcome != "ok"]
    wrong = sum(r.outcome == "wrong" for r in recs)
    out_size, size_problems = run.output_size()
    problems += size_problems
    fields = {"code": code_digest(), "artifacts": run.run_digest(), "output_size": out_size}
    if args.trace:
        fields.update({k: metrics[k] for k in DETERMINISTIC_COUNTS})
    problems += [f"differs from an earlier run of this seed and code: {d}" for d in compare_record(
        Path(".bench_work", "determinism", f"{args.workload}-s{args.seed}.json"), fields)]
    problems += [f"{name}: artifacts differ between rounds" for name in sorted(set(run.nondeterministic))]

    lines = [f"workload {args.workload} seed {args.seed}: pool of {sum(map(len, groups))} instances "
             f"in {len(groups)} groups, {run.rounds} rounds",
             f"  {'failed_ratio':<16} {len(failed) / len(recs):<12.6g} ratio  ({len(failed)} of {len(recs)}: "
             + ", ".join(f"{k}={sum(r.outcome == k for r in recs)}" for k in ("raised", "exit", "wrong")) + ")",
             f"  {'wrong_verdicts':<16} {wrong:<12} count  (n={len(recs)})"]
    if args.trace:
        lines.append(summary)
        lines += [f"  {k:<48} {fmt(v):<14} {units[k]}" for k, v in metrics.items()]
    else:
        metrics, notes = end_to_end(run, setup_raw, setup_norm, wall, rss, out_size)
        lines += [f"  {k:<16} {fmt(v):<12} {units[k]:<6} ({notes[k]})" for k, v in metrics.items()]
    lines.append(f"  artifact digest {fields['artifacts'][:16]} over {len(run.digests)} instances")
    lines += [f"  raised: {e}" for e in sorted({f"{r.inst.name}: {r.error}" for r in recs if r.error})[:8]]
    lines += [f"  PROBLEM: {p}" for p in problems[:20]]
    print("\n".join(lines))

    shutil.rmtree(work, ignore_errors=True)
    correct = wrong == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {k: {"value": (round(v) if units[k] in ("count", "bytes") and float(v).is_integer() else v),
                        "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
