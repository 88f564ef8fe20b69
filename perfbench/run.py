"""fcomp benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload fuzz|scale|mutant --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is the
separate traced run: it does the same work twice, untraced and then with
spans, and reports the per-layer metrics and the tracing overhead; a
second process then repeats the traced work, and the determinism guard
compares the two processes' counts.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when an output was wrong and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import fuzz  # noqa: E402
import layers  # noqa: E402
import mutant  # noqa: E402
import scale  # noqa: E402
from common import (  # noqa: E402
    OUT_DIR, BenchError, Ledger, NullTracer, OverLimit, Tracer, count_nodes,
    import_fcomp, median, peak_rss_mb, percentile, write_json,
)

WORKLOADS = ("fuzz", "scale", "mutant")
STARTED = time.perf_counter()
DEADLINE_S = 170.0  # a run ends within 180 s
# The fuzz loop starts no case after this and cuts a case still running
# then, which leaves time for the set-up probes after it.
LOOP_END_S = 150.0
# Set-up probes: half before the workload and half after it, so that the
# median sees the machine at two times.
SETUP_PROBES = 10

# The end-to-end metrics printed in the result line.  The others are
# report lines: they apply to one workload only, or, on a machine shared
# with other tenants, swing from run to run by more than the largest
# bound (0.25); README.md gives the measured spreads.
RESULT_END_TO_END = ("setup_s", "peak_rss_mb")

# The per-layer metrics printed in the result line of a traced run.  Every
# time among them is spent on all three workloads; the metrics of layers
# only some workloads reach are counts here, and their times are in the
# report lines and the trace file.
RESULT_LAYERS = [
    "harness.check.self_ms",
    "harness.shrink.probes",
    "surface.parse_source.nodes",
    "source_lang.typecheck_src.ms.source",
    "source_lang.typecheck_src.ms.cps",
    "cps.ms", "cc_pass.ms", "hoist_pass.ms", "cg_pass.ms",
    "cps.nodes_out", "cc_pass.nodes_out", "hoist_pass.nodes_out",
    "cg_pass.nodes_out",
    "hoist_pass.functions", "hoist_pass.dep_width_max",
    "cc_lang.typecheck_cc.ms", "cc_lang.typecheck_hoisted.ms",
    "source_lang.eval_src.ms.source", "source_lang.eval_src.steps.source",
    "source_lang.eval_src.us_per_step.source",
    "source_lang.eval_src.ms.cps", "source_lang.eval_src.steps.cps",
    "source_lang.eval_src.us_per_step.cps",
    "cc_lang.eval_cc.ms", "cc_lang.eval_cc.steps", "cc_lang.eval_cc.us_per_step",
    "cc_lang.eval_hoisted.ms", "cc_lang.eval_hoisted.steps",
    "cc_lang.eval_hoisted.us_per_step", "cc_lang.eval_hoisted.self_ms",
    "cg_lang.eval_cg_program.ms", "cg_lang.eval_cg_program.steps",
    "cg_lang.eval_cg_program.us_per_step", "cg_lang.heap_cells",
    "sexpr.dump.bytes",
    "trace.eval_self_share", "trace.overhead_s",
]


# ---------------------------------------------------------------------------
# Set-up


def prepare(fcomp, workload, seed):
    """Build the workload's inputs from the seed."""
    if workload == "fuzz":
        return fuzz.prepare(fcomp, seed)
    if workload == "scale":
        return scale.prepare(fcomp, seed)
    return [mutant.Injected(fcomp, m) for m in mutant.MUTANTS]


def setup_probe(workload, seed, spawned_at):
    """In a fresh process: import the package and build the inputs; print
    the seconds since the parent spawned this process."""
    fcomp = import_fcomp()
    prepare(fcomp, workload, seed)
    print(repr(time.perf_counter() - spawned_at))


def measure_setup(workload, seed, probes):
    """Set-up times of fresh processes, started one at a time."""
    samples = []
    for _ in range(probes):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", workload, "--seed", str(seed),
               "--spawned-at", repr(time.perf_counter())]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{out.stderr}")
        samples.append(float(out.stdout.split()[-1]))
    return samples


# ---------------------------------------------------------------------------
# Workloads.  Each runs for ``seconds`` or for the amount of work ``count``
# gives (the ``count`` of an earlier run repeats its work exactly), with
# the tracer installed around the timed loop only.  On ``fuzz`` and
# ``mutant``, ``seconds`` too stands for a fixed amount of work: a number
# of programs per second (fuzz.PROGRAMS_PER_S, mutant.PROGRAMS_PER_S).


@dataclasses.dataclass
class Run:
    ledger: Ledger
    metrics: dict   # name -> (value, unit)
    lines: list     # report lines
    count: object   # the work done: cases, passes, or cases per mutant
    wall: float     # seconds of the timed loop
    cut: set        # cases stopped at their time limit
    stale: list = dataclasses.field(default_factory=list)  # mutants


def verdict_metrics(verdicts, wall_s, rounds=1):
    """Verdict metrics from {case: seconds}: the time of each check that
    ended in a verdict or a crash, not at a limit (on scale, an input's
    fastest pass).  ``verdicts_per_s`` counts every check of every round."""
    ms = [v * 1e3 for v in verdicts.values()]
    count = len(ms) * rounds
    out = {
        "verdicts_per_s": (count / wall_s if wall_s else 0.0, "1/s"),
        "verdict_p50_ms": (median(ms), "ms"),
    }
    lines = [f"verdict samples: {len(ms)} inputs"]
    if rounds > 1:
        lines[0] += f", the fastest of {rounds} passes each"
    p99 = percentile(ms, 99)
    if p99 is None:
        lines.append("verdict_p99_ms: fewer than ten samples beyond p99")
    else:
        lines.append(f"verdict_p99_ms {p99:.4f} ms")
    return out, lines


def cut_cases(cases):
    return {c.id for c in cases if c.error and c.error[1] == "OverLimit"}


def run_fuzz(fcomp, seed, tracer, seconds=None, count=None, smoke=False,
             limit_s=fuzz.VERDICT_LIMIT_S):
    """The first ``count`` programs of the seed, or ``fuzz.programs(seconds)``
    of them."""
    if count is None:
        count = fuzz.programs(seconds)
    cfg = fuzz.prepare(fcomp, seed)
    ledger = Ledger("fuzz")
    with tracer.installed():
        cases, wall = fuzz.run(fcomp, cfg, tracer, limit_s, f"{seed}:",
                               count, STARTED + LOOP_END_S)
    fuzz.record(ledger, cases)
    metrics, lines = verdict_metrics(
        {c.id: c.check_s for c in cases if c.check_s is not None}, wall)
    lines.append(f"programs: {len(cases)} checked of {count}, each within "
                 f"{limit_s:g} s")
    return Run(ledger, metrics, lines, len(cases), wall, cut_cases(cases))


def run_scale(fcomp, seed, tracer, seconds=None, count=None, smoke=False):
    inputs = scale.prepare(fcomp, seed,
                           scale.SMOKE_LADDER if smoke else scale.LADDER)
    ledger = Ledger("scale")
    t0 = time.perf_counter()
    with tracer.installed():
        passes = scale.run(fcomp, inputs, tracer, ledger, seconds=seconds,
                           passes=count)
    wall = time.perf_counter() - t0
    best = {}
    for p in passes:
        for case, s in p["verdicts"].items():
            best[case] = min(s, best.get(case, s))
    metrics, lines = verdict_metrics(best, wall, rounds=len(passes))
    lines.append(f"ladder passes: {len(passes)} (phase times are medians "
                 f"over passes)")
    for ph in scale.PHASES:
        value = median([p["phases"].get(ph, 0.0) for p in passes])
        metrics[f"{ph}_s"] = (value, "s")
        lines.append(f"{ph}_s {value:.4f} s")
    return Run(ledger, metrics, lines, len(passes), wall, set())


def run_mutant(fcomp, seed, tracer, seconds=None, count=None, smoke=False):
    """Each mutant in turn fuzzes the first ``count[mutant]`` programs of
    the seed, or ``fuzz.programs`` of them at its rate, each mutant
    done by its share of LOOP_END_S.  After the loops, and outside them,
    every witness goes through the oracle.  ``stale`` names the mutants
    that showed no effect on all their programs."""
    cfg = fcomp.harness.GenConfig(seed, 40, fuel=mutant.FUEL)
    ledger = Ledger("mutant")
    if count is None:
        count = {m: fuzz.programs(seconds, mutant.PROGRAMS_PER_S[m])
                 for m in mutant.MUTANTS}
    found, wall, verdicts, cex_s, sizes, lines = {}, 0.0, {}, [], [], []
    cut, stale = set(), []
    for i, name in enumerate(mutant.MUTANTS, 1):
        until = STARTED + LOOP_END_S * i / len(mutant.MUTANTS)
        with mutant.Injected(fcomp, name), tracer.installed():
            cases, w = fuzz.run(fcomp, cfg, tracer, mutant.CASE_LIMIT_S,
                                f"{name}:{seed}:", count[name], until)
        wall += w
        found[name] = len(cases)
        cut |= cut_cases(cases)
        verdicts.update({c.id: c.check_s for c in cases
                         if c.check_s is not None})
        live, n_cex = mutant_ledger(fcomp, name, cases, ledger, cex_s, sizes)
        n_failed = sum(1 for f in ledger.failures
                       if f["case"].startswith(f"{name}:"))
        lines.append(f"mutant {name}: {len(cases)} cases of {count[name]} "
                     f"in {w:.2f} s, {n_cex} with witnesses the oracle "
                     f"accepts, {n_failed} failed; shown by "
                     f"{live or 'nothing'}")
        if not live and len(cases) == count[name]:
            stale.append(name)
    metrics, vlines = verdict_metrics(verdicts, wall)
    lines += vlines
    if cex_s:
        metrics["cex_p50_ms"] = (median(cex_s) * 1e3, "ms")
        metrics["witness_nodes_mean"] = (statistics.mean(sizes), "nodes")
        lines.append(f"cex_p50_ms {median(cex_s) * 1e3:.4f} ms "
                     f"({len(cex_s)} counterexamples)")
        lines.append(f"witness_nodes_mean {statistics.mean(sizes):.4f} "
                     f"nodes ({len(sizes)} witnesses)")
    return Run(ledger, metrics, lines, found, wall, cut, stale)


def mutant_ledger(fcomp, name, cases, ledger, cex_s, sizes):
    """One ledger entry per case of one mutant.  A case fails when a
    witness is rejected by the oracle (a wrong output), when a check of
    the oracle runs too long, or when the case crashed or stalled.  Adds
    the case times and witness sizes of the cases that passed to ``cex_s``
    and ``sizes``.  Returns what showed the mutant's effect (None if
    nothing did) and the number of cases with accepted witnesses."""
    live, n_cex = None, 0
    for c in cases:
        entry = None  # (stage, exception class, detail, wrong)
        for f in c.failures:
            try:
                problem = mutant.check_witness(fcomp, name, f.stage, f.shrunk)
            except OverLimit:
                entry = ("oracle", "OverLimit", "witness check over "
                         f"{mutant.ORACLE_LIMIT_S:g} s", False)
                break
            if problem:
                entry = ("shrink", "BadWitness", problem, True)
                break
        else:
            if c.failures:
                n_cex += 1
                live = live or "a witness the oracle accepts"
        if entry is None and c.error is not None:
            entry = (*c.error, False)
        if entry is not None:
            ledger.fail(c.id, *entry[:3], wrong=entry[3])
            continue
        ledger.ok()
        if c.failures:
            cex_s.append(c.case_s)
            sizes += [count_nodes(f.shrunk) for f in c.failures]
    if live is None:
        # A crash or stall on a program that passes without the mutant.
        for c in [c for c in cases if c.error is not None][:10]:
            if mutant.caused_by_mutant(fcomp, c):
                live = f"a {c.error[1]} it caused"
                break
    return live, n_cex


RUNNERS = {"fuzz": run_fuzz, "scale": run_scale, "mutant": run_mutant}


def traced_runner(workload):
    """The runner of a traced run, which does its work three times: on
    ``fuzz`` it holds each case to the shorter traced limit."""
    if workload == "fuzz":
        return functools.partial(run_fuzz, limit_s=fuzz.TRACED_LIMIT_S)
    return RUNNERS[workload]


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics, trace file, determinism guard


def traced_run(fcomp, workload, seed, seconds, smoke):
    """Untraced, then the same work traced.  Returns the traced run, its
    rows, and the untraced run's wall time."""
    runner = traced_runner(workload)
    if workload == "scale":
        untraced = runner(fcomp, seed, NullTracer(), count=1, smoke=smoke)
    else:
        untraced = runner(fcomp, seed, NullTracer(), seconds=seconds / 3)
    tracer = Tracer()
    traced = runner(fcomp, seed, tracer, count=untraced.count, smoke=smoke)
    return traced, tracer.export(), untraced.wall


def guard_counts(rows, cut):
    """The determinism counts of every case not cut at its time limit (a
    cut case stops at a point that depends on timing)."""
    return {case: c for case, c in layers.case_counts(rows).items()
            if case not in cut}


def guard_child(workload, seed, count, smoke, out_path):
    """In the second process: repeat the traced work; write its counts."""
    fcomp = import_fcomp()
    tracer = Tracer()
    r = traced_runner(workload)(fcomp, seed, tracer, count=count,
                                smoke=smoke)
    write_json(Path(out_path), guard_counts(tracer.export(), r.cut))


def determinism_guard(workload, seed, count, smoke, counts):
    """Run the same traced work in a second process and compare its counts
    with ``counts``, case by case; raise on any difference."""
    out_path = OUT_DIR / f"guard-{workload}-{seed}-{os.getpid()}.json"
    cmd = [sys.executable, os.path.abspath(__file__), "--guard-child",
           str(out_path), "--guard-count", json.dumps(count),
           "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    try:
        left = DEADLINE_S - (time.perf_counter() - STARTED)
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=max(left, 1.0))
        if out.returncode != 0:
            raise BenchError(f"determinism guard: second process exited "
                             f"{out.returncode}:\n{out.stderr[-2000:]}")
        other = json.loads(out_path.read_text())
    except subprocess.TimeoutExpired as e:
        raise BenchError("determinism guard: second process timed out") from e
    finally:
        out_path.unlink(missing_ok=True)
    return compare_counts(counts, other)


def compare_counts(counts, other):
    common = sorted(set(counts) & set(other))
    for case in common:
        if counts[case] != other[case]:
            raise BenchError(
                f"determinism guard: case {case} counts differ between two "
                f"processes on one seed:\n  first  {counts[case]}\n  second "
                f"{other[case]}")
    return (f"determinism guard: {len(common)} cases match a second "
            f"process")


def traced_report(workload, seed, rows, untraced_wall, traced_wall, guard):
    metrics = layers.summarize(rows, traced_wall)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    lines = [f"traced wall {traced_wall:.4f} s, untraced wall "
             f"{untraced_wall:.4f} s on the same cases: tracing overhead "
             f"{traced_wall - untraced_wall:.4f} s"]
    lines.append("per-layer metrics:")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name} {value:.6g} {unit}")
    lines.append("self time by span (ms):")
    for (name, stage), ms in layers.self_time_table(rows)[:25]:
        lines.append(f"  {name}{'.' + stage if stage else ''} {ms:.3f}")
    families = {}
    if workload == "scale":
        for family in scale.FAMILIES:
            fam_rows = [r for r in rows
                        if r["case"] and r["case"].split(":")[0] == family]
            families[family] = layers.summarize(fam_rows, traced_wall)
            lines.append(f"family {family}:")
            for name, (value, unit) in families[family].items():
                if value:
                    lines.append(f"  {name} {value:.6g} {unit}")
    lines.append(guard)
    path = OUT_DIR / f"trace-{workload}-{seed}.json"
    write_json(path, {"workload": workload, "seed": seed, "spans": rows,
                      "metrics": metrics, "families": families})
    lines.append(f"spans written to {path}")
    return metrics, lines


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="scale on a tiny ladder (for perfbench/smoke.py)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--guard-child", help=argparse.SUPPRESS)
    ap.add_argument("--guard-count", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.spawned_at)
            return 0
        if args.guard_child:
            guard_child(args.workload, args.seed, json.loads(args.guard_count),
                        args.smoke, args.guard_child)
            return 0
        return run(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2


def run(args):
    fcomp = import_fcomp()
    mode = "traced" if args.trace else "untraced"
    print(f"fcomp benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, {mode}")
    if args.trace:
        r, rows, untraced_wall = traced_run(fcomp, args.workload, args.seed,
                                            args.seconds, args.smoke)
        guard = determinism_guard(args.workload, args.seed, r.count,
                                  args.smoke, guard_counts(rows, r.cut))
        metrics, lines = traced_report(args.workload, args.seed, rows,
                                       untraced_wall, r.wall, guard)
        lines = r.lines + lines
        result = {k: metrics[k] for k in RESULT_LAYERS}
    else:
        setup = measure_setup(args.workload, args.seed, SETUP_PROBES // 2)
        r = RUNNERS[args.workload](fcomp, args.seed, NullTracer(),
                                   seconds=args.seconds, smoke=args.smoke)
        if r.stale:
            raise BenchError(
                f"mutant {', '.join(r.stale)} yielded no counterexample and "
                f"no failure it caused: the injection point went stale")
        metrics, lines = r.metrics, r.lines
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        setup += measure_setup(args.workload, args.seed,
                               SETUP_PROBES - len(setup))
        metrics["setup_s"] = (median(setup), "s")
        metrics["failed_share"] = (r.ledger.share(), "ratio")
        lines.append(f"setup_s samples: "
                     f"{', '.join(f'{x:.4f}' for x in setup)}")
        for name in ("setup_s", "peak_rss_mb", "verdict_p50_ms",
                     "verdicts_per_s", "failed_share"):
            value, unit = metrics[name]
            print(f"{name} {value:.6g} {unit}")
        result = {k: metrics[k] for k in RESULT_END_TO_END}
    ledger = r.ledger
    for line in lines:
        print(line)
    print(f"ledger: {ledger.attempted} attempted, {ledger.failed} failed")
    for f in ledger.failures[:20]:
        print(f"  FAIL {f['case']} [{f['stage']}] {f['exception']}"
              f"{' WRONG OUTPUT' if f['wrong'] else ''}: {f['detail'][:120]}")
    write_json(OUT_DIR / f"ledger-{args.workload}-{args.seed}.json",
               ledger.failures)
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
