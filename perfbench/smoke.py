"""Smoke run of the benchmark: every workload at a tiny size, in about two
minutes.

    python3 perfbench/smoke.py

It checks that each workload prints a well-formed result line with the
metrics BENCHMARK.json names, in both modes; that failures land in the
ledger; that the trace writer writes spans; that the determinism guard
passes across two processes on one seed and fails on a difference; that
the oracles reject wrong outputs and a mutant with no effect; and that the
benchmark refuses to run without the package.
Exits non-zero on the first check that fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import mutant  # noqa: E402
import run as bench  # noqa: E402
import scale  # noqa: E402
from common import (  # noqa: E402
    OUT_DIR, ROOT, BenchError, NullTracer, import_fcomp,
)

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SECONDS = {"fuzz": 3, "scale": 1, "mutant": 9}
SEED = 5


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS[workload]), "--trace", str(trace),
           "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=300)


def expect(cond, what):
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def check_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload in SECONDS:
        out = run_bench(workload, 0)
        expect(out.returncode == 0, f"{workload}: untraced run exits 0")
        result = json.loads(out.stdout.splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{workload}: result line has the four keys")
        expect(set(result["metrics"]) == e2e,
               f"{workload}: untraced metrics are the end-to-end ones")
        expect(result["correct"] and result["attempted"] >= 1,
               f"{workload}: correct, {result['attempted']} attempted")
        out = run_bench(workload, 1)
        expect(out.returncode == 0, f"{workload}: traced run exits 0")
        result = json.loads(out.stdout.splitlines()[-1])
        expect(set(result["metrics"]) == per_layer,
               f"{workload}: traced metrics are the per-layer ones")
        guard = [ln for ln in out.stdout.splitlines()
                 if ln.startswith("determinism guard")]
        expect(guard and "match a second process" in guard[0]
               and not guard[0].startswith("determinism guard: 0 "),
               f"{workload}: {guard[0]}")
        trace = json.loads(
            (OUT_DIR / f"trace-{workload}-{SEED}.json").read_text())
        expect(trace["spans"], f"{workload}: trace file holds "
               f"{len(trace['spans'])} spans")
        ledger = json.loads(
            (OUT_DIR / f"ledger-{workload}-{SEED}.json").read_text())
        if workload == "scale":
            kinds = {(f["case"], f["exception"]) for f in ledger}
            expect(("sum_chain:2000", "RecursionError") in kinds,
                   "scale: the recursion-limit crash is in the ledger")
        if workload == "mutant":
            expect(any(f["exception"] == "OutOfBounds" for f in ledger),
                   "mutant: OutOfBounds escaping harness.fuzz is in the "
                   "ledger")


def check_oracles():
    fcomp = import_fcomp()
    inp = scale.prepare(fcomp, SEED, [("rec_depth", 5)])[0]
    wrong = scale.Input(inp.family, inp.n, inp.text, inp.expected + 1)
    try:
        scale.run_input(fcomp, wrong, NullTracer(), {})
    except scale.WrongOutput as e:
        expect(e.phase == "verify", f"scale oracle rejects a wrong value: {e}")
    else:
        expect(False, "scale oracle rejects a wrong value")
    def term(text):
        return fcomp.pipeline.parse_stage_artifact(
            fcomp.pipeline.Stage.SOURCE, text).payload

    problem = mutant.check_witness(fcomp, "plus_dup", "cg-eval",
                                   term("(nat 1)"))
    expect(problem is not None,
           f"mutant oracle rejects a witness that does not fail: {problem}")
    problem = mutant.check_witness(fcomp, "plus_dup", "cg-eval",
                                   term("(plus (nat 1) (nat 2))"))
    expect(problem is None, "mutant oracle accepts a real witness")
    saved = dict(mutant.MUTANTS)
    try:
        mutant.MUTANTS["plus_dup"] = ("no_such_name", lambda orig, cg: orig)
        try:
            mutant.Injected(fcomp, "plus_dup")
        except BenchError as e:
            expect(True, f"a stale injection point is an error: {e}")
        else:
            expect(False, "a stale injection point is an error")
        mutant.MUTANTS.clear()
        mutant.MUTANTS["plus_dup"] = ("GPlus", lambda orig, cg: orig)
        r = bench.run_mutant(fcomp, SEED, NullTracer(), seconds=2)
        expect(r.stale == ["plus_dup"],
               f"a mutant with no effect is stale ({r.lines[0]})")
    finally:
        mutant.MUTANTS.clear()
        mutant.MUTANTS.update(saved)
    try:
        bench.compare_counts({"1:0": [["cps", None, {"nodes_out": 5}]]},
                             {"1:0": [["cps", None, {"nodes_out": 6}]]})
    except BenchError as e:
        expect(True, f"the determinism guard fails on a difference: "
               f"{str(e).splitlines()[0]}")
    else:
        expect(False, "the determinism guard fails on a difference")


def check_refuses_without_package():
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "fuzz",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=bare,
                         timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(out.returncode != 0 and not out.stdout.strip(),
           f"without src/ it exits {out.returncode} and prints no result")


if __name__ == "__main__":
    check_oracles()
    check_refuses_without_package()
    check_runs()
    print("smoke: all checks passed")
