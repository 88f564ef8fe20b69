"""Digest of what the pipeline does on generated programs: per seed, a
sha256 over each program's dumps at all five stages, and at every stage
its outcome kind, steps, heap cells and value, plus the first 40 states of
each stage's machine.  Run from the root of a checkout as:

    PYTHONPATH=src python3 tools/agreement_digest.py [--expect BENCH_FILE] SEED...

It prints one line per seed: the seed and its digest.  With ``--expect``
it also compares each digest with the one BENCH_FILE records for the seed
(its ``agreement`` block's ``change`` digests), and exits 1 if any differs
or is not recorded."""
import argparse
import hashlib
import json
import sys

from fcomp.errors import FcompError
from fcomp.harness import GenConfig, ProgramGen
from fcomp.source_lang import is_value
from fcomp.pipeline import STAGE_ORDER, STAGES, Stage, compile_stages, emit_sexp, run
from fcomp.sexpr import render
from fcomp.term import to_sexpr

PER_SEED = 300


def record(t):
    try:
        stages = compile_stages(t)
    except FcompError as e:
        return ["compile", repr(e)]
    out = []
    for stage in STAGE_ORDER:
        art = stages[stage]
        out.append(emit_sexp(art))
        fuel = 10_000 if stage is Stage.SOURCE else 100_000
        try:
            o, cells = run(art, fuel)
            out.append([o.kind.value, o.steps, cells, render(to_sexpr(o.value))])
        except FcompError as e:
            out.append(repr(e))
        ops, state = STAGES[stage], STAGES[stage].start(art.payload)
        for _ in range(40):
            out.append(ops.show_state(state))
            if state is None or getattr(ops, "is_value", is_value)(state[1]):
                break
            state = ops.step(state)
            if state is None:
                break
    return out


def digest(seed):
    gen = ProgramGen(GenConfig(seed=seed))
    h = hashlib.sha256()
    for _ in range(PER_SEED):
        h.update(json.dumps(record(gen.gen())).encode())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    parser.add_argument("--expect", metavar="BENCH_FILE")
    args = parser.parse_args()
    expected = None
    if args.expect:
        with open(args.expect) as f:
            expected = json.load(f)["agreement"]["change"]
    mismatches = []
    for seed in args.seeds:
        got = digest(seed)
        print(seed, got, flush=True)
        if expected is not None and expected.get(str(seed)) != got:
            mismatches.append(seed)
    if mismatches:
        print(f"digests differ from {args.expect} on seeds "
              f"{' '.join(map(str, mismatches))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
