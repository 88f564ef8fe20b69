"""The fcomp command-line tool.

Exit codes: 0 success, 1 user error (bad input, type error, stuck program),
2 verification counterexample found by fuzzing.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cc_lang, cg_lang, pipeline, source_lang, surface
from .errors import FcompError
from .harness import GenConfig, check_preservation, format_report, fuzz
from .pipeline import Stage
from .sexpr import render
from .source_lang import Outcome
from .term import program_body, to_sexpr


def _read_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_stage(name):
    try:
        return Stage(name)
    except ValueError:
        raise FcompError(f"unknown stage: {name}")


def cmd_check(args):
    term = surface.parse_source(_read_file(args.file))
    ty = source_lang.typecheck_src([], term)
    print(ty)
    return 0


def cmd_compile(args):
    term = surface.parse_source(_read_file(args.file))
    stage = _parse_stage(args.stop_after)
    artifact = pipeline.compile(term, stage)
    if args.emit == "pretty":
        text = pipeline.emit_pretty(artifact)
    else:
        text = pipeline.emit_sexp(artifact)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_run(args):
    term = surface.parse_source(_read_file(args.file))
    stage = _parse_stage(args.stage)
    artifact = pipeline.compile(term, stage)
    outcome, heap = pipeline.run(artifact, args.fuel)
    if outcome.kind is Outcome.VALUE:
        print(f"Value {_show_value(artifact.stage, outcome.value)} "
              f"(steps: {outcome.steps})")
        if heap is not None:
            print(f"heap cells: {heap}")
        return 0
    print(outcome.kind.value)
    return 1


def _show_value(stage, v):
    if stage in (Stage.SOURCE, Stage.CPS):
        return surface.print_source(v)
    return render(to_sexpr(v))


def cmd_trace(args):
    term = surface.parse_source(_read_file(args.file))
    stage = _parse_stage(args.stage)
    artifact = pipeline.compile(term, stage)
    payload = artifact.payload
    if stage in (Stage.SOURCE, Stage.CPS):
        stepper = _src_stepper(payload)
    elif stage is Stage.CC:
        stepper = _cc_stepper(payload)
    elif stage is Stage.HOIST:
        stepper = _cc_stepper(program_body(payload))
    else:
        stepper = _cg_stepper(payload)
    for i, line in enumerate(stepper):
        print(f"{i}: {line}")
        if i >= args.max_steps:
            print("...")
            break
    return 0


def _src_stepper(t):
    while t is not None:
        yield surface.print_source(t)
        t = source_lang.step_src(t)


def _cc_stepper(t):
    while t is not None:
        yield render(to_sexpr(t))
        t = cc_lang.step_cc(t)


def _cg_stepper(p):
    body = program_body(p)
    mem = cg_lang.MemState()
    while True:
        yield f"[next_free={mem.next_free}] " + render(to_sexpr(body))
        r = cg_lang.step_cg(mem, body)
        if r is None:
            return
        mem, body = r


def cmd_fuzz(args):
    seed = args.seed
    env_seed = os.environ.get("FCOMP_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    cfg = GenConfig(
        seed=seed, max_size=args.max_size, fuel=args.fuel
    )
    report = fuzz(cfg, args.count, check_preservation)
    print(format_report(report, cfg))
    return 0 if report.ok else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fcomp",
        description="A small compiler from a PCF-like language to a "
        "heap-explicit first-order target, with differential verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and typecheck a source file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compile", help="compile and dump a stage artifact")
    p.add_argument("file")
    p.add_argument(
        "--stop-after",
        default="cg",
        choices=["cps", "cc", "hoist", "cg"],
    )
    p.add_argument("--emit", default="sexp", choices=["sexp", "pretty"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="compile to a stage and evaluate")
    p.add_argument("file")
    p.add_argument(
        "--stage",
        default="source",
        choices=["source", "cps", "cc", "hoist", "cg"],
    )
    p.add_argument("--fuel", type=int, default=100_000)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("trace", help="print a small-step trace")
    p.add_argument("file")
    p.add_argument(
        "--stage",
        default="source",
        choices=["source", "cps", "cc", "hoist", "cg"],
    )
    p.add_argument("--max-steps", type=int, default=100)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("fuzz", help="differential verification fuzzing")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-size", type=int, default=40)
    p.add_argument("--fuel", type=int, default=10_000)
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except FcompError as e:
        print(f"error: {e}", file=sys.stderr)
        code = 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
