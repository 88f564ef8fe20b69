"""The fcomp command-line tool.

Exit codes: 0 success, 1 user error (bad usage or input, type error, stuck
program, input nested too deeply), 2 verification counterexample found by
fuzzing.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import pipeline, source_lang, surface
from .errors import FcompError
from .harness import GenConfig, check_preservation, format_report, fuzz
from .pipeline import Stage
from .source_lang import Outcome


def _parse_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return surface.parse_source(fh.read())


def cmd_check(args):
    term = _parse_file(args.file)
    ty = source_lang.typecheck_src([], term)
    print(ty)
    return 0


def cmd_compile(args):
    term = _parse_file(args.file)
    stage = Stage(args.stop_after)
    artifact = pipeline.compile_stages(term, stage)[stage]
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
    term = _parse_file(args.file)
    stage = Stage(args.stage)
    artifact = pipeline.compile_stages(term, stage)[stage]
    outcome, heap = pipeline.run(artifact, args.fuel)
    if outcome.kind is Outcome.VALUE:
        print(f"Value {pipeline.STAGES[stage].show(outcome.value)} "
              f"(steps: {outcome.steps})")
        if heap is not None:
            print(f"heap cells: {heap}")
        return 0
    print(outcome.kind.value)
    return 1


def cmd_trace(args):
    term = _parse_file(args.file)
    stage = Stage(args.stage)
    ops = pipeline.STAGES[stage]
    state = ops.start(pipeline.compile_stages(term, stage)[stage].payload)
    i = 0
    while True:
        print(f"{i}: {ops.show_state(state)}")
        nxt = ops.step(state)
        if nxt is None:
            break
        if i >= args.max_steps:
            print("...")
            return 0
        state = nxt
        i += 1
    if source_lang.is_value(state[1]):
        return 0
    print(Outcome.STUCK.value)
    return 1


def cmd_fuzz(args):
    seed = os.environ.get("FCOMP_SEED", args.seed)
    try:
        seed = int(seed)
    except ValueError:
        raise FcompError("FCOMP_SEED must be an integer") from None
    cfg = GenConfig(seed=seed, max_size=args.max_size, fuel=args.fuel)
    report = fuzz(cfg, args.count, check_preservation)
    print(format_report(report, cfg))
    return 0 if report.ok else 2


# The least value of each numeric option.
_LEAST = {"fuel": 0, "count": 0, "max_steps": 0, "max_size": 1}


# The stages in pipeline order; a compile stops after any but the source.
_STAGE_NAMES = [stage.value for stage in pipeline.STAGE_ORDER]


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
    p.add_argument("--stop-after", default="cg", choices=_STAGE_NAMES[1:])
    p.add_argument("--emit", default="sexp", choices=["sexp", "pretty"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="compile to a stage and evaluate")
    p.add_argument("file")
    p.add_argument("--stage", default="source", choices=_STAGE_NAMES)
    p.add_argument("--fuel", type=int, default=100_000)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("trace", help="print a small-step trace")
    p.add_argument("file")
    p.add_argument("--stage", default="source", choices=_STAGE_NAMES)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad usage, which is a user error here.
        sys.exit(1 if e.code else 0)
    try:
        for name, least in _LEAST.items():
            if getattr(args, name, least) < least:
                flag = "--" + name.replace("_", "-")
                raise FcompError(f"{flag} must be at least {least}")
        code = args.func(args)
    except (FcompError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        code = 1
    except RecursionError:
        print("error: input nests too deeply for the recursion limit", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
