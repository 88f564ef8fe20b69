"""The ``scale`` workload: hand-built program families at a ladder of sizes.

The ROADMAP asks that fcomp "stay fast as programs get bigger".  Each
family stresses one layer and has a closed-form answer, so every stage's
result is checked against arithmetic, not against the compiler:

- ``sum_chain`` n: ``(c+1)+1+...+1`` (n terms).  Deep terms: cps output,
  s-expression dumps and the recursion of every pass grow with n.
- ``let_chain`` n: ``let x0 = c+1 in let x1 = x0+1 in ... x{n-1}``.  Long
  binder chains: passes, substitution and the let-stack evaluators.
- ``rec_depth`` n: ``let f = fix f (x:nat):nat. ifz x then c else
  x + f (pred x) in f n``.  Deep recursion at run time: the cc, hoist and
  cg evaluators.
- ``nested_closures`` n: level i is ``(let xi = i+c in let fi = fun
  (yi:nat). yi + xi + <level i+1> in fi i)``, level n+1 is ``0``.  Closure
  environments: closure conversion, hoisting and ``typecheck_hoisted``.
- ``divergent_sum`` k: ``(fix f (x:nat):nat. c + f c) c`` run with fuel k.
  It runs out of fuel at every stage after exactly k steps: the source
  evaluator's cost per step.

The seed picks the constant ``c`` of every input and the order of the
ladder; it never changes a size.  Each input goes through three timed
phases, as a user would run them:

- ``check`` (``fcomp check``): ``parse_source`` and ``typecheck_src``;
- ``compile`` (``fcomp compile``): ``compile_stages``;
- ``dump``: ``emit_sexp`` and ``parse_stage_artifact`` at every stage;
- ``verify``: ``check_preservation``, then ``pipeline.run`` at every stage
  against the closed-form value.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass

from common import log_counterexamples

# (family, n).  Sizes are chosen so that no family takes most of the time,
# and so that some points sit where today's code is clearly superlinear
# (sum_chain dumps, rec_depth evaluation, nested_closures typechecking,
# divergent_sum source evaluation) or fails (sum_chain 2000 overflows the
# recursion limit inside compile_stages).
LADDER = [
    ("sum_chain", 40), ("sum_chain", 80), ("sum_chain", 120),
    ("sum_chain", 2000),
    ("let_chain", 40), ("let_chain", 80), ("let_chain", 120),
    ("rec_depth", 20), ("rec_depth", 40), ("rec_depth", 60),
    ("nested_closures", 4), ("nested_closures", 6), ("nested_closures", 8),
    ("divergent_sum", 200), ("divergent_sum", 400), ("divergent_sum", 800),
]

# A pass of this ladder takes a second or two; the smoke run uses it.
SMOKE_LADDER = [
    ("sum_chain", 10), ("sum_chain", 2000), ("let_chain", 10),
    ("rec_depth", 5), ("nested_closures", 2), ("divergent_sum", 50),
]

# The fuel check_preservation gets from fcomp fuzz, and the fuel it derives
# for the stages after source (max(40 * fuel, 100_000)).
SOURCE_FUEL = 10_000
TARGET_FUEL = max(40 * SOURCE_FUEL, 100_000)

PHASES = ("check", "compile", "dump", "verify")


def sum_chain(n, c):
    return " + ".join([str(c + 1)] + ["1"] * (n - 1)), n + c


def let_chain(n, c):
    parts = [f"let x0 = {c + 1} in"]
    parts += [f"let x{i} = x{i - 1} + 1 in" for i in range(1, n)]
    return " ".join(parts) + f" x{n - 1}", n + c


def rec_depth(n, c):
    text = (f"let f = fix f (x:nat):nat. ifz x then {c} "
            f"else x + f (pred x) in f {n}")
    return text, n * (n + 1) // 2 + c


def nested_closures(n, c):
    text = "0"
    for i in range(n, 0, -1):
        text = (f"(let x{i} = {i + c} in let f{i} = fun (y{i}:nat). "
                f"y{i} + x{i} + {text} in f{i} {i})")
    return text, n * (n + 1) + n * c


def divergent_sum(k, c):
    return f"(fix f (x:nat):nat. {c} + f {c}) {c}", None


FAMILIES = {
    "sum_chain": sum_chain,
    "let_chain": let_chain,
    "rec_depth": rec_depth,
    "nested_closures": nested_closures,
    "divergent_sum": divergent_sum,
}


@dataclass(frozen=True)
class Input:
    family: str
    n: int
    text: str
    expected: int  # None: runs out of fuel after exactly n steps

    @property
    def case(self):
        return f"{self.family}:{self.n}"

    @property
    def fuel(self):
        """The source fuel of the input's check_preservation."""
        return SOURCE_FUEL if self.expected is not None else self.n


def prepare(fcomp, seed, ladder=LADDER):
    rng = random.Random(seed)
    inputs = []
    for family, n in ladder:
        text, expected = FAMILIES[family](n, rng.randint(1, 9))
        inputs.append(Input(family, n, text, expected))
    rng.shuffle(inputs)
    return inputs


class WrongOutput(Exception):
    def __init__(self, phase, message):
        super().__init__(message)
        self.phase = phase


@contextmanager
def _phase(times, name):
    """Time one phase into ``times``, also when it fails, and tag the
    exception with the phase it escaped from."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as e:
        if not hasattr(e, "phase"):
            e.phase = name
        raise
    finally:
        times[name] = times.get(name, 0.0) + time.perf_counter() - t0


def run_input(fcomp, inp, tracer, times):
    """The four phases on one input, each phase's seconds added to
    ``times`` (``verdict`` is the check_preservation part of ``verify``).
    Raises on the first failure, tagged with its phase; returns the
    counterexamples check_preservation reported."""
    pipeline, source_lang = fcomp.pipeline, fcomp.source_lang

    with _phase(times, "check"):
        term = tracer.call("surface.parse_source", fcomp.surface.parse_source,
                           inp.text)
        ty = tracer.call("source_lang.typecheck_src",
                         source_lang.typecheck_src, [], term, stage="source")
    if ty != source_lang.NAT:
        raise WrongOutput("check", f"type {ty}, expected nat")

    with _phase(times, "compile"):
        stages = tracer.call("pipeline.compile_stages",
                             pipeline.compile_stages, term)

    dumps = []
    with _phase(times, "dump"):
        for stage in pipeline.STAGE_ORDER:
            text = tracer.call("sexpr.dump", pipeline.emit_sexp,
                               stages[stage], stage=stage.value)
            back = tracer.call("sexpr.parse", pipeline.parse_stage_artifact,
                               stage, text, stage=stage.value)
            dumps.append((stage, text, back))
    for stage, text, back in dumps:
        if pipeline.emit_sexp(back) != text:
            raise WrongOutput("dump", f"{stage.value} dump/parse/dump differs")

    outcomes = []
    with _phase(times, "verify"):
        with _phase(times, "verdict"):
            report = tracer.call("harness.check",
                                 fcomp.harness.check_preservation, term,
                                 inp.fuel)
        for stage in pipeline.STAGE_ORDER:
            if inp.expected is None:
                stage_fuel = inp.n
            elif stage is pipeline.Stage.SOURCE:
                stage_fuel = SOURCE_FUEL
            else:
                stage_fuel = TARGET_FUEL
            outcome, _ = pipeline.run(stages[stage], stage_fuel)
            outcomes.append((stage, outcome))
    for stage, outcome in outcomes:
        check_outcome(fcomp, inp, stage, outcome)
    return report.failures


def check_outcome(fcomp, inp, stage, outcome):
    result_nat, Outcome = fcomp.pipeline.result_nat, fcomp.source_lang.Outcome
    if inp.expected is None:
        if outcome.kind is not Outcome.OUT_OF_FUEL or outcome.steps != inp.n:
            raise WrongOutput("verify",
                f"{stage.value}: {outcome.kind.value} after {outcome.steps} "
                f"steps, expected OutOfFuel after {inp.n}")
    elif outcome.kind is not Outcome.VALUE or result_nat(outcome) != inp.expected:
        raise WrongOutput("verify",
            f"{stage.value}: {outcome.kind.value} {result_nat(outcome)}, "
            f"expected {inp.expected}")


def run(fcomp, inputs, tracer, ledger, seconds=None, passes=None):
    """Whole passes over the ladder, ``passes`` of them, or as many as end
    near ``seconds`` (at least one; another starts while it would end less
    than half a pass late).  Returns one dict per pass: each phase's seconds
    summed over the ladder, failed inputs included up to their failure, and
    the verdict time of every input that reached one."""
    out = []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        totals = {}
        verdicts = {}
        for inp in inputs:
            tracer.case = inp.case
            times = {}
            try:
                failures = run_input(fcomp, inp, tracer, times)
            except WrongOutput as e:
                ledger.fail(inp.case, e.phase, "WrongOutput", e, wrong=True)
            except Exception as e:  # a crash of the package is a failed case
                ledger.fail(inp.case, e.phase, type(e).__name__, e)
            else:
                if failures:
                    log_counterexamples(ledger, inp.case, failures)
                else:
                    ledger.ok()
            for ph, dt in times.items():
                totals[ph] = totals.get(ph, 0.0) + dt
            if "verdict" in times:
                verdicts[inp.case] = times["verdict"]
        out.append({"phases": totals, "verdicts": verdicts})
        now = time.perf_counter()
        if passes is not None and len(out) >= passes:
            return out
        if seconds is not None and (
            now - t_start + (now - t_pass) / 2 >= seconds
        ):
            return out
