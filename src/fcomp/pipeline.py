"""The composed compile driver and the table of what each stage provides,
including the machine step on states (heap, term) that the stage's
evaluator iterates by one call of ``source_lang.eval_lets``."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import cc_lang, cg_lang, sexpr, source_lang, surface
from .cc_pass import cc_program
from .cg_pass import cgen_program
from .cps import cps_program
from .errors import FcompError
from .hoist_pass import hoist
from .source_lang import EvalOutcome
from .term import from_sexpr, program_body, to_sexpr


class Stage(enum.Enum):
    SOURCE = "source"
    CPS = "cps"
    CC = "cc"
    HOIST = "hoist"
    CG = "cg"


STAGE_ORDER = [Stage.SOURCE, Stage.CPS, Stage.CC, Stage.HOIST, Stage.CG]


@dataclass(frozen=True, slots=True)
class StageArtifact:
    stage: Stage
    payload: object


class StageError(FcompError):
    """A pass failed; carries the stage where it happened."""

    def __init__(self, stage: Stage, cause: Exception):
        super().__init__(f"[{stage.value}] {cause}")
        self.stage = stage
        self.cause = cause


def compile_stages(t: source_lang.SrcTerm, stop_after: Stage = Stage.CG):
    """Run the pipeline up to stop_after; returns {stage: StageArtifact}.

    Full compiles require an empty-context nat typing, per the pipeline
    correctness statement this mirrors.
    """
    out = {Stage.SOURCE: StageArtifact(Stage.SOURCE, t)}
    # Built at each call, so that a pass rebound in this module (a tracing
    # wrapper) is the one that runs.
    passes = [
        (Stage.CPS, cps_program),
        (Stage.CC, cc_program),
        (Stage.HOIST, hoist),
        (Stage.CG, cgen_program),
    ]
    payload = t
    for stage, compile_pass in passes:
        if stop_after in out:
            break
        too_deep = False
        try:
            payload = compile_pass(payload)
        except FcompError as e:
            raise StageError(stage, e) from e
        except RecursionError:
            too_deep = True
        # Raised here rather than in the handler, so that the new error keeps
        # neither the overflow's frames nor the overflow as its context.
        if too_deep:
            raise RecursionError(
                f"[{stage.value}] input nests too deeply for the recursion limit")
        out[stage] = StageArtifact(stage, payload)
    return out


@dataclass(frozen=True)
class StageOps:
    """One stage's evaluator, s-expression printer and reader, term printer
    and small-step machine, whose state is a pair (heap, term): the heap is a
    ``cg_lang.MemState`` at cg and None elsewhere.  Its step is the one the
    evaluator's let-stack loop iterates.  The evaluators look their
    functions up when called, so that one rebound in its module (a tracing
    wrapper) is the one that runs."""

    evaluate: Callable  # (payload, fuel) -> (EvalOutcome, final heap)
    to_sexpr: Callable  # payload -> s-expression
    from_sexpr: Callable  # s-expression -> payload
    step_label: str  # names a failed check of the machine
    start: Callable = lambda p: (None, p)  # payload -> machine state
    step: Callable = source_lang.step_term  # machine state -> next, or None
    concrete: bool = False  # terms print in the surface syntax

    def show(self, t) -> str:
        """A term of this stage as text."""
        return surface.print_source(t) if self.concrete else sexpr.render(to_sexpr(t))

    def show_state(self, state) -> str:
        heap, t = state
        prefix = "" if heap is None else f"[next_free={heap.next_free}] "
        return prefix + self.show(t)


# Source and cps terms share one language.
_SOURCE = StageOps(
    lambda p, fuel: (source_lang.eval_src(p, fuel), None),
    to_sexpr, partial(from_sexpr, source_lang.SrcTerm), "src-step", concrete=True,
)
STAGES = {
    Stage.SOURCE: _SOURCE,
    Stage.CPS: _SOURCE,
    Stage.CC: StageOps(
        lambda p, fuel: (cc_lang.eval_cc(p, fuel), None),
        to_sexpr, partial(from_sexpr, cc_lang.CCTerm), "cc-step",
    ),
    Stage.HOIST: StageOps(
        lambda p, fuel: (cc_lang.eval_hoisted(p, fuel), None),
        sexpr.program_to_sexpr,
        partial(sexpr.program_from_sexpr, cc_lang.CCTerm), "cc-step",
        start=lambda p: (None, program_body(p)),
    ),
    Stage.CG: StageOps(
        lambda p, fuel: cg_lang.eval_cg_program(p, fuel),
        sexpr.program_to_sexpr,
        partial(sexpr.program_from_sexpr, cg_lang.CgTerm), "cg-step",
        start=lambda p: (cg_lang.EMPTY_MEM, program_body(p)),
        step=cg_lang.step_cg,
    ),
}


def run(artifact: StageArtifact, fuel: int):
    """Evaluate a stage artifact; returns (EvalOutcome, heap cell count or None)."""
    outcome, heap = STAGES[artifact.stage].evaluate(artifact.payload, fuel)
    return outcome, None if heap is None else heap.next_free


def result_nat(outcome: EvalOutcome):
    """The natural number carried by a Value outcome, if any."""
    v = outcome.value
    return v.n if v._head == "nat" else None


def emit_sexp(artifact: StageArtifact) -> str:
    return sexpr.render(STAGES[artifact.stage].to_sexpr(artifact.payload))


def emit_pretty(artifact: StageArtifact) -> str:
    """The surface syntax where the stage has it, else the s-expression."""
    ops = STAGES[artifact.stage]
    return ops.show(artifact.payload) if ops.concrete else emit_sexp(artifact)


def parse_stage_artifact(stage: Stage, text: str) -> StageArtifact:
    """The artifact of the stage whose s-expression (``emit_sexp``) is text."""
    return StageArtifact(stage, STAGES[stage].from_sexpr(sexpr.read_sexpr(text)))
