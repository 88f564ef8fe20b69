"""The composed compile driver and per-stage dispatch."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import cc_lang, cg_lang, sexpr, source_lang, surface
from .cc_pass import cc_program
from .cg_pass import cgen_program
from .cps import cps_program
from .errors import FcompError
from .hoist_pass import hoist
from .source_lang import EvalOutcome


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
        try:
            payload = compile_pass(payload)
        except FcompError as e:
            raise StageError(stage, e) from e
        out[stage] = StageArtifact(stage, payload)
    return out


def compile(t: source_lang.SrcTerm, stop_after: Stage = Stage.CG) -> StageArtifact:
    return compile_stages(t, stop_after)[stop_after]


def run(artifact: StageArtifact, fuel: int):
    """Evaluate a stage artifact; returns (EvalOutcome, heap cell count or None)."""
    stage, payload = artifact.stage, artifact.payload
    if stage in (Stage.SOURCE, Stage.CPS):
        return source_lang.eval_src(payload, fuel), None
    if stage is Stage.CC:
        return cc_lang.eval_cc(payload, fuel), None
    if stage is Stage.HOIST:
        return cc_lang.eval_hoisted(payload, fuel), None
    if stage is Stage.CG:
        outcome, mem = cg_lang.eval_cg_program(payload, fuel)
        return outcome, mem.next_free
    raise ValueError(stage)


def result_nat(outcome: EvalOutcome):
    """The natural number carried by a Value outcome, if any."""
    v = outcome.value
    if isinstance(v, (source_lang.NatLit, cc_lang.CNat, cg_lang.GNat)):
        return v.n
    return None


def emit_sexp(artifact: StageArtifact) -> str:
    stage, payload = artifact.stage, artifact.payload
    if stage in (Stage.SOURCE, Stage.CPS):
        e = sexpr.src_to_sexpr(payload)
    elif stage is Stage.CC:
        e = sexpr.cc_to_sexpr(payload)
    elif stage is Stage.HOIST:
        e = sexpr.hoisted_to_sexpr(payload)
    elif stage is Stage.CG:
        e = sexpr.cg_program_to_sexpr(payload)
    else:
        raise ValueError(stage)
    return sexpr.render(e)


def emit_pretty(artifact: StageArtifact) -> str:
    stage, payload = artifact.stage, artifact.payload
    if stage in (Stage.SOURCE, Stage.CPS):
        return surface.print_source(payload)
    return emit_sexp(artifact)


def parse_stage_artifact(stage: Stage, text: str) -> StageArtifact:
    if stage in (Stage.SOURCE, Stage.CPS):
        try:
            payload = surface.parse_source(text)
        except FcompError:
            payload = sexpr.src_from_sexpr(sexpr.read_sexpr(text))
    elif stage is Stage.CC:
        payload = sexpr.cc_from_sexpr(sexpr.read_sexpr(text))
    elif stage is Stage.HOIST:
        payload = sexpr.hoisted_from_sexpr(sexpr.read_sexpr(text))
    elif stage is Stage.CG:
        payload = sexpr.cg_program_from_sexpr(sexpr.read_sexpr(text))
    else:
        raise ValueError(stage)
    return StageArtifact(stage, payload)
