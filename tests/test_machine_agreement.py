"""Each stage's evaluator against its specification.

``pipeline.run`` evaluates by the let-stack loop ``source_lang.eval_lets``,
which keeps the enclosing lets on a stack and steps near the redex.  The
specification is the stage's machine step iterated from the root:
``STAGES[stage].step`` from ``STAGES[stage].start``.  The two must give the
same outcome kind, the same value or residual term, the same step count and
the same heap.
"""

import pytest

from fcomp.harness import GenConfig, ProgramGen
from fcomp.pipeline import STAGE_ORDER, STAGES, Stage, compile_stages, run
from fcomp.source_lang import Outcome, is_value
from fcomp.surface import parse_source

SOURCE_FUEL = 10_000
TARGET_FUEL = 100_000

# (family, n) of the benchmark's scale ladder that stay quick when every
# step walks from the root.
FAMILIES = [("sum_chain", 40), ("let_chain", 40), ("rec_depth", 20),
            ("nested_closures", 4)]

DIVERGENT = "(fix f (x:nat):nat. 3 + f 3) 3"


def iterate(stage, payload, fuel):
    """(outcome kind, term, steps, heap cells) of iterating the stage's step
    from its start state."""
    ops = STAGES[stage]
    heap, t = ops.start(payload)
    steps = 0
    kind = Outcome.VALUE
    while not is_value(t):
        if steps >= fuel:
            kind = Outcome.OUT_OF_FUEL
            break
        nxt = ops.step((heap, t))
        if nxt is None:
            kind = Outcome.STUCK
            break
        heap, t = nxt
        steps += 1
    return kind, t, steps, None if heap is None else heap.next_free


def assert_agrees(term, source_fuel=SOURCE_FUEL, target_fuel=TARGET_FUEL):
    """The outcome of each stage of term, checked against the specification."""
    stages = compile_stages(term)
    outcomes = []
    for stage in STAGE_ORDER:
        fuel = source_fuel if stage is Stage.SOURCE else target_fuel
        out, cells = run(stages[stage], fuel)
        want = iterate(stage, stages[stage].payload, fuel)
        assert (out.kind, out.value, out.steps, cells) == want, stage
        outcomes.append(out)
    return outcomes


def test_generated_programs():
    gen = ProgramGen(GenConfig(1))
    for _ in range(60):
        assert_agrees(gen.gen())


@pytest.mark.parametrize("family,n", FAMILIES)
def test_scale_families(scale, family, n):
    text, expected = scale.FAMILIES[family](n, 3)
    for out in assert_agrees(parse_source(text)):
        assert (out.kind, out.value.n) == (Outcome.VALUE, expected)


def test_running_out_of_fuel():
    """A divergent program runs out of fuel after exactly the fuel's steps
    at every stage, on the same residual term both ways."""
    for out in assert_agrees(parse_source(DIVERGENT), 200, 200):
        assert (out.kind, out.steps) == (Outcome.OUT_OF_FUEL, 200)
