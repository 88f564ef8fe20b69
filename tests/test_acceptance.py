"""Acceptance suite.

Each test function is one acceptance criterion; `pytest -v` prints one
pass/fail line per criterion.
"""

import time

import pytest

from fcomp.cc_pass import cc_program
from fcomp.cg_lang import (
    EMPTY_MEM, G_UNITVAL, GLoc, GNat, allocate, eval_cg_program,
    heap_lookup, heap_update, step_cg,
)
from fcomp.errors import OutOfBounds
from fcomp.harness import (
    GenConfig, ProgramGen, check_invariants, check_preservation, equiv_fo,
    fuzz, sim_fo,
)
from fcomp.hoist_pass import hoist
from fcomp.pipeline import Stage, compile_stages, result_nat, run
from fcomp.source_lang import (
    NAT, UNIT, NatLit, Outcome, Pair, TProd, UnitLit, eval_src,
)
from fcomp.surface import parse_source
from fcomp.term import alpha_eq, subst

FUZZ_CFG = GenConfig(seed=1, max_size=40, fuel=10_000)
FUZZ_COUNT = 1000


@pytest.fixture(scope="module")
def fuzz_corpus():
    """The shared 1000-program differential run (criteria 3 and 4)."""
    t0 = time.monotonic()
    report = fuzz(FUZZ_CFG, FUZZ_COUNT, check_preservation)
    elapsed = time.monotonic() - t0
    return report, elapsed


def test_criterion_1_cps_worked_example():
    """`let f = fix f (x:nat):nat. x+2 in f 3` returns Value 5 at every
    stage, in under a second."""
    t0 = time.monotonic()
    t = parse_source("let f = fix f (x:nat):nat. x+2 in f 3")
    stages = compile_stages(t)
    assert set(stages) == {Stage.SOURCE, Stage.CPS, Stage.CC, Stage.HOIST, Stage.CG}
    for artifact in stages.values():
        out, _ = run(artifact, 100_000)
        assert out.kind is Outcome.VALUE
        assert result_nat(out) == 5
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_cc_hoist_worked_example():
    """`((let x = 3 in fun (y:nat). fun (z:nat). x+y+z) 4) 5` returns Value
    12 at source, cps, cc, hoist, and cg; hoisting the closure-converted
    source yields exactly two top-level functions."""
    t0 = time.monotonic()
    t = parse_source("((let x = 3 in fun (y:nat). fun (z:nat). x+y+z) 4) 5")
    stages = compile_stages(t)
    for artifact in stages.values():
        out, _ = run(artifact, 100_000)
        assert out.kind is Outcome.VALUE
        assert result_nat(out) == 12
    # The two nested functions of the program itself, hoisted from its
    # direct closure conversion (the composed pipeline's CPS step introduces
    # additional continuation functions).
    direct = hoist(cc_program(t))
    assert len(direct.functions) == 2
    from fcomp.cc_lang import eval_hoisted

    out = eval_hoisted(direct, 100_000)
    assert out.kind is Outcome.VALUE
    assert result_nat(out) == 12
    assert time.monotonic() - t0 < 1.0


def test_criterion_3_full_pipeline_differential_fuzz(fuzz_corpus):
    """1000 generated closed nat programs: every source-terminating case
    yields the identical nat at cps, cc, hoist, and cg; zero failures;
    under two minutes."""
    report, elapsed = fuzz_corpus
    assert report.cases == FUZZ_COUNT
    eval_failures = [f for f in report.failures if f.stage.endswith("-eval")
                     or f.stage == "compile"]
    assert eval_failures == []
    assert elapsed < 120.0, f"fuzz took {elapsed:.1f}s"


def test_criterion_4_per_pass_type_preservation(fuzz_corpus):
    """On the same corpus, typechecking succeeds at nat after cps and at the
    unchanged type after cc and hoisting; zero failures."""
    report, _ = fuzz_corpus
    type_failures = [f for f in report.failures if f.stage.endswith("-type")]
    assert type_failures == []
    assert report.ok  # nothing else failed either


def test_criterion_5_determinism_and_structural_invariants():
    """1000 cases: functional one-step relations at every stage, variable
    operators after cps, closed closure code after cc, Abs-flat hoisted
    programs, constant-or-variable operands after cg."""
    report = fuzz(GenConfig(seed=2, max_size=40, fuel=10_000), 1000,
                  check_invariants)
    assert report.cases == 1000
    assert report.ok, [f.stage for f in report.failures]


def test_criterion_6_substitution_laws():
    """500 random (term, substitution, substitution) triples satisfy
    distribution, identity on closed terms, and composition, up to
    alpha-equivalence."""
    from fcomp.source_lang import Plus, Pred

    ctx = [("u", NAT), ("w", NAT), ("p", TProd(NAT, NAT))]
    gen = ProgramGen(GenConfig(seed=6, max_size=12, max_nat=9))

    def some_subst():
        s = {}
        for x, ty in ctx:
            r = gen.rng.random()
            if r < 0.35:
                continue
            if r < 0.7:
                s[x] = gen._term(list(ctx), ty, gen.rng.randint(1, 6))
            else:
                s[x] = gen._lit(ty)
        return s

    for _ in range(500):
        t = gen._term(list(ctx), NAT, gen.rng.randint(1, 12))
        s1, s2 = some_subst(), some_subst()

        # Identity on closed terms.
        closed = gen.gen()
        assert subst(s1, closed) == closed

        # Distribution over term constructors.
        assert subst(s1, Plus(t, t)) == Plus(
            subst(s1, t), subst(s1, t)
        )
        assert subst(s1, Pred(t)) == Pred(subst(s1, t))

        # Composition: applying s1 then s2 equals the composed substitution.
        composed = {x: subst(s2, v) for x, v in s1.items()}
        for y, v in s2.items():
            if y not in s1:
                composed[y] = v
        assert alpha_eq(
            subst(s2, subst(s1, t)), subst(composed, t)
        )


def test_criterion_7_memory_model():
    """Allocation, update/lookup, bounds checking, pred 0 = 0, and in-bounds
    loads on compiled fuzz programs."""
    # Allocate-from-empty: two cells at loc 0, both unit.
    s, loc = allocate(EMPTY_MEM, 2)
    assert loc == GLoc(0)
    assert s.next_free == 2
    assert heap_lookup(s, loc, 0) == G_UNITVAL
    assert heap_lookup(s, loc, 1) == G_UNITVAL

    # pred 0 = 0 in the target machine.
    from fcomp.cg_lang import GPred

    assert step_cg((EMPTY_MEM, GPred(GNat(0)))) == (EMPTY_MEM, GNat(0))

    # Update/lookup roundtrip.
    s2 = heap_update(s, loc, 1, GNat(7))
    assert heap_lookup(s2, loc, 1) == GNat(7)

    # Out-of-bounds lookup rejected.
    with pytest.raises(OutOfBounds):
        heap_lookup(s, loc, 2)

    # Every load executed by compiled fuzz programs is in bounds: the
    # machine raises OutOfBounds on any violation, so clean runs suffice.
    gen = ProgramGen(GenConfig(seed=7, max_size=40))
    for _ in range(100):
        t = gen.gen()
        cg_p = compile_stages(t)[Stage.CG].payload
        out, _ = eval_cg_program(cg_p, 200_000)  # raises on a bad load
        assert out.kind in (Outcome.VALUE, Outcome.OUT_OF_FUEL)


def test_criterion_8_relation_checker_agreement():
    """sim_fo at nat with index = source steps + 1 agrees with the
    differential verdict on terminating cases; equiv_fo is downward
    monotone in its index on sampled first-order value pairs."""
    gen = ProgramGen(GenConfig(seed=4, max_size=30))
    checked = 0
    for _ in range(200):
        t = gen.gen()
        src_out = eval_src(t, 10_000)
        if src_out.kind is not Outcome.VALUE:
            continue
        checked += 1
        stages = compile_stages(t)
        n = src_out.value.n
        for stage in (Stage.CPS, Stage.CC, Stage.HOIST, Stage.CG):
            out, _ = run(stages[stage], 1_000_000)
            differential_verdict = (
                out.kind is Outcome.VALUE and result_nat(out) == n
            )
            assert sim_fo(NAT, src_out.steps + 1, t, stages[stage]) == (
                differential_verdict
            )
    assert checked > 0

    # Downward index-monotonicity of equiv_fo on 200 first-order pairs.
    import random

    rng = random.Random(8)
    for _ in range(200):
        ty = rng.choice([NAT, UNIT, TProd(NAT, NAT), TProd(NAT, UNIT)])

        def value_of(ty):
            if ty == NAT:
                return NatLit(rng.randint(0, 5))
            if ty == UNIT:
                return UnitLit()
            return Pair(value_of(ty.left), value_of(ty.right))

        v1, v2 = value_of(ty), value_of(ty)
        i = rng.randint(0, 10)
        hi = equiv_fo(ty, i, v1, v2)
        for j in range(i + 1):
            lo = equiv_fo(ty, j, v1, v2)
            assert (not hi) or lo, "equivalence lost at a smaller index"
