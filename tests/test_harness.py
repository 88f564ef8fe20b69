"""Differential harness: generator, checks, relations, shrinking, fuzzing."""

import hashlib

import pytest

from fcomp import cc_lang, cg_pass, hoist_pass, pipeline
from fcomp.cc_lang import CAbs
from fcomp.errors import ArrowTypeUnsupported, UnresolvedTypeVariable
from fcomp.harness import (
    GenConfig, ProgramGen, Report, _size, check_invariants,
    check_preservation, equiv_fo, format_report, fuzz, shrink, sim_fo,
)
from fcomp.pipeline import Stage, StageArtifact, compile_stages
from fcomp.sexpr import render
from fcomp.source_lang import (
    NAT, UNIT, Fix, NatLit, Outcome, Pair, Plus, TArrow, TProd,
    UnitLit, Var, eval_src, free_vars, typecheck_src,
)
from fcomp.surface import parse_source
from fcomp.term import Program, subst, subterms, to_sexpr


class TestGenerator:
    def test_programs_are_closed_and_nat_typed(self):
        gen = ProgramGen(GenConfig(seed=11, max_size=30))
        for _ in range(50):
            t = gen.gen()
            assert free_vars(t) == frozenset()
            assert typecheck_src([], t) == NAT

    def test_generation_is_reproducible(self):
        a = [ProgramGen(GenConfig(seed=5)).gen() for _ in range(3)]
        b = ProgramGen(GenConfig(seed=5))
        assert a[0] == a[1] == a[2] == b.gen()

    def test_different_seeds_differ(self):
        assert ProgramGen(GenConfig(seed=1)).gen() != ProgramGen(
            GenConfig(seed=2)
        ).gen()


class TestChecks:
    def test_preservation_passes_on_worked_example(self):
        t = parse_source("let f = fix f (x:nat):nat. x+2 in f 3")
        report = check_preservation(t, 10_000)
        assert report.ok
        assert report.terminating == 1

    def test_invariants_pass_on_worked_example(self):
        t = parse_source("(fix f (x:nat):nat. ifz x then 0 else x + f (pred x)) 3")
        report = check_invariants(t, 10_000)
        assert report.ok

    def test_fuzz_smoke(self):
        cfg = GenConfig(seed=3, max_size=15, fuel=2_000)
        report = fuzz(cfg, 20, check_preservation)
        assert report.ok
        assert report.cases == 20
        text = format_report(report, cfg)
        assert "failures: 0" in text


def _renaming_hoist(t):
    """Hoisting that renames each function's parameter: every stage still
    runs to the same value, but unhoisting no longer gives the cc term."""
    p = hoist_pass.hoist(t)
    fns = tuple(
        CAbs(f.binder + "r", subst({f.binder: Var(f.binder + "r")}, f.body))
        for f in p.functions
    )
    return Program(p.binders, fns, p.body)


class TestHoistRoundTrip:
    """check_preservation validates hoisting by its round trip to the cc
    term instead of running the hoisted program."""

    def test_preservation_never_runs_the_hoisted_program(self, monkeypatch):
        def refuse(p, fuel):
            raise AssertionError("the hoisted program was run")

        monkeypatch.setattr(cc_lang, "eval_hoisted", refuse)
        report = fuzz(GenConfig(seed=3, max_size=15, fuel=2_000), 20)
        assert report.ok
        assert report.terminating > 0

    def test_a_broken_round_trip_is_reported_and_shrunk(self, monkeypatch):
        monkeypatch.setattr(pipeline, "hoist", _renaming_hoist)
        report = fuzz(GenConfig(seed=3, max_size=15, fuel=2_000), 5)
        # Only the programs with a function fail, and only at the round
        # trip: no stage runs to another value.
        assert [f.stage for f in report.failures] == ["hoist-roundtrip"] * 2
        for f in report.failures:
            probe = check_preservation(f.shrunk, 2_000)
            assert [g.stage for g in probe.failures] == ["hoist-roundtrip"]
        big = report.failures[1]
        assert _size(big.shrunk) < _size(big.term)
        assert big.shrunk == parse_source("(fix a5 (a6:unit):nat. 0) ()")

    def test_invariants_check_the_scope_of_the_cg_program(self, monkeypatch):
        def reversed_cgen(p):
            out = cgen_program(p)
            return Program(out.binders, out.functions[::-1], out.body)

        cgen_program = pipeline.cgen_program
        monkeypatch.setattr(pipeline, "cgen_program", reversed_cgen)
        t = parse_source("(fun (y:nat). (fun (z:nat). y+z) 1) 2")
        stages = [f.stage for f in check_invariants(t, 10_000).failures]
        assert "cg-shape" in stages
        assert "hoist-shape" not in stages


DIVERGENT = "(fix f (x:nat):nat. f x) 0"


class TestAnswerType:
    """CPS and closure-converted terms are typed with one answer type, nat,
    so a function that never returns to its continuation still checks."""

    @pytest.mark.parametrize("text", [
        DIVERGENT,
        "(fix f (x:nat):nat. 3 + f 3) 3",  # perfbench's divergent_sum
    ])
    def test_divergent_programs_preserve_types(self, text):
        report = check_preservation(parse_source(text), 200)
        assert report.failures == []

    def test_cps_result_is_unresolved_without_answer_type(self):
        cps_t = compile_stages(parse_source(DIVERGENT), Stage.CPS)[Stage.CPS]
        with pytest.raises(UnresolvedTypeVariable):
            typecheck_src([], cps_t.payload)
        assert typecheck_src([], cps_t.payload, NAT) == NAT


class TestEquivFo:
    def test_nat_equality(self):
        assert equiv_fo(NAT, 5, NatLit(3), NatLit(3))
        assert not equiv_fo(NAT, 5, NatLit(3), NatLit(4))

    def test_cross_stage_values(self):
        stages = compile_stages(parse_source("1 + 2"))
        src_v = eval_src(stages[Stage.SOURCE].payload, 100).value
        cg_v = pipeline.run(stages[Stage.CG], 1000)[0].value
        assert equiv_fo(NAT, 0, src_v, cg_v)

    def test_negative_index_is_empty(self):
        assert not equiv_fo(NAT, -1, NatLit(3), NatLit(3))

    def test_products_pointwise(self):
        T = TProd(NAT, UNIT)
        assert equiv_fo(T, 2, Pair(NatLit(1), UnitLit()), Pair(NatLit(1), UnitLit()))
        assert not equiv_fo(
            T, 2, Pair(NatLit(1), UnitLit()), Pair(NatLit(2), UnitLit())
        )

    def test_downward_monotone_in_index(self):
        for i in range(5, -1, -1):
            assert equiv_fo(NAT, i, NatLit(2), NatLit(2))

    def test_functions_are_not_first_order(self):
        f = Fix("f", "x", NAT, NAT, Var("x"))
        with pytest.raises(ArrowTypeUnsupported):
            equiv_fo(TArrow(NAT, NAT), 3, f, f)

    def test_opaque_values_never_relate(self):
        f = Fix("f", "x", NAT, NAT, Var("x"))
        assert not equiv_fo(NAT, 3, f, f)


class TestSimFo:
    def test_simulation_holds_for_compiled_stages(self):
        t = parse_source("let f = fix f (x:nat):nat. x+2 in f 3")
        n = eval_src(t, 10_000).steps
        stages = compile_stages(t)
        for stage in (Stage.CPS, Stage.CC, Stage.HOIST, Stage.CG):
            assert sim_fo(NAT, n + 1, t, stages[stage])

    def test_vacuous_below_the_step_count(self):
        t = parse_source("let f = fix f (x:nat):nat. x+2 in f 3")
        assert sim_fo(NAT, 0, t, StageArtifact(Stage.SOURCE, NatLit(999)))

    def test_detects_wrong_target_value(self):
        t = parse_source("1 + 1")
        n = eval_src(t, 100).steps
        assert sim_fo(NAT, n + 1, t, StageArtifact(Stage.SOURCE, NatLit(2)))
        assert not sim_fo(NAT, n + 1, t, StageArtifact(Stage.SOURCE, NatLit(3)))

    def test_rejects_higher_order_types(self):
        with pytest.raises(ArrowTypeUnsupported):
            sim_fo(
                TArrow(NAT, NAT), 3, NatLit(1), StageArtifact(Stage.SOURCE, NatLit(1))
            )


class TestShrink:
    def test_shrinks_to_minimal_witness(self):
        def has_plus(t):
            if isinstance(t, Plus):
                return True
            import dataclasses

            from fcomp.source_lang import SrcTerm

            return any(
                isinstance(v, SrcTerm) and has_plus(v)
                for v in (getattr(t, f.name) for f in dataclasses.fields(t))
            )

        big = parse_source("pred ((1 + 2) + (3 + pred 4))")
        small = shrink(big, has_plus)
        assert has_plus(small)
        assert small == Plus(NatLit(0), NatLit(0))

    def test_result_stays_closed_and_typed(self):
        big = parse_source("let x = 2 in x + (fix f (y:nat):nat. y+x) 3")
        small = shrink(big, lambda c: True)
        assert free_vars(small) == frozenset()
        assert typecheck_src([], small) == NAT
        assert small == NatLit(0)

    def test_failure_report_carries_shrunk_witness(self):
        # A check that always reports a failure produces a shrunk witness.
        def always_fails(t, fuel, report=None):
            if report is None:
                report = Report()
            report.cases += 1
            from fcomp.harness import Failure

            report.failures.append(Failure("demo", t, "x", "y"))
            return report

        cfg = GenConfig(seed=1, max_size=10, fuel=100)
        report = fuzz(cfg, 1, always_fails)
        assert not report.ok
        assert report.failures[0].shrunk == NatLit(0)


def _has(head):
    return lambda t: any(u._head == head for u in subterms(t))


def _value_at_least(n):
    def holds(t):
        out = eval_src(t, 2_000)
        return out.kind is Outcome.VALUE and out.value.n >= n
    return holds


def _always(t):
    return True


# The probe sequence of the cases below: every term shrinking passes to the
# predicate, in order, with the verdict, and every witness.
PROBE_DIGEST = "c532b016da513a5a1d3160b32f09d312f1c3a61726c176183a807511b41dfeb0"
PROBE_COUNT = 393


def test_the_probe_sequence_is_pinned():
    """Shrinking the first programs of seeds 1-3 under four predicates
    probes the same terms in the same order: a change to the candidates or
    to their order shows as a new digest."""
    h = hashlib.sha256()
    count = 0
    for seed in (1, 2, 3):
        gen = ProgramGen(GenConfig(seed=seed, max_size=25))
        for _ in range(4):
            t = gen.gen()
            for holds in (_has("plus"), _has("app"), _value_at_least(3), _always):
                if not holds(t):
                    continue

                def probe(c):
                    nonlocal count
                    count += 1
                    ok = holds(c)
                    h.update(f"{render(to_sexpr(c))} {ok}\n".encode())
                    return ok

                h.update(render(to_sexpr(shrink(t, probe))).encode())
    assert (count, h.hexdigest()) == (PROBE_COUNT, PROBE_DIGEST)


class TestReport:
    """format_report prints an outcome as its kind and steps, a term as its
    head and node count, and the witness whole."""

    def test_a_miscompiled_run_prints_its_outcome_not_its_term(self, monkeypatch):
        # The pred_plus bug: the cg code of pred a adds 0 instead, so a
        # count-down never ends.  The residual of the run is not printed.
        monkeypatch.setattr(cg_pass, "GPred", lambda a: Plus(a, NatLit(0)))
        report = Report()
        for text in ("pred 3",
                     "(fix f (x:nat):nat. ifz x then 0 else f (pred x)) 1"):
            check_preservation(parse_source(text), 100, report)
        lines = format_report(report, GenConfig()).splitlines()
        assert lines[4:] == [
            "FAIL [cg-eval] expected 2 got Value after 2 steps: (nat 3)",
            "  witness: (pred (nat 3))",
            "FAIL [cg-eval] expected 0 got OutOfFuel after 100000 steps",
            "  witness: (app (fix (f x nat nat) (ifz (var x) (nat 0) "
            "(app (var f) (pred (var x))))) (nat 1))",
        ]

    def test_a_broken_round_trip_prints_node_counts(self, monkeypatch):
        monkeypatch.setattr(pipeline, "hoist", _renaming_hoist)
        report = check_preservation(parse_source("(fun (y:nat). y) 2"), 100)
        assert format_report(report, GenConfig()).splitlines()[4:] == [
            "FAIL [hoist-roundtrip] expected (let ...), 63 nodes "
            "got (letfun ...), 65 nodes",
            "  witness: (app (fix (_ y nat _) (var y)) (nat 2))",
        ]
