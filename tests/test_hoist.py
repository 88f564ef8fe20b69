"""Code hoisting: flat shape, letfun* scoping, the round trip to the cc
term, evaluation."""

import pytest
from test_golden import corpus  # the golden table's inputs
from test_harness import _renaming_hoist

from fcomp import pipeline
from fcomp.cc_lang import (
    CAbs, CClos, COpen, eval_hoisted, typecheck_cc, typecheck_hoisted,
)
from fcomp.cc_pass import cc_program
from fcomp.errors import (
    HoistEscape, TypeMismatch, UnboundVariable, UnsupportedShape,
)
from fcomp.harness import (
    GenConfig, ProgramGen, check_invariants, check_preservation,
)
from fcomp.hoist_pass import check_abs_flat, hoist
from fcomp.pipeline import (
    STAGE_ORDER, Stage, compile_stages, emit_sexp, parse_stage_artifact,
    result_nat, run,
)
from fcomp.term import free_vars as cc_free_vars
from fcomp.term import (
    Program, check_letfun_named, check_letfun_scope, program_body, subst,
    subterms,
)
from fcomp.source_lang import (
    NAT, UNIT, UNITVAL, App, Fst, Let, NatLit, Outcome, Plus, TProd, Var,
)
from fcomp.surface import parse_source


def hoisted_result_nat(p, fuel=100_000):
    out = eval_hoisted(p, fuel)
    assert out.kind is Outcome.VALUE, out
    assert isinstance(out.value, NatLit)
    return out.value.n


class TestHoist:
    def test_constant_program_has_no_functions(self):
        p = hoist(Plus(NatLit(1), NatLit(2)))
        assert p.binders == ()
        assert p.functions == ()
        assert hoisted_result_nat(p) == 3

    def test_free_variable_is_rejected(self):
        with pytest.raises(UnsupportedShape):
            hoist(Var("x"))

    def test_open_must_be_in_application_form(self):
        clos = CClos(CAbs("p", NatLit(1)), UNITVAL)
        with pytest.raises(UnsupportedShape):
            hoist(COpen(clos, "f", "e", Var("e")))

    def test_functions_are_closed_and_flat(self):
        t = parse_source(
            "((let x = 3 in fun (y:nat). fun (z:nat). x+y+z) 4) 5"
        )
        p = hoist(cc_program(t))
        assert check_abs_flat(p)
        # Closed but for the binders listed before each function.
        assert check_letfun_scope(p)
        for i, fn in enumerate(p.functions):
            assert cc_free_vars(fn) <= set(p.binders[:i])

    def test_worked_example_has_two_functions(self):
        t = parse_source(
            "((let x = 3 in fun (y:nat). fun (z:nat). x+y+z) 4) 5"
        )
        p = hoist(cc_program(t))
        assert len(p.functions) == 2
        assert hoisted_result_nat(p) == 12

    def test_nested_function_depends_on_inner(self):
        # The inner function is listed first; the outer one names its
        # binder where the inner abstraction stood.
        t = parse_source("(fun (y:nat). (fun (z:nat). y+z) 1) 2")
        p = hoist(cc_program(t))
        assert len(p.functions) == 2
        assert hoisted_result_nat(p) == 3

    def test_dependencies_are_the_functions_extracted_from_the_body(self):
        # The program lists functions in extraction order, and a function
        # names exactly the binders of those extracted from its own body.
        t = parse_source(
            "let a = fun (u:nat). u in (fun (y:nat). (fun (z:nat). y+z) 1) 2"
        )
        p = hoist(cc_program(t))
        first, inner, outer = p.functions
        assert cc_free_vars(first) == cc_free_vars(inner) == frozenset()
        assert cc_free_vars(outer) == {p.binders[1]}
        assert hoisted_result_nat(p) == 3

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pred 3", 2),
            ("(fix f (x:nat):nat. x + 2) 3", 5),
            ("let y = 1 in (fix f (x:nat):nat. x + y) 2", 3),
            ("(fix f (x:nat):nat. ifz x then 0 else x + f (pred x)) 3", 6),
        ],
    )
    def test_value_agreement(self, text, expected):
        p = hoist(cc_program(parse_source(text)))
        assert hoisted_result_nat(p) == expected

    def test_typechecks_at_nat(self):
        for text in (
            "(fix f (x:nat):nat. x + 2) 3",
            "((let x = 3 in fun (y:nat). fun (z:nat). x+y+z) 4) 5",
        ):
            p = hoist(cc_program(parse_source(text)))
            assert typecheck_hoisted(p) == NAT

    def test_let_binder_may_not_escape_into_functions(self):
        # A function extracted from a let body must not mention the binder.
        bad = Let(
            NatLit(1),
            "x",
            CClos(CAbs("p", Var("x")), UNITVAL),
        )
        with pytest.raises((HoistEscape, UnsupportedShape)):
            hoist(bad)


class TestScope:
    """hoist keeps one bound set: a binder is added for its body only if it
    was not in scope, and removed only if it was added there."""

    def test_shadowing_binders_keep_the_outer_binding(self):
        # The inner let and abstraction rebind x; x stays bound after them.
        inner = Plus(
            Let(NatLit(2), "x", Var("x")), App(CAbs("x", Var("x")), NatLit(3))
        )
        t = Let(NatLit(1), "x", Plus(inner, Var("x")))
        p = hoist(t)
        assert p.body.body.r == Var("x")

    @pytest.mark.parametrize("scoped", [
        Let(NatLit(1), "y", Var("y")),
        App(CAbs("y", Var("y")), NatLit(1)),
    ])
    def test_binder_is_out_of_scope_after_its_body(self, scoped):
        with pytest.raises(UnsupportedShape):
            hoist(Plus(scoped, Var("y")))


def nested_closures(n, c):
    """Level i is let xi = i+c in let fi = fun (yi:nat). yi + xi + <level
    i+1> in fi i, level n+1 is 0; its value is n(n+1) + nc."""
    text = "0"
    for i in range(n, 0, -1):
        text = (f"(let x{i} = {i + c} in let f{i} = fun (y{i}:nat). "
                f"y{i} + x{i} + {text} in f{i} {i})")
    return parse_source(text), n * (n + 1) + n * c


def _nodes(*terms):
    return sum(1 for t in terms for _ in subterms(t))


# Two hand-written letfun* programs: the second function names the first,
# and the other way round.
EARLIER = """(letfun (g1 g2)
                    ((cabs (x) (plus (var x) (nat 1)))
                     (cabs (y) (app (var g1) (plus (var y) (var y)))))
                    (app (var g2) (nat 3)))"""
LATER = """(letfun (g1 g2)
                  ((cabs (y) (app (var g2) (plus (var y) (var y))))
                   (cabs (x) (plus (var x) (nat 1))))
                  (app (var g1) (nat 3)))"""
# The same two programs at cg, whose programs are letfun* too.
CG_EARLIER = """(letfun (g1 g2)
                       ((cabs (x) (plus (var x) (nat 1)))
                        (cabs (y) (let (plus (var y) (var y))
                                       (v (app (var g1) (var v))))))
                       (app (var g2) (nat 3)))"""
CG_LATER = """(letfun (g1 g2)
                     ((cabs (y) (let (plus (var y) (var y))
                                     (v (app (var g2) (var v)))))
                      (cabs (x) (plus (var x) (nat 1))))
                     (app (var g1) (nat 3)))"""


class TestLetfunScope:
    """A hoisted function is the cc abstraction as it was, and names the
    binders listed before it: unhoisting gives the cc term back."""

    def test_unhoisting_gives_back_the_cc_term(self):
        gen = ProgramGen(GenConfig(seed=1))
        programs = [t for _, t in corpus()] + [gen.gen() for _ in range(300)]
        for t in programs:
            cc_t = cc_program(t)
            assert program_body(hoist(cc_t)) == cc_t

    def test_nested_closures_compile_and_agree_at_every_stage(self):
        t, want = nested_closures(50, 3)
        stages = compile_stages(t)
        for stage in STAGE_ORDER:
            out, _ = run(stages[stage], 400_000)
            assert out.kind is Outcome.VALUE, (stage, out)
            assert result_nat(out) == want, stage

    def test_hoisting_adds_one_stub_per_function(self):
        t, _ = nested_closures(100, 3)
        stages = compile_stages(t, stop_after=Stage.HOIST)
        cc_t, p = stages[Stage.CC].payload, stages[Stage.HOIST].payload
        assert len(p.functions) == 200
        assert _nodes(*p.functions, p.body) == _nodes(cc_t) + len(p.functions)

    def test_a_function_may_name_an_earlier_binder(self):
        artifact = parse_stage_artifact(Stage.HOIST, EARLIER)
        p = artifact.payload
        assert check_letfun_scope(p)
        assert typecheck_hoisted(p) == NAT
        assert hoisted_result_nat(p) == 7
        again = parse_stage_artifact(Stage.HOIST, emit_sexp(artifact)).payload
        assert again == p

    def test_a_function_may_not_name_a_later_binder(self):
        p = parse_stage_artifact(Stage.HOIST, LATER).payload
        assert not check_letfun_scope(p)
        with pytest.raises(UnboundVariable, match="g2"):
            typecheck_hoisted(p)

    def test_one_scope_check_for_the_cg_program(self):
        p = parse_stage_artifact(Stage.CG, CG_EARLIER).payload
        assert check_letfun_scope(p)
        out, _ = run(parse_stage_artifact(Stage.CG, CG_EARLIER), 100)
        assert result_nat(out) == 7
        assert not check_letfun_scope(parse_stage_artifact(Stage.CG, CG_LATER).payload)


# A function that nothing names, ill-typed on its own, and a function named
# at two types.
UNNAMED = """(letfun (g1) ((cabs (x) (fst (nat 1)))) (nat 3))"""
TWICE = """(letfun (g1)
                  ((cabs (x) (var x)))
                  (pair (app (var g1) (nat 1)) (app (var g1) unit)))"""


class TestTypecheckHoisted:
    """A hoisted program is typed as the cc term it unhoists to.
    TestLetfunScope pins EARLIER (nat) and LATER (g2 unbound)."""

    def _program(self, text):
        return parse_stage_artifact(Stage.HOIST, text).payload

    def test_a_function_nothing_names_is_not_typed(self):
        # It never runs: program_body drops it, which the harness reports.
        p = self._program(UNNAMED)
        with pytest.raises(TypeMismatch):
            typecheck_cc([], p.functions[0])
        assert typecheck_hoisted(p) == NAT
        assert not check_letfun_named(p)
        assert check_letfun_named(self._program(TWICE))

    def test_a_function_named_twice_is_typed_at_each_name(self):
        p = self._program(TWICE)
        assert typecheck_hoisted(p) == TProd(NAT, UNIT)


def _reversed_order(t):
    """The functions listed last first: a function names a later binder."""
    p = hoist(t)
    return Program(p.binders[::-1], p.functions[::-1], p.body)


def _swapped_stubs(t):
    """The first two functions trade binders: each stub names the other."""
    p = hoist(t)
    b = p.binders
    return Program((b[1], b[0]) + b[2:], p.functions, p.body)


def _inlined_last(t):
    """The last function is put back where its stub stood."""
    p = hoist(t)
    return Program(p.binders[:-1], p.functions[:-1],
                   subst({p.binders[-1]: p.functions[-1]}, p.body))


def _unnamed_appended(t):
    """An ill-typed function that nothing names is appended."""
    p = hoist(t)
    return Program(p.binders + ("unnamed",),
                   p.functions + (CAbs("x", Fst(NatLit(1))),), p.body)


# Each hoisting bug, and what check_preservation and check_invariants report
# on the catalogue's programs.  None of them needs a typecheck of the hoisted
# program to be reported.
HOIST_MUTANTS = {
    "renamed_params": (_renaming_hoist, {"hoist-roundtrip"},
                       {"hoist-roundtrip"}),
    "reversed_order": (_reversed_order, {"hoist-roundtrip", "cg-eval"},
                       {"hoist-roundtrip", "hoist-shape", "cg-shape",
                        "cc-step", "cg-step"}),
    "swapped_stubs": (_swapped_stubs, {"hoist-roundtrip", "cg-eval"},
                      {"hoist-roundtrip", "hoist-shape", "cg-shape",
                       "cc-step", "cg-step"}),
    "inlined_last": (_inlined_last, {"compile"}, {"compile"}),
    "unnamed_appended": (_unnamed_appended, {"hoist-roundtrip"},
                         {"hoist-roundtrip"}),
}
# Each has two functions or more, the second one nested in another.
CATALOGUE_PROGRAMS = [
    "((let x = 3 in fun (y:nat). fun (z:nat). x+y+z) 4) 5",
    "(fun (y:nat). (fun (z:nat). y+z) 1) 2",
    "let a = fun (u:nat). u in (fun (y:nat). (fun (z:nat). y+z) 1) 2",
]


@pytest.mark.parametrize("mutant", sorted(HOIST_MUTANTS))
def test_every_hoist_mutant_is_reported(monkeypatch, mutant):
    buggy, by_preservation, by_invariants = HOIST_MUTANTS[mutant]
    monkeypatch.setattr(pipeline, "hoist", buggy)
    fired_p, fired_i = set(), set()
    for text in CATALOGUE_PROGRAMS:
        t = parse_source(text)
        stages = {f.stage for f in check_preservation(t, 10_000).failures}
        assert stages, (mutant, text)
        fired_p |= stages
        fired_i |= {f.stage for f in check_invariants(t, 10_000).failures}
    assert (fired_p, fired_i) == (by_preservation, by_invariants)
