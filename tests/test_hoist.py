"""Code hoisting: flat shape, closedness, dependency plumbing, evaluation."""

import pytest

from fcomp.cc_lang import (
    CAbs, CApp, CClos, CFst, CLet, CNat, CPair, CPlus, CSnd, CVar,
    CC_NAT, CC_UNITVAL, COpen, eval_hoisted, typecheck_hoisted,
)
from fcomp.cc_pass import cc_program
from fcomp.errors import HoistEscape, UnsupportedShape
from fcomp.hoist_pass import abstract_fn, check_abs_flat, hoist
from fcomp.term import free_vars as cc_free_vars
from fcomp.source_lang import Outcome
from fcomp.surface import parse_source


def hoisted_result_nat(p, fuel=100_000):
    out = eval_hoisted(p, fuel)
    assert out.kind is Outcome.VALUE, out
    assert isinstance(out.value, CNat)
    return out.value.n


class TestBuildingBlocks:
    def test_abstract_fn_without_dependencies(self):
        closed, tup = abstract_fn("x", CVar("x"), ())
        assert tup == CC_UNITVAL
        assert isinstance(closed, CAbs)
        assert closed.body == CAbs("x", CVar("x"))
        assert cc_free_vars(closed) == frozenset()

    def test_abstract_fn_projects_dependencies(self):
        body = CApp(CVar("f1"), CApp(CVar("f2"), CVar("x")))
        closed, tup = abstract_fn("x", body, ["f1", "f2"])
        assert cc_free_vars(closed) == frozenset()
        assert tup == CPair(CVar("f1"), CPair(CVar("f2"), CC_UNITVAL))
        l = closed.binder
        # let f1 = fst l in let f2 = fst (snd l) in Abs x. body
        lets = closed.body
        assert isinstance(lets, CLet) and lets.binder == "f1"
        assert lets.bound == CFst(CVar(l))
        assert isinstance(lets.body, CLet) and lets.body.binder == "f2"
        assert lets.body.bound == CFst(CSnd(CVar(l)))
        assert lets.body.body == CAbs("x", body)


class TestHoist:
    def test_constant_program_has_no_functions(self):
        p = hoist(CPlus(CNat(1), CNat(2)))
        assert p.binders == ()
        assert p.functions == ()
        assert hoisted_result_nat(p) == 3

    def test_free_variable_is_rejected(self):
        with pytest.raises(UnsupportedShape):
            hoist(CVar("x"))

    def test_open_must_be_in_application_form(self):
        clos = CClos(CAbs("p", CNat(1)), CC_UNITVAL)
        with pytest.raises(UnsupportedShape):
            hoist(COpen(clos, "f", "e", CVar("e")))

    def test_functions_are_closed_and_flat(self):
        t = parse_source(
            "((let x = 3 in fun (y:nat). fun (z:nat). x+y+z) 4) 5"
        )
        p = hoist(cc_program(t))
        assert check_abs_flat(p)
        for fn in p.functions:
            assert cc_free_vars(fn) == frozenset()

    def test_worked_example_has_two_functions(self):
        t = parse_source(
            "((let x = 3 in fun (y:nat). fun (z:nat). x+y+z) 4) 5"
        )
        p = hoist(cc_program(t))
        assert len(p.functions) == 2
        assert hoisted_result_nat(p) == 12

    def test_nested_function_depends_on_inner(self):
        # The inner function is listed first; the outer one receives it
        # through its dependency tuple.
        t = parse_source("(fun (y:nat). (fun (z:nat). y+z) 1) 2")
        p = hoist(cc_program(t))
        assert len(p.functions) == 2
        assert hoisted_result_nat(p) == 3

    def test_dependencies_are_the_functions_extracted_from_the_body(self):
        # The program lists functions in extraction order, and a function
        # depends on exactly those extracted while its body was hoisted.
        t = parse_source(
            "let a = fun (u:nat). u in (fun (y:nat). (fun (z:nat). y+z) 1) 2"
        )
        p = hoist(cc_program(t))
        first, inner, outer = p.functions
        assert isinstance(first.body, CAbs) and isinstance(inner.body, CAbs)
        assert isinstance(outer.body, CLet)
        assert outer.body.binder == p.binders[1]
        assert isinstance(outer.body.body, CAbs)
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
            assert typecheck_hoisted(p) == CC_NAT

    def test_let_binder_may_not_escape_into_functions(self):
        # A function extracted from a let body must not mention the binder.
        bad = CLet(
            CNat(1),
            "x",
            CClos(CAbs("p", CVar("x")), CC_UNITVAL),
        )
        with pytest.raises((HoistEscape, UnsupportedShape)):
            hoist(bad)


class TestScope:
    """hoist keeps one bound set: a binder is added for its body only if it
    was not in scope, and removed only if it was added there."""

    def test_caller_bound_is_unchanged_after_success(self):
        bound = {"x"}
        hoist(CLet(CNat(1), "y", CPlus(CVar("x"), CVar("y"))), bound)
        assert bound == {"x"}

    def test_caller_bound_is_unchanged_after_unsupported_shape(self):
        bound = {"x"}
        with pytest.raises(UnsupportedShape):
            hoist(CLet(CNat(1), "x", CLet(CNat(2), "y", CVar("zz"))), bound)
        assert bound == {"x"}

    def test_shadowing_binders_keep_the_outer_binding(self):
        # The inner let and abstraction rebind x; x stays bound after them.
        inner = CPlus(
            CLet(CNat(2), "x", CVar("x")), CApp(CAbs("x", CVar("x")), CNat(3))
        )
        t = CLet(CNat(1), "x", CPlus(inner, CVar("x")))
        p = hoist(t)
        assert p.body.body.r == CVar("x")

    @pytest.mark.parametrize("scoped", [
        CLet(CNat(1), "y", CVar("y")),
        CApp(CAbs("y", CVar("y")), CNat(1)),
    ])
    def test_binder_is_out_of_scope_after_its_body(self, scoped):
        with pytest.raises(UnsupportedShape):
            hoist(CPlus(scoped, CVar("y")))
