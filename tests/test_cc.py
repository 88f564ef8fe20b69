"""Closure conversion: helpers, output shape, typing, and evaluation."""

import pytest

from fcomp.cc_lang import (
    CAbs, CApp, CClos, CFst, CLet, CNat, COpen, CPair, CPlus, CSnd,
    CVar, CC_NAT, CC_UNITVAL, ClosArrow,
    cc_is_value, eval_cc, step_cc, typecheck_cc,
)
from fcomp.term import alpha_eq as cc_alpha_eq
from fcomp.term import free_vars as cc_free_vars
from fcomp.term import subst as cc_subst
from fcomp.cc_pass import cc_program, cc_transform, combine, fvars, map_env, map_var
from fcomp.errors import (
    NonEmptyClosureContext, RigidEscape, TypeCheckError, UntrackedVariable,
)
from fcomp.fresh import FreshSupply
from fcomp.source_lang import NAT, Fix, NatLit, Outcome, Plus, Var, eval_src
from fcomp.surface import parse_source


def cc_result_nat(t, fuel=100_000):
    out = eval_cc(t, fuel)
    assert out.kind is Outcome.VALUE, out
    assert isinstance(out.value, CNat)
    return out.value.n


class TestHelpers:
    def test_combine_keeps_left_novelty_then_right(self):
        assert combine([1, 2, 3], [2, 4]) == [1, 3, 2, 4]
        assert combine([], [1]) == [1]
        assert combine([1], []) == [1]

    def test_fvars_orders_by_combine(self):
        t = Plus(Var("a"), Plus(Var("b"), Var("a")))
        assert fvars(t, ["a", "b"]) == ["b", "a"]

    def test_fvars_respects_binders(self):
        t = Fix("f", "x", NAT, NAT, Plus(Var("x"), Var("y")))
        assert fvars(t, ["y"]) == ["y"]
        assert fvars(t, ["x", "y"]) == ["y"]

    def test_fvars_rejects_untracked(self):
        with pytest.raises(UntrackedVariable):
            fvars(Var("z"), ["a"])

    def test_map_env_builds_unit_ended_tuple(self):
        env = map_env(["x", "y"], {"x": CNat(1), "y": CNat(2)})
        assert env == CPair(CNat(1), CPair(CNat(2), CC_UNITVAL))
        assert map_env([], {}) == CC_UNITVAL

    def test_map_var_projects_positionally(self):
        rho = dict(map_var(["x", "y"])(CVar("e")))
        assert rho["x"] == CFst(CVar("e"))
        assert rho["y"] == CFst(CSnd(CVar("e")))

    def test_map_env_map_var_roundtrip(self):
        # Projecting the built environment yields each image back.
        env = map_env(["x", "y"], {"x": CNat(7), "y": CNat(8)})
        rho = dict(map_var(["x", "y"])(env))
        out = eval_cc(rho["x"], 100)
        assert out.value == CNat(7)
        out = eval_cc(rho["y"], 100)
        assert out.value == CNat(8)


class TestTransform:
    def test_fix_becomes_closure_with_env(self):
        # A function with one free variable captures it in the environment.
        t = Fix("f", "x", NAT, NAT, Plus(Var("x"), Var("y")))
        got = cc_transform({"y": CNat(3)}, ["y"], t, FreshSupply())
        assert isinstance(got, CClos)
        assert got.env == CPair(CNat(3), CC_UNITVAL)
        assert cc_free_vars(got.code) == frozenset()

    def test_closed_fix_has_unit_env(self):
        t = Fix("f", "x", NAT, NAT, Plus(Var("x"), NatLit(2)))
        got = cc_program(t)
        assert isinstance(got, CClos)
        assert got.env == CC_UNITVAL

    def test_application_opens_closure(self):
        t = parse_source("(fix f (x:nat):nat. x + 2) 3")
        got = cc_program(t)
        assert isinstance(got, CLet)
        opened = got.body
        assert isinstance(opened, COpen)
        assert opened.scrutinee == CVar(got.binder)
        call = opened.body
        assert isinstance(call, CApp)
        assert call.fn == CVar(opened.fbinder)
        # Triple (closure, argument, environment) as raw nested pairs.
        assert call.arg == CPair(
            CVar(got.binder), CPair(CNat(3), CVar(opened.ebinder))
        )

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pred 0", 0),
            ("let x = 2 in x + x", 4),
            ("(fix f (x:nat):nat. x + 2) 3", 5),
            ("let y = 1 in (fix f (x:nat):nat. x + y) 2", 3),
            ("((let x = 3 in fun (y:nat). fun (z:nat). x+y+z) 4) 5", 12),
            ("(fix f (x:nat):nat. ifz x then 0 else x + f (pred x)) 3", 6),
        ],
    )
    def test_value_agreement_with_source(self, text, expected):
        t = parse_source(text)
        src_out = eval_src(t, 100_000)
        assert src_out.value == NatLit(expected)
        assert cc_result_nat(cc_program(t)) == expected

    def test_closure_code_parts_closed_everywhere(self):
        from fcomp.harness import _closure_code_closed

        t = parse_source(
            "let a = 2 in let b = 3 in (fix f (x:nat):nat. x + a + b) (a + b)"
        )
        assert _closure_code_closed(cc_program(t))


class TestTyping:
    def test_type_is_preserved_at_nat(self):
        for text in (
            "(fix f (x:nat):nat. x + 2) 3",
            "((let x = 3 in fun (y:nat). fun (z:nat). x+y+z) 4) 5",
        ):
            got = cc_program(parse_source(text))
            assert typecheck_cc([], got) == CC_NAT

    def test_closure_types_as_clos_arrow(self):
        got = cc_program(parse_source("fix f (x:nat):nat. x + 2"))
        assert typecheck_cc([], got) == ClosArrow(CC_NAT, CC_NAT)

    def test_code_part_alone_is_underdetermined(self):
        # The code's self and environment types are only pinned down by the
        # enclosing closure rule; standalone inference cannot ground them.
        from fcomp.errors import UnresolvedTypeVariable

        got = cc_program(parse_source("fix f (x:nat):nat. x + 2"))
        with pytest.raises(UnresolvedTypeVariable):
            typecheck_cc([], got.code)

    def test_open_code_is_rejected(self):
        bad = CClos(CAbs("p", CVar("q")), CC_UNITVAL)
        with pytest.raises(NonEmptyClosureContext):
            typecheck_cc([("q", CC_NAT)], bad)

    def test_environment_type_cannot_escape(self):
        ctx = [("c", ClosArrow(CC_NAT, CC_NAT))]
        leak = COpen(CVar("c"), "f", "e", CVar("e"))
        with pytest.raises(RigidEscape):
            typecheck_cc(ctx, leak)

    def test_rigid_unifies_only_with_itself(self):
        ctx = [("c", ClosArrow(CC_NAT, CC_NAT))]
        # Using the opened environment where a nat is needed fails.
        bad = COpen(CVar("c"), "f", "e", CPlus(CVar("e"), CNat(1)))
        with pytest.raises(TypeCheckError):
            typecheck_cc(ctx, bad)


class TestEvaluation:
    def test_open_substitutes_both_components(self):
        code = CAbs("p", CFst(CVar("p")))
        clos = CClos(code, CPair(CNat(1), CC_UNITVAL))
        t = COpen(clos, "f", "e", CPair(CVar("f"), CVar("e")))
        assert step_cc(t) == CPair(code, CPair(CNat(1), CC_UNITVAL))

    def test_values(self):
        assert cc_is_value(CClos(CAbs("p", CVar("p")), CC_UNITVAL))
        assert not cc_is_value(CFst(CPair(CNat(1), CNat(2))))

    def test_subst_avoids_capture(self):
        t = CAbs("x", CPlus(CVar("x"), CVar("y")))
        got = cc_subst({"y": CVar("x")}, t)
        assert cc_free_vars(got) == frozenset({"x"})
        assert cc_alpha_eq(got, CAbs("z", CPlus(CVar("z"), CVar("x"))))

    def test_alpha_eq_on_open(self):
        a = COpen(CVar("c"), "f", "e", CApp(CVar("f"), CVar("e")))
        b = COpen(CVar("c"), "g", "h", CApp(CVar("g"), CVar("h")))
        assert cc_alpha_eq(a, b)
        assert not cc_alpha_eq(a, COpen(CVar("c"), "f", "e", CVar("f")))
