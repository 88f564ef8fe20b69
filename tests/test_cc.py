"""Closure conversion: helpers, output shape, typing, and evaluation."""

import pytest

from fcomp.cc_lang import CAbs, CClos, COpen, eval_cc, typecheck_cc
from fcomp.term import alpha_eq as cc_alpha_eq
from fcomp.term import free_vars as cc_free_vars
from fcomp.term import subst as cc_subst
from fcomp.cc_pass import cc_program, cc_transform, fvars, map_env, map_var
from fcomp.errors import (
    MissingMapping, NonEmptyClosureContext, RigidEscape, TypeCheckError,
    UntrackedVariable,
)
from fcomp.fresh import FreshSupply
from fcomp.source_lang import (
    NAT, UNITVAL, App, Fix, Fst, Let, NatLit, Outcome, Pair, Plus, Snd,
    TArrow, Var, eval_src, is_value, step_src,
)
from fcomp.surface import parse_source


def cc_result_nat(t, fuel=100_000):
    out = eval_cc(t, fuel)
    assert out.kind is Outcome.VALUE, out
    assert isinstance(out.value, NatLit)
    return out.value.n


class TestHelpers:
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
        env = map_env(["x", "y"], {"x": NatLit(1), "y": NatLit(2)})
        assert env == Pair(NatLit(1), Pair(NatLit(2), UNITVAL))
        assert map_env([], {}) == UNITVAL

    def test_map_var_projects_positionally(self):
        rho = map_var(["x", "y"], Var("e"))
        assert rho["x"] == Fst(Var("e"))
        assert rho["y"] == Fst(Snd(Var("e")))

    def test_map_env_map_var_roundtrip(self):
        # Projecting the built environment yields each image back.
        env = map_env(["x", "y"], {"x": NatLit(7), "y": NatLit(8)})
        rho = map_var(["x", "y"], env)
        out = eval_cc(rho["x"], 100)
        assert out.value == NatLit(7)
        out = eval_cc(rho["y"], 100)
        assert out.value == NatLit(8)


class TestTransform:
    def test_fix_becomes_closure_with_env(self):
        # A function with one free variable captures it in the environment.
        t = Fix("f", "x", NAT, NAT, Plus(Var("x"), Var("y")))
        got = cc_transform({"y": NatLit(3)}, t, FreshSupply())
        assert isinstance(got, CClos)
        assert got.env == Pair(NatLit(3), UNITVAL)
        assert cc_free_vars(got.code) == frozenset()

    def test_closed_fix_has_unit_env(self):
        t = Fix("f", "x", NAT, NAT, Plus(Var("x"), NatLit(2)))
        got = cc_program(t)
        assert isinstance(got, CClos)
        assert got.env == UNITVAL

    def test_application_opens_closure(self):
        t = parse_source("(fix f (x:nat):nat. x + 2) 3")
        got = cc_program(t)
        assert isinstance(got, Let)
        opened = got.body
        assert isinstance(opened, COpen)
        assert opened.scrutinee == Var(got.binder)
        call = opened.body
        assert isinstance(call, App)
        assert call.fn == Var(opened.fbinder)
        # Triple (closure, argument, environment) as raw nested pairs.
        assert call.arg == Pair(
            Var(got.binder), Pair(NatLit(3), Var(opened.ebinder))
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


class TestScope:
    """cc_transform copies rho once and restores it after every binder."""

    def test_caller_rho_is_unchanged_after_success(self):
        rho = {"y": NatLit(3), "w": NatLit(4)}
        t = Let(NatLit(1), "y", Let(Var("w"), "v", Plus(Var("y"), Var("v"))))
        cc_transform(rho, t, FreshSupply())
        assert rho == {"y": NatLit(3), "w": NatLit(4)}

    def test_caller_rho_is_unchanged_after_missing_mapping(self):
        rho = {"y": NatLit(3)}
        t = Let(NatLit(1), "y", Let(NatLit(2), "v", Var("zz")))
        with pytest.raises(MissingMapping):
            cc_transform(rho, t, FreshSupply())
        assert rho == {"y": NatLit(3)}

    def test_shadowing_let_restores_the_outer_mapping(self):
        t = Plus(Let(NatLit(5), "x", Var("x")), Var("x"))
        got = cc_transform({"x": NatLit(1)}, t, FreshSupply())
        assert isinstance(got.l, Let) and got.l.body == Var(got.l.binder)
        assert got.r == NatLit(1)

    def test_closure_after_shadowing_let_captures_the_outer_mapping(self):
        fn = Fix("f", "a", NAT, NAT, Plus(Var("a"), Var("x")))
        t = Plus(Let(NatLit(5), "x", Var("x")), App(fn, NatLit(0)))
        got = cc_transform({"x": NatLit(1)}, t, FreshSupply())
        assert got.r.bound.env == Pair(NatLit(1), UNITVAL)

    def test_let_binder_is_out_of_scope_after_its_body(self):
        t = Plus(Let(NatLit(5), "z", Var("z")), Var("z"))
        with pytest.raises(MissingMapping):
            cc_transform({}, t, FreshSupply())


class TestTyping:
    def test_type_is_preserved_at_nat(self):
        for text in (
            "(fix f (x:nat):nat. x + 2) 3",
            "((let x = 3 in fun (y:nat). fun (z:nat). x+y+z) 4) 5",
        ):
            got = cc_program(parse_source(text))
            assert typecheck_cc([], got) == NAT

    def test_closure_types_as_clos_arrow(self):
        got = cc_program(parse_source("fix f (x:nat):nat. x + 2"))
        assert typecheck_cc([], got) == TArrow(NAT, NAT)

    def test_code_part_alone_is_underdetermined(self):
        # The code's self and environment types are only pinned down by the
        # enclosing closure rule; standalone inference cannot ground them.
        from fcomp.errors import UnresolvedTypeVariable

        got = cc_program(parse_source("fix f (x:nat):nat. x + 2"))
        with pytest.raises(UnresolvedTypeVariable):
            typecheck_cc([], got.code)

    def test_open_code_is_rejected(self):
        bad = CClos(CAbs("p", Var("q")), UNITVAL)
        with pytest.raises(NonEmptyClosureContext):
            typecheck_cc([("q", NAT)], bad)

    def test_environment_type_cannot_escape(self):
        ctx = [("c", TArrow(NAT, NAT))]
        leak = COpen(Var("c"), "f", "e", Var("e"))
        with pytest.raises(RigidEscape):
            typecheck_cc(ctx, leak)

    def test_rigid_tags_are_numbered_per_run(self):
        leak = COpen(CClos(CAbs("p", Snd(Snd(Var("p")))), NatLit(1)),
                     "f", "e", Var("e"))
        messages = []
        for _ in range(2):
            with pytest.raises(RigidEscape) as e:
                typecheck_cc([], leak)
            messages.append(str(e.value))
        assert messages[0] == messages[1]

    def test_rigid_unifies_only_with_itself(self):
        ctx = [("c", TArrow(NAT, NAT))]
        # Using the opened environment where a nat is needed fails.
        bad = COpen(Var("c"), "f", "e", Plus(Var("e"), NatLit(1)))
        with pytest.raises(TypeCheckError):
            typecheck_cc(ctx, bad)


class TestEvaluation:
    def test_open_substitutes_both_components(self):
        code = CAbs("p", Fst(Var("p")))
        clos = CClos(code, Pair(NatLit(1), UNITVAL))
        t = COpen(clos, "f", "e", Pair(Var("f"), Var("e")))
        assert step_src(t) == Pair(code, Pair(NatLit(1), UNITVAL))

    def test_values(self):
        assert is_value(CClos(CAbs("p", Var("p")), UNITVAL))
        assert not is_value(Fst(Pair(NatLit(1), NatLit(2))))

    def test_subst_avoids_capture(self):
        t = CAbs("x", Plus(Var("x"), Var("y")))
        got = cc_subst({"y": Var("x")}, t)
        assert cc_free_vars(got) == frozenset({"x"})
        assert cc_alpha_eq(got, CAbs("z", Plus(Var("z"), Var("x"))))

    def test_alpha_eq_on_open(self):
        a = COpen(Var("c"), "f", "e", App(Var("f"), Var("e")))
        b = COpen(Var("c"), "g", "h", App(Var("g"), Var("h")))
        assert cc_alpha_eq(a, b)
        assert not cc_alpha_eq(a, COpen(Var("c"), "f", "e", Var("f")))
