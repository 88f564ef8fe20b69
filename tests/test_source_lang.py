"""Source language: evaluation, typing, substitution, alpha-equivalence."""

import pytest

from fcomp.errors import (
    TypeCheckError, UnboundVariable, UnresolvedTypeVariable,
)
from fcomp.source_lang import (
    NAT, UNIT, App, Fix, Fst, Ifz, Let, NatLit, Outcome, Pair, Plus, Pred,
    Snd, TArrow, TProd, UnitLit, Var, eval_src, free_vars, is_value,
    step_src, typecheck_src,
)
from fcomp.term import alpha_eq, subst
from fcomp.unify import TVar, Unifier, UnifyError, has_tvar


def nat(n):
    return NatLit(n)


def run_value(t, fuel=10_000):
    out = eval_src(t, fuel)
    assert out.kind is Outcome.VALUE, out
    return out.value


class TestEvaluation:
    def test_pred_of_zero_is_zero(self):
        assert run_value(Pred(nat(0))) == nat(0)

    def test_pred_of_successor(self):
        assert run_value(Pred(nat(5))) == nat(4)

    def test_plus(self):
        assert run_value(Plus(nat(2), nat(3))) == nat(5)

    def test_plus_left_to_right(self):
        # One step reduces the left operand first.
        t = Plus(Pred(nat(2)), Pred(nat(3)))
        assert step_src(t) == Plus(nat(1), Pred(nat(3)))

    def test_ifz_zero_takes_first_branch(self):
        assert run_value(Ifz(nat(0), nat(1), nat(2))) == nat(1)

    def test_ifz_nonzero_takes_second_branch(self):
        assert run_value(Ifz(nat(3), nat(1), nat(2))) == nat(2)

    def test_pair_projections(self):
        p = Pair(nat(1), nat(2))
        assert run_value(Fst(p)) == nat(1)
        assert run_value(Snd(p)) == nat(2)

    def test_let_binds_value(self):
        t = Let(nat(2), "x", Plus(Var("x"), Var("x")))
        assert run_value(t) == nat(4)

    def test_application_unfolds_fix(self):
        f = Fix("f", "x", NAT, NAT, Plus(Var("x"), nat(2)))
        assert run_value(App(f, nat(3))) == nat(5)

    def test_recursive_sum(self):
        body = Ifz(Var("x"), nat(0), Plus(Var("x"), App(Var("f"), Pred(Var("x")))))
        f = Fix("f", "x", NAT, NAT, body)
        assert run_value(App(f, nat(4))) == nat(10)

    def test_divergence_runs_out_of_fuel(self):
        loop = Fix("f", "x", NAT, NAT, App(Var("f"), Var("x")))
        out = eval_src(App(loop, nat(0)), 100)
        assert out.kind is Outcome.OUT_OF_FUEL
        assert out.steps == 100

    def test_stuck_application(self):
        out = eval_src(App(nat(1), nat(2)), 100)
        assert out.kind is Outcome.STUCK

    def test_values_do_not_step(self):
        for v in (nat(0), UnitLit(), Pair(nat(1), UnitLit()),
                  Fix("f", "x", NAT, NAT, Var("x"))):
            assert is_value(v)
            assert step_src(v) is None

    def test_step_is_deterministic(self):
        t = App(Fix("f", "x", NAT, NAT, Plus(Var("x"), nat(1))), Pred(nat(2)))
        while t is not None:
            assert step_src(t) == step_src(t)
            t = step_src(t)


class TestTyping:
    def test_literals(self):
        assert typecheck_src([], nat(3)) == NAT
        assert typecheck_src([], UnitLit()) == UNIT

    def test_pair_and_projections(self):
        assert typecheck_src([], Pair(nat(1), UnitLit())) == TProd(NAT, UNIT)
        assert typecheck_src([], Fst(Pair(nat(1), UnitLit()))) == NAT
        assert typecheck_src([], Snd(Pair(nat(1), UnitLit()))) == UNIT

    def test_fix_arrow_type(self):
        f = Fix("f", "x", NAT, NAT, Plus(Var("x"), nat(2)))
        assert typecheck_src([], f) == TArrow(NAT, NAT)

    def test_annotations_inferred_from_use(self):
        # No annotations on the fix, but the application pins them down.
        f = Fix("f", "x", None, None, Plus(Var("x"), nat(1)))
        assert typecheck_src([], App(f, nat(3))) == NAT

    def test_context_lookup(self):
        assert typecheck_src([("x", NAT)], Var("x")) == NAT

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            typecheck_src([], Var("x"))

    def test_plus_rejects_unit(self):
        with pytest.raises(TypeCheckError):
            typecheck_src([], Plus(nat(1), UnitLit()))

    def test_ifz_branches_must_agree(self):
        with pytest.raises(TypeCheckError):
            typecheck_src([], Ifz(nat(0), nat(1), UnitLit()))

    def test_unconstrained_fix_is_rejected(self):
        # fix f x. x with nothing pinning the argument type down.
        with pytest.raises(UnresolvedTypeVariable):
            typecheck_src([], Fix("f", "x", None, None, Var("x")))

    def test_application_argument_mismatch(self):
        f = Fix("f", "x", NAT, NAT, Var("x"))
        with pytest.raises(TypeCheckError):
            typecheck_src([], App(f, UnitLit()))


class TestUnifier:
    def shared(self, leaf, depth=20):
        """TArrow(t, t) nested depth deep: depth + 1 distinct nodes on 2 **
        (depth + 1) - 1 paths."""
        t = leaf
        for _ in range(depth):
            t = TArrow(t, t)
        return t

    def test_occurs_visits_each_shared_node_once(self):
        calls = []

        class Counting(Unifier):
            def resolve(self, ty):
                calls.append(ty)
                return super().resolve(ty)

        u = Counting()
        a, b = u.fresh(), u.fresh()
        assert not u.occurs(a, self.shared(b))
        assert u.occurs(b, self.shared(b))
        # One resolve per edge and one for the root, not one per path.
        assert len(calls) <= 2 * (2 * 20 + 1)

    def test_occurs_follows_bindings(self):
        u = Unifier()
        a, b = u.fresh(), u.fresh()
        u.unify(b, self.shared(a, 3))
        assert u.occurs(a, TProd(NAT, b))
        with pytest.raises(UnifyError):
            u.unify(a, TArrow(b, NAT))

    def test_has_tvar(self):
        assert not has_tvar(self.shared(NAT))
        assert has_tvar(self.shared(TVar(1)))
        assert has_tvar(TProd(self.shared(NAT, 3), TVar(1)))


class TestSubstitution:
    def test_simple_replacement(self):
        assert subst({"x": nat(1)}, Plus(Var("x"), Var("y"))) == Plus(
            nat(1), Var("y")
        )

    def test_no_effect_on_closed_terms(self):
        t = Let(nat(1), "x", Plus(Var("x"), nat(2)))
        assert subst({"x": nat(9), "y": nat(8)}, t) == t

    def test_shadowed_binder_blocks_substitution(self):
        t = Let(Var("x"), "x", Var("x"))
        got = subst({"x": nat(7)}, t)
        assert got == Let(nat(7), "x", Var("x"))

    def test_capture_avoidance_renames_binder(self):
        # Substituting x for y under a binder named x must rename the binder.
        t = Fix("f", "x", NAT, NAT, Plus(Var("x"), Var("y")))
        got = subst({"y": Var("x")}, t)
        assert free_vars(got) == frozenset({"x"})
        expected = Fix("f", "z", NAT, NAT, Plus(Var("z"), Var("x")))
        assert alpha_eq(got, expected)

    def test_simultaneous_swap(self):
        t = Pair(Var("x"), Var("y"))
        got = subst({"x": Var("y"), "y": Var("x")}, t)
        assert got == Pair(Var("y"), Var("x"))


class TestAlphaEq:
    def test_renamed_fix_binders(self):
        a = Fix("f", "x", NAT, NAT, App(Var("f"), Var("x")))
        b = Fix("g", "y", NAT, NAT, App(Var("g"), Var("y")))
        assert alpha_eq(a, b)

    def test_unused_self_binder_name_is_irrelevant(self):
        a = Fix("_", "x", NAT, NAT, Var("x"))
        b = Fix("h", "y", NAT, NAT, Var("y"))
        assert alpha_eq(a, b)

    def test_self_use_distinguishes(self):
        a = Fix("f", "x", NAT, NAT, App(Var("f"), Var("x")))
        b = Fix("f", "x", NAT, NAT, App(Var("x"), Var("x")))
        assert not alpha_eq(a, b)

    def test_free_variables_must_match(self):
        assert not alpha_eq(Var("x"), Var("y"))
        assert alpha_eq(Var("x"), Var("x"))

    def test_let_binder_renaming(self):
        a = Let(nat(1), "x", Plus(Var("x"), Var("z")))
        b = Let(nat(1), "y", Plus(Var("y"), Var("z")))
        assert alpha_eq(a, b)

    def test_structure_mismatch(self):
        assert not alpha_eq(nat(1), UnitLit())
        assert not alpha_eq(Let(nat(1), "x", Var("x")), nat(1))
