"""The reduction and typing rules the source and closure-converted languages
share: stuck terms, type error messages and recursion depth, pinned side by
side under both IRs' evaluators and typecheckers so that the two keep
behaving alike.  The target language steps by the same relation, without
congruence inside operations.  The relation's rule table covers every head
of the three IRs."""

import dataclasses
import sys

import pytest

from fcomp.cc_lang import CC, CAbs, CClos, COpen, eval_cc, typecheck_cc
from fcomp.cg_lang import CG, EMPTY_MEM, GLoad, GMove, step_cg
from fcomp.errors import TypeMismatch
from fcomp.source_lang import (
    NAT, RULES, SOURCE, UNITVAL, _LEAF_VALUES, App, Fix, Fst, Ifz, Let,
    NatLit, Outcome, Pair, Plus, Pred, Snd, TArrow, TProd, Var, eval_lets,
    eval_src, step_src, typecheck_src,
)
from fcomp.unify import TVar

FN = Fix("f", "x", NAT, NAT, Var("x"))
CODE = CAbs("p", Var("p"))


def _eval_cg(t, fuel):
    return eval_lets(step_cg, EMPTY_MEM, t, fuel)[0]


# (term, evaluator, step count before it is stuck).  Neither the argument of
# a stuck application nor the right operand after a non-numeral left one is
# reduced.  At cg an operand that is not a variable or a value is not
# reduced either.
STUCK = [
    (App(NatLit(1), Pred(NatLit(2))), eval_src, 0),
    (App(NatLit(1), Pred(NatLit(2))), eval_cc, 0),
    (App(Pred(NatLit(2)), Pred(NatLit(2))), eval_src, 1),
    (App(Pred(NatLit(2)), Pred(NatLit(2))), eval_cc, 1),
    (COpen(NatLit(1), "f", "e", Var("f")), eval_cc, 0),
    (Fst(NatLit(1)), eval_src, 0),
    (Fst(NatLit(1)), eval_cc, 0),
    (Let(NatLit(1), "x", Fst(Var("x"))), eval_src, 1),
    (Let(NatLit(1), "x", Fst(Var("x"))), eval_cc, 1),
    (Plus(FN, Pred(NatLit(3))), eval_src, 0),
    (Plus(CODE, Pred(NatLit(3))), eval_cc, 0),
    (Plus(CClos(CODE, UNITVAL), Pred(NatLit(3))), eval_cc, 0),
    (App(NatLit(1), NatLit(2)), _eval_cg, 0),
    (App(NatLit(1), Pred(NatLit(2))), _eval_cg, 0),
    (App(Pred(NatLit(2)), NatLit(2)), _eval_cg, 0),
    (Let(NatLit(1), "x", GLoad(Var("x"), 0)), _eval_cg, 1),
    (Let(NatLit(1), "x", GMove(Var("x"), 0, NatLit(2))), _eval_cg, 1),
    (Plus(CODE, Pred(NatLit(3))), _eval_cg, 0),
    (Plus(CODE, NatLit(3)), _eval_cg, 0),
    (Let(App(CODE, Var("y")), "x", Var("x")), _eval_cg, 0),
    # A value with a head its rule does not take, at each guarded child.
    (Pred(FN), eval_src, 0),
    (Ifz(FN, NatLit(1), NatLit(2)), eval_src, 0),
    (Snd(NatLit(1)), eval_src, 0),
    (COpen(CODE, "f", "e", Var("f")), eval_cc, 0),
    # A stuck child is not passed: the children after it are not reduced.
    (Pair(Fst(NatLit(1)), Pred(NatLit(2))), eval_src, 0),
    (CClos(Fst(NatLit(1)), Pred(NatLit(2))), eval_cc, 0),
    (CClos(CODE, Fst(NatLit(1))), eval_cc, 0),
]


@pytest.mark.parametrize("t, evaluate, steps", STUCK)
def test_stuck_outcome_and_step_count(t, evaluate, steps):
    out = evaluate(t, 100)
    assert out.kind is Outcome.STUCK
    assert out.steps == steps
    if steps == 0:
        assert out.value == t


# The ids name each IR as the suite always has.
@pytest.mark.parametrize(
    "ir", [SOURCE, CC, CG], ids=["SrcTerm", "CCTerm", "CgTerm"]
)
def test_the_rule_table_covers_every_head(ir):
    # The engine reads the i-th evaluated child as field i of the node.  A
    # constructor added without a rule would be silently stuck.
    for h, (kids, _) in RULES.items():
        cls = ir.family._heads.get(h)
        if h in ir.heads and cls is not None:
            fields = [f.name for f in dataclasses.fields(cls)]
            children = [f for f, _ in cls._children]
            for i, (f, _) in enumerate(kids):
                assert f in children and fields[i] == f, (cls, f)
    own = {"var"} | ({"alloc", "move", "load"} if ir is CG else set())
    for h in ir.heads:
        assert h in RULES or h in _LEAF_VALUES or h in own, (ir, h)


@pytest.mark.parametrize("t, typecheck, message", [
    (App(NatLit(1), NatLit(2)), typecheck_src,
     "type mismatch at App(fn=NatLit(n=1), arg=NatLit(n=2)): "
     "expected nat -> ?1, got nat"),
    (App(NatLit(1), NatLit(2)), typecheck_cc,
     "type mismatch at App(fn=NatLit(n=1), arg=NatLit(n=2)): "
     "expected (nat => ?1), got nat"),
    (Fst(NatLit(1)), typecheck_src,
     "type mismatch at NatLit(n=1): expected ?1 * ?2, got nat"),
    (Fst(NatLit(1)), typecheck_cc,
     "type mismatch at NatLit(n=1): expected ?1 * ?2, got nat"),
])
def test_type_mismatch_message(t, typecheck, message):
    with pytest.raises(TypeMismatch) as e:
        typecheck([], t)
    assert str(e.value) == message


@pytest.mark.parametrize("build, text", [
    (lambda arrow, prod, nat: arrow(arrow(nat, nat), nat), "(nat -> nat) -> nat"),
    (lambda arrow, prod, nat: arrow(nat, arrow(nat, TVar(1))), "nat -> nat -> ?1"),
    (lambda arrow, prod, nat: prod(prod(nat, TVar(1)), arrow(nat, nat)),
     "(nat * ?1) * (nat -> nat)"),
])
def test_a_shared_type_prints_alike_in_both_languages(build, text):
    # The closure-converted language's closure arrow, products and nat are
    # the source types.
    assert str(build(TArrow, TProd, NAT)) == text


def _chain(plus, nat, depth):
    t = nat(1)
    for _ in range(depth):
        t = plus(t, nat(1))
    return t


@pytest.mark.parametrize("plus, nat, typecheck, step", [
    (Plus, NatLit, typecheck_src, step_src),
    (Plus, NatLit, typecheck_cc, step_src),
])
def test_depth_of_a_2000_deep_chain(plus, nat, typecheck, step):
    # Two Python frames per level to typecheck, one to step.
    t = _chain(plus, nat, 2000)
    old = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(4100)
        assert str(typecheck([], t)) == "nat"
        sys.setrecursionlimit(2100)
        assert step(t) is not None
    finally:
        sys.setrecursionlimit(old)
