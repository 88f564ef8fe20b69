"""The reduction and typing rules the source and closure-converted languages
share: stuck terms, type error messages and recursion depth, pinned side by
side in both IRs so that the two keep behaving alike.  The target language
steps by the same relation, without congruence inside operations.  The
relation's rule table covers every head of the three IRs."""

import dataclasses
import sys

import pytest

from fcomp.cc_lang import (
    CAbs, CApp, CClos, CFst, CLet, CNat, COpen, CPlus, CPred, CVar,
    CC_NAT, CC_UNITVAL, CCProd, CCTerm, ClosArrow, eval_cc, typecheck_cc,
)
from fcomp.cg_lang import (
    EMPTY_MEM, GAbs, GApp, GLet, GLoad, GMove, GNat, GPlus, GPred, GVar,
    CgTerm, step_cg,
)
from fcomp.errors import TypeMismatch
from fcomp.source_lang import (
    NAT, RULES, _LEAF_VALUES, App, Fix, Fst, Ifz, Let, NatLit, Outcome, Pair,
    Plus, Pred, Snd, SrcTerm, TArrow, TProd, Var, eval_lets, eval_src,
    step_src, typecheck_src,
)
from fcomp.unify import TVar

FN = Fix("f", "x", NAT, NAT, Var("x"))
CODE = CAbs("p", CVar("p"))
G_CODE = GAbs("p", GVar("p"))


def _eval_cg(t, fuel):
    return eval_lets(step_cg, EMPTY_MEM, t, fuel)[0]


# (term, evaluator, step count before it is stuck).  Neither the argument of
# a stuck application nor the right operand after a non-numeral left one is
# reduced.  At cg an operand that is not a variable or a value is not
# reduced either.
STUCK = [
    (App(NatLit(1), Pred(NatLit(2))), eval_src, 0),
    (CApp(CNat(1), CPred(CNat(2))), eval_cc, 0),
    (App(Pred(NatLit(2)), Pred(NatLit(2))), eval_src, 1),
    (CApp(CPred(CNat(2)), CPred(CNat(2))), eval_cc, 1),
    (COpen(CNat(1), "f", "e", CVar("f")), eval_cc, 0),
    (Fst(NatLit(1)), eval_src, 0),
    (CFst(CNat(1)), eval_cc, 0),
    (Let(NatLit(1), "x", Fst(Var("x"))), eval_src, 1),
    (CLet(CNat(1), "x", CFst(CVar("x"))), eval_cc, 1),
    (Plus(FN, Pred(NatLit(3))), eval_src, 0),
    (CPlus(CODE, CPred(CNat(3))), eval_cc, 0),
    (CPlus(CClos(CODE, CC_UNITVAL), CPred(CNat(3))), eval_cc, 0),
    (GApp(GNat(1), GNat(2)), _eval_cg, 0),
    (GApp(GNat(1), GPred(GNat(2))), _eval_cg, 0),
    (GApp(GPred(GNat(2)), GNat(2)), _eval_cg, 0),
    (GLet(GNat(1), "x", GLoad(GVar("x"), 0)), _eval_cg, 1),
    (GLet(GNat(1), "x", GMove(GVar("x"), 0, GNat(2))), _eval_cg, 1),
    (GPlus(G_CODE, GPred(GNat(3))), _eval_cg, 0),
    (GPlus(G_CODE, GNat(3)), _eval_cg, 0),
    (GLet(GApp(G_CODE, GVar("y")), "x", GVar("x")), _eval_cg, 0),
    # A value with a head its rule does not take, at each guarded child.
    (Pred(FN), eval_src, 0),
    (Ifz(FN, NatLit(1), NatLit(2)), eval_src, 0),
    (Snd(NatLit(1)), eval_src, 0),
    (COpen(CODE, "f", "e", CVar("f")), eval_cc, 0),
    # A stuck child is not passed: the children after it are not reduced.
    (Pair(Fst(NatLit(1)), Pred(NatLit(2))), eval_src, 0),
    (CClos(CFst(CNat(1)), CPred(CNat(2))), eval_cc, 0),
    (CClos(CODE, CFst(CNat(1))), eval_cc, 0),
]


@pytest.mark.parametrize("t, evaluate, steps", STUCK)
def test_stuck_outcome_and_step_count(t, evaluate, steps):
    out = evaluate(t, 100)
    assert out.kind is Outcome.STUCK
    assert out.steps == steps
    if steps == 0:
        assert out.value == t


@pytest.mark.parametrize("base", [SrcTerm, CCTerm, CgTerm])
def test_the_rule_table_covers_every_head(base):
    # The engine reads the i-th evaluated child as field i of the node.  A
    # constructor added without a rule would be silently stuck.
    for h, (kids, _) in RULES.items():
        cls = base._heads.get(h)
        if cls is not None:
            fields = [f.name for f in dataclasses.fields(cls)]
            children = [f for f, _ in cls._children]
            for i, (f, _) in enumerate(kids):
                assert f in children and fields[i] == f, (cls, f)
    own = {"var"} | ({"alloc", "move", "load"} if base is CgTerm else set())
    for h in {*base._heads, *base._atoms}:
        assert h in RULES or h in _LEAF_VALUES or h in own, (base, h)


@pytest.mark.parametrize("t, typecheck, message", [
    (App(NatLit(1), NatLit(2)), typecheck_src,
     "type mismatch at App(fn=NatLit(n=1), arg=NatLit(n=2)): "
     "expected nat -> ?1, got nat"),
    (CApp(CNat(1), CNat(2)), typecheck_cc,
     "type mismatch at CApp(fn=CNat(n=1), arg=CNat(n=2)): "
     "expected (nat => ?1), got nat"),
    (Fst(NatLit(1)), typecheck_src,
     "type mismatch at NatLit(n=1): expected ?1 * ?2, got nat"),
    (CFst(CNat(1)), typecheck_cc,
     "type mismatch at CNat(n=1): expected ?1 * ?2, got nat"),
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
    assert str(build(TArrow, TProd, NAT)) == text
    assert str(build(ClosArrow, CCProd, CC_NAT)) == text


def _chain(plus, nat, depth):
    t = nat(1)
    for _ in range(depth):
        t = plus(t, nat(1))
    return t


@pytest.mark.parametrize("plus, nat, typecheck, step", [
    (Plus, NatLit, typecheck_src, step_src),
    (CPlus, CNat, typecheck_cc, step_src),
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
