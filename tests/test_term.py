"""The term core: every constructor of every IR through free variables,
substitution and the s-expression round trip, plus deep terms."""

import pytest

from fcomp import cc_lang as cc
from fcomp import cg_lang as cg
from fcomp import sexpr
from fcomp import source_lang as src
from fcomp.term import all_names, alpha_eq, free_vars, subst

S, C, G = src, cc, cg

# One sample per constructor; x is free in every sample that has a child.
SOURCE = [
    S.NatLit(3), S.Var("x"), S.UnitLit(), S.Pred(S.Var("x")),
    S.Plus(S.Var("x"), S.NatLit(1)),
    S.Ifz(S.Var("x"), S.NatLit(0), S.Var("z")),
    S.Pair(S.Var("x"), S.UnitLit()), S.Fst(S.Var("x")), S.Snd(S.Var("x")),
    S.Let(S.Var("x"), "y", S.Plus(S.Var("y"), S.Var("x"))),
    S.Fix("f", "y", S.NAT, None, S.App(S.Var("f"), S.Plus(S.Var("y"), S.Var("x")))),
    S.App(S.Var("x"), S.Var("z")),
]
CC = [
    C.CNat(3), C.CVar("x"), C.CUnit(), C.CPred(C.CVar("x")),
    C.CPlus(C.CVar("x"), C.CNat(1)),
    C.CIfz(C.CVar("x"), C.CNat(0), C.CVar("z")),
    C.CPair(C.CVar("x"), C.CUnit()), C.CFst(C.CVar("x")), C.CSnd(C.CVar("x")),
    C.CLet(C.CVar("x"), "y", C.CPlus(C.CVar("y"), C.CVar("x"))),
    C.CAbs("y", C.CPair(C.CVar("y"), C.CVar("x"))),
    C.CClos(C.CAbs("y", C.CVar("y")), C.CVar("x")),
    C.COpen(
        C.CVar("z"), "f", "e", C.CApp(C.CVar("f"), C.CPair(C.CVar("e"), C.CVar("x")))
    ),
    C.CApp(C.CVar("x"), C.CVar("z")),
]
CG = [
    G.GNat(3), G.GVar("x"), G.GUnit(), G.GLoc(2), G.GPred(G.GVar("x")),
    G.GPlus(G.GVar("x"), G.GNat(1)),
    G.GIfz(G.GVar("x"), G.GNat(0), G.GVar("z")),
    G.GApp(G.GVar("x"), G.GVar("z")), G.GAlloc(2),
    G.GMove(G.GVar("z"), 1, G.GVar("x")), G.GLoad(G.GVar("x"), 1),
    G.GLet(G.GVar("x"), "y", G.GPlus(G.GVar("y"), G.GVar("x"))),
    G.GAbs("y", G.GPlus(G.GVar("y"), G.GVar("x"))),
]
IRS = [
    (src.SrcTerm, src.Var, SOURCE, sexpr.src_to_sexpr, sexpr.src_from_sexpr),
    (cc.CCTerm, cc.CVar, CC, sexpr.cc_to_sexpr, sexpr.cc_from_sexpr),
    (cg.CgTerm, cg.GVar, CG, sexpr.cg_to_sexpr, sexpr.cg_from_sexpr),
]
IR_IDS = ["source", "cc", "cg"]
SAMPLES = [(ir[1], ir[3], ir[4], t) for ir in IRS for t in ir[2]]
SAMPLE_IDS = [type(sample[3]).__name__ for sample in SAMPLES]


@pytest.mark.parametrize("base, var, samples, to_sexpr, from_sexpr", IRS, ids=IR_IDS)
def test_every_constructor_has_a_sample(base, var, samples, to_sexpr, from_sexpr):
    assert {type(t) for t in samples} == set(base.__subclasses__())


@pytest.mark.parametrize("var, to_sexpr, from_sexpr, t", SAMPLES, ids=SAMPLE_IDS)
def test_sexpr_roundtrip(var, to_sexpr, from_sexpr, t):
    text = sexpr.render(to_sexpr(t))
    assert from_sexpr(sexpr.read_sexpr(text)) == t


@pytest.mark.parametrize("var, to_sexpr, from_sexpr, t", SAMPLES, ids=SAMPLE_IDS)
def test_free_vars_and_substitution(var, to_sexpr, from_sexpr, t):
    fv = free_vars(t)
    assert fv <= {"x", "z"}
    assert ("x" in fv) == (type(t).__name__ not in (
        "NatLit", "UnitLit", "CNat", "CUnit", "GNat", "GUnit", "GLoc", "GAlloc",
    ))
    assert subst({"x": var("x")}, t) == t
    # A closed image removes x; an image named like a binder must not be
    # captured by it, so it stays free.
    assert free_vars(subst({"x": to_closed(t)}, t)) == fv - {"x"}
    for b in ("y", "f", "e"):
        got = subst({"x": var(b)}, t)
        assert free_vars(got) == (fv - {"x"}) | ({b} if "x" in fv else set())
        assert all_names(got) >= free_vars(got)


def to_closed(t):
    return {src.SrcTerm: src.NatLit(7), cc.CCTerm: cc.CNat(7), cg.CgTerm: cg.GNat(7)}[
        type(t).__mro__[1]
    ]


def test_substitution_renames_a_capturing_binder():
    t = cc.COpen(cc.CVar("c"), "f", "e", cc.CApp(cc.CVar("f"), cc.CVar("x")))
    got = subst({"x": cc.CVar("f")}, t)
    assert got == cc.COpen(
        cc.CVar("c"), "f_1", "e", cc.CApp(cc.CVar("f_1"), cc.CVar("f"))
    )
    t = cg.GAbs("y", cg.GPlus(cg.GVar("y"), cg.GVar("x")))
    assert subst({"x": cg.GVar("y")}, t) == cg.GAbs(
        "y_1", cg.GPlus(cg.GVar("y_1"), cg.GVar("y"))
    )


def test_alpha_eq_ignores_fix_annotations():
    body = src.Plus(src.Var("x"), src.App(src.Var("f"), src.Var("x")))
    annotated = src.Fix("f", "x", src.NAT, src.NAT, body)
    assert alpha_eq(annotated, src.Fix("f", "x", None, None, body))
    assert alpha_eq(annotated, src.Fix("g", "y", None, src.NAT, subst(
        {"f": src.Var("g"), "x": src.Var("y")}, body)))


def test_alpha_eq_compares_numerals_and_levels():
    assert alpha_eq(cg.GLoad(cg.GVar("x"), 1), cg.GLoad(cg.GVar("x"), 1))
    assert not alpha_eq(cg.GLoad(cg.GVar("x"), 1), cg.GLoad(cg.GVar("x"), 0))
    a = cc.CLet(cc.CNat(1), "y", cc.CAbs("z", cc.CVar("y")))
    b = cc.CLet(cc.CNat(1), "y", cc.CAbs("z", cc.CVar("z")))
    assert not alpha_eq(a, b)


DEPTH = 15_000


@pytest.mark.parametrize("base, var, samples, to_sexpr, from_sexpr", IRS, ids=IR_IDS)
def test_deep_plus_chain(base, var, samples, to_sexpr, from_sexpr):
    """Free variables, substitution and the s-expression conversions return
    on a 15,000-deep chain (they recurse in Python, not through C)."""
    plus = next(type(u) for u in samples if type(u).__name__.endswith("Plus"))
    nat = type(samples[0])
    t = var("x")
    for _ in range(DEPTH):
        t = plus(t, nat(1))
    assert free_vars(t) == {"x"}
    back = from_sexpr(to_sexpr(subst({"x": nat(2)}, t)))
    for _ in range(DEPTH):
        assert type(back) is plus and back.r == nat(1)
        back = back.l
    assert back == nat(2)
