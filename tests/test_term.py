"""The term core: every constructor of every IR through free variables,
substitution and the s-expression round trip, plus deep terms."""

import contextlib
import dataclasses
import functools
import gc
import itertools
import pickle
import sys

import pytest
from test_golden import corpus  # the golden table's inputs

from fcomp import cc_lang as cc
from fcomp import cg_lang as cg
from fcomp import sexpr
from fcomp import source_lang as src
from fcomp import term
from fcomp.harness import GenConfig, ProgramGen
from fcomp.pipeline import compile_stages
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
    (base, var, samples, term.to_sexpr, functools.partial(term.from_sexpr, base))
    for base, var, samples in (
        (src.SrcTerm, src.Var, SOURCE), (cc.CCTerm, cc.CVar, CC),
        (cg.CgTerm, cg.GVar, CG),
    )
]
IR_IDS = ["source", "cc", "cg"]
SAMPLES = [(ir[1], ir[3], ir[4], t) for ir in IRS for t in ir[2]]
SAMPLE_IDS = [type(sample[3]).__name__ for sample in SAMPLES]


@pytest.mark.parametrize("base, var, samples, to_sexpr, from_sexpr", IRS, ids=IR_IDS)
def test_every_constructor_has_a_sample(base, var, samples, to_sexpr, from_sexpr):
    # The class each @node was given stays among its base's subclasses
    # until the cyclic collector frees it.
    gc.collect()
    assert {type(t) for t in samples} == set(base.__subclasses__())


@pytest.mark.parametrize("var, to_sexpr, from_sexpr, t", SAMPLES, ids=SAMPLE_IDS)
def test_sexpr_roundtrip(var, to_sexpr, from_sexpr, t):
    text = sexpr.render(to_sexpr(t))
    assert from_sexpr(sexpr.read_sexpr(text)) == t


# Every node class of every IR base, from the tables the reader uses.
NODE_BASES = [src.SrcTerm, cc.CCTerm, cg.CgTerm, src.SrcType, cc.CCType]
NODES = [
    (base, cls)
    for base in NODE_BASES
    for cls in [*base._heads.values(), *map(type, base._atoms.values())]
]


@pytest.mark.parametrize(
    "base, cls", NODES, ids=[f"{b.__name__}.{c.__name__}" for b, c in NODES]
)
def test_every_node_roundtrips_and_is_a_dataclass(base, cls):
    """Built from its own description (an atom of its IR for each child),
    each node reads back as itself, and dataclasses.fields and replace, which
    the benchmark's node count and the shrinker use, see the same fields.
    The node is slot-backed and behaves as a frozen dataclass would."""
    atom = next(iter(base._atoms.values()))
    args = {f: atom for f, _ in cls._children}
    args.update({f: 2 for f in cls._data})
    args.update({f: src.NAT for f in cls._annots})
    args.update({f: f"x{i}" for i, f in enumerate(cls._binders)})
    if cls._is_var:
        args["name"] = "x"
    t = cls(**args)
    text = sexpr.render(term.to_sexpr(t))
    back = term.from_sexpr(base, sexpr.read_sexpr(text))
    assert back == t and type(back) is cls
    assert {f.name for f in dataclasses.fields(t)} == set(args)
    assert dataclasses.replace(t) == t
    assert not hasattr(t, "__dict__") and t._fv is None
    names = [f.name for f in dataclasses.fields(t)]
    values = tuple(getattr(t, f) for f in names)
    assert hash(t) == hash(values)
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(names, values))
    assert repr(t) == f"{cls.__name__}({shown})"
    for f in names + ["_fv"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, f, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(t, f)
    assert pickle.loads(pickle.dumps(t)) == t
    for _, other in NODES:
        if [f.name for f in dataclasses.fields(other)] == names:
            assert other.__init__ is cls.__init__


def _by_head(base):
    return {cls._head: cls for b, cls in NODES if b is base}


# The node classes of two term IRs, or of the two type languages, that
# share a head, pair by pair.
SHARED_NODES = [
    (a[h], b[h])
    for bases in (NODE_BASES[:3], NODE_BASES[3:])
    for a, b in itertools.combinations(map(_by_head, bases), 2)
    for h in sorted(a.keys() & b.keys())
]


@pytest.mark.parametrize(
    "x, y", SHARED_NODES, ids=[f"{x.__name__}-{y.__name__}" for x, y in SHARED_NODES]
)
def test_a_head_two_irs_share_has_one_description(x, y):
    """Closure conversion and code generation carry such a node across IRs
    field by field (term.counterpart), which relies on these agreeing."""
    for attr in ("_tmpl", "_children", "_binders", "_data"):
        assert getattr(x, attr) == getattr(y, attr), attr
    names = [f.name for f in dataclasses.fields(x)]
    assert [f.name for f in dataclasses.fields(y)] == names


@pytest.mark.parametrize("cls, types", [
    (cc.CLet, ["CCTerm", "str", "CCTerm"]),
    (cc.CUnit, []),
    (cg.GNat, ["int"]),
    (cg.GVar, ["str"]),
    (cg.GAbs, ["str", "CgTerm"]),
    (cc.ClosArrow, ["CCType", "CCType"]),
])
def test_a_derived_class_reads_as_its_class_statement_would(cls, types):
    assert [f.type for f in dataclasses.fields(cls)] == types
    base = cls.__mro__[1]
    assert (cls.__module__, cls.__qualname__) == (base.__module__, cls.__name__)
    assert getattr(sys.modules[cls.__module__], cls.__name__) is cls


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


def test_free_vars_share_a_child_set_where_they_can():
    # Nested children's sets: the node keeps the larger set object, on
    # either side.
    small, large = src.Var("x"), src.Plus(src.Var("x"), src.Var("y"))
    for t, kept in [(src.Plus(small, large), large), (src.Plus(large, small), large)]:
        assert free_vars(t) is free_vars(kept)
    # Binders that are not free in the body leave its set as it is.
    body = src.Plus(src.Var("x"), src.NatLit(1))
    assert free_vars(src.Fix("f", "y", S.NAT, None, body)) is free_vars(body)
    # A binder that is free is removed; an empty result is the shared one.
    assert free_vars(src.Let(src.NatLit(1), "y", src.Var("y"))) is term._EMPTY
    assert free_vars(src.Let(src.Var("x"), "y", src.Var("y"))) == {"x"}


def _reference_free_vars(t):
    """Free variables by the textbook recursion, after checking that
    free_vars gives the same set at every subterm of t."""
    if t._is_var:
        ref = {t.name}
    else:
        ref = set()
        for _, child, bound in term.children(t):
            ref |= _reference_free_vars(child) - set(bound)
    assert free_vars(t) == ref, t
    return ref


def test_free_vars_match_the_reference_at_every_stage():
    gen = ProgramGen(GenConfig(seed=1))
    programs = [t for _, t in corpus()] + [gen.gen() for _ in range(100)]
    for t in programs:
        for artifact in compile_stages(t).values():
            p = artifact.payload
            if isinstance(p, term.Program):
                terms = [*p.functions, p.body, term.program_body(p)]
            else:
                terms = [p]
            for u in terms:
                _reference_free_vars(u)


# ---------------------------------------------------------------------------
# The node patterns written once: subterms, counterpart and lets


@contextlib.contextmanager
def low_recursion_limit():
    """A recursion limit far below the depth of the chains these tests walk."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


CHAIN = 100_000


def chain(wrap, leaf):
    t = leaf
    for _ in range(CHAIN):
        t = wrap(t)
    return t


def test_subterms_is_a_preorder_of_every_occurrence():
    one = src.NatLit(1)
    t = src.Plus(src.Pred(one), src.Let(one, "y", src.Var("y")))
    assert list(term.subterms(t)) == [
        t, t.l, one, t.r, one, src.Var("y"),
    ]
    deep = chain(src.Pred, one)
    with low_recursion_limit():
        assert sum(1 for _ in term.subterms(deep)) == CHAIN + 1


def test_walks_take_a_chain_deeper_than_the_recursion_limit():
    from fcomp.harness import _closure_code_closed, _size
    from fcomp.hoist_pass import check_abs_flat

    g1, c1 = cg.GNat(1), cc.CNat(1)
    lets_ = chain(lambda t: cg.GLet(g1, "x", t), cg.GVar("x"))
    bad = chain(lambda t: cg.GLet(g1, "x", t), cg.GPred(cg.GPred(g1)))
    flat = chain(lambda t: cc.CLet(c1, "x", t), cc.CVar("x"))
    nested = chain(cc.CPred, cc.CApp(cc.CAbs("y", cc.CVar("y")), cc.CNat(1)))
    closed = chain(cc.CPred, cc.CClos(cc.CAbs("p", cc.CVar("p")), cc.CC_UNITVAL))
    open_ = chain(cc.CPred, cc.CClos(cc.CAbs("p", cc.CVar("q")), cc.CC_UNITVAL))
    fn = cc.CAbs("x", flat)
    with low_recursion_limit():
        assert cg.check_operand_form(lets_)
        assert not cg.check_operand_form(bad)
        assert check_abs_flat(term.Program(("g",), (fn,), flat))
        assert not check_abs_flat(term.Program((), (), nested))
        assert _closure_code_closed(closed)
        assert not _closure_code_closed(open_)
        assert _size(chain(src.Pred, src.NatLit(0))) == CHAIN + 1


# The heads the source and closure-converted languages share: for each, a
# closed source program with that head at (or, for var, just under) its root
# and the term cc_program makes of it.
_ONE, _TWO = src.NatLit(1), src.NatLit(2)
CC_PROGRAMS = {
    "nat": (_TWO, cc.CNat(2)),
    "unit": (src.UNITVAL, cc.CUnit()),
    "pred": (src.Pred(_TWO), cc.CPred(cc.CNat(2))),
    "fst": (src.Fst(src.Pair(_ONE, _TWO)), cc.CFst(cc.CPair(cc.CNat(1), cc.CNat(2)))),
    "snd": (src.Snd(src.Pair(_ONE, _TWO)), cc.CSnd(cc.CPair(cc.CNat(1), cc.CNat(2)))),
    "plus": (src.Plus(_ONE, _TWO), cc.CPlus(cc.CNat(1), cc.CNat(2))),
    "pair": (src.Pair(_ONE, src.UNITVAL), cc.CPair(cc.CNat(1), cc.CUnit())),
    "ifz": (
        src.Ifz(_ONE, _TWO, src.Pred(_ONE)),
        cc.CIfz(cc.CNat(1), cc.CNat(2), cc.CPred(cc.CNat(1))),
    ),
    "let": (
        src.Let(_ONE, "x", src.Plus(src.Var("x"), _TWO)),
        cc.CLet(cc.CNat(1), "_x1", cc.CPlus(cc.CVar("_x1"), cc.CNat(2))),
    ),
    "var": (src.Let(_ONE, "x", src.Var("x")), cc.CLet(cc.CNat(1), "_x1", cc.CVar("_x1"))),
    "app": (
        src.App(src.Fix("f", "y", S.NAT, S.NAT, src.Var("y")), _TWO),
        cc.CLet(
            cc.CClos(
                cc.CAbs("_p1", cc.CLet(
                    cc.CFst(cc.CVar("_p1")), "_g2", cc.CLet(
                        cc.CFst(cc.CSnd(cc.CVar("_p1"))), "_x3", cc.CLet(
                            cc.CSnd(cc.CSnd(cc.CVar("_p1"))), "_e4",
                            cc.CVar("_x3"))))),
                cc.CUnit(),
            ),
            "_g5",
            cc.COpen(cc.CVar("_g5"), "_f6", "_e7", cc.CApp(
                cc.CVar("_f6"),
                cc.CPair(cc.CVar("_g5"), cc.CPair(cc.CNat(2), cc.CVar("_e7"))))),
        ),
    ),
}
SHARED = [t for t in SOURCE if t._head in CC_PROGRAMS]


def test_every_shared_head_has_a_program():
    heads = set(cc.CCTerm._heads) | set(cc.CCTerm._atoms)
    assert {t._head for t in SOURCE} & heads == set(CC_PROGRAMS)
    assert {t._head for t in SHARED} == set(CC_PROGRAMS)


@pytest.mark.parametrize("t", SHARED, ids=[type(t).__name__ for t in SHARED])
def test_counterpart_and_cc_program_on_each_shared_head(t):
    from fcomp.cc_pass import cc_program

    kids = [cc.CNat(7 + i) for i in range(len(t._children))]
    c = term.counterpart(t, cc.CCTerm, kids)
    assert isinstance(c, cc.CCTerm) and c._head == t._head
    assert c._tmpl == t._tmpl
    assert [getattr(c, f) for f, _ in c._children] == kids
    assert [getattr(c, f) for _, f in c._copied] == [
        getattr(t, f) for _, f in t._copied
    ]
    program, expected = CC_PROGRAMS[t._head]
    assert cc_program(program) == expected


def test_lets_nests_its_bindings_in_order():
    body = cg.GVar("y")
    assert term.lets(body) is body
    assert term.lets(body, (cg.GNat(1), "x"), (cg.GVar("x"), "y")) == cg.GLet(
        cg.GNat(1), "x", cg.GLet(cg.GVar("x"), "y", body)
    )
