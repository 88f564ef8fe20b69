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

# One sample per head each IR admits; x is free in every sample that has a
# child.
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
    S.NatLit(3), S.Var("x"), S.UnitLit(), S.Pred(S.Var("x")),
    S.Plus(S.Var("x"), S.NatLit(1)),
    S.Ifz(S.Var("x"), S.NatLit(0), S.Var("z")),
    S.Pair(S.Var("x"), S.UnitLit()), S.Fst(S.Var("x")), S.Snd(S.Var("x")),
    S.Let(S.Var("x"), "y", S.Plus(S.Var("y"), S.Var("x"))),
    C.CAbs("y", S.Pair(S.Var("y"), S.Var("x"))),
    C.CClos(C.CAbs("y", S.Var("y")), S.Var("x")),
    C.COpen(
        S.Var("z"), "f", "e", S.App(S.Var("f"), S.Pair(S.Var("e"), S.Var("x")))
    ),
    S.App(S.Var("x"), S.Var("z")),
]
CG = [
    S.NatLit(3), S.Var("x"), S.UnitLit(), G.GLoc(2), S.Pred(S.Var("x")),
    S.Plus(S.Var("x"), S.NatLit(1)),
    S.Ifz(S.Var("x"), S.NatLit(0), S.Var("z")),
    S.App(S.Var("x"), S.Var("z")), G.GAlloc(2),
    G.GMove(S.Var("z"), 1, S.Var("x")), G.GLoad(S.Var("x"), 1),
    S.Let(S.Var("x"), "y", S.Plus(S.Var("y"), S.Var("x"))),
    C.CAbs("y", S.Plus(S.Var("y"), S.Var("x"))),
]
# The types of cc: the source types, the code arrow and rigid constants.
CC_TYPES = term.Grammar(src.SrcType, src.TYPES.heads | {"code", "rigid"})

# Test ids name an IR's grammar, and a node of it, as the suite always has:
# a node by its class at source, and by the IR's letter and its head at cc
# and cg.
IR_LABELS = {
    "SrcTerm": src.SOURCE, "CCTerm": cc.CC, "CgTerm": cg.CG,
    "SrcType": src.TYPES, "CCType": CC_TYPES,
}
CC_TYPE_LABELS = {
    "nat": "CCNat", "unit": "CCUnit", "prod": "CCProd", "arrow": "ClosArrow",
    "code": "CodeArrow", "rigid": "Rigid",
}


def label(ir, t):
    """The label of a node t of the IR ``ir`` in test ids."""
    letter = {cc.CC: "C", cg.CG: "G"}.get(ir)
    if ir is CC_TYPES:
        return CC_TYPE_LABELS[t._head]
    if letter is None:
        return type(t).__name__
    return letter + ("Abs" if t._head == "cabs" else t._head.capitalize())


IRS = [
    (ir, samples, term.to_sexpr, functools.partial(term.from_sexpr, ir))
    for ir, samples in ((src.SOURCE, SOURCE), (cc.CC, CC), (cg.CG, CG))
]
IR_IDS = ["source", "cc", "cg"]
SAMPLES = [(ir[2], ir[3], t) for ir in IRS for t in ir[1]]
SAMPLE_IDS = [label(ir[0], t) for ir in IRS for t in ir[1]]


@pytest.mark.parametrize("ir, samples, to_sexpr, from_sexpr", IRS, ids=IR_IDS)
def test_every_constructor_has_a_sample(ir, samples, to_sexpr, from_sexpr):
    assert sorted(t._head for t in samples) == sorted(ir.heads)


def test_each_head_has_one_class():
    # The class each @node was given stays among its family's subclasses
    # until the cyclic collector frees it.
    gc.collect()
    for family in (src.SrcTerm, src.SrcType):
        classes = family.__subclasses__()
        assert sorted(c._head for c in classes) == sorted(
            [*family._heads, *family._atoms])
    sampled = {type(t) for samples in (SOURCE, CC, CG) for t in samples}
    assert sampled == set(src.SrcTerm.__subclasses__())


@pytest.mark.parametrize("to_sexpr, from_sexpr, t", SAMPLES, ids=SAMPLE_IDS)
def test_sexpr_roundtrip(to_sexpr, from_sexpr, t):
    text = sexpr.render(to_sexpr(t))
    assert from_sexpr(sexpr.read_sexpr(text)) == t


def _class_of(ir, h):
    """The class ir keeps for head h."""
    family = ir.family
    return family._heads.get(h) or type(family._atoms[h])


def _node(ir, h):
    """A new node of head h built from its own description, an atom of ir
    for each child."""
    cls = _class_of(ir, h)
    atom = next(a for k, a in ir.family._atoms.items() if k in ir.heads)
    args = {f: atom for f, _ in cls._children}
    args.update({f: 2 for f in cls._data})
    args.update({f: src.NAT for f in cls._annots})
    args.update({f: f"x{i}" for i, f in enumerate(cls._binders)})
    if cls._is_var:
        args["name"] = "x"
    return cls(**args)


# Every head of every IR's terms and types, with a node of it.
NODES = [
    pytest.param(ir, t, id=f"{name}.{label(ir, t)}")
    for name, ir in IR_LABELS.items()
    for t in (_node(ir, h) for h in sorted(ir.heads))
]


@pytest.mark.parametrize("ir, t", NODES)
def test_every_node_roundtrips_and_is_a_dataclass(ir, t):
    """Built from its own description (an atom of its IR for each child),
    each node reads back as itself, and dataclasses.fields and replace, which
    the benchmark's node count and the shrinker use, see the same fields.
    The node is slot-backed and behaves as a frozen dataclass would."""
    cls = type(t)
    text = sexpr.render(term.to_sexpr(t))
    back = term.from_sexpr(ir, sexpr.read_sexpr(text))
    assert back == t and type(back) is cls
    names = [f.name for f in dataclasses.fields(t)]
    assert set(names) == {
        *(f for f, _ in cls._children), *cls._data, *cls._annots, *cls._binders,
        *(["name"] if cls._is_var else []),
    }
    assert dataclasses.replace(t) == t
    assert not hasattr(t, "__dict__") and t._fv is None
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
    for param in NODES:
        other = param.values[1]
        if [f.name for f in dataclasses.fields(other)] == names:
            assert type(other).__init__ is cls.__init__


# The heads two term IRs, or the two type languages, share, pair by pair.
SHARED_NODES = [
    (a, b, h)
    for irs in ((src.SOURCE, cc.CC, cg.CG), (src.TYPES, CC_TYPES))
    for a, b in itertools.combinations(irs, 2)
    for h in sorted(a.heads & b.heads)
]


@pytest.mark.parametrize(
    "a, b, h", SHARED_NODES,
    ids=[f"{label(a, _node(a, h))}-{label(b, _node(b, h))}"
         for a, b, h in SHARED_NODES],
)
def test_a_head_two_irs_share_has_one_description(a, b, h):
    """Closure conversion keeps a shared node's class, and code generation
    uses a cc atom as it is, which relies on a head that two IRs share
    reading as the same node of one class at both."""
    text = sexpr.render(term.to_sexpr(_node(a, h)))
    at_a = term.from_sexpr(a, sexpr.read_sexpr(text))
    at_b = term.from_sexpr(b, sexpr.read_sexpr(text))
    assert at_a == at_b and type(at_a) is type(at_b)


DERIVED = [
    (cc.CC, "let", ["SrcTerm", "str", "SrcTerm"]),
    (cc.CC, "unit", []),
    (cg.CG, "nat", ["int"]),
    (cg.CG, "var", ["str"]),
    (cg.CG, "cabs", ["str", "SrcTerm"]),
    (CC_TYPES, "arrow", ["SrcType", "SrcType"]),
]


@pytest.mark.parametrize(
    "ir, h, types", DERIVED,
    ids=[f"{label(ir, _class_of(ir, h))}-types{i}"
         for i, (ir, h, types) in enumerate(DERIVED)],
)
def test_a_derived_class_reads_as_its_class_statement_would(ir, h, types):
    """@node rebuilds each class as a slotted dataclass; the class a grammar
    keeps for a head is that rebuilt class, and it reads as its class
    statement: its fields, its name, its binding in its module, no
    ``__dict__``."""
    cls = _class_of(ir, h)
    assert [f.type for f in dataclasses.fields(cls)] == types
    assert cls.__qualname__ == cls.__name__
    assert getattr(sys.modules[cls.__module__], cls.__name__) is cls
    assert "__dict__" not in dir(cls)


@pytest.mark.parametrize("to_sexpr, from_sexpr, t", SAMPLES, ids=SAMPLE_IDS)
def test_free_vars_and_substitution(to_sexpr, from_sexpr, t):
    fv = free_vars(t)
    assert fv <= {"x", "z"}
    assert ("x" in fv) == (t._head not in ("nat", "unit", "loc", "alloc"))
    assert subst({"x": src.Var("x")}, t) == t
    # A closed image removes x; an image named like a binder must not be
    # captured by it, so it stays free.
    assert free_vars(subst({"x": src.NatLit(7)}, t)) == fv - {"x"}
    for b in ("y", "f", "e"):
        got = subst({"x": src.Var(b)}, t)
        assert free_vars(got) == (fv - {"x"}) | ({b} if "x" in fv else set())
        assert all_names(got) >= free_vars(got)


def test_substitution_renames_a_capturing_binder():
    t = cc.COpen(S.Var("c"), "f", "e", S.App(S.Var("f"), S.Var("x")))
    got = subst({"x": S.Var("f")}, t)
    assert got == cc.COpen(
        S.Var("c"), "f_1", "e", S.App(S.Var("f_1"), S.Var("f"))
    )
    t = cc.CAbs("y", S.Plus(S.Var("y"), S.Var("x")))
    assert subst({"x": S.Var("y")}, t) == cc.CAbs(
        "y_1", S.Plus(S.Var("y_1"), S.Var("y"))
    )


def test_alpha_eq_ignores_fix_annotations():
    body = src.Plus(src.Var("x"), src.App(src.Var("f"), src.Var("x")))
    annotated = src.Fix("f", "x", src.NAT, src.NAT, body)
    assert alpha_eq(annotated, src.Fix("f", "x", None, None, body))
    assert alpha_eq(annotated, src.Fix("g", "y", None, src.NAT, subst(
        {"f": src.Var("g"), "x": src.Var("y")}, body)))


def test_alpha_eq_compares_numerals_and_levels():
    assert alpha_eq(cg.GLoad(S.Var("x"), 1), cg.GLoad(S.Var("x"), 1))
    assert not alpha_eq(cg.GLoad(S.Var("x"), 1), cg.GLoad(S.Var("x"), 0))
    a = S.Let(S.NatLit(1), "y", cc.CAbs("z", S.Var("y")))
    b = S.Let(S.NatLit(1), "y", cc.CAbs("z", S.Var("z")))
    assert not alpha_eq(a, b)


DEPTH = 15_000


@pytest.mark.parametrize("ir, samples, to_sexpr, from_sexpr", IRS, ids=IR_IDS)
def test_deep_plus_chain(ir, samples, to_sexpr, from_sexpr):
    """Free variables, substitution and the s-expression conversions return
    on a 15,000-deep chain (they recurse in Python, not through C)."""
    plus, nat = src.Plus, src.NatLit
    t = src.Var("x")
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
# The node patterns written once: subterms and lets


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

    one = S.NatLit(1)
    lets_ = chain(lambda t: S.Let(one, "x", t), S.Var("x"))
    bad = chain(lambda t: S.Let(one, "x", t), S.Pred(S.Pred(one)))
    flat = chain(lambda t: S.Let(one, "x", t), S.Var("x"))
    nested = chain(S.Pred, S.App(cc.CAbs("y", S.Var("y")), one))
    closed = chain(S.Pred, cc.CClos(cc.CAbs("p", S.Var("p")), S.UNITVAL))
    open_ = chain(S.Pred, cc.CClos(cc.CAbs("p", S.Var("q")), S.UNITVAL))
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
    "nat": (_TWO, _TWO),
    "unit": (src.UNITVAL, src.UNITVAL),
    "pred": (src.Pred(_TWO), src.Pred(_TWO)),
    "fst": (src.Fst(src.Pair(_ONE, _TWO)), src.Fst(src.Pair(_ONE, _TWO))),
    "snd": (src.Snd(src.Pair(_ONE, _TWO)), src.Snd(src.Pair(_ONE, _TWO))),
    "plus": (src.Plus(_ONE, _TWO), src.Plus(_ONE, _TWO)),
    "pair": (src.Pair(_ONE, src.UNITVAL), src.Pair(_ONE, src.UNITVAL)),
    "ifz": (
        src.Ifz(_ONE, _TWO, src.Pred(_ONE)),
        src.Ifz(_ONE, _TWO, src.Pred(_ONE)),
    ),
    "let": (
        src.Let(_ONE, "x", src.Plus(src.Var("x"), _TWO)),
        src.Let(_ONE, "_x1", src.Plus(src.Var("_x1"), _TWO)),
    ),
    "var": (
        src.Let(_ONE, "x", src.Var("x")), src.Let(_ONE, "_x1", src.Var("_x1"))
    ),
    "app": (
        src.App(src.Fix("f", "y", S.NAT, S.NAT, src.Var("y")), _TWO),
        src.Let(
            cc.CClos(
                cc.CAbs("_p1", src.Let(
                    src.Fst(src.Var("_p1")), "_g2", src.Let(
                        src.Fst(src.Snd(src.Var("_p1"))), "_x3", src.Let(
                            src.Snd(src.Snd(src.Var("_p1"))), "_e4",
                            src.Var("_x3"))))),
                src.UNITVAL,
            ),
            "_g5",
            cc.COpen(src.Var("_g5"), "_f6", "_e7", src.App(
                src.Var("_f6"),
                src.Pair(src.Var("_g5"), src.Pair(_TWO, src.Var("_e7"))))),
        ),
    ),
}
SHARED = [t for t in SOURCE if t._head in CC_PROGRAMS]


def test_every_shared_head_has_a_program():
    assert {t._head for t in SOURCE} & cc.CC.heads == set(CC_PROGRAMS)
    assert {t._head for t in SHARED} == set(CC_PROGRAMS)


@pytest.mark.parametrize("t", SHARED, ids=[type(t).__name__ for t in SHARED])
def test_counterpart_and_cc_program_on_each_shared_head(t):
    """The cc counterpart of a node whose head cc shares is a node of the
    same class, the leaf itself for a numeral or unit; only an application
    becomes another head (a let of the closure around its open)."""
    from fcomp.cc_pass import cc_program

    program, expected = CC_PROGRAMS[t._head]
    got = cc_program(program)
    assert got == expected
    if t._head != "app":
        assert type(got) is type(program)
    if not program._children:
        assert got is program


def test_lets_nests_its_bindings_in_order():
    body = S.Var("y")
    assert term.lets(body) is body
    assert term.lets(body, (S.NatLit(1), "x"), (S.Var("x"), "y")) == S.Let(
        S.NatLit(1), "x", S.Let(S.Var("x"), "y", body)
    )
