"""Code generation from hoisted closure-converted programs.

The translation accumulates statements through host-level continuations,
like the CPS pass.  Pairs and closures become a two-cell allocation plus
two moves; projections become loads; opening a closure loads its two
cells and rebuilds the (closure, argument, environment) triple as two
heap pairs before calling the code pointer.

Each pending context is a ``CgKont`` record, not a closure: the record
holds a module-level rule and the fields that rule reads, so a level of
the term holds one slotted object besides its frames, with no function
object, tuple of defaults or cell.  The host recursion stays, one
``cgen_stmt`` frame and one continuation call per level, so a term too
deep for the recursion limit still raises ``RecursionError``; each
continuation call catches it and raises a fresh one, so the error that
escapes holds the frames of one level.  An error that held every frame it
unwound would keep each level's record alive with them, and set the peak
memory of a compile that overflows.
"""

from __future__ import annotations

from .cc_lang import CAbs, closure_call_arg
from .cg_lang import GAlloc, GLoad, GMove
from .errors import UnsupportedShape
from .fresh import FreshSupply
from .source_lang import App, Ifz, Let, NatLit, Plus, Pred, SrcTerm, Var
from .term import Program, all_names, lets, subst

# The constructors of cg's nat, pred and plus, looked up at each call under
# these names, which the benchmark's mutants rebind.
GNat, GPred, GPlus = NatLit, Pred, Plus


class CgKont:
    """Continuation over target code; receives the value slot as a CC atom.

    A record of its rule, a module-level function called as
    ``rule(kont, slot)``, and the fields the rule reads: the continuation
    ``k`` it passes its result to, the fresh-name supply and at most two
    more, ``a`` and ``b``.  Slotted, without a ``__dict__``: generation
    holds one per level of the term on the stack, thousands on a long
    chain, and a level holds nothing else but its frames.

    A call that overflows below it raises a fresh ``RecursionError`` once
    its handler has ended, so that neither error holds the other: the
    traceback of an overflow is one level deep wherever it is caught,
    instead of holding every frame it unwound."""

    __slots__ = ("rule", "k", "fresh", "a", "b")

    def __init__(self, rule, k, fresh, a=None, b=None):
        self.rule = rule
        self.k = k
        self.fresh = fresh
        self.a = a
        self.b = b

    def __call__(self, slot: SrcTerm) -> SrcTerm:
        too_deep = False
        try:
            return self.rule(self, slot)
        except RecursionError:
            too_deep = True
        if too_deep:
            raise RecursionError(
                "code generation nests too deeply for the recursion limit")


def _identity(kont, x):
    return x


def identity_cgkont() -> CgKont:
    return CgKont(_identity, None, None)


# The rules of the pending contexts.  Each reads its record's k, fresh and
# the fields its comment names.


def _pred_k(kont, x):
    v = kont.fresh.fresh("v")
    return Let(GPred(x), v, kont.k(Var(v)))


def _left_k(kont, x1):
    # a: the right operand; b: the rule its atom goes to.
    return cgen_stmt(kont.a, CgKont(kont.b, kont.k, kont.fresh, x1), kont.fresh)


def _plus_k(kont, x2):
    # a: the left operand's atom.
    v = kont.fresh.fresh("v")
    return Let(GPlus(kont.a, x2), v, kont.k(Var(v)))


def _app_k(kont, x2):
    # a: the function's atom.
    v = kont.fresh.fresh("v")
    return Let(App(kont.a, x2), v, kont.k(Var(v)))


def _pair_k(kont, x2):
    # a: the left component's atom.
    p, cells = _alloc_pair(kont.a, x2, kont.fresh)
    return lets(kont.k(Var(p)), *cells)


def _ifz_k(kont, x1):
    # a, b: the statements of the zero and nonzero branches.
    v = kont.fresh.fresh("v")
    return Let(Ifz(x1, kont.a, kont.b), v, kont.k(Var(v)))


def _let_k(kont, v1):
    # a: the let.
    t = kont.a
    return cgen_stmt(subst({t.binder: v1}, t.body), kont.k, kont.fresh)


def _clos_k(kont, x1):
    # a: the open; b: the argument of the call it opens the closure for.
    t = kont.a
    inner = cgen_stmt(kont.b, CgKont(_arg_k, kont.k, kont.fresh, x1, t), kont.fresh)
    return lets(
        inner,
        (GLoad(x1, 0), t.fbinder),
        (GLoad(x1, 1), t.ebinder),
    )


def _arg_k(kont, x2):
    # a: the closure's atom; b: the open.
    t, fresh = kont.b, kont.fresh
    p1, arg_cells = _alloc_pair(x2, Var(t.ebinder), fresh)
    p2, clos_cells = _alloc_pair(kont.a, Var(p1), fresh)
    v = fresh.fresh("v")
    return lets(
        kont.k(Var(v)),
        *arg_cells,
        *clos_cells,
        (App(Var(t.fbinder), Var(p2)), v),
    )


def _load_k(kont, x):
    # a: the offset.
    v = kont.fresh.fresh("v")
    return Let(GLoad(x, kont.a), v, kont.k(Var(v)))


def cgen_stmt(t: SrcTerm, k: CgKont, fresh: FreshSupply) -> SrcTerm:
    """The cg statement of the cc term t, whose value slot, an atom (a
    numeral, unit or a variable, the same node in both IRs), goes to k."""
    h = t._head
    if h in ("nat", "unit", "var"):
        return k(t)
    if h == "pred":
        return cgen_stmt(t.arg, CgKont(_pred_k, k, fresh), fresh)
    if h == "fst":
        return _load(t.arg, 0, k, fresh)
    if h == "snd":
        return _load(t.arg, 1, k, fresh)
    if h == "plus":
        return cgen_stmt(t.l, CgKont(_left_k, k, fresh, t.r, _plus_k), fresh)
    if h == "app":
        return cgen_stmt(t.fn, CgKont(_left_k, k, fresh, t.arg, _app_k), fresh)
    if h == "pair":
        return cgen_stmt(t.l, CgKont(_left_k, k, fresh, t.r, _pair_k), fresh)
    if h == "clos":
        return cgen_stmt(t.code, CgKont(_left_k, k, fresh, t.env, _pair_k), fresh)
    if h == "ifz":
        s2 = cgen_stmt(t.zbranch, identity_cgkont(), fresh)
        s3 = cgen_stmt(t.nzbranch, identity_cgkont(), fresh)
        return cgen_stmt(t.cond, CgKont(_ifz_k, k, fresh, s2, s3), fresh)
    if h == "let":
        return cgen_stmt(t.bound, CgKont(_let_k, k, fresh, t), fresh)
    if h == "open":
        m2 = closure_call_arg(t)
        if m2 is None:
            raise UnsupportedShape("open not in closure-application form")
        return cgen_stmt(t.scrutinee, CgKont(_clos_k, k, fresh, t, m2), fresh)
    if h == "cabs":
        raise UnsupportedShape("abstraction reached statement generation")
    raise TypeError(t)


def _alloc_pair(x1, x2, fresh):
    """A fresh p and the bindings that allocate two cells at p and move the
    atoms x1 and x2 into them."""
    p = fresh.fresh("p")
    return p, (
        (GAlloc(2), p),
        (GMove(Var(p), 0, x1), fresh.fresh("v")),
        (GMove(Var(p), 1, x2), fresh.fresh("v")),
    )


def _load(arg, offset, k, fresh):
    return cgen_stmt(arg, CgKont(_load_k, k, fresh, offset), fresh)


def cgen_fn(f: SrcTerm, fresh: FreshSupply) -> SrcTerm:
    """Compile a hoisted function Abs x. body; the body may name the
    binders of the functions listed before it."""
    if not isinstance(f, CAbs):
        raise UnsupportedShape("hoisted function must be an abstraction")
    return CAbs(f.binder, cgen_stmt(f.body, identity_cgkont(), fresh))


def cgen_program(p: Program) -> Program:
    avoid = set(p.binders)
    for fn in p.functions:
        avoid |= all_names(fn)
    avoid |= all_names(p.body)
    fresh = FreshSupply(avoid=avoid)
    del avoid  # the supply holds its own copy for the whole generation
    functions = tuple(cgen_fn(f, fresh) for f in p.functions)
    body = cgen_stmt(p.body, identity_cgkont(), fresh)
    return Program(p.binders, functions, body)
