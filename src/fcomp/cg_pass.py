"""Code generation from hoisted closure-converted programs.

The translation accumulates statements through host-level continuations,
like the CPS pass.  Pairs and closures become a two-cell allocation plus
two moves; projections become loads; opening a closure loads its two
cells and rebuilds the (closure, argument, environment) triple as two
heap pairs before calling the code pointer.

As in the CPS pass, a continuation gets what it uses as default parameter
values, never as free variables: a captured variable is a cell that
``cgen_stmt`` would make on every call, at every level of the term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .cc_lang import CAbs, closure_call_arg
from .cg_lang import GAlloc, GLoad, GMove
from .errors import UnsupportedShape
from .fresh import FreshSupply
from .source_lang import App, Ifz, Let, NatLit, Plus, Pred, SrcTerm, Var
from .term import Program, all_names, lets, subst

# The constructors of cg's nat, pred and plus, looked up at each call under
# these names, which the benchmark's mutants rebind.
GNat, GPred, GPlus = NatLit, Pred, Plus


@dataclass(slots=True)
class CgKont:
    """Continuation over target code; receives the value slot as a CC atom.

    Slotted, without a ``__dict__``: generation holds one continuation per
    level of the term on the stack, thousands on a long chain.  Each level
    also holds a ``cgen_stmt`` frame and the wrapped function with its tuple
    of defaults; a cell, for any variable a nested function captured, would
    add to every level."""

    fn: Callable[[SrcTerm], SrcTerm]

    def __call__(self, slot: SrcTerm) -> SrcTerm:
        return self.fn(slot)


def identity_cgkont() -> CgKont:
    return CgKont(lambda v: v)


def cgen_stmt(t: SrcTerm, k: CgKont, fresh: FreshSupply) -> SrcTerm:
    """The cg statement of the cc term t, whose value slot, an atom (a
    numeral, unit or a variable, the same node in both IRs), goes to k."""
    h = t._head
    if h in ("nat", "unit", "var"):
        return k(t)
    if h == "pred":

        def kp(x, k=k, fresh=fresh):
            v = fresh.fresh("v")
            return Let(GPred(x), v, k(Var(v)))

        return cgen_stmt(t.arg, CgKont(kp), fresh)
    if h == "fst":
        return _load(t.arg, 0, k, fresh)
    if h == "snd":
        return _load(t.arg, 1, k, fresh)
    if h == "plus" or h == "app":
        l, r = (t.l, t.r) if h == "plus" else (t.fn, t.arg)

        def k1(x1, h=h, r=r, k=k, fresh=fresh):
            def k2(x2, h=h, x1=x1, k=k, fresh=fresh):
                v = fresh.fresh("v")
                op = GPlus if h == "plus" else App
                return Let(op(x1, x2), v, k(Var(v)))

            return cgen_stmt(r, CgKont(k2), fresh)

        return cgen_stmt(l, CgKont(k1), fresh)
    if h == "pair" or h == "clos":
        l, r = (t.l, t.r) if h == "pair" else (t.code, t.env)

        def k1(x1, r=r, k=k, fresh=fresh):
            def k2(x2, x1=x1, k=k, fresh=fresh):
                p, cells = _alloc_pair(x1, x2, fresh)
                return lets(k(Var(p)), *cells)

            return cgen_stmt(r, CgKont(k2), fresh)

        return cgen_stmt(l, CgKont(k1), fresh)
    if h == "ifz":
        s2 = cgen_stmt(t.zbranch, identity_cgkont(), fresh)
        s3 = cgen_stmt(t.nzbranch, identity_cgkont(), fresh)

        def kc(x1, s2=s2, s3=s3, k=k, fresh=fresh):
            a = fresh.fresh("v")
            return Let(Ifz(x1, s2, s3), a, k(Var(a)))

        return cgen_stmt(t.cond, CgKont(kc), fresh)
    if h == "let":

        def kl(v1, t=t, k=k, fresh=fresh):
            return cgen_stmt(subst({t.binder: v1}, t.body), k, fresh)

        return cgen_stmt(t.bound, CgKont(kl), fresh)
    if h == "open":
        m2 = closure_call_arg(t)
        if m2 is None:
            raise UnsupportedShape("open not in closure-application form")

        def k_clos(x1, t=t, m2=m2, k=k, fresh=fresh):
            def k_arg(x2, x1=x1, t=t, k=k, fresh=fresh):
                p1, arg_cells = _alloc_pair(x2, Var(t.ebinder), fresh)
                p2, clos_cells = _alloc_pair(x1, Var(p1), fresh)
                v = fresh.fresh("v")
                return lets(
                    k(Var(v)),
                    *arg_cells,
                    *clos_cells,
                    (App(Var(t.fbinder), Var(p2)), v),
                )

            inner = cgen_stmt(m2, CgKont(k_arg), fresh)
            return lets(
                inner,
                (GLoad(x1, 0), t.fbinder),
                (GLoad(x1, 1), t.ebinder),
            )

        return cgen_stmt(t.scrutinee, CgKont(k_clos), fresh)
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
    def kf(x, offset=offset, k=k, fresh=fresh):
        v = fresh.fresh("v")
        return Let(GLoad(x, offset), v, k(Var(v)))

    return cgen_stmt(arg, CgKont(kf), fresh)


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
