"""Code generation from hoisted closure-converted programs.

The translation accumulates statements through host-level continuations,
like the CPS pass.  Pairs and closures become a two-cell allocation plus
two moves; projections become loads; opening a closure loads its two
cells and rebuilds the (closure, argument, environment) triple as two
heap pairs before calling the code pointer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .cc_lang import (
    CAbs, CApp, CClos, CFst, CIfz, CLet, CNat, COpen, CPair, CPlus, CPred,
    CSnd, CUnit, CVar, CCTerm, closure_call_arg,
)
from .cg_lang import (
    CgTerm, GAbs, GAlloc, GApp, GIfz, GLet, GLoad, GMove, GPlus, GPred, GVar,
)
from .cg_lang import GNat  # noqa: F401 - perfbench's pred_plus mutant reads it
from .errors import UnsupportedShape
from .fresh import FreshSupply
from .term import Program, all_names, counterpart, lets, subst


@dataclass(slots=True)
class CgKont:
    """Continuation over target code; receives the value slot as a CC atom.

    Slotted, without a ``__dict__``: generation holds one continuation per
    level of the term on the stack, thousands on a long chain."""

    fn: Callable[[CCTerm], CgTerm]

    def __call__(self, slot: CCTerm) -> CgTerm:
        return self.fn(slot)


def identity_cgkont() -> CgKont:
    return CgKont(lambda v: _const(v))


def _const(atom: CCTerm) -> CgTerm:
    """Embed a value-slot atom (a numeral, unit or a variable) of the
    source IR into the target."""
    return counterpart(atom, CgTerm, ())


def cgen_stmt(t: CCTerm, k: CgKont, fresh: FreshSupply) -> CgTerm:
    if isinstance(t, (CNat, CUnit, CVar)):
        return k(t)
    if isinstance(t, CPred):

        def kp(x):
            v = fresh.fresh("v")
            return GLet(GPred(_const(x)), v, k(CVar(v)))

        return cgen_stmt(t.arg, CgKont(kp), fresh)
    if isinstance(t, CFst):
        return _load(t.arg, 0, k, fresh)
    if isinstance(t, CSnd):
        return _load(t.arg, 1, k, fresh)
    if isinstance(t, (CPlus, CApp)):
        l, r = (t.l, t.r) if isinstance(t, CPlus) else (t.fn, t.arg)

        def k1(x1):
            def k2(x2):
                v = fresh.fresh("v")
                # Chosen here: a cell in cgen_stmt would cost every level.
                op = GPlus if isinstance(t, CPlus) else GApp
                return GLet(op(_const(x1), _const(x2)), v, k(CVar(v)))

            return cgen_stmt(r, CgKont(k2), fresh)

        return cgen_stmt(l, CgKont(k1), fresh)
    if isinstance(t, (CPair, CClos)):
        l, r = (t.l, t.r) if isinstance(t, CPair) else (t.code, t.env)

        def k1(x1):
            def k2(x2):
                p, cells = _alloc_pair(x1, x2, fresh)
                return lets(k(CVar(p)), *cells)

            return cgen_stmt(r, CgKont(k2), fresh)

        return cgen_stmt(l, CgKont(k1), fresh)
    if isinstance(t, CIfz):
        s2 = cgen_stmt(t.zbranch, identity_cgkont(), fresh)
        s3 = cgen_stmt(t.nzbranch, identity_cgkont(), fresh)

        def kc(x1):
            a = fresh.fresh("v")
            return GLet(GIfz(_const(x1), s2, s3), a, k(CVar(a)))

        return cgen_stmt(t.cond, CgKont(kc), fresh)
    if isinstance(t, CLet):

        def kl(v1):
            return cgen_stmt(subst({t.binder: v1}, t.body), k, fresh)

        return cgen_stmt(t.bound, CgKont(kl), fresh)
    if isinstance(t, COpen):
        m2 = closure_call_arg(t)
        if m2 is None:
            raise UnsupportedShape("open not in closure-application form")

        def k_clos(x1):
            def k_arg(x2):
                p1, arg_cells = _alloc_pair(x2, CVar(t.ebinder), fresh)
                p2, clos_cells = _alloc_pair(x1, CVar(p1), fresh)
                v = fresh.fresh("v")
                return lets(
                    k(CVar(v)),
                    *arg_cells,
                    *clos_cells,
                    (GApp(GVar(t.fbinder), GVar(p2)), v),
                )

            inner = cgen_stmt(m2, CgKont(k_arg), fresh)
            return lets(
                inner,
                (GLoad(_const(x1), 0), t.fbinder),
                (GLoad(_const(x1), 1), t.ebinder),
            )

        return cgen_stmt(t.scrutinee, CgKont(k_clos), fresh)
    if isinstance(t, CAbs):
        raise UnsupportedShape("abstraction reached statement generation")
    raise TypeError(t)


def _alloc_pair(x1, x2, fresh):
    """A fresh p and the bindings that allocate two cells at p and move the
    atoms x1 and x2 into them."""
    p = fresh.fresh("p")
    return p, (
        (GAlloc(2), p),
        (GMove(GVar(p), 0, _const(x1)), fresh.fresh("v")),
        (GMove(GVar(p), 1, _const(x2)), fresh.fresh("v")),
    )


def _load(arg, offset, k, fresh):
    def kf(x):
        v = fresh.fresh("v")
        return GLet(GLoad(_const(x), offset), v, k(CVar(v)))

    return cgen_stmt(arg, CgKont(kf), fresh)


def cgen_fn(f: CCTerm, fresh: FreshSupply) -> CgTerm:
    """Compile a hoisted function Abs x. body; the body may name the
    binders of the functions listed before it."""
    if not isinstance(f, CAbs):
        raise UnsupportedShape("hoisted function must be an abstraction")
    return GAbs(f.binder, cgen_stmt(f.body, identity_cgkont(), fresh))


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
