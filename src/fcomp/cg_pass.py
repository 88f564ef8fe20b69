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
    CSnd, CUnit, CVar, CCTerm, HoistedProgram, closure_call_arg,
)
from .cg_lang import (
    CgProgram, CgTerm, GAbs, GAlloc, GApp, GIfz, GLet, GLoad, GMove, GNat,
    GPlus, GPred, GUnit, GVar,
)
from .errors import UnsupportedShape
from .fresh import FreshSupply
from .term import all_names, subst


@dataclass
class CgKont:
    """Continuation over target code; receives the value slot as a CC atom."""

    fn: Callable[[CCTerm], CgTerm]

    def __call__(self, slot: CCTerm) -> CgTerm:
        return self.fn(slot)


def identity_cgkont() -> CgKont:
    return CgKont(lambda v: _const(v))


def _const(atom: CCTerm) -> CgTerm:
    """Embed a value-slot atom of the source IR into the target."""
    if isinstance(atom, CNat):
        return GNat(atom.n)
    if isinstance(atom, CUnit):
        return GUnit()
    if isinstance(atom, CVar):
        return GVar(atom.name)
    raise UnsupportedShape(f"not a constant or variable: {atom!r}")


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
    if isinstance(t, CPlus):

        def k1(x1):
            def k2(x2):
                v = fresh.fresh("v")
                return GLet(GPlus(_const(x1), _const(x2)), v, k(CVar(v)))

            return cgen_stmt(t.r, CgKont(k2), fresh)

        return cgen_stmt(t.l, CgKont(k1), fresh)
    if isinstance(t, (CPair, CClos)):
        l, r = (t.l, t.r) if isinstance(t, CPair) else (t.code, t.env)

        def k1(x1):
            def k2(x2):
                p = fresh.fresh("p")
                v1 = fresh.fresh("v")
                v2 = fresh.fresh("v")
                return GLet(
                    GAlloc(2),
                    p,
                    GLet(
                        GMove(GVar(p), 0, _const(x1)),
                        v1,
                        GLet(GMove(GVar(p), 1, _const(x2)), v2, k(CVar(p))),
                    ),
                )

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
    if isinstance(t, CApp):

        def k1(x1):
            def k2(x2):
                v = fresh.fresh("v")
                return GLet(GApp(_const(x1), _const(x2)), v, k(CVar(v)))

            return cgen_stmt(t.arg, CgKont(k2), fresh)

        return cgen_stmt(t.fn, CgKont(k1), fresh)
    if isinstance(t, COpen):
        m2 = closure_call_arg(t)
        if m2 is None:
            raise UnsupportedShape("open not in closure-application form")

        def k_clos(x1):
            def k_arg(x2):
                p1 = fresh.fresh("p")
                v1 = fresh.fresh("v")
                v2 = fresh.fresh("v")
                p2 = fresh.fresh("p")
                v3 = fresh.fresh("v")
                v4 = fresh.fresh("v")
                v = fresh.fresh("v")
                return GLet(
                    GAlloc(2),
                    p1,
                    GLet(
                        GMove(GVar(p1), 0, _const(x2)),
                        v1,
                        GLet(
                            GMove(GVar(p1), 1, GVar(t.ebinder)),
                            v2,
                            GLet(
                                GAlloc(2),
                                p2,
                                GLet(
                                    GMove(GVar(p2), 0, _const(x1)),
                                    v3,
                                    GLet(
                                        GMove(GVar(p2), 1, GVar(p1)),
                                        v4,
                                        GLet(
                                            GApp(GVar(t.fbinder), GVar(p2)),
                                            v,
                                            k(CVar(v)),
                                        ),
                                    ),
                                ),
                            ),
                        ),
                    ),
                )

            inner = cgen_stmt(m2, CgKont(k_arg), fresh)
            return GLet(
                GLoad(_const(x1), 0),
                t.fbinder,
                GLet(GLoad(_const(x1), 1), t.ebinder, inner),
            )

        return cgen_stmt(t.scrutinee, CgKont(k_clos), fresh)
    if isinstance(t, CAbs):
        raise UnsupportedShape("abstraction reached statement generation")
    raise TypeError(t)


def _load(arg, offset, k, fresh):
    def kf(x):
        v = fresh.fresh("v")
        return GLet(GLoad(_const(x), offset), v, k(CVar(v)))

    return cgen_stmt(arg, CgKont(kf), fresh)


def cgen_fn(f: CCTerm, fresh: FreshSupply) -> CgTerm:
    """Compile a hoisted function Abs l. (dependency lets) Abs x. body."""
    if not isinstance(f, CAbs):
        raise UnsupportedShape("hoisted function must be an abstraction")

    def compile_wrapper(w: CCTerm) -> CgTerm:
        if isinstance(w, CAbs):
            return GAbs(w.binder, cgen_stmt(w.body, identity_cgkont(), fresh))
        if isinstance(w, CLet):

            def kl(v):
                return compile_wrapper(subst({w.binder: v}, w.body))

            return cgen_stmt(w.bound, CgKont(kl), fresh)
        raise UnsupportedShape("hoisted function body must end in an abstraction")

    return GAbs(f.binder, compile_wrapper(f.body))


def cgen_program(p: HoistedProgram) -> CgProgram:
    avoid = set(p.binders)
    for fn in p.functions:
        avoid |= all_names(fn)
    avoid |= all_names(p.body)
    fresh = FreshSupply(avoid=avoid)
    functions = tuple(cgen_fn(f, fresh) for f in p.functions)
    body = cgen_stmt(p.body, identity_cgkont(), fresh)
    return CgProgram(p.binders, functions, body)
