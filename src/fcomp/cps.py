"""CPS transformation in the Danvy-Filinski style.

Continuations are host-level functions over terms (administrative redexes
are contracted at transformation time and never appear in output).  Functions
in the output take a single pair argument (continuation, argument); dynamic
continuations are emitted as fix terms with an unused self binder since the
source grammar has no non-recursive lambda.
"""

from __future__ import annotations

from . import source_lang as src
from .fresh import FreshSupply
from .source_lang import (
    App, Fix, Ifz, Let, NatLit, Pair, Plus, Pred, Fst, Snd, SrcTerm, UnitLit, Var,
    TArrow, TProd, SrcType, TNat, TUnit,
)
from .term import all_names, subst


def cps_transform(t: SrcTerm, k, fresh: FreshSupply) -> SrcTerm:
    """CPS-convert t; k builds the term that consumes t's value slot."""
    if isinstance(t, (NatLit, UnitLit, Var)):
        return k(t)
    if isinstance(t, Pred):
        return _op1(t.arg, Pred, k, fresh)
    if isinstance(t, Fst):
        return _op1(t.arg, Fst, k, fresh)
    if isinstance(t, Snd):
        return _op1(t.arg, Snd, k, fresh)
    if isinstance(t, Plus):
        return _op2(t.l, t.r, Plus, k, fresh)
    if isinstance(t, Pair):
        return _op2(t.l, t.r, Pair, k, fresh)
    if isinstance(t, Ifz):
        kv = fresh.fresh("k")

        def branch_k(x):
            return App(Var(kv), x)

        zb = cps_transform(t.zbranch, branch_k, fresh)
        nzb = cps_transform(t.nzbranch, branch_k, fresh)

        def ifz_k(x1):
            return Let(_reify(k, fresh), kv, Ifz(x1, zb, nzb))

        return cps_transform(t.cond, ifz_k, fresh)
    if isinstance(t, Let):

        def let_k(v1):
            body = subst({t.binder: v1}, t.body)
            return cps_transform(body, k, fresh)

        return cps_transform(t.bound, let_k, fresh)
    if isinstance(t, Fix):
        p = fresh.fresh("p")
        kv = fresh.fresh("k")
        v = fresh.fresh("v")
        body = cps_transform(t.body, lambda y: App(Var(kv), y), fresh)
        fn = Fix(
            t.selfbinder,
            p,
            None,
            None,
            Let(Fst(Var(p)), kv, Let(Snd(Var(p)), t.argbinder, body)),
        )
        return Let(fn, v, k(Var(v)))
    if isinstance(t, App):

        def app_k(x1):
            def arg_k(x2):
                kv = fresh.fresh("k")
                p = fresh.fresh("p")
                return Let(
                    _reify(k, fresh), kv, Let(Pair(Var(kv), x2), p, App(x1, Var(p)))
                )

            return cps_transform(t.arg, arg_k, fresh)

        return cps_transform(t.fn, app_k, fresh)
    raise TypeError(t)


def _op1(arg, ctor, k, fresh):
    def kf(x):
        v = fresh.fresh("v")
        return Let(ctor(x), v, k(Var(v)))

    return cps_transform(arg, kf, fresh)


def _op2(l, r, ctor, k, fresh):
    def k1(x1):
        def k2(x2):
            v = fresh.fresh("v")
            return Let(ctor(x1, x2), v, k(Var(v)))

        return cps_transform(r, k2, fresh)

    return cps_transform(l, k1, fresh)


def _reify(k, fresh: FreshSupply) -> SrcTerm:
    """The dynamic continuation fix _ a. K@a for rules that bind K by let."""
    f = fresh.fresh("f")
    a = fresh.fresh("a")
    return Fix(f, a, None, None, k(Var(a)))


def cps_type(answer: SrcType, t: SrcType) -> SrcType:
    if isinstance(t, (TNat, TUnit)):
        return t
    if isinstance(t, TProd):
        return TProd(cps_type(answer, t.left), cps_type(answer, t.right))
    if isinstance(t, TArrow):
        dom = cps_type(answer, t.domain)
        cod = cps_type(answer, t.codomain)
        return TArrow(TProd(TArrow(cod, answer), dom), answer)
    raise TypeError(t)


def cps_program(t: SrcTerm) -> SrcTerm:
    """CPS with the identity continuation; requires an empty-context nat typing."""
    ty = src.typecheck_src([], t)
    if ty != src.NAT:
        from .errors import TypeMismatch

        raise TypeMismatch(t, src.NAT, ty)
    fresh = FreshSupply(avoid=all_names(t))
    return cps_transform(t, lambda v: v, fresh)
