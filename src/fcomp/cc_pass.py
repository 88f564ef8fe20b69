"""Closure conversion.

Every fix becomes a closure: a closed code abstraction over a single
parameter packing (self-closure, argument, environment), paired with an
environment tuple holding the images of the function's free variables.
Applications open the closure and call the code on the triple
(closure, argument, environment).
"""

from __future__ import annotations

from .cc_lang import (
    CAbs, CApp, CClos, CFst, CIfz, CLet, CNat, COpen, CPair, CPlus, CPred, CSnd,
    CVar, CCTerm, CC_UNITVAL,
)
from .errors import MissingMapping, UntrackedVariable
from .fresh import FreshSupply
from .source_lang import (
    App, Fix, Fst, Ifz, Let, NatLit, Pair, Plus, Pred, Snd, SrcTerm, UnitLit, Var,
)
from .term import all_names, children


def combine(a, b):
    """Merge duplicate-free lists: a's elements not in b, in order, then b."""
    return [x for x in a if x not in b] + list(b)


def fvars(t: SrcTerm, candidates, bound=frozenset()):
    """The candidates occurring free in t, duplicate-free, in combine order."""
    bound = set(bound)

    def go(t, bound):
        if isinstance(t, Var):
            if t.name in bound:
                return []
            if t.name in candidates:
                return [t.name]
            raise UntrackedVariable(t.name)
        out = []
        for _, c, scope in children(t):
            out = combine(out, go(c, bound | set(scope) if scope else bound))
        return out

    return go(t, bound)


def map_env(fvs, rho) -> CCTerm:
    """The environment tuple (rho(x1), (rho(x2), ... unit))."""
    rho = dict(rho)
    out = CC_UNITVAL
    for x in reversed(fvs):
        if x not in rho:
            raise MissingMapping(x)
        out = CPair(rho[x], out)
    return out


def map_var(fvs):
    """e |-> [x1 -> fst e, x2 -> fst (snd e), ...] over the unit-ended tuple."""

    def at(env_term):
        out = []
        probe = env_term
        for x in fvs:
            out.append((x, CFst(probe)))
            probe = CSnd(probe)
        return out

    return at


def cc_transform(rho, varlist, t: SrcTerm, fresh: FreshSupply) -> CCTerm:
    """Closure-convert t; rho maps source variables to target terms.

    varlist lists the variables t may mention free (the candidates handed
    to fvars); every bound variable of the output is freshened against
    dom(rho).
    """
    rho = dict(rho)
    varlist = list(varlist)

    if isinstance(t, NatLit):
        return CNat(t.n)
    if isinstance(t, UnitLit):
        return CC_UNITVAL
    if isinstance(t, Var):
        if t.name not in rho:
            raise MissingMapping(t.name)
        return rho[t.name]
    if isinstance(t, Pred):
        return CPred(cc_transform(rho, varlist, t.arg, fresh))
    if isinstance(t, Fst):
        return CFst(cc_transform(rho, varlist, t.arg, fresh))
    if isinstance(t, Snd):
        return CSnd(cc_transform(rho, varlist, t.arg, fresh))
    if isinstance(t, Plus):
        return CPlus(
            cc_transform(rho, varlist, t.l, fresh),
            cc_transform(rho, varlist, t.r, fresh),
        )
    if isinstance(t, Pair):
        return CPair(
            cc_transform(rho, varlist, t.l, fresh),
            cc_transform(rho, varlist, t.r, fresh),
        )
    if isinstance(t, Ifz):
        return CIfz(
            cc_transform(rho, varlist, t.cond, fresh),
            cc_transform(rho, varlist, t.zbranch, fresh),
            cc_transform(rho, varlist, t.nzbranch, fresh),
        )
    if isinstance(t, Let):
        bound = cc_transform(rho, varlist, t.bound, fresh)
        y = fresh.fresh("x")
        rho2 = dict(rho)
        rho2[t.binder] = CVar(y)
        body = cc_transform(rho2, combine([t.binder], varlist), t.body, fresh)
        return CLet(bound, y, body)
    if isinstance(t, Fix):
        fvs = fvars(t, varlist)
        env = map_env(fvs, rho)
        p = fresh.fresh("p")
        g = fresh.fresh("g")
        y = fresh.fresh("x")
        e = fresh.fresh("e")
        rho2 = dict(map_var(fvs)(CVar(e)))
        rho2[t.selfbinder] = CVar(g)
        rho2[t.argbinder] = CVar(y)
        body = cc_transform(
            rho2, combine([t.argbinder, t.selfbinder], fvs), t.body, fresh
        )
        code = CAbs(
            p,
            CLet(
                CFst(CVar(p)),
                g,
                CLet(
                    CFst(CSnd(CVar(p))),
                    y,
                    CLet(CSnd(CSnd(CVar(p))), e, body),
                ),
            ),
        )
        return CClos(code, env)
    if isinstance(t, App):
        fn = cc_transform(rho, varlist, t.fn, fresh)
        arg = cc_transform(rho, varlist, t.arg, fresh)
        g = fresh.fresh("g")
        xf = fresh.fresh("f")
        xe = fresh.fresh("e")
        return CLet(
            fn,
            g,
            COpen(
                CVar(g),
                xf,
                xe,
                CApp(CVar(xf), CPair(CVar(g), CPair(arg, CVar(xe)))),
            ),
        )
    raise TypeError(t)


def cc_program(t: SrcTerm) -> CCTerm:
    fresh = FreshSupply(avoid=all_names(t))
    return cc_transform({}, [], t, fresh)
