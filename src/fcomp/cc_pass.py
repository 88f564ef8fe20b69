"""Closure conversion.

Every fix becomes a closure: a closed code abstraction over a single
parameter packing (self-closure, argument, environment), paired with an
environment tuple holding the images of the function's free variables.
Applications open the closure and call the code on the triple
(closure, argument, environment).

The pass keeps one scope, the map from source variables to target terms,
shared down the recursion (fvars does the same with its bound set): each
binder extends it for its body and the outer entry is restored afterwards,
so memory stays linear in the depth of the term.
"""

from __future__ import annotations

from .cc_lang import (
    CAbs, CClos, CFst, CIfz, CLet, CNat, CPair, CPlus, CPred, CSnd, CVar, CCTerm,
    CC_UNITVAL, closure_call,
)
from .errors import MissingMapping, UntrackedVariable
from .fresh import FreshSupply
from .source_lang import (
    App, Fix, Fst, Ifz, Let, NatLit, Pair, Plus, Pred, Snd, SrcTerm, UnitLit, Var,
)
from .term import all_names, children


def fvars(t: SrcTerm, candidates, bound=frozenset()):
    """The candidates occurring free in t, duplicate-free, ordered by their
    last free occurrence read left to right; candidates is any container of
    names, e.g. cc_transform's scope."""
    occurrences = []
    _free_occurrences(t, candidates, set(bound), occurrences)
    return list(dict.fromkeys(reversed(occurrences)))[::-1]


def _free_occurrences(t, candidates, bound, out):
    """Append the names of t's free variables to out, left to right."""
    if isinstance(t, Var):
        if t.name in bound:
            return
        if t.name not in candidates:
            raise UntrackedVariable(t.name)
        out.append(t.name)
        return
    for _, c, scope in children(t):
        added = [b for b in scope if b not in bound]
        bound.update(added)
        _free_occurrences(c, candidates, bound, out)
        bound.difference_update(added)


def map_env(fvs, rho) -> CCTerm:
    """The environment tuple (rho(x1), (rho(x2), ... unit))."""
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


def cc_transform(rho, t: SrcTerm, fresh: FreshSupply) -> CCTerm:
    """Closure-convert t; rho maps source variables to target terms.

    dom(rho) is the set of variables t may mention free, and the candidates
    handed to fvars.  rho is copied once here; the copy is the one scope
    shared down the recursion: a Let maps its binder for its body and then
    restores the outer image, and a Fix body gets a new scope built from
    the closure's environment.  The caller's rho is never changed.
    """
    return _cc(dict(rho), t, fresh)


def _cc(rho, t, fresh):
    if isinstance(t, NatLit):
        return CNat(t.n)
    if isinstance(t, UnitLit):
        return CC_UNITVAL
    if isinstance(t, Var):
        if t.name not in rho:
            raise MissingMapping(t.name)
        return rho[t.name]
    if isinstance(t, Pred):
        return CPred(_cc(rho, t.arg, fresh))
    if isinstance(t, Fst):
        return CFst(_cc(rho, t.arg, fresh))
    if isinstance(t, Snd):
        return CSnd(_cc(rho, t.arg, fresh))
    if isinstance(t, Plus):
        return CPlus(_cc(rho, t.l, fresh), _cc(rho, t.r, fresh))
    if isinstance(t, Pair):
        return CPair(_cc(rho, t.l, fresh), _cc(rho, t.r, fresh))
    if isinstance(t, Ifz):
        return CIfz(
            _cc(rho, t.cond, fresh),
            _cc(rho, t.zbranch, fresh),
            _cc(rho, t.nzbranch, fresh),
        )
    if isinstance(t, Let):
        bound = _cc(rho, t.bound, fresh)
        y = fresh.fresh("x")
        outer = rho.get(t.binder)
        rho[t.binder] = CVar(y)
        body = _cc(rho, t.body, fresh)
        if outer is None:
            del rho[t.binder]
        else:
            rho[t.binder] = outer
        return CLet(bound, y, body)
    if isinstance(t, Fix):
        fvs = fvars(t, rho)
        env = map_env(fvs, rho)
        p = fresh.fresh("p")
        g = fresh.fresh("g")
        y = fresh.fresh("x")
        e = fresh.fresh("e")
        scope = dict(map_var(fvs)(CVar(e)))
        scope[t.selfbinder] = CVar(g)
        scope[t.argbinder] = CVar(y)
        body = _cc(scope, t.body, fresh)
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
        fn = _cc(rho, t.fn, fresh)
        arg = _cc(rho, t.arg, fresh)
        g = fresh.fresh("g")
        xf = fresh.fresh("f")
        xe = fresh.fresh("e")
        return CLet(fn, g, closure_call(CVar(g), xf, xe, arg))
    raise TypeError(t)


def cc_program(t: SrcTerm) -> CCTerm:
    fresh = FreshSupply(avoid=all_names(t))
    return cc_transform({}, t, fresh)
