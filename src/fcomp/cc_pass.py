"""Closure conversion.

Every fix becomes a closure: a closed code abstraction over a single
parameter packing (self-closure, argument, environment), paired with an
environment tuple holding the images of the function's free variables.
Applications open the closure and call the code on the triple
(closure, argument, environment).

The pass keeps one scope, the map from source variables to target terms,
shared down the recursion (fvars does the same with its set of names left
to find): each binder extends it for its body and the outer entry is
restored afterwards, so memory stays linear in the depth of the term.
"""

from __future__ import annotations

from .cc_lang import (
    CAbs, CClos, CFst, CLet, CSnd, CVar, CCTerm, closure_call, map_env, map_var,
)
from .errors import MissingMapping, UntrackedVariable
from .fresh import FreshSupply
from .source_lang import App, Fix, Let, SrcTerm, Var
from .term import all_names, counterpart, free_vars, lets


def fvars(t: SrcTerm, candidates):
    """The candidates occurring free in t, duplicate-free, ordered by their
    last free occurrence read left to right; candidates is any container of
    names, e.g. cc_transform's scope.

    t is read right to left, and a subterm is entered only if a name not
    found yet is free in it (by the cached free variables), so the walk
    stays on the paths to the last occurrences instead of covering t."""
    found = []
    _last_occurrences(t, candidates, set(free_vars(t)), found)
    return found[::-1]


def _last_occurrences(t, candidates, live, out):
    """Append to out each name of live at its last free occurrence in t,
    right to left, and remove it from live; live holds the free names of
    the whole walk not found yet and not shadowed at t."""
    if t._is_var:
        if t.name in live:
            if t.name not in candidates:
                raise UntrackedVariable(t.name)
            live.remove(t.name)
            out.append(t.name)
        return
    for f, scope in reversed(t._children):
        shadowed = [getattr(t, b) for b in scope if getattr(t, b) in live]
        live.difference_update(shadowed)
        c = getattr(t, f)
        if not live.isdisjoint(free_vars(c)):
            _last_occurrences(c, candidates, live, out)
        live.update(shadowed)


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
    if t._head in _SAME_SHAPE:
        kids = []
        for f, _ in t._children:
            kids.append(_cc(rho, getattr(t, f), fresh))
        return counterpart(t, CCTerm, kids)
    if isinstance(t, Var):
        if t.name not in rho:
            raise MissingMapping(t.name)
        return rho[t.name]
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
        scope = map_var(fvs, CVar(e))
        scope[t.selfbinder] = CVar(g)
        scope[t.argbinder] = CVar(y)
        body = _cc(scope, t.body, fresh)
        code = CAbs(
            p,
            lets(
                body,
                (CFst(CVar(p)), g),
                (CFst(CSnd(CVar(p))), y),
                (CSnd(CSnd(CVar(p))), e),
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


# The heads whose cc node has the same shape: the children converted, the
# numerals kept.
_SAME_SHAPE = frozenset("nat unit pred fst snd plus pair ifz".split())


def cc_program(t: SrcTerm) -> CCTerm:
    fresh = FreshSupply(avoid=all_names(t))
    return cc_transform({}, t, fresh)
