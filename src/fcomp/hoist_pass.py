"""Code hoisting.

Every abstraction in a closure-converted term is lifted to a top-level
function list.  A lifted function is closed by abstracting it over a tuple
of the functions its body depends on; the abstraction's original position
is filled by a stub applying the new top-level binder to that tuple.

The lifted functions are appended to one list as they are extracted; it is
the program's function list, and a body depends on the functions appended
while it was walked.
"""

from __future__ import annotations

from .cc_lang import (
    CAbs, CApp, CLet, COpen, CVar, CCTerm, HoistedProgram, closure_call,
    closure_call_arg, map_env, map_var,
)
from .errors import HoistEscape, UnsupportedShape
from .fresh import FreshSupply
from .term import all_names, children, free_vars, lets, subterms


def abstract_fn(arg: str, body: CCTerm, deps):
    """Close a hoisted function body over its extracted dependencies.

    deps are the binders of the functions extracted from the body, in
    extraction order.  Returns the closed function
    Abs l. let f1 = pi1 l in ... Abs arg. body together with the tuple the
    stub must apply it to (the dependency binders as a unit-ended tuple):
    the dependencies are laid out as a closure environment is.
    """
    l = "_l"
    avoid = all_names(body) | set(deps) | {arg}
    while l in avoid:
        l = "_" + l
    projections = [(proj, f) for f, proj in map_var(deps)(CVar(l))]
    closed_fn = CAbs(l, lets(CAbs(arg, body), *projections))
    return closed_fn, map_env(deps, {f: CVar(f) for f in deps})


def hoist(t: CCTerm, bound=frozenset(), fresh: FreshSupply = None) -> HoistedProgram:
    """Hoist every Abs out of t into a top-level function list."""
    if fresh is None:
        fresh = FreshSupply(avoid=all_names(t))
    funcs = []
    # One scope for the whole walk: a binder is added for its body only if
    # it is not in scope already, and removed again only if added here.
    body = _hoist(t, set(bound), funcs, fresh)
    return HoistedProgram(
        tuple(g for g, _ in funcs), tuple(fn for _, fn in funcs), body
    )


def _hoist(t, bound, funcs, fresh):
    """t with every Abs replaced by its stub.  The functions extracted from
    t are appended to funcs as (binder, function) pairs, so the functions
    extracted since funcs[mark] are those of the subterm walked since."""
    if t._is_var and t.name not in bound:
        raise UnsupportedShape(f"free variable {t.name} in hoisting input")
    if not t._children:  # a variable, numeral or unit
        return t
    if not t._binders:
        parts = []
        for _, c, _ in children(t):
            parts.append(_hoist(c, bound, funcs, fresh))
        return type(t)(*parts)
    if isinstance(t, CLet):
        m1 = _hoist(t.bound, bound, funcs, fresh)
        added = t.binder not in bound
        bound.add(t.binder)
        m2 = _hoist(t.body, bound, funcs, fresh)
        if added:
            bound.remove(t.binder)
        return CLet(m1, t.binder, m2)
    if isinstance(t, COpen):
        m2 = closure_call_arg(t)
        if m2 is None:
            raise UnsupportedShape(
                "open not in closure-application form cannot be hoisted"
            )
        m1 = _hoist(t.scrutinee, bound, funcs, fresh)
        m2 = _hoist(m2, bound, funcs, fresh)
        return closure_call(m1, t.fbinder, t.ebinder, m2)
    if isinstance(t, CAbs):
        mark = len(funcs)
        added = t.binder not in bound
        bound.add(t.binder)
        body = _hoist(t.body, bound, funcs, fresh)
        if added:
            bound.remove(t.binder)
        deps = [g for g, _ in funcs[mark:]]
        closed_fn, tup = abstract_fn(t.binder, body, deps)
        escaped = free_vars(closed_fn)
        if escaped:
            raise HoistEscape(
                f"binder {min(escaped)} occurs free in an extracted function"
            )
        g = fresh.fresh("g")
        funcs.append((g, closed_fn))
        return CApp(CVar(g), tup)
    raise TypeError(t)


def check_abs_flat(p: HoistedProgram) -> bool:
    """No Abs anywhere except each function's own top binders."""

    def flat(t):
        return not any(isinstance(u, CAbs) for u in subterms(t))

    for fn in p.functions:
        # Shape: Abs l. (dependency lets) Abs x. body, body itself Abs-free.
        if not isinstance(fn, CAbs):
            return False
        inner = fn.body
        while isinstance(inner, CLet):
            if not flat(inner.bound):
                return False
            inner = inner.body
        if not isinstance(inner, CAbs) or not flat(inner.body):
            return False
    return flat(p.body)
