"""Code hoisting.

Every abstraction in a closure-converted term is lifted, as it is and with
its body hoisted, to a top-level function list; its original position is
filled by a stub, the new top-level binder.

The lifted functions are appended to one list as they are extracted, which
is the program's function list.  A function may name the binders listed
before it (``letfun*`` scoping): those are the functions extracted from its
own body and from the terms walked before it.  The thesis instead closes
each function over a tuple of its dependencies; that tuple's projections
grow with the cube of closure nesting.
"""

from __future__ import annotations

from .cc_lang import CAbs, COpen, closure_call, closure_call_arg
from .errors import HoistEscape, UnsupportedShape
from .fresh import FreshSupply
from .source_lang import Let, SrcTerm, Var
from .term import Program, all_names, children, free_vars, subterms


def hoist(t: SrcTerm) -> Program:
    """Hoist every Abs out of t into a top-level function list."""
    fresh = FreshSupply(avoid=all_names(t))
    funcs = {}
    # One scope for the whole walk: a binder is added for its body only if
    # it is not in scope already, and removed again only if added here.
    body = _hoist(t, set(), funcs, fresh)
    return Program(tuple(funcs), tuple(funcs.values()), body)


def _hoist(t, bound, funcs, fresh):
    """t with every Abs replaced by its stub.  The functions extracted from
    t are added to funcs, binder to function, in extraction order; its keys
    are the names a function may mention."""
    if t._is_var and t.name not in bound:
        raise UnsupportedShape(f"free variable {t.name} in hoisting input")
    if not t._children:  # a variable, numeral or unit
        return t
    if not t._binders:
        parts = []
        for _, c, _ in children(t):
            parts.append(_hoist(c, bound, funcs, fresh))
        return type(t)(*parts)
    if isinstance(t, Let):
        m1 = _hoist(t.bound, bound, funcs, fresh)
        added = t.binder not in bound
        bound.add(t.binder)
        m2 = _hoist(t.body, bound, funcs, fresh)
        if added:
            bound.remove(t.binder)
        return Let(m1, t.binder, m2)
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
        added = t.binder not in bound
        bound.add(t.binder)
        body = _hoist(t.body, bound, funcs, fresh)
        if added:
            bound.remove(t.binder)
        fn = CAbs(t.binder, body)
        escaped = free_vars(fn) - funcs.keys()
        if escaped:
            raise HoistEscape(
                f"binder {min(escaped)} occurs free in an extracted function"
            )
        g = fresh.fresh("g")
        funcs[g] = fn
        return Var(g)
    raise TypeError(t)


def check_abs_flat(p: Program) -> bool:
    """No Abs anywhere except at the top of each function."""

    def flat(t):
        return not any(isinstance(u, CAbs) for u in subterms(t))

    fns_flat = all(isinstance(fn, CAbs) and flat(fn.body) for fn in p.functions)
    return fns_flat and flat(p.body)
