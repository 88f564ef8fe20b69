"""Code hoisting.

Every abstraction in a closure-converted term is lifted to a top-level
function list.  A lifted function is closed by abstracting it over a tuple
of the functions its body depends on; the abstraction's original position
is filled by a stub applying the new top-level binder to that tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .cc_lang import (
    CAbs, CApp, CClos, CFst, CIfz, CLet, CNat, COpen, CPair, CPlus, CPred,
    CSnd, CUnit, CVar, CCTerm, CC_UNITVAL, HoistedProgram, closure_call_arg,
)
from .errors import HoistEscape, UnsupportedShape
from .fresh import FreshSupply
from .term import all_names, children, free_vars


@dataclass(frozen=True)
class HoistedBody:
    """A term abstracted over a prefix of extracted-function binders."""

    binders: Tuple[str, ...]
    term: CCTerm


def hcombine(parts, builder) -> HoistedBody:
    """Concatenate the parts' binder prefixes and rebuild over their bodies."""
    binders = tuple(b for part in parts for b in part.binders)
    return HoistedBody(binders, builder(*[part.term for part in parts]))


def abstract_fn(arg: str, inner: HoistedBody):
    """Close a hoisted function body over its extracted dependencies.

    Returns the closed function Abs l. let f1 = pi1 l in ... Abs arg. body
    together with the tuple the stub must apply it to (the dependency
    binders as a unit-ended tuple).
    """
    l = "_l"
    avoid = all_names(inner.term) | set(inner.binders) | {arg}
    while l in avoid:
        l = "_" + l
    body = CAbs(arg, inner.term)
    probe = CVar(l)
    lets = []
    for f in inner.binders:
        lets.append((f, CFst(probe)))
        probe = CSnd(probe)
    for f, proj in reversed(lets):
        body = CLet(proj, f, body)
    closed_fn = CAbs(l, body)
    tup = CC_UNITVAL
    for f in reversed(inner.binders):
        tup = CPair(CVar(f), tup)
    return closed_fn, tup


def hoist(t: CCTerm, bound=frozenset(), fresh: FreshSupply = None) -> HoistedProgram:
    """Hoist every Abs out of t into a top-level function list."""
    if fresh is None:
        fresh = FreshSupply(avoid=all_names(t))
    funcs = []

    def go(t, bound) -> HoistedBody:
        if isinstance(t, (CNat, CUnit)):
            return HoistedBody((), t)
        if isinstance(t, CVar):
            if t.name not in bound:
                raise UnsupportedShape(f"free variable {t.name} in hoisting input")
            return HoistedBody((), t)
        if isinstance(t, (CPred, CFst, CSnd, CPlus, CPair, CApp, CClos, CIfz)):
            parts = []
            for _, c, _ in children(t):
                parts.append(go(c, bound))
            return hcombine(parts, type(t))
        if isinstance(t, CLet):
            p1 = go(t.bound, bound)
            mark = len(funcs)
            p2 = go(t.body, bound | {t.binder})
            _check_escape(t.binder, funcs[mark:])
            return hcombine([p1, p2], lambda a, b: CLet(a, t.binder, b))
        if isinstance(t, COpen):
            m2 = closure_call_arg(t)
            if m2 is None:
                raise UnsupportedShape(
                    "open not in closure-application form cannot be hoisted"
                )
            mark = len(funcs)
            p1 = go(t.scrutinee, bound)
            p2 = go(m2, bound)
            _check_escape(t.fbinder, funcs[mark:])
            _check_escape(t.ebinder, funcs[mark:])
            return hcombine(
                [p1, p2],
                lambda m1, m2: COpen(
                    m1,
                    t.fbinder,
                    t.ebinder,
                    CApp(
                        CVar(t.fbinder),
                        CPair(m1, CPair(m2, CVar(t.ebinder))),
                    ),
                ),
            )
        if isinstance(t, CAbs):
            mark = len(funcs)
            inner = go(t.body, bound | {t.binder})
            _check_escape(t.binder, funcs[mark:])
            closed_fn, tup = abstract_fn(t.binder, inner)
            g = fresh.fresh("g")
            funcs.append((g, closed_fn))
            return HoistedBody(inner.binders + (g,), CApp(CVar(g), tup))
        raise TypeError(t)

    result = go(t, frozenset(bound))
    fn_map = dict(funcs)
    return HoistedProgram(
        result.binders, tuple(fn_map[b] for b in result.binders), result.term
    )


def _check_escape(binder, extracted):
    for _, fn in extracted:
        if binder in free_vars(fn):
            raise HoistEscape(
                f"binder {binder} occurs free in an extracted function"
            )


def check_abs_flat(p: HoistedProgram) -> bool:
    """No Abs anywhere except each function's own top binders."""

    def flat(t):
        if isinstance(t, CAbs):
            return False
        for _, c, _ in children(t):
            if not flat(c):
                return False
        return True

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
