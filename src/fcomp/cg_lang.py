"""The first-order target language with an explicit heap.

Statements are chains of lets over expressions; pairs and closures live in
the heap via alloc/move/load.  The machine state is an immutable heap map
plus a next-free index; stepping threads the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import HeapExhausted, OutOfBounds
from .term import Term, children, eval_lets, node, program_body, subst


class CgTerm(Term):
    __slots__ = ()


@node("(nat #n)")
class GNat(CgTerm):
    n: int


@node("(var name)", var=True)
class GVar(CgTerm):
    name: str


@node("unit")
class GUnit(CgTerm):
    pass


@node("(loc #index)")
class GLoc(CgTerm):
    index: int


@node("(pred arg)")
class GPred(CgTerm):
    arg: CgTerm


@node("(plus l r)")
class GPlus(CgTerm):
    l: CgTerm
    r: CgTerm


@node("(ifz cond zbranch nzbranch)")
class GIfz(CgTerm):
    cond: CgTerm
    zbranch: CgTerm
    nzbranch: CgTerm


@node("(app fn arg)")
class GApp(CgTerm):
    fn: CgTerm
    arg: CgTerm


@node("(alloc #n)")
class GAlloc(CgTerm):
    n: int


@node("(move base #offset value)")
class GMove(CgTerm):
    base: CgTerm
    offset: int
    value: CgTerm


@node("(load base #offset)")
class GLoad(CgTerm):
    base: CgTerm
    offset: int


@node("(let bound (binder body))", binds={"body": ("binder",)})
class GLet(CgTerm):
    bound: CgTerm
    binder: str
    body: CgTerm


@node("(cabs (binder) body)", binds={"body": ("binder",)})
class GAbs(CgTerm):
    binder: str
    body: CgTerm


@dataclass(frozen=True)
class CgProgram:
    binders: Tuple[str, ...]
    functions: Tuple[CgTerm, ...]
    body: CgTerm


G_UNITVAL = GUnit()


def cg_is_value(t: CgTerm) -> bool:
    return isinstance(t, (GNat, GUnit, GLoc, GAbs))


# ---------------------------------------------------------------------------
# Memory model


@dataclass(frozen=True)
class MemState:
    next_free: int = 0
    heap: tuple = ()
    cap: int = None


EMPTY_MEM = MemState()


def allocate(s: MemState, n: int):
    """n fresh cells initialized to unit; returns the base location."""
    if s.cap is not None and s.next_free + n > s.cap:
        raise HeapExhausted(f"allocation of {n} cells exceeds cap {s.cap}")
    base = s.next_free
    heap = s.heap + (G_UNITVAL,) * n
    return MemState(base + n, heap, s.cap), GLoc(base)


def heap_update(s: MemState, base: GLoc, off: int, v: CgTerm) -> MemState:
    i = base.index + off
    if not (0 <= i < s.next_free):
        raise OutOfBounds(f"update at {i}, allocated [0, {s.next_free})")
    heap = s.heap[:i] + (v,) + s.heap[i + 1 :]
    return MemState(s.next_free, heap, s.cap)


def heap_lookup(s: MemState, base: GLoc, off: int) -> CgTerm:
    i = base.index + off
    if not (0 <= i < s.next_free):
        raise OutOfBounds(f"lookup at {i}, allocated [0, {s.next_free})")
    return s.heap[i]


# ---------------------------------------------------------------------------
# Stepping


def step_cg(s: MemState, t: CgTerm):
    """One machine step, or None on values and stuck terms."""
    if cg_is_value(t):
        return None
    if isinstance(t, GPred):
        if isinstance(t.arg, GNat):
            return s, GNat(max(0, t.arg.n - 1))
        return None
    if isinstance(t, GPlus):
        if isinstance(t.l, GNat) and isinstance(t.r, GNat):
            return s, GNat(t.l.n + t.r.n)
        return None
    if isinstance(t, GIfz):
        if isinstance(t.cond, GNat):
            return s, (t.zbranch if t.cond.n == 0 else t.nzbranch)
        return None
    if isinstance(t, GApp):
        if isinstance(t.fn, GAbs) and cg_is_value(t.arg):
            return s, subst({t.fn.binder: t.arg}, t.fn.body)
        return None
    if isinstance(t, GAlloc):
        s2, loc = allocate(s, t.n)
        return s2, loc
    if isinstance(t, GMove):
        if isinstance(t.base, GLoc) and cg_is_value(t.value):
            return heap_update(s, t.base, t.offset, t.value), G_UNITVAL
        return None
    if isinstance(t, GLoad):
        if isinstance(t.base, GLoc):
            return s, heap_lookup(s, t.base, t.offset)
        return None
    if isinstance(t, GLet):
        if cg_is_value(t.bound):
            return s, subst({t.binder: t.bound}, t.body)
        r = step_cg(s, t.bound)
        if r is None:
            return None
        s2, b2 = r
        return s2, GLet(b2, t.binder, t.body)
    return None


def eval_cg(s: MemState, t: CgTerm, fuel: int):
    """Iterate step_cg to a value, stuck term, or fuel exhaustion; returns
    the outcome and the final memory state."""
    mem = s

    def step(u):
        nonlocal mem
        r = step_cg(mem, u)
        if r is None:
            return None
        mem, u = r
        return u

    outcome = eval_lets(GLet, cg_is_value, step, t, fuel)
    return outcome, mem


def eval_cg_program(p: CgProgram, fuel: int, cap=None):
    """Substitute the top-level functions into the body, run from empty heap."""
    return eval_cg(MemState(cap=cap), program_body(p), fuel)


def check_operand_form(t: CgTerm) -> bool:
    """Operands of pred/plus/app/move/load/ifz are constants or variables;
    only the branches of ifz and the parts of let and abs hold statements."""
    for f, c, _ in children(t):
        if f in ("zbranch", "nzbranch", "bound", "body"):
            if not check_operand_form(c):
                return False
        elif not isinstance(c, (GNat, GVar, GUnit, GLoc)):
            return False
    return True


def check_program_operand_form(p: CgProgram) -> bool:
    return all(check_operand_form(f) for f in p.functions) and check_operand_form(
        p.body
    )
