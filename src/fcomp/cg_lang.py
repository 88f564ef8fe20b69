"""The first-order target language with an explicit heap.

Its terms are ``GNat``, ``GVar``, ``GUnit``, ``GPred``, ``GPlus``,
``GIfz``, ``GApp`` and ``GLet``, derived from the source constructors'
descriptions (``term.derive``), ``GAbs`` derived from the closure-converted
``CAbs``, and four of its own: heap locations (``GLoc``), allocation
(``GAlloc``), and the heap write and read ``GMove`` and ``GLoad``.
Statements are chains of lets over expressions; pairs and closures live in
the heap via alloc/move/load.  The machine state is an immutable tuple of
heap cells, whose length is the next free index; stepping threads the
state.  A program is a ``term.Program`` of cg terms, scoped like the
hoisted one.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cc_lang, source_lang as src
from .errors import OutOfBounds
from .term import (
    Program, Term, derive, eval_lets, node, program_body, subst, subterms,
)


class CgTerm(Term):
    __slots__ = ()


# The constructors shared with the source and the closure-converted
# language, described there.
GNat = derive(src.NatLit, CgTerm, "GNat")
GVar = derive(src.Var, CgTerm, "GVar")
GUnit = derive(src.UnitLit, CgTerm, "GUnit")
GPred = derive(src.Pred, CgTerm, "GPred")
GPlus = derive(src.Plus, CgTerm, "GPlus")
GIfz = derive(src.Ifz, CgTerm, "GIfz")
GApp = derive(src.App, CgTerm, "GApp")
GLet = derive(src.Let, CgTerm, "GLet")
GAbs = derive(cc_lang.CAbs, CgTerm, "GAbs")


@node("(loc #index)")
class GLoc(CgTerm):
    index: int


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


G_UNITVAL = GUnit()


# The heads of values and of operands, and the fields that hold statements.
_VALUES = frozenset({"nat", "unit", "loc", "cabs"})
_OPERANDS = frozenset({"nat", "var", "unit", "loc"})
_STATEMENTS = frozenset({"zbranch", "nzbranch", "bound", "body"})


def cg_is_value(t: CgTerm) -> bool:
    return t._head in _VALUES


# ---------------------------------------------------------------------------
# Memory model


@dataclass(frozen=True, slots=True)
class MemState:
    heap: tuple = ()

    @property
    def next_free(self) -> int:
        """The first cell not allocated: the heap holds [0, next_free)."""
        return len(self.heap)


EMPTY_MEM = MemState()


def allocate(s: MemState, n: int):
    """n fresh cells initialized to unit; returns the base location."""
    return MemState(s.heap + (G_UNITVAL,) * n), GLoc(s.next_free)


def heap_update(s: MemState, base: GLoc, off: int, v: CgTerm) -> MemState:
    i = base.index + off
    if not (0 <= i < s.next_free):
        raise OutOfBounds(f"update at {i}, allocated [0, {s.next_free})")
    return MemState(s.heap[:i] + (v,) + s.heap[i + 1 :])


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
        return allocate(s, t.n)
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


def eval_cg_program(p: Program, fuel: int):
    """Substitute the top-level functions into the body, run from empty heap."""
    return eval_cg(EMPTY_MEM, program_body(p), fuel)


def check_operand_form(t: CgTerm) -> bool:
    """Operands of pred/plus/app/move/load/ifz are constants or variables;
    only the branches of ifz and the parts of let and abs hold statements."""
    for u in subterms(t):
        for f, _ in u._children:
            if f not in _STATEMENTS and getattr(u, f)._head not in _OPERANDS:
                return False
    return True


def check_program_operand_form(p: Program) -> bool:
    return all(check_operand_form(t) for t in (*p.functions, p.body))
