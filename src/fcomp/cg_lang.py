"""The first-order target language with an explicit heap.

Its terms are ``GNat``, ``GVar``, ``GUnit``, ``GPred``, ``GPlus``,
``GIfz``, ``GApp`` and ``GLet``, derived from the source constructors'
descriptions (``term.derive``), ``GAbs`` derived from the closure-converted
``CAbs``, and four of its own: heap locations (``GLoc``), allocation
(``GAlloc``), and the heap write and read ``GMove`` and ``GLoad``.
Statements are chains of lets over expressions; pairs and closures live in
the heap via alloc/move/load.  The machine state is an immutable tuple of
heap cells, whose length is the next free index.  The machine step
``step_cg`` maps a state (heap, term) to the next: the shared relation
``source_lang.step_src``, read off the rule table ``source_lang.RULES``,
after three rules of its own: a let steps its bound through the heap, an
operand that is neither a variable nor a value is stuck, and alloc, move
and load use the heap.  ``eval_cg_program`` hands it to the let-stack loop
``source_lang.eval_lets`` from the empty heap.  A program is a
``term.Program`` of cg terms, scoped like the hoisted one.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cc_lang, source_lang as src
from .errors import OutOfBounds
from .term import Program, Term, derive, node, program_body, subterms


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


# The heads of operands in flat code and in a step (variables and values),
# and the fields that hold statements.
_OPERANDS = frozenset({"nat", "var", "unit", "loc"})
_STEP_OPERANDS = _OPERANDS | {"cabs"}
_STATEMENTS = frozenset({"zbranch", "nzbranch", "bound", "body"})


def _flat(t, heads) -> bool:
    """Whether every operand of t has one of the heads."""
    for f, _ in t._children:
        if f not in _STATEMENTS and getattr(t, f)._head not in heads:
            return False
    return True


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


def _cell(s: MemState, base: GLoc, off: int, what: str) -> int:
    i = base.index + off
    if not (0 <= i < s.next_free):
        raise OutOfBounds(f"{what} at {i}, allocated [0, {s.next_free})")
    return i


def heap_update(s: MemState, base: GLoc, off: int, v: CgTerm) -> MemState:
    i = _cell(s, base, off, "update")
    return MemState(s.heap[:i] + (v,) + s.heap[i + 1 :])


def heap_lookup(s: MemState, base: GLoc, off: int) -> CgTerm:
    return s.heap[_cell(s, base, off, "lookup")]


# ---------------------------------------------------------------------------
# Stepping


def step_cg(state):
    """One machine step from state, a pair (MemState, CgTerm), or None on
    values and stuck terms: the three rules of the module docstring, then
    ``step_src``."""
    s, t = state
    h = t._head
    if h == "let" and not src.is_value(t.bound):
        r = step_cg((s, t.bound))
        return None if r is None else (r[0], GLet(r[1], t.binder, t.body))
    if not _flat(t, _STEP_OPERANDS):
        return None
    if h == "alloc":
        return allocate(s, t.n)
    if h == "move":
        if t.base._head == "loc" and src.is_value(t.value):
            return heap_update(s, t.base, t.offset, t.value), G_UNITVAL
        return None
    if h == "load":
        if t.base._head == "loc":
            return s, heap_lookup(s, t.base, t.offset)
        return None
    t = src.step_src(t)
    return None if t is None else (s, t)


def eval_cg_program(p: Program, fuel: int):
    """Iterate step_cg from the empty heap and the body with the top-level
    functions substituted in; returns the outcome and the final heap."""
    return src.eval_lets(step_cg, EMPTY_MEM, program_body(p), fuel)


def check_operand_form(t: CgTerm) -> bool:
    """Operands of pred/plus/app/move/load/ifz are constants or variables;
    only the branches of ifz and the parts of let and abs hold statements."""
    return all(_flat(u, _OPERANDS) for u in subterms(t))


def check_program_operand_form(p: Program) -> bool:
    return all(check_operand_form(t) for t in (*p.functions, p.body))
