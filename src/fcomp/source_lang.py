"""The PCF-like source language (also the target of the CPS pass).

Syntax, simple types with unification-based inference and small-step
call-by-value evaluation.  Binding structure (free variables, substitution,
alpha-equivalence, s-expressions) comes from the term core in ``term``,
which describes the types as well; ``SrcTerm._types`` names them as the
class that fix's annotations read as.

The closure-converted language of ``cc_lang`` is this language with code
abstraction, closures and open in place of ``fix``, so the rules the two
share live here once: ``Inference`` holds the shared typing rules, which
``cc_lang`` extends with its own types and constructors, and the table
``RULES`` is the reduction relation of both, and of ``cg_lang`` after its
own rules.  The step relation ``step_src`` and the value test ``is_value``
are read off it.  Every evaluator is one call of ``eval_lets``, the
let-stack loop that iterates a stage's machine step on states (heap, term):
``step_term``, which is ``step_src`` passing the heap through, or cg's.
"""

from __future__ import annotations

from typing import Optional

from .errors import TypeMismatch, UnboundVariable, UnresolvedTypeVariable
from .term import EvalOutcome, Outcome, Term, node, subst

# The benchmark's mutant check reads free variables through this module.
from .term import free_vars  # noqa: F401
from .unify import Unifier, UnifyError, has_tvar


# ---------------------------------------------------------------------------
# Types


class SrcType(Term):
    __slots__ = ()
    _noun = "type"


@node("nat")
class TNat(SrcType):
    def __str__(self):
        return "nat"


@node("unit")
class TUnit(SrcType):
    def __str__(self):
        return "unit"


def _wrap(ty, heads):
    """ty as text, in parentheses if its head (a variable has none) is in heads."""
    s = str(ty)
    return f"({s})" if getattr(ty, "_head", None) in heads else s


@node("(arrow domain codomain)")
class TArrow(SrcType):
    domain: SrcType
    codomain: SrcType

    def __str__(self):
        return f"{_wrap(self.domain, ('arrow',))} -> {self.codomain}"


@node("(prod left right)")
class TProd(SrcType):
    left: SrcType
    right: SrcType

    def __str__(self):
        heads = ("arrow", "prod")
        return f"{_wrap(self.left, heads)} * {_wrap(self.right, heads)}"


NAT = TNat()
UNIT = TUnit()


# ---------------------------------------------------------------------------
# Terms


class SrcTerm(Term):
    __slots__ = ()
    _types = SrcType


@node("(nat #n)")
class NatLit(SrcTerm):
    n: int


@node("(var name)", var=True)
class Var(SrcTerm):
    name: str


@node("(pred arg)")
class Pred(SrcTerm):
    arg: SrcTerm


@node("(plus l r)")
class Plus(SrcTerm):
    l: SrcTerm
    r: SrcTerm


@node("(ifz cond zbranch nzbranch)")
class Ifz(SrcTerm):
    cond: SrcTerm
    zbranch: SrcTerm
    nzbranch: SrcTerm


@node("unit")
class UnitLit(SrcTerm):
    pass


@node("(pair l r)")
class Pair(SrcTerm):
    l: SrcTerm
    r: SrcTerm


@node("(fst arg)")
class Fst(SrcTerm):
    arg: SrcTerm


@node("(snd arg)")
class Snd(SrcTerm):
    arg: SrcTerm


@node("(let bound (binder body))", binds={"body": ("binder",)})
class Let(SrcTerm):
    bound: SrcTerm
    binder: str
    body: SrcTerm


@node(
    "(fix (selfbinder argbinder ?argty ?retty) body)",
    binds={"body": ("selfbinder", "argbinder")},
)
class Fix(SrcTerm):
    selfbinder: str
    argbinder: str
    argty: Optional[SrcType]
    retty: Optional[SrcType]
    body: SrcTerm


@node("(app fn arg)")
class App(SrcTerm):
    fn: SrcTerm
    arg: SrcTerm


UNITVAL = UnitLit()


# ---------------------------------------------------------------------------
# Typing


def typecheck_src(ctx, t: SrcTerm, ans: SrcType = None) -> SrcType:
    """Infer the type of t under ctx (a list of (name, type) pairs).

    Annotations missing from fix binders are filled in by monomorphic
    unification.  The returned type must come out ground; interior types
    that stay unconstrained (e.g. an ignored argument) are tolerated.
    ans, when given, is the answer type of a CPS term: the result type of
    every fix without a result annotation.
    """
    inf = Inference(ans)
    return inf.finish(inf.infer(list(ctx), t))


def ctx_lookup(ctx, name):
    for x, ty in reversed(ctx):
        if x == name:
            return ty
    raise UnboundVariable(name)


class Inference:
    """One typing run: a unifier, the typing rules shared with the
    closure-converted language and the ``fix`` rule.  The class attributes
    are the types the rules build; a subclass sets its own and types its
    own constructors in ``infer_other``.  ``ans`` is the answer type, or
    None when functions may return any type."""

    nat, unit, prod, arrow = NAT, UNIT, TProd, TArrow

    def __init__(self, ans=None):
        self.u = Unifier()
        self.ans = ans

    def result(self):
        """The result type of a function with no result annotation."""
        return self.ans if self.ans is not None else self.u.fresh()

    def finish(self, ty):
        """ty with every solved variable substituted; it must be ground."""
        ty = self.u.zonk(ty)
        if has_tvar(ty):
            raise UnresolvedTypeVariable(f"could not ground inferred type {ty}")
        return ty

    def expect(self, t, actual, expected):
        """Unify actual with expected, or raise TypeMismatch at t."""
        try:
            self.u.unify(actual, expected)
        except UnifyError:
            raise TypeMismatch(t, self.u.zonk(expected), self.u.zonk(actual))

    def check(self, ctx, sub, expected):
        actual = self.infer(ctx, sub)
        self.expect(sub, actual, expected)
        return actual

    def infer(self, ctx, t):
        """The type of t under ctx, a list of (name, type) pairs that the
        rules for binders push onto and pop.  A run types its own copy of
        the context and is dropped if it raises, so a raise need not pop."""
        u = self.u
        h = t._head
        if h == "nat":
            return self.nat
        if h == "unit":
            return self.unit
        if h == "var":
            return ctx_lookup(ctx, t.name)
        if h == "pred":
            self.check(ctx, t.arg, self.nat)
            return self.nat
        if h == "plus":
            self.check(ctx, t.l, self.nat)
            self.check(ctx, t.r, self.nat)
            return self.nat
        if h == "ifz":
            self.check(ctx, t.cond, self.nat)
            tz = self.infer(ctx, t.zbranch)
            tnz = self.infer(ctx, t.nzbranch)
            try:
                u.unify(tz, tnz)
            except UnifyError:
                raise TypeMismatch(t, u.zonk(tz), u.zonk(tnz))
            return tz
        if h == "pair":
            return self.prod(self.infer(ctx, t.l), self.infer(ctx, t.r))
        if h == "fst" or h == "snd":
            a, b = u.fresh(), u.fresh()
            self.check(ctx, t.arg, self.prod(a, b))
            return a if h == "fst" else b
        if h == "let":
            tb = self.infer(ctx, t.bound)
            ctx.append((t.binder, tb))
            ty = self.infer(ctx, t.body)
            ctx.pop()
            return ty
        if h == "fix":
            t1 = t.argty if t.argty is not None else u.fresh()
            t2 = t.retty if t.retty is not None else self.result()
            arrow = self.arrow(t1, t2)
            ctx += [(t.selfbinder, arrow), (t.argbinder, t1)]
            tb = self.infer(ctx, t.body)
            del ctx[-2:]
            self.expect(t, tb, t2)
            return arrow
        if h == "app":
            tf = self.infer(ctx, t.fn)
            ta = self.infer(ctx, t.arg)
            res = u.fresh()
            self.expect(t, tf, self.arrow(ta, res))
            return res
        return self.infer_other(ctx, t)

    def infer_other(self, ctx, t):
        """The type of a node whose constructor the shared rules lack."""
        raise TypeError(t)


# ---------------------------------------------------------------------------
# Evaluation

def _apply(t):
    """The body of t's code with its binders substituted."""
    fn = t.fn
    if fn._head == "fix":
        return subst({fn.selfbinder: fn, fn.argbinder: t.arg}, fn.body)
    return subst({fn.binder: t.arg}, fn.body)


# The reduction relation of every IR, one entry per head that steps: the
# children evaluated, left to right, each with the heads its value must
# have for the rule to apply (None: any), and the contraction of the node
# once they are values, or None when the node is then a value itself.  The
# evaluated children are a node's first fields, in field order.
RULES = {
    "pred": ((("arg", {"nat"}),),
             lambda t: t.arg.__class__(max(0, t.arg.n - 1))),
    "plus": ((("l", {"nat"}), ("r", {"nat"})),
             lambda t: t.l.__class__(t.l.n + t.r.n)),
    "ifz": ((("cond", {"nat"}),),
            lambda t: t.zbranch if t.cond.n == 0 else t.nzbranch),
    "pair": ((("l", None), ("r", None)), None),
    "fst": ((("arg", {"pair"}),), lambda t: t.arg.l),
    "snd": ((("arg", {"pair"}),), lambda t: t.arg.r),
    "let": ((("bound", None),), lambda t: subst({t.binder: t.bound}, t.body)),
    "app": ((("fn", {"fix", "cabs"}), ("arg", None)), _apply),
    # The closure-converted language alone has these.
    "clos": ((("code", None), ("env", None)), None),
    "open": ((("scrutinee", {"clos"}),), lambda t: subst(
        {t.fbinder: t.scrutinee.code, t.ebinder: t.scrutinee.env}, t.body)),
}

# The heads of the values that have no subterm to evaluate.
_LEAF_VALUES = frozenset({"nat", "unit", "fix", "cabs", "loc"})

# is_value, read off the rules: a node is a value when its head is a leaf
# value's, or when its rule has no contraction and its evaluated children
# are values.  It is compiled, so that a child is read as an attribute,
# which costs less than getattr on the millions of calls of a fuzz run.
exec("\n".join([
    "def is_value(t):",
    '    """Whether t is a value: the value test of every IR."""',
    "    h = t._head",
    "    if h in _LEAF_VALUES:",
    "        return True",
    *(f"    if h == {h!r}:\n        return "
      + " and ".join(f"is_value(t.{f})" for f, _ in kids)
      for h, (kids, contract) in RULES.items() if contract is None),
    "    return False",
]))


def step_src(t):
    """One step of left-to-right call-by-value reduction of a source, cps,
    cc, hoisted or cg term, or None: by t's rule, step the first evaluated
    child that is not a value; stuck if one that is has a head the rule does
    not take; else contract.  A rebuilt node has the class of the node it
    replaces, so a step stays in the language of its term."""
    rule = RULES.get(t._head)
    if rule is None:
        return None
    kids, contract = rule
    # The evaluated children are the first fields; a counter indexes them
    # at less cost than enumerate.
    args = t._values(t)
    if t._unary:
        args = (args,)
    i = 0
    for _, heads in kids:
        c = args[i]
        if not is_value(c):
            c = step_src(c)
            if c is None:
                return None
            args = list(args)
            args[i] = c
            return t.__class__(*args)
        if heads is not None and c._head not in heads:
            return None
        i += 1
    return None if contract is None else contract(t)


def step_term(state):
    """``step_src`` as a machine step: the heap passes through."""
    return None if (t := step_src(state[1])) is None else (state[0], t)


def eval_lets(step, heap, t, fuel):
    """Iterate ``step``, the machine step of t's IR, from (heap, t) to a
    value, stuck term, or fuel exhaustion; returns the outcome and the final
    heap.  The heap is a ``cg_lang.MemState`` at cg and None elsewhere.

    Keeps the enclosing ``let`` frames on an explicit stack so that each step
    costs time near the redex rather than a walk from the root; popping a
    frame onto a value is one step, so the step counts agree exactly with
    iterating the machine step.
    """
    let = t._heads["let"]
    steps = 0
    stack = []
    u = t
    while True:
        while isinstance(u, let):
            stack.append((u.binder, u.body))
            u = u.bound
        value = is_value(u)
        if value and not stack:
            return EvalOutcome(Outcome.VALUE, u, steps), heap
        if steps >= fuel:
            kind = Outcome.OUT_OF_FUEL
            break
        if value:
            binder, body = stack.pop()
            u = subst({binder: u}, body)
        else:
            nxt = step((heap, u))
            if nxt is None:
                kind = Outcome.STUCK
                break
            heap, u = nxt
        steps += 1
    for binder, body in reversed(stack):
        u = let(u, binder, body)
    return EvalOutcome(kind, u, steps), heap


def eval_src(t: SrcTerm, fuel: int) -> EvalOutcome:
    """Iterate step_src to a value, stuck term, or fuel exhaustion."""
    return eval_lets(step_term, None, t, fuel)[0]
