"""The PCF-like source language (also the target of the CPS pass).

Syntax, simple types with unification-based inference and small-step
call-by-value evaluation.  Binding structure (free variables, substitution,
alpha-equivalence, s-expressions) comes from the term core in ``term``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import TypeMismatch, UnboundVariable, UnresolvedTypeVariable
from .term import EvalOutcome, Term, eval_lets, node, subst as subst_apply

# The binding operations of source terms, under the names callers use.
from .term import Outcome, all_names, alpha_eq, free_vars  # noqa: F401
from .unify import TypeExpr, Unifier, UnifyError, has_tvar


# ---------------------------------------------------------------------------
# Types


class SrcType(TypeExpr):
    __slots__ = ()


@dataclass(frozen=True)
class TNat(SrcType):
    def __str__(self):
        return "nat"


@dataclass(frozen=True)
class TUnit(SrcType):
    def __str__(self):
        return "unit"


@dataclass(frozen=True)
class TArrow(SrcType):
    domain: SrcType
    codomain: SrcType

    def __str__(self):
        dom = str(self.domain)
        if isinstance(self.domain, TArrow):
            dom = f"({dom})"
        return f"{dom} -> {self.codomain}"


@dataclass(frozen=True)
class TProd(SrcType):
    left: SrcType
    right: SrcType

    def __str__(self):
        def side(t):
            s = str(t)
            return f"({s})" if isinstance(t, (TArrow, TProd)) else s

        return f"{side(self.left)} * {side(self.right)}"


NAT = TNat()
UNIT = TUnit()


# ---------------------------------------------------------------------------
# Terms


class SrcTerm(Term):
    __slots__ = ()


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


def is_value(t: SrcTerm) -> bool:
    if isinstance(t, (NatLit, UnitLit, Fix)):
        return True
    if isinstance(t, Pair):
        return is_value(t.l) and is_value(t.r)
    return False


# ---------------------------------------------------------------------------
# Typing


def typecheck_src(ctx, t: SrcTerm) -> SrcType:
    """Infer the type of t under ctx (a list of (name, type) pairs).

    Annotations missing from fix binders are filled in by monomorphic
    unification.  The returned type must come out ground; interior types
    that stay unconstrained (e.g. an ignored argument) are tolerated.
    """
    u = Unifier()
    ty = infer_src(list(ctx), t, u)
    ty = u.zonk(ty)
    if has_tvar(ty):
        raise UnresolvedTypeVariable(f"could not ground inferred type {ty}")
    return ty


def ctx_lookup(ctx, name):
    for x, ty in reversed(ctx):
        if x == name:
            return ty
    raise UnboundVariable(name)


def infer_src(ctx, t, u: Unifier):
    def check(sub, expected):
        actual = infer_src(ctx, sub, u)
        try:
            u.unify(actual, expected)
        except UnifyError:
            raise TypeMismatch(sub, u.zonk(expected), u.zonk(actual))
        return actual

    if isinstance(t, NatLit):
        return NAT
    if isinstance(t, UnitLit):
        return UNIT
    if isinstance(t, Var):
        return ctx_lookup(ctx, t.name)
    if isinstance(t, Pred):
        check(t.arg, NAT)
        return NAT
    if isinstance(t, Plus):
        check(t.l, NAT)
        check(t.r, NAT)
        return NAT
    if isinstance(t, Ifz):
        check(t.cond, NAT)
        tz = infer_src(ctx, t.zbranch, u)
        tnz = infer_src(ctx, t.nzbranch, u)
        try:
            u.unify(tz, tnz)
        except UnifyError:
            raise TypeMismatch(t, u.zonk(tz), u.zonk(tnz))
        return tz
    if isinstance(t, Pair):
        return TProd(infer_src(ctx, t.l, u), infer_src(ctx, t.r, u))
    if isinstance(t, Fst):
        a, b = u.fresh(), u.fresh()
        check(t.arg, TProd(a, b))
        return a
    if isinstance(t, Snd):
        a, b = u.fresh(), u.fresh()
        check(t.arg, TProd(a, b))
        return b
    if isinstance(t, Let):
        tb = infer_src(ctx, t.bound, u)
        ctx.append((t.binder, tb))
        try:
            return infer_src(ctx, t.body, u)
        finally:
            ctx.pop()
    if isinstance(t, Fix):
        t1 = t.argty if t.argty is not None else u.fresh()
        t2 = t.retty if t.retty is not None else u.fresh()
        arrow = TArrow(t1, t2)
        ctx.append((t.selfbinder, arrow))
        ctx.append((t.argbinder, t1))
        try:
            tb = infer_src(ctx, t.body, u)
        finally:
            ctx.pop()
            ctx.pop()
        try:
            u.unify(tb, t2)
        except UnifyError:
            raise TypeMismatch(t, u.zonk(t2), u.zonk(tb))
        return arrow
    if isinstance(t, App):
        tf = infer_src(ctx, t.fn, u)
        ta = infer_src(ctx, t.arg, u)
        res = u.fresh()
        try:
            u.unify(tf, TArrow(ta, res))
        except UnifyError:
            raise TypeMismatch(t, TArrow(u.zonk(ta), u.zonk(res)), u.zonk(tf))
        return res
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Evaluation


def step_src(t: SrcTerm):
    """One step of left-to-right call-by-value reduction, or None."""
    if is_value(t):
        return None
    if isinstance(t, Pred):
        if isinstance(t.arg, NatLit):
            return NatLit(max(0, t.arg.n - 1))
        a = step_src(t.arg)
        return None if a is None else Pred(a)
    if isinstance(t, Plus):
        if isinstance(t.l, NatLit):
            if isinstance(t.r, NatLit):
                return NatLit(t.l.n + t.r.n)
            r = step_src(t.r)
            return None if r is None else Plus(t.l, r)
        l = step_src(t.l)
        return None if l is None else Plus(l, t.r)
    if isinstance(t, Ifz):
        if isinstance(t.cond, NatLit):
            return t.zbranch if t.cond.n == 0 else t.nzbranch
        c = step_src(t.cond)
        return None if c is None else Ifz(c, t.zbranch, t.nzbranch)
    if isinstance(t, Pair):
        if is_value(t.l):
            r = step_src(t.r)
            return None if r is None else Pair(t.l, r)
        l = step_src(t.l)
        return None if l is None else Pair(l, t.r)
    if isinstance(t, Fst):
        if isinstance(t.arg, Pair) and is_value(t.arg):
            return t.arg.l
        a = step_src(t.arg)
        return None if a is None else Fst(a)
    if isinstance(t, Snd):
        if isinstance(t.arg, Pair) and is_value(t.arg):
            return t.arg.r
        a = step_src(t.arg)
        return None if a is None else Snd(a)
    if isinstance(t, Let):
        if is_value(t.bound):
            return subst_apply({t.binder: t.bound}, t.body)
        b = step_src(t.bound)
        return None if b is None else Let(b, t.binder, t.body)
    if isinstance(t, App):
        if isinstance(t.fn, Fix):
            if is_value(t.arg):
                return subst_apply(
                    {t.fn.selfbinder: t.fn, t.fn.argbinder: t.arg}, t.fn.body
                )
            a = step_src(t.arg)
            return None if a is None else App(t.fn, a)
        if is_value(t.fn):
            return None
        f = step_src(t.fn)
        return None if f is None else App(f, t.arg)
    return None


def eval_src(t: SrcTerm, fuel: int) -> EvalOutcome:
    """Iterate step_src to a value, stuck term, or fuel exhaustion."""
    return eval_lets(Let, is_value, step_src, t, fuel)
