"""The closure-conversion target language.

Terms add abstractions without a self binder, closures and open; types
distinguish the closure arrow (->) from the code arrow (=>) and include
rigid skolem constants for the environment type hidden by open.  The module
also hosts the hoisted-program form produced by the hoisting pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Tuple

from .errors import (
    NonEmptyClosureContext,
    RigidEscape,
    TypeMismatch,
    UnboundVariable,
    UnresolvedTypeVariable,
)
from .source_lang import ctx_lookup
from .term import (
    EvalOutcome, Term, eval_lets, free_vars, node, program_body, subst,
)
from .unify import TypeExpr, Unifier, UnifyError, has_tvar


# ---------------------------------------------------------------------------
# Types


class CCType(TypeExpr):
    __slots__ = ()


@dataclass(frozen=True)
class CCNat(CCType):
    def __str__(self):
        return "nat"


@dataclass(frozen=True)
class CCUnit(CCType):
    def __str__(self):
        return "unit"


@dataclass(frozen=True)
class ClosArrow(CCType):
    dom: CCType
    cod: CCType

    def __str__(self):
        return f"({self.dom} -> {self.cod})"


@dataclass(frozen=True)
class CodeArrow(CCType):
    dom: CCType
    cod: CCType

    def __str__(self):
        return f"({self.dom} => {self.cod})"


@dataclass(frozen=True)
class CCProd(CCType):
    left: CCType
    right: CCType

    def __str__(self):
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class Rigid(CCType):
    tag: int

    def __str__(self):
        return f"l{self.tag}"


CC_NAT = CCNat()
CC_UNIT = CCUnit()


# ---------------------------------------------------------------------------
# Terms


class CCTerm(Term):
    __slots__ = ()


@node("(nat #n)")
class CNat(CCTerm):
    n: int


@node("(var name)", var=True)
class CVar(CCTerm):
    name: str


@node("(pred arg)")
class CPred(CCTerm):
    arg: CCTerm


@node("(plus l r)")
class CPlus(CCTerm):
    l: CCTerm
    r: CCTerm


@node("(ifz cond zbranch nzbranch)")
class CIfz(CCTerm):
    cond: CCTerm
    zbranch: CCTerm
    nzbranch: CCTerm


@node("unit")
class CUnit(CCTerm):
    pass


@node("(pair l r)")
class CPair(CCTerm):
    l: CCTerm
    r: CCTerm


@node("(fst arg)")
class CFst(CCTerm):
    arg: CCTerm


@node("(snd arg)")
class CSnd(CCTerm):
    arg: CCTerm


@node("(let bound (binder body))", binds={"body": ("binder",)})
class CLet(CCTerm):
    bound: CCTerm
    binder: str
    body: CCTerm


@node("(cabs (binder) body)", binds={"body": ("binder",)})
class CAbs(CCTerm):
    binder: str
    body: CCTerm


@node("(clos code env)")
class CClos(CCTerm):
    code: CCTerm
    env: CCTerm


@node(
    "(open scrutinee (fbinder ebinder) body)",
    binds={"body": ("fbinder", "ebinder")},
)
class COpen(CCTerm):
    scrutinee: CCTerm
    fbinder: str
    ebinder: str
    body: CCTerm


@node("(app fn arg)")
class CApp(CCTerm):
    fn: CCTerm
    arg: CCTerm


CC_UNITVAL = CUnit()


@dataclass(frozen=True)
class HoistedProgram:
    """letfun binders = functions in body."""

    binders: Tuple[str, ...]
    functions: Tuple[CCTerm, ...]
    body: CCTerm


def closure_call_arg(t: COpen):
    """M2 when t is the closure call open M as f,e in f (M, (M2, e)), the
    only shape of open that hoisting and code generation accept; else None."""
    body = t.body
    if (
        isinstance(body, CApp)
        and body.fn == CVar(t.fbinder)
        and isinstance(body.arg, CPair)
        and body.arg.l == t.scrutinee
        and isinstance(body.arg.r, CPair)
        and body.arg.r.r == CVar(t.ebinder)
    ):
        return body.arg.r.l
    return None


def cc_is_value(t: CCTerm) -> bool:
    if isinstance(t, (CNat, CUnit, CAbs)):
        return True
    if isinstance(t, CPair):
        return cc_is_value(t.l) and cc_is_value(t.r)
    if isinstance(t, CClos):
        return cc_is_value(t.code) and cc_is_value(t.env)
    return False


# ---------------------------------------------------------------------------
# Typing


_rigid_tags = itertools.count(1)


def typecheck_cc(ctx, t: CCTerm) -> CCType:
    """Infer the type of t.

    Open follows the closure-elimination rule with a fresh rigid
    environment type per open.
    """
    inf = _Inference()
    ty = inf.infer(list(ctx), t)
    return inf.finish(ty)


def _mentions_rigid(ty, tags):
    if isinstance(ty, Rigid):
        return ty.tag in tags
    import dataclasses

    return any(
        _mentions_rigid(c, tags)
        for f in dataclasses.fields(ty)
        if isinstance(c := getattr(ty, f.name), TypeExpr)
    )


class _Inference:
    """Shared unification state for one typing run.

    code_ctx lists the bindings closure code is still allowed to mention:
    empty for plain terms, the top-level function binders for hoisted
    programs (whose closures hold stub applications of those binders).
    """

    def __init__(self, code_ctx=()):
        self.u = Unifier()
        self.rigids = []
        self.code_ctx = list(code_ctx)

    def finish(self, ty):
        ty = self.u.zonk(ty)
        if has_tvar(ty):
            raise UnresolvedTypeVariable(f"could not ground inferred type {ty}")
        if self.rigids and _mentions_rigid(ty, set(self.rigids)):
            raise RigidEscape(f"skolem environment type escapes into {ty}")
        return ty

    def check(self, ctx, sub, expected):
        actual = self.infer(ctx, sub)
        try:
            self.u.unify(actual, expected)
        except UnifyError:
            raise TypeMismatch(sub, self.u.zonk(expected), self.u.zonk(actual))
        return actual

    def infer(self, ctx, t):
        u = self.u
        if isinstance(t, CNat):
            return CC_NAT
        if isinstance(t, CUnit):
            return CC_UNIT
        if isinstance(t, CVar):
            return ctx_lookup(ctx, t.name)
        if isinstance(t, CPred):
            self.check(ctx, t.arg, CC_NAT)
            return CC_NAT
        if isinstance(t, CPlus):
            self.check(ctx, t.l, CC_NAT)
            self.check(ctx, t.r, CC_NAT)
            return CC_NAT
        if isinstance(t, CIfz):
            self.check(ctx, t.cond, CC_NAT)
            tz = self.infer(ctx, t.zbranch)
            tnz = self.infer(ctx, t.nzbranch)
            try:
                u.unify(tz, tnz)
            except UnifyError:
                raise TypeMismatch(t, u.zonk(tz), u.zonk(tnz))
            return tz
        if isinstance(t, CPair):
            return CCProd(self.infer(ctx, t.l), self.infer(ctx, t.r))
        if isinstance(t, CFst):
            a, b = u.fresh(), u.fresh()
            self.check(ctx, t.arg, CCProd(a, b))
            return a
        if isinstance(t, CSnd):
            a, b = u.fresh(), u.fresh()
            self.check(ctx, t.arg, CCProd(a, b))
            return b
        if isinstance(t, CLet):
            tb = self.infer(ctx, t.bound)
            ctx.append((t.binder, tb))
            try:
                return self.infer(ctx, t.body)
            finally:
                ctx.pop()
        if isinstance(t, CAbs):
            targ = u.fresh()
            ctx.append((t.binder, targ))
            try:
                tb = self.infer(ctx, t.body)
            finally:
                ctx.pop()
            return CodeArrow(targ, tb)
        if isinstance(t, CApp):
            tf = self.infer(ctx, t.fn)
            ta = self.infer(ctx, t.arg)
            res = u.fresh()
            try:
                u.unify(tf, CodeArrow(ta, res))
            except UnifyError:
                raise TypeMismatch(t, CodeArrow(u.zonk(ta), u.zonk(res)), u.zonk(tf))
            return res
        if isinstance(t, CClos):
            allowed = {x for x, _ in self.code_ctx}
            fv = free_vars(t.code) - allowed
            if fv:
                raise NonEmptyClosureContext(fv)
            tcode = self.infer(list(self.code_ctx), t.code)
            t1, t2, te = u.fresh(), u.fresh(), u.fresh()
            pattern = CodeArrow(CCProd(ClosArrow(t1, t2), CCProd(t1, te)), t2)
            try:
                u.unify(tcode, pattern)
            except UnifyError:
                raise TypeMismatch(t.code, pattern, u.zonk(tcode))
            self.check(ctx, t.env, te)
            return ClosArrow(t1, t2)
        if isinstance(t, COpen):
            t1, t2 = u.fresh(), u.fresh()
            self.check(ctx, t.scrutinee, ClosArrow(t1, t2))
            tag = next(_rigid_tags)
            self.rigids.append(tag)
            env_ty = Rigid(tag)
            ctx.append(
                (
                    t.fbinder,
                    CodeArrow(CCProd(ClosArrow(t1, t2), CCProd(t1, env_ty)), t2),
                )
            )
            ctx.append((t.ebinder, env_ty))
            try:
                return self.infer(ctx, t.body)
            finally:
                ctx.pop()
                ctx.pop()
        raise TypeError(t)


# ---------------------------------------------------------------------------
# Evaluation


def step_cc(t: CCTerm):
    if cc_is_value(t):
        return None
    if isinstance(t, CPred):
        if isinstance(t.arg, CNat):
            return CNat(max(0, t.arg.n - 1))
        a = step_cc(t.arg)
        return None if a is None else CPred(a)
    if isinstance(t, CPlus):
        if isinstance(t.l, CNat):
            if isinstance(t.r, CNat):
                return CNat(t.l.n + t.r.n)
            r = step_cc(t.r)
            return None if r is None else CPlus(t.l, r)
        l = step_cc(t.l)
        return None if l is None else CPlus(l, t.r)
    if isinstance(t, CIfz):
        if isinstance(t.cond, CNat):
            return t.zbranch if t.cond.n == 0 else t.nzbranch
        c = step_cc(t.cond)
        return None if c is None else CIfz(c, t.zbranch, t.nzbranch)
    if isinstance(t, CPair):
        if cc_is_value(t.l):
            r = step_cc(t.r)
            return None if r is None else CPair(t.l, r)
        l = step_cc(t.l)
        return None if l is None else CPair(l, t.r)
    if isinstance(t, CFst):
        if isinstance(t.arg, CPair) and cc_is_value(t.arg):
            return t.arg.l
        a = step_cc(t.arg)
        return None if a is None else CFst(a)
    if isinstance(t, CSnd):
        if isinstance(t.arg, CPair) and cc_is_value(t.arg):
            return t.arg.r
        a = step_cc(t.arg)
        return None if a is None else CSnd(a)
    if isinstance(t, CLet):
        if cc_is_value(t.bound):
            return subst({t.binder: t.bound}, t.body)
        b = step_cc(t.bound)
        return None if b is None else CLet(b, t.binder, t.body)
    if isinstance(t, CClos):
        if cc_is_value(t.code):
            e = step_cc(t.env)
            return None if e is None else CClos(t.code, e)
        c = step_cc(t.code)
        return None if c is None else CClos(c, t.env)
    if isinstance(t, COpen):
        if isinstance(t.scrutinee, CClos) and cc_is_value(t.scrutinee):
            return subst(
                {t.fbinder: t.scrutinee.code, t.ebinder: t.scrutinee.env}, t.body
            )
        if cc_is_value(t.scrutinee):
            return None
        s = step_cc(t.scrutinee)
        return None if s is None else COpen(s, t.fbinder, t.ebinder, t.body)
    if isinstance(t, CApp):
        if isinstance(t.fn, CAbs):
            if cc_is_value(t.arg):
                return subst({t.fn.binder: t.arg}, t.fn.body)
            a = step_cc(t.arg)
            return None if a is None else CApp(t.fn, a)
        if cc_is_value(t.fn):
            return None
        f = step_cc(t.fn)
        return None if f is None else CApp(f, t.arg)
    return None


def eval_cc(t: CCTerm, fuel: int) -> EvalOutcome:
    """Iterate step_cc to a value, stuck term, or fuel exhaustion."""
    return eval_lets(CLet, cc_is_value, step_cc, t, fuel)


# ---------------------------------------------------------------------------
# Hoisted programs


def typecheck_hoisted(p: HoistedProgram) -> CCType:
    """Type every listed function in the empty context, then the body.

    Inside the body, closure code parts may mention the top-level function
    binders (stubs applied to dependency tuples); those are the only names
    the closed-code check admits there.
    """
    inf = _Inference()
    ctx = []
    for binder, fn in zip(p.binders, p.functions):
        fv = free_vars(fn)
        if fv:
            raise UnboundVariable(sorted(fv)[0])
        ty = inf.infer([], fn)
        ctx.append((binder, ty))
        inf.code_ctx = list(ctx)
    return inf.finish(inf.infer(ctx, p.body))


def eval_hoisted(p: HoistedProgram, fuel: int) -> EvalOutcome:
    return eval_cc(program_body(p), fuel)
