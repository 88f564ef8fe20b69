"""The closure-conversion target language.

Its terms are the source terms but ``fix``, derived from their
descriptions (``term.derive``): ``CNat``, ``CVar``, ``CPred``, ``CPlus``,
``CIfz``, ``CUnit``, ``CPair``, ``CFst``, ``CSnd``, ``CLet`` and ``CApp``;
and three of its own: code abstraction without a self binder (``CAbs``),
closures (``CClos``) and open (``COpen``).  Its types ``CCNat``,
``CCUnit``, ``CCProd`` and the closure arrow ``ClosArrow`` (->) are derived
from the source types; its own are the code arrow ``CodeArrow`` (=>) and
rigid skolem constants (``Rigid``) for the environment type hidden by open.
The module also types and runs the hoisted program, a ``term.Program`` of
cc terms, as the cc term it unhoists to (``term.program_body``).

The rules for the constructors shared with the source language are those of
``source_lang``: typing extends its ``Inference`` with the cc types and the
rules of code, closures and open, and evaluation is its let-stack loop
``eval_lets`` over the machine step ``step_term`` of ``step_src``, read
off its rule table ``RULES``, which has the rules of closures and open
(code is a value).
"""

from __future__ import annotations

from . import source_lang as src
from .errors import (
    MissingMapping, NonEmptyClosureContext, RigidEscape, TypeMismatch,
)
from .source_lang import Inference, eval_lets, step_term
from .term import EvalOutcome, Program, Term, derive, free_vars, node, program_body
from .unify import UnifyError, nodes


# ---------------------------------------------------------------------------
# Types


class CCType(Term):
    __slots__ = ()
    _noun = "type"


# The types shared with the source language, described there.
CCNat = derive(src.TNat, CCType, "CCNat")
CCUnit = derive(src.TUnit, CCType, "CCUnit")
ClosArrow = derive(src.TArrow, CCType, "ClosArrow")
CCProd = derive(src.TProd, CCType, "CCProd")


@node("(code dom cod)")
class CodeArrow(CCType):
    dom: CCType
    cod: CCType

    def __str__(self):
        return f"({self.dom} => {self.cod})"


@node("(rigid #tag)")
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


# The constructors shared with the source language, described there.
CNat = derive(src.NatLit, CCTerm, "CNat")
CVar = derive(src.Var, CCTerm, "CVar")
CPred = derive(src.Pred, CCTerm, "CPred")
CPlus = derive(src.Plus, CCTerm, "CPlus")
CIfz = derive(src.Ifz, CCTerm, "CIfz")
CUnit = derive(src.UnitLit, CCTerm, "CUnit")
CPair = derive(src.Pair, CCTerm, "CPair")
CFst = derive(src.Fst, CCTerm, "CFst")
CSnd = derive(src.Snd, CCTerm, "CSnd")
CLet = derive(src.Let, CCTerm, "CLet")
CApp = derive(src.App, CCTerm, "CApp")


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


CC_UNITVAL = CUnit()


def closure_call(m: CCTerm, f: str, e: str, arg: CCTerm) -> COpen:
    """open M as f,e in f (M, (arg, e)): the call of closure M on arg."""
    return COpen(m, f, e, CApp(CVar(f), CPair(m, CPair(arg, CVar(e)))))


def map_env(fvs, rho) -> CCTerm:
    """The environment tuple (rho(x1), (rho(x2), ... unit))."""
    out = CC_UNITVAL
    for x in reversed(fvs):
        if x not in rho:
            raise MissingMapping(x)
        out = CPair(rho[x], out)
    return out


def map_var(fvs, probe) -> dict:
    """{x1: fst probe, x2: fst (snd probe), ...} over the unit-ended tuple."""
    out = {}
    for x in fvs:
        out[x] = CFst(probe)
        probe = CSnd(probe)
    return out


def closure_call_arg(t: COpen):
    """M2 when t is the closure call open M as f,e in f (M, (M2, e)), the
    only shape of open that hoisting and code generation accept; else None."""
    try:
        m2 = t.body.arg.r.l
    except AttributeError:
        return None
    if t.body == closure_call(t.scrutinee, t.fbinder, t.ebinder, m2).body:
        return m2
    return None


# ---------------------------------------------------------------------------
# Typing


def typecheck_cc(ctx, t: CCTerm, ans: CCType = None) -> CCType:
    """Infer the type of t.

    Open follows the closure-elimination rule with a fresh rigid
    environment type per open.  ans, when given, is the answer type of a
    closure-converted CPS term: the result type of every closure.
    """
    inf = _Inference(ans)
    return inf.finish(inf.infer(list(ctx), t))


def _mentions_rigid(ty, tags):
    return any(isinstance(n, Rigid) and n.tag in tags for n in nodes(ty))


class _Inference(Inference):
    """The shared typing rules over the closure-converted types, and the
    rules of code, closures and open.  Closure code is closed and typed in
    the empty context.  Rigid tags are numbered from 1 in each run.
    """

    nat, unit, prod, arrow = CC_NAT, CC_UNIT, CCProd, CodeArrow

    def __init__(self, ans=None):
        super().__init__(ans)
        self.rigids = []

    def finish(self, ty):
        ty = super().finish(ty)
        if self.rigids and _mentions_rigid(ty, set(self.rigids)):
            raise RigidEscape(f"skolem environment type escapes into {ty}")
        return ty

    def infer_other(self, ctx, t):
        u = self.u
        if isinstance(t, CAbs):
            targ = u.fresh()
            ctx.append((t.binder, targ))
            tb = self.infer(ctx, t.body)
            ctx.pop()
            return CodeArrow(targ, tb)
        if isinstance(t, CClos):
            fv = free_vars(t.code)
            if fv:
                raise NonEmptyClosureContext(fv)
            tcode = self.infer([], t.code)
            t1, t2, te = u.fresh(), self.result(), u.fresh()
            pattern = CodeArrow(CCProd(ClosArrow(t1, t2), CCProd(t1, te)), t2)
            try:
                u.unify(tcode, pattern)
            except UnifyError:
                raise TypeMismatch(t.code, pattern, u.zonk(tcode))
            self.check(ctx, t.env, te)
            return ClosArrow(t1, t2)
        if isinstance(t, COpen):
            t1, t2 = u.fresh(), self.result()
            self.check(ctx, t.scrutinee, ClosArrow(t1, t2))
            tag = len(self.rigids) + 1
            self.rigids.append(tag)
            env_ty = Rigid(tag)
            code_ty = CodeArrow(CCProd(ClosArrow(t1, t2), CCProd(t1, env_ty)), t2)
            ctx += [(t.fbinder, code_ty), (t.ebinder, env_ty)]
            ty = self.infer(ctx, t.body)
            del ctx[-2:]
            return ty
        raise TypeError(t)


# ---------------------------------------------------------------------------
# Evaluation


def eval_cc(t: CCTerm, fuel: int) -> EvalOutcome:
    """Iterate step_src, whose rule table has the entries of closures and
    open, to a value, stuck term, or fuel exhaustion."""
    return eval_lets(step_term, None, t, fuel)[0]


# ---------------------------------------------------------------------------
# Hoisted programs


def typecheck_hoisted(p: Program, ans: CCType = None) -> CCType:
    """The type of the cc term p unhoists to.  ans is as for
    ``typecheck_cc``."""
    return typecheck_cc([], program_body(p), ans)


def eval_hoisted(p: Program, fuel: int) -> EvalOutcome:
    return eval_cc(program_body(p), fuel)
