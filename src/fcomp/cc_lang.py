"""The closure-conversion target language.

Its terms are the source terms but ``fix``, and three of its own: code
abstraction without a self binder (``CAbs``), closures (``CClos``) and open
(``COpen``); ``CC`` is that set of heads.  Its types are the source types,
the arrow (->) standing for closures, and two of its own: the code arrow
``CodeArrow`` (=>) and rigid skolem constants (``Rigid``) for the
environment type hidden by open.  Its classes join the term and type
families of ``source_lang``, so a head the two languages share is one
class.  The module also types and runs the hoisted program, a
``term.Program`` of cc terms, as the cc term it unhoists to
(``term.program_body``).

The rules for the constructors shared with the source language are those of
``source_lang``: typing extends its ``Inference`` with the code arrow and
the rules of code, closures and open, and evaluation is its let-stack loop
``eval_lets`` over the machine step ``step_term`` of ``step_src``, read
off its rule table ``RULES``, which has the rules of closures and open
(code is a value).
"""

from __future__ import annotations

from .errors import (
    MissingMapping, NonEmptyClosureContext, RigidEscape, TypeMismatch,
)
from .source_lang import (
    SOURCE, UNITVAL, App, Fst, Inference, Pair, Snd, SrcTerm, SrcType, TArrow,
    TProd, Var, eval_lets, step_term,
)
from .term import EvalOutcome, Grammar, Program, free_vars, node, program_body
from .unify import UnifyError, nodes


# ---------------------------------------------------------------------------
# Types


@node("(code dom cod)")
class CodeArrow(SrcType):
    dom: SrcType
    cod: SrcType

    def __str__(self):
        return f"({self.dom} => {self.cod})"


@node("(rigid #tag)")
class Rigid(SrcType):
    tag: int

    def __str__(self):
        return f"l{self.tag}"


# ---------------------------------------------------------------------------
# Terms


@node("(cabs (binder) body)", binds={"body": ("binder",)})
class CAbs(SrcTerm):
    binder: str
    body: SrcTerm


@node("(clos code env)")
class CClos(SrcTerm):
    code: SrcTerm
    env: SrcTerm


@node(
    "(open scrutinee (fbinder ebinder) body)",
    binds={"body": ("fbinder", "ebinder")},
)
class COpen(SrcTerm):
    scrutinee: SrcTerm
    fbinder: str
    ebinder: str
    body: SrcTerm


CC = Grammar(SrcTerm, SOURCE.heads - {"fix"} | {"cabs", "clos", "open"})


def closure_call(m: SrcTerm, f: str, e: str, arg: SrcTerm) -> COpen:
    """open M as f,e in f (M, (arg, e)): the call of closure M on arg."""
    return COpen(m, f, e, App(Var(f), Pair(m, Pair(arg, Var(e)))))


def map_env(fvs, rho) -> SrcTerm:
    """The environment tuple (rho(x1), (rho(x2), ... unit))."""
    out = UNITVAL
    for x in reversed(fvs):
        if x not in rho:
            raise MissingMapping(x)
        out = Pair(rho[x], out)
    return out


def map_var(fvs, probe) -> dict:
    """{x1: fst probe, x2: fst (snd probe), ...} over the unit-ended tuple."""
    out = {}
    for x in fvs:
        out[x] = Fst(probe)
        probe = Snd(probe)
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


def typecheck_cc(ctx, t: SrcTerm, ans: SrcType = None) -> SrcType:
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
    """The shared typing rules with the code arrow, and the rules of code,
    closures and open.  Closure code is closed and typed in the empty
    context.  Rigid tags are numbered from 1 in each run.
    """

    arrow = CodeArrow

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
            pattern = CodeArrow(TProd(TArrow(t1, t2), TProd(t1, te)), t2)
            try:
                u.unify(tcode, pattern)
            except UnifyError:
                raise TypeMismatch(t.code, pattern, u.zonk(tcode))
            self.check(ctx, t.env, te)
            return TArrow(t1, t2)
        if isinstance(t, COpen):
            t1, t2 = u.fresh(), self.result()
            self.check(ctx, t.scrutinee, TArrow(t1, t2))
            tag = len(self.rigids) + 1
            self.rigids.append(tag)
            env_ty = Rigid(tag)
            code_ty = CodeArrow(TProd(TArrow(t1, t2), TProd(t1, env_ty)), t2)
            ctx += [(t.fbinder, code_ty), (t.ebinder, env_ty)]
            ty = self.infer(ctx, t.body)
            del ctx[-2:]
            return ty
        raise TypeError(t)


# ---------------------------------------------------------------------------
# Evaluation


def eval_cc(t: SrcTerm, fuel: int) -> EvalOutcome:
    """Iterate step_src, whose rule table has the entries of closures and
    open, to a value, stuck term, or fuel exhaustion."""
    return eval_lets(step_term, None, t, fuel)[0]


# ---------------------------------------------------------------------------
# Hoisted programs


def typecheck_hoisted(p: Program, ans: SrcType = None) -> SrcType:
    """The type of the cc term p unhoists to.  ans is as for
    ``typecheck_cc``."""
    return typecheck_cc([], program_body(p), ans)


def eval_hoisted(p: Program, fuel: int) -> EvalOutcome:
    return eval_cc(program_body(p), fuel)
