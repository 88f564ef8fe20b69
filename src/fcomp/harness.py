"""Differential verification harness.

Generates well-typed closed nat-valued programs, pushes them through the
pipeline, and checks the executable forms of the per-pass theorems: type
preservation, semantics preservation on terminating runs (hoisting by its
exact round trip, unhoisting gives back the cc term and drops no function,
rather than by running it again), structural invariants of each IR, and
the first-order fragment of the step-indexed relations.  Failures are
shrunk greedily before reporting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import List, Optional

from . import cc_lang, source_lang as src
from .cg_lang import check_program_operand_form
from .errors import ArrowTypeUnsupported, FcompError
from .hoist_pass import check_abs_flat
from .pipeline import STAGE_ORDER, STAGES, Stage, compile_stages, result_nat, run
from .sexpr import render
from .source_lang import (
    App, Fix, Ifz, Let, NatLit, Outcome, Pair, Plus, Pred, SrcTerm, Var,
    eval_src, typecheck_src, NAT, UNIT, TArrow, TProd,
)
from .term import (
    EvalOutcome, Program, Term, check_letfun_named, check_letfun_scope,
    children, free_vars, program_body, subterms, to_sexpr,
)


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_size: int = 40
    max_nat: int = 20
    fuel: int = 10_000


@dataclass
class Failure:
    stage: str
    term: SrcTerm
    expected: object
    actual: object
    shrunk: Optional[SrcTerm] = None


@dataclass
class Report:
    cases: int = 0
    terminating: int = 0
    failures: List[Failure] = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


# ---------------------------------------------------------------------------
# Type-directed generation


class ProgramGen:
    def __init__(self, cfg: GenConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self._n = 0

    def _name(self):
        self._n += 1
        return f"a{self._n}"

    def gen(self) -> SrcTerm:
        """A closed program of type nat, size bounded by max_size."""
        size = self.rng.randint(1, self.cfg.max_size)
        t = self._term([], NAT, size)
        assert typecheck_src([], t) == NAT
        return t

    def _lit(self, goal):
        if goal == NAT:
            return NatLit(self.rng.randint(0, self.cfg.max_nat))
        if goal == UNIT:
            return src.UNITVAL
        if isinstance(goal, TProd):
            return Pair(self._lit(goal.left), self._lit(goal.right))
        if isinstance(goal, TArrow):
            f, x = self._name(), self._name()
            return Fix(f, x, goal.domain, goal.codomain, self._lit(goal.codomain))
        raise TypeError(goal)

    def _small_type(self, depth=0):
        r = self.rng.random()
        if depth < 2 and r < 0.15:
            return TProd(self._small_type(depth + 1), self._small_type(depth + 1))
        return UNIT if 0.55 <= r < 0.7 else NAT

    def _vars_of(self, ctx, goal):
        return [x for x, ty in ctx if ty == goal]

    def _term(self, ctx, goal, size):
        rng = self.rng
        if size <= 1:
            vs = self._vars_of(ctx, goal)
            if vs and rng.random() < 0.5:
                return Var(rng.choice(vs))
            return self._lit(goal)
        choices = ["let", "ifz"]
        if goal == NAT:
            choices += ["lit", "pred", "plus", "plus", "app", "app", "fst"]
        elif goal == UNIT:
            choices += ["lit", "app"]
        elif isinstance(goal, TProd):
            choices += ["pair", "pair", "fst"]
        elif isinstance(goal, TArrow):
            choices += ["fix", "fix", "fix"]
        if self._vars_of(ctx, goal):
            choices += ["var", "var"]
        kind = rng.choice(choices)

        if kind == "var":
            return Var(rng.choice(self._vars_of(ctx, goal)))
        if kind == "lit":
            return self._lit(goal)
        if kind == "pred":
            return Pred(self._term(ctx, NAT, size - 1))
        if kind == "plus":
            k = rng.randint(1, max(1, size - 2))
            return Plus(self._term(ctx, NAT, k), self._term(ctx, NAT, size - 1 - k))
        if kind == "ifz":
            k = rng.randint(1, max(1, size // 3))
            rest = max(1, (size - k - 1) // 2)
            return Ifz(
                self._term(ctx, NAT, k),
                self._term(ctx, goal, rest),
                self._term(ctx, goal, rest),
            )
        if kind == "pair":
            k = rng.randint(1, max(1, size - 2))
            return Pair(
                self._term(ctx, goal.left, k),
                self._term(ctx, goal.right, size - 1 - k),
            )
        if kind == "fst":
            other = self._small_type()
            side = rng.random() < 0.5
            prod = TProd(goal, other) if side else TProd(other, goal)
            sub = self._term(ctx, prod, size - 1)
            return src.Fst(sub) if side else src.Snd(sub)
        if kind == "let":
            ty = self._small_type()
            x = self._name()
            k = rng.randint(1, max(1, size // 2))
            bound = self._term(ctx, ty, k)
            body = self._term(ctx + [(x, ty)], goal, size - 1 - k)
            return Let(bound, x, body)
        if kind == "app":
            dom = self._small_type()
            k = rng.randint(1, max(1, size // 2))
            fn = self._term(ctx, TArrow(dom, goal), size - 1 - k)
            arg = self._term(ctx, dom, k)
            return App(fn, arg)
        if kind == "fix":
            return self._fix(ctx, goal, size)
        raise AssertionError(kind)

    def _fix(self, ctx, goal, size):
        rng = self.rng
        f, x = self._name(), self._name()
        dom, cod = goal.domain, goal.codomain
        inner = ctx + [(x, dom)]
        if dom == NAT and cod == NAT and rng.random() < 0.5:
            # Recursion template: structurally decreasing on a nat argument,
            # so every generated self-call terminates.
            base = self._term(inner, NAT, max(1, size // 3))
            step = self._term(inner, NAT, max(1, size // 3))
            body = Ifz(
                Var(x), base, Plus(step, App(Var(f), Pred(Var(x))))
            )
            return Fix(f, x, dom, cod, body)
        body = self._term(inner, cod, size - 1)
        return Fix(f, x, dom, cod, body)


# ---------------------------------------------------------------------------
# Differential checks


def _check(body):
    """The check ``check(t, fuel, report=None)``: it counts t in the report
    (a new one if none is given) and returns it, compiles t, reports a
    failed compile as ``compile`` and otherwise runs ``body(t, fuel,
    stages, fail, report)``, where ``fail(stage, expected, actual)``
    reports a failure on t."""

    def check(t: SrcTerm, fuel: int, report: Report = None) -> Report:
        if report is None:
            report = Report()
        report.cases += 1

        def fail(stage, expected, actual):
            report.failures.append(Failure(stage, t, expected, actual))

        try:
            stages = compile_stages(t)
        except FcompError as e:
            fail("compile", "pipeline success", repr(e))
        else:
            body(t, fuel, stages, fail, report)
        return report

    check.__name__ = check.__qualname__ = body.__name__
    check.__doc__ = body.__doc__
    return check


def _check_roundtrip(stages, fail):
    """Unhoisting gives back the cc term and drops no function, so the
    hoisted program runs exactly the cc term's steps and every function is
    typed as part of it."""
    cc_t, hoisted = stages[Stage.CC].payload, stages[Stage.HOIST].payload
    if program_body(hoisted) != cc_t or not check_letfun_named(hoisted):
        fail("hoist-roundtrip", cc_t, hoisted)


@_check
def check_preservation(t, fuel, stages, fail, report):
    """Type and semantics preservation across the whole pipeline for one t.
    The hoisted program is neither typed nor run: its round trip to the cc
    term is checked instead."""
    # (a) Types are preserved by cps and closure conversion, every CPS
    # function and closure answering nat.  The typecheckers are looked up
    # when called, so that rebinding a module's name (to trace it) holds.
    cps_t, cc_t = stages[Stage.CPS].payload, stages[Stage.CC].payload
    for label, typecheck, expected in (
        ("cps-type", lambda: typecheck_src([], cps_t, NAT), NAT),
        ("cc-type", lambda: cc_lang.typecheck_cc([], cc_t, NAT), NAT),
    ):
        try:
            ty = typecheck()
            if ty != expected:
                fail(label, expected, ty)
        except FcompError as e:
            fail(label, expected, repr(e))

    # (b) Hoisting is checked by its round trip.
    _check_roundtrip(stages, fail)

    # (c) Terminating source runs are matched by cps, cc and cg.
    src_out = eval_src(t, fuel)
    if src_out.kind is Outcome.STUCK:
        fail("source-eval", "progress on a well-typed term", src_out)
        return
    if src_out.kind is Outcome.VALUE:
        report.terminating += 1
        n = result_nat(src_out)
        if n is None:
            fail("source-eval", "a nat value", src_out.value)
            return
        for stage in (Stage.CPS, Stage.CC, Stage.CG):
            out, _ = run(stages[stage], max(fuel * 40, 100_000))
            got = result_nat(out) if out.kind is Outcome.VALUE else None
            if got != n:
                fail(stage.value + "-eval", n, out)


@_check
def check_invariants(t, fuel, stages, fail, report):
    """Structural invariants of each stage plus trace determinism."""
    cps_t = stages[Stage.CPS].payload
    if not _operators_are_vars(cps_t):
        fail("cps-shape", "operators are variables", cps_t)
    cc_t = stages[Stage.CC].payload
    if not _closure_code_closed(cc_t):
        fail("cc-shape", "closure code parts closed", cc_t)
    hoisted = stages[Stage.HOIST].payload
    if not check_abs_flat(hoisted):
        fail("hoist-shape", "Abs-flat hoisted program", hoisted)
    _check_roundtrip(stages, fail)
    cg_p = stages[Stage.CG].payload
    if not check_program_operand_form(cg_p):
        fail("cg-shape", "constant-or-variable operands", cg_p)
    for label, p in (("hoist-shape", hoisted), ("cg-shape", cg_p)):
        if not check_letfun_scope(p):
            fail(label, "each function mentions only the binders before it", p)

    # Determinism along each stage's machine: values never step and
    # re-stepping agrees.
    budget = min(fuel, 300)
    for stage in STAGE_ORDER:
        ops = STAGES[stage]
        state = ops.start(stages[stage].payload)
        for _ in range(budget):
            term = state[1]
            if src.is_value(term):
                if ops.step(state) is not None:
                    fail(ops.step_label, "values do not step", term)
                break
            n1, n2 = ops.step(state), ops.step(state)
            if n1 != n2:
                fail(ops.step_label, "deterministic step", term)
                break
            if n1 is None:
                fail(ops.step_label, "progress", term)
                break
            state = n1


def _operators_are_vars(t: SrcTerm) -> bool:
    return all(
        not isinstance(u, App) or isinstance(u.fn, Var) for u in subterms(t)
    )


def _closure_code_closed(t) -> bool:
    return not any(
        isinstance(u, cc_lang.CClos) and free_vars(u.code) for u in subterms(t)
    )


# ---------------------------------------------------------------------------
# First-order logical relations


def _norm_value(v):
    h = v._head
    if h == "nat":
        return ("nat", v.n)
    if h == "unit":
        return ("unit",)
    if h == "pair":
        return ("pair", _norm_value(v.l), _norm_value(v.r))
    return ("opaque", v)


def _check_fo(T):
    for u in subterms(T):
        if u._head == "arrow":
            raise ArrowTypeUnsupported(f"not a first-order type: {u}")


def equiv_fo(T, i: int, v1, v2) -> bool:
    """Step-indexed value equivalence at first-order types.

    Index-independent at first order: structural identity at nat/unit and
    pointwise at products, so it reduces to comparing normalized shapes.
    """
    _check_fo(T)
    n1, n2 = _norm_value(v1), _norm_value(v2)
    return i >= 0 and n1 == n2 and n1[0] != "opaque"


def sim_fo(T, i: int, m1, m2, target_fuel: int = 1_000_000) -> bool:
    """Step-indexed forward simulation at first-order types.

    If the source term m1 reaches a value within i steps, the target m2 (a
    ``StageArtifact`` of any stage) must evaluate to an equivalent value (at
    the remaining index); vacuously true otherwise.
    """
    _check_fo(T)
    out1 = eval_src(m1, i)
    if out1.kind is not Outcome.VALUE:
        return True
    out2, _ = run(m2, target_fuel)
    if out2.kind is not Outcome.VALUE:
        return False
    return equiv_fo(T, i - out1.steps, out1.value, out2.value)


# ---------------------------------------------------------------------------
# Shrinking


def _candidates(t):
    """The terms shrinking tries in place of t, made one at a time: for each
    subterm that has children, the deepest first and those of one depth in
    preorder, t with that subterm replaced by 0, then by each child."""
    levels, level = [], [(t, lambda u: u)]
    while level:
        levels.append(level)
        level = [
            (v, lambda u, plug=plug, sub=sub, f=f: plug(replace(sub, **{f: u})))
            for sub, plug in level
            for f, v, _ in children(sub)
        ]
    for level in reversed(levels):
        for sub, plug in level:
            kids = children(sub)
            if kids:
                yield plug(NatLit(0))
            for _, v, _ in kids:
                yield plug(v)


def shrink(t: SrcTerm, fails) -> SrcTerm:
    """Greedy minimization preserving closedness, nat typing, and failure:
    the first admissible candidate replaces t, until none is left."""

    def admissible(c):
        if free_vars(c):
            return False
        try:
            return typecheck_src([], c) == NAT and bool(fails(c))
        except FcompError:
            return False

    while True:
        for c in _candidates(t):
            if admissible(c):
                t = c
                break
        else:
            return t


def _size(t):
    return sum(1 for _ in subterms(t))


# ---------------------------------------------------------------------------
# Fuzz entry point


def fuzz(cfg: GenConfig, count: int, check=check_preservation) -> Report:
    gen = ProgramGen(cfg)
    report = Report()
    for _ in range(count):
        t = gen.gen()
        before = len(report.failures)
        check(t, cfg.fuel, report)
        for failure in report.failures[before:]:
            def still_fails(c, stage=failure.stage):
                return any(f.stage == stage for f in check(c, cfg.fuel).failures)
            failure.shrunk = shrink(failure.term, still_fails)
    return report


def format_report(report: Report, cfg: GenConfig) -> str:
    lines = [
        f"cases: {report.cases}",
        f"terminating: {report.terminating}",
        f"failures: {len(report.failures)}",
        f"seed: {cfg.seed}",
    ]
    for failure in report.failures[:10]:
        lines.append(
            f"FAIL [{failure.stage}] expected {_brief(failure.expected)} "
            f"got {_brief(failure.actual)}"
        )
        witness = failure.shrunk if failure.shrunk is not None else failure.term
        lines.append("  witness: " + render(to_sexpr(witness)))
    return "\n".join(lines)


def _brief(x) -> str:
    """An outcome as its kind and steps (and value, if any); a term or program
    as its head and node count, not the many thousand nodes it may have."""
    if isinstance(x, EvalOutcome):
        value = x.kind is Outcome.VALUE
        return f"{x.kind.value} after {x.steps} steps" + (
            f": {render(to_sexpr(x.value))}" if value else "")
    if isinstance(x, Program):
        return f"(letfun ...), {sum(map(_size, (*x.functions, x.body)))} nodes"
    if isinstance(x, Term) and x._noun == "term":
        return x.brief(limit=0)
    return str(x) if isinstance(x, Term) else repr(x)
