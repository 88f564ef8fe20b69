"""Differential verification harness.

Generates well-typed closed nat-valued programs, pushes them through the
pipeline, and checks the executable forms of the per-pass theorems: type
preservation, semantics preservation on terminating runs, structural
invariants of each IR, and the first-order fragment of the step-indexed
relations.  Failures are shrunk greedily before reporting.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import List, Optional

from . import cc_lang, cg_lang, source_lang as src
from .cg_lang import check_program_operand_form
from .errors import ArrowTypeUnsupported, FcompError
from .hoist_pass import check_abs_flat
from .pipeline import Stage, compile_stages, result_nat, run
from .sexpr import render, src_to_sexpr
from .source_lang import (
    App, Fix, Ifz, Let, NatLit, Outcome, Pair, Plus, Pred, SrcTerm, Var,
    eval_src, is_value, step_src, typecheck_src, NAT, UNIT, TArrow, TProd,
)
from .term import children, free_vars, program_body


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
        if r < 0.55:
            return NAT
        if r < 0.7:
            return UNIT
        return NAT

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


def gen_typed_program(cfg: GenConfig) -> SrcTerm:
    return ProgramGen(cfg).gen()


# ---------------------------------------------------------------------------
# Differential checks


def check_preservation(t: SrcTerm, fuel: int, report: Report = None) -> Report:
    """Type and semantics preservation across the whole pipeline for one t."""
    if report is None:
        report = Report()
    report.cases += 1

    def fail(stage, expected, actual):
        report.failures.append(Failure(stage, t, expected, actual))

    try:
        stages = compile_stages(t)
    except FcompError as e:
        fail("compile", "pipeline success", repr(e))
        return report

    # (a) Types are preserved stage by stage.
    try:
        ty = typecheck_src([], stages[Stage.CPS].payload)
        if ty != NAT:
            fail("cps-type", NAT, ty)
    except FcompError as e:
        fail("cps-type", NAT, repr(e))
    try:
        ty = cc_lang.typecheck_cc([], stages[Stage.CC].payload)
        if ty != cc_lang.CC_NAT:
            fail("cc-type", cc_lang.CC_NAT, ty)
    except FcompError as e:
        fail("cc-type", cc_lang.CC_NAT, repr(e))
    try:
        ty = cc_lang.typecheck_hoisted(stages[Stage.HOIST].payload)
        if ty != cc_lang.CC_NAT:
            fail("hoist-type", cc_lang.CC_NAT, ty)
    except FcompError as e:
        fail("hoist-type", cc_lang.CC_NAT, repr(e))

    # (b) Terminating source runs are matched by every downstream stage.
    src_out = eval_src(t, fuel)
    if src_out.kind is Outcome.STUCK:
        fail("source-eval", "progress on a well-typed term", src_out)
        return report
    if src_out.kind is Outcome.VALUE:
        report.terminating += 1
        n = result_nat(src_out)
        if n is None:
            fail("source-eval", "a nat value", src_out.value)
            return report
        for stage in (Stage.CPS, Stage.CC, Stage.HOIST, Stage.CG):
            out, _ = run(stages[stage], max(fuel * 40, 100_000))
            got = result_nat(out) if out.kind is Outcome.VALUE else None
            if got != n:
                fail(stage.value + "-eval", n, out)
    return report


def check_invariants(t: SrcTerm, fuel: int, report: Report = None) -> Report:
    """Structural invariants of each stage plus trace determinism."""
    if report is None:
        report = Report()
    report.cases += 1

    def fail(stage, expected, actual):
        report.failures.append(Failure(stage, t, expected, actual))

    try:
        stages = compile_stages(t)
    except FcompError as e:
        fail("compile", "pipeline success", repr(e))
        return report

    cps_t = stages[Stage.CPS].payload
    if not _operators_are_vars(cps_t):
        fail("cps-shape", "operators are variables", cps_t)
    cc_t = stages[Stage.CC].payload
    if not _closure_code_closed(cc_t):
        fail("cc-shape", "closure code parts closed", cc_t)
    hoisted = stages[Stage.HOIST].payload
    if not check_abs_flat(hoisted):
        fail("hoist-shape", "Abs-flat hoisted program", hoisted)
    if any(free_vars(f) for f in hoisted.functions):
        fail("hoist-shape", "closed hoisted functions", hoisted)
    cg_p = stages[Stage.CG].payload
    if not check_program_operand_form(cg_p):
        fail("cg-shape", "constant-or-variable operands", cg_p)

    # Determinism along traces: values never step and re-stepping agrees.
    budget = min(fuel, 300)
    for term in (t, cps_t):
        for _ in range(budget):
            if is_value(term):
                if step_src(term) is not None:
                    fail("src-step", "values do not step", term)
                break
            n1, n2 = step_src(term), step_src(term)
            if n1 != n2:
                fail("src-step", "deterministic step", term)
                break
            if n1 is None:
                fail("src-step", "progress", term)
                break
            term = n1

    for cterm in (cc_t, program_body(hoisted)):
        for _ in range(budget):
            if cc_lang.cc_is_value(cterm):
                break
            n1, n2 = cc_lang.step_cc(cterm), cc_lang.step_cc(cterm)
            if n1 != n2:
                fail("cc-step", "deterministic step", cterm)
                break
            if n1 is None:
                fail("cc-step", "progress", cterm)
                break
            cterm = n1

    mem = cg_lang.MemState()
    gterm = program_body(cg_p)
    for _ in range(budget):
        if cg_lang.cg_is_value(gterm):
            break
        r1 = cg_lang.step_cg(mem, gterm)
        r2 = cg_lang.step_cg(mem, gterm)
        if r1 != r2:
            fail("cg-step", "deterministic step", gterm)
            break
        if r1 is None:
            fail("cg-step", "progress", gterm)
            break
        mem, gterm = r1
    return report


def _operators_are_vars(t: SrcTerm) -> bool:
    if isinstance(t, App):
        if not isinstance(t.fn, Var):
            return False
        return _operators_are_vars(t.arg)
    for _, v, _ in children(t):
        if not _operators_are_vars(v):
            return False
    return True


def _closure_code_closed(t) -> bool:
    if isinstance(t, cc_lang.CClos):
        if free_vars(t.code):
            return False
        return _closure_code_closed(t.env)
    for _, v, _ in children(t):
        if not _closure_code_closed(v):
            return False
    return True


# ---------------------------------------------------------------------------
# First-order logical relations


def _norm_value(v):
    if isinstance(v, (src.NatLit, cc_lang.CNat, cg_lang.GNat)):
        return ("nat", v.n)
    if isinstance(v, (src.UnitLit, cc_lang.CUnit, cg_lang.GUnit)):
        return ("unit",)
    if isinstance(v, (src.Pair, cc_lang.CPair)):
        return ("pair", _norm_value(v.l), _norm_value(v.r))
    return ("opaque", v)


def _check_fo(T):
    if isinstance(T, (src.TNat, src.TUnit)):
        return
    if isinstance(T, src.TProd):
        _check_fo(T.left)
        _check_fo(T.right)
        return
    raise ArrowTypeUnsupported(f"not a first-order type: {T}")


def equiv_fo(T, i: int, v1, v2) -> bool:
    """Step-indexed value equivalence at first-order types.

    Index-independent at first order: structural identity at nat/unit and
    pointwise at products, so it reduces to comparing normalized shapes.
    """
    _check_fo(T)
    if i < 0:
        return False
    n1, n2 = _norm_value(v1), _norm_value(v2)
    if n1[0] == "opaque" or n2[0] == "opaque":
        return False
    return n1 == n2


def _eval_any(m, fuel):
    if isinstance(m, SrcTerm):
        return eval_src(m, fuel)
    if isinstance(m, cc_lang.CCTerm):
        return cc_lang.eval_cc(m, fuel)
    if isinstance(m, cc_lang.HoistedProgram):
        return cc_lang.eval_hoisted(m, fuel)
    if isinstance(m, cg_lang.CgProgram):
        return cg_lang.eval_cg_program(m, fuel)[0]
    raise TypeError(m)


def sim_fo(T, i: int, m1, m2, target_fuel: int = 1_000_000) -> bool:
    """Step-indexed forward simulation at first-order types.

    If m1 reaches a value within i steps, m2 must evaluate to an equivalent
    value (at the remaining index); vacuously true otherwise.
    """
    _check_fo(T)
    out1 = eval_src(m1, i)
    if out1.kind is not Outcome.VALUE:
        return True
    out2 = _eval_any(m2, target_fuel)
    if out2.kind is not Outcome.VALUE:
        return False
    return equiv_fo(T, i - out1.steps, out1.value, out2.value)


# ---------------------------------------------------------------------------
# Shrinking


def _positions(t):
    """Yield (path, subterm) pairs in preorder; paths are field-name tuples."""
    yield (), t
    for f, v, _ in children(t):
        for path, sub in _positions(v):
            yield (f,) + path, sub


def _replace(t, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    return dataclasses.replace(t, **{head: _replace(getattr(t, head), rest, new)})


def shrink(t: SrcTerm, fails) -> SrcTerm:
    """Greedy minimization preserving closedness, nat typing, and failure."""

    def admissible(c):
        if c == t or free_vars(c):
            return False
        try:
            if typecheck_src([], c) != NAT:
                return False
        except FcompError:
            return False
        try:
            return bool(fails(c))
        except FcompError:
            return False

    current = t
    improved = True
    while improved:
        improved = False
        for path, sub in sorted(
            _positions(current), key=lambda p: -len(p[0])
        ):
            candidates = []
            if not (isinstance(sub, NatLit) and sub.n == 0):
                candidates.append(_replace(current, path, NatLit(0)))
            for _, v, _ in children(sub):
                if v != sub:
                    candidates.append(_replace(current, path, v))
            for c in candidates:
                if _size(c) < _size(current) and admissible(c):
                    current = c
                    improved = True
                    break
            if improved:
                break
    return current


def _size(t):
    n = 1
    for _, v, _ in children(t):
        n += _size(v)
    return n


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
            stage = failure.stage

            def still_fails(c, stage=stage):
                probe = check(c, cfg.fuel)
                return any(f.stage == stage for f in probe.failures)

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
            f"FAIL [{failure.stage}] expected {failure.expected!r} "
            f"got {failure.actual!r}"
        )
        witness = failure.shrunk if failure.shrunk is not None else failure.term
        lines.append("  witness: " + render(src_to_sexpr(witness)))
    return "\n".join(lines)
