"""Shared pieces of the benchmark: package import, failure ledger, span
tracer, node counting and summary statistics.

The benchmark drives fcomp only through its public functions.  Tracing
wraps those functions where their callers look them up (a module global
or a class attribute) for the length of one traced run and restores them
afterwards; nothing under ``src/`` changes.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"


class BenchError(Exception):
    """The benchmark itself cannot run or went stale; no result is printed."""


def import_fcomp():
    """Import the package from this checkout's ``src``, not from site-packages."""
    if not (SRC / "fcomp" / "__init__.py").is_file():
        raise BenchError(f"no fcomp package under {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("fcomp")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TimeUp(BaseException):
    """Ends ``harness.fuzz`` when a run's time is spent (not a failure)."""


class OverLimit(BaseException):
    """A case ran past its wall-clock limit (raised from SIGALRM).  Not an
    Exception, so no handler inside the package can swallow it."""


def raise_over_limit(signum, frame):
    raise OverLimit()


def within(deadline, fn, *args, **kwargs):
    """Call ``fn``; raise OverLimit if it is still running at ``deadline``
    (a ``time.perf_counter`` value), or at once if that has passed."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise OverLimit()
    old = signal.signal(signal.SIGALRM, raise_over_limit)
    signal.setitimer(signal.ITIMER_REAL, remaining)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# ---------------------------------------------------------------------------
# Failure ledger


@dataclasses.dataclass
class Ledger:
    """Every attempted operation, and every failed one with where and why.

    A failure is a crash, a wrong value, a run over the limit or a
    counterexample on the correct compiler.  ``wrong`` marks the failures
    that are wrong outputs; any of those makes the run incorrect.
    """

    workload: str
    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)

    def ok(self):
        self.attempted += 1

    def fail(self, case, stage, exc_class, detail="", wrong=False):
        self.attempted += 1
        self.failures.append({
            "workload": self.workload,
            "case": case,
            "stage": stage,
            "exception": exc_class,
            "detail": str(detail)[:300],
            "wrong": wrong,
        })

    @property
    def failed(self):
        return len(self.failures)

    @property
    def correct(self):
        return not any(f["wrong"] for f in self.failures)

    def share(self):
        return self.failed / self.attempted if self.attempted else 0.0


def log_counterexamples(ledger, case, failures):
    """A counterexample on the correct compiler is a failed case.  It is a
    wrong output when a stage's value differs from the source
    interpreter's (an ``-eval`` stage); a stage that fails to compile or
    to typecheck is a failure but not a wrong value."""
    f = failures[0]
    ledger.fail(case, f.stage, "Counterexample",
                f"expected {f.expected!r} got {f.actual!r}",
                wrong=any(g.stage.endswith("-eval") and g.stage != "source-eval"
                          for g in failures))


# ---------------------------------------------------------------------------
# Statistics


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, p):
    """The p-th percentile (0 < p < 100) by statistics.quantiles, or None
    when fewer than ten samples lie beyond it."""
    if len(xs) * (100 - p) / 100 < 10:
        return None
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------------------
# Node counting (iterative: cps output of long chains is deep)


def count_nodes(obj) -> int:
    """Term nodes in a term, hoisted program or cg program."""
    n = 0
    stack = [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
            continue
        if not dataclasses.is_dataclass(x) or isinstance(x, type):
            continue
        cls = type(x).__name__
        if cls not in ("HoistedProgram", "CgProgram"):
            n += 1
        for f in dataclasses.fields(x):
            v = getattr(x, f.name)
            if isinstance(v, tuple) or (
                dataclasses.is_dataclass(v) and not isinstance(v, type)
            ):
                stack.append(v)
    return n


def dep_width_max(hoisted) -> int:
    """Widest dependency tuple: the lets between a hoisted function's two
    abstractions, one per extracted function it depends on."""
    widest = 0
    for fn in hoisted.functions:
        body, width = fn.body, 0
        while type(body).__name__ == "CLet":
            width += 1
            body = body.body
        widest = max(widest, width)
    return widest


# ---------------------------------------------------------------------------
# Span tracer

# (module, attribute, span name): the public functions a traced run wraps,
# at the place where their callers look them up.
WRAPS = [
    ("fcomp.harness", "ProgramGen.gen", "harness.gen"),
    ("fcomp.harness", "shrink", "harness.shrink"),
    ("fcomp.harness", "compile_stages", "pipeline.compile_stages"),
    ("fcomp.harness", "typecheck_src", "source_lang.typecheck_src"),
    ("fcomp.harness", "eval_src", "source_lang.eval_src"),
    ("fcomp.harness", "run", "pipeline.run"),
    ("fcomp.pipeline", "run", "pipeline.run"),
    ("fcomp.pipeline", "cps_program", "cps"),
    ("fcomp.pipeline", "cc_program", "cc_pass"),
    ("fcomp.pipeline", "hoist", "hoist_pass"),
    ("fcomp.pipeline", "cgen_program", "cg_pass"),
    ("fcomp.source_lang", "eval_src", "source_lang.eval_src"),
    ("fcomp.cc_lang", "typecheck_cc", "cc_lang.typecheck_cc"),
    ("fcomp.cc_lang", "typecheck_hoisted", "cc_lang.typecheck_hoisted"),
    ("fcomp.cc_lang", "eval_cc", "cc_lang.eval_cc"),
    ("fcomp.cc_lang", "eval_hoisted", "cc_lang.eval_hoisted"),
    ("fcomp.cg_lang", "eval_cg_program", "cg_lang.eval_cg_program"),
]

PASSES = ("cps", "cc_pass", "hoist_pass", "cg_pass")
EVALS = (
    "source_lang.eval_src", "cc_lang.eval_cc", "cc_lang.eval_hoisted",
    "cg_lang.eval_cg_program",
)


class NullTracer:
    """The untraced run: calls go straight through."""

    case = None

    def call(self, name, fn, *args, stage=None):
        return fn(*args)

    @contextmanager
    def installed(self):
        yield self


class Span:
    __slots__ = ("name", "start", "end", "parent", "case", "stage", "attrs",
                 "child_s")

    def __init__(self, name, start, parent, case, stage):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.case = case
        self.stage = stage
        self.attrs = {}
        self.child_s = 0.0

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.dur - self.child_s


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span and
    case id.  Spans stay in memory until ``export``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.case = None
        self._saved = []

    def open(self, name, stage=None):
        parent = self.stack[-1] if self.stack else None
        sp = Span(name, time.perf_counter(), parent, self.case, stage)
        self.spans.append(sp)
        self.stack.append(sp)
        return sp

    def close(self, sp):
        sp.end = time.perf_counter()
        popped = self.stack.pop()
        assert popped is sp, "spans close in the order they opened"
        if sp.parent is not None:
            sp.parent.child_s += sp.dur

    def call(self, name, fn, *args, stage=None):
        """Run fn(*args) inside a span and record the counts of its result."""
        sp = self.open(name, stage if stage is not None else self._stage(name))
        try:
            out = fn(*args)
        finally:
            self.close(sp)
        self._count(sp, out)
        return out

    def close_all(self):
        """Close spans left open when a run is cut (a kill at the limit)."""
        while self.stack:
            self.close(self.stack[-1])

    # -- stage attribution

    def _stage(self, name):
        parent = self.stack[-1] if self.stack else None
        if parent is not None and parent.name == "cc_lang.eval_hoisted":
            return "hoist"
        if parent is not None and parent.name == "pipeline.run":
            return parent.stage
        if name == "source_lang.typecheck_src":
            in_check = parent is not None and parent.name == "harness.check"
            return "cps" if in_check else "source"
        return {"source_lang.eval_src": "source", "cc_lang.eval_cc": "cc",
                "cc_lang.eval_hoisted": "hoist",
                "cg_lang.eval_cg_program": "cg"}.get(name)

    def _wrapper(self, fn, name):
        tracer = self

        if name == "pipeline.run":
            def traced(artifact, fuel):
                return tracer.call(name, fn, artifact, fuel,
                                   stage=artifact.stage.value)
        elif name == "harness.shrink":
            def traced(t, fails):
                sp = tracer.open(name)
                probes = sp.attrs["probes"] = []

                def probe(c):
                    t0 = time.perf_counter()
                    ok = fails(c)
                    probes.append((time.perf_counter() - t0, bool(ok)))
                    return ok
                try:
                    out = fn(t, probe)
                finally:
                    tracer.close(sp)
                tracer._count(sp, out)
                return out
        else:
            def traced(*args):
                return tracer.call(name, fn, *args)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for mod_name, attr, name in WRAPS:
            owner = importlib.import_module(mod_name)
            *path, leaf = attr.split(".")
            for p in path:
                owner = getattr(owner, p)
            fn = getattr(owner, leaf)
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrapper(fn, name))

    def uninstall(self):
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- counts and export

    def _count(self, sp, out):
        """Record the counts of a finished call.  The time spent counting is
        booked as a child of the caller, so it stays out of every self time
        and shows only in the tracing overhead."""
        t0 = time.perf_counter()
        if sp.name in PASSES:
            sp.attrs["nodes_out"] = count_nodes(out)
            if sp.name == "hoist_pass":
                sp.attrs["functions"] = len(out.functions)
                sp.attrs["dep_width"] = dep_width_max(out)
        elif sp.name in EVALS:
            outcome = out[0] if sp.name == "cg_lang.eval_cg_program" else out
            sp.attrs["steps"] = outcome.steps
            if sp.name == "cg_lang.eval_cg_program":
                sp.attrs["heap_cells"] = out[1].next_free
        elif sp.name == "harness.shrink":
            sp.attrs["witness_nodes"] = count_nodes(out)
        elif sp.name == "surface.parse_source":
            sp.attrs["nodes"] = count_nodes(out)
        elif sp.name == "sexpr.dump":
            sp.attrs["bytes"] = len(out.encode())
        if sp.parent is not None:
            sp.parent.child_s += time.perf_counter() - t0

    def export(self):
        """Spans as JSON rows; ``self`` is the duration minus the children."""
        self.close_all()
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        rows = []
        for sp in self.spans:
            rows.append({
                "name": sp.name,
                "start": sp.start,
                "end": sp.end,
                "self": sp.self_s,
                "parent": index.get(id(sp.parent)),
                "case": sp.case,
                "stage": sp.stage,
                **sp.attrs,
            })
        return rows


def write_json(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(obj))
    tmp.replace(path)
