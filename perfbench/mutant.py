"""The ``mutant`` workload: ``harness.fuzz`` on a compiler with one injected bug.

The ROADMAP names "``fcomp fuzz`` on a buggy compiler" as an end-to-end
target, and this is the only workload that exercises ``harness.shrink``.
Scoring a fuzzer against injected bugs is mutation analysis (DeMillo,
Lipton and Sayward, 1978).

Each bug is injected from here by rebinding a name that ``cg_pass`` looks
up at call time; the name is restored afterwards.  The catalogue:

- ``load_offset``: ``_load`` reads offset 2 where it should read 1, so
  ``snd`` reads past its pair; in ``fcomp fuzz``, ``OutOfBounds`` escapes
  ``harness.fuzz``.
- ``plus_dup``: ``GPlus`` reads its first operand twice.
- ``pred_plus``: ``GPred(a)`` becomes ``GPlus(a, 0)``, so every recursion
  counting down through ``pred`` diverges in compiled code and burns the
  whole cg fuel (400k steps).

The mutants run one after another in this process, each through the fuzz
loop of ``fuzz.py`` with a limit per case, on a fixed number of programs.
"""

from __future__ import annotations

import time

from common import BenchError, OverLimit, within

FUEL = 10_000  # GenConfig's default, as fcomp fuzz uses it

# A case (the check of one generated program and the shrinking of its
# counterexamples) that runs longer than this is a stall: it counts as
# failed and fuzzing goes on with the next program.  Shrinking a plus_dup
# counterexample takes well under a second; the stalls run for minutes.
CASE_LIMIT_S = 3.0

# Programs each mutant fuzzes per second of the run's ``--seconds``: fixed
# work per seed, as on fuzz (fuzz.PROGRAMS_PER_S), so that two runs on one
# seed fail on the same programs.  Each mutant takes about a third of a run
# on the reference machine; pred_plus is slow because its programs stall.
PROGRAMS_PER_S = {"load_offset": 10, "plus_dup": 1.5, "pred_plus": 0.5}

# The limit on each check the oracles make after the run.
ORACLE_LIMIT_S = 10.0

# name -> (the cg_pass name it rebinds, a maker of the buggy value from the
# original value and the module)
MUTANTS = {
    "load_offset": ("_load", lambda orig, cg: (
        lambda arg, offset, k, fresh:
            orig(arg, 2 if offset == 1 else offset, k, fresh))),
    "plus_dup": ("GPlus", lambda orig, cg: lambda l, r: orig(l, l)),
    "pred_plus": ("GPred", lambda orig, cg: (
        lambda a, plus=cg.GPlus, nat=cg.GNat: plus(a, nat(0)))),
}


class Injected:
    """Rebind one name in cg_pass for the duration of a ``with`` block."""

    def __init__(self, fcomp, mutant):
        self.module = fcomp.cg_pass
        self.name, make = MUTANTS[mutant]
        if not hasattr(self.module, self.name):
            raise BenchError(f"mutant {mutant}: cg_pass.{self.name} is gone")
        try:
            self.value = make(getattr(self.module, self.name), self.module)
        except AttributeError as e:
            raise BenchError(f"mutant {mutant}: {e}") from e

    def __enter__(self):
        self.saved = getattr(self.module, self.name)
        setattr(self.module, self.name, self.value)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.saved)


def check_witness(fcomp, mutant, stage, term):
    """The oracle for one shrunk witness: closed, nat-typed, failing at its
    stage under the mutant, passing with the mutant removed.  Returns None
    or what is wrong.  Raises OverLimit when a check runs too long."""
    harness, source_lang = fcomp.harness, fcomp.source_lang
    if source_lang.free_vars(term):
        return "witness is not closed"
    if source_lang.typecheck_src([], term) != source_lang.NAT:
        return "witness is not nat-typed"
    with Injected(fcomp, mutant):
        under = _limited_check(fcomp, term)
    if not any(f.stage == stage for f in under.failures):
        return f"witness does not fail at {stage} under the mutant"
    clean = _limited_check(fcomp, term)
    if clean.failures:
        return f"witness fails without the mutant: {clean.failures[0].stage}"
    return None


def caused_by_mutant(fcomp, case):
    """Whether a case that crashed or stalled under its mutant passes
    without it, well inside the case limit: then the mutant caused it."""
    try:
        report = within(time.perf_counter() + CASE_LIMIT_S / 2,
                        fcomp.harness.check_preservation, case.term, FUEL)
    except OverLimit:
        return False
    except Exception:  # noqa: BLE001 - crashes without the mutant too
        return False
    return not report.failures


def _limited_check(fcomp, term):
    return within(time.perf_counter() + ORACLE_LIMIT_S,
                  fcomp.harness.check_preservation, term, FUEL)
