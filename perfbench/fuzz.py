"""The fuzz loop of the ``fuzz`` and ``mutant`` workloads.

``fuzz`` runs it on the correct compiler: this is what ``fcomp fuzz`` and
acceptance criterion 3 do, and it is the user's main loop.  ``mutant``
runs it on a compiler with an injected bug.

The check handed to ``harness.fuzz`` is ``check_preservation`` wrapped to
time each verdict, to stop the loop when its work is done or its time is
up, and to hold each case to a wall-clock limit.  A case is the check of one generated
program plus the shrinking of its counterexamples.  When a case runs past
its limit or crashes, it is marked and every later shrink probe of it
returns "does not fail" at once, so ``harness.shrink`` ends and fuzzing
goes on with the next program.  An exception that escapes
``harness.fuzz`` all the same fails the open case and ends the loop.
"""

from __future__ import annotations

import dataclasses
import time

from common import OverLimit, TimeUp, log_counterexamples, within

# The fuzz workload checks a fixed number of programs per second of the
# run's ``--seconds``: the first ones of the seed's stream.  With fixed
# work, two runs on one seed check the same programs, so they fail on the
# same ones; a loop that stops on the clock reaches a slow program in one
# run and not in the next.  At this rate a 30 s run checks 300 programs,
# which takes 8 to 60 s on the reference machine, as the seed gives more or
# fewer programs of the heavy tail.
PROGRAMS_PER_S = 10

# The fuzz workload's limit per case ("over the limit" counts as failed).
# The slow programs of the heavy tail finish in 12 to 70 s; a limit near
# their times would cut a program in one run and not in the next, as the
# machine's speed drifts.  At 120 s only programs that run for minutes are
# cut, and a run still ends within 180 s.
VERDICT_LIMIT_S = 120.0

# The traced run checks its programs three times (untraced, traced, and in
# the determinism guard's second process), so it holds each case to less.
TRACED_LIMIT_S = 10.0


def programs(seconds, rate=PROGRAMS_PER_S):
    """The number of programs a run of ``seconds`` checks at ``rate``."""
    return max(1, round(rate * seconds))


@dataclasses.dataclass
class Case:
    id: str
    term: object
    start: float
    deadline: float
    check_s: float = None    # the check's time, to its verdict or its crash
                             # (None when cut at the limit)
    case_s: float = None     # from the check to the next program
    failures: list = dataclasses.field(default_factory=list)
    error: tuple = None      # (stage, exception class, detail)


def prepare(fcomp, seed):
    return fcomp.harness.GenConfig(seed, 40, fuel=10_000)


def run(fcomp, cfg, tracer, limit_s, prefix, count, until):
    """Fuzz until ``count`` cases have started or the clock reaches
    ``until`` (a ``time.perf_counter`` value, which also cuts a case still
    running then).  Returns the cases and the wall time of the loop."""
    harness = fcomp.harness
    cases = []
    t_start = time.perf_counter()

    def checked(case, *args):
        return within(case.deadline, tracer.call, "harness.check",
                      harness.check_preservation, *args)

    def probe(t, fuel):
        case = cases[-1]
        if case.error is None:
            try:
                return checked(case, t, fuel)
            except OverLimit:
                case.error = ("shrink", "OverLimit",
                              f"case over {case.deadline - case.start:.4g} s")
            except fcomp.errors.FcompError:
                raise  # harness.shrink counts the candidate as not failing
            except Exception as e:  # noqa: BLE001 - a crash fails the case
                case.error = ("shrink", type(e).__name__, str(e))
        return harness.Report()

    def check(t, fuel, report=None):
        if report is None:  # a shrink probe of the open case
            return probe(t, fuel)
        now = time.perf_counter()
        if cases:
            cases[-1].case_s = now - cases[-1].start
            if cases[-1].error is None:
                cases[-1].term = None  # keeps memory flat over a long run
        if len(cases) >= count or now >= until:
            raise TimeUp()
        deadline = min(now + limit_s, until)
        case = Case(f"{prefix}{len(cases)}", t, now, deadline)
        cases.append(case)
        tracer.case = case.id
        before = len(report.failures)
        try:
            checked(case, t, fuel, report)
            case.check_s = time.perf_counter() - now
        except OverLimit:
            case.error = ("check", "OverLimit",
                          f"verdict over {deadline - now:.4g} s")
        except Exception as e:  # noqa: BLE001 - a crash fails the case
            case.check_s = time.perf_counter() - now
            case.error = ("check", type(e).__name__, str(e))
        if case.error is None:
            case.failures = report.failures[before:]
        else:  # nothing to shrink in a check that did not finish
            del report.failures[before:]
        return report

    try:
        harness.fuzz(cfg, 1 << 30, check)
    except TimeUp:
        pass
    except Exception as e:  # noqa: BLE001 - escaped harness.shrink itself
        if not cases:
            raise
        cases[-1].error = ("shrink", type(e).__name__, str(e))
    wall = time.perf_counter() - t_start
    if cases and cases[-1].case_s is None:
        cases[-1].case_s = time.perf_counter() - cases[-1].start
    return cases, wall


def record(ledger, cases):
    """Ledger entries of the fuzz workload: a counterexample on the correct
    compiler, a crash or a case over the limit is a failed case."""
    for c in cases:
        if c.failures:
            log_counterexamples(ledger, c.id, c.failures)
        elif c.error is not None:
            ledger.fail(c.id, *c.error)
        else:
            ledger.ok()
