"""How deep a compile goes, and what memory it takes on the way: the
deepest sum chain ``1 + 1 + ... + 1`` that ``cps_program`` and
``compile_stages`` accept, found by bisection, and how much max RSS grows
while ``compile_stages`` runs on chains of 1,000, 1,500 and 2,000 terms,
each n in a fresh process, and what ``cgen_program`` holds when it
overflows on the hoisted 2,000-term chain.  Run from the root of a checkout
as:

    PYTHONPATH=src python3 tools/compile_limits.py

It prints one JSON object.  ``deepest`` maps each entry point to the
longest chain it compiles; ``rss_growth_mb`` maps each n to whether the
compile finished and the growth of max RSS in MB; ``cgen_overflow`` gives
the chain's length, whether code generation finished, its tracemalloc peak
in MB and the number of traceback entries of the ``RecursionError`` that
escapes it (null if it finished).  Only the standard library is used."""
import argparse
import gc
import json
import resource
import subprocess
import sys
import traceback
import tracemalloc

from fcomp.cg_pass import cgen_program
from fcomp.cps import cps_program
from fcomp.pipeline import Stage, compile_stages
from fcomp.surface import parse_source

SIZES = (1000, 1500, 2000)
OVERFLOW_SIZE = 2000


def sum_chain(n):
    return parse_source(" + ".join(["1"] * n))


def accepts(compile_fn, n):
    t = sum_chain(n)
    try:
        compile_fn(t)
        return True
    except RecursionError:
        return False
    finally:
        gc.collect()


def deepest(compile_fn):
    """The largest n whose chain compile_fn accepts, assuming every shorter
    chain is accepted too: double until a chain fails, then bisect."""
    lo, hi = 1, 2
    while accepts(compile_fn, hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if accepts(compile_fn, mid):
            lo = mid
        else:
            hi = mid
    return lo


def rss_growth(n):
    """Max-RSS growth of compile_stages on the n-term chain, in this process,
    as {"compiled": bool, "growth_mb": float}."""
    t = sum_chain(n)
    gc.collect()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        compile_stages(t)
        compiled = True
    except RecursionError:
        compiled = False
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"compiled": compiled, "growth_mb": round((after - before) / 1024, 2)}


def cgen_overflow(n):
    """The traced peak of cgen_program on the hoisted n-term chain, and the
    traceback entries of the RecursionError that escapes it, if one does."""
    hoisted = compile_stages(sum_chain(n), stop_after=Stage.HOIST)
    hoisted = hoisted[Stage.HOIST].payload
    error = None
    gc.collect()
    tracemalloc.start()
    try:
        cgen_program(hoisted)
    except RecursionError as e:
        error = e
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    entries = None
    if error is not None:
        entries = len(traceback.extract_tb(error.__traceback__))
    return {"n": n, "compiled": error is None,
            "traced_peak_mb": round(peak / 2**20, 3),
            "traceback_entries": entries}


def rss_growth_fresh(n):
    # Linux keeps a process's max RSS across exec, so a child reads at least
    # this process's: run children before anything here grows.
    out = subprocess.run([sys.executable, __file__, "--one", str(n)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--one", type=int, metavar="N", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one is not None:
        print(json.dumps(rss_growth(args.one)))
        return 0
    growth = {n: rss_growth_fresh(n) for n in SIZES}
    report = {
        "python": sys.version.split()[0],
        "recursion_limit": sys.getrecursionlimit(),
        "deepest": {"cps_program": deepest(cps_program),
                    "compile_stages": deepest(compile_stages)},
        "rss_growth_mb": growth,
        "cgen_overflow": cgen_overflow(OVERFLOW_SIZE),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
