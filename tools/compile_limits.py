"""How deep a compile goes, and what memory it takes on the way: the
deepest sum chain ``1 + 1 + ... + 1`` that ``cps_program`` and
``compile_stages`` accept, found by bisection, and how much max RSS grows
while ``compile_stages`` runs on chains of 1,000, 1,500 and 2,000 terms,
each n in a fresh process.  Run from the root of a checkout as:

    PYTHONPATH=src python3 tools/compile_limits.py

It prints one JSON object.  ``deepest`` maps each entry point to the
longest chain it compiles; ``rss_growth_mb`` maps each n to whether the
compile finished and the growth of max RSS in MB.  Only the standard
library is used."""
import argparse
import gc
import json
import resource
import subprocess
import sys

from fcomp.cps import cps_program
from fcomp.pipeline import compile_stages
from fcomp.surface import parse_source

SIZES = (1000, 1500, 2000)


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
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
