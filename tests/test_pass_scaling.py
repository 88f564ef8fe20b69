"""Every pass keeps what it holds per level of the term small.

Closure conversion and hoisting keep one scope down the recursion: along a
chain of n lets each must use memory linear in n, since a scope that is
copied at every binder keeps n copies of up to n entries alive at the
deepest point.  Both must also stay at one Python frame per term level, so
the deepest input they accept does not shrink, and closure conversion must
not walk a closure's body once per enclosing closure.

The CPS pass and code generation hold a frame and a continuation per level.
A CPS continuation takes what it uses as default parameter values, so the
pass makes no cell per captured variable at every level.  A continuation of
code generation is a ``CgKont`` record of a module-level rule and its
fields, so a level holds one slotted object, with no function object, tuple
of defaults or cell.  Their peaks on a long chain are bounded, and so is the
deepest chain code generation takes.  When code generation overflows, each
continuation call raises a fresh ``RecursionError``, so the error that
escapes holds one level's frames, and its traceback and the memory held at
the overflow stay small.
"""

import gc
import sys
import traceback
import tracemalloc

import pytest
from test_hoist import nested_closures

from fcomp import cc_pass, cg_pass, cps
from fcomp.cc_pass import cc_program
from fcomp.cg_pass import cgen_program
from fcomp.cps import cps_program
from fcomp.hoist_pass import hoist
from fcomp.pipeline import Stage, compile_stages
from fcomp.surface import parse_source
from fcomp.term import free_vars, subterms

# Each pass's traced peak on a 1,000-term sum chain, with half as much
# again to spare: 0.408 MB for closure conversion and 0.178 MB for
# hoisting on CPython 3.11, the same on every run.
CC_CHAIN_PEAK_LIMIT = 0.6 * 1024 * 1024
HOIST_CHAIN_PEAK_LIMIT = 0.27 * 1024 * 1024
# Closure conversion's traced peak on a 1,000-let function body, with half
# as much again to spare: 0.616 MB on the first call in a process (0.409 MB
# on later ones) on CPython 3.11.
FN_BODY_PEAK_LIMIT = 0.93 * 1024 * 1024
# The CPS pass's and code generation's traced peaks on the 1,000-term sum
# chain, with half as much again to spare: up to 0.607 MB and 1.165 MB on
# CPython 3.11, depending on what the process ran before.  A cell per
# captured variable at every level took them to 1.120-1.258 MB and
# 2.757-2.963 MB; code generation's continuations as closures with tuples
# of defaults read 1.397-1.705 MB.
CPS_CHAIN_PEAK_LIMIT = 0.91 * 1024 * 1024
CG_CHAIN_PEAK_LIMIT = 1.75 * 1024 * 1024
# Code generation's traced peak while it overflows on the 2,000-term chain,
# with half as much again to spare: 1.936 MB on CPython 3.11.  An overflow
# that keeps the frames it unwinds read 6.944 MB.
CG_OVERFLOW_PEAK_LIMIT = 2.9 * 1024 * 1024
RETAINED_LIMIT = 1.45 * 1024 * 1024
FREE_VARS_LIMIT = 0.6 * 1024 * 1024


def _sum_chain(n):
    return parse_source(" + ".join(["1"] * n))


def _traced_peak(fn, arg):
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cc_and_hoist_peak_memory_is_linear():
    cps_t = cps_program(_sum_chain(1000))
    peak = _traced_peak(cc_program, cps_t)
    assert peak < CC_CHAIN_PEAK_LIMIT, f"cc_program peak {peak / 2**20:.3f} MB"
    cc_t = cc_program(cps_t)
    peak = _traced_peak(hoist, cc_t)
    assert peak < HOIST_CHAIN_PEAK_LIMIT, f"hoist peak {peak / 2**20:.3f} MB"


def test_cps_and_cgen_peak_memory_on_a_long_chain():
    t = _sum_chain(1000)
    peak = _traced_peak(cps_program, t)
    assert peak < CPS_CHAIN_PEAK_LIMIT, f"cps_program peak {peak / 2**20:.3f} MB"
    hoisted = compile_stages(t, stop_after=Stage.HOIST)[Stage.HOIST].payload
    peak = _traced_peak(cgen_program, hoisted)
    assert peak < CG_CHAIN_PEAK_LIMIT, f"cgen_program peak {peak / 2**20:.3f} MB"


@pytest.mark.parametrize("fn", [
    cps.cps_transform, cps._op1, cps._op2, cg_pass.cgen_stmt, cg_pass._load,
], ids=lambda fn: fn.__qualname__)
def test_continuation_makers_make_no_cells(fn):
    # A variable that a nested function captures is a cell, made on every
    # call of the enclosing function, at every level of the term.
    assert fn.__code__.co_cellvars == ()


@pytest.mark.parametrize("fn", [cg_pass.cgen_stmt, cg_pass._load],
                         ids=lambda fn: fn.__qualname__)
def test_code_generation_makes_no_function_per_level(fn):
    # A nested function is a function object, made on every call, at every
    # level of the term; a pending context is a CgKont record instead.
    assert not any(isinstance(c, type(fn.__code__)) for c in fn.__code__.co_consts)


def test_a_code_generation_continuation_has_no_dict():
    assert not hasattr(cg_pass.identity_cgkont(), "__dict__")


def test_code_generation_overflow_holds_one_level():
    # Each continuation call raises a fresh RecursionError past its
    # handler, so the error that escapes holds one level's frames: about
    # 15,400 traceback entries, and the frames behind them, otherwise.
    hoisted = compile_stages(_sum_chain(2000), stop_after=Stage.HOIST)
    hoisted = hoisted[Stage.HOIST].payload
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(RecursionError) as ei:
            cgen_program(hoisted)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    e = ei.value
    assert len(traceback.extract_tb(e.__traceback__)) < 20
    assert e.__context__ is None and e.__cause__ is None
    assert peak < CG_OVERFLOW_PEAK_LIMIT, f"cgen_program peak {peak / 2**20:.3f} MB"


def test_code_generation_takes_a_1500_term_chain():
    # The deepest chain that compiles through cg is 1,538 terms on CPython
    # 3.11 (tools/compile_limits.py); more per level would lower it.
    stages = compile_stages(_sum_chain(1500))
    assert Stage.CG in stages


def test_free_variables_of_a_long_function_body_in_linear_memory():
    # fvars walks the long body of the fix with one set of names to find.
    lets = ["let x0 = y in"] + [f"let x{i} = x{i - 1} + 1 in" for i in range(1, 1000)]
    body = " ".join(lets) + " x999"
    cps_t = cps_program(parse_source(f"(fun (y:nat). {body}) 1"))
    peak = _traced_peak(cc_program, cps_t)
    assert peak < FN_BODY_PEAK_LIMIT, f"cc_program peak {peak / 2**20:.3f} MB"


def test_deep_sum_chain_compiles_through_hoisting():
    # About 22,000 nodes of the four stages stay alive together.  Kept in
    # slots, without a __dict__ each, they retain about 1.2 MB (1.7 MB with
    # a __dict__).  Garbage cycles are collected first, so that what was
    # run before does not change the figure.
    t = _sum_chain(2000)
    tracemalloc.start()
    try:
        stages = compile_stages(t, stop_after=Stage.HOIST)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert Stage.HOIST in stages
    assert retained < RETAINED_LIMIT, f"stages retain {retained / 2**20:.2f} MB"
    # Code generation still recurses once per level, so the same chain
    # overflows it: the benchmark's smoke check expects that failure of
    # sum_chain 2000 until code generation is made iterative.
    with pytest.raises(RecursionError):
        cgen_program(stages[Stage.HOIST].payload)


def test_free_variable_sets_are_shared_along_a_deep_body():
    # The hoisted body of the chain is a spine of lets whose free variables
    # mostly equal a child's.  Sharing those set objects retains about
    # 0.4 MB; a new set at every node retains about 1.2 MB.
    body = compile_stages(_sum_chain(2000), stop_after=Stage.HOIST)[Stage.HOIST]
    body = body.payload.body
    gc.collect()
    tracemalloc.start()
    try:
        free_vars(body)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < FREE_VARS_LIMIT, f"free_vars retains {retained / 2**20:.2f} MB"


def test_closure_conversion_calls_grow_linearly_with_closure_nesting():
    # fvars enters only the subterms where a name it has not found yet is
    # free, so converting n nested closures makes a few calls per node
    # (about 1.6 at n = 200).  Re-walking each fix body made 1.13 million
    # calls on the 5,601 nodes of n = 200.
    cps_t = cps_program(nested_closures(200, 3)[0])
    nodes = sum(1 for _ in subterms(cps_t))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == cc_pass.__file__:
            calls += 1

    sys.setprofile(count)
    try:
        cc_program(cps_t)
    finally:
        sys.setprofile(None)
    assert calls < 3 * nodes, f"{calls} calls in cc_pass for {nodes} nodes"
