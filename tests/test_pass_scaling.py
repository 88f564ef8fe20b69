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

The chains are the benchmark's ``scale.sum_chain(n, 0)``, 1 + 1 + ... of n
ones.  Each test that depends on how deep Python may recurse sets the limit
it assumes.  Memory is traced at a limit of 2,000 frames, on chains of 100
and 200 terms: on CPython 3.11 tracemalloc walks the whole stack at every
allocation, so tracing a compile takes time quadratic in its depth (on a
2-CPU VM, about 17 s for the 2,000-term chain and 0.2 s for 200 terms),
while what a level holds does not depend on the depth.  The 2,000-term
chain the benchmark's smoke check expects to overflow is compiled untraced,
at the limit of the import.
"""

import gc
import sys
import traceback
import tracemalloc

import pytest

from fcomp import cc_pass, cg_pass, cps
from fcomp.cc_pass import cc_program
from fcomp.cg_pass import cgen_program
from fcomp.cps import cps_program
from fcomp.hoist_pass import hoist
from fcomp.pipeline import Stage, compile_stages
from fcomp.surface import parse_source
from fcomp.term import free_vars, subterms

TRACED_LIMIT = 2_000
# The limit ``import fcomp`` sets, under which the benchmark runs.
IMPORT_LIMIT = 20_000
# Each pass's traced peak on a 100-term sum chain, with half as much again
# to spare: 0.041 MB for closure conversion and 0.025 MB for hoisting on
# CPython 3.11.  A scope copied at every binder read 0.165 MB and 0.251 MB.
CC_CHAIN_PEAK_LIMIT = 0.061 * 1024 * 1024
HOIST_CHAIN_PEAK_LIMIT = 0.037 * 1024 * 1024
# Closure conversion's traced peak on a 100-let function body, with half
# as much again to spare: 0.064 MB on CPython 3.11 (0.200 MB with a scope
# copied at every binder).
FN_BODY_PEAK_LIMIT = 0.097 * 1024 * 1024
# The CPS pass's and code generation's traced peaks on the 100-term sum
# chain, with half as much again to spare: 0.066 MB and 0.136 MB on CPython
# 3.11.  A cell per captured variable at every level took the CPS pass to
# 0.131 MB; code generation's continuations as closures with tuples of
# defaults read 0.190 MB.
CPS_CHAIN_PEAK_LIMIT = 0.1 * 1024 * 1024
CG_CHAIN_PEAK_LIMIT = 0.205 * 1024 * 1024
# Code generation's traced peak while it overflows on the 200-term chain,
# with half as much again to spare: 0.217 MB on CPython 3.11.  An overflow
# that keeps the frames it unwinds read 0.820 MB.
CG_OVERFLOW_PEAK_LIMIT = 0.325 * 1024 * 1024
RETAINED_LIMIT = 0.161 * 1024 * 1024
FREE_VARS_LIMIT = 0.062 * 1024 * 1024


def _traced(fn, *args, **kwargs):
    """fn's result, then the traced memory it retains once cycles are
    collected and its traced peak.  What ran before is collected first."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        gc.collect()
        return out, *tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def _hoisted(t):
    return compile_stages(t, stop_after=Stage.HOIST)[Stage.HOIST].payload


def test_cc_and_hoist_peak_memory_is_linear(scale, recursion_limit):
    recursion_limit(TRACED_LIMIT)
    cps_t = cps_program(parse_source(scale.sum_chain(100, 0)[0]))
    cc_t, _, peak = _traced(cc_program, cps_t)
    assert peak < CC_CHAIN_PEAK_LIMIT, f"cc_program peak {peak / 2**20:.3f} MB"
    _, _, peak = _traced(hoist, cc_t)
    assert peak < HOIST_CHAIN_PEAK_LIMIT, f"hoist peak {peak / 2**20:.3f} MB"


def test_cps_and_cgen_peak_memory_on_a_long_chain(scale, recursion_limit):
    recursion_limit(TRACED_LIMIT)
    t = parse_source(scale.sum_chain(100, 0)[0])
    _, _, peak = _traced(cps_program, t)
    assert peak < CPS_CHAIN_PEAK_LIMIT, f"cps_program peak {peak / 2**20:.3f} MB"
    _, _, peak = _traced(cgen_program, _hoisted(t))
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


def _overflows_with_one_level(hoisted):
    """Checks that cgen_program overflows on hoisted with an error whose
    traceback is one level deep and that holds no other error."""
    with pytest.raises(RecursionError) as ei:
        cgen_program(hoisted)
    e = ei.value
    assert len(traceback.extract_tb(e.__traceback__)) < 20
    assert e.__context__ is None and e.__cause__ is None


def test_code_generation_overflow_holds_one_level(scale, recursion_limit):
    # Each continuation call raises a fresh RecursionError past its
    # handler, so the error that escapes holds one level's frames: about
    # 1,500 traceback entries, and the frames behind them, otherwise.
    recursion_limit(TRACED_LIMIT)
    hoisted = _hoisted(parse_source(scale.sum_chain(200, 0)[0]))
    _, _, peak = _traced(_overflows_with_one_level, hoisted)
    assert peak < CG_OVERFLOW_PEAK_LIMIT, f"cgen_program peak {peak / 2**20:.3f} MB"


def test_code_generation_takes_a_1500_term_chain(scale, recursion_limit):
    # The deepest chain that compiles through cg is 1,538 terms on CPython
    # 3.11 (tools/compile_limits.py); more per level would lower it.
    recursion_limit(IMPORT_LIMIT)
    stages = compile_stages(parse_source(scale.sum_chain(1500, 0)[0]))
    assert Stage.CG in stages


def test_free_variables_of_a_long_function_body_in_linear_memory(recursion_limit):
    # fvars walks the long body of the fix with one set of names to find.
    recursion_limit(TRACED_LIMIT)
    lets = ["let x0 = y in"] + [f"let x{i} = x{i - 1} + 1 in" for i in range(1, 100)]
    body = " ".join(lets) + " x99"
    cps_t = cps_program(parse_source(f"(fun (y:nat). {body}) 1"))
    _, _, peak = _traced(cc_program, cps_t)
    assert peak < FN_BODY_PEAK_LIMIT, f"cc_program peak {peak / 2**20:.3f} MB"


def test_deep_sum_chain_compiles_through_hoisting(scale, recursion_limit):
    # About 2,000 nodes of the four stages stay alive together.  Kept in
    # slots, without a __dict__ each, they retain about 0.107 MB (0.253 MB
    # with a __dict__).
    recursion_limit(TRACED_LIMIT)
    t = parse_source(scale.sum_chain(200, 0)[0])
    stages, retained, _ = _traced(compile_stages, t, stop_after=Stage.HOIST)
    assert Stage.HOIST in stages
    assert retained < RETAINED_LIMIT, f"stages retain {retained / 2**20:.3f} MB"
    # At the limit of the import, the benchmark's sum_chain 2000 compiles
    # through hoisting and overflows code generation, one level deep, as its
    # smoke check expects until code generation is made iterative.
    recursion_limit(IMPORT_LIMIT)
    _overflows_with_one_level(_hoisted(parse_source(scale.sum_chain(2000, 0)[0])))


def test_free_variable_sets_are_shared_along_a_deep_body(scale, recursion_limit):
    # The hoisted body of the chain is a spine of lets whose free variables
    # mostly equal a child's.  Sharing those set objects retains about
    # 0.041 MB; a new set at every node retains about 0.164 MB.
    recursion_limit(TRACED_LIMIT)
    body = _hoisted(parse_source(scale.sum_chain(200, 0)[0])).body
    _, retained, _ = _traced(free_vars, body)
    assert retained < FREE_VARS_LIMIT, f"free_vars retains {retained / 2**20:.3f} MB"


def test_closure_conversion_calls_grow_linearly_with_closure_nesting(scale):
    # fvars enters only the subterms where a name it has not found yet is
    # free, so converting n nested closures makes a few calls per node
    # (about 1.6 at n = 200).  Re-walking each fix body made 1.13 million
    # calls on the 5,601 nodes of n = 200.
    cps_t = cps_program(parse_source(scale.nested_closures(200, 3)[0]))
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
