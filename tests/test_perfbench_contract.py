"""What the benchmark under ``perfbench/`` reads from fcomp.

The traced run wraps fcomp functions by module and name, and counts what
the passes and the cg evaluator return.  A rename in the package would
otherwise show only when the benchmark runs.  perfbench is loaded from its
file and not changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from fcomp import cg_lang, harness
from fcomp.pipeline import Stage, compile_stages
from fcomp.surface import parse_source
from fcomp.term import subterms

COMMON = Path(__file__).resolve().parent.parent / "perfbench" / "common.py"
CLOSURES = "((let x = 3 in fun (y:nat). fun (z:nat). x+y+z) 4) 5"


@pytest.fixture(scope="module")
def common():
    spec = importlib.util.spec_from_file_location("perfbench_common", COMMON)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are made.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_function_resolves(common):
    for mod_name, attr, _ in common.WRAPS:
        owner = importlib.import_module(mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, attr)


def test_counts_read_from_a_compiled_program(common):
    stages = compile_stages(parse_source(CLOSURES))
    hoisted, cg_p = stages[Stage.HOIST].payload, stages[Stage.CG].payload
    assert len(hoisted.functions) == 4  # two closures, two continuations
    terms = sum(1 for t in (*hoisted.functions, hoisted.body) for _ in subterms(t))
    # The program wrapper is a dataclass too, and is counted as one node.
    assert common.count_nodes(hoisted) == terms + 1
    assert common.count_nodes(cg_p) > 1
    assert common.dep_width_max(hoisted) >= 0
    outcome, mem = cg_lang.eval_cg_program(cg_p, 100_000)
    assert outcome.steps > 0 and mem.next_free > 0


def test_traced_check_counts_every_layer(common):
    tracer = common.Tracer()
    with tracer.installed():
        report = harness.check_preservation(parse_source(CLOSURES), 10_000)
    assert report.ok
    rows = {row["name"]: row for row in tracer.export()}
    assert rows["hoist_pass"]["functions"] == 4
    assert rows["cg_lang.eval_cg_program"]["heap_cells"] > 0
    # The hoisted program is validated by its round trip, not typed or run.
    assert "cc_lang.typecheck_hoisted" not in rows
    assert "cc_lang.eval_hoisted" not in rows
    # Every wrapper is taken off again.
    for mod_name, attr, _ in common.WRAPS:
        owner = importlib.import_module(mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert not hasattr(owner, "__wrapped__"), (mod_name, attr)
