"""What the benchmark under ``perfbench/`` reads from fcomp.

The traced run wraps fcomp functions by module and name, and counts what
the passes and the cg evaluator return; the mutant workload injects each
bug by rebinding a name in ``cg_pass``.  A rename in the package would
otherwise show only when the benchmark runs.  perfbench is loaded from its
files (``conftest.py``) and not changed.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fcomp
from fcomp import cg_lang, harness
from fcomp.errors import FcompError
from fcomp.pipeline import STAGE_ORDER, Stage, compile_stages, result_nat, run
from fcomp.surface import parse_source
from fcomp.term import Outcome, subterms

CLOSURES = "((let x = 3 in fun (y:nat). fun (z:nat). x+y+z) 4) 5"


def test_every_wrapped_function_resolves(common):
    for mod_name, attr, _ in common.WRAPS:
        owner = importlib.import_module(mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, attr)


# The names the benchmark reads, by module, besides those it wraps and the
# one each mutant rebinds.
READ = {
    "errors": ["FcompError"],
    "harness": ["GenConfig", "Report", "check_preservation", "fuzz", "shrink"],
    "pipeline": [
        "Stage", "STAGE_ORDER", "compile_stages", "emit_sexp",
        "parse_stage_artifact", "result_nat", "run",
    ],
    "source_lang": ["NAT", "Outcome", "free_vars", "typecheck_src"],
    "surface": ["parse_source"],
}


@pytest.mark.parametrize("module", sorted(READ))
def test_every_name_read_resolves(module):
    for name in READ[module]:
        assert hasattr(getattr(fcomp, module), name), (module, name)


def test_importing_the_package_loads_every_module_read():
    """The benchmark imports the package alone and reads its modules as
    attributes, so ``import fcomp`` must load each of them."""
    modules = [
        "harness", "pipeline", "cg_pass", "cg_lang", "cc_lang", "source_lang",
        "surface", "errors",
    ]
    code = f"import fcomp; print([m for m in {modules!r} if not hasattr(fcomp, m)])"
    src = str(Path(fcomp.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


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


def test_every_evaluator_runs_under_the_name_perfbench_wraps(common):
    """pipeline.run reaches each stage's evaluator through the name the
    traced run wraps, and each span counts the steps of its outcome."""
    stages = compile_stages(parse_source(CLOSURES))
    tracer = common.Tracer()
    with tracer.installed():
        outcomes = [fcomp.pipeline.run(stages[stage], 100_000)
                    for stage in STAGE_ORDER]
    rows = tracer.export()
    spans = [
        (row["name"], row["stage"], rows[row["parent"]]["name"], row["steps"],
         row.get("heap_cells"))
        for row in rows if row["name"] in common.EVALS
    ]
    steps = [out.steps for out, _ in outcomes]
    assert steps == [5, 22, 63, 63, 168]
    assert spans == [
        ("source_lang.eval_src", "source", "pipeline.run", steps[0], None),
        ("source_lang.eval_src", "cps", "pipeline.run", steps[1], None),
        ("cc_lang.eval_cc", "cc", "pipeline.run", steps[2], None),
        ("cc_lang.eval_hoisted", "hoist", "pipeline.run", steps[3], None),
        ("cc_lang.eval_cc", "hoist", "cc_lang.eval_hoisted", steps[3], None),
        ("cg_lang.eval_cg_program", "cg", "pipeline.run", steps[4],
         outcomes[4][1]),
    ]
    assert outcomes[4][1] == 30


# A program whose cg result each mutant changes.
MUTANT_PROGRAMS = {
    "load_offset": ("snd (1, 2)", 2),
    "plus_dup": ("1 + 2", 3),
    "pred_plus": ("(fix f (x:nat):nat. ifz x then 0 else f (pred x)) 3", 0),
}


def _cg_result(text):
    """The cg outcome of text as (kind, value), or the error it raises."""
    artifact = compile_stages(parse_source(text))[Stage.CG]
    try:
        out, _ = run(artifact, 20_000)
    except FcompError as e:
        return type(e).__name__
    return out.kind, result_nat(out)


def test_every_mutant_resolves_on_cg_pass(mutant):
    assert set(mutant.MUTANTS) == set(MUTANT_PROGRAMS)
    for name, (attr, make) in mutant.MUTANTS.items():
        original = getattr(fcomp.cg_pass, attr)
        assert callable(make(original, fcomp.cg_pass)), name


@pytest.mark.parametrize("name", sorted(MUTANT_PROGRAMS))
def test_injecting_a_mutant_changes_the_cg_result(mutant, name):
    text, value = MUTANT_PROGRAMS[name]
    clean = (Outcome.VALUE, value)
    assert _cg_result(text) == clean
    attr = mutant.MUTANTS[name][0]
    original = getattr(fcomp.cg_pass, attr)
    with mutant.Injected(fcomp, name):
        assert getattr(fcomp.cg_pass, attr) is not original
        assert _cg_result(text) != clean
    assert getattr(fcomp.cg_pass, attr) is original
    assert _cg_result(text) == clean
