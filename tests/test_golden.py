"""Golden table: what every stage prints and does on a fixed corpus.

For each input and each stage the table holds the sha256 of the stage's
s-expression dump, the outcome kind, the step count, the heap cells (cg
only) and the nat value.  It was recorded before the per-IR binding code
was folded into one term core, and the three shadowing inputs before
closure conversion and hoisting moved to one shared scope, so a refactor
that keeps this test green changed no generated name, no dump and no step
count.  The hoist and cg rows were re-recorded when hoisted functions
stopped being closed over dependency tuples; no kind or value changed.
The hoist rows' dump hashes were re-recorded once more when the hoisted
program took the cg program's ``(letfun (f1 ... fn) (F1 ... Fn) body)``
form; nothing else in the table changed.

To re-record after a change that is meant to alter the output::

    PYTHONPATH=src python tests/test_golden.py > tests/golden_table.json

``GENERATED_DIGEST`` pins the same things, and every stage's value dump,
on the first 100 generated programs of seed 1 as one sha256.  It is
re-recorded, by printing ``generated_digest()``, only by a change that says
why its dumps or outcomes change, as for the table.
"""

import hashlib
import json
import sys
from pathlib import Path

from fcomp.harness import GenConfig, ProgramGen
from fcomp.pipeline import (
    STAGE_ORDER, Stage, compile_stages, emit_sexp, result_nat, run,
)
from fcomp.sexpr import render
from fcomp.source_lang import Outcome
from fcomp.surface import parse_source
from fcomp.term import to_sexpr

TABLE = Path(__file__).with_name("golden_table.json")

# The fuel check_preservation uses at source and derives for later stages.
SOURCE_FUEL = 10_000
TARGET_FUEL = 400_000


def _let_chain(n):
    lets = ["let x0 = 1 in"] + [f"let x{i} = x{i - 1} + 1 in" for i in range(1, n)]
    return " ".join(lets) + f" x{n - 1}"


def _nested_closures(n):
    text = "0"
    for i in range(n, 0, -1):
        text = (f"(let x{i} = {i} in let f{i} = fun (y{i}:nat). "
                f"y{i} + x{i} + {text} in f{i} {i})")
    return text


HAND_WRITTEN = [
    ("sum_chain:40", " + ".join(["1"] * 40)),
    ("let_chain:40", _let_chain(40)),
    ("rec_depth:20",
     "let f = fix f (x:nat):nat. ifz x then 0 else x + f (pred x) in f 20"),
    ("nested_closures:4", _nested_closures(4)),
    ("shadow_let", "let x = 1 in let x = x + 2 in let y = x in let x = y + x in x + y"),
    ("shadow_capture",
     "let x = 1 in let f = fun (y:nat). y + x in (let x = 5 in f x) + x"),
    ("shadow_fix_arg",
     "let x = 10 in let y = 2 in "
     "(fix g (x:nat):nat. ifz x then y else x + g (pred x)) 3 + x"),
]


def corpus():
    gen = ProgramGen(GenConfig(seed=1, max_size=40))
    inputs = [(f"seed1:{i}", gen.gen()) for i in range(30)]
    inputs += [(name, parse_source(text)) for name, text in HAND_WRITTEN]
    return inputs


# The first 100 programs of ProgramGen(GenConfig(seed=1)), as recorded by
# generated_digest.
GENERATED_DIGEST = "94be17941f69b0044dda5c9afb67100d7bae5f3c58705f28e928d38246a64e63"


def stage_runs(term):
    """(stage, s-expression dump, outcome, heap cells) at each stage of term."""
    stages = compile_stages(term)
    for stage in STAGE_ORDER:
        artifact = stages[stage]
        fuel = SOURCE_FUEL if stage is Stage.SOURCE else TARGET_FUEL
        out, cells = run(artifact, fuel)
        yield stage, emit_sexp(artifact), out, cells


def record(term):
    """{stage: row} for one source term."""
    rows = {}
    for stage, dump, out, cells in stage_runs(term):
        rows[stage.value] = {
            "sexp_sha256": hashlib.sha256(dump.encode()).hexdigest(),
            "kind": out.kind.value,
            "steps": out.steps,
            "heap_cells": cells,
            "value": result_nat(out) if out.kind is Outcome.VALUE else None,
        }
    return rows


def table():
    return {name: record(term) for name, term in corpus()}


def test_golden_table():
    want = json.loads(TABLE.read_text())
    got = table()
    assert list(got) == list(want), "the corpus changed"
    for name, stages in want.items():
        for stage, row in stages.items():
            assert got[name][stage] == row, (
                f"first difference: input {name}, stage {stage}: "
                f"recorded {row}, now {got[name][stage]}"
            )


def generated_digest(count=100):
    h = hashlib.sha256()
    gen = ProgramGen(GenConfig(seed=1))
    for _ in range(count):
        for stage, dump, out, cells in stage_runs(gen.gen()):
            value = render(to_sexpr(out.value))
            h.update(f"{stage.value}\n{dump}\n{out.kind.value} {out.steps} "
                     f"{cells}\n{value}\n".encode())
    return h.hexdigest()


def test_generated_programs_digest():
    assert generated_digest() == GENERATED_DIGEST


def test_hoisted_steps_equal_cc_steps():
    # Unhoisting gives back the cc term, so the hoisted program runs it.
    for name, rows in json.loads(TABLE.read_text()).items():
        assert rows["hoist"]["steps"] == rows["cc"]["steps"], name


if __name__ == "__main__":
    json.dump(table(), sys.stdout, indent=1)
    sys.stdout.write("\n")
