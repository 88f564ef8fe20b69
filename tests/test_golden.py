"""Golden table: what every stage prints and does on a fixed corpus.

For each input and each stage the table holds the sha256 of the stage's
s-expression dump, the outcome kind, the step count, the heap cells (cg
only) and the nat value.  It was recorded before the per-IR binding code
was folded into one term core, so a refactor that keeps this test green
changed no generated name, no dump and no step count.

To re-record after a change that is meant to alter the output::

    PYTHONPATH=src python tests/test_golden.py > tests/golden_table.json
"""

import hashlib
import json
import sys
from pathlib import Path

from fcomp.harness import GenConfig, ProgramGen
from fcomp.pipeline import (
    STAGE_ORDER, Stage, compile_stages, emit_sexp, result_nat, run,
)
from fcomp.source_lang import Outcome
from fcomp.surface import parse_source

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
]


def corpus():
    gen = ProgramGen(GenConfig(seed=1, max_size=40))
    inputs = [(f"seed1:{i}", gen.gen()) for i in range(30)]
    inputs += [(name, parse_source(text)) for name, text in HAND_WRITTEN]
    return inputs


def record(term):
    """{stage: row} for one source term."""
    stages = compile_stages(term)
    rows = {}
    for stage in STAGE_ORDER:
        artifact = stages[stage]
        fuel = SOURCE_FUEL if stage is Stage.SOURCE else TARGET_FUEL
        out, cells = run(artifact, fuel)
        rows[stage.value] = {
            "sexp_sha256": hashlib.sha256(emit_sexp(artifact).encode()).hexdigest(),
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


if __name__ == "__main__":
    json.dump(table(), sys.stdout, indent=1)
    sys.stdout.write("\n")
