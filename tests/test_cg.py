"""Code generation and the heap-explicit target: memory model, stepping,
operand discipline, and value agreement."""

import dataclasses

import pytest

from fcomp.cc_pass import cc_program
from fcomp.cg_lang import (
    EMPTY_MEM, G_UNITVAL, GAbs, GAlloc, GApp, GIfz, GLet, GLoad, GLoc, GMove,
    GNat, GPlus, GPred, GVar, allocate, check_operand_form,
    check_program_operand_form, eval_cg_program, heap_lookup, heap_update,
    step_cg,
)
from fcomp.cg_pass import cgen_program
from fcomp.errors import OutOfBounds
from fcomp.hoist_pass import hoist
from fcomp.source_lang import Outcome, eval_lets
from fcomp.surface import parse_source


def compile_cg(text):
    return cgen_program(hoist(cc_program(parse_source(text))))


def run_nat(text, fuel=100_000):
    out, mem = eval_cg_program(compile_cg(text), fuel)
    assert out.kind is Outcome.VALUE, out
    assert isinstance(out.value, GNat)
    return out.value.n


class TestMemoryModel:
    def test_allocate_from_empty(self):
        s, loc = allocate(EMPTY_MEM, 2)
        assert loc == GLoc(0)
        assert s.next_free == 2
        assert s.heap == (G_UNITVAL, G_UNITVAL)

    def test_allocation_is_sequential(self):
        s, l1 = allocate(EMPTY_MEM, 2)
        s, l2 = allocate(s, 3)
        assert (l1, l2) == (GLoc(0), GLoc(2))
        assert s.next_free == 5

    def test_next_free_is_the_heap_length(self):
        s, _ = allocate(EMPTY_MEM, 3)
        assert s.next_free == len(s.heap) == 3
        # Read from the heap, not stored, so the two cannot disagree.
        assert [f.name for f in dataclasses.fields(s)] == ["heap"]

    def test_update_lookup_roundtrip(self):
        s, loc = allocate(EMPTY_MEM, 2)
        s = heap_update(s, loc, 1, GNat(7))
        assert heap_lookup(s, loc, 1) == GNat(7)
        assert heap_lookup(s, loc, 0) == G_UNITVAL

    def test_out_of_bounds_lookup_rejected(self):
        s, loc = allocate(EMPTY_MEM, 2)
        with pytest.raises(OutOfBounds):
            heap_lookup(s, loc, 2)
        with pytest.raises(OutOfBounds):
            heap_lookup(s, GLoc(-1), 0)

    def test_out_of_bounds_update_rejected(self):
        s, loc = allocate(EMPTY_MEM, 1)
        with pytest.raises(OutOfBounds):
            heap_update(s, loc, 5, GNat(1))


class TestStepping:
    def test_pred_zero_is_zero(self):
        assert step_cg((EMPTY_MEM, GPred(GNat(0)))) == (EMPTY_MEM, GNat(0))

    def test_plus(self):
        assert step_cg((EMPTY_MEM, GPlus(GNat(2), GNat(3)))) == (EMPTY_MEM, GNat(5))

    def test_alloc_moves_next_free(self):
        s, t = step_cg((EMPTY_MEM, GAlloc(2)))
        assert t == GLoc(0)
        assert s.next_free == 2

    def test_move_writes_and_returns_unit(self):
        s, loc = allocate(EMPTY_MEM, 2)
        s2, t = step_cg((s, GMove(GLoc(0), 1, GNat(9))))
        assert t == G_UNITVAL
        assert heap_lookup(s2, GLoc(0), 1) == GNat(9)

    def test_load_reads_cell(self):
        s, loc = allocate(EMPTY_MEM, 2)
        s = heap_update(s, loc, 0, GNat(4))
        assert step_cg((s, GLoad(GLoc(0), 0))) == (s, GNat(4))

    def test_let_sequences(self):
        t = GLet(GAlloc(1), "p", GLet(GMove(GVar("p"), 0, GNat(1)), "u",
                                      GLoad(GVar("p"), 0)))
        out, mem = eval_lets(step_cg, EMPTY_MEM, t, 100)
        assert out.kind is Outcome.VALUE
        assert out.value == GNat(1)
        assert mem.next_free == 1

    def test_ifz(self):
        t = GIfz(GNat(0), GNat(1), GNat(2))
        assert step_cg((EMPTY_MEM, t)) == (EMPTY_MEM, GNat(1))

    def test_operands_must_be_evaluated(self):
        # The target has no congruence rules inside operations: a compound
        # operand is a stuck term, not something to evaluate in place.
        t = GPlus(GPred(GNat(2)), GNat(1))
        assert step_cg((EMPTY_MEM, t)) is None

    def test_application(self):
        t = GApp(GAbs("x", GPlus(GVar("x"), GNat(1))), GNat(2))
        out, _ = eval_lets(step_cg, EMPTY_MEM, t, 100)
        assert out.value == GNat(3)


class TestOperandForm:
    def test_accepts_flat_code(self):
        t = GLet(GPred(GNat(1)), "v", GPlus(GVar("v"), GNat(2)))
        assert check_operand_form(t)

    def test_rejects_nested_operands(self):
        assert not check_operand_form(GPlus(GPred(GNat(1)), GNat(2)))
        assert not check_operand_form(GLet(GPlus(GNat(1), GPlus(GNat(1), GNat(1))),
                                           "v", GVar("v")))

    def test_compiled_programs_are_flat(self):
        p = compile_cg("(fix f (x:nat):nat. ifz x then 0 else x + f (pred x)) 3")
        assert check_program_operand_form(p)


class TestCodegen:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pred 0", 0),
            ("2 + 3", 5),
            ("ifz 0 then 1 else 2", 1),
            ("fst (4, ())", 4),
            ("let x = 2 in x + x", 4),
            ("(fix f (x:nat):nat. x + 2) 3", 5),
            ("let y = 1 in (fix f (x:nat):nat. x + y) 2", 3),
            ("((let x = 3 in fun (y:nat). fun (z:nat). x+y+z) 4) 5", 12),
            ("(fix f (x:nat):nat. ifz x then 0 else x + f (pred x)) 3", 6),
        ],
    )
    def test_value_agreement(self, text, expected):
        assert run_nat(text) == expected

    def test_pairs_become_two_cell_allocations(self):
        out, mem = eval_cg_program(compile_cg("fst (4, 7)"), 1000)
        assert out.value == GNat(4)
        assert mem.next_free == 2  # exactly one pair allocated
