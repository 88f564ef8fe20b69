"""Pipeline driver and the fcomp command-line interface."""

import gc
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fcomp
from fcomp.cli import main
from fcomp.cps import cps_transform
from fcomp.fresh import FreshSupply
from fcomp.pipeline import (
    STAGES, Stage, StageArtifact, compile_stages, emit_sexp,
    parse_stage_artifact, result_nat, run,
)
from fcomp.surface import parse_source
from fcomp.term import all_names


WORKED = "let f = fix f (x:nat):nat. x+2 in f 3"

# A closure over a let-bound name, applied inside a pair.
CLOSURE = """let y = 3 in
let f = fix f (x:nat):nat. x + y in
fst (f 1, 2)"""

# `fcomp run` on CLOSURE at each stage, and the line count and SHA-256 of
# `fcomp trace --max-steps 40` on it, as printed before the stage table.
PINNED_RUN = {
    "source": "Value 4 (steps: 5)\n",
    "cps": "Value 4 (steps: 14)\n",
    "cc": "Value (nat 4) (steps: 34)\n",
    "hoist": "Value (nat 4) (steps: 34)\n",
    "cg": "Value (nat 4) (steps: 88)\nheap cells: 16\n",
}
PINNED_TRACE = {
    "source": (6, "b8539174437dc015799a58665382fc53ac9a4a3a0b681f7e5ed6f1e09ae9b3e7"),
    "cps": (15, "91df838b7305932e22851dddbac277ce549819daa338000fb73e220b5644831d"),
    "cc": (1830, "6f9c14844c601b309c25fd4788f27b3fad32e542962937d2717f164cb57c919e"),
    # Unhoisting gives back the cc term, so hoist traces exactly as cc does.
    "hoist": (1830, "6f9c14844c601b309c25fd4788f27b3fad32e542962937d2717f164cb57c919e"),
    "cg": (2769, "868ee3e41c6d2e4e69aa56d1dcd341308b37831ac3b1072e6a49d865b07a8db3"),
}


class TestPipeline:
    def test_all_stages_present(self):
        stages = compile_stages(parse_source(WORKED))
        assert set(stages) == {
            Stage.SOURCE, Stage.CPS, Stage.CC, Stage.HOIST, Stage.CG
        }

    def test_stop_after(self):
        stages = compile_stages(parse_source(WORKED), Stage.CC)
        assert Stage.CC in stages and Stage.HOIST not in stages

    def test_every_stage_evaluates_to_five(self):
        stages = compile_stages(parse_source(WORKED))
        for artifact in stages.values():
            out, _ = run(artifact, 100_000)
            assert result_nat(out) == 5

    def test_cg_run_reports_heap_use(self):
        artifact = compile_stages(parse_source(WORKED))[Stage.CG]
        out, cells = run(artifact, 100_000)
        assert result_nat(out) == 5
        assert cells > 0

    def test_emit_and_reparse_each_stage(self):
        stages = compile_stages(parse_source(WORKED))
        for stage, artifact in stages.items():
            text = emit_sexp(artifact)
            back = parse_stage_artifact(stage, text)
            assert back.payload == artifact.payload

    @pytest.mark.parametrize("text", [
        "x", "var x", "let y = pred x in f (y, z)",
        "fix g (a:nat):nat. g (a + y)",
    ])
    def test_open_source_and_cps_terms_round_trip_through_sexp(self, text):
        # (var x) would also read as the surface application var x.
        t = parse_source(text)
        k = cps_transform(t, lambda v: v, FreshSupply(avoid=all_names(t)))
        for stage, payload in ((Stage.SOURCE, t), (Stage.CPS, k)):
            artifact = StageArtifact(stage, payload)
            assert parse_stage_artifact(stage, emit_sexp(artifact)) == artifact

    def test_table_has_every_stage(self):
        assert set(STAGES) == set(Stage)

    def test_compile_leaves_no_reference_cycles(self):
        # No pass keeps its state (a FreshSupply with every name of the
        # program) alive in a cycle once it has returned.
        t = parse_source(CLOSURE)
        gc.collect()
        gc.disable()
        try:
            compile_stages(t)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_ill_typed_program_fails_at_cps(self):
        from fcomp.pipeline import StageError

        with pytest.raises(StageError) as ei:
            compile_stages(parse_source("1 + ()"))
        assert ei.value.stage is Stage.CPS

    def test_too_deep_input_raises_without_the_overflow_frames(self):
        """A pass that overflows the recursion limit raises a RecursionError
        naming its stage that keeps neither the overflow's frames nor the
        overflow itself."""
        import traceback

        with pytest.raises(RecursionError) as ei:
            compile_stages(parse_source(" + ".join(["1"] * 5000)))
        e = ei.value
        assert str(e) == "[cps] input nests too deeply for the recursion limit"
        assert len(traceback.extract_tb(e.__traceback__)) < 10
        assert e.__context__ is None and e.__cause__ is None


class TestCli:
    def _write(self, tmp_path, text):
        f = tmp_path / "prog.src"
        f.write_text(text + "\n")
        return str(f)

    def _run(self, argv):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        return ei.value.code

    def test_check_prints_type(self, tmp_path, capsys):
        path = self._write(tmp_path, WORKED)
        assert self._run(["check", path]) == 0
        assert capsys.readouterr().out.strip() == "nat"

    def test_check_rejects_ill_typed(self, tmp_path, capsys):
        path = self._write(tmp_path, "1 + ()")
        assert self._run(["check", path]) == 1
        assert "error" in capsys.readouterr().err

    def test_python_m_fcomp_runs_the_cli(self, tmp_path):
        src = str(Path(fcomp.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        for text, code, out in ((WORKED, 0, "nat\n"), ("1 + ()", 1, "")):
            done = subprocess.run(
                [sys.executable, "-m", "fcomp", "check",
                 self._write(tmp_path, text)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert (done.returncode, done.stdout) == (code, out), done.stderr

    def test_missing_file_is_user_error(self, capsys):
        assert self._run(["check", "/nonexistent/prog.src"]) == 1

    @pytest.mark.parametrize("stage", ["cps", "cc", "hoist", "cg"])
    def test_compile_emits_parsable_sexp(self, tmp_path, capsys, stage):
        path = self._write(tmp_path, WORKED)
        assert self._run(["compile", path, "--stop-after", stage]) == 0
        text = capsys.readouterr().out
        parse_stage_artifact(Stage(stage), text)

    def test_compile_to_output_file(self, tmp_path):
        path = self._write(tmp_path, WORKED)
        out = tmp_path / "out.sexp"
        assert self._run(["compile", path, "-o", str(out)]) == 0
        parse_stage_artifact(Stage.CG, out.read_text())

    @pytest.mark.parametrize("stage", ["source", "cps", "cc", "hoist", "cg"])
    def test_run_prints_value(self, tmp_path, capsys, stage):
        path = self._write(tmp_path, WORKED)
        assert self._run(["run", path, "--stage", stage]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Value")
        assert "5" in out.split("(steps")[0]

    def test_run_out_of_fuel_is_nonzero(self, tmp_path, capsys):
        path = self._write(tmp_path, "(fix f (x:nat):nat. f x) 0")
        assert self._run(["run", path, "--fuel", "50"]) == 1

    def test_too_deep_input_is_user_error(self, tmp_path, capsys):
        path = self._write(tmp_path, " + ".join(["1"] * 5000))
        assert self._run(["run", path, "--stage", "cg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: input nests too deeply")
        assert err.count("\n") == 1

    def test_type_mismatch_in_a_deep_term_names_its_head(self, tmp_path, capsys):
        # The repr of the pair would be a 69 KB line at 3,000 terms, and at
        # 6,000 it overflows the recursion limit.
        path = self._write(tmp_path, "pred (" + " + ".join(["1"] * 6000) + ", 0)")
        assert self._run(["check", path]) == 1
        assert capsys.readouterr().err == (
            "error: type mismatch at (pair ...), 12001 nodes: "
            "expected nat, got nat * nat\n")

    def test_trace_prints_numbered_steps(self, tmp_path, capsys):
        path = self._write(tmp_path, "pred (pred 2)")
        assert self._run(["trace", path, "--max-steps", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("0:")
        assert lines[-1].endswith("0")  # final value

    @pytest.mark.parametrize("source, max_steps, trace", [
        ("1 2", "0", "0: 1 2\n"),
        ("(pred 2) 2", "1", "0: pred 2 2\n1: 1 2\n"),
        ("(pred 2) 2", "100", "0: pred 2 2\n1: 1 2\n"),
    ])
    def test_trace_of_a_stuck_program_ends_stuck(self, tmp_path, capsys,
                                                 source, max_steps, trace):
        # As `fcomp run` does: Stuck after the last state, and exit 1, also
        # when the last state is the one the trace stops at.
        path = self._write(tmp_path, source)
        assert self._run(["trace", path, "--max-steps", max_steps]) == 1
        assert capsys.readouterr().out == trace + "Stuck\n"
        assert self._run(["run", path]) == 1
        assert capsys.readouterr().out == "Stuck\n"

    def test_trace_stops_with_dots_only_before_a_step(self, tmp_path, capsys):
        path = self._write(tmp_path, "pred 2")
        assert self._run(["trace", path, "--max-steps", "0"]) == 0
        assert capsys.readouterr().out == "0: pred 2\n...\n"
        assert self._run(["trace", path, "--max-steps", "1"]) == 0
        assert capsys.readouterr().out == "0: pred 2\n1: 1\n"

    def test_trace_cg_shows_heap_pointer(self, tmp_path, capsys):
        path = self._write(tmp_path, "fst (1, 2)")
        assert self._run(["trace", path, "--stage", "cg", "--max-steps", "50"]) == 0
        assert "[next_free=" in capsys.readouterr().out

    @pytest.mark.parametrize("stage", sorted(PINNED_RUN))
    def test_run_output_is_pinned(self, tmp_path, capsys, stage):
        path = self._write(tmp_path, CLOSURE)
        assert self._run(["run", path, "--stage", stage]) == 0
        assert capsys.readouterr().out == PINNED_RUN[stage]

    @pytest.mark.parametrize("stage", sorted(PINNED_TRACE))
    def test_trace_output_is_pinned(self, tmp_path, capsys, stage):
        path = self._write(tmp_path, CLOSURE)
        argv = ["trace", path, "--stage", stage, "--max-steps", "40"]
        assert self._run(argv) == 0
        out = capsys.readouterr().out
        lines, digest = PINNED_TRACE[stage]
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_fuzz_small_run_passes(self, tmp_path, capsys):
        assert self._run(["fuzz", "--count", "5", "--seed", "7",
                          "--max-size", "12", "--fuel", "2000"]) == 0
        out = capsys.readouterr().out
        assert "cases: 5" in out
        assert "failures: 0" in out

    def test_fuzz_env_seed_overrides_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("FCOMP_SEED", "99")
        assert self._run(["fuzz", "--count", "2", "--seed", "1",
                          "--max-size", "10"]) == 0
        assert "seed: 99" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--no-such-flag"],
        ["run", "prog.src", "--stage", "nowhere"],
        ["compile", "prog.src", "--emit", "html"],
        ["frobnicate"],
        [],
    ])
    def test_usage_errors_are_user_errors(self, capsys, argv):
        # Exit code 2 is kept for a counterexample found by fuzzing.
        assert self._run(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert self._run(["--help"]) == 0
        assert self._run(["fuzz", "--help"]) == 0
        assert "--max-size" in capsys.readouterr().out

    def test_fuzz_rejects_a_seed_that_is_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("FCOMP_SEED", "abc")
        assert self._run(["fuzz", "--count", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: FCOMP_SEED must be an integer\n"

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_fuzz_rejects_a_max_size_below_one(self, capsys, size):
        assert self._run(["fuzz", "--count", "1", "--max-size", size]) == 1
        err = capsys.readouterr().err
        assert err == "error: --max-size must be at least 1\n"

    def test_run_rejects_a_negative_fuel(self, tmp_path, capsys):
        path = self._write(tmp_path, WORKED)
        assert self._run(["run", path, "--fuel", "-3"]) == 1
        assert capsys.readouterr().err == "error: --fuel must be at least 0\n"

    def test_fuzz_rejects_a_negative_fuel(self, capsys):
        assert self._run(["fuzz", "--count", "1", "--fuel", "-1"]) == 1
        assert capsys.readouterr().err == "error: --fuel must be at least 0\n"

    def test_fuzz_rejects_a_negative_count(self, capsys):
        assert self._run(["fuzz", "--count", "-2"]) == 1
        assert capsys.readouterr().err == "error: --count must be at least 0\n"

    def test_trace_rejects_negative_max_steps(self, tmp_path, capsys):
        path = self._write(tmp_path, WORKED)
        assert self._run(["trace", path, "--max-steps", "-1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: --max-steps must be at least 0\n"

    def test_a_type_missing_at_end_of_input(self, tmp_path, capsys):
        f = tmp_path / "prog.src"
        f.write_text("fun (x:")
        assert self._run(["check", str(f)]) == 1
        err = capsys.readouterr().err
        assert err == "error: 1:8: expected a type, found 'end of input'\n"
