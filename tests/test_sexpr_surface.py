"""Surface syntax and s-expression dumps: parsing, printing, round-trips."""

import pytest

from fcomp import cc_lang as cc
from fcomp import cg_lang as cg
from fcomp import sexpr, term
from fcomp.errors import ParseError
from fcomp.pipeline import Stage, compile_stages, parse_stage_artifact
from fcomp.source_lang import (
    NAT, SOURCE, TYPES, App, Fix, Fst, Ifz, Let, NatLit, Pair, Plus, Pred,
    Snd, TArrow, TProd, UNIT, UnitLit, Var,
)
from fcomp.surface import parse_source, print_source


SAMPLES = [
    "pred 0",
    "1 + 2 + 3",
    "ifz x then 1 else pred y",
    "fst (1, (2, ()))",
    "let x = 2 in x + x",
    "fix f (x:nat):nat. ifz x then 0 else x + f (pred x)",
    "fun (y:nat). fun (z:nat*nat). y + fst z",
    "((let x = 3 in fun (y:nat). fun (z:nat). x+y+z) 4) 5",
    "f (g 1) (h 2)",
]


class TestSurface:
    def test_numbers_and_operators(self):
        assert parse_source("1 + 2") == Plus(NatLit(1), NatLit(2))
        assert parse_source("pred 3") == Pred(NatLit(3))

    def test_plus_is_left_associative(self):
        assert parse_source("1 + 2 + 3") == Plus(Plus(NatLit(1), NatLit(2)), NatLit(3))

    def test_application_is_left_associative(self):
        assert parse_source("f x y") == App(App(Var("f"), Var("x")), Var("y"))

    def test_application_binds_tighter_than_plus(self):
        assert parse_source("f 1 + 2") == Plus(App(Var("f"), NatLit(1)), NatLit(2))

    def test_prefix_operators(self):
        assert parse_source("fst p") == Fst(Var("p"))
        assert parse_source("snd p") == Snd(Var("p"))

    def test_unit_and_pairs(self):
        assert parse_source("()") == UnitLit()
        assert parse_source("(1, 2)") == Pair(NatLit(1), NatLit(2))

    def test_let_and_ifz(self):
        assert parse_source("let x = 1 in x") == Let(NatLit(1), "x", Var("x"))
        assert parse_source("ifz 0 then 1 else 2") == Ifz(
            NatLit(0), NatLit(1), NatLit(2)
        )

    def test_fix_with_annotations(self):
        got = parse_source("fix f (x:nat):nat. x")
        assert got == Fix("f", "x", NAT, NAT, Var("x"))

    def test_fun_sugar_is_fix_with_unused_self(self):
        got = parse_source("fun (x:nat). x + 1")
        assert isinstance(got, Fix)
        assert got.selfbinder == "_"
        assert got.argty == NAT
        assert got.retty is None

    def test_arrow_type_is_right_associative(self):
        got = parse_source("fun (f:nat -> nat -> nat). f")
        assert got.argty == TArrow(NAT, TArrow(NAT, NAT))

    def test_prod_type(self):
        got = parse_source("fun (p:nat * unit). p")
        assert got.argty == TProd(NAT, UNIT)

    def test_comments_are_skipped(self):
        assert parse_source("1 + # comment\n 2") == Plus(NatLit(1), NatLit(2))

    @pytest.mark.parametrize("bad", ["", "let x = in 1", "(1", "ifz 1 then 2", "1 +"])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_source(bad)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as ei:
            parse_source("let x =\n@ in x")
        assert ei.value.line == 2

    @pytest.mark.parametrize("text", SAMPLES)
    def test_print_parse_roundtrip(self, text):
        t = parse_source(text)
        assert parse_source(print_source(t)) == t


class TestSexpr:
    @pytest.mark.parametrize("text", SAMPLES)
    def test_source_roundtrip(self, text):
        t = parse_source(text)
        e = term.to_sexpr(t)
        back = sexpr.read_sexpr(sexpr.render(e))
        assert term.from_sexpr(SOURCE, back) == t

    def test_type_roundtrip(self):
        for ty in (NAT, UNIT, TArrow(NAT, TProd(NAT, UNIT)),
                   TProd(TArrow(NAT, NAT), UNIT)):
            e = term.to_sexpr(ty)
            back = sexpr.read_sexpr(sexpr.render(e))
            assert term.from_sexpr(TYPES, back) == ty

    def test_stage_artifact_roundtrips(self):
        t = parse_source(
            "(fix f (x:nat):nat. ifz x then 0 else x + f (pred x)) 3"
        )
        stages = compile_stages(t)
        cps_t = stages[Stage.CPS].payload
        assert term.from_sexpr(
            SOURCE, sexpr.read_sexpr(sexpr.render(term.to_sexpr(cps_t)))
        ) == cps_t
        cc_t = stages[Stage.CC].payload
        assert term.from_sexpr(
            cc.CC, sexpr.read_sexpr(sexpr.render(term.to_sexpr(cc_t)))
        ) == cc_t
        for stage, ir in ((Stage.HOIST, cc.CC), (Stage.CG, cg.CG)):
            p = stages[stage].payload
            assert sexpr.program_from_sexpr(
                ir, sexpr.read_sexpr(sexpr.render(sexpr.program_to_sexpr(p)))
            ) == p

    def test_read_rejects_unbalanced(self):
        with pytest.raises(ParseError):
            sexpr.read_sexpr("(let (nat 1)")
        with pytest.raises(ParseError):
            sexpr.read_sexpr("())")

    def test_reader_reports_position(self):
        with pytest.raises(ParseError) as ei:
            sexpr.read_sexpr("(nat\n1))")
        assert ei.value.line >= 1

    def test_reader_pins_line_and_column(self):
        text = "; a dump\n(let (nat 1)\n  (x\t(plus (var x) (nat 2)))) )"
        with pytest.raises(ParseError) as ei:
            sexpr.read_sexpr(text)
        assert (ei.value.line, ei.value.col) == (3, 31)
        assert str(ei.value) == "3:31: trailing input: )"
        with pytest.raises(ParseError) as ei:
            sexpr.read_sexpr("(pair\n  (nat 1)\n   (unit")
        assert (ei.value.line, ei.value.col) == (3, 4)

    def test_type_forms(self):
        forms = {
            NAT: "nat",
            TArrow(UNIT, TProd(NAT, NAT)): "(arrow unit (prod nat nat))",
            cc.CodeArrow(TProd(NAT, cc.Rigid(2)), NAT):
                "(code (prod nat (rigid 2)) nat)",
        }
        for ty, text in forms.items():
            assert sexpr.render(term.to_sexpr(ty)) == text

    @pytest.mark.parametrize("bad", ["arrow", "(arrow nat)", "(code nat nat)"])
    def test_bad_type(self, bad):
        with pytest.raises(ParseError, match="^bad type: "):
            term.from_sexpr(TYPES, sexpr.read_sexpr(bad))

    @pytest.mark.parametrize("stage, text, message", [
        (Stage.CC, "(pred (nat 1) (nat 2))",
         "bad term: ['pred', ['nat', '1'], ['nat', '2']]"),
        (Stage.SOURCE, "(fix (f (x) nat nat) (var x))",
         "bad name: ['x']"),
        (Stage.SOURCE, "(nat (3))", "bad numeral: ['3']"),
        (Stage.CG, "(letfun (f) ((cabs (x) (var x))))",
         "bad program: ['letfun', ['f'], [['cabs', ['x'], ['var', 'x']]]]"),
    ])
    def test_a_small_bad_form_is_quoted_whole(self, stage, text, message):
        with pytest.raises(ParseError) as ei:
            parse_stage_artifact(stage, text)
        assert str(ei.value) == message

    def test_a_large_bad_form_is_named_by_its_head_and_size(self):
        # A pred with an extra argument around a 3,000-deep plus chain: the
        # whole form quoted was a 72,046-byte message.
        inner = "(nat 1)"
        for _ in range(3000):
            inner = f"(plus {inner} (nat 1))"
        with pytest.raises(ParseError) as ei:
            parse_stage_artifact(Stage.CC, f"(pred {inner} (nat 2))")
        assert str(ei.value) == "bad term: (pred ...), 15008 atoms and lists"
        assert len(str(ei.value)) < 200
        small = ["pred"] + ["1"] * (term.BRIEF_NODES - 2)
        assert term.brief_sexpr(small) == repr(small)
        assert term.brief_sexpr(small + ["1"]) == (
            f"(pred ...), {term.BRIEF_NODES + 1} atoms and lists")


class TestSexprNumerals:
    """Numerals are read in one place: a non-numeral or a negative number is
    a ParseError, never a ValueError or a negative term."""

    @pytest.mark.parametrize("stage, text", [
        (Stage.SOURCE, "(nat abc)"),
        (Stage.CPS, "(plus (nat 1) (nat 1x))"),
        (Stage.CC, "(nat abc)"),
        (Stage.CG, "(letfun () () (load (loc 0) x))"),
        (Stage.CG, "(letfun () () (loc zero))"),
        (Stage.CG, "(letfun () () (move (var p) one (nat 1)))"),
        (Stage.SOURCE, "(nat -3)"),
        (Stage.CC, "(pred (nat -1))"),
        (Stage.CG, "(letfun () () (alloc -1))"),
        (Stage.CG, "(letfun () () (load (var p) -1))"),
        (Stage.CG, "(letfun () () (nat (3)))"),
    ])
    def test_bad_numerals_are_parse_errors(self, stage, text):
        with pytest.raises(ParseError):
            parse_stage_artifact(stage, text)

    def test_good_numerals_read_back(self):
        art = parse_stage_artifact(
            Stage.CG, "(letfun () () (let (alloc 2) (p (load (var p) 1))))"
        )
        assert sexpr.program_to_sexpr(art.payload)[3] == [
            "let", ["alloc", "2"], ["p", ["load", ["var", "p"], "1"]]
        ]


class TestSexprProgramBinders:
    """The letfun binder list of the hoist and cg stages is a list of
    names; anything else is a ParseError rather than a program that fails
    later."""

    @pytest.mark.parametrize("stage, text", [
        (Stage.HOIST, "(letfun ((g)) ((cabs (x) (var x))) (nat 1))"),
        (Stage.HOIST,
         "(letfun gg ((cabs (x) (var x)) (cabs (x) (var x))) (nat 1))"),
        (Stage.CG, "(letfun ((g)) ((cabs (x) (var x))) (nat 1))"),
        (Stage.CG,
         "(letfun (f (g)) ((cabs (x) (var x)) (cabs (x) (var x))) (nat 1))"),
    ])
    def test_non_name_binders_are_parse_errors(self, stage, text):
        with pytest.raises(ParseError):
            parse_stage_artifact(stage, text)

    @pytest.mark.parametrize("stage, text", [
        (Stage.HOIST, "(letfun (f g) ((cabs (x) (var x))) (nat 1))"),
        (Stage.CG, "(letfun (g) ((cabs (x) (var x)) (cabs (x) (var x))) (nat 1))"),
        (Stage.HOIST, "(letfun () () (alloc 2))"),  # a cg term at hoist
        (Stage.CG, "(letfun () () (clos (var f) unit))"),  # a cc term at cg
        (Stage.CG, "(letfun () ())"),
        # A head of the one term family that the stage does not admit.
        (Stage.CC, "(fix (f x) (var x))"),
        (Stage.CG, "(letfun () () (pair (nat 1) (nat 2)))"),
        (Stage.SOURCE, "(cabs (x) (var x))"),
    ])
    def test_arity_mismatches_and_foreign_terms_are_parse_errors(
        self, stage, text
    ):
        with pytest.raises(ParseError):
            parse_stage_artifact(stage, text)

    def test_name_binders_read_back(self):
        art = parse_stage_artifact(
            Stage.HOIST, "(letfun (g) ((cabs (x) (var x))) (nat 1))"
        )
        assert art.payload.binders == ("g",)
        art = parse_stage_artifact(
            Stage.CG, "(letfun (g) ((cabs (x) (var x))) (nat 1))"
        )
        assert art.payload.binders == ("g",)
