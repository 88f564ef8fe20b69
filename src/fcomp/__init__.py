"""fcomp: a multi-pass compiler for a PCF-like language with differential
verification of type and semantics preservation at every stage."""

import sys as _sys

# The passes and interpreters recurse over term structure, and CPS conversion
# makes terms whose depth grows with program size.  The default limit of 1000
# is too tight for generated programs of a few dozen nodes.
_sys.setrecursionlimit(max(_sys.getrecursionlimit(), 20_000))

from .term import (
    EvalOutcome, Outcome, Term, all_names, alpha_eq, children, free_vars,
    from_sexpr, node, program_body, subst, to_sexpr,
)
from .source_lang import (
    NAT, UNIT, TArrow, TNat, TProd, TUnit, SrcType,
    App, Fix, Fst, Ifz, Let, NatLit, Pair, Plus, Pred, Snd, SrcTerm, UnitLit,
    Var, eval_src, is_value, step_src, subst_apply, typecheck_src,
)
from .cps import cps_program, cps_transform, cps_type
from .cc_lang import (
    CCTerm, CCType, HoistedProgram, eval_cc, eval_hoisted, step_cc,
    typecheck_cc, typecheck_hoisted,
)
from .cc_pass import cc_program, cc_transform, combine, fvars, map_env, map_var
from .hoist_pass import abstract_fn, hcombine, hoist
from .cg_lang import (
    CgProgram, CgTerm, MemState, allocate, eval_cg_program, heap_lookup,
    heap_update, step_cg,
)
from .cg_pass import cgen_fn, cgen_program, cgen_stmt
from .pipeline import Stage, StageArtifact, compile, compile_stages, run
from .surface import parse_source, print_source
from .harness import (
    GenConfig, Report, check_preservation, equiv_fo, fuzz, gen_typed_program,
    shrink, sim_fo,
)
from .fresh import FreshSupply

__version__ = "0.1.0"
