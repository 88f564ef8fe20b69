"""Property-based tests: substitution laws and alpha-equivalence."""

import dataclasses

from hypothesis import given, settings, strategies as st

from fcomp.harness import GenConfig, ProgramGen
from fcomp.source_lang import (
    NAT, Fix, Ifz, Let, Pair, Plus, Pred, SrcTerm, TProd, Var,
    free_vars, typecheck_src,
)
from fcomp.term import alpha_eq, subst

CTX = [("u", NAT), ("w", NAT), ("p", TProd(NAT, NAT))]


def make_gen(seed):
    return ProgramGen(GenConfig(seed=seed, max_size=14, max_nat=9))


def open_term(gen):
    return gen._term(list(CTX), NAT, gen.rng.randint(1, gen.cfg.max_size))


def substitution(gen, open_images=True):
    """A substitution over CTX; images may themselves mention CTX."""
    s = {}
    for x, ty in CTX:
        r = gen.rng.random()
        if r < 0.4:
            continue
        if open_images and r < 0.7:
            s[x] = gen._term(list(CTX), ty, gen.rng.randint(1, 6))
        else:
            s[x] = gen._lit(ty)
    return s


def compose(s1, s2):
    """The substitution equivalent to applying s1 and then s2."""
    out = {x: subst(s2, v) for x, v in s1.items()}
    for y, v in s2.items():
        if y not in s1:
            out[y] = v
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_identity_on_closed_terms(seed):
    gen = make_gen(seed)
    t = gen.gen()
    assert free_vars(t) == frozenset()
    assert subst(substitution(gen), t) == t


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_distribution_over_constructors(seed):
    gen = make_gen(seed)
    s = substitution(gen)
    a, b, c = (open_term(gen) for _ in range(3))
    assert subst(s, Plus(a, b)) == Plus(subst(s, a), subst(s, b))
    assert subst(s, Pred(a)) == Pred(subst(s, a))
    assert subst(s, Pair(a, b)) == Pair(subst(s, a), subst(s, b))
    assert subst(s, Ifz(a, b, c)) == Ifz(
        subst(s, a), subst(s, b), subst(s, c)
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_composition(seed):
    gen = make_gen(seed)
    t = open_term(gen)
    s1 = substitution(gen)
    s2 = substitution(gen)
    sequential = subst(s2, subst(s1, t))
    assert alpha_eq(sequential, subst(compose(s1, s2), t))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_substitution_preserves_typing(seed):
    gen = make_gen(seed)
    t = open_term(gen)
    s = substitution(gen)
    assert typecheck_src(CTX, t) == NAT
    assert typecheck_src(CTX, subst(s, t)) == NAT


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_alpha_eq_is_reflexive_and_respects_renaming(seed):
    gen = make_gen(seed)
    t = open_term(gen)
    assert alpha_eq(t, t)
    renamed = _rename_binders(t, gen)
    assert alpha_eq(t, renamed)
    assert alpha_eq(renamed, t)


def _rename_binders(t, gen, depth=0):
    """Uniformly rename every binder to a fresh name."""
    if isinstance(t, Let):
        nb = f"r{depth}_{gen.rng.randint(0, 99)}"
        body = subst({t.binder: Var(nb)}, t.body)
        return Let(
            _rename_binders(t.bound, gen, depth + 1),
            nb,
            _rename_binders(body, gen, depth + 1),
        )
    if isinstance(t, Fix):
        nf = f"rf{depth}"
        nx = f"rx{depth}"
        body = subst({t.selfbinder: Var(nf), t.argbinder: Var(nx)}, t.body)
        return Fix(nf, nx, t.argty, t.retty, _rename_binders(body, gen, depth + 1))
    kwargs = {}
    changed = False
    for f in dataclasses.fields(t):
        v = getattr(t, f.name)
        if isinstance(v, SrcTerm):
            kwargs[f.name] = _rename_binders(v, gen, depth + 1)
            changed = True
    return dataclasses.replace(t, **kwargs) if changed else t
