"""One binder-aware core for the terms of every IR.

Each term constructor is a frozen dataclass that describes itself once, with
the ``node`` decorator: an s-expression template that names its fields, and
the binder fields in scope of each child.  In a template a plain field name
is a child term, ``#f`` a numeral, ``?f`` an optional annotation (a trailing
group, printed only when one of them is set, ``_`` standing for a missing
one), a name listed in ``binds`` a binder, and the one field of a ``var``
node the variable it names.  For example::

    @node("(let bound (binder body))", binds={"body": ("binder",)})

From these descriptions this module derives, for the source/cps,
closure-converted/hoisted and target IRs alike: free variables (cached on
the node), all names, capture-avoiding simultaneous substitution, a
canonical form for alpha-equivalence, s-expression printing and reading,
the child walker that shrinking uses and the let-stack evaluation loop
behind every interpreter.

Every walk recurses in Python, one frame per level of the term (two under
a binder in substitution), and never through a C call (``map``, ``join``, a
comparison), so a term too deep for the recursion limit raises
``RecursionError`` instead of overflowing the C stack.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, fields
from operator import attrgetter

from .errors import ParseError
from .fresh import fresh_name

# Field kinds.
CHILD, BINDER, NAME, NUM, ANNOT = "child", "binder", "name", "num", "annot"


class Term:
    """Base of each IR's term class, which gets its own table of heads for
    reading s-expressions."""

    __slots__ = ()
    _is_var = False
    _fv = None  # free variables, cached on the instance by free_vars

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if Term in cls.__bases__:
            cls._heads = {}
            cls._atoms = {}


def node(template, binds=None, var=False):
    """Make a class a term constructor: a frozen dataclass (the cached free
    variables rely on it) with its s-expression template and binders.

    ``binds`` maps a child field to the binder fields in scope of it.  A
    ``var`` node is the IR's variable occurrence; its one field is the name.
    """
    binds = binds or {}
    binders = [b for scope in binds.values() for b in scope]
    assert len(binds) <= 1, "one scoped child per node"

    def describe(cls):
        cls = dataclass(frozen=True)(cls)
        names = [f.name for f in fields(cls)]

        def resolve(item):
            if isinstance(item, list):
                return [resolve(x) for x in item]
            f = item.lstrip("#?")
            if f not in names:
                return item
            kind = {"#": NUM, "?": ANNOT}.get(item[0], CHILD)
            return (BINDER if f in binders else NAME if var else kind, f)

        tmpl = resolve(_parse_template(template))
        kinds = {x[1]: x[0] for x in _leaves(tmpl) if isinstance(x, tuple)}
        assert set(kinds) == set(names), f"{cls.__name__}: {template!r}"
        cls._is_var = var
        cls._tmpl = tmpl
        cls._children = tuple(
            (f, tuple(binds.get(f, ()))) for f in names if kinds[f] is CHILD
        )
        cls._binders = tuple(binders)
        index = {f: i for i, f in enumerate(names)}
        cls._values = attrgetter(*names) if names else None
        cls._unary = len(names) == 1
        cls._free_children = tuple(
            index[f] for f, scope in cls._children if not scope
        )
        cls._scope = None
        for f, scope in binds.items():
            cls._scope = (index[f], tuple(index[b] for b in scope))
        cls._data = tuple(f for f in names if kinds[f] is NUM)
        cls._annots = tuple(f for f in names if kinds[f] is ANNOT)
        base = cls.__mro__[1]
        if isinstance(tmpl, str):
            base._atoms[tmpl] = cls()
        else:
            base._heads[tmpl[0]] = cls
        if var:
            base._var_cls = cls
        return cls

    return describe


def _parse_template(text):
    stack = [[]]
    for tok in re.findall(r"[()]|[^\s()]+", text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    (tmpl,) = stack[0]
    return tmpl


def _leaves(tmpl):
    if not isinstance(tmpl, list):
        return [tmpl]
    return [x for item in tmpl for x in _leaves(item)]


def children(t):
    """(field, child term, names of the binders in scope of it) for each
    child of t, in field order."""
    return [
        (f, getattr(t, f), tuple(getattr(t, b) for b in scope))
        for f, scope in t._children
    ]


# ---------------------------------------------------------------------------
# Names


def free_vars(t) -> frozenset:
    # Cached on the (immutable) node: substitution shares untouched subtrees,
    # so the cache makes repeated stepping roughly linear in the redex path.
    fv = t._fv
    if fv is not None:
        return fv
    if t._is_var:
        fv = frozenset((t.name,))
    else:
        fv = _EMPTY
        for f, scope in t._children:
            c = free_vars(getattr(t, f))
            for b in scope:
                c = c - {getattr(t, b)}
            fv = c if fv is _EMPTY else fv | c
    object.__setattr__(t, "_fv", fv)
    return fv


_EMPTY = frozenset()


def all_names(t, out=None) -> set:
    """Every identifier occurring in t, bound or free (for fresh supplies)."""
    if out is None:
        out = set()
    if t._is_var:
        out.add(t.name)
        return out
    for b in t._binders:
        out.add(getattr(t, b))
    for f, _ in t._children:
        all_names(getattr(t, f), out)
    return out


# ---------------------------------------------------------------------------
# Substitution


def subst(s, t):
    """Capture-avoiding simultaneous substitution.

    ``s`` maps identifiers to terms.  Bound variables are renamed only when
    they would capture a free variable of a substituted term.
    """
    s = dict(s)
    if not s or free_vars(t).isdisjoint(s):
        return t
    fvs = {x: free_vars(v) for x, v in s.items()}
    # With closed images (the usual case when evaluating) nothing can be
    # captured, and the walk skips the capture check under each binder.
    return _subst(s, fvs if any(fvs.values()) else None, t)


def _subst(s, fvs, t):
    """Substitute into t, some free variable of which s maps."""
    cls = t.__class__
    if cls._is_var:
        return s.get(t.name, t)
    args = cls._values(t)
    args = [args] if cls._unary else list(args)
    for i in cls._free_children:
        if not free_vars(args[i]).isdisjoint(s):
            args[i] = _subst(s, fvs, args[i])
    if cls._scope is not None:
        _under_binders(s, fvs, args, *cls._scope)
    return cls(*args)


def _under_binders(s, fvs, args, body, binders):
    """Substitute into the field ``body`` of a node's ``args`` under the
    fields ``binders``, dropping shadowed entries and renaming on capture."""
    for i in binders:
        if args[i] in s:
            names = [args[j] for j in binders]
            s = {x: v for x, v in s.items() if x not in names}
            if not s:
                return
            break
    t = args[body]
    if fvs is not None:
        relevant = set()
        for x in s:
            relevant |= fvs[x]
        avoid = None
        renames = {}
        for i in binders:
            b = args[i]
            if b in relevant:
                if avoid is None:
                    names = [args[j] for j in binders]
                    avoid = relevant | free_vars(t) | set(s) | set(names)
                args[i] = fresh_name(b, avoid)
                avoid.add(args[i])
                renames[b] = t._var_cls(args[i])
        if renames:
            t = subst(renames, t)
    if not free_vars(t).isdisjoint(s):
        t = _subst(s, fvs, t)
    args[body] = t


def program_body(p):
    """The body of a letfun program with each function substituted for its
    binder, in order."""
    body = p.body
    for binder, fn in zip(p.binders, p.functions):
        body = subst({binder: fn}, body)
    return body


# ---------------------------------------------------------------------------
# Alpha-equivalence


def alpha_eq(a, b) -> bool:
    """Equal up to the names of bound variables; annotations are ignored."""
    fa = free_vars(a)
    if fa != free_vars(b):
        return False
    env = {x: i for i, x in enumerate(sorted(fa))}
    ca, cb = [], []
    _nameless(a, env, len(env), ca)
    _nameless(b, env, len(env), cb)
    return ca == cb


def _nameless(t, env, depth, out):
    """Append t's canonical form to out, a flat preorder list: each node's
    class and numerals, and for each variable the level of its binder
    (``env`` numbers the free ones)."""
    if t._is_var:
        out.append(env[t.name])
        return
    out.append(t.__class__)
    for f in t._data:
        out.append(getattr(t, f))
    for f, scope in t._children:
        inner, level = env, depth
        if scope:
            inner = dict(env)
            for b in scope:
                inner[getattr(t, b)] = level
                level += 1
        _nameless(getattr(t, f), inner, level, out)


# ---------------------------------------------------------------------------
# S-expressions


def to_sexpr(t, annot=None):
    """Nested lists of atoms; ``annot`` prints annotation values."""
    if isinstance(t._tmpl, str):
        return t._tmpl
    bare = not t._annots or all(getattr(t, f) is None for f in t._annots)
    root = []
    todo = [(t._tmpl, root)]
    for items, out in todo:
        for item in items:
            if isinstance(item, str):
                out.append(item)
            elif isinstance(item, list):
                out.append([])
                todo.append((item, out[-1]))
            elif item[0] is CHILD:
                out.append(to_sexpr(getattr(t, item[1]), annot))
            elif item[0] is NUM:
                out.append(str(getattr(t, item[1])))
            elif item[0] is ANNOT:
                v = getattr(t, item[1])
                if not bare:
                    out.append("_" if v is None else annot(v))
            else:
                out.append(getattr(t, item[1]))
    return root


def from_sexpr(base, e, annot=None):
    """Read a term of the IR whose term class is ``base``; ``annot`` reads
    annotation values."""
    if isinstance(e, str):
        if e not in base._atoms:
            raise ParseError(f"bad term: {e!r}")
        return base._atoms[e]
    cls = base._heads.get(e[0]) if e and isinstance(e[0], str) else None
    if cls is None:
        raise ParseError(f"bad term: {e!r}")
    values = dict.fromkeys(cls._annots)
    todo = [(cls._tmpl, e)]
    for items, x in todo:
        if not isinstance(x, list) or (
            len(x) != len(items) and not _annots_omitted(items, x)
        ):
            raise ParseError(f"bad term: {e!r}")
        for item, y in zip(items, x):
            if isinstance(item, list):
                todo.append((item, y))
            elif isinstance(item, str):
                if y != item:
                    raise ParseError(f"bad term: {e!r}")
            elif item[0] is CHILD:
                values[item[1]] = from_sexpr(base, y, annot)
            elif item[0] is NUM:
                values[item[1]] = _numeral(y)
            elif item[0] is ANNOT:
                values[item[1]] = None if y == "_" else annot(y)
            elif isinstance(y, str):
                values[item[1]] = y
            else:
                raise ParseError(f"bad name: {y!r}")
    return cls(**values)


def _annots_omitted(items, x):
    """Whether list x is the template list items without its annotations."""
    annots = sum(isinstance(i, tuple) and i[0] is ANNOT for i in items)
    return len(items) - len(x) == annots


def _numeral(x) -> int:
    """A natural-number atom; anything else is a ParseError."""
    if isinstance(x, str) and x.isascii() and x.isdigit():
        return int(x)
    raise ParseError(f"bad numeral: {x!r}")


# ---------------------------------------------------------------------------
# Evaluation


class Outcome(enum.Enum):
    VALUE = "Value"
    STUCK = "Stuck"
    OUT_OF_FUEL = "OutOfFuel"


@dataclass(frozen=True)
class EvalOutcome:
    kind: Outcome
    value: object
    steps: int


def eval_lets(let, is_value, step, t, fuel):
    """Iterate ``step`` to a value, stuck term, or fuel exhaustion.

    Keeps the enclosing ``let`` frames on an explicit stack so that each step
    costs time near the redex rather than a walk from the root; popping a
    frame onto a value is one step, so the step counts agree exactly with
    iterating the step relation.
    """
    steps = 0
    stack = []
    u = t
    while True:
        while isinstance(u, let):
            stack.append((u.binder, u.body))
            u = u.bound
        if is_value(u):
            if not stack:
                return EvalOutcome(Outcome.VALUE, u, steps)
            if steps >= fuel:
                return EvalOutcome(Outcome.OUT_OF_FUEL, _plug(let, stack, u), steps)
            binder, body = stack.pop()
            u = subst({binder: u}, body)
            steps += 1
            continue
        if steps >= fuel:
            return EvalOutcome(Outcome.OUT_OF_FUEL, _plug(let, stack, u), steps)
        nxt = step(u)
        if nxt is None:
            return EvalOutcome(Outcome.STUCK, _plug(let, stack, u), steps)
        u = nxt
        steps += 1


def _plug(let, stack, u):
    for binder, body in reversed(stack):
        u = let(u, binder, body)
    return u
