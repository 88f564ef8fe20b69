"""One binder-aware core for the terms and types of every IR.

Each term or type constructor describes itself once, with the ``node``
decorator: an s-expression template that names its fields, and the binder
fields in scope of each child.  In a template a plain field name is a
child, ``#f`` a numeral, ``?f`` an optional annotation (a trailing group,
printed only when one of them is set, ``_`` standing for a missing one), a
name listed in ``binds`` a binder, and the one field of a ``var`` node the
variable it names.  For example::

    @node("(let bound (binder body))", binds={"body": ("binder",)})
    @node("(arrow domain codomain)")

A head has one class, whichever IRs admit it: the terms of every IR are one
family of classes and their types another.  An IR is a ``Grammar``, the
set of heads it admits; reading an s-expression rejects any other head.

From these descriptions this module derives, for every IR alike: free
variables (cached on the node), all names, capture-avoiding simultaneous
substitution, a canonical form for alpha-equivalence, s-expression printing
and reading, the child walker that shrinking uses, the preorder walk over
every subterm (``subterms``) that the shape checks use, a builder of let
sequences (``lets``) and the outcome of an evaluation (``EvalOutcome``).
The letfun program of the hoisted and cg stages (``Program``), its scope
checks and its unhoisting (``program_body``) are here too.  Types have no
binders; ``unify`` walks and rebuilds them through the same description.
An annotation is a type node, so it prints by its own template, and it
reads by the grammar of types that its IR's grammar names.

A node's cached free variables may be the very set object of one of its
children: ``free_vars`` makes a new set only where a node's free variables
differ from those of every child, so a spine of nodes with the same free
variables holds one set (sharing as in hash-consing).

A node keeps its fields and its cached free variables in slots, with no
``__dict__``: a compilation holds tens of thousands of nodes at once, and a
node without one is about a third smaller (56 instead of 88 bytes for a
``plus`` on 64-bit CPython 3.11).  Of dataclasses it keeps only the
field bookkeeping that ``dataclasses.fields`` and ``replace`` read.  Its
``__init__``, ``__eq__`` and ``__hash__`` are compiled once per list of
field names and shared by the classes that have it, and ``repr`` and
immutability are written once in ``Term``; all of them give the results a
frozen dataclass would.

Every walk but ``subterms`` (which keeps its own stack and takes any depth)
recurses in Python, one frame per level of the term (two under a binder in
substitution), and never through a C call (``map``, ``join``, a
comparison), so a term too deep for the recursion limit raises
``RecursionError`` instead of overflowing the C stack.
"""

from __future__ import annotations

import enum
import re
import sys
from dataclasses import FrozenInstanceError, dataclass, fields
from operator import attrgetter

from .errors import ParseError
from .fresh import fresh_name

# Field kinds.
CHILD, BINDER, NAME, NUM, ANNOT = "child", "binder", "name", "num", "annot"


class Term:
    """Base of the family of term classes and of the family of type classes,
    each of which gets its own table of heads for reading s-expressions.
    ``repr``, assignment and deletion behave as in a frozen dataclass."""

    __slots__ = ("_fv",)  # free variables, cached on the node by free_vars
    _is_var = False
    _noun = "term"  # what from_sexpr's messages call a bad form

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if Term in cls.__bases__:
            cls._heads = {}
            cls._atoms = {}

    def __repr__(self):
        args = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Slots and the frozen __setattr__ rule out pickle's default state.
        return self.__class__, tuple(getattr(self, f.name) for f in fields(self))


def node(template, binds=None, var=False):
    """Make a class a term constructor, with its s-expression template and
    binders.

    The class becomes a dataclass without a ``__dict__``: its fields and the
    cached free variables live in slots, which keeps the many nodes a
    compilation holds small.  Only the field bookkeeping of dataclasses is
    generated (``fields`` and ``replace`` work on nodes).  ``__init__``,
    ``__eq__`` and ``__hash__`` are shared by every class with the same field
    names, and ``repr`` and immutability (assignment raises
    ``FrozenInstanceError``; the cached free variables rely on it) come from
    ``Term``.

    ``binds`` maps a child field to the binder fields in scope of it.  A
    ``var`` node is the IR's variable occurrence; its one field is the name.
    The first atom of the template is the node's ``_head`` ("plus",
    "unit", ...), which the shared step relation and typechecker dispatch on.
    """
    binds = binds or {}
    binders = [b for scope in binds.values() for b in scope]
    assert len(binds) <= 1, "one scoped child per node"

    def describe(cls):
        if cls.__doc__ is None:
            # Spares dataclass an inspect.signature call to write one.
            cls.__doc__ = f"{cls.__name__}({', '.join(cls.__annotations__)})"
        cls = dataclass(
            init=False, repr=False, eq=False, match_args=False, slots=True
        )(cls)
        names = tuple(f.name for f in fields(cls))
        for name, method in _methods_for(names).items():
            setattr(cls, name, method)

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
        cls._head = sys.intern(tmpl if isinstance(tmpl, str) else tmpl[0])
        assert cls._head not in base._heads and cls._head not in base._atoms, (
            f"a second class for {cls._head}")
        if isinstance(tmpl, str):
            base._atoms[tmpl] = cls()
        else:
            base._heads[tmpl[0]] = cls
        if var:
            base._var_cls = cls
        return cls

    return describe


# Sets the cached free variables past the frozen __setattr__.
_set_fv = Term._fv.__set__
_methods = {}


def _methods_for(names):
    """``__init__``, ``__eq__`` and ``__hash__`` of the node classes with
    these fields, compiled the first time a class has them: the code a
    frozen dataclass would generate, with the cached free variables unset."""
    if names not in _methods:
        own = "".join(f"self.{f}, " for f in names)
        other = "".join(f"other.{f}, " for f in names)
        lines = [f"def __init__(self, {', '.join(names)}):"]
        lines += [f"    _set(self, {f!r}, {f})" for f in names]
        lines += [
            "    _set_fv(self, None)",
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({own}) == ({other})",
            "    return NotImplemented",
            "def __hash__(self):",
            f"    return hash(({own}))",
        ]
        scope = {"_set": object.__setattr__, "_set_fv": _set_fv}
        exec("\n".join(lines), scope)
        _methods[names] = {f: scope[f] for f in ("__init__", "__eq__", "__hash__")}
    return _methods[names]


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


def subterms(t):
    """Every subterm occurrence of t, t first, in preorder.  The walk keeps
    its own stack, so it takes a term of any depth."""
    todo = [t]
    while todo:
        t = todo.pop()
        yield t
        for f, _ in reversed(t._children):
            todo.append(getattr(t, f))


def lets(body, *bindings):
    """``let x1 = e1 in ... let xn = en in body`` from the pairs (e1, x1),
    ..., (en, xn), in the IR of body."""
    let = body._heads["let"]
    for bound, binder in reversed(bindings):
        body = let(bound, binder, body)
    return body


# ---------------------------------------------------------------------------
# Names


def free_vars(t) -> frozenset:
    # Cached on the (immutable) node: substitution shares untouched subtrees,
    # so the cache makes repeated stepping roughly linear in the redex path.
    # A node shares the set object of a child whenever it can: a binder that
    # is not free in its child leaves the child's set as it is, and of two
    # sets where one holds the other the larger is kept.  A new set is made
    # only for a variable, for a bound name that is free in its child, and
    # for a union that neither side holds; an empty result is ``_EMPTY``.
    fv = t._fv
    if fv is not None:
        return fv
    if t._is_var:
        fv = frozenset((t.name,))
    else:
        fv = _EMPTY
        for f, scope in t._children:
            c = free_vars(getattr(t, f))
            for binder in scope:
                b = getattr(t, binder)
                if b in c:
                    c = c - {b}
            # A subset test first compares sizes, so the test that cannot
            # hold costs nothing.
            if not c <= fv:
                fv = c if fv <= c else fv | c
    _set_fv(t, fv)
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


@dataclass(frozen=True, slots=True)
class Program:
    """letfun* binders = functions in body, the hoisted and the cg stage's
    program: each function may name the binders before it, and the body
    names any of them."""

    binders: tuple
    functions: tuple
    body: Term


def check_letfun_scope(p: Program) -> bool:
    """Each function mentions only the binders listed before it."""
    listed = set()
    for g, fn in zip(p.binders, p.functions):
        if not free_vars(fn) <= listed:
            return False
        listed.add(g)
    return True


def check_letfun_named(p: Program) -> bool:
    """A later function or the body names each binder, so that unhoisting
    (``program_body``) drops no function."""
    named = set(free_vars(p.body))
    for g, fn in zip(reversed(p.binders), reversed(p.functions)):
        if g not in named:
            return False
        named |= free_vars(fn)
    return True


def program_body(p: Program):
    """The body of a letfun program with each function substituted for its
    binder.  A function may name the binders before it, so each is first
    closed over the functions it names, in order: the same term as
    substituting the last function first, found without walking a function
    substituted earlier."""
    closed = {}

    def close(t):
        return subst({x: closed[x] for x in free_vars(t) if x in closed}, t)

    for binder, fn in zip(p.binders, p.functions):
        closed[binder] = close(fn)
    return close(p.body)


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


def to_sexpr(t):
    """Nested lists of atoms; an annotation prints as the type it is."""
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
                out.append(to_sexpr(getattr(t, item[1])))
            elif item[0] is NUM:
                out.append(str(getattr(t, item[1])))
            elif item[0] is ANNOT:
                v = getattr(t, item[1])
                if not bare:
                    out.append("_" if v is None else to_sexpr(v))
            else:
                out.append(getattr(t, item[1]))
    return root


@dataclass(frozen=True, slots=True)
class Grammar:
    """The terms of one IR, or its types: the nodes of the class family
    ``family`` whose heads are in ``heads``.  Its annotations read by the
    grammar ``types``."""

    family: type
    heads: frozenset
    types: Grammar = None


def from_sexpr(ir, e):
    """Read a term (or type) of the grammar ``ir``: a head it does not admit
    is a ParseError, and an annotation reads by ``ir.types``."""
    family = ir.family
    if isinstance(e, str):
        t = family._atoms.get(e) if e in ir.heads else None
        if t is None:
            raise ParseError(f"bad {family._noun}: {e!r}")
        return t
    cls = None
    if e and isinstance(e[0], str) and e[0] in ir.heads:
        cls = family._heads.get(e[0])
    if cls is None:
        raise ParseError(f"bad {family._noun}: {e!r}")
    values = dict.fromkeys(cls._annots)
    todo = [(cls._tmpl, e)]
    for items, x in todo:
        if not isinstance(x, list) or (
            len(x) != len(items) and not _annots_omitted(items, x)
        ):
            raise ParseError(f"bad {family._noun}: {e!r}")
        for item, y in zip(items, x):
            if isinstance(item, list):
                todo.append((item, y))
            elif isinstance(item, str):
                if y != item:
                    raise ParseError(f"bad {family._noun}: {e!r}")
            elif item[0] is CHILD:
                values[item[1]] = from_sexpr(ir, y)
            elif item[0] is NUM:
                values[item[1]] = _numeral(y)
            elif item[0] is ANNOT:
                values[item[1]] = None if y == "_" else from_sexpr(ir.types, y)
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


@dataclass(frozen=True, slots=True)
class EvalOutcome:
    kind: Outcome
    value: object
    steps: int
