"""Structural first-order unification over the types of the term core.

The types of every IR are ``node`` classes, so unification walks and
rebuilds them through the core's description: the child fields, the numeral fields and the class.
Unification is monomorphic: type variables stand for exactly one type,
rigid constants unify only with themselves (they are leaves with a numeral
tag).
"""

from __future__ import annotations

import dataclasses
import itertools


@dataclasses.dataclass(frozen=True, slots=True)
class TVar:
    """A unification variable: a plain leaf, not a node of the core."""

    id: int

    def __str__(self):
        return f"?{self.id}"


class UnifyError(Exception):
    def __init__(self, a, b):
        super().__init__(f"cannot unify {a} with {b}")
        self.a = a
        self.b = b


def nodes(ty, resolve=None):
    """Each distinct node reachable from ty, once, after ``resolve`` (if
    given) follows variable bindings.  Unification builds types that share
    subtrees, so walking every path instead would take time exponential in
    their depth."""
    seen = set()
    stack = [ty]
    while stack:
        ty = stack.pop()
        if resolve is not None:
            ty = resolve(ty)
        if id(ty) in seen:
            continue
        seen.add(id(ty))
        yield ty
        if not isinstance(ty, TVar):
            for f, _ in ty._children:
                stack.append(getattr(ty, f))


def has_tvar(ty):
    return any(isinstance(n, TVar) for n in nodes(ty))


class Unifier:
    """A mutable store of type-variable bindings."""

    def __init__(self):
        self._store = {}
        self._ids = itertools.count(1)

    def fresh(self):
        return TVar(next(self._ids))

    def resolve(self, ty):
        """Follow variable bindings to a type that is not a bound variable."""
        while isinstance(ty, TVar) and ty.id in self._store:
            ty = self._store[ty.id]
        return ty

    def zonk(self, ty):
        """Substitute all solved variables throughout ``ty``."""
        ty = self.resolve(ty)
        if isinstance(ty, TVar) or not ty._children:
            return ty
        args = {f: self.zonk(getattr(ty, f)) for f, _ in ty._children}
        for f in ty._data:
            args[f] = getattr(ty, f)
        return ty.__class__(**args)

    def occurs(self, var, ty):
        return any(n == var for n in nodes(ty, self.resolve))

    def unify(self, a, b):
        a = self.resolve(a)
        b = self.resolve(b)
        if a == b:
            return
        if isinstance(a, TVar):
            if self.occurs(a, b):
                raise UnifyError(a, b)
            self._store[a.id] = b
            return
        if isinstance(b, TVar):
            self.unify(b, a)
            return
        if type(a) is not type(b) or any(
            getattr(a, f) != getattr(b, f) for f in a._data
        ):
            raise UnifyError(a, b)
        for f, _ in a._children:
            self.unify(getattr(a, f), getattr(b, f))
