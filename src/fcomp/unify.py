"""Structural first-order unification over dataclass type trees.

Both the source and the closure-converted type languages are frozen
dataclasses whose fields are themselves types.  Unification is monomorphic:
type variables stand for exactly one type, rigid constants unify only with
themselves (they are plain leaves with a tag field).
"""

from __future__ import annotations

import dataclasses
import itertools


class TypeExpr:
    """Common base for all type dataclasses, including variables."""

    __slots__ = ()


@dataclasses.dataclass(frozen=True)
class TVar(TypeExpr):
    """A unification variable."""

    id: int

    def __str__(self):
        return f"?{self.id}"


class UnifyError(Exception):
    def __init__(self, a, b):
        super().__init__(f"cannot unify {a} with {b}")
        self.a = a
        self.b = b


def _children(ty):
    return [getattr(ty, f.name) for f in dataclasses.fields(ty)]


def _type_children(ty):
    return [c for c in _children(ty) if isinstance(c, TypeExpr)]


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
        if isinstance(ty, TVar):
            return ty
        fields = dataclasses.fields(ty)
        if not fields:
            return ty
        repl = {
            f.name: self.zonk(v) if isinstance(v := getattr(ty, f.name), TypeExpr) else v
            for f in fields
        }
        return dataclasses.replace(ty, **repl)

    def occurs(self, var, ty):
        ty = self.resolve(ty)
        if isinstance(ty, TVar):
            return ty == var
        return any(self.occurs(var, c) for c in _type_children(ty))

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
        if type(a) is not type(b):
            raise UnifyError(a, b)
        az, bz = _children(a), _children(b)
        for ca, cb in zip(az, bz):
            if isinstance(ca, TypeExpr):
                self.unify(ca, cb)
            elif ca != cb:
                raise UnifyError(a, b)


def has_tvar(ty):
    if isinstance(ty, TVar):
        return True
    return any(has_tvar(c) for c in _type_children(ty))
