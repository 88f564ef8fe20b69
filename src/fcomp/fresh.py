"""Fresh-name generation for the compilation passes.

All generated names live in a reserved namespace (a leading underscore) that
the surface parser rejects for user identifiers, so a supply seeded with the
names of the input program can never collide with it.
"""

from __future__ import annotations


class FreshSupply:
    """A deterministic gensym.

    Names look like ``_v3`` or ``_k17``: an underscore, a hint and a global
    counter.  The supply also tracks a forbidden set so that programs built
    programmatically (which may already contain underscore names) stay safe.
    """

    def __init__(self, avoid=(), start=1):
        self._avoid = set(avoid)
        self._n = start

    def fresh(self, hint="v"):
        while True:
            name = f"_{hint}{self._n}"
            self._n += 1
            if name not in self._avoid:
                self._avoid.add(name)
                return name


def fresh_name(base, avoid):
    """A fresh name derived from ``base`` not occurring in ``avoid``.

    Used by capture-avoiding substitution when a binder must be renamed.
    """
    if base not in avoid:
        return base
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"
