"""S-expression text for every IR in the pipeline: the reader, the
renderer, types, and the program wrappers.

Each term constructor's shape, e.g. ``(let e (x body))`` or ``(fix (f x T1
T2) body)``, is the template on its class; ``term.to_sexpr`` and
``term.from_sexpr`` print and read terms from those templates.  This module
adds the types of fix annotations and the two program forms
``(htm (F1 ... Fn) (habs (f1 ... fn) body))`` and ``(letfun (f1 ... fn)
(F1 ... Fn) S)``.
"""

from __future__ import annotations

import functools

from . import cc_lang as cc
from . import cg_lang as cg
from . import source_lang as src
from . import term
from .errors import ParseError


# ---------------------------------------------------------------------------
# Generic reader


def _tokenize(text):
    out = []
    i = 0
    line, col = 1, 1
    while i < len(text):
        ch = text[i]
        if ch in "()":
            out.append((ch, line, col))
            i += 1
            col += 1
        elif ch == "\n":
            i += 1
            line += 1
            col = 1
        elif ch.isspace():
            i += 1
            col += 1
        elif ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "();":
                j += 1
            out.append((text[i:j], line, col))
            col += j - i
            i = j
    return out


def read_sexpr(text):
    """Parse one s-expression into nested lists of atoms."""
    toks = _tokenize(text)
    pos = 0

    def parse():
        nonlocal pos
        if pos >= len(toks):
            raise ParseError("unexpected end of input")
        tok, line, col = toks[pos]
        pos += 1
        if tok == "(":
            items = []
            while True:
                if pos >= len(toks):
                    raise ParseError("unclosed parenthesis", line, col)
                if toks[pos][0] == ")":
                    pos += 1
                    return items
                items.append(parse())
        if tok == ")":
            raise ParseError("unexpected )", line, col)
        return tok

    result = parse()
    if pos != len(toks):
        tok, line, col = toks[pos]
        raise ParseError(f"trailing input: {tok}", line, col)
    return result


# ---------------------------------------------------------------------------
# Types


def type_to_sexpr(t):
    if isinstance(t, (src.TNat, cc.CCNat)):
        return "nat"
    if isinstance(t, (src.TUnit, cc.CCUnit)):
        return "unit"
    if isinstance(t, src.TArrow):
        return ["arrow", type_to_sexpr(t.domain), type_to_sexpr(t.codomain)]
    if isinstance(t, src.TProd):
        return ["prod", type_to_sexpr(t.left), type_to_sexpr(t.right)]
    if isinstance(t, cc.ClosArrow):
        return ["arrow", type_to_sexpr(t.dom), type_to_sexpr(t.cod)]
    if isinstance(t, cc.CodeArrow):
        return ["code", type_to_sexpr(t.dom), type_to_sexpr(t.cod)]
    if isinstance(t, cc.CCProd):
        return ["prod", type_to_sexpr(t.left), type_to_sexpr(t.right)]
    raise TypeError(t)


def src_type_from_sexpr(e):
    if e == "nat":
        return src.NAT
    if e == "unit":
        return src.UNIT
    if isinstance(e, list) and len(e) == 3 and e[0] == "arrow":
        return src.TArrow(src_type_from_sexpr(e[1]), src_type_from_sexpr(e[2]))
    if isinstance(e, list) and len(e) == 3 and e[0] == "prod":
        return src.TProd(src_type_from_sexpr(e[1]), src_type_from_sexpr(e[2]))
    raise ParseError(f"bad type: {e!r}")


# ---------------------------------------------------------------------------
# Terms


def src_to_sexpr(t):
    return term.to_sexpr(t, type_to_sexpr)


def src_from_sexpr(e):
    return term.from_sexpr(src.SrcTerm, e, src_type_from_sexpr)


cc_to_sexpr = cg_to_sexpr = term.to_sexpr
cc_from_sexpr = functools.partial(term.from_sexpr, cc.CCTerm)
cg_from_sexpr = functools.partial(term.from_sexpr, cg.CgTerm)


# ---------------------------------------------------------------------------
# Programs


def hoisted_to_sexpr(p):
    return [
        "htm",
        [cc_to_sexpr(f) for f in p.functions],
        ["habs", list(p.binders), cc_to_sexpr(p.body)],
    ]


def hoisted_from_sexpr(e):
    if (
        isinstance(e, list)
        and len(e) == 3
        and e[0] == "htm"
        and isinstance(e[1], list)
        and isinstance(e[2], list)
        and len(e[2]) == 3
        and e[2][0] == "habs"
    ):
        functions = tuple(cc_from_sexpr(f) for f in e[1])
        binders = tuple(e[2][1])
        if len(binders) != len(functions):
            raise ParseError("htm binder/function arity mismatch")
        return cc.HoistedProgram(binders, functions, cc_from_sexpr(e[2][2]))
    raise ParseError(f"bad hoisted program: {e!r}")


def cg_program_to_sexpr(p):
    return [
        "letfun",
        list(p.binders),
        [cg_to_sexpr(f) for f in p.functions],
        cg_to_sexpr(p.body),
    ]


def cg_program_from_sexpr(e):
    if (
        isinstance(e, list)
        and len(e) == 4
        and e[0] == "letfun"
        and isinstance(e[1], list)
        and isinstance(e[2], list)
    ):
        binders = tuple(e[1])
        functions = tuple(cg_from_sexpr(f) for f in e[2])
        if len(binders) != len(functions):
            raise ParseError("letfun binder/function arity mismatch")
        return cg.CgProgram(binders, functions, cg_from_sexpr(e[3]))
    raise ParseError(f"bad program: {e!r}")


# ---------------------------------------------------------------------------
# Rendering


def render(e, indent=0, width=100):
    """Pretty-render a nested-list s-expression.

    A list that fits in the width left on its line is printed on one line;
    otherwise its head stays on the first line and every other item is
    rendered on a line of its own, indented two more.
    """
    out = []
    _render(e, indent, width, out)
    return "".join(out)


def _render(e, indent, width, out):
    flat = _one_line(e, width - indent)
    if flat is not None or isinstance(e, str):
        out.append(e if flat is None else flat)
        return
    head = e[0] if e and isinstance(e[0], str) else None
    items = e[1:] if head is not None else e
    out.append("(" + (head or "") + ("" if items else "\n"))
    pad = "\n" + " " * (indent + 2)
    for x in items:
        out.append(pad)
        _render(x, indent + 2, width, out)
    out.append(")")


def _one_line(e, room):
    """The one-line form of e if it takes at most ``room`` characters, else
    None; stops reading e as soon as it overflows."""
    out = []
    todo = [e]
    while todo:
        x = todo.pop()
        if isinstance(x, list):
            todo.append(")")
            for i in range(len(x) - 1, -1, -1):
                todo.append(x[i])
                if i:
                    todo.append(" ")
            x = "("
        room -= len(x)
        if room < 0:
            return None
        out.append(x)
    return "".join(out)
