"""S-expression text for every IR in the pipeline: the reader, the
renderer, and the program form.

Each term or type constructor's shape, e.g. ``(let e (x body))``, ``(fix (f
x T1 T2) body)`` or ``(arrow T1 T2)``, is the template on its class;
``term.to_sexpr(t)`` and ``term.from_sexpr(ir, e)`` print and read the
terms and types of every IR from those templates, annotations included,
and reading admits only the heads of the IR's grammar ``ir``.
This module adds the reader and renderer of the text and the program form
``(letfun (f1 ... fn) (F1 ... Fn) body)`` of the hoisted and cg stages.
"""

from __future__ import annotations

import re

from . import term
from .errors import ParseError


# ---------------------------------------------------------------------------
# Generic reader


# A parenthesis, an atom, a comment or a newline; whitespace in between is
# skipped.
_TOKEN = re.compile(r"[()]|[^\s();]+|;.*|\n")


def _tokenize(text):
    """The (token, line, column) triples of text, lines and columns from 1."""
    out = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "\n":
            line += 1
            line_start = m.end()
        elif tok[0] != ";":
            out.append((tok, line, m.start() - line_start + 1))
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
# Programs


def program_to_sexpr(p):
    return [
        "letfun",
        list(p.binders),
        [term.to_sexpr(f) for f in p.functions],
        term.to_sexpr(p.body),
    ]


def program_from_sexpr(ir, e):
    """Read a letfun program whose terms are of the grammar ``ir``; each
    binder must be one name."""
    if not (
        isinstance(e, list)
        and len(e) == 4
        and e[0] == "letfun"
        and isinstance(e[1], list)
        and isinstance(e[2], list)
    ):
        raise ParseError(f"bad program: {term.brief_sexpr(e)}")
    if not all(isinstance(b, str) for b in e[1]):
        raise ParseError(
            f"letfun binders must be a list of names: {term.brief_sexpr(e[1])}")
    functions = tuple(term.from_sexpr(ir, f) for f in e[2])
    if len(e[1]) != len(functions):
        raise ParseError("letfun binder/function arity mismatch")
    return term.Program(tuple(e[1]), functions, term.from_sexpr(ir, e[3]))


# ---------------------------------------------------------------------------
# Rendering


# The line width render fills.
_WIDTH = 100


def render(e):
    """Pretty-render a nested-list s-expression.

    A list that fits in the width left on its line is printed on one line;
    otherwise its head stays on the first line and every other item is
    rendered on a line of its own, indented two more.
    """
    out = []
    _render(e, 0, out)
    return "".join(out)


def _render(e, indent, out):
    flat = _one_line(e, _WIDTH - indent)
    if flat is not None or isinstance(e, str):
        out.append(e if flat is None else flat)
        return
    head = e[0] if e and isinstance(e[0], str) else None
    items = e[1:] if head is not None else e
    out.append("(" + (head or "") + ("" if items else "\n"))
    pad = "\n" + " " * (indent + 2)
    for x in items:
        out.append(pad)
        _render(x, indent + 2, out)
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
