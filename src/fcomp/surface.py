"""Concrete syntax for the source language.

Grammar sketch::

    expr   := ifz e then e else e | let x = e in e
            | fix f (x:T):T. e | fun (x:T). e | sum
    sum    := app (+ app)*
    app    := prefix prefix*              -- left-associative application
    prefix := (pred|fst|snd) prefix | atom
    atom   := number | ident | () | (e) | (e1, e2)
    type   := prod (-> type)?             -- -> right-associative
    prod   := atomty (* prod)?            -- * binds tighter than ->

``fun (x:T). e`` is sugar for a fix whose self binder (the reserved name
``_``) does not occur in the body.  Identifiers may not start with an
underscore: that namespace belongs to compiler-generated names.
"""

from __future__ import annotations

import re
from collections import namedtuple

from . import source_lang as src
from .errors import ParseError

FUN_SELF = "_"

_KEYWORDS = {
    "pred", "ifz", "then", "else", "let", "in", "fix", "fun", "fst", "snd",
    "nat", "unit",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_']*)
  | (?P<sym>->|[()+:.,=*])
    """,
    re.VERBOSE,
)

_Token = namedtuple("_Token", "kind text line col")


def _lex(text):
    tokens = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            if kind == "ident" and value in _KEYWORDS:
                kind = value
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


def _expected(what, tok):
    return ParseError(
        f"expected {what}, found {tok.text or 'end of input'!r}", tok.line, tok.col
    )


# The prefix keywords and the constructors they head.
_PREFIX = {"pred": src.Pred, "fst": src.Fst, "snd": src.Snd}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise _expected(repr(kind), tok)
        return tok

    def ident(self):
        return self.expect("ident").text

    def sym(self, text):
        if not self.accept(text):
            raise _expected(repr(text), self.peek())

    def accept(self, text):
        """Whether the symbol text comes next; if so, it is consumed."""
        tok = self.peek()
        if tok.kind == "sym" and tok.text == text:
            self.pos += 1
            return True
        return False

    # -- types

    def type_(self):
        left = self.prod_type()
        if self.accept("->"):
            return src.TArrow(left, self.type_())
        return left

    def prod_type(self):
        left = self.atom_type()
        if self.accept("*"):
            return src.TProd(left, self.prod_type())
        return left

    def atom_type(self):
        if self.accept("("):
            ty = self.type_()
            self.sym(")")
            return ty
        tok = self.next()
        if tok.kind == "nat":
            return src.NAT
        if tok.kind == "unit":
            return src.UNIT
        raise _expected("a type", tok)

    # -- terms

    def expr(self):
        tok = self.peek()
        if tok.kind == "ifz":
            self.next()
            cond = self.expr()
            self.expect("then")
            zb = self.expr()
            self.expect("else")
            return src.Ifz(cond, zb, self.expr())
        if tok.kind == "let":
            self.next()
            x = self.ident()
            self.sym("=")
            bound = self.expr()
            self.expect("in")
            return src.Let(bound, x, self.expr())
        if tok.kind == "fix" or tok.kind == "fun":
            # fix f (x:T):T. e or fun (x:T). e, each type optional.
            fix = self.next().kind == "fix"
            f = self.ident() if fix else FUN_SELF
            self.sym("(")
            x = self.ident()
            argty = self.type_() if self.accept(":") else None
            self.sym(")")
            retty = self.type_() if fix and self.accept(":") else None
            self.sym(".")
            return src.Fix(f, x, argty, retty, self.expr())
        return self.sum()

    def sum(self):
        left = self.app()
        while self.accept("+"):
            left = src.Plus(left, self.app())
        return left

    def app(self):
        fn = self.prefix()
        while self.starts_prefix():
            fn = src.App(fn, self.prefix())
        return fn

    def starts_prefix(self):
        tok = self.peek()
        return (
            tok.kind in ("num", "ident", "pred", "fst", "snd")
            or (tok.kind == "sym" and tok.text == "(")
        )

    def prefix(self):
        kind = self.peek().kind
        if kind in _PREFIX:
            self.next()
            return _PREFIX[kind](self.prefix())
        return self.atom()

    def atom(self):
        if self.accept("("):
            if self.accept(")"):
                return src.UNITVAL
            e = self.expr()
            if self.accept(","):
                e = src.Pair(e, self.expr())
            self.sym(")")
            return e
        tok = self.next()
        if tok.kind == "num":
            return src.NatLit(int(tok.text))
        if tok.kind == "ident":
            return src.Var(tok.text)
        raise _expected("a term", tok)


def parse_source(text: str) -> src.SrcTerm:
    parser = _Parser(_lex(text))
    term = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input: {tok.text!r}", tok.line, tok.col)
    return term


# ---------------------------------------------------------------------------
# Printing

_LOW, _SUM, _APP, _ATOM = 0, 1, 2, 3


def print_source(t: src.SrcTerm) -> str:
    return _pp(t, _LOW)


def _paren(s, need):
    return f"({s})" if need else s


def _pp(t, level):
    if isinstance(t, src.NatLit):
        return str(t.n)
    if isinstance(t, src.Var):
        return t.name
    if isinstance(t, src.UnitLit):
        return "()"
    if isinstance(t, src.Pair):
        return f"({_pp(t.l, _LOW)}, {_pp(t.r, _LOW)})"
    if isinstance(t, (src.Pred, src.Fst, src.Snd)):
        # The keyword is the head.
        return _paren(f"{t._head} {_pp(t.arg, _ATOM)}", level > _APP)
    if isinstance(t, src.Plus):
        return _paren(f"{_pp(t.l, _SUM)} + {_pp(t.r, _APP)}", level > _SUM)
    if isinstance(t, src.App):
        return _paren(f"{_pp(t.fn, _APP)} {_pp(t.arg, _ATOM)}", level > _APP)
    if isinstance(t, src.Ifz):
        body = (
            f"ifz {_pp(t.cond, _LOW)} then {_pp(t.zbranch, _LOW)} "
            f"else {_pp(t.nzbranch, _LOW)}"
        )
        return _paren(body, level > _LOW)
    if isinstance(t, src.Let):
        body = f"let {t.binder} = {_pp(t.bound, _LOW)} in {_pp(t.body, _LOW)}"
        return _paren(body, level > _LOW)
    if isinstance(t, src.Fix):
        if t.selfbinder == FUN_SELF and t.retty is None:
            ann = f":{t.argty}" if t.argty is not None else ""
            body = f"fun ({t.argbinder}{ann}). {_pp(t.body, _LOW)}"
            return _paren(body, level > _LOW)
        argann = f":{t.argty}" if t.argty is not None else ""
        retann = f":{t.retty}" if t.retty is not None else ""
        body = (
            f"fix {t.selfbinder} ({t.argbinder}{argann}){retann}. "
            f"{_pp(t.body, _LOW)}"
        )
        return _paren(body, level > _LOW)
    raise TypeError(t)
