"""The front end as it was before the regex lexer and the precedence-climbing
expression parser: a per-character tokenizer and one recursive method per
precedence level. Kept only as the reference for
`test_frontend_differential.py`.

`reference_parser()` swaps `ReferenceParser` in for `gclab.parser.Parser`
and this tokenizer in for both of `gclab.parser`'s scans, so
`parse_gcl`/`parse_csp`/`parse_par` run the statement code of today with
this tokenizer and these expression methods, in the first parse of a text
and in the second that places an error.
"""

from __future__ import annotations

from contextlib import contextmanager

import gclab.parser
from gclab.check import BUILTIN_NAMES
from gclab.errors import CheckError, ParseError
from gclab.lexer import KEYWORDS, Token
from gclab.syntax import ArrayRef, BinOp, BoolLit, Builtin, IntLit, UnaryOp, Var

# Longest-match first.
SYMBOLS = (
    ":=", "->", "..", "[]", "<=", ">=", "!=",
    "+", "-", "*", "=", "<", ">", "(", ")", "[", "]",
    ",", ";", ":", "?", "!",
)

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token(sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class ReferenceParser(gclab.parser.Parser):
    def parse_expr(self):
        return self._parse_or()

    def _signed_int(self):
        # digit runs and the keyword `int` share the token kind "int" here
        sign = -1 if self.accept("-") else 1
        return sign * int(self.expect("int", "an integer").text)

    def _parse_or(self):
        e = self._parse_and()
        while self.at("or"):
            self.advance()
            e = BinOp("or", e, self._parse_and())
        return e

    def _parse_and(self):
        e = self._parse_not()
        while self.at("and"):
            self.advance()
            e = BinOp("and", e, self._parse_not())
        return e

    def _parse_not(self):
        if self.at("not"):
            self.advance()
            return UnaryOp("not", self._parse_not())
        return self._parse_cmp()

    def _parse_cmp(self):
        e = self._parse_add()
        if self.peek().kind in _CMP_OPS:
            op = self.advance().kind
            e = BinOp(op, e, self._parse_add())
        return e

    def _parse_add(self):
        e = self._parse_mul()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            e = BinOp(op, e, self._parse_mul())
        return e

    def _parse_mul(self):
        e = self._parse_unary()
        while self.peek().kind in ("*", "div", "mod"):
            op = self.advance().kind
            e = BinOp(op, e, self._parse_unary())
        return e

    def _parse_unary(self):
        if self.at("-"):
            self.advance()
            if self.at("int"):
                return IntLit(-int(self.advance().text))
            return UnaryOp("neg", self._parse_unary())
        return self._parse_atom()

    def _parse_atom(self):
        t = self.peek()
        if t.kind == "int":
            self.advance()
            return IntLit(int(t.text))
        if t.kind in ("true", "false"):
            self.advance()
            return BoolLit(t.kind == "true")
        if t.kind == "(":
            self.advance()
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.kind == "ident":
            self.advance()
            name = t.text
            if self.at("("):
                if name not in BUILTIN_NAMES:
                    self.fail(f"'{name}' is not callable (only min/max are builtins)", t)
                self.advance()
                a = self.parse_expr()
                self.expect(",")
                b = self.parse_expr()
                self.expect(")")
                return Builtin(name, (a, b))
            if name in BUILTIN_NAMES:
                self.fail(f"builtin '{name}' used without arguments", t)
            if name not in self.decls:
                raise CheckError(f"undeclared identifier '{name}'", t.line, t.col)
            if self.at("["):
                self.advance()
                idx = self.parse_expr()
                self.expect("]")
                return ArrayRef(name, idx)
            return Var(name)
        self.fail(f"expected an expression, found {t.text or 'end of input'!r}", t)


@contextmanager
def reference_parser():
    """Within the block, the gclab entry points parse with the reference."""
    names = ("Parser", "tokenize", "scan")
    saved = [getattr(gclab.parser, name) for name in names]
    for name, value in zip(names, (ReferenceParser, tokenize, tokenize)):
        setattr(gclab.parser, name, value)
    try:
        yield
    finally:
        for name, value in zip(names, saved):
            setattr(gclab.parser, name, value)
