"""Tokenizer shared by the .gcl, .csp and .par parsers.

One compiled regular expression scans each line: optional blanks, then a
comment, an ASCII integer, an identifier or keyword, or a symbol (longest
first). Lines split at "\\n" only, and columns count characters from 1, so
a tab or "\\r" is one column. A word may start with a non-ASCII letter
(`str.isalpha`) and continue with `str.isalnum` characters or `_`; any
other character, non-ASCII digits included, is an unexpected character.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError

KEYWORDS = frozenset({
    "var", "int", "bool", "true", "false",
    "skip", "abort", "fail", "if", "fi", "do", "od",
    "div", "mod", "and", "or", "not", "choice",
    "process", "end", "component", "init", "epilogue",
    "while", "then", "else", "await",
})


class Token(NamedTuple):
    kind: str   # 'ident', 'number', 'eof', a keyword, or a symbol
    text: str
    line: int
    col: int


# Groups: 1 comment, 2 integer, 3 ASCII-led word, 4 symbol, 5 word led by
# another word character, 6 anything else; none at a line's trailing blanks.
# '[]' is always the box separator: an index or initializer list is never
# empty. In a str pattern `\w` is exactly `str.isalnum()` or '_'.
_SCAN = re.compile(r"""[ \t\r]*(?:
    (\#.*) | ([0-9]+) | ([A-Za-z_]\w*)
  | (:= | -> | \.\. | \[\] | <= | >= | != | [-+*=<>()\[\],;:?!])
  | (\w+) | (.) | $)""", re.VERBOSE)


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    add = toks.append
    new = tuple.__new__  # skips the Python-level NamedTuple constructor
    for line, src in enumerate(text.split("\n"), 1):
        end = len(src)
        for m in _SCAN.finditer(src):
            k = m.lastindex
            if k is None:
                continue
            s = m[k]
            col = m.start(k) + 1
            if k == 2:
                add(new(Token, ("number", s, line, col)))
            elif k == 3:
                add(new(Token, (s if s in KEYWORDS else "ident", s, line, col)))
            elif k == 4:
                add(new(Token, (s, s, line, col)))
            elif k == 1:
                end = col - 1  # a comment does not move the end-of-input column
            elif k == 5 and s[0].isalpha():
                add(new(Token, ("ident", s, line, col)))
            else:
                raise ParseError(f"unexpected character {s[0]!r}", line, col)
    toks.append(Token("eof", "", line, end + 1))
    return toks
