"""Tokenizer shared by the .gcl, .csp and .par parsers.

One compiled regular expression scans the whole text: optional blanks,
then a comment, an ASCII integer, an identifier or keyword, a symbol
(longest first) or a line break. Lines break at "\\n" only, and columns
count characters from 1, so a tab or "\\r" is one column. A word may
start with a non-ASCII letter (`str.isalpha`) and continue with
`str.isalnum` characters or `_`; any other character, non-ASCII digits
included, is an unexpected character.
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


# Groups: 1 comment, 2 integer, 3 ASCII-led word, 4 symbol, 5 line break,
# 6 word led by another word character, 7 anything else; none at the end
# of the text. '[]' is always the box separator: an index or initializer
# list is never empty. In a str pattern `\w` is exactly `str.isalnum()` or
# '_', and `.` is any character but "\n".
_SCAN = re.compile(r"""[ \t\r]*(?:
    (\#.*) | ([0-9]+) | ([A-Za-z_]\w*)
  | (:= | -> | \.\. | \[\] | <= | >= | != | [-+*=<>()\[\],;:?!])
  | (\n) | (\w+) | (.) | \Z)""", re.VERBOSE)


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    add = toks.append
    new = tuple.__new__  # skips the Python-level NamedTuple constructor
    line, start = 1, 0  # the current line and the index of its first character
    comment = None  # the column before a comment on the current line
    for m in _SCAN.finditer(text):
        k = m.lastindex
        if k is None:
            continue
        s = m[k]
        if k == 3:
            add(new(Token, (s if s in KEYWORDS else "ident", s, line, m.start(3) - start + 1)))
        elif k == 4:
            add(new(Token, (s, s, line, m.start(4) - start + 1)))
        elif k == 5:
            line += 1
            start = m.end()
            comment = None
        elif k == 2:
            add(new(Token, ("number", s, line, m.start(2) - start + 1)))
        elif k == 1:
            comment = m.start(1) - start  # a comment does not move the eof column
        elif k == 6 and s[0].isalpha():
            add(new(Token, ("ident", s, line, m.start(6) - start + 1)))
        else:
            raise ParseError(f"unexpected character {s[0]!r}", line, m.start(k) - start + 1)
    end = len(text) - start if comment is None else comment
    toks.append(Token("eof", "", line, end + 1))
    return toks
