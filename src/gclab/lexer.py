"""Tokenizer shared by the .gcl, .csp and .par parsers.

One compiled regular expression serves two scans. Each match is the
blanks and line breaks before a comment, the end of the text or a token:
an ASCII integer, an identifier or keyword, a symbol (longest first), a
word led by another word character, or any other single character.

`tokenize`, the scan every parse runs, keeps no positions: one `findall`
lists the token texts, and a keyword/symbol table and a first-character
table give their kinds. A token either table cannot classify sends the
whole text to `scan`, which gives the same tokens with their positions
or the unexpected character's ParseError. The parser reads positions
only to place an error, and then parses the text again on `scan`'s
tokens (`parser`), unless the error already has its position.

`scan` is the one home of the position rules. Lines break at "\\n" only,
and columns count characters from 1, so a tab or "\\r" is one column; the
end of input after a trailing comment sits where the comment starts. A
word may start with a non-ASCII letter (`str.isalpha`) and continue with
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
    """A token of `scan`; `tokenize` gives the pair (kind, text) alone."""
    kind: str   # 'ident', 'number', 'eof', a keyword, or a symbol
    text: str
    line: int
    col: int


# A match is the blanks and line breaks before a token, a comment or the end
# of the text, then that token, comment or end; its one group is the
# token's text, empty for a comment or the end. Only the blanks hold line
# breaks, and every position starts a match, so no character is skipped.
# '[]' is always the box separator: an index or initializer list is never
# empty. In a str pattern `\w` is exactly `str.isalnum()` or '_', and `.`
# is any character but "\n".
_SCAN = re.compile(r"""[ \t\r\n]* (?: \#.* | \Z | (
    [0-9]+ | [A-Za-z_]\w*
  | := | -> | \.\. | \[\] | <= | >= | != | [-+*=<>()\[\],;:?!]
  | \w+ | .))""", re.VERBOSE)

# the kind of a keyword or symbol, and of any other token by its first character
_KIND = {s: s for s in KEYWORDS | {
    ":=", "->", "..", "[]", "<=", ">=", "!=", *"-+*=<>()[],;:?!"}}
_FIRST = (dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_", "ident")
          | dict.fromkeys("0123456789", "number"))

_EOF = ("eof", "")


def tokenize(text: str) -> list[tuple[str, str]]:
    """The (kind, text) tokens of `text`, ending with the eof token."""
    kind, first = _KIND.get, _FIRST
    try:
        toks = [(kind(s) or first[s[0]], s) for s in _SCAN.findall(text) if s]
    except KeyError:  # a character only `scan` classifies, or rejects
        return scan(text)
    toks.append(_EOF)
    return toks


def scan(text: str) -> list[Token]:
    """`tokenize` with each token's line and column."""
    toks: list[Token] = []
    new = tuple.__new__  # skips the Python-level NamedTuple constructor
    line, start = 1, 0  # the current line and the index of its first character
    comment = None  # the column before a comment on the current line
    for m in _SCAN.finditer(text):
        match = m[0]
        if "\n" in match:
            line += match.count("\n")
            start = m.start() + match.rindex("\n") + 1
            comment = None
        s = m[1]
        if s is None:
            if "#" in match:  # a comment does not move the eof column
                comment = m.start() + match.index("#") - start
            continue
        col = m.start(1) - start + 1
        kind = _KIND.get(s) or _FIRST.get(s[0]) or (s[0].isalpha() and "ident")
        if not kind:
            raise ParseError(f"unexpected character {s[0]!r}", line, col)
        toks.append(new(Token, (kind, s, line, col)))
    end = len(text) - start if comment is None else comment
    toks.append(Token("eof", "", line, end + 1))
    return toks
