"""The two scans of `lexer`: `tokenize`, which every parse runs and which
keeps no positions, and `scan`, which places each token and each error.
Their agreement on the corpus, the bench program texts and the token soups
is checked by `test_frontend_differential._compare_tokens`; here are the
texts that must leave the fast path, the ones that must not, and the
parser's use of the two."""

import pytest

import gclab.lexer
import gclab.parser
from gclab.errors import ParseError, SourceError
from gclab.lexer import scan, tokenize
from gclab.parser import parse_csp, parse_gcl, parse_par, parse_value

from conftest import CORPUS

PARSERS = {"gcl": parse_gcl, "csp": parse_csp, "par": parse_par}


def _outcome(f, text):
    try:
        return ("ok", f(text))
    except ParseError as e:
        return ("ParseError", e.message, e.line, e.col)


@pytest.mark.parametrize("text", [
    "var éx: int; éx := 1",   # a word led by a non-ASCII letter
    "x := ٣ + 1",             # a non-ASCII digit alone
    "x := 1\fy",              # a form feed
    "x := @",
    "x :=\n  $y",
    "x := 1 .. 2 . 3",
    "ß",
])
def test_unclassified_characters_take_the_positional_scan(text):
    out = _outcome(tokenize, text)
    assert out == _outcome(scan, text)
    if out[0] == "ok":
        assert all(len(t) == 4 for t in out[1])  # placed: the scan's own tokens


def test_positional_scan_places_the_unexpected_character():
    with pytest.raises(ParseError) as err:
        tokenize("var x: int;\n  x := 1\f")
    assert (err.value.message, err.value.line, err.value.col) == (
        "unexpected character '\\x0c'", 2, 9)


def test_comments_and_ascii_led_words_stay_on_the_fast_path(monkeypatch):
    text = "var xé: int; # é ٣ @ $ \f . ß\nxé := x٣ # ½\n"
    placed = scan(text)
    monkeypatch.setattr(gclab.lexer, "scan", None)
    toks = tokenize(text)
    assert toks == [t[:2] for t in placed]
    assert all(len(t) == 2 for t in toks)


def test_every_corpus_program_parses_without_the_positional_scan(monkeypatch):
    monkeypatch.setattr(gclab.parser, "scan", None)
    for path in sorted(CORPUS.iterdir()):
        parse = PARSERS.get(path.suffix[1:])
        if parse is not None:
            parse(path.read_text(encoding="utf-8"))
    assert parse_value("[1, -2, 3]") == (1, -2, 3)


@pytest.mark.parametrize("parse, text, message, line, col", [
    (parse_gcl, "var x: int;\nx := y", "undeclared identifier 'y'", 2, 6),
    (parse_gcl, "var x: int;\nif x -> skip fi", "expected a bool expression, got int", 2, 4),
    (parse_gcl, "var x: int;\n  x := 1 +\n", "expected an expression, found 'end of input'", 3, 1),
    (parse_gcl, "var x: int;\nx := # note", "expected an expression, found 'end of input'", 2, 6),
    (parse_csp, "process P var x: int;\n  x := 1\nend\nprocess P end",
     "duplicate process name 'P'", 4, 9),
    (parse_par, "var x: int;\ncomponent x := true end", "cannot assign bool value to int target", 2, 11),
    (parse_value, "1,", "expected end of value, found ','", 1, 2),
])
def test_an_error_is_placed_by_parsing_once_more_on_the_positional_scan(
        monkeypatch, parse, text, message, line, col):
    scans = []

    def counted(text):
        scans.append(text)
        return scan(text)

    monkeypatch.setattr(gclab.parser, "scan", counted)
    with pytest.raises(SourceError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)
    assert scans == [text]


@pytest.mark.parametrize("text, message, line, col, parses", [
    # `tokenize` falls back to `scan`, which rejects the character
    ("x := 1 $ 2", "unexpected character '$'", 1, 8, 0),
    # `tokenize` falls back to `scan`, whose placed tokens the parse rejects
    ("var éx: int;\néx := y", "undeclared identifier 'y'", 2, 7, 1),
])
def test_an_error_placed_by_the_first_scan_is_not_placed_again(
        monkeypatch, text, message, line, col, parses):
    scans, parsers = [], []

    def counted(text):
        scans.append(text)
        return scan(text)

    class Counted(gclab.parser.Parser):
        def __init__(self, toks):
            parsers.append(toks)
            super().__init__(toks)

    monkeypatch.setattr(gclab.lexer, "scan", counted)
    monkeypatch.setattr(gclab.parser, "scan", counted)
    monkeypatch.setattr(gclab.parser, "Parser", Counted)
    with pytest.raises(SourceError) as err:
        parse_gcl(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)
    assert (len(scans), len(parsers)) == (1, parses)
