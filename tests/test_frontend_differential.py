"""The regex lexer and the precedence-climbing expression parser against
the per-character tokenizer and the one-method-per-level expression parser
they replaced (`frontend_reference.py`).

Every text must give the same tokens, and the same tree or the same error
class, message, line and column, with these intended exceptions: a
non-ASCII digit is now an unexpected character (it used to lex as, or
inside, an integer); expressions stop at `MAX_NESTING` levels; and a digit
run is a 'number' token, no longer of the keyword `int`'s kind, so the
keyword where an integer belongs and a digit run where a type belongs are
positioned ParseErrors (they were a ValueError and a declaration).
"""

import importlib.util
import pathlib
import sys
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gclab.errors import SourceError
from gclab.lexer import KEYWORDS, scan, tokenize
from gclab.parser import parse_csp, parse_gcl, parse_par
from gclab.printer import render
from gclab.syntax import (
    ArrayRef, Assign, BinOp, BoolLit, Builtin, Declaration, GclProgram,
    IntLit, UnaryOp, Var,
)

import frontend_reference as ref
from conftest import CORPUS

PARSERS = {"gcl": parse_gcl, "csp": parse_csp, "par": parse_par}


def _outcome(f, text):
    try:
        return ("ok", f(text))
    except SourceError as e:
        return (type(e).__name__, e.message, e.line, e.col)
    except ValueError as e:  # the reference's int() of a non-ASCII digit run or of 'int'
        return ("ValueError", str(e))


def _reference_outcome(f, text):
    with ref.reference_parser():
        return _outcome(f, text)


_TYPE_EXPECTED = "expected 'int' or 'bool', found "


def _intended(text, new, old) -> str | None:
    """The name of the intended departure from the reference `old` that
    `new` shows, or None when it shows none."""
    if new[0] == "ok" and isinstance(new[1], list):  # tokens
        renamed = [t._replace(kind="int") if t.kind == "number" else t for t in new[1]]
        return "number token" if old == ("ok", renamed) else None
    if new[0] != "ParseError":
        return None
    message, line, col = new[1:]
    if message.startswith("expression nested deeper than"):
        return "nesting"
    c = text.split("\n")[line - 1][col - 1]
    if message == f"unexpected character {c!r}" and c.isdigit() and not c.isascii():
        return "non-ASCII digit"
    if (old == ("ValueError", "invalid literal for int() with base 10: 'int'")
            and message in ("expected an expression, found 'int'",
                            "expected an integer, found 'int'")):
        return "int keyword"
    if (old[0] == "ok" and message.startswith(_TYPE_EXPECTED)
            and message[len(_TYPE_EXPECTED) + 1:-1].isdigit()):
        return "number type"
    return None


def _compare_tokens(text) -> set[str]:
    """Assert agreement on the tokens of `text`, positions included, and
    that `tokenize` gives `scan`'s kinds and texts or its error; the
    departures shown."""
    new, old = _outcome(scan, text), _outcome(ref.tokenize, text)
    fast = _outcome(tokenize, text)
    if new[0] == "ok":
        assert fast[0] == "ok" and [t[:2] for t in fast[1]] == [t[:2] for t in new[1]], text
    else:
        assert fast == new, text
    if new == old:
        return set()
    departure = _intended(text, new, old)
    assert departure, (text, new, old)
    return {departure}


def _compare_parses(text, kinds=PARSERS) -> set[str]:
    """Assert agreement of the `kinds` parsers on `text`; return the
    departures shown."""
    departures = set()
    for kind in kinds:
        new = _outcome(PARSERS[kind], text)
        old = _reference_outcome(PARSERS[kind], text)
        if new != old:
            departure = _intended(text, new, old)
            assert departure, (kind, text, new, old)
            departures.add(departure)
    return departures


def _load_bench_gen():
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(CORPUS.iterdir()), ids=lambda p: p.name)
def test_corpus_matches_reference(path):
    text = path.read_text(encoding="utf-8")
    kinds = [path.suffix[1:]] if path.suffix[1:] in PARSERS else []
    assert _compare_tokens(text) | _compare_parses(text, kinds) <= {"number token"}


def test_bench_program_texts_match_reference():
    gen = _load_bench_gen()
    texts = set()
    for workload in ("explore", "sweep", "frontend"):
        for seed in (1, 7):
            for item in gen.WORKLOADS[workload](seed):
                if "text" in item.args:
                    texts.add(item.args["text"])
                texts.update(item.args.get("files", {}).values())
    assert len(texts) > 200
    for text in sorted(texts):
        assert _compare_tokens(text) | _compare_parses(text) <= {"number token"}


# ---------------------------------------------------------------------------
# Seeded token soups
# ---------------------------------------------------------------------------

_HEADERS = {
    "gcl": "var x: int; var b: bool; var a: int[0..3];\n",
    "csp": "process P var x: int; var b: bool;\n",
    "par": "var x: int; var b: bool;\ncomponent ",
}
_STARTS = ("", "x := ", "if ", "do ", "b := ", "a[", "x, y := ", "while ")
_OPERANDS = ("x", "y", "b", "a", "a[", "0", "1", "42", "007", "true", "false",
             "min(", "max(", "q", "_", "__t", "x9", "int")
_OPERATORS = ("or", "and", "not", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*",
              "div", "mod", "(", ")", "[", "]", ",", "-", "not", "(")
_OTHER = tuple(sorted(KEYWORDS)) + (
    ":=", "->", "..", "[]", ";", ":", "?", "!", ".", "$", "#", "# note\n")
_NON_ASCII = ("²", "٣", "1٣", "x٣", "é", "é1", "三", "½", "x²", "Ⅻ", " ", "ß")
_GAPS = (" ", " ", " ", "", "", "\n", "\t", "\r\n", "  ")


def _soup(rng: Random) -> tuple[str, str, str]:
    """(language, declarations, random tokens)"""
    kind = rng.choice(("gcl", "gcl", "gcl", "csp", "par"))
    header = _HEADERS[kind] if rng.random() < 0.8 else ""
    out = [rng.choice(_STARTS)]
    non_ascii = rng.random() < 0.3
    for _ in range(rng.randint(1, 10)):
        roll = rng.random()
        if roll < 0.45:
            out.append(rng.choice(_OPERANDS))
        elif roll < 0.85:
            out.append(rng.choice(_OPERATORS))
        elif roll < 0.95 or not non_ascii:
            out.append(rng.choice(_OTHER))
        else:
            out.append(rng.choice(_NON_ASCII))
        out.append(rng.choice(_GAPS))
    if rng.random() < 0.5:
        out.append(rng.choice(("od", "fi", "-> skip fi", "-> skip od", "end", "")))
    return kind, header, "".join(out)


def test_token_soups_match_reference():
    rng = Random(20230)
    seen = set()
    for _ in range(50_000):
        kind, header, body = _soup(rng)
        seen |= _compare_tokens(body) | _compare_parses(header + body, (kind,))
    assert {"non-ASCII digit", "int keyword"} <= seen  # the soups reach both


def test_character_classes_match_reference():
    """Every code point below U+0800 and every 31st above it, as the start
    of a token and after the first letter of an identifier."""
    points = list(range(0x800)) + list(range(0x800, 0x110000, 31))
    for c in map(chr, points):
        if c == "\n" or "\ud800" <= c <= "\udfff":
            continue
        for text in (c + "x", "x" + c + "1"):
            assert _compare_tokens(text) <= {"number token", "non-ASCII digit"}


# ---------------------------------------------------------------------------
# Rendering round trip over trees of every precedence level
# ---------------------------------------------------------------------------

_DECLS = (Declaration("x", "int"), Declaration("y", "int"), Declaration("b", "bool"),
          Declaration("a", "int[]", 0, 3))

_int_leaf = st.one_of(st.integers(-20, 20).map(IntLit), st.sampled_from([Var("x"), Var("y")]))
_bool_leaf = st.one_of(st.booleans().map(BoolLit), st.just(Var("b")))


def _grow(pair):
    ints, bools = pair
    return (
        st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "div", "mod"]), ints, ints)
              .map(lambda t: BinOp(*t)),
            ints.map(lambda e: UnaryOp("neg", e)),
            st.tuples(st.sampled_from(["min", "max"]), ints, ints)
              .map(lambda t: Builtin(t[0], t[1:])),
            ints.map(lambda e: ArrayRef("a", e)),
        ),
        st.one_of(
            st.tuples(st.sampled_from(["or", "and"]), bools, bools)
              .map(lambda t: BinOp(*t)),
            st.tuples(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), ints, ints)
              .map(lambda t: BinOp(*t)),
            bools.map(lambda e: UnaryOp("not", e)),
        ),
    )


def _typed_exprs(depth):
    pair = (_int_leaf, _bool_leaf)
    for _ in range(depth):
        grown = _grow(pair)
        pair = (st.one_of(pair[0], grown[0]), st.one_of(pair[1], grown[1]))
    return pair[1]


@settings(max_examples=400, deadline=None)
@given(_typed_exprs(5))
def test_every_precedence_level_round_trips(expr):
    prog = GclProgram(_DECLS, Assign((Var("b"),), (expr,)))
    text = render(prog)
    assert parse_gcl(text) == prog
    assert _reference_outcome(parse_gcl, text) == ("ok", prog)
