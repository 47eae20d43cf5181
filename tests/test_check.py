"""The static rules of `check`, reached both ways: through `parse_gcl`,
which places each error at a token, and through `check_program` on the
same fault built by hand, which reports the same message with no
position."""

import itertools
from collections import Counter

import pytest

import gclab.check
import gclab.parser
from gclab.check import check_program
from gclab.errors import CheckError
from gclab.fairness import FixpointInstance, chaotic_iteration_program
from gclab.parser import parse_csp, parse_gcl
from gclab.printer import render
from gclab.syntax import (
    FALSE, TRUE, ArrayRef, Assign, BinOp, Builtin, ChoiceAssign, Declaration,
    Do, GclProgram, GuardedCommand, If, IntLit, RandomAssign, Skip, UnaryOp,
    Var, seq,
)

X, Y = Declaration("x", "int"), Declaration("y", "int")
B = Declaration("b", "bool")
A = Declaration("a", "int[]", 0, 2)


def _if(guard):
    return If((GuardedCommand(guard, Skip()),))


def _set(targets, values):
    return Assign(tuple(targets), tuple(values))


# (text, message, line, col, the same fault built by hand or None when no
# tree can hold it)
CASES = [
    # a name is declared once and is not a builtin's
    ("var x: int; var x: int; skip", "duplicate declaration of 'x'", 1, 17,
     GclProgram((X, X), Skip())),
    ("var min: int; skip", "'min' is a builtin function name and cannot be declared",
     1, 5, GclProgram((Declaration("min", "int"),), Skip())),
    # every branch of check_declaration
    ("var a: int[3..1]; skip", "array 'a' needs bounds lo..hi with lo <= hi", 1, 5,
     GclProgram((Declaration("a", "int[]", 3, 1),), Skip())),
    ("var a: int[0..1048576]; skip",
     "array 'a' has 1048577 cells, more than the 1048576 allowed", 1, 5,
     GclProgram((Declaration("a", "int[]", 0, 1048576),), Skip())),
    ("var a: int[0..2] = [1, 2]; skip", "array 'a' initializer has 2 cells, expected 3",
     1, 5, GclProgram((Declaration("a", "int[]", 0, 2, (1, 2)),), Skip())),
    ("var a: int[0..2] = true; skip", "array 'a' initializer must be integer cells",
     1, 5, GclProgram((Declaration("a", "int[]", 0, 2, True),), Skip())),
    ("var x: int = true; skip", "'x': int initializer required", 1, 5,
     GclProgram((Declaration("x", "int", init=True),), Skip())),
    ("var x: int = [1, 2]; skip", "'x': int initializer required", 1, 5,
     GclProgram((Declaration("x", "int", init=(1, 2)),), Skip())),
    ("var b: bool = 1; skip", "'b': bool initializer required", 1, 5,
     GclProgram((Declaration("b", "bool", init=1),), Skip())),
    # operand types
    ("var a: int[0..2]; var x: int;\nx := a", "array 'a' used without an index", 2, 1,
     GclProgram((A, X), _set([Var("x")], [Var("a")]))),
    ("var x: int;\nx := x[0]", "'x' is a scalar, not an array", 2, 1,
     GclProgram((X,), _set([Var("x")], [ArrayRef("x", IntLit(0))]))),
    ("var a: int[0..2];\na[true] := 1", "index of 'a' must be an integer", 2, 1,
     GclProgram((A,), _set([ArrayRef("a", TRUE)], [IntLit(1)]))),
    ("var b: bool;\nif -b -> skip fi", "unary '-' needs an integer operand", 2, 4,
     GclProgram((B,), _if(UnaryOp("neg", Var("b"))))),
    ("var x: int;\nif not x -> skip fi", "'not' needs a boolean operand", 2, 4,
     GclProgram((X,), _if(UnaryOp("not", Var("x"))))),
    ("var x: int; var b: bool;\nx := x + b", "'+' needs integer operands", 2, 1,
     GclProgram((X, B), _set([Var("x")], [BinOp("+", Var("x"), Var("b"))]))),
    ("var b: bool;\nif b < 1 -> skip fi", "'<' compares integers", 2, 4,
     GclProgram((B,), _if(BinOp("<", Var("b"), IntLit(1))))),
    ("var x: int;\nif x = true -> skip fi", "'=' compares values of the same type", 2, 4,
     GclProgram((X,), _if(BinOp("=", Var("x"), TRUE)))),
    ("var x: int;\nif x and true -> skip fi", "'and' needs boolean operands", 2, 4,
     GclProgram((X,), _if(BinOp("and", Var("x"), TRUE)))),
    ("var x: int;\nx := min(true, 1)", "'min' needs integer arguments", 2, 1,
     GclProgram((X,), _set([Var("x")], [Builtin("min", (TRUE, IntLit(1)))]))),
    ("var x: int;\nx := a[0]", "undeclared identifier 'a'", 2, 6,
     GclProgram((X,), _set([Var("x")], [ArrayRef("a", IntLit(0))]))),
    # a guard is bool and a choice bound int
    ("var x: int;\nif x -> skip fi", "expected a bool expression, got int", 2, 4,
     GclProgram((X,), _if(Var("x")))),
    ("var x: int;\ndo x + 1 -> skip od", "expected a bool expression, got int", 2, 4,
     GclProgram((X,), Do((GuardedCommand(BinOp("+", Var("x"), IntLit(1)), Skip()),)))),
    ("var x: int;\nx := choice(true)", "expected an int expression, got bool", 2, 13,
     GclProgram((X,), ChoiceAssign("x", TRUE))),
    # the target of `?` and of `choice` is an integer scalar
    ("var b: bool;\nb := ?", "'b' must be an integer scalar", 2, 1,
     GclProgram((B,), RandomAssign("b"))),
    ("var a: int[0..2];\na := choice(2)", "'a' must be an integer scalar", 2, 1,
     GclProgram((A,), ChoiceAssign("a", IntLit(2)))),
    ("var x: int;\ny := ?", "undeclared identifier 'y'", 2, 1,
     GclProgram((X,), RandomAssign("y"))),
    ("var x: int; var y: int;\nx, y := ?", "'?' and choice assign to a single integer scalar",
     2, 1, None),
    ("var a: int[0..2];\na[0] := choice(2)",
     "'?' and choice assign to a single integer scalar", 2, 1, None),
    # a parallel assignment has as many values as targets, at distinct
    # locations, of matching types
    ("var x: int;\nskip; x := 1, 2", "1 target(s) but 2 value(s)", 2, 7,
     GclProgram((X,), seq([Skip(), _set([Var("x")], [IntLit(1), IntLit(2)])]))),
    ("var x: int; var y: int;\n  x, y := 1", "2 target(s) but 1 value(s)", 2, 3,
     GclProgram((X, Y), _set([Var("x"), Var("y")], [IntLit(1)]))),
    ("var x: int;\nx, x := 1, 2", "parallel assignment targets must be distinct locations",
     2, 1, GclProgram((X,), _set([Var("x"), Var("x")], [IntLit(1), IntLit(2)]))),
    ("var a: int[0..2];\na, a[0] := 1, 2",
     "parallel assignment targets must be distinct locations", 2, 1,
     GclProgram((A,), _set([Var("a"), ArrayRef("a", IntLit(0))], [IntLit(1), IntLit(2)]))),
    ("var a: int[0..2];\na[0], a[0] := 1, 2",
     "parallel assignment targets must be distinct locations", 2, 1,
     GclProgram((A,), _set([ArrayRef("a", IntLit(0))] * 2, [IntLit(1), IntLit(2)]))),
    ("var x: int;\nx := true", "cannot assign bool value to int target", 2, 1,
     GclProgram((X,), _set([Var("x")], [TRUE]))),
    ("var b: bool;\nb := 1 < 2 and 3", "'and' needs boolean operands", 2, 1,
     GclProgram((B,), _set([Var("b")], [BinOp("and", BinOp("<", IntLit(1), IntLit(2)),
                                                  IntLit(3))]))),
    ("var b: bool;\nb := false or false; b := 2", "cannot assign int value to bool target",
     2, 22, GclProgram((B,), seq([_set([Var("b")], [BinOp("or", FALSE, FALSE)]),
                                  _set([Var("b")], [IntLit(2)])]))),
]


@pytest.mark.parametrize("text, message, line, col, built", CASES,
                         ids=[c[1] + f"@{c[2]}:{c[3]}" for c in CASES])
def test_parse_and_check_program_report_the_same_fault(text, message, line, col, built):
    with pytest.raises(CheckError) as err:
        parse_gcl(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)
    if built is None:
        return
    with pytest.raises(CheckError) as err:
        check_program(built)
    assert (err.value.message, err.value.line, err.value.col) == (message, None, None)


@pytest.mark.parametrize("built, message", [
    (GclProgram((X,), _set([Var("x")], [Builtin("abs", (IntLit(1), IntLit(2)))])),
     "unknown builtin 'abs'"),
    (GclProgram((X,), _set([Var("x")], [Builtin("min", (IntLit(1),))])),
     "'min' takes exactly two arguments"),
    (GclProgram((X,), If(())), "alternative/repetitive command needs at least one guard"),
    (GclProgram((Declaration("r", "real"),), Skip()), "'r': unknown kind 'real'"),
    (GclProgram((X,), _if(Skip())), "unknown expression node Skip"),
    (GclProgram((X,), _set([IntLit(1)], [IntLit(2)])),
     "assignment target must be a variable or an array cell"),
    (GclProgram((X,), GuardedCommand(TRUE, Skip())), "unknown statement node GuardedCommand"),
], ids=["unknown-builtin", "one-argument-builtin", "empty-if", "unknown-kind",
        "unknown-expression-node", "literal-target", "unknown-statement-node"])
def test_check_program_rejects_trees_that_no_text_parses_to(built, message):
    with pytest.raises(CheckError) as err:
        check_program(built)
    assert (err.value.message, err.value.line, err.value.col) == (message, None, None)


# ---------------------------------------------------------------------------
# The parser's memo of typed expressions
# ---------------------------------------------------------------------------

def _chaotic_text(height: int = 2) -> str:
    """A chaotic-iteration program: its arms share one guard, and its
    dispatch tables share their point tests."""
    table = {p: tuple(min(v + 1, height) for v in p)
             for p in itertools.product(range(height + 1), repeat=2)}
    return render(chaotic_iteration_program(FixpointInstance.from_table(2, height, table)))


def test_a_parse_types_each_distinct_expression_once(monkeypatch):
    text = _chaotic_text()
    typed, asked = Counter(), Counter()
    worker, entry = gclab.check._type_of, gclab.check.type_of

    def count_typing(e, decls, known):
        typed[e] += 1
        return worker(e, decls, known)

    def count_asking(e, decls, known=None):
        asked[e] += 1
        return entry(e, decls, known)

    monkeypatch.setattr(gclab.check, "_type_of", count_typing)
    monkeypatch.setattr(gclab.check, "type_of", count_asking)
    for _ in range(2):  # each parse starts a memo of its own
        typed.clear()
        parse_gcl(text)
        assert set(typed.values()) == {1}
    assert sum(asked.values()) > 2 * len(typed)  # the memo answered the rest


def test_the_parser_calls_type_of_once_per_typed_position(monkeypatch):
    """Once per guard here: the memo lives inside `type_of`, so the parser
    makes the calls it made without one."""
    text = _chaotic_text()
    calls = []

    def counted(e, decls, known=None):
        calls.append(e)
        return gclab.check.type_of(e, decls, known)

    monkeypatch.setattr(gclab.parser, "type_of", counted)
    parse_gcl(text)
    assert len(calls) == text.count("->")


@pytest.mark.parametrize("parse, text, message, line, col", [
    (parse_gcl, "var x: int; var a: int[0..2];\nx := a[1] + 1;\nx := a[1] + true",
     "'+' needs integer operands", 3, 1),
    (parse_gcl, "var x: int; var a: int[0..2];\nif a[1] > 0 -> skip [] a[1] > 0 or a[1] -> skip fi",
     "'or' needs boolean operands", 2, 24),
    (parse_csp, "process P var x: int;\n  x := x + 1\nend\nprocess Q var y: int;\n  y := x + 1\nend\n",
     "undeclared identifier 'x'", 5, 8),
])
def test_a_typed_subtree_keeps_the_error_of_its_new_context(parse, text, message, line, col):
    with pytest.raises(CheckError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)
