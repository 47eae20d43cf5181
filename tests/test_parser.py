import re
import sys
import weakref

import pytest

from gclab import parser, syntax
from gclab.check import MAX_ARRAY_CELLS, check_program
from gclab.csp import run_csp
from gclab.engine import Terminated, explore_demonic
from gclab.errors import CheckError, ParseError
from gclab.par import run_par_direct
from gclab.parser import MAX_NESTING, parse_csp, parse_gcl, parse_par
from gclab.printer import render, render_csp, render_par
from gclab.syntax import (
    FALSE, TRUE, Assign, Await, ChoiceAssign, Declaration, Do, GclProgram,
    GuardedCommand, If, IfElse, Input, IntLit, Output, RandomAssign, Seq,
    Skip, Var, While,
)

from conftest import corpus_text
from test_engine import _gone_without_the_cycle_collector


def test_minimal_program():
    p = parse_gcl("var x: int; x := 1")
    assert len(p.decls) == 1
    assert p.decls[0] == Declaration("x", "int")
    assert p.body == Assign((Var("x"),), (IntLit(1),))


def test_euclid_shape():
    p = parse_gcl(corpus_text("euclid.gcl"))
    assert isinstance(p.body, Do)
    assert len(p.body.arms) == 2


def test_unterminated_fi_names_expected_token():
    with pytest.raises(ParseError) as err:
        parse_gcl("var x: int; if x > 0 -> skip if")
    assert "fi" in str(err.value)


def test_missing_arrow():
    with pytest.raises(ParseError) as err:
        parse_gcl("var x: int; if x > 0 skip fi")
    assert "->" in str(err.value)


def test_undeclared_identifier_with_location():
    with pytest.raises(CheckError) as err:
        parse_gcl("var x: int;\nx := y + 1")
    assert "undeclared" in str(err.value) and "y" in str(err.value)
    assert err.value.line == 2


def test_duplicate_declaration():
    with pytest.raises(CheckError) as err:
        parse_gcl("var x: int; var x: bool; skip")
    assert "duplicate" in str(err.value)


def test_type_error_bool_arith():
    with pytest.raises(CheckError) as err:
        parse_gcl("var b: bool; var x: int; x := b + 1")
    assert "integer" in str(err.value)


def test_guard_must_be_boolean():
    with pytest.raises(CheckError):
        parse_gcl("var x: int; if x -> skip fi")


def test_array_declaration_and_access():
    p = parse_gcl("var a: int[0..7] = [1,2,3,4,5,6,7,8]; var i: int; i := a[3]")
    assert p.decls[0].lo == 0 and p.decls[0].hi == 7
    assert p.decls[0].init == (1, 2, 3, 4, 5, 6, 7, 8)


def test_bad_array_bounds():
    with pytest.raises(CheckError):
        parse_gcl("var a: int[5..2]; skip")


def test_array_size_is_capped():
    p = parse_gcl(f"var a: int[1..{MAX_ARRAY_CELLS}]; a[1] := 1")
    assert p.decls[0].hi - p.decls[0].lo + 1 == MAX_ARRAY_CELLS == 2 ** 20
    with pytest.raises(CheckError, match=(
            r"^line 2, col 5: array 'b' has 1048577 cells, more than the 1048576 allowed$")):
        parse_gcl(f"var x: int;\nvar b: int[-1..{MAX_ARRAY_CELLS - 1}]; skip")
    with pytest.raises(CheckError):
        check_program(GclProgram((Declaration("c", "int[]", 0, 2 ** 20),), Skip()))


def test_array_initializer_length_checked():
    with pytest.raises(CheckError):
        parse_gcl("var a: int[0..2] = [1, 2]; skip")


def test_scalar_use_of_array_rejected():
    with pytest.raises(CheckError):
        parse_gcl("var a: int[0..2]; var x: int; x := a")


def test_parallel_assignment_arity():
    with pytest.raises(CheckError):
        parse_gcl("var x: int; var y: int; x, y := 1")


def test_statically_aliased_targets_rejected():
    with pytest.raises(CheckError):
        parse_gcl("var x: int; x, x := 1, 2")
    with pytest.raises(CheckError):
        parse_gcl("var a: int[0..3]; var i: int; a[i], a[i] := 1, 2")
    # distinct syntactic indices are allowed (runtime may still fail)
    parse_gcl("var a: int[0..3]; var i: int; var j: int; a[i], a[j] := 1, 2")


def test_random_assign_targets_int_scalar():
    p = parse_gcl("var x: int; x := ?")
    assert p.body == RandomAssign("x")
    with pytest.raises(CheckError):
        parse_gcl("var b: bool; b := ?")


def test_choice_assign():
    p = parse_gcl("var x: int; x := choice(3 + 4)")
    assert isinstance(p.body, ChoiceAssign)
    with pytest.raises(CheckError):
        parse_gcl("var x: int; var b: bool; x := choice(b)")


def test_min_max_not_declarable():
    with pytest.raises(CheckError):
        parse_gcl("var min: int; skip")


def test_precedence_mul_before_add():
    p = parse_gcl("var x: int; x := 1 + 2 * 3")
    rhs = p.body.values[0]
    assert rhs.op == "+" and rhs.right.op == "*"


def test_precedence_not_below_comparison():
    # not binds looser than comparisons: not x < y == not (x < y)
    p = parse_gcl("var x: int; var y: int; var b: bool; b := not x < y")
    rhs = p.body.values[0]
    assert rhs.op == "not" and rhs.operand.op == "<"


def test_comments_ignored():
    p = parse_gcl("# hello\nvar x: int; # trailing\nx := 1 # end")
    assert isinstance(p.body, Assign)


# ---------------------------------------------------------------------------
# CSP
# ---------------------------------------------------------------------------

def test_sfr_parses_to_three_processes():
    sysm = parse_csp(corpus_text("sfr.csp"))
    assert [p.name for p in sysm.processes] == ["SENDER", "FILTER", "RECEIVER"]
    assert len(sysm.processes[1].loop) == 2
    filt = sysm.processes[1]
    assert isinstance(filt.loop[0].io, Input)
    assert isinstance(filt.loop[1].io, Output)


def test_unknown_peer():
    src = """
    process LONE
      var x: int;
      do true ; SENDER ? x -> skip od
    end
    """
    with pytest.raises(CheckError) as err:
        parse_csp(src)
    assert "unknown peer" in str(err.value)


def test_variable_disjointness():
    src = """
    process A
      var x: int;
      do true ; B ? x -> skip od
    end
    process B
      var x: int;
      do true ; A ! x -> skip od
    end
    """
    with pytest.raises(CheckError) as err:
        parse_csp(src)
    assert "disjoint" in str(err.value)


def test_io_in_body_rejected():
    src = """
    process A
      var x: int;
      do true ; B ? x -> B ! 1 od
    end
    process B
      var y: int;
      do true ; A ! y -> skip od
    end
    """
    with pytest.raises(ParseError) as err:
        parse_csp(src)
    assert "only in the guards" in str(err.value)


def test_io_in_init_rejected():
    src = """
    process A
      var x: int;
      B ? x;
      do true ; B ? x -> skip od
    end
    process B
      var y: int;
      do true ; A ! y -> skip od
    end
    """
    with pytest.raises(ParseError):
        parse_csp(src)


def test_communication_loop_must_be_last():
    src = """
    process A
      var x: int;
      do true ; B ? x -> skip od;
      x := 1
    end
    process B
      var y: int;
      do true ; A ! y -> skip od
    end
    """
    with pytest.raises(ParseError) as err:
        parse_csp(src)
    assert "final statement" in str(err.value)


def test_plain_do_loop_allowed_in_init():
    src = """
    process A
      var x: int;
      do x < 3 -> x := x + 1 od;
      do x > 0 ; B ! x -> x := x - 1 od
    end
    process B
      var y: int;
      var n: int;
      do n != 3 ; A ? y -> n := n + 1 od
    end
    """
    sysm = parse_csp(src)
    assert isinstance(sysm.processes[0].init, Do)
    assert len(sysm.processes[0].loop) == 1


def test_process_cannot_talk_to_itself():
    src = """
    process A
      var x: int;
      do true ; A ? x -> skip od
    end
    """
    with pytest.raises(CheckError):
        parse_csp(src)


_PEER_B = "process B\n  var z: int;\n  do true ; A ! z -> skip od\nend\n"


@pytest.mark.parametrize("src,cls,message,line,col", [
    ("process A\n  var x: int;\n  do true ; B ? x -> skip od\nend\n"
     "process A\n  var y: int;\n  skip\nend\n",
     CheckError, "duplicate process name 'A'", 5, 9),
    ("", ParseError, "a system needs at least one process", 1, 1),
    ("process A\n  var x: int;\n  do true ; B ? y -> skip od\nend\n" + _PEER_B,
     CheckError, "undeclared identifier 'y'", 3, 17),
    ("process A\n  var a: int[0..1];\n  do true ; B ? a -> skip od\nend\n" + _PEER_B,
     CheckError, "an input target must be a scalar", 3, 17),
    ("process A\n  var x: int;\n  do true ; B x -> skip od\nend\n" + _PEER_B,
     ParseError, "expected '!' or '?' in the i/o command", 3, 15),
    ("process A\n  var x: int;\n  do x < 1 y ; B ! 1 -> skip od\nend\n" + _PEER_B,
     ParseError, "expected ';' and an i/o command after the boolean guard part, found 'y'",
     3, 12),
    ("process A\n  var x: int;\n  do true ; B ? x -> skip\nend\n" + _PEER_B,
     ParseError, "expected '[]' or 'od', found 'end'", 4, 1),
    ("process A\n  var x: int;\n  do true ; C ? x -> skip od\nend\n" + _PEER_B,
     CheckError, "unknown peer process 'C'", 3, 13),
    ("process A\n  var x: int;\n  do true ; A ? x -> skip od\nend\n" + _PEER_B,
     CheckError, "process 'A' cannot communicate with itself", 3, 13),
    ("process A\n  var x: int;\n  do true ; B ? x -> skip od;\n  x := 1\nend\n" + _PEER_B,
     ParseError, "the communication loop must be the final statement of the process", 3, 29),
    ("process A\n  var x: int;\n  do true ; B ? x -> skip od\nend\n"
     "process B\n  var x: int;\n  do true ; A ! x -> skip od\nend\n",
     CheckError, "variable 'x' already declared in process A; process variables must be disjoint",
     6, 7),
], ids=["duplicate-process", "empty-system", "undeclared-input-target",
        "array-input-target", "io-without-direction", "junk-after-guard-part",
        "loop-without-od", "unknown-peer", "self-communication", "loop-not-final",
        "variable-in-two-processes"])
def test_csp_error_positions(src, cls, message, line, col):
    with pytest.raises(cls) as err:
        parse_csp(src)
    assert type(err.value) is cls
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


@pytest.mark.parametrize("src, message, line, col", [
    ("var x: int;\nx := min + 1", "builtin 'min' used without arguments", 2, 6),
    ("var x: int;\nif x > 0 ; P ! x -> skip fi",
     "i/o commands are allowed only in the guards of a process main loop", 2, 10),
    ("var x: int;\ndo x > 0 ; P ! x -> skip od",
     "i/o commands are allowed only in the guards of a process main loop", 2, 10),
], ids=["builtin-without-arguments", "io-after-if-guard", "io-after-do-guard"])
def test_gcl_error_positions(src, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_gcl(src)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


def test_csp_name_declared_in_an_earlier_process_is_undeclared_in_a_later_one():
    """The parse's leaf table outlives each process's declarations: a name
    that process A declares and uses is still undeclared in process B, as
    an operand and as a target."""
    head = "process A\n  var x: int;\n  x := x + 1\nend\nprocess B\n  var y: int;\n"
    for stmt, col in (("y := x", 8), ("x := y", 3)):
        with pytest.raises(CheckError) as err:
            parse_csp(f"{head}  {stmt}\nend\n")
        assert (err.value.message, err.value.line, err.value.col) == (
            "undeclared identifier 'x'", 7, col)


# ---------------------------------------------------------------------------
# Parallel fragment
# ---------------------------------------------------------------------------

def test_zerosearch_parses():
    sysm = parse_par(corpus_text("zerosearch.par"))
    assert len(sysm.components) == 2
    assert not isinstance(sysm.init, type(None))


def test_single_while_component():
    sysm = parse_par("var x: int;\ncomponent while true do skip od end")
    assert len(sysm.components) == 1


def test_gcl_do_loop_rejected_in_component():
    with pytest.raises(ParseError) as err:
        parse_par("var x: int;\ncomponent do x > 0 -> skip od end")
    assert "while" in str(err.value)


def test_guarded_if_rejected_in_component():
    with pytest.raises(ParseError):
        parse_par("var x: int;\ncomponent if x > 0 -> skip fi end")


def test_await_only_in_components():
    with pytest.raises(ParseError):
        parse_gcl("var x: int; await x > 0")


# ---------------------------------------------------------------------------
# Lexical classes and the nesting limit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("src, col, char", [
    ("var x: int;\nx := \u00b2", 6, "\u00b2"),     # superscript two
    ("var x: int;\nx := 1\u0663", 7, "\u0663"),    # Arabic-Indic three
])
def test_non_ascii_digit_is_unexpected_character(src, col, char):
    with pytest.raises(ParseError) as err:
        parse_gcl(src)
    assert (err.value.message, err.value.line, err.value.col) == (
        f"unexpected character {char!r}", 2, col)


def test_identifier_character_classes():
    p = parse_gcl("var _x\u00e9\u0663: int; var \u00e9t\u00e9: int; _x\u00e9\u0663 := 1")
    assert [d.name for d in p.decls] == ["_x\u00e9\u0663", "\u00e9t\u00e9"]


def test_trailing_comment_keeps_its_column_for_end_of_input():
    with pytest.raises(ParseError) as err:
        parse_gcl("var x: int;\nx :=   # no value")
    assert (err.value.line, err.value.col) == (2, 8)


_DECLS = "var x: int; var b: bool; var a: int[0..1] = [1, 0];\n"

# shape: (text with n levels, regex of the tokens that open a level, the
# variable assigned and its value at MAX_NESTING levels)
_NESTINGS = {
    "parens": (lambda n: "x := " + "(" * n + "1" + ")" * n, r"\(", ("x", 1)),
    "negation": (lambda n: "x := " + "-(" * (n // 2) + "-" * (n % 2) + "x" + ")" * (n // 2),
                 r"[-(]", ("x", 0)),
    "not": (lambda n: "b := " + "not " * n + "true", r"not", ("b", MAX_NESTING % 2 == 0)),
    "index": (lambda n: "x := " + "a[" * n + "1" + "]" * n, r"\[", ("x", 1 - MAX_NESTING % 2)),
    "builtin": (lambda n: "x := " + "min(" * n + "1" + ", 2)" * n, r"\(", ("x", 1)),
}


@pytest.mark.parametrize("shape", sorted(_NESTINGS))
def test_nesting_at_the_limit_parses_checks_renders_and_runs(shape):
    text, _, (name, value) = _NESTINGS[shape]
    p = parse_gcl(_DECLS + text(MAX_NESTING))
    check_program(p)
    assert parse_gcl(render(p)) == p
    [outcome] = explore_demonic(p).outcomes
    assert isinstance(outcome, Terminated) and outcome.state.scalar(name) == value


@pytest.mark.parametrize("levels", [MAX_NESTING + 1, 10_000])
@pytest.mark.parametrize("shape", sorted(_NESTINGS))
def test_nesting_beyond_the_limit_is_a_positioned_parse_error(shape, levels):
    text, opener, _ = _NESTINGS[shape]
    line = text(levels)
    with pytest.raises(ParseError) as err:
        parse_gcl(_DECLS + line)
    crossing = list(re.finditer(opener, line))[MAX_NESTING]
    assert (err.value.message, err.value.line, err.value.col) == (
        f"expression nested deeper than {MAX_NESTING} levels", 2, crossing.start() + 1)


# shape: (parser, renderer, runner, first line, second line with n
# statement levels, regex of the tokens that open a level)
_STATEMENT_NESTINGS = {
    "if": (parse_gcl, render, explore_demonic, "var x: int;",
           lambda n: "if true -> " * n + "x := 1" + " fi" * n, r"\bif\b"),
    "do": (parse_gcl, render, explore_demonic, "var x: int;",
           lambda n: "do x = 0 -> " * n + "x := 1" + " od" * n, r"\bdo\b"),
    "par": (parse_par, render_par, run_par_direct, "var x: int;",
            lambda n: ("component " + "if true then while x = 0 do " * (n // 2)
                       + "x := 1" + " od fi" * (n // 2) + " end"),
            r"\b(if|while)\b"),
    "csp": (parse_csp, render_csp, run_csp,
            "process B var y: int; do y = 0; A ? y -> skip od end",
            lambda n: ("process A var k: int; do k = 0; B ! 1 -> "
                       + "if true -> " * (n - 1) + "k := 1" + " fi" * (n - 1) + " od end"),
            r"\b(do|if)\b"),
}


@pytest.mark.parametrize("shape", sorted(_STATEMENT_NESTINGS))
def test_statement_nesting_at_the_limit_parses_renders_and_runs(shape):
    parse, render_text, run, first, second, _ = _STATEMENT_NESTINGS[shape]
    p = parse(f"{first}\n{second(MAX_NESTING)}")
    assert parse(render_text(p)) == p
    outcomes = run(p).outcomes
    assert outcomes and all(isinstance(o, Terminated) for o in outcomes)


@pytest.mark.parametrize("levels", [MAX_NESTING + 1, 10_000])
@pytest.mark.parametrize("shape", sorted(_STATEMENT_NESTINGS))
def test_statement_nesting_beyond_the_limit_is_a_positioned_parse_error(shape, levels):
    parse, _, _, first, second, opener = _STATEMENT_NESTINGS[shape]
    line = second(levels + levels % 2)  # even: the par shape nests in pairs
    with pytest.raises(ParseError) as err:
        parse(f"{first}\n{line}")
    crossing = list(re.finditer(opener, line))[MAX_NESTING]
    assert (err.value.message, err.value.line, err.value.col) == (
        f"statement nested deeper than {MAX_NESTING} levels", 2, crossing.start() + 1)


def test_over_long_integer_literal_is_a_positioned_parse_error():
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no limit on the digits of an integer literal")
    limit = sys.get_int_max_str_digits()
    digits = "1" * (limit + 1)
    for line, col in ((f"x := {digits}", 6), (f"x := -{digits}", 7),
                      (f"var y: int = {digits}; skip", 14)):
        with pytest.raises(ParseError) as err:
            parse_gcl(f"var x: int;\n{line}")
        assert (err.value.message, err.value.line, err.value.col) == (
            f"integer literal longer than {limit} digits", 2, col)


def test_each_distinct_name_and_literal_text_is_constructed_once_per_parse(monkeypatch):
    built = []

    def counting(node):
        def build(value):
            built.append((node.__name__, value))
            return node(value)
        return build

    monkeypatch.setattr(parser, "Var", counting(Var))
    monkeypatch.setattr(parser, "IntLit", counting(IntLit))
    p = parse_gcl("var x: int; var y: int; var a: int[0..3];\n"
                  "x, y := x + 1, y - 1;\n"
                  "do x < 3 and a[x + 1] >= -1 -> x, a[1] := x + 1, - 1 + 01 od")
    # `01` is a text of its own; `-1` and `- 1` are one negative literal
    assert sorted(built) == [("IntLit", -1), ("IntLit", 1), ("IntLit", 1),
                             ("IntLit", 3), ("Var", "x"), ("Var", "y")]
    assert sum(IntLit(1) is leaf for leaf in syntax.nodes(p)) > 4
    # each parse has a table of its own
    built.clear()
    parse_gcl("var x: int; x := x + 1")
    assert sorted(built) == [("IntLit", 1), ("Var", "x")]


def test_leaf_table_keeps_negative_literals_and_literal_errors_apart():
    p = parse_gcl("var x: int; var y: int; x, y := 5, -5; x, y := -5, 5")
    first, second = p.body.stmts
    assert first.values == (IntLit(5), IntLit(-5)) == second.values[::-1]
    assert IntLit(5) is not IntLit(-5)
    if not hasattr(sys, "get_int_max_str_digits"):
        return
    limit = sys.get_int_max_str_digits()
    digits = "1" * (limit + 1)
    for line in (f"x := 1 + -1 + {digits}", f"x := 1 + -1 + -{digits}"):
        with pytest.raises(ParseError) as err:
            parse_gcl(f"var x: int; x := {digits[:9]} + 1;\n{line}")
        assert (err.value.message, err.value.line) == (
            f"integer literal longer than {limit} digits", 2)


def test_parsed_leaves_die_with_their_program():
    # every name and literal is unique to the test, so nothing else keeps
    # the leaves alive
    p = parse_gcl("var leaf_u: int;\n"
                  "do leaf_u < 314159 -> leaf_u := leaf_u + 271828 od")
    arm = p.body.arms[0]
    refs = [weakref.ref(x) for x in (p, arm.guard.left, arm.guard.right,
                                      arm.body.values[0].right)]
    del arm
    assert all(r() is not None for r in refs)
    names = {"p": p}
    del p
    assert _gone_without_the_cycle_collector(names.clear, refs)


@pytest.mark.parametrize("stmt, message", [
    (IfElse(TRUE, Skip(), Skip()), "if-then-else belongs to the parallel fragment only"),
    (While(FALSE, Skip()), "while belongs to the parallel fragment only"),
    (Await(TRUE), "await belongs to the parallel fragment only"),
])
def test_check_program_rejects_parallel_statements(stmt, message):
    nested = If((GuardedCommand(TRUE, Seq((Skip(), stmt))),))
    with pytest.raises(CheckError) as err:
        check_program(GclProgram((), nested))
    assert err.value.message == message
