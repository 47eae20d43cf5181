import pytest
from hypothesis import given, settings, strategies as st

from gclab.check import check_program, type_of
from gclab.errors import CheckError, EvalError
from gclab.fairness import transform_wf
from gclab.parser import parse_csp, parse_gcl, parse_par
from gclab.printer import render, render_csp, render_expr, render_par, render_stmt
from gclab.state import eval_expr, initial_state
from gclab.syntax import (
    ArrayRef, Assign, BinOp, BoolLit, Builtin, Declaration, GclProgram,
    GuardedCommand, IntLit, Skip, UnaryOp, Var,
)

from conftest import CORPUS, corpus_text

GCL_FILES = sorted(p.name for p in CORPUS.glob("*.gcl"))
CSP_FILES = sorted(p.name for p in CORPUS.glob("*.csp"))
PAR_FILES = sorted(p.name for p in CORPUS.glob("*.par"))


@pytest.mark.parametrize("name", GCL_FILES)
def test_gcl_round_trip(name):
    p = parse_gcl(corpus_text(name))
    assert parse_gcl(render(p)) == p


@pytest.mark.parametrize("name", CSP_FILES)
def test_csp_round_trip(name):
    s = parse_csp(corpus_text(name))
    assert parse_csp(render_csp(s)) == s


@pytest.mark.parametrize("name", PAR_FILES)
def test_par_round_trip(name):
    s = parse_par(corpus_text(name))
    assert parse_par(render_par(s)) == s


def test_transform_output_reparses_and_rechecks():
    p = parse_gcl(corpus_text("goon.gcl"))
    t = transform_wf(p)
    check_program(t)
    again = parse_gcl(render(t))
    assert again == t
    check_program(again)


@pytest.mark.parametrize("render_node", [render_expr, render_stmt])
@pytest.mark.parametrize("thing", [1, None, GuardedCommand(BoolLit(True), Skip())])
def test_rendering_something_that_is_no_node_of_its_kind(render_node, thing):
    with pytest.raises(ValueError) as err:
        render_node(thing)
    assert str(err.value) == f"cannot render {type(thing).__name__}"


def test_guard_order_preserved():
    src = "var x: int;\nif x > 0 -> skip [] x < 5 -> skip [] x = 2 -> skip fi"
    p = parse_gcl(src)
    guards = [render_expr(arm.guard) for arm in p.body.arms]
    assert guards == ["x > 0", "x < 5", "x = 2"]


# ---------------------------------------------------------------------------
# Expression round trips over generated trees
# ---------------------------------------------------------------------------

_INT_DECLS = (Declaration("x", "int"), Declaration("y", "int"),
              Declaration("flag", "bool"), Declaration("a", "int[]", 0, 3))


def int_exprs(depth):
    if depth == 0:
        return st.one_of(
            st.integers(min_value=-99, max_value=99).map(IntLit),
            st.sampled_from([Var("x"), Var("y")]),
        )
    sub = int_exprs(depth - 1)
    return st.one_of(
        sub,
        st.tuples(st.sampled_from(["+", "-", "*", "div", "mod"]), sub, sub)
          .map(lambda t: BinOp(t[0], t[1], t[2])),
        sub.map(lambda e: UnaryOp("neg", e)),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub)
          .map(lambda t: Builtin(t[0], (t[1], t[2]))),
        sub.map(lambda e: ArrayRef("a", e)),
    )


def bool_exprs(depth):
    ints = int_exprs(depth)
    base = st.one_of(
        st.booleans().map(BoolLit),
        st.just(Var("flag")),
        st.tuples(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), ints, ints)
          .map(lambda t: BinOp(t[0], t[1], t[2])),
    )
    if depth == 0:
        return base
    sub = bool_exprs(depth - 1)
    return st.one_of(
        base,
        st.tuples(st.sampled_from(["and", "or"]), sub, sub)
          .map(lambda t: BinOp(t[0], t[1], t[2])),
        sub.map(lambda e: UnaryOp("not", e)),
    )


@settings(max_examples=300, deadline=None)
@given(bool_exprs(3))
def test_expression_render_parse_identity(expr):
    prog = GclProgram(_INT_DECLS + (Declaration("b", "bool"),),
                      Assign((Var("b"),), (expr,)))
    text = render(prog)
    assert parse_gcl(text) == prog


@settings(max_examples=300, deadline=None)
@given(int_exprs(4))
def test_int_expression_render_parse_identity(expr):
    prog = GclProgram(_INT_DECLS, Assign((Var("x"),), (expr,)))
    assert parse_gcl(render(prog)) == prog


# ---------------------------------------------------------------------------
# Every operator: its type error, and round trips of every nesting
# ---------------------------------------------------------------------------

# operator -> (operand type, None meaning either but the same on both
# sides; result type; message for an ill-typed use), written out here so
# that the checker's derived messages are pinned literally
_OPERATORS = {
    "+": ("int", "int", "'+' needs integer operands"),
    "-": ("int", "int", "'-' needs integer operands"),
    "*": ("int", "int", "'*' needs integer operands"),
    "div": ("int", "int", "'div' needs integer operands"),
    "mod": ("int", "int", "'mod' needs integer operands"),
    "<": ("int", "bool", "'<' compares integers"),
    "<=": ("int", "bool", "'<=' compares integers"),
    ">": ("int", "bool", "'>' compares integers"),
    ">=": ("int", "bool", "'>=' compares integers"),
    "=": (None, "bool", "'=' compares values of the same type"),
    "!=": (None, "bool", "'!=' compares values of the same type"),
    "and": ("bool", "bool", "'and' needs boolean operands"),
    "or": ("bool", "bool", "'or' needs boolean operands"),
}
_LEAF = {"int": ("x", "y"), "bool": ("p", "q")}
_OP_DECLS = (Declaration("x", "int"), Declaration("y", "int"),
             Declaration("p", "bool"), Declaration("q", "bool"))
_OP_HEADER = "var x: int; var y: int; var p: bool; var q: bool;\n"


def _type_error(expr_text: str) -> tuple[str, int, int]:
    with pytest.raises(CheckError) as err:
        parse_gcl(_OP_HEADER + f"if {expr_text} -> skip fi")
    return err.value.message, err.value.line, err.value.col


@pytest.mark.parametrize("op", sorted(_OPERATORS))
def test_binary_operator_type_errors(op):
    operand, _, message = _OPERATORS[op]
    for lt in ("int", "bool"):
        for rt in ("int", "bool"):
            text = f"{_LEAF[lt][0]} {op} {_LEAF[rt][1]}"
            if lt == rt and operand in (None, lt):
                parse_gcl(_OP_HEADER + f"if ({text}) = ({text}) -> skip fi")
            else:
                assert _type_error(text) == (message, 2, 4)


def test_prefix_and_builtin_type_errors():
    assert _type_error("-p") == ("unary '-' needs an integer operand", 2, 4)
    assert _type_error("not x") == ("'not' needs a boolean operand", 2, 4)
    assert _type_error("min(x, p) = 1") == ("'min' needs integer arguments", 2, 4)
    assert _type_error("max(p, x) = 1") == ("'max' needs integer arguments", 2, 4)
    decls = {d.name: d for d in _OP_DECLS}
    with pytest.raises(CheckError, match=r"^unknown operator '\^'$"):
        type_of(BinOp("^", Var("x"), Var("y")), decls)
    with pytest.raises(CheckError, match=r"^unknown unary operator '~'$"):
        type_of(UnaryOp("~", Var("x")), decls)
    s = initial_state(_OP_DECLS)
    with pytest.raises(EvalError, match=r"^unknown operator '\^'$"):
        eval_expr(BinOp("^", Var("x"), Var("y")), s)
    with pytest.raises(EvalError, match=r"^unknown unary operator '~'$"):
        eval_expr(UnaryOp("~", Var("x")), s)


@pytest.mark.parametrize("outer", sorted(_OPERATORS))
def test_every_operator_pairing_round_trips(outer):
    """`outer` over each binary operator, nested on the left and on the
    right, wherever that is well typed."""
    want, result, _ = _OPERATORS[outer]
    target = Var(_LEAF[result][0])
    pairings = 0
    for inner, (operand, inner_result, _) in sorted(_OPERATORS.items()):
        if want not in (None, inner_result):
            continue
        leaf = Var(_LEAF[inner_result][1])
        for t in (operand,) if operand else ("int", "bool"):
            nested = BinOp(inner, Var(_LEAF[t][0]), Var(_LEAF[t][1]))
            for e in (BinOp(outer, nested, leaf), BinOp(outer, leaf, nested)):
                prog = GclProgram(_OP_DECLS, Assign((target,), (e,)))
                assert parse_gcl(render(prog)) == prog, render_expr(e)
                pairings += 1
    assert pairings >= 2 * 5


def test_long_mixed_additive_run_round_trips():
    """3,000 terms of `+` and `-` in one run, some of them parenthesized
    differences that must stay parenthesized."""
    e = Var("x")
    for k in range(1, 3000):
        operand = BinOp("-", Var("y"), IntLit(k)) if k % 7 == 0 else IntLit(k)
        e = BinOp("-" if k % 3 else "+", e, operand)
    prog = GclProgram(_INT_DECLS, Assign((Var("x"),), (e,)))
    text = render(prog)
    assert text.count("(y - ") == 2999 // 7
    assert parse_gcl(text) == prog


def test_bool_initializer_round_trips():
    p = parse_gcl("var b: bool = true; var c: bool = false;\nb := c")
    text = render(p)
    assert "var b: bool = true;" in text and "var c: bool = false;" in text
    assert parse_gcl(text) == p
