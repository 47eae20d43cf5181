"""Expression evaluation as it was before `state.compile_expr` lowered
expressions to closures: a recursive walk that re-dispatches on the node
type at every node of every evaluation. Kept only as the reference for
`test_eval_reference.py`, the fairness trace tests and the BFS oracle of
`oracles.py`.

It spells out each operator's meaning itself, rather than reading the
`syntax.BINARY` and `syntax.BUILTINS` tables that the compiler reads, so
that a wrong row in those tables shows as a disagreement.
"""

from __future__ import annotations

from gclab.errors import EvalError
from gclab.state import State, Value
from gclab.syntax import ArrayRef, BinOp, BoolLit, Builtin, Expr, IntLit, UnaryOp, Var


def _div(l, r):
    if r == 0:
        raise EvalError("div by zero")
    return l // r  # floors toward negative infinity


def _mod(l, r):
    if r == 0:
        raise EvalError("mod by zero")
    return l % r


# `and` and `or` short-circuit, so they have no entry here
MEANING = {
    "=": lambda l, r: l == r,
    "!=": lambda l, r: l != r,
    "<": lambda l, r: l < r,
    "<=": lambda l, r: l <= r,
    ">": lambda l, r: l > r,
    ">=": lambda l, r: l >= r,
    "+": lambda l, r: l + r,
    "-": lambda l, r: l - r,
    "*": lambda l, r: l * r,
    "div": _div,
    "mod": _mod,
}

# as Python's `min` and `max` of two: the first argument on a tie
FUNCTIONS = {
    "min": lambda a, b: b if b < a else a,
    "max": lambda a, b: b if b > a else a,
}


def eval_expr(e: Expr, s: State) -> Value:
    """Total, side-effect-free evaluation of a type-checked expression.

    Raises EvalError on out-of-bounds array access and on div/mod by zero;
    the engines turn that into a failure outcome. `and` and `or`
    short-circuit and return an operand's own value.
    """
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, Var):  # type-checked: a scalar
        return s.values[s.layout.pos[e.name]]
    if isinstance(e, ArrayRef):
        pos = s.layout.pos[e.name]
        return s.values[pos][s.layout._offset(pos, eval_expr(e.index, s))]
    if isinstance(e, BinOp):
        op = e.op
        if op == "and":
            return eval_expr(e.left, s) and eval_expr(e.right, s)
        if op == "or":
            return eval_expr(e.left, s) or eval_expr(e.right, s)
        l = eval_expr(e.left, s)
        r = eval_expr(e.right, s)
        try:
            meaning = MEANING[op]
        except KeyError:
            raise EvalError(f"unknown operator {op!r}") from None
        return meaning(l, r)
    if isinstance(e, UnaryOp):
        v = eval_expr(e.operand, s)
        if e.op == "neg":
            return -v
        if e.op == "not":
            return not v
        raise EvalError(f"unknown unary operator {e.op!r}")
    if isinstance(e, Builtin):
        a = eval_expr(e.args[0], s)
        b = eval_expr(e.args[1], s)
        return FUNCTIONS[e.func](a, b)
    raise EvalError(f"cannot evaluate {type(e).__name__}")
