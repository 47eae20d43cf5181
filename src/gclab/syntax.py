"""Abstract syntax for the three source languages.

All nodes are frozen dataclasses built over tuples, so structural equality
and hashing come for free. The engines use them once per program point,
when they intern it (`engine.Points`); memoization and divergence
detection then compare points by identity, and the point's guards,
right-hand sides and bounds are compiled to closures
(`state.compile_expr`) the first time it is stepped, so no step walks
an expression tree. Nodes carry no source positions (the parser reports
positions at parse time), which keeps `parse(render(p)) == p` a plain
`==`.

Each binary operator's binding power, typing and meaning are one row of
`BINARY`; the parser, printer, checker and expression compiler all read
that row, so they agree by construction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

from .errors import EvalError


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True, slots=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class ArrayRef(Expr):
    name: str
    index: Expr


@dataclass(frozen=True, slots=True)
class UnaryOp(Expr):
    op: str  # 'neg' | 'not'
    operand: Expr


# Binding powers, loosest to tightest. A prefix `not` binds looser than
# the comparisons, so `not x < y` reads as `not (x < y)`; unary minus
# binds tighter than any binary operator.
OR_BP, AND_BP, NOT_BP, COMPARE_BP, ADD_BP, MUL_BP, NEG_BP = range(1, 8)


class Operator:
    """A binary operator. Operands of type `operand` (None: either type,
    but the same on both sides) give a `result`; `meaning` applies it to
    values, and is None for `and`/`or`, which compiled expressions
    short-circuit. Operators of power COMPARE_BP do not chain; the others
    associate to the left."""

    __slots__ = ("power", "operand", "result", "meaning")

    def __init__(self, power: int, operand: str | None, result: str,
                 meaning: Callable[[Any, Any], Any] | None):
        self.power, self.operand, self.result = power, operand, result
        self.meaning = meaning


def _partial(name: str, f: Callable[[int, int], int]) -> Callable[[int, int], int]:
    def apply(l: int, r: int) -> int:
        if r == 0:
            raise EvalError(f"{name} by zero")
        return f(l, r)
    return apply


# `div` and `mod` floor toward negative infinity (Python semantics)
BINARY = {
    "or": Operator(OR_BP, "bool", "bool", None),
    "and": Operator(AND_BP, "bool", "bool", None),
    "=": Operator(COMPARE_BP, None, "bool", operator.eq),
    "!=": Operator(COMPARE_BP, None, "bool", operator.ne),
    "<": Operator(COMPARE_BP, "int", "bool", operator.lt),
    "<=": Operator(COMPARE_BP, "int", "bool", operator.le),
    ">": Operator(COMPARE_BP, "int", "bool", operator.gt),
    ">=": Operator(COMPARE_BP, "int", "bool", operator.ge),
    "+": Operator(ADD_BP, "int", "int", operator.add),
    "-": Operator(ADD_BP, "int", "int", operator.sub),
    "*": Operator(MUL_BP, "int", "int", operator.mul),
    "div": Operator(MUL_BP, "int", "int", _partial("div", operator.floordiv)),
    "mod": Operator(MUL_BP, "int", "int", _partial("mod", operator.mod)),
}

# operators that fail on some operands: their right operand decides
PARTIAL = frozenset({"div", "mod"})

# builtin functions, each of two integers
BUILTINS = {"min": min, "max": max}


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Builtin(Expr):
    """Builtin call; only binary integer min/max exist."""

    func: str  # 'min' | 'max'
    args: tuple[Expr, ...]


TRUE = BoolLit(True)
FALSE = BoolLit(False)


def neg(e: Expr) -> Expr:
    return UnaryOp("neg", e)


def not_(e: Expr) -> Expr:
    return UnaryOp("not", e)


def conj(parts: list[Expr]) -> Expr:
    """Left-nested conjunction; empty conjunction is true."""
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = BinOp("and", out, p)
    return out


def disj(parts: list[Expr]) -> Expr:
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = BinOp("or", out, p)
    return out


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Skip(Stmt):
    pass


@dataclass(frozen=True, slots=True)
class Fail(Stmt):
    """Improper termination. `abort` and `fail` are synonyms; the keyword
    used in the source is kept so rendering round-trips."""

    keyword: str = "fail"


@dataclass(frozen=True, slots=True)
class Assign(Stmt):
    """Parallel assignment. Targets are Var or ArrayRef nodes; all right-hand
    sides and target indices are evaluated before any write."""

    targets: tuple[Expr, ...]
    values: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class RandomAssign(Stmt):
    """x := ?  (any natural number)."""

    target: str


@dataclass(frozen=True, slots=True)
class ChoiceAssign(Stmt):
    """x := choice(t)  (any integer 1..t; t < 1 fails)."""

    target: str
    bound: Expr


@dataclass(frozen=True, slots=True)
class Seq(Stmt):
    stmts: tuple[Stmt, ...]


@dataclass(frozen=True, slots=True)
class GuardedCommand:
    guard: Expr
    body: Stmt


@dataclass(frozen=True, slots=True)
class If(Stmt):
    arms: tuple[GuardedCommand, ...]


@dataclass(frozen=True, slots=True)
class Do(Stmt):
    arms: tuple[GuardedCommand, ...]


def seq(stmts: list[Stmt]) -> Stmt:
    """Smart sequence constructor: flattens nested Seqs, drops the wrapper
    for single statements, and turns the empty sequence into skip."""
    flat: list[Stmt] = []
    for s in stmts:
        if isinstance(s, Seq):
            flat.extend(s.stmts)
        else:
            flat.append(s)
    if not flat:
        return Skip()
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))


# Statements specific to the shared-variable parallel fragment. They never
# appear in GCL programs; the engine rejects them.

@dataclass(frozen=True, slots=True)
class IfElse(Stmt):
    cond: Expr
    then_branch: Stmt
    else_branch: Stmt


@dataclass(frozen=True, slots=True)
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass(frozen=True, slots=True)
class Await(Stmt):
    cond: Expr


# ---------------------------------------------------------------------------
# Declarations and programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Declaration:
    """`var name: int` / `var name: bool` / `var name: int[lo..hi]`.

    For arrays the optional initializer is either a full cell list or a
    single value broadcast to every cell.
    """

    name: str
    kind: str  # 'int' | 'bool' | 'int[]'
    lo: int | None = None
    hi: int | None = None
    init: int | bool | tuple[int, ...] | None = None

    @property
    def is_array(self) -> bool:
        return self.kind == "int[]"


@dataclass(frozen=True, slots=True)
class GclProgram:
    decls: tuple[Declaration, ...]
    body: Stmt


# ---------------------------------------------------------------------------
# CSP fragment
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Input:
    """`PEER ? x` : receive into scalar x."""

    peer: str
    target: str


@dataclass(frozen=True, slots=True)
class Output:
    """`PEER ! e` : offer value of e."""

    peer: str
    expr: Expr


IoCommand = Input | Output


@dataclass(frozen=True, slots=True)
class ExtGuard:
    """Extended guard `B ; io -> body` of a process main loop."""

    cond: Expr
    io: IoCommand
    body: Stmt


@dataclass(frozen=True, slots=True)
class CspProcess:
    name: str
    decls: tuple[Declaration, ...]
    init: Stmt
    loop: tuple[ExtGuard, ...]


@dataclass(frozen=True, slots=True)
class CspSystem:
    processes: tuple[CspProcess, ...]

    def all_decls(self) -> tuple[Declaration, ...]:
        out: list[Declaration] = []
        for p in self.processes:
            out.extend(p.decls)
        return tuple(out)


# ---------------------------------------------------------------------------
# Shared-variable parallel fragment
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ParSystem:
    decls: tuple[Declaration, ...]
    init: Stmt
    components: tuple[Stmt, ...]
    epilogue: Stmt


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

def expr_names(e: Expr, acc: set[str]) -> None:
    if isinstance(e, Var):
        acc.add(e.name)
    elif isinstance(e, ArrayRef):
        acc.add(e.name)
        expr_names(e.index, acc)
    elif isinstance(e, UnaryOp):
        expr_names(e.operand, acc)
    elif isinstance(e, BinOp):
        expr_names(e.left, acc)
        expr_names(e.right, acc)
    elif isinstance(e, Builtin):
        for a in e.args:
            expr_names(a, acc)


def stmt_names(s: Stmt, acc: set[str]) -> None:
    if isinstance(s, Assign):
        for t in s.targets:
            expr_names(t, acc)
        for v in s.values:
            expr_names(v, acc)
    elif isinstance(s, RandomAssign):
        acc.add(s.target)
    elif isinstance(s, ChoiceAssign):
        acc.add(s.target)
        expr_names(s.bound, acc)
    elif isinstance(s, Seq):
        for sub in s.stmts:
            stmt_names(sub, acc)
    elif isinstance(s, (If, Do)):
        for arm in s.arms:
            expr_names(arm.guard, acc)
            stmt_names(arm.body, acc)
    elif isinstance(s, IfElse):
        expr_names(s.cond, acc)
        stmt_names(s.then_branch, acc)
        stmt_names(s.else_branch, acc)
    elif isinstance(s, While):
        expr_names(s.cond, acc)
        stmt_names(s.body, acc)
    elif isinstance(s, Await):
        expr_names(s.cond, acc)


def program_names(p: GclProgram) -> set[str]:
    """Every identifier occurring in declarations or the body."""
    acc = {d.name for d in p.decls}
    stmt_names(p.body, acc)
    return acc
