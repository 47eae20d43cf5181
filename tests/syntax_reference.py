"""The syntax nodes as frozen dataclasses, as `gclab.syntax` defined them
before its nodes became hash-consed: the reference that
`test_syntax_reference.py` compares the interned nodes against
(reference equality against node identity, and repr byte for byte)."""

from __future__ import annotations

from dataclasses import dataclass


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
