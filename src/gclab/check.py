"""The static rules of the source languages, each written once: names,
declarations, types, and the targets and arity of assignments. The parsers
apply each rule where the construct it concerns is parsed, placing its
error at a token there; `check_program` applies them all to a built tree,
such as a transformation's output, with the same messages and no position.

`type_of` and `check_assign` take an optional memo from expression to
type. The parser passes one per parse (per process of a csp system, whose
declarations change), so an expression that hash-consing shares, such as
a guard repeated in every arm, is typed once; only successes enter it.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import CheckError
from .syntax import (
    BINARY, BUILTINS, ArrayRef, Assign, Await, BinOp, BoolLit, Builtin,
    ChoiceAssign, Declaration, Do, Expr, Fail, GclProgram, If, IfElse,
    IntLit, RandomAssign, Seq, Skip, Stmt, UnaryOp, Var, While, chain,
)

BUILTIN_NAMES = tuple(BUILTINS)

# what an ill-typed binary operator says, by (operand type, result type)
_MISTYPED = {
    ("int", "int"): "needs integer operands",
    ("int", "bool"): "compares integers",
    (None, "bool"): "compares values of the same type",
    ("bool", "bool"): "needs boolean operands",
}

DeclMap = Mapping[str, Declaration]

# the most cells an array declaration may have
MAX_ARRAY_CELLS = 1 << 20


def check_name(name: str, decls: DeclMap) -> None:
    """A name declared beside `decls`: new, and not a builtin's."""
    if name in decls:
        raise CheckError(f"duplicate declaration of '{name}'")
    if name in BUILTIN_NAMES:
        raise CheckError(f"'{name}' is a builtin function name and cannot be declared")


def declared(name: str, decls: DeclMap) -> Declaration:
    """The declaration of `name` in `decls`; an undeclared name is an error."""
    d = decls.get(name)
    if d is None:
        raise CheckError(f"undeclared identifier '{name}'")
    return d


def decl_map(decls: tuple[Declaration, ...]) -> dict[str, Declaration]:
    """Name -> declaration table; rejects duplicates and reserved names."""
    table: dict[str, Declaration] = {}
    for d in decls:
        check_name(d.name, table)
        table[d.name] = d
    return table


def check_declaration(d: Declaration) -> None:
    if d.is_array:
        if d.lo is None or d.hi is None or d.lo > d.hi:
            raise CheckError(f"array '{d.name}' needs bounds lo..hi with lo <= hi")
        size = d.hi - d.lo + 1
        if size > MAX_ARRAY_CELLS:
            raise CheckError(
                f"array '{d.name}' has {size} cells, more than the {MAX_ARRAY_CELLS} allowed")
        if d.init is not None:
            if isinstance(d.init, tuple):
                if len(d.init) != size:
                    raise CheckError(
                        f"array '{d.name}' initializer has {len(d.init)} cells, expected {size}")
            elif not isinstance(d.init, int) or isinstance(d.init, bool):
                raise CheckError(f"array '{d.name}' initializer must be integer cells")
    elif d.kind == "int":
        if d.init is not None and (isinstance(d.init, bool) or not isinstance(d.init, int)):
            raise CheckError(f"'{d.name}': int initializer required")
    elif d.kind == "bool":
        if d.init is not None and not isinstance(d.init, bool):
            raise CheckError(f"'{d.name}': bool initializer required")
    else:
        raise CheckError(f"'{d.name}': unknown kind {d.kind!r}")


def check_type(t: str, want: str) -> None:
    """A `t` expression where a `want` one belongs: a guard, a choice bound."""
    if t != want:
        article = "an" if want[0] in "aeiou" else "a"
        raise CheckError(f"expected {article} {want} expression, got {t}")


def type_of(e: Expr, decls: DeclMap, known: dict[Expr, str] | None = None) -> str:
    """Type of an expression: 'int' or 'bool'. Raises CheckError. `known`
    maps expressions already typed under `decls` to their types; it is
    read before typing any subexpression and gains each one typed."""
    if known is None:
        return _type_of(e, decls, None)
    t = known.get(e)
    if t is None:
        t = known[e] = _type_of(e, decls, known)
    return t


def _type_of(e: Expr, decls: DeclMap, known: dict[Expr, str] | None) -> str:
    if isinstance(e, IntLit):
        return "int"
    if isinstance(e, BoolLit):
        return "bool"
    if isinstance(e, Var):
        d = declared(e.name, decls)
        if d.is_array:
            raise CheckError(f"array '{e.name}' used without an index")
        return d.kind
    if isinstance(e, ArrayRef):
        if not declared(e.name, decls).is_array:
            raise CheckError(f"'{e.name}' is a scalar, not an array")
        if type_of(e.index, decls, known) != "int":
            raise CheckError(f"index of '{e.name}' must be an integer")
        return "int"
    if isinstance(e, UnaryOp):
        t = type_of(e.operand, decls, known)
        if e.op == "neg":
            if t != "int":
                raise CheckError("unary '-' needs an integer operand")
            return "int"
        if e.op == "not":
            if t != "bool":
                raise CheckError("'not' needs a boolean operand")
            return "bool"
        raise CheckError(f"unknown unary operator {e.op!r}")
    if isinstance(e, BinOp):
        first, pairs = chain(e)
        lt = type_of(first, decls, known)
        for op, right in pairs:
            rt = type_of(right, decls, known)
            row = BINARY.get(op)
            if row is None:
                raise CheckError(f"unknown operator {op!r}")
            if lt != rt or row.operand not in (None, lt):
                raise CheckError(f"'{op}' {_MISTYPED[row.operand, row.result]}")
            lt = row.result
        return lt
    if isinstance(e, Builtin):
        if e.func not in BUILTIN_NAMES:
            raise CheckError(f"unknown builtin '{e.func}'")
        if len(e.args) != 2:
            raise CheckError(f"'{e.func}' takes exactly two arguments")
        for a in e.args:
            if type_of(a, decls, known) != "int":
                raise CheckError(f"'{e.func}' needs integer arguments")
        return "int"
    raise CheckError(f"unknown expression node {type(e).__name__}")


def _target_key(t: Expr) -> tuple:
    """Syntactic identity of an assignment target; identical keys are
    rejected as statically aliased."""
    if isinstance(t, Var):
        return ("scalar", t.name)
    if isinstance(t, ArrayRef):
        return ("cell", t.name, t.index)
    raise CheckError("assignment target must be a variable or an array cell")


def check_assign(s: Assign, decls: DeclMap, known: dict[Expr, str] | None = None) -> None:
    """Arity, distinct targets and types of an assignment; `known` as for
    `type_of`."""
    targets = s.targets
    if not targets or len(targets) != len(s.values):
        raise CheckError(f"{len(targets)} target(s) but {len(s.values)} value(s)")
    if len(targets) == 1:  # nothing to alias: only the target's form is checked
        _target_key(targets[0])
    else:
        seen: set[tuple] = set()
        for t in targets:
            key = _target_key(t)
            if key in seen:
                raise CheckError("parallel assignment targets must be distinct locations")
            seen.add(key)
            # two scalar targets with the same name are caught above; an array
            # cell target also collides with itself only on an identical index
        names = {k[1] for k in seen if k[0] == "scalar"}
        for k in seen:
            if k[0] == "cell" and k[1] in names:
                raise CheckError("parallel assignment targets must be distinct locations")
    for t, v in zip(targets, s.values):
        tt = type_of(t, decls, known)
        vt = type_of(v, decls, known)
        if tt != vt:
            raise CheckError(f"cannot assign {vt} value to {tt} target")


def scalar_target(targets: Sequence[Expr], decls: DeclMap) -> str:
    """The one integer scalar that `x := ?` or `x := choice(t)` assigns."""
    if len(targets) != 1 or not isinstance(targets[0], Var):
        raise CheckError("'?' and choice assign to a single integer scalar")
    name = targets[0].name
    if declared(name, decls).kind != "int":
        raise CheckError(f"'{name}' must be an integer scalar")
    return name


def check_stmt(s: Stmt, decls: DeclMap) -> None:
    """Validate a guarded-commands statement; the parallel fragment's
    statements are rejected."""
    if isinstance(s, (Skip, Fail)):
        return
    if isinstance(s, Assign):
        check_assign(s, decls)
        return
    if isinstance(s, RandomAssign):
        scalar_target((Var(s.target),), decls)
        return
    if isinstance(s, ChoiceAssign):
        check_type(type_of(s.bound, decls), "int")
        scalar_target((Var(s.target),), decls)
        return
    if isinstance(s, Seq):
        for sub in s.stmts:
            check_stmt(sub, decls)
        return
    if isinstance(s, (If, Do)):
        if not s.arms:
            raise CheckError("alternative/repetitive command needs at least one guard")
        for arm in s.arms:
            check_type(type_of(arm.guard, decls), "bool")
            check_stmt(arm.body, decls)
        return
    if isinstance(s, IfElse):
        raise CheckError("if-then-else belongs to the parallel fragment only")
    if isinstance(s, While):
        raise CheckError("while belongs to the parallel fragment only")
    if isinstance(s, Await):
        raise CheckError("await belongs to the parallel fragment only")
    raise CheckError(f"unknown statement node {type(s).__name__}")


def check_program(p: GclProgram) -> None:
    """Full revalidation of a guarded-commands program."""
    table = decl_map(p.decls)
    for d in p.decls:
        check_declaration(d)
    check_stmt(p.body, table)
