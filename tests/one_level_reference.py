"""The one-level prover as it was before it decided comparisons with the
meanings in `syntax.BINARY`: hand-written relation sets over {lt, eq, gt},
a flip table for swapped operands and integer ranges for `x op c`. Kept
only as the reference for `test_one_level_reference.py`.
"""

from __future__ import annotations

from gclab.printer import render_stmt_inline
from gclab.syntax import (
    BinOp, BoolLit, ChoiceAssign, Do, Expr, GclProgram, If, IntLit,
    RandomAssign, Seq, Skip, Stmt, UnaryOp, seq,
)


# Relation sets over {lt, eq, gt} for comparison operators.
_REL = {"<": frozenset({"lt"}), "<=": frozenset({"lt", "eq"}),
        "=": frozenset({"eq"}), "!=": frozenset({"lt", "gt"}),
        ">": frozenset({"gt"}), ">=": frozenset({"gt", "eq"})}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


def _conj_atoms(e: Expr) -> list[Expr]:
    if isinstance(e, BinOp) and e.op == "and":
        return _conj_atoms(e.left) + _conj_atoms(e.right)
    return [e]


def _int_range(op: str, c: int):
    """Solution set of `x op c` over the integers as (lo, hi) with None
    for unbounded ends, or ('ne', c) for the punctured line."""
    if op == "=":
        return (c, c)
    if op == "<":
        return (None, c - 1)
    if op == "<=":
        return (None, c)
    if op == ">":
        return (c + 1, None)
    if op == ">=":
        return (c, None)
    return ("ne", c)


def _ranges_disjoint(a, b) -> bool:
    if a[0] == "ne" and b[0] == "ne":
        return False
    if a[0] == "ne":
        a, b = b, a
    if b[0] == "ne":
        # {x != c} misses only c: disjoint iff the other set is exactly {c}
        return a == (b[1], b[1])
    alo, ahi = a
    blo, bhi = b
    if ahi is not None and blo is not None and ahi < blo:
        return True
    if bhi is not None and alo is not None and bhi < alo:
        return True
    return False


def _atoms_exclusive(a: Expr, b: Expr) -> bool:
    """Conservative proof that two atoms cannot hold simultaneously."""
    if isinstance(a, BoolLit) and not a.value:
        return True
    if isinstance(b, BoolLit) and not b.value:
        return True
    if isinstance(a, UnaryOp) and a.op == "not" and a.operand == b:
        return True
    if isinstance(b, UnaryOp) and b.op == "not" and b.operand == a:
        return True
    if not (isinstance(a, BinOp) and a.op in _REL and
            isinstance(b, BinOp) and b.op in _REL):
        return False
    a_op, b_op = a.op, b.op
    if (a.left, a.right) == (b.left, b.right):
        pass
    elif (a.left, a.right) == (b.right, b.left):
        b_op = _FLIP[b_op]
    else:
        # same left operand compared against two integer constants
        if (a.left == b.left and isinstance(a.right, IntLit)
                and isinstance(b.right, IntLit)):
            return _ranges_disjoint(_int_range(a_op, a.right.value),
                                    _int_range(b_op, b.right.value))
        return False
    return not (_REL[a_op] & _REL[b_op])


def _guards_exclusive(g1: Expr, g2: Expr) -> bool:
    atoms1 = _conj_atoms(g1)
    atoms2 = _conj_atoms(g2)
    return any(_atoms_exclusive(a, b) for a in atoms1 for b in atoms2)


def _deterministic(s: Stmt, where: str) -> str | None:
    """None when syntactically deterministic, else a diagnostic."""
    if isinstance(s, (RandomAssign, ChoiceAssign)):
        return f"{where}: '{render_stmt_inline(s)}' is a nondeterministic assignment"
    if isinstance(s, Seq):
        for sub in s.stmts:
            bad = _deterministic(sub, where)
            if bad:
                return bad
        return None
    if isinstance(s, (If, Do)):
        arms = s.arms
        for i in range(len(arms)):
            for j in range(i + 1, len(arms)):
                if not _guards_exclusive(arms[i].guard, arms[j].guard):
                    return (f"{where}: guards {i + 1} and {j + 1} of "
                            f"'{render_stmt_inline(s)[:60]}' may overlap")
        for arm in arms:
            bad = _deterministic(arm.body, where)
            if bad:
                return bad
        return None
    return None


def is_one_level_nondeterministic(p: GclProgram) -> tuple[bool, str | None]:
    """Does the program have the init-plus-single-loop shape with
    deterministic init and loop bodies? Returns (verdict, diagnostic)."""
    body = p.body
    if isinstance(body, Do):
        init: Stmt = Skip()
        loop = body
    elif isinstance(body, Seq) and body.stmts and isinstance(body.stmts[-1], Do):
        init = seq(list(body.stmts[:-1]))
        loop = body.stmts[-1]
    else:
        return False, "no top-level repetitive command in final position"
    bad = _deterministic(init, "initialization")
    if bad:
        return False, bad
    for k, arm in enumerate(loop.arms):
        bad = _deterministic(arm.body, f"body of guard {k + 1}")
        if bad:
            return False, bad
    return True, None

