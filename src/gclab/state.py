"""Program states and total expression evaluation.

Values are unbounded Python ints and bools. A State is an immutable,
hashable snapshot of every declared variable; arrays are tuples of cells.
Scalars default to 0/false unless the declaration carries an initializer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CheckError, EvalError
from .syntax import (
    ArrayRef, BinOp, BoolLit, Builtin, Declaration, Expr, IntLit,
    UnaryOp, Var,
)

Value = int | bool


class Layout:
    """Variable layout derived from a declaration list.

    States built over the same layout store their scalars and arrays
    positionally (sorted by name), so equality and hashing never touch
    the declarations themselves. `canonical_order` lists every variable
    as (is_array, position, name) in name order, scalars and arrays
    merged, for `State.canonical`.
    """

    __slots__ = ("scalar_names", "scalar_kinds", "scalar_pos",
                 "array_names", "array_bounds", "array_pos", "decls",
                 "canonical_order")

    def __init__(self, decls: tuple[Declaration, ...]):
        self.decls = decls
        scalars = sorted((d for d in decls if not d.is_array), key=lambda d: d.name)
        arrays = sorted((d for d in decls if d.is_array), key=lambda d: d.name)
        self.scalar_names = tuple(d.name for d in scalars)
        self.scalar_kinds = tuple(d.kind for d in scalars)
        self.array_names = tuple(d.name for d in arrays)
        self.array_bounds = tuple((d.lo, d.hi) for d in arrays)
        self.scalar_pos = {n: i for i, n in enumerate(self.scalar_names)}
        self.array_pos = {n: i for i, n in enumerate(self.array_names)}
        self.canonical_order = tuple(sorted(
            [(False, i, n) for i, n in enumerate(self.scalar_names)]
            + [(True, i, n) for i, n in enumerate(self.array_names)],
            key=lambda entry: entry[2]))

    def initial_state(self, overrides: dict[str, Value | tuple[int, ...]] | None = None) -> "State":
        """Default state: declaration initializers where present, else
        0/false. `overrides` replaces initializers by name."""
        by_name = {d.name: d for d in self.decls}
        scalars = []
        for name, kind in zip(self.scalar_names, self.scalar_kinds):
            v: Value = False if kind == "bool" else 0
            d = by_name[name]
            if d.init is not None:
                v = d.init  # type: ignore[assignment]
            scalars.append(v)
        arrays = []
        for name, (lo, hi) in zip(self.array_names, self.array_bounds):
            size = hi - lo + 1
            d = by_name[name]
            if d.init is None:
                cells = (0,) * size
            elif isinstance(d.init, tuple):
                cells = d.init
            else:
                cells = (d.init,) * size
            arrays.append(cells)
        st = State(self, tuple(scalars), tuple(arrays))
        if overrides:
            st = st.with_bindings(overrides)
        return st


@dataclass(frozen=True, slots=True)
class State:
    layout: Layout = field(compare=False, repr=False)
    scalars: tuple[Value, ...]
    arrays: tuple[tuple[int, ...], ...]

    # -- reads ------------------------------------------------------------

    def scalar(self, name: str) -> Value:
        return self.scalars[self.layout.scalar_pos[name]]

    def cell(self, name: str, index: int) -> int:
        pos = self.layout.array_pos[name]
        lo, hi = self.layout.array_bounds[pos]
        if index < lo or index > hi:
            raise EvalError(f"index {index} outside '{name}[{lo}..{hi}]'")
        return self.arrays[pos][index - lo]

    def array(self, name: str) -> tuple[int, ...]:
        return self.arrays[self.layout.array_pos[name]]

    # -- writes (persistent) ----------------------------------------------

    def set_scalar(self, name: str, value: Value) -> "State":
        pos = self.layout.scalar_pos[name]
        scalars = self.scalars[:pos] + (value,) + self.scalars[pos + 1:]
        return State(self.layout, scalars, self.arrays)

    def set_cell(self, name: str, index: int, value: int) -> "State":
        pos = self.layout.array_pos[name]
        lo, hi = self.layout.array_bounds[pos]
        if index < lo or index > hi:
            raise EvalError(f"index {index} outside '{name}[{lo}..{hi}]'")
        cells = self.arrays[pos]
        cells = cells[:index - lo] + (value,) + cells[index - lo + 1:]
        arrays = self.arrays[:pos] + (cells,) + self.arrays[pos + 1:]
        return State(self.layout, scalars=self.scalars, arrays=arrays)

    def with_bindings(self, bindings: dict[str, Value | tuple[int, ...]]) -> "State":
        st = self
        for name, v in bindings.items():
            if name in self.layout.scalar_pos:
                kind = self.layout.scalar_kinds[self.layout.scalar_pos[name]]
                if kind == "bool" and not isinstance(v, bool):
                    raise CheckError(f"binding for '{name}' must be a bool")
                if kind == "int" and (isinstance(v, bool) or not isinstance(v, int)):
                    raise CheckError(f"binding for '{name}' must be an int")
                st = st.set_scalar(name, v)
            elif name in self.layout.array_pos:
                pos = self.layout.array_pos[name]
                lo, hi = self.layout.array_bounds[pos]
                if not isinstance(v, tuple) or len(v) != hi - lo + 1:
                    raise CheckError(
                        f"binding for array '{name}' needs exactly {hi - lo + 1} cells")
                arrays = st.arrays[:pos] + (v,) + st.arrays[pos + 1:]
                st = State(st.layout, st.scalars, arrays)
            else:
                raise CheckError(f"binding for undeclared variable '{name}'")
        return st

    # -- canonical form -----------------------------------------------------

    def canonical(self) -> str:
        """Deterministic one-line serialization: variables in lexicographic
        name order, arrays as bracketed cell lists."""
        parts = []
        for is_array, pos, name in self.layout.canonical_order:
            if is_array:
                cells = self.arrays[pos]
                parts.append(f"{name}=[{','.join(str(c) for c in cells)}]")
            else:
                parts.append(f"{name}={_fmt(self.scalars[pos])}")
        return " ".join(parts)

    def restricted(self, names: set[str]) -> tuple:
        """Hashable projection onto a set of variable names (used to hide
        bookkeeping variables when comparing outcome sets)."""
        parts = []
        for name in sorted(names):
            if name in self.layout.scalar_pos:
                parts.append((name, self.scalar(name)))
            elif name in self.layout.array_pos:
                parts.append((name, self.array(name)))
            else:
                raise CheckError(f"cannot project onto undeclared '{name}'")
        return tuple(parts)


def _fmt(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def initial_state(decls: tuple[Declaration, ...],
                  overrides: dict[str, Value | tuple[int, ...]] | None = None) -> State:
    return Layout(decls).initial_state(overrides)


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

def eval_expr(e: Expr, s: State) -> Value:
    """Total, side-effect-free evaluation of a type-checked expression.

    Raises EvalError on out-of-bounds array access and on div/mod by zero;
    the engines turn that into a failure outcome. `div` and `mod` floor
    toward negative infinity (Python semantics), fixed so oracles agree.
    """
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, Var):
        return s.scalar(e.name)
    if isinstance(e, ArrayRef):
        idx = eval_expr(e.index, s)
        return s.cell(e.name, idx)
    if isinstance(e, BinOp):
        op = e.op
        if op == "and":
            return eval_expr(e.left, s) and eval_expr(e.right, s)
        if op == "or":
            return eval_expr(e.left, s) or eval_expr(e.right, s)
        l = eval_expr(e.left, s)
        r = eval_expr(e.right, s)
        if op == "+":
            return l + r
        if op == "-":
            return l - r
        if op == "*":
            return l * r
        if op == "div":
            if r == 0:
                raise EvalError("div by zero")
            return l // r
        if op == "mod":
            if r == 0:
                raise EvalError("mod by zero")
            return l % r
        if op == "=":
            return l == r
        if op == "!=":
            return l != r
        if op == "<":
            return l < r
        if op == "<=":
            return l <= r
        if op == ">":
            return l > r
        if op == ">=":
            return l >= r
        raise EvalError(f"unknown operator {op!r}")
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
        return min(a, b) if e.func == "min" else max(a, b)
    raise EvalError(f"cannot evaluate {type(e).__name__}")


def resolve_target(t: Expr, s: State) -> tuple[str, int | None]:
    """Resolve an assignment target to a location: (name, None) for a
    scalar, (name, index) for an array cell. Index evaluation may raise."""
    if isinstance(t, Var):
        return (t.name, None)
    if isinstance(t, ArrayRef):
        idx = eval_expr(t.index, s)
        pos = s.layout.array_pos[t.name]
        lo, hi = s.layout.array_bounds[pos]
        if idx < lo or idx > hi:
            raise EvalError(f"index {idx} outside '{t.name}[{lo}..{hi}]'")
        return (t.name, idx)
    raise EvalError("bad assignment target")


def apply_parallel_assign(targets: tuple[Expr, ...], values: tuple[Value, ...],
                          s: State) -> State:
    """Write already-evaluated values to targets simultaneously.

    All reads (values AND target indices) happen against `s` before any
    write. Two targets resolving to the same location is an aliasing
    failure, not a left-to-right overwrite.
    """
    locs = [resolve_target(t, s) for t in targets]
    if len(set(locs)) != len(locs):
        raise EvalError("parallel assignment targets collide at runtime",
                        reason="aliasing")
    out = s
    for (name, idx), v in zip(locs, values):
        if idx is None:
            out = out.set_scalar(name, v)
        else:
            out = out.set_cell(name, idx, v)
    return out
