"""Program states and total expression evaluation.

Values are unbounded Python ints and bools. A State is an immutable,
hashable snapshot of every declared variable: one tuple holding one
value per variable in name order, a scalar or the tuple of an array's
cells. Only this module knows that layout and writes a state's text.
Scalars default to 0/false and array cells to 0, unless the declaration
carries an initializer.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field

from .errors import CheckError, EvalError
from .syntax import (
    BINARY, BUILTINS, ArrayRef, Assign, BinOp, BoolLit, Builtin, Declaration,
    Expr, IntLit, UnaryOp, Var,
)

Value = int | bool


class Layout:
    """Variable layout derived from a declaration list.

    `decls` are the declarations sorted by name; `names`, `kinds` and
    `bounds` ((lo, hi) of an array, None for a scalar) follow that order,
    and `pos` maps a name to its position. States over one layout store
    their values at those positions, so equality and hashing never touch
    the declarations themselves.
    """

    __slots__ = ("decls", "names", "kinds", "bounds", "pos")

    def __init__(self, decls: tuple[Declaration, ...]):
        self.decls = tuple(sorted(decls, key=lambda d: d.name))
        self.names = tuple(d.name for d in self.decls)
        self.kinds = tuple(d.kind for d in self.decls)
        self.bounds = tuple((d.lo, d.hi) if d.is_array else None for d in self.decls)
        self.pos = {n: i for i, n in enumerate(self.names)}

    def _at(self, name: str, array: bool) -> int:
        """Position of `name`; KeyError unless it is declared with that kind."""
        pos = self.pos[name]
        if (self.bounds[pos] is not None) != array:
            raise KeyError(name)
        return pos

    def _offset(self, pos: int, index: int) -> int:
        """Offset of cell `index` in the array at `pos`."""
        lo, hi = self.bounds[pos]
        if index < lo or index > hi:
            raise EvalError(
                f"index {format_value(index)} outside '{self.names[pos]}[{lo}..{hi}]'")
        return index - lo


@dataclass(frozen=True, slots=True)
class State:
    layout: Layout = field(compare=False, repr=False)
    values: tuple[Value | tuple[int, ...], ...]

    # -- reads (KeyError unless `name` is declared with that kind) ---------

    def scalar(self, name: str) -> Value:
        return self.values[self.layout._at(name, False)]

    def cell(self, name: str, index: int) -> int:
        pos = self.layout._at(name, True)
        return self.values[pos][self.layout._offset(pos, index)]

    def array(self, name: str) -> tuple[int, ...]:
        return self.values[self.layout._at(name, True)]

    # -- writes (persistent; KeyError likewise) ------------------------------

    def set_scalar(self, name: str, value: Value) -> "State":
        return self._put(self.layout._at(name, False), value)

    def set_cell(self, name: str, index: int, value: int) -> "State":
        pos = self.layout._at(name, True)
        off = self.layout._offset(pos, index)
        cells = self.values[pos]
        return self._put(pos, cells[:off] + (value,) + cells[off + 1:])

    def _put(self, pos: int, value: Value | tuple[int, ...]) -> "State":
        return State(self.layout, self.values[:pos] + (value,) + self.values[pos + 1:])

    def with_bindings(self, bindings: dict[str, Value | tuple[int, ...]]) -> "State":
        layout = self.layout
        values = list(self.values)
        for name, v in bindings.items():
            pos = layout.pos.get(name)
            if pos is None:
                raise CheckError(f"binding for undeclared variable '{name}'")
            kind, old = layout.kinds[pos], self.values[pos]
            if kind == "bool" and not isinstance(v, bool):
                raise CheckError(f"binding for '{name}' must be a bool")
            if kind == "int" and (isinstance(v, bool) or not isinstance(v, int)):
                raise CheckError(f"binding for '{name}' must be an int")
            if kind == "int[]" and not (isinstance(v, tuple) and len(v) == len(old)):
                raise CheckError(f"binding for array '{name}' needs exactly {len(old)} cells")
            values[pos] = v
        return State(layout, tuple(values))

    # -- canonical form -----------------------------------------------------

    def canonical(self, hidden: Collection[str] = ()) -> str:
        """Deterministic one-line serialization: variables in lexicographic
        name order, arrays as bracketed cell lists, and `name=*` for each
        name in `hidden`."""
        parts = []
        for name, v in zip(self.layout.names, self.values):
            if name in hidden:
                parts.append(f"{name}=*")
            elif type(v) is tuple:
                parts.append(f"{name}=[{','.join(map(format_value, v))}]")
            else:
                parts.append(f"{name}={format_value(v)}")
        return " ".join(parts)

    def restricted(self, names: set[str]) -> tuple:
        """Hashable projection onto a set of variable names (used to hide
        bookkeeping variables when comparing outcome sets)."""
        parts = []
        for name in sorted(names):
            pos = self.layout.pos.get(name)
            if pos is None:
                raise CheckError(f"cannot project onto undeclared '{name}'")
            parts.append((name, self.values[pos]))
        return tuple(parts)


def format_value(v: Value) -> str:
    """A value as reports show it; integers in full, past `str()`'s digit limit."""
    if isinstance(v, bool):
        return "true" if v else "false"
    try:
        return str(v)
    except ValueError:  # too many digits for int-to-str conversion
        from decimal import Decimal
        return str(Decimal(v))


def initial_state(decls: tuple[Declaration, ...],
                  overrides: dict[str, Value | tuple[int, ...]] | None = None) -> State:
    """Default state: declaration initializers where present, else
    0/false. `overrides` replaces initializers by name."""
    layout = Layout(decls)
    values = []
    for d in layout.decls:
        v = d.init
        if v is None:
            v = False if d.kind == "bool" else 0
        if d.is_array and not isinstance(v, tuple):
            v = (v,) * (d.hi - d.lo + 1)
        values.append(v)
    st = State(layout, tuple(values))
    if overrides:
        st = st.with_bindings(overrides)
    return st


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

def eval_expr(e: Expr, s: State) -> Value:
    """Total, side-effect-free evaluation of a type-checked expression.

    Raises EvalError on out-of-bounds array access and on div/mod by zero;
    the engines turn that into a failure outcome. Binary operators mean
    what their `syntax.BINARY` row says, except that `and` and `or`
    short-circuit here.
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
            meaning = BINARY[op].meaning
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
        return BUILTINS[e.func](a, b)
    raise EvalError(f"cannot evaluate {type(e).__name__}")


def apply_parallel_assign(targets: tuple[Expr, ...], values: tuple[Value, ...],
                          s: State) -> State:
    """Write already-evaluated values to targets simultaneously.

    All reads (values AND target indices) happen against `s` before any
    write. Two targets resolving to the same location is an aliasing
    failure, not a left-to-right overwrite.
    """
    layout = s.layout
    locs = []
    for t in targets:
        is_cell = isinstance(t, ArrayRef)
        pos = layout._at(t.name, is_cell)
        locs.append((pos, layout._offset(pos, eval_expr(t.index, s)) if is_cell else None))
    if len(set(locs)) != len(locs):
        raise EvalError("parallel assignment targets collide at runtime",
                        reason="aliasing")
    out = list(s.values)
    for (pos, off), v in zip(locs, values):
        if off is not None:
            cells = out[pos]
            v = cells[:off] + (v,) + cells[off + 1:]
        out[pos] = v
    return State(layout, tuple(out))


def execute_assign(a: Assign, s: State) -> State:
    """Evaluate every right-hand side of `a` in `s`, then write them all."""
    return apply_parallel_assign(a.targets, tuple([eval_expr(v, s) for v in a.values]), s)
