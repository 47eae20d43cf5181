"""Program states and the expression compiler.

Values are unbounded Python ints and bools. A State is an immutable,
hashable snapshot of every declared variable: one tuple holding one
value per variable in name order, a scalar or the tuple of an array's
cells. Only this module knows that layout and writes a state's text.
Scalars default to 0/false and array cells to 0, unless the declaration
carries an initializer.

`initial_state` shares one layout among the states of a declaration
tuple while something holds it, such as a program that ran from one
(see `syntax` on what a program keeps).

Expressions are not interpreted node by node. `compile_expr` lowers an
expression to a closure from states to values and keeps it on the node
(`Expr._code`), so each hash-consed node is compiled once while it
lives; `compile_guards` lowers the guards of one command to a closure
giving all their values, and `compile_assign` a parallel assignment to a
closure from state to state; a program point is made with its head's
closures (`engine.Point`), which every step calls. `eval_expr` compiles
and evaluates in one call.

Guards that each test one point, a conjunction (`syntax.conjuncts`) of
`Var = literal` atoms over one set of variables (the dispatch on the
current lattice point of a chaotic iteration), compile to a table keyed
by those variables' values (`_point_table`): the guard list to one dict
lookup, and a run of such disjuncts to one set membership test.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Sequence
from typing import Any

from .errors import CheckError, EvalError
from .syntax import (
    BINARY, BUILTINS, ArrayRef, Assign, BinOp, BoolLit, Builtin, Declaration,
    Expr, IntLit, Record, UnaryOp, Var, chain, conjuncts, intern, interned,
)

Value = int | bool


class Layout:
    """Variable layout derived from a declaration list.

    `decls` are the declarations sorted by name; `names`, `kinds` and
    `bounds` ((lo, hi) of an array, None for a scalar) follow that order,
    and `pos` maps a name to its position. States over one layout store
    their values at those positions, so equality and hashing never touch
    the declarations themselves. `initial_state` interns one layout per
    declaration tuple.
    """

    __slots__ = ("decls", "names", "kinds", "bounds", "pos", "__weakref__")

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


# writes a field of a `State` once, in its `__init__` (`syntax.Record`)
_set = object.__setattr__


class State(Record):
    """An immutable snapshot of every declared variable over a `Layout`.

    A slotted record, written once in `__init__`. Equality and hashing
    read `values` only: states of equal values are equal whatever layout
    object they carry, and hash as `(values,)`. The hash and the plain
    `canonical()` text are cached on first use, in slots that equality
    ignores.
    """

    __slots__ = ("layout", "values", "_hash", "_text")

    def __init__(self, layout: Layout, values: tuple[Value | tuple[int, ...], ...]):
        _set(self, "layout", layout)
        _set(self, "values", values)
        _set(self, "_hash", None)  # `_text` stays unset until `canonical()`

    def __eq__(self, other) -> bool:
        if other.__class__ is not State:
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.values,))
            _set(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"State(values={self.values!r})"

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
            if kind == "int[]" and any(type(c) is not int for c in v):
                raise CheckError(f"binding for array '{name}' must hold ints")
            values[pos] = v
        return State(layout, tuple(values))

    # -- canonical form -----------------------------------------------------

    def canonical(self, hidden: Collection[str] = ()) -> str:
        """Deterministic one-line serialization: variables in lexicographic
        name order, arrays as bracketed cell lists, and `name=*` for each
        name in `hidden`. Only the text without hidden names is cached."""
        if hidden:
            return self._render(hidden)
        try:
            return self._text
        except AttributeError:  # the first plain rendering of this state
            text = self._render(())
            _set(self, "_text", text)
            return text

    def _render(self, hidden: Collection[str]) -> str:
        parts = []
        for name, v in zip(self.layout.names, self.values):
            if name in hidden:
                parts.append(f"{name}=*")
            elif type(v) is tuple:
                try:
                    cells = ",".join(map(str, v))  # array cells are ints
                except ValueError:  # a cell past `str()`'s digit limit
                    cells = ",".join(map(format_value, v))
                parts.append(f"{name}=[{cells}]")
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
    0/false. `overrides` replaces initializers by name. The layout of a
    declaration tuple is interned while any state over it, or a program
    that ran from one (`engine.start_config`), lives, so the runs of one
    program share it."""
    key = (Layout, decls)
    layout = interned(key) or intern(key, Layout(decls))
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
# Expression compilation
# ---------------------------------------------------------------------------

def compile_expr(e: Expr) -> Callable[[State], Value]:
    """Lower an expression to a closure that evaluates it in a state.

    Compile once per node and call per step: the closure does no dispatch
    on node types. Evaluation is total and side-effect-free on
    type-checked expressions: it raises EvalError on an out-of-bounds
    array access and on div/mod by zero, which the engines turn into a
    failure outcome. Operands are evaluated left to right; `and` and `or`
    short-circuit and return an operand's own value; the other binary
    operators mean what their `syntax.BINARY` row says. An unknown
    operator raises when it is evaluated, after its operands. Names are
    looked up through the state's layout when the closure runs, so one
    closure serves states of any layout, and it is kept on the node
    (`Expr._code`): a hash-consed node is compiled once while it lives,
    however many programs, points and runs share it.
    """
    try:
        return e._code
    except AttributeError:  # not compiled yet, or not an expression
        pass
    if isinstance(e, (IntLit, BoolLit)):
        value = e.value
        code = lambda s: value
    elif isinstance(e, Var):  # type-checked: a scalar
        name = e.name
        code = lambda s: s.values[s.layout.pos[name]]
    elif isinstance(e, ArrayRef):
        name, index = e.name, compile_expr(e.index)

        def code(s: State) -> Value:
            layout = s.layout
            pos = layout.pos[name]
            return s.values[pos][layout._offset(pos, index(s))]
    elif isinstance(e, BinOp):
        first, pairs = chain(e)
        if len(pairs) > 1:
            code = _compile_run(compile_expr(first), pairs)
            table = e.op == "or" and _point_table([first] + [x for _, x in pairs])
            if table:  # a disjunction of points: one set membership
                read, members, run = table[0], frozenset(table[1]), code

                def code(s: State) -> Value:
                    try:
                        key = read(s)
                    except KeyError:  # see `_point_table`
                        return run(s)
                    return key in members
        else:
            op, left, right = e.op, compile_expr(e.left), compile_expr(e.right)
            row = BINARY.get(op)
            if op == "and":
                code = lambda s: left(s) and right(s)
            elif op == "or":
                code = lambda s: left(s) or right(s)
            elif row is None:
                code = _raises_after((left, right),
                                     lambda: EvalError(f"unknown operator {op!r}"))
            elif isinstance(e.left, Var) and isinstance(e.right, (Var, IntLit, BoolLit)):
                # an operator on a variable and a constant or a second
                # variable (most guards, and counters such as `x + 1`)
                # reads its operands in place, without a call per operand
                meaning, name = row.meaning, e.left.name
                if isinstance(e.right, Var):
                    other = e.right.name
                    code = lambda s: meaning(s.values[s.layout.pos[name]],
                                             s.values[s.layout.pos[other]])
                else:
                    value = e.right.value
                    code = lambda s: meaning(s.values[s.layout.pos[name]], value)
            else:
                meaning = row.meaning
                code = lambda s: meaning(left(s), right(s))
    elif isinstance(e, UnaryOp):
        op, operand = e.op, compile_expr(e.operand)
        if op == "neg":
            code = lambda s: -operand(s)
        elif op == "not":
            code = lambda s: not operand(s)
        else:
            code = _raises_after((operand,),
                                 lambda: EvalError(f"unknown unary operator {op!r}"))
    elif isinstance(e, Builtin):
        func, a, b = e.func, compile_expr(e.args[0]), compile_expr(e.args[1])
        apply = BUILTINS.get(func)
        if apply is None:
            code = _raises_after((a, b), lambda: KeyError(func))
        else:
            code = lambda s: apply(a(s), b(s))
    else:  # not an expression: nowhere to keep the closure
        kind = type(e).__name__
        return _raises_after((), lambda: EvalError(f"cannot evaluate {kind}"))
    _set(e, "_code", code)
    return code


def _compile_run(first: Callable[[State], Value],
                 pairs: list[tuple[str, Expr]]) -> Callable[[State], Value]:
    """One closure for a run of two or more operators (`syntax.chain`), so
    that evaluating the run nests no calls. A run of one keeps its binary
    closure, which is quicker to call."""
    operands = tuple(compile_expr(x) for _, x in pairs)
    if pairs[0][0] in ("and", "or"):  # then the run holds no other operator
        stop = pairs[0][0] == "or"

        def shortcut(s: State) -> Value:
            v = first(s)
            for operand in operands:
                if bool(v) is stop:
                    return v
                v = operand(s)
            return v
        return shortcut
    steps = tuple(zip([BINARY[op].meaning for op, _ in pairs], operands))

    def fold(s: State) -> Value:
        v = first(s)
        for meaning, operand in steps:
            v = meaning(v, operand(s))
        return v
    return fold


def _raises_after(operands: tuple, error: Callable[[], Exception]) -> Callable[[State], Value]:
    """A closure that evaluates `operands` left to right, then raises a
    fresh `error()`."""
    def fail(s: State) -> Value:
        for operand in operands:
            operand(s)
        raise error()
    return fail


def eval_expr(e: Expr, s: State) -> Value:
    """Evaluate an expression once: `compile_expr(e)(s)`."""
    return compile_expr(e)(s)


def compile_guards(guards: tuple[Expr, ...]) -> Callable[[State], Sequence[Value]]:
    """Lower the guards of one command to a closure giving every guard's
    value, in guard order. Equal guards are compiled and evaluated once
    per call; an EvalError comes from the first guard, in order, that
    fails. Guards that are points (`_point_table`), such as a dispatch
    on the current lattice point, are one dict lookup of a row of guard
    values built once per point."""
    distinct: dict[Expr, int] = {}
    slots = [distinct.setdefault(g, len(distinct)) for g in guards]
    evals = tuple(compile_expr(g) for g in distinct)

    def shared(s: State) -> list[Value]:
        values = [ev(s) for ev in evals]
        return [values[k] for k in slots]
    table = _point_table(guards)
    if table is None:
        return shared
    read, keys = table
    rows: dict = {}
    for i, key in enumerate(keys):
        rows.setdefault(key, [False] * len(guards))[i] = True
    rows = {key: tuple(row) for key, row in rows.items()}
    miss = (False,) * len(guards)

    def lookup(s: State) -> Sequence[Value]:
        try:
            key = read(s)
        except KeyError:  # see `_point_table`
            return shared(s)
        return rows.get(key, miss)
    return lookup


def _point_table(exprs: Sequence[Expr]) -> tuple[Callable[[State], Any], list] | None:
    """`(read, keys)` when every expression is a point: a conjunction of
    `Var = literal` atoms over distinct variables, the same variables in
    each. `read(s)` gives the tuple of their values in `s`, and expression i
    holds exactly when that key equals `keys[i]`: a literal is compared
    by `==` and hashed like the value it meets, for ints and bools alike.
    None for any other list, which evaluates atom by atom. Reading a
    variable cannot raise an EvalError; a state that does not declare
    one (an unchecked program) raises KeyError in `read`, and its caller
    then evaluates atom by atom, so that the error, or the value a
    short-circuit reaches first, is the same."""
    points = []
    for e in exprs:
        point: dict[str, Value] = {}
        for atom in conjuncts(e):
            if not (isinstance(atom, BinOp) and atom.op == "=" and isinstance(atom.left, Var)
                    and isinstance(atom.right, (IntLit, BoolLit))
                    and atom.left.name not in point):
                return None
            point[atom.left.name] = atom.right.value
        if points and point.keys() != points[0].keys():
            return None
        points.append(point)
    if not points:
        return None
    names = tuple(points[0])

    def read(s: State) -> tuple:
        pos, values = s.layout.pos, s.values
        return tuple([values[pos[n]] for n in names])
    return read, [tuple([p[n] for n in names]) for p in points]


def _compile_targets(targets: tuple[Expr, ...]) -> Callable[[State, tuple[Value, ...]], State]:
    """Lower assignment targets to a closure that writes already-evaluated
    values to them simultaneously.

    All reads (target indices) happen against the state before any
    write. Two targets resolving to the same location is an aliasing
    failure, not a left-to-right overwrite.
    """
    specs = tuple((t.name, compile_expr(t.index) if isinstance(t, ArrayRef) else None)
                  for t in targets)

    def write(s: State, values: tuple[Value, ...]) -> State:
        layout = s.layout
        locs = []
        for name, index in specs:
            pos = layout._at(name, index is not None)
            locs.append((pos, None if index is None else layout._offset(pos, index(s))))
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
    return write


def apply_parallel_assign(targets: tuple[Expr, ...], values: tuple[Value, ...],
                          s: State) -> State:
    """Write already-evaluated values to targets simultaneously, reading
    every target index in `s` first; colliding targets fail with reason
    'aliasing'."""
    return _compile_targets(targets)(s, values)


def compile_assign(a: Assign) -> Callable[[State], State]:
    """Lower a parallel assignment to a closure from state to state: every
    right-hand side is evaluated, left to right, before any target is
    resolved or written."""
    values = tuple(compile_expr(v) for v in a.values)
    if len(values) == len(a.targets) == 1 and isinstance(a.targets[0], Var):
        # most assignments set one scalar (84-91% of those the benchmark
        # workloads run); `set_scalar` writes it in half the time of the
        # general write
        name, value = a.targets[0].name, values[0]
        return lambda s: s.set_scalar(name, value(s))
    write = _compile_targets(a.targets)
    return lambda s: write(s, tuple([v(s) for v in values]))
