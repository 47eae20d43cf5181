"""Abstract syntax for the three source languages.

Every node class derives from `Node`, which hash-conses its instances
(Filliatre and Conchon, "Type-safe modular hash-consing", 2006):
building a node equal to a live one returns the live one. Equal trees
are one object, so `==` on nodes is `is` and a node hashes by identity;
neither walks the tree. The engines key program points on node identity
(`engine.lower`).
Every `Expr` keeps its compiled closure in a `_code` slot, filled by its
first `state.compile_expr`, so no step walks an expression tree and a
subtree shared by many points, programs or runs is compiled once while
it lives. Likewise every `Expr` and `Stmt` keeps its text in a `_text`
slot of its base class, filled by its first rendering (`printer`), so a
shared subtree is rendered once, however often it occurs. Nodes carry
no source positions (the parser reports positions at parse time), which
keeps `parse(render(p)) == p` a plain `==`.

This is the one place that says what a program keeps, and for how long.
A `Program` keeps what is built from it in slots of its own, each filled
on first use through `kept` and freed with the program:
* its program points, whose heads are compiled and labelled when each
  point is made (`engine.root`);
* the layout of the states it runs from (`engine._start_state`, which
  `start_config` and `explore_system` call);
* its one-level shape, or the diagnostic of why it has none
  (`fairness.one_level_of`);
* a `ParSystem`'s labelled components and action table (`par`), and a
  `CspSystem`'s table of compiled guard parts and corresponding pairs
  (`csp`).
Equal programs are one object, so every run of an equal program, however
it was built, finds what the first run built. Nothing kept refers back
to its program, so a dropped program is freed by reference counting; a
do-od point reaches itself through its arms, and the points table breaks
those cycles when its program goes (`engine._Roots`).

Each binary operator's binding power, typing and meaning are one row of
`BINARY`; the parser, printer, checker and expression compiler all read
that row, so they agree by construction. Likewise each rule that several
modules read off a tree is written here once: a guard's atoms
(`conjuncts`), a program's names (`program_names`, one walk with
`expr_names`) and the fresh names a transformation adds (`fresh_names`).

Nodes and gclab's slotted records share one base, `Slotted`: each class
declares its fields, their defaults and, for a `Record`, the fields its
equality reads, and the base builds, freezes and shows them all alike.
`state.State` and `engine.Expansion`, built at every step, keep
constructors of their own.

Walkers recurse by nesting depth, never by the length of a chain like
`1 + 1 + ... + 1`. Those that only look for some nodes loop over `nodes`,
a pre-order walk from an explicit stack. The checker, printer, compiler
and `conjuncts` loop over the run of one binding power that `chain`
returns, and recurse only into its operands.
"""

from __future__ import annotations

import operator
from functools import partial, reduce
from typing import Any, Callable, Iterator
from weakref import ref

from .errors import EvalError


# ---------------------------------------------------------------------------
# Slotted classes: hash-consed nodes and records
# ---------------------------------------------------------------------------

def _types(value: Any) -> Any:
    """The types a field value is interned under, element by element for a
    tuple: `1 == True`, but `IntLit(1)` is not `IntLit(True)`."""
    return tuple(map(type, value)) if type(value) is tuple else type(value)


class _Ref(ref):
    """The intern table's weak reference to a node; it drops the node's
    entry when the node dies."""

    __slots__ = ("key",)


def _drop(r: _Ref) -> None:
    if _INTERNED.get(r.key) is r:
        del _INTERNED[r.key]


# (class, fields[, their types]) to the live node, or to the live program
# point (`engine.lower`). Not a WeakValueDictionary: its lookup, insertion
# and removal run in Python, and parsing was about a quarter slower with it.
_INTERNED: dict[tuple, _Ref] = {}


def interned(key: tuple) -> Any:
    """The live object entered under `key`, or None."""
    r = _INTERNED.get(key)
    return r and r()


def intern(key: tuple, obj: Any) -> Any:
    """Enter `obj` under `key` until `obj` dies; the key holds its fields."""
    r = _INTERNED[key] = _Ref(obj, _drop)
    r.key = key
    return obj


class _FieldSignature:
    """The signature of a `Slotted` class, which `inspect.signature` and
    `help` read: its fields, in order, with their defaults. Built when it
    is read, so that `import gclab` does not load `inspect`. A class whose
    constructor spells out its own parameters sets `__signature__ = None`,
    and `inspect` reads that constructor."""

    def __get__(self, instance: Any, owner: type) -> Any:
        import inspect

        p = inspect.Parameter
        return inspect.Signature([p(f, p.POSITIONAL_OR_KEYWORD,
                                    default=owner._defaults.get(f, p.empty))
                                  for f in owner._fields])


class Slotted:
    """Base of `Node` and `Record`: a slotted class whose instances no one
    may change. A class names its fields, in order, as the public names
    of its own `__slots__` (a name that starts with `_` is a private slot
    beside them), and gives the defaults of trailing fields in
    `_defaults`. A call may pass the fields positionally or by keyword
    (`_arguments`); repr shows them, and so does the class's signature."""

    __slots__ = ()
    __signature__ = _FieldSignature()
    _defaults: dict[str, Any] = {}
    _noun = ""  # what a refused assignment calls an instance; by default its class

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(f for f in cls.__slots__ if f[0] != "_")
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)
        cls._arity = len(fields)
        least = cls._arity
        while least and fields[least - 1] in cls._defaults:
            least -= 1
        cls._least = least  # the fields before the trailing run of defaults
        cls._tail = tuple(cls._defaults[f] for f in fields[least:])

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict[str, Any]) -> tuple:
        """The field values of a call that does not pass every field
        positionally; a TypeError unless it passes each field once, or
        leaves it to its default."""
        if not kwargs and cls._least <= len(args) <= cls._arity:
            return args + cls._tail[len(args) - cls._least:]
        fields = cls._fields
        given = dict(zip(fields, args))
        values = {**cls._defaults, **given, **kwargs}
        if len(args) > len(fields) or given.keys() & kwargs or values.keys() != set(fields):
            raise TypeError(f"{cls.__name__} takes the fields {fields}, "
                            f"not {args!r} and {kwargs!r}")
        return tuple(values[f] for f in fields)

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"cannot change field {name!r} of a "
                             f"{self._noun or type(self).__name__}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Node(Slotted):
    """A syntax node, whose fields are taken as `Slotted` says. The
    constructor returns the live node of the same class with the same
    field values, comparing child nodes by identity, if there is one. A
    class whose leaves may be ints or bools sets `_typed`, so that their
    types must match too."""

    __slots__ = ("__weakref__",)
    _typed = False
    _noun = "syntax node"

    def __new__(cls, *args: Any, **kwargs: Any) -> Any:
        if kwargs or len(args) != cls._arity:
            args = cls._arguments(args, kwargs)
        key = (cls, args, tuple(map(_types, args))) if cls._typed else (cls, args)
        r = _INTERNED.get(key)
        node = r and r()
        if node is None:
            node = object.__new__(cls)
            for set_field, value in zip(cls._setters, args):
                set_field(node, value)
            intern(key, node)
        return node


class Record(Slotted):
    """A `Slotted` value. Records compare and hash as the tuple of their
    `_compared` fields, by default every field, against records of their
    own class only. A class that validates its fields, or fills a private
    view beside them, extends `__init__`."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # reads the compared fields in C, as a tuple when there are two or more
        cls._values = operator.attrgetter(*cls.__dict__.get("_compared", cls._fields))

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if kwargs or len(args) != self._arity:
            args = self._arguments(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr(Node):
    # `_text`: the rendered text, filled on the first `printer.render_expr`;
    # `_code`: the compiled closure, filled on the first `state.compile_expr`
    __slots__ = ("_text", "_code")


class IntLit(Expr):
    __slots__ = ("value",)
    _typed = True


class BoolLit(Expr):
    __slots__ = ("value",)
    _typed = True


class Var(Expr):
    __slots__ = ("name",)


class ArrayRef(Expr):
    __slots__ = ("name", "index")


class UnaryOp(Expr):
    __slots__ = ("op", "operand")  # op: 'neg' | 'not'

# Binding powers, loosest to tightest. A prefix `not` binds looser than
# the comparisons, so `not x < y` reads as `not (x < y)`; unary minus
# binds tighter than any binary operator.
OR_BP, AND_BP, NOT_BP, COMPARE_BP, ADD_BP, MUL_BP, NEG_BP = range(1, 8)


class Operator(Record):
    """A binary operator. Operands of type `operand` (None: either type,
    but the same on both sides) give a `result`; `meaning` applies it to
    values, and is None for `and`/`or`, which compiled expressions
    short-circuit. Operators of power COMPARE_BP do not chain; the others
    associate to the left."""

    __slots__ = ("power", "operand", "result", "meaning")


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


class BinOp(Expr):
    __slots__ = ("op", "left", "right")


class Builtin(Expr):
    """Builtin call; only binary integer min/max exist."""

    __slots__ = ("func", "args")  # func: 'min' | 'max'; args: a tuple of two


TRUE = BoolLit(True)
FALSE = BoolLit(False)


def not_(e: Expr) -> Expr:
    return UnaryOp("not", e)


def conj(parts: list[Expr]) -> Expr:
    """Left-nested conjunction; empty conjunction is true."""
    return reduce(partial(BinOp, "and"), parts) if parts else TRUE


def disj(parts: list[Expr]) -> Expr:
    return reduce(partial(BinOp, "or"), parts) if parts else FALSE


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt(Node):
    # `_text`: the rendered text, filled on the first `printer.render_stmt`
    __slots__ = ("_text",)


class Skip(Stmt):
    __slots__ = ()


class Fail(Stmt):
    """Improper termination. `abort` and `fail` are synonyms; the keyword
    used in the source is kept so rendering round-trips."""

    __slots__ = ("keyword",)
    _defaults = {"keyword": "fail"}


class Assign(Stmt):
    """Parallel assignment. Targets are Var or ArrayRef nodes; all right-hand
    sides and target indices are evaluated before any write."""

    __slots__ = ("targets", "values")  # two tuples of the same length


class RandomAssign(Stmt):
    """x := ?  (any natural number)."""

    __slots__ = ("target",)


class ChoiceAssign(Stmt):
    """x := choice(t)  (any integer 1..t; t < 1 fails)."""

    __slots__ = ("target", "bound")


class Seq(Stmt):
    __slots__ = ("stmts",)


class GuardedCommand(Node):
    __slots__ = ("guard", "body")


class If(Stmt):
    __slots__ = ("arms",)  # a tuple of GuardedCommand


class Do(Stmt):
    __slots__ = ("arms",)

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

class IfElse(Stmt):
    __slots__ = ("cond", "then_branch", "else_branch")


class While(Stmt):
    __slots__ = ("cond", "body")


class Await(Stmt):
    __slots__ = ("cond",)


# ---------------------------------------------------------------------------
# Declarations and programs
# ---------------------------------------------------------------------------

class Declaration(Node):
    """`var name: int` / `var name: bool` / `var name: int[lo..hi]`.

    `kind` is 'int', 'bool' or 'int[]'. For arrays the optional
    initializer is either a full cell list (a tuple) or a single value
    broadcast to every cell.
    """

    __slots__ = ("name", "kind", "lo", "hi", "init")
    _defaults = {"lo": None, "hi": None, "init": None}
    _typed = True

    @property
    def is_array(self) -> bool:
        return self.kind == "int[]"


class Program(Node):
    # what is built from a program, filled through `kept` (see above)
    __slots__ = ("_points", "_layout", "_shape", "_components", "_actions")


class GclProgram(Program):
    __slots__ = ("decls", "body")


# ---------------------------------------------------------------------------
# CSP fragment
# ---------------------------------------------------------------------------

class Input(Node):
    """`PEER ? x` : receive into scalar x."""

    __slots__ = ("peer", "target")


class Output(Node):
    """`PEER ! e` : offer value of e."""

    __slots__ = ("peer", "expr")


IoCommand = Input | Output


class ExtGuard(Node):
    """Extended guard `B ; io -> body` of a process main loop."""

    __slots__ = ("cond", "io", "body")


class CspProcess(Node):
    __slots__ = ("name", "decls", "init", "loop")  # loop: a tuple of ExtGuard


class CspSystem(Program):
    __slots__ = ("processes",)

    @property
    def decls(self) -> tuple[Declaration, ...]:
        """Every process's declarations, in process order: the system's
        variables, as a `GclProgram`'s or a `ParSystem`'s `decls` are."""
        return tuple(d for p in self.processes for d in p.decls)

    def all_decls(self) -> tuple[Declaration, ...]:
        return self.decls


# ---------------------------------------------------------------------------
# Shared-variable parallel fragment
# ---------------------------------------------------------------------------

class ParSystem(Program):
    __slots__ = ("decls", "init", "components", "epilogue")


def kept(owner: Program, slot: str, build: Callable[[], Any]) -> Any:
    """What `owner` keeps in `slot`, built by `build()` on first use."""
    try:
        return getattr(owner, slot)
    except AttributeError:
        value = build()
        object.__setattr__(owner, slot, value)
        return value


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

def nodes(tree: Node) -> Iterator[Node]:
    """Every node of `tree` in pre-order: a node, then the nodes of its
    fields in order, the elements of a tuple field in order.
    The walk keeps its own stack, so it nests no calls."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        for f in reversed(node._fields):  # the first field on top
            v = getattr(node, f)
            if isinstance(v, Node):
                stack.append(v)
            elif type(v) is tuple:
                stack += [x for x in reversed(v) if isinstance(x, Node)]


# the binding power of each operator that chains (`chain`)
_CHAINING = {op: row.power for op, row in BINARY.items() if row.power != COMPARE_BP}


def chain(e: BinOp) -> tuple[Expr, list[tuple[str, Expr]]]:
    """The left-associated run of operators of one binding power that ends
    at `e`: its first operand, then its (operator, operand) pairs in
    order. A comparison or an unknown operator is a run of one."""
    power = _CHAINING.get(e.op)
    pairs = [(e.op, e.right)]
    first = e.left
    while power and isinstance(first, BinOp) and _CHAINING.get(first.op) == power:
        pairs.append((first.op, first.right))
        first = first.left
    pairs.reverse()
    return first, pairs


def conjuncts(e: Expr) -> list[Expr]:
    """The atoms of a conjunction, left to right, however its `and`s nest."""
    if not (isinstance(e, BinOp) and e.op == "and"):
        return [e]
    first, pairs = chain(e)  # `first` is no `and`; an operand may be
    return [first] + [atom for _, operand in pairs for atom in conjuncts(operand)]


def expr_names(tree: Node, acc: set[str]) -> set[str]:
    """Add to `acc`, and return it, every name `tree` declares, reads or writes."""
    for n in nodes(tree):
        if isinstance(n, (Var, ArrayRef, Declaration)):
            acc.add(n.name)
        elif isinstance(n, (RandomAssign, ChoiceAssign, Input)):
            acc.add(n.target)
    return acc


stmt_names = expr_names  # one walk serves expressions, statements and programs


def program_names(p: Program) -> set[str]:
    """Every name a program of any kind declares, reads or writes."""
    return stmt_names(p, set())


def fresh_names(prefixes: tuple[str, ...], n: int, taken: set[str]) -> list[str] | None:
    """`prefix1` to `prefixn` for the first prefix with no name taken, else None."""
    for prefix in prefixes:
        names = [f"{prefix}{k}" for k in range(1, n + 1)]
        if taken.isdisjoint(names):
            return names
    return None
