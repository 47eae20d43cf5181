"""Small-step semantics and the three execution disciplines.

A configuration is a program point plus a state. A program point is a
residue (the tuple of pending statements) lowered once, the first time a
search reaches it, and interned by structure in a `Points` table: each
structurally distinct residue has one `Point`, which caches its head
statement, its rendered key, the variables its head reads and writes,
and its successor points. Configurations of one table therefore compare
by point identity plus the state, and hash by the point's stored hash,
without walking the syntax tree. A program step rewrites the head of the
residue. On top of `step` sit:

* `explore_demonic` - exhaustive depth-first exploration of the whole
  computation tree with memoization, lasso-based divergence detection and
  explicit bound accounting;
* `run_erratic` - one seeded random computation;
* `solve_angelic` - backtracking search for successful terminal states,
  discarding failures.

The DFS core (`GraphSearch`) is shared with the direct semantics of the
communication and interleaving fragments, which explore different node
types through the same traversal.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable

from .errors import EvalError
from .printer import render_stmt_inline
from .state import State, apply_parallel_assign, eval_expr, initial_state
from .syntax import (
    ArrayRef, Assign, BinOp, Builtin, ChoiceAssign, Do, Fail, GclProgram,
    If, RandomAssign, Seq, Skip, Stmt, UnaryOp, expr_names,
)


@dataclass(frozen=True, slots=True)
class Limits:
    """Exploration budgets. `choice_bound` caps the values enumerated for
    `x := ?` during exhaustive search (the construct itself is unbounded)."""

    max_configs: int = 100_000
    max_depth: int = 500
    choice_bound: int = 8

    def __post_init__(self):
        if self.max_configs < 1 or self.max_depth < 1 or self.choice_bound < 0:
            raise ValueError("limits must be positive")


# ---------------------------------------------------------------------------
# Program points
# ---------------------------------------------------------------------------

class Points:
    """Intern table of program points, scoped to one search or one
    program: one `Point` per structurally distinct residue."""

    __slots__ = ("_table",)

    def __init__(self):
        self._table: dict[tuple[Stmt, ...], Point] = {}

    def lower(self, residue: tuple[Stmt, ...]) -> Point:
        """The point of a residue. Sequences at the head unfold
        structurally; they are not steps."""
        while residue and isinstance(residue[0], Seq):
            residue = residue[0].stmts + residue[1:]
        pt = self._table.get(residue)
        if pt is None:
            pt = self._table[residue] = Point(self, residue)
        return pt


class Point:
    """One interned residue. Everything derived from the residue is
    computed at most once, on first use."""

    __slots__ = ("points", "residue", "head", "hash", "_key", "_label",
                 "_effects", "_rest", "_arms")

    def __init__(self, points: Points, residue: tuple[Stmt, ...]):
        self.points = points
        self.residue = residue
        self.head = residue[0] if residue else None
        self.hash = hash(residue)
        self._key: str | None = None
        self._label: str | None = None
        self._effects: tuple[frozenset[str], frozenset[str]] | None = None
        self._rest: Point | None = None
        self._arms: list[Point | None] | None = None

    @property
    def key(self) -> str:
        """The rendered residue, as it appears in divergence keys."""
        if self._key is None:
            self._key = " ; ".join(render_stmt_inline(s) for s in self.residue)
        return self._key

    @property
    def label(self) -> str:
        """Step label of an assignment head: its inline rendering."""
        if self._label is None:
            self._label = render_stmt_inline(self.head)
        return self._label

    @property
    def effects(self) -> tuple[frozenset[str], frozenset[str]]:
        """(sensitive reads, writes) of executing the head statement."""
        if self._effects is None:
            reads, writes = _head_effects(self.head)
            self._effects = (frozenset(reads), frozenset(writes))
        return self._effects

    def rest(self) -> Point:
        """After the head: the successor of a simple statement and the
        exit of a repetition."""
        if self._rest is None:
            self._rest = self.points.lower(self.residue[1:])
        return self._rest

    def arm(self, i: int) -> Point:
        """Arm i of an if-fi head (its body, then the rest) or of a do-od
        head (its body, then the loop again)."""
        arms = self._arms
        if arms is None:
            arms = self._arms = [None] * len(self.head.arms)
        pt = arms[i]
        if pt is None:
            tail = self.residue if isinstance(self.head, Do) else self.residue[1:]
            pt = arms[i] = self.points.lower((self.head.arms[i].body,) + tail)
        return pt


@dataclass(frozen=True, slots=True, eq=False)
class Config:
    """Node of the computation tree: a program point plus a state.

    Within one `Points` table, equal configurations share their point, so
    equality is point identity plus state equality; points of different
    tables fall back to comparing residues."""

    point: Point
    state: State

    @property
    def residue(self) -> tuple[Stmt, ...]:
        return self.point.residue

    @property
    def terminated(self) -> bool:
        return self.point.head is None

    def residue_key(self) -> str:
        return self.point.key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Config):
            return NotImplemented
        a, b = self.point, other.point
        return ((a is b or (a.points is not b.points and a.residue == b.residue))
                and self.state == other.state)

    def __hash__(self) -> int:
        return hash((self.point.hash, self.state))


def make_config(residue: tuple[Stmt, ...], state: State) -> Config:
    """Configuration of a residue in a table of its own; the successors
    `step` returns share that table."""
    return Config(Points().lower(residue), state)


class IdentityCache:
    """Bounded cache of values derived from objects, keyed by identity.

    Each entry holds its key object, so that object's id() cannot be
    reused by another object while the entry exists; the least recently
    used entry goes first once the bound is reached. Not thread-safe, like
    the rest of the engine."""

    __slots__ = ("_entries", "_size")

    def __init__(self, size: int):
        self._entries: OrderedDict[int, tuple[Any, Any]] = OrderedDict()
        self._size = size

    def get(self, obj: Any, make: Callable[[Any], Any]) -> Any:
        entries = self._entries
        entry = entries.get(id(obj))
        if entry is None:
            entry = entries[id(obj)] = (obj, make(obj))
            if len(entries) > self._size:
                entries.popitem(last=False)
        else:
            entries.move_to_end(id(obj))
        return entry[1]


# Root points of recently run statements: a program explored or run many
# times (a seed sweep, the sub-searches of the concurrency semantics)
# lowers each of its residues once.
_ROOTS = IdentityCache(64)


def _root(stmt: Stmt) -> Point:
    return _ROOTS.get(stmt, lambda st: Points().lower((st,)))


def config_key(c: Config) -> str:
    return f"{c.residue_key()} @ {c.state.canonical()}"


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Terminated:
    state: State

    def key(self) -> tuple:
        return ("0-terminated", self.state.canonical())

    def describe(self) -> str:
        return f"terminated :: {self.state.canonical()}"


@dataclass(frozen=True, slots=True)
class Failed:
    """Reasons: 'guard-all-false-in-if', 'explicit-fail', 'eval-error',
    'aliasing'; the direct concurrency semantics adds 'deadlock'."""

    reason: str
    state: State
    detail: str = field(default="", compare=False)

    def key(self) -> tuple:
        return ("1-failed", self.reason, self.state.canonical())

    def describe(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return f"failed[{self.reason}]{extra} :: {self.state.canonical()}"


@dataclass(frozen=True, slots=True)
class Divergent:
    """Lasso witness: following `stem` labels from the start reaches the
    repeated configuration, and `cycle` labels lead back to it.

    `exact` lassos repeat the configuration itself. Inexact ones repeat
    the residue in a state that differs only in variables the cycle keeps
    rewriting while no guard, array index, divisor or choice bound reads
    them; such a cycle can repeat forever even though the state grows
    (the counting loop that can always go on is the standard example).
    """

    repeat_key: str
    exact: bool = True
    stem: tuple[str, ...] = field(default=(), compare=False)
    cycle: tuple[str, ...] = field(default=(), compare=False)

    def key(self) -> tuple:
        return ("2-divergent", self.repeat_key)

    def describe(self) -> str:
        return f"divergent :: repeat {self.repeat_key} :: cycle [{', '.join(self.cycle)}]"


@dataclass(frozen=True, slots=True)
class BoundExceeded:
    limit: str  # 'max-configs' | 'max-depth' | 'choice-bound' | 'fuel'

    def key(self) -> tuple:
        return ("3-bound", self.limit)

    def describe(self) -> str:
        return f"bound-exceeded :: {self.limit}"


Outcome = Terminated | Failed | Divergent | BoundExceeded


@dataclass(frozen=True)
class ExplorationReport:
    """Deduplicated outcome set plus traversal counts. Deterministic for a
    fixed program, input state and limits; outcomes sorted by kind and
    canonical state. `paths` counts branch-closure events (terminal,
    failure, lasso hit, merge with an explored node, bound hit)."""

    outcomes: tuple[Outcome, ...]
    configs: int
    edges: int
    paths: int
    limits: Limits

    def terminated_states(self) -> set[State]:
        return {o.state for o in self.outcomes if isinstance(o, Terminated)}

    def has(self, kind: type) -> bool:
        return any(isinstance(o, kind) for o in self.outcomes)

    def to_text(self) -> str:
        lines = [
            "schema 1",
            f"limits max-configs={self.limits.max_configs} "
            f"max-depth={self.limits.max_depth} "
            f"choice-bound={self.limits.choice_bound}",
            f"counts configs={self.configs} edges={self.edges} paths={self.paths}",
        ]
        lines += [f"outcome: {o.describe()}" for o in self.outcomes]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "limits": {"max-configs": self.limits.max_configs,
                       "max-depth": self.limits.max_depth,
                       "choice-bound": self.limits.choice_bound},
            "counts": {"configs": self.configs, "edges": self.edges,
                       "paths": self.paths},
            "outcomes": [_outcome_json(o) for o in self.outcomes],
        }


def _outcome_json(o: Outcome) -> dict:
    if isinstance(o, Terminated):
        return {"kind": "terminated", "state": o.state.canonical()}
    if isinstance(o, Failed):
        return {"kind": "failed", "reason": o.reason,
                "state": o.state.canonical(), "detail": o.detail}
    if isinstance(o, Divergent):
        return {"kind": "divergent", "repeat": o.repeat_key,
                "stem": list(o.stem), "cycle": list(o.cycle)}
    return {"kind": "bound-exceeded", "limit": o.limit}


# ---------------------------------------------------------------------------
# One small step
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class StepResult:
    """Either a failure of the head statement or the list of labelled
    successor configurations. `truncated` marks a cut `x := ?` range."""

    transitions: list[tuple[str, Config]]
    failure: tuple[str, str] | None = None  # (reason, detail)
    truncated: bool = False


def _fail(reason: str, detail: str = "") -> StepResult:
    return StepResult([], failure=(reason, detail))


def step(c: Config, choice_bound: int) -> StepResult:
    """Successors of a non-terminal configuration.

    Assignments and skip have one successor; if-fi has one per true guard
    and fails when none holds; do-od has one per true guard plus a single
    exit successor when none holds; `x := ?` enumerates 0..choice_bound;
    `x := choice(t)` enumerates 1..t and fails when t < 1. A guard or
    right-hand side that fails to evaluate fails the whole command.
    """
    pt = c.point
    head = pt.head
    s = c.state

    if isinstance(head, Skip):
        return StepResult([("skip", Config(pt.rest(), s))])

    if isinstance(head, Fail):
        return _fail("explicit-fail", head.keyword)

    if isinstance(head, Assign):
        try:
            values = tuple(eval_expr(v, s) for v in head.values)
            s2 = apply_parallel_assign(head.targets, values, s)
        except EvalError as e:
            return _fail(e.reason, e.detail)
        return StepResult([(pt.label, Config(pt.rest(), s2))])

    if isinstance(head, RandomAssign):
        rest = pt.rest()
        trans = [(f"{head.target} := {v}",
                  Config(rest, s.set_scalar(head.target, v)))
                 for v in range(choice_bound + 1)]
        return StepResult(trans, truncated=True)

    if isinstance(head, ChoiceAssign):
        try:
            bound = eval_expr(head.bound, s)
        except EvalError as e:
            return _fail(e.reason, e.detail)
        if bound < 1:
            return _fail("eval-error", f"choice({bound}) has no value")
        rest = pt.rest()
        trans = [(f"{head.target} := {v}",
                  Config(rest, s.set_scalar(head.target, v)))
                 for v in range(1, bound + 1)]
        return StepResult(trans)

    if isinstance(head, If):
        trans = []
        for i, arm in enumerate(head.arms):
            try:
                enabled = eval_expr(arm.guard, s)
            except EvalError as e:
                return _fail(e.reason, e.detail)
            if enabled:
                trans.append((f"if#{i + 1}", Config(pt.arm(i), s)))
        if not trans:
            return _fail("guard-all-false-in-if")
        return StepResult(trans)

    if isinstance(head, Do):
        trans = []
        for i, arm in enumerate(head.arms):
            try:
                enabled = eval_expr(arm.guard, s)
            except EvalError as e:
                return _fail(e.reason, e.detail)
            if enabled:
                trans.append((f"do#{i + 1}", Config(pt.arm(i), s)))
        if not trans:
            return StepResult([("od", Config(pt.rest(), s))])
        return StepResult(trans)

    raise TypeError(f"{type(head).__name__} is not a guarded-commands statement")


# ---------------------------------------------------------------------------
# Shared DFS over a nondeterministic transition graph
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Expansion:
    """What a node turns out to be when expanded."""

    final: State | None = None
    failure: tuple[str, str, State] | None = None  # reason, detail, state
    transitions: list[tuple[str, Any]] = field(default_factory=list)
    truncated: bool = False
    side_outcomes: list[Outcome] = field(default_factory=list)


class GraphSearch:
    """Iterative DFS with memoization and lasso detection.

    A node met again on the current path is a divergence and is reported
    with a genuine lasso witness. A node met off-path is not re-expanded,
    unless its earlier subtree hit a bound and the new visit is strictly
    shallower (a shallower visit can fit more of the tree inside the
    depth budget).
    """

    def __init__(self, lim: Limits,
                 expand: Callable[[Any], Expansion],
                 key_of: Callable[[Any], str],
                 final_of: Callable[[Any], State | None],
                 revisit_scan: Callable[[list, Any, str], Divergent | None] | None = None):
        self.lim = lim
        self.expand = expand
        self.key_of = key_of
        self.final_of = final_of
        self.revisit_scan = revisit_scan
        self.outcomes: dict[tuple, Outcome] = {}
        self.black: dict[Any, tuple[int, bool]] = {}
        self.configs = 0
        self.edges = 0
        self.paths = 0
        self.stopped = False

    def record(self, o: Outcome) -> None:
        self.outcomes.setdefault(o.key(), o)

    def run(self, root: Any) -> None:
        first = self._enter(root, 0, [])
        if first is None:
            return
        stack = [first]
        path_index: dict[Any, int] = {root: 0}
        path: list[tuple[Any, str | None]] = [(root, None)]
        while stack:
            frame = stack[-1]
            node, trans, idx, depth, clean = frame
            if idx >= len(trans):
                stack.pop()
                path.pop()
                del path_index[node]
                self.black[node] = (depth, clean)
                if stack:
                    stack[-1][4] = stack[-1][4] and clean
                continue
            frame[2] += 1
            label, nxt = trans[idx]
            self.edges += 1
            if nxt in path_index:
                at = path_index[nxt]
                stem = tuple(lab for _, lab in path[1:at + 1])
                cycle = tuple(lab for _, lab in path[at + 1:]) + (label,)
                self.record(Divergent(self.key_of(nxt), True, stem, cycle))
                self.paths += 1
                continue
            if self.revisit_scan is not None:
                div = self.revisit_scan(path, nxt, label)
                if div is not None:
                    self.record(div)
                    # the branch stays open: unlike an exact repeat, the
                    # successor has genuinely new terminal states below it
            seen = self.black.get(nxt)
            if seen is not None:
                prev_depth, prev_clean = seen
                if prev_clean or depth + 1 >= prev_depth:
                    self.paths += 1
                    frame[4] = frame[4] and prev_clean
                    continue
                del self.black[nxt]  # shallower revisit of a truncated subtree
            child = self._enter(nxt, depth + 1, stack)
            if child is None:
                continue
            stack.append(child)
            path_index[nxt] = len(path)
            path.append((nxt, label))

    def _enter(self, node: Any, depth: int, stack: list):
        final = self.final_of(node)
        if final is not None:
            self.record(Terminated(final))
            self.paths += 1
            return None
        if self.stopped:
            self.record(BoundExceeded("max-configs"))
            self.paths += 1
            self._taint(stack)
            return None
        if depth >= self.lim.max_depth:
            self.record(BoundExceeded("max-depth"))
            self.paths += 1
            self._taint(stack)
            return None
        self.configs += 1
        if self.configs > self.lim.max_configs:
            self.stopped = True
            self.record(BoundExceeded("max-configs"))
            self.paths += 1
            self._taint(stack)
            return None
        exp = self.expand(node)
        for o in exp.side_outcomes:
            self.record(o)
            self.paths += 1
        if exp.final is not None:
            self.record(Terminated(exp.final))
            self.paths += 1
            return None
        if exp.failure is not None:
            reason, detail, st = exp.failure
            self.record(Failed(reason, st, detail))
            self.paths += 1
            return None
        clean = not exp.truncated
        if exp.truncated:
            self.record(BoundExceeded("choice-bound"))
        if not exp.transitions:
            if not clean:
                self._taint(stack)
            return None
        return [node, exp.transitions, 0, depth, clean]

    def _taint(self, stack: list) -> None:
        if stack:
            stack[-1][4] = False

    def report(self) -> ExplorationReport:
        outcomes = tuple(sorted(self.outcomes.values(), key=lambda o: o.key()))
        return ExplorationReport(outcomes, self.configs, self.edges,
                                 self.paths, self.lim)


# ---------------------------------------------------------------------------
# Demonic exploration of guarded-commands programs
# ---------------------------------------------------------------------------

def _gcl_expand(lim: Limits) -> Callable[[Config], Expansion]:
    def expand(cfg: Config) -> Expansion:
        res = step(cfg, lim.choice_bound)
        if res.failure is not None:
            reason, detail = res.failure
            return Expansion(failure=(reason, detail, cfg.state))
        return Expansion(transitions=res.transitions, truncated=res.truncated)
    return expand


def _sensitive_vars(e, acc: set[str]) -> None:
    """Variables whose value can change an expression's control effect:
    anything under an array index, a div/mod divisor, or the whole guard
    and choice-bound expressions (collected by the caller). Plain
    arithmetic over unbounded integers is total and therefore not
    sensitive."""
    if isinstance(e, ArrayRef):
        acc.add(e.name)
        expr_names(e.index, acc)
    elif isinstance(e, BinOp):
        if e.op in ("div", "mod"):
            expr_names(e.right, acc)
            _sensitive_vars(e.left, acc)
        else:
            _sensitive_vars(e.left, acc)
            _sensitive_vars(e.right, acc)
    elif isinstance(e, UnaryOp):
        _sensitive_vars(e.operand, acc)
    elif isinstance(e, Builtin):
        for a in e.args:
            _sensitive_vars(a, acc)


def _head_effects(head: Stmt) -> tuple[set[str], set[str]]:
    """(sensitive reads, written variables) of executing one head
    statement, at whole-variable granularity."""
    reads: set[str] = set()
    writes: set[str] = set()
    if isinstance(head, Assign):
        for t in head.targets:
            writes.add(t.name)
            if isinstance(t, ArrayRef):
                expr_names(t.index, reads)
        for v in head.values:
            _sensitive_vars(v, reads)
    elif isinstance(head, RandomAssign):
        writes.add(head.target)
    elif isinstance(head, ChoiceAssign):
        writes.add(head.target)
        expr_names(head.bound, reads)
    elif isinstance(head, (If, Do)):
        for arm in head.arms:
            expr_names(arm.guard, reads)
    return reads, writes


def _control_lasso_scan(path: list, nxt: Config, label: str) -> Divergent | None:
    """Detect a repeatable cycle that an exact-configuration check misses.

    If an on-path ancestor has the same residue and every step between
    them neither reads (in a guard, index, divisor or choice bound) nor
    branches on any variable the cycle writes, the same step labels stay
    enabled forever and the program diverges, even though the written
    variables keep changing value.

    Ancestors are tried nearest first, with the effects of the steps from
    the ancestor to the end of the path accumulated on the way back. The
    sets only grow, so once the cycle reads what it writes, no ancestor
    further back can qualify.
    """
    pt = nxt.point
    if not isinstance(pt.head, Do):
        return None
    reads: set[str] = set()
    writes: set[str] = set()
    for at in range(len(path) - 1, -1, -1):
        anc = path[at][0].point
        r, w = anc.effects
        reads |= r
        writes |= w
        if reads & writes:
            return None
        if anc is not pt or not writes:
            continue
        proj = _starred_canonical(nxt.state, writes)
        stem = tuple(lab for _, lab in path[1:at + 1])
        cycle = tuple(lab for _, lab in path[at + 1:]) + (label,)
        return Divergent(f"{pt.key} @ {proj}", False, stem, cycle)
    return None


def _starred_canonical(s: State, hidden: set[str]) -> str:
    parts = []
    for piece in s.canonical().split(" "):
        name = piece.split("=", 1)[0]
        parts.append(f"{name}=*" if name in hidden else piece)
    return " ".join(parts)


def explore_statement(stmt: Stmt, s0: State, lim: Limits) -> ExplorationReport:
    """Exhaustive demonic exploration of a statement from a given state."""
    search = GraphSearch(
        lim, _gcl_expand(lim), config_key,
        lambda cfg: cfg.state if cfg.terminated else None,
        revisit_scan=_control_lasso_scan)
    search.run(Config(_root(stmt), s0))
    return search.report()


def explore_demonic(p: GclProgram, s0: State | None = None,
                    lim: Limits = Limits()) -> ExplorationReport:
    """Explore every computation of a program.

    The report contains one entry per distinct outcome reachable within
    the limits: terminal states (keyed by canonical state), failures
    (keyed by reason and state), divergence lassos (keyed by the repeated
    configuration), and any exhausted bounds.
    """
    if s0 is None:
        s0 = initial_state(p.decls)
    return explore_statement(p.body, s0, lim)


def replay(p: GclProgram, s0: State, labels: tuple[str, ...],
           choice_bound: int = 8) -> Config:
    """Follow a label sequence from the initial configuration; used to
    verify lasso witnesses. Raises if a label does not match."""
    cfg = make_config((p.body,), s0)
    for lab in labels:
        res = step(cfg, choice_bound)
        if res.failure is not None:
            raise ValueError(f"cannot follow {lab!r}: configuration failed")
        matches = [nxt for l, nxt in res.transitions if l == lab]
        if len(matches) != 1:
            raise ValueError(f"label {lab!r} matches {len(matches)} transitions")
        cfg = matches[0]
    return cfg


# ---------------------------------------------------------------------------
# Erratic execution
# ---------------------------------------------------------------------------

def _geometric(rng: Random) -> int:
    """Natural number with P(k) = 2^-(k+1): every value has positive mass."""
    k = 0
    while rng.random() < 0.5:
        k += 1
    return k


def run_erratic(p: GclProgram, s0: State | None = None, seed: int = 0,
                fuel: int = 100_000) -> Outcome:
    """One computation with uniformly random choices.

    Reproducible: the same (program, state, seed, fuel) gives the same
    outcome. `x := ?` is sampled geometrically so that every natural
    number can occur; `x := choice(t)` is uniform on 1..t. Negative fuel
    raises ValueError.
    """
    if fuel < 0:
        raise ValueError("fuel must not be negative")
    if s0 is None:
        s0 = initial_state(p.decls)
    rng = Random(seed)
    cfg = Config(_root(p.body), s0)
    for _ in range(fuel):
        if cfg.terminated:
            return Terminated(cfg.state)
        head = cfg.point.head
        if isinstance(head, RandomAssign):
            v = _geometric(rng)
            cfg = Config(cfg.point.rest(), cfg.state.set_scalar(head.target, v))
            continue
        if isinstance(head, ChoiceAssign):
            try:
                bound = eval_expr(head.bound, cfg.state)
            except EvalError as e:
                return Failed(e.reason, cfg.state, e.detail)
            if bound < 1:
                return Failed("eval-error", cfg.state, f"choice({bound}) has no value")
            v = rng.randint(1, bound)
            cfg = Config(cfg.point.rest(), cfg.state.set_scalar(head.target, v))
            continue
        res = step(cfg, 0)
        if res.failure is not None:
            reason, detail = res.failure
            return Failed(reason, cfg.state, detail)
        _, cfg = res.transitions[rng.randrange(len(res.transitions))]
    if cfg.terminated:
        return Terminated(cfg.state)
    return BoundExceeded("fuel")


# ---------------------------------------------------------------------------
# Angelic search
# ---------------------------------------------------------------------------

def solve_angelic(p: GclProgram, s0: State | None = None,
                  lim: Limits = Limits()) -> list[Terminated]:
    """Backtracking enumeration of the successful terminal states.

    Depth-first with choice values ascending; failures backtrack silently,
    on-path repeats (divergence) and exhausted budgets prune the branch.
    Results are deduplicated by final state, in first-found order.
    """
    if s0 is None:
        s0 = initial_state(p.decls)
    found: list[Terminated] = []
    seen_states: set[str] = set()
    black: dict[Config, tuple[int, bool]] = {}
    budget = lim.max_configs

    def classify(cfg: Config, depth: int):
        """None = closed branch, 'bound' = pruned by budget, else frame."""
        nonlocal budget
        if cfg.terminated:
            key = cfg.state.canonical()
            if key not in seen_states:
                seen_states.add(key)
                found.append(Terminated(cfg.state))
            return None
        if depth >= lim.max_depth or budget <= 0:
            return "bound"
        budget -= 1
        res = step(cfg, lim.choice_bound)
        if res.failure is not None:
            return None  # failures are discarded
        return [cfg, res.transitions, 0, depth, not res.truncated]

    root = Config(_root(p.body), s0)
    first = classify(root, 0)
    if not isinstance(first, list):
        return found
    stack = [first]
    on_path = {root}
    while stack:
        frame = stack[-1]
        cfg, trans, idx, depth, clean = frame
        if idx >= len(trans):
            stack.pop()
            on_path.discard(cfg)
            black[cfg] = (depth, clean)
            if stack:
                stack[-1][4] = stack[-1][4] and clean
            continue
        frame[2] += 1
        _, nxt = trans[idx]
        if nxt in on_path:
            continue  # divergent within limits: prune
        seen = black.get(nxt)
        if seen is not None:
            prev_depth, prev_clean = seen
            if prev_clean or depth + 1 >= prev_depth:
                frame[4] = frame[4] and prev_clean
                continue
            del black[nxt]
        child = classify(nxt, depth + 1)
        if child == "bound":
            frame[4] = False
            continue
        if child is None:
            continue
        stack.append(child)
        on_path.add(nxt)
    return found
