"""Small-step semantics and the three execution disciplines.

A configuration is a program point plus a state. A program point is a
head statement linked to the point after it (`next`); following `next`
to the `END` point gives the residue, the tuple of pending statements.
Syntax nodes are hash-consed, so equal statements are one object, and
points are interned with them, keyed by head and next point by identity
(`lower`): each distinct residue has one live `Point`, in every search
and every program that reaches it. A program keeps the points of its
statements alive (`root`), so a program run many times is lowered once,
and its points go when it does. A point holds the step labels of its
arms and caches its rendered key and step label, the variables its head
reads and writes, its arm points, and its compiled head: on the first
step the head's assignment, guards or `choice` bound are lowered to
closures (`state.compile_assign`, `compile_guards`, `compile_expr`),
which every later step calls without walking the syntax tree. A
configuration (`Config`) is a named pair of a point and a state: it
compares by point identity plus the state, and hashes as the pair (the
state caches its own hash). `step` returns an `Expansion`, the one
record of what a node expands to (a failure, or labelled successors).
On top of `step` sit:

* `explore_demonic` - exhaustive depth-first exploration of the whole
  computation tree with memoization, lasso-based divergence detection and
  explicit bound accounting;
* `run_erratic` - one seeded random computation;
* `solve_angelic` - the same exploration, keeping only the successful
  terminal states (guess and fail: failures are discarded).

Both searches run on one DFS core (`GraphSearch`), which the direct
semantics of the communication and interleaving fragments share too:
they explore other node types through the same traversal and run their
atomic sub-steps with `SubSearches.absorb`. Single computations run on
one loop (`run_path`), which walks the program's points and leaves each
choice to its caller: `run_erratic` picks at random, and the fair
schedulers (`fairness.run_fair_traced`) pick at the top loop. A search's
report sorts its outcomes by kind and canonical state; a report of one
outcome, the common case of an atomic sub-step, is not sorted at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, NamedTuple

from .errors import EvalError
from .printer import render_stmt_inline
from .state import (  # eval_expr is re-exported: bench/tracer.py wraps engine.eval_expr
    State, compile_assign, compile_expr, compile_guards, eval_expr, format_value,
    initial_state,
)
from .syntax import (
    PARTIAL, ArrayRef, Assign, BinOp, ChoiceAssign, Do, Fail, GclProgram, If,
    Program, RandomAssign, Seq, Skip, Stmt, expr_names, intern, interned, nodes,
)


@dataclass(frozen=True, slots=True)
class Limits:
    """Exploration budgets. `choice_bound` caps the values enumerated for
    `x := ?` during exhaustive search (the construct itself is unbounded);
    `max_configs` caps the configurations expanded, and the values
    enumerated for `x := ?` and `x := choice(t)`. Its field defaults are
    gclab's default budgets."""

    max_configs: int = 100_000
    max_depth: int = 500
    choice_bound: int = 8

    def __post_init__(self):
        if self.max_configs < 1 or self.max_depth < 1 or self.choice_bound < 0:
            raise ValueError("limits must be positive")


# the default step budget of a seeded run (`run_erratic`, `fairness.run_fair`)
FUEL = 100_000


# ---------------------------------------------------------------------------
# Program points
# ---------------------------------------------------------------------------

class Point:
    """One interned program point: a head statement linked to the point
    after it. Everything derived from the head is computed at most once,
    on first use."""

    __slots__ = ("head", "next", "arm_labels", "_key", "_label", "_effects",
                 "_arms", "_code", "__weakref__")

    def __init__(self, head: Stmt | None, nxt: Point | None):
        self.head = head
        self.next = nxt
        # the step labels of an if-fi or do-od head's arms: `if#1`, ...
        self.arm_labels: tuple[str, ...] = ()
        if isinstance(head, (If, Do)):
            tag = "if" if isinstance(head, If) else "do"
            self.arm_labels = tuple(f"{tag}#{i + 1}" for i in range(len(head.arms)))
        self._key: str | None = None
        self._label: str | None = None
        self._effects: tuple[frozenset[str], frozenset[str]] | None = None
        self._arms: list[Point | None] | None = None
        self._code: Callable | tuple | None = None

    @property
    def residue(self) -> tuple[Stmt, ...]:
        """The pending statements, from the head to the end."""
        out = []
        pt = self
        while pt.head is not None:
            out.append(pt.head)
            pt = pt.next
        return tuple(out)

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

    def compiled(self) -> Callable | tuple:
        """The head's expressions lowered to closures (`state`), built on
        the first step: the assignment of an assignment head, the bound
        of a `choice` head, the guards of an if-fi or do-od head (one
        closure giving every guard's value), and () for any other head."""
        code = self._code
        if code is None:
            head = self.head
            if isinstance(head, Assign):
                code = compile_assign(head)
            elif isinstance(head, ChoiceAssign):
                code = compile_expr(head.bound)
            elif isinstance(head, (If, Do)):
                code = compile_guards(tuple(arm.guard for arm in head.arms))
            else:
                code = ()
            self._code = code
        return code

    def arm(self, i: int) -> Point:
        """Arm i of an if-fi head (its body, then the next point) or of a
        do-od head (its body, then the loop again)."""
        arms = self._arms
        if arms is None:
            arms = self._arms = [None] * len(self.head.arms)
        pt = arms[i]
        if pt is None:
            after = self if isinstance(self.head, Do) else self.next
            pt = arms[i] = lower(self.head.arms[i].body, after)
        return pt


# where a computation terminates
END = Point(None, None)


def lower(stmt: Stmt, nxt: Point) -> Point:
    """The point that runs `stmt` and then continues at `nxt`. A
    sequence unfolds into a chain of points; it is not a step."""
    if isinstance(stmt, Seq):
        for sub in reversed(stmt.stmts):
            nxt = lower(sub, nxt)
        return nxt
    key = (Point, stmt, nxt)
    return interned(key) or intern(key, Point(stmt, nxt))


class _Roots(dict):
    """A program's points, by the statement they run to the end (`root`).
    A do-od point reaches itself through its arms: when the program goes,
    its points' arms are dropped, so that reference counting frees them
    at once. A point shared with a live program lowers them again."""

    __slots__ = ()

    def __del__(self) -> None:
        todo, seen = list(self.values()), set()
        while todo:
            pt = todo.pop()
            if pt.head is None or id(pt) in seen:
                continue
            seen.add(id(pt))
            todo.append(pt.next)
            if pt._arms is not None:
                todo += (a for a in pt._arms if a is not None)
                pt._arms = None


def root(stmt: Stmt, owner: Program | None = None) -> Point:
    """The point that runs `stmt` to the end. `owner`, the program of
    `stmt`, keeps it and every later point while it lives, so a program
    run many times (a seed sweep, csp/par sub-searches) is lowered and
    compiled once. Without one, they live as long as their search."""
    if owner is None:
        return lower(stmt, END)
    try:
        roots = owner._points
    except AttributeError:
        roots = _Roots()
        object.__setattr__(owner, "_points", roots)
    pt = roots.get(stmt)
    if pt is None:
        pt = roots[stmt] = lower(stmt, END)
    return pt


class Config(NamedTuple):
    """Node of the computation tree: a program point plus a state. Equal
    configurations share their point, so equality is point identity plus
    state equality, and the hash is `hash((point, state))`."""

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


def make_config(residue: tuple[Stmt, ...], state: State) -> Config:
    """Configuration of a residue; the successors `step` returns share
    its points."""
    return Config(lower(Seq(residue), END), state)


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

    def header(self) -> tuple[list[str], dict]:
        """The limits and counts, as text header lines (`limits
        max-configs=N ...`) and as JSON header fields."""
        lim = self.limits
        fields = {
            "limits": {"max-configs": lim.max_configs, "max-depth": lim.max_depth,
                       "choice-bound": lim.choice_bound},
            "counts": {"configs": self.configs, "edges": self.edges,
                       "paths": self.paths},
        }
        lines = [name + "".join(f" {k}={v}" for k, v in group.items())
                 for name, group in fields.items()]
        return lines, fields

    def to_text(self) -> str:
        return report_text(self.header()[0], self.outcomes)


def report_text(header: list[str], outcomes) -> str:
    """A schema-1 text report: the schema line, the caller's header lines,
    then one line per outcome."""
    lines = ["schema 1", *header] + [f"outcome: {o.describe()}" for o in outcomes]
    return "\n".join(lines) + "\n"


def report_json(header: dict, outcomes) -> dict:
    """A schema-1 JSON report: the schema, the caller's header fields,
    then the outcomes."""
    return {"schema": 1, **header, "outcomes": [_outcome_json(o) for o in outcomes]}


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
class Expansion:
    """What a non-terminal node expands to: the `Failed` outcome that ends
    it, or labelled successors. `truncated` names the limit that cut
    the successors ('choice-bound' for `x := ?`, 'max-configs' for an
    `x := ?` or `choice(t)` with more values than the configuration
    budget); `side_outcomes` close branches inside an atomic step."""

    transitions: list[tuple[str, Any]] | tuple = ()
    failure: Failed | None = None
    truncated: str | None = None
    side_outcomes: list[Outcome] | tuple = ()


def _choice_bound(bound_of: Callable[[State], int], s: State) -> int:
    """The bound t of `x := choice(t)` in `s`, from the compiled bound;
    EvalError when t < 1."""
    bound = bound_of(s)
    if bound < 1:
        raise EvalError(f"choice({format_value(bound)}) has no value")
    return bound


def _choices(pt: Point, s: State, first: int, last: int, max_configs: int,
             truncated: str | None) -> Expansion:
    """The successors `x := first` .. `x := last` of a choice head, cut to
    the first `max_configs` of them ('max-configs'); `truncated` names the
    limit that already cut the range, if any."""
    target, nxt = pt.head.target, pt.next
    stop = min(last, first + max_configs - 1)
    trans = [(f"{target} := {v}", Config(nxt, s.set_scalar(target, v)))
             for v in range(first, stop + 1)]
    return Expansion(trans, truncated="max-configs" if stop < last else truncated)


def step(c: Config, choice_bound: int, max_configs: int = Limits().max_configs) -> Expansion:
    """Successors of a non-terminal configuration.

    Assignments and skip have one successor; if-fi has one per true guard
    and fails when none holds; do-od has one per true guard plus a single
    exit successor when none holds; `x := ?` enumerates 0..choice_bound
    and `x := choice(t)` 1..t, either cut to its first max_configs values
    (a search passes its own budget) when it has more, and `choice(t)`
    fails when t < 1. A guard or right-hand side that fails to evaluate
    fails the whole command.
    """
    pt = c.point
    head = pt.head
    s = c.state
    code = pt._code
    if code is None:
        code = pt.compiled()

    # the head kinds in the order of how often the workloads meet them
    if isinstance(head, Assign):
        try:
            s2 = code(s)
        except EvalError as e:
            return Expansion(failure=Failed(e.reason, s, e.detail))
        return Expansion([(pt.label, Config(pt.next, s2))])

    if isinstance(head, (If, Do)):
        try:
            enabled = code(s)
        except EvalError as e:
            return Expansion(failure=Failed(e.reason, s, e.detail))
        labels = pt.arm_labels
        trans = [(labels[i], Config(pt.arm(i), s)) for i, on in enumerate(enabled) if on]
        if trans:
            return Expansion(trans)
        if isinstance(head, If):
            return Expansion(failure=Failed("guard-all-false-in-if", s))
        return Expansion([("od", Config(pt.next, s))])

    if isinstance(head, Skip):
        return Expansion([("skip", Config(pt.next, s))])

    if isinstance(head, Fail):
        return Expansion(failure=Failed("explicit-fail", s, head.keyword))

    if isinstance(head, RandomAssign):
        return _choices(pt, s, 0, choice_bound, max_configs, "choice-bound")

    if isinstance(head, ChoiceAssign):
        try:
            bound = _choice_bound(code, s)
        except EvalError as e:
            return Expansion(failure=Failed(e.reason, s, e.detail))
        return _choices(pt, s, 1, bound, max_configs, None)

    raise TypeError(f"{type(head).__name__} is not a guarded-commands statement")


# ---------------------------------------------------------------------------
# Shared DFS over a nondeterministic transition graph
# ---------------------------------------------------------------------------

class GraphSearch:
    """Iterative DFS with memoization and lasso detection.

    A node met again on the current path is a divergence and is reported
    with a genuine lasso witness. A node met off-path is not re-expanded,
    unless its earlier subtree hit a bound and the new visit is strictly
    shallower (a shallower visit can fit more of the tree inside the
    depth budget). `expand(node)` says what a node expands to, under the
    limits its maker bound into it; `step` under the search's limits
    (`_expander`) is the expander of guarded-commands configurations.
    The current path is one stack of frames `[node, transitions, next
    index, clean, label into it]`; a frame's depth is its index.
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
        # equal outcomes have equal keys, so outcomes dedupe by value and
        # a key is rendered only to sort the report
        self.outcomes: dict[Outcome, None] = {}
        # every node met: its index in the path while it is on it, then
        # (depth, clean) once its subtree is done
        self.black: dict[Any, int | tuple[int, bool]] = {}
        self.configs = 0
        self.edges = 0
        self.paths = 0
        self.stopped = False

    def close(self, o: Outcome) -> None:
        """Record the outcome that closes a branch."""
        self.outcomes.setdefault(o)
        self.paths += 1

    def run(self, root: Any) -> None:
        stack: list[list] = []
        first = self._enter(root, None, stack)
        if first is None:
            return
        stack.append(first)
        black = self.black
        black[root] = 0
        while stack:
            frame = stack[-1]
            node, trans, idx, clean, _ = frame
            if idx >= len(trans):
                stack.pop()
                black[node] = (len(stack), clean)
                if stack:
                    stack[-1][3] = stack[-1][3] and clean
                continue
            frame[2] += 1
            label, nxt = trans[idx]
            self.edges += 1
            seen = black.get(nxt)
            if seen.__class__ is int:  # on the path, at index `seen`: a lasso
                stem = tuple(f[4] for f in stack[1:seen + 1])
                cycle = tuple(f[4] for f in stack[seen + 1:]) + (label,)
                self.close(Divergent(self.key_of(nxt), True, stem, cycle))
                continue
            if self.revisit_scan is not None:
                div = self.revisit_scan(stack, nxt, label)
                if div is not None:
                    self.outcomes.setdefault(div)
                    # the branch stays open: unlike an exact repeat, the
                    # successor has genuinely new terminal states below it
            if seen is not None:
                prev_depth, prev_clean = seen
                if prev_clean or len(stack) >= prev_depth:
                    self.paths += 1
                    frame[3] = frame[3] and prev_clean
                    continue
                del black[nxt]  # shallower revisit of a truncated subtree
            child = self._enter(nxt, label, stack)
            if child is None:
                continue
            black[nxt] = len(stack)
            stack.append(child)

    def _enter(self, node: Any, label: str | None, stack: list):
        """The frame of `node`, reached by `label` at depth `len(stack)`,
        or None when its branch closes here."""
        final = self.final_of(node)
        if final is not None:
            self.close(Terminated(final))
            return None
        bound = None
        if self.stopped:
            bound = "max-configs"
        elif len(stack) >= self.lim.max_depth:
            bound = "max-depth"
        else:
            self.configs += 1
            if self.configs > self.lim.max_configs:
                self.stopped = True
                bound = "max-configs"
        if bound is not None:
            self.close(BoundExceeded(bound))
            if stack:
                stack[-1][3] = False
            return None
        exp = self.expand(node)
        for o in exp.side_outcomes:
            self.close(o)
        if exp.failure is not None:
            self.close(exp.failure)
            return None
        if exp.truncated:
            self.outcomes.setdefault(BoundExceeded(exp.truncated))
        if not exp.transitions:
            return None
        return [node, exp.transitions, 0, not exp.truncated, label]

    def report(self, sub_counts=(0, 0, 0)) -> ExplorationReport:
        """The report, adding `sub_counts` (configs, edges, paths), the
        counts of the sub-searches the expander ran (`SubSearches`)."""
        outcomes = tuple(self.outcomes)
        if len(outcomes) > 1:  # most reports hold one outcome: nothing to sort
            outcomes = tuple(sorted(outcomes, key=lambda o: o.key()))
        configs, edges, paths = sub_counts
        return ExplorationReport(outcomes, self.configs + configs,
                                 self.edges + edges, self.paths + paths,
                                 self.lim)


class SubSearches:
    """Statements of one program run as atomic sub-steps of a search over
    another node type (the csp and par semantics). It stands apart from
    the `GraphSearch`, whose expander calls it, so that the expander does
    not hold its search, and with it the program and its points, in a
    reference cycle."""

    def __init__(self, lim: Limits, owner: Program):
        self.lim = lim
        self.owner = owner
        self.counts = [0, 0, 0]  # configs, edges, paths

    def absorb(self, stmt: Stmt, s: State, sink: list) -> list[State]:
        """Run a statement of the program from `s` as one atomic sub-step:
        a whole demonic exploration under the same limits. Its non-terminal
        outcomes go to `sink`; its terminal states come back in canonical
        order (the order its report lists them in). Its counts go into
        the search's report, but not into its `configs`, which the
        `max_configs` budget reads."""
        rep = explore_statement(stmt, s, self.lim, self.owner)
        finals = []
        for o in rep.outcomes:
            if isinstance(o, Terminated):
                finals.append(o.state)
            else:
                sink.append(o)
        sub = self.counts
        sub[0] += rep.configs
        sub[1] += rep.edges
        sub[2] += max(rep.paths - len(finals), 0)
        return finals


# ---------------------------------------------------------------------------
# Demonic exploration of guarded-commands programs
# ---------------------------------------------------------------------------

def _sensitive_vars(e, acc: set[str]) -> None:
    """Variables whose value can change an expression's control effect:
    anything under an array index, a divisor (the right operand of a
    `syntax.PARTIAL` operator), or the whole guard and choice-bound
    expressions (collected by the caller). Plain arithmetic over
    unbounded integers is total and therefore not sensitive."""
    for n in nodes(e):
        if isinstance(n, ArrayRef):
            acc.add(n.name)
            expr_names(n.index, acc)
        elif isinstance(n, BinOp) and n.op in PARTIAL:
            expr_names(n.right, acc)


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


def _control_lasso_scan(stack: list, nxt: Config, label: str) -> Divergent | None:
    """Detect a repeatable cycle that an exact-configuration check misses.

    If an on-path ancestor has the same residue and every step between
    them neither reads (in a guard, index, divisor or choice bound) nor
    branches on any variable the cycle writes, the same step labels stay
    enabled forever and the program diverges, even though the written
    variables keep changing value.

    `stack` is the search's path (`GraphSearch.run`): a frame holds its
    node at 0 and the label into it at 4. Ancestors are tried nearest
    first, with the effects of the steps from the ancestor to the end of
    the path accumulated on the way back. The sets only grow, so once the
    cycle reads what it writes, no ancestor further back can qualify.
    """
    pt = nxt.point
    if not isinstance(pt.head, Do):
        return None
    reads: set[str] = set()
    writes: set[str] = set()
    for at in range(len(stack) - 1, -1, -1):
        anc = stack[at][0].point
        r, w = anc.effects
        reads |= r
        writes |= w
        if reads & writes:
            return None
        if anc is not pt or not writes:
            continue
        stem = tuple(f[4] for f in stack[1:at + 1])
        cycle = tuple(f[4] for f in stack[at + 1:]) + (label,)
        return Divergent(f"{pt.key} @ {nxt.state.canonical(writes)}", False, stem, cycle)
    return None


def _expander(lim: Limits) -> Callable[[Config], Expansion]:
    """`step` under the limits of one search."""
    choice_bound, max_configs = lim.choice_bound, lim.max_configs
    return lambda c: step(c, choice_bound, max_configs)


def _final(cfg: Config) -> State | None:
    return cfg.state if cfg.point.head is None else None


def explore_statement(stmt: Stmt, s0: State, lim: Limits,
                      owner: Program | None = None) -> ExplorationReport:
    """Exhaustive demonic exploration of a statement from a given state;
    `owner`, if given, is the program the statement belongs to (`root`)."""
    search = GraphSearch(lim, _expander(lim), config_key, _final,
                         revisit_scan=_control_lasso_scan)
    search.run(Config(root(stmt, owner), s0))
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
    return explore_statement(p.body, s0, lim, p)


def replay(p: GclProgram, s0: State, labels: tuple[str, ...],
           choice_bound: int = Limits().choice_bound) -> Config:
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


def run_path(p: GclProgram, s0: State, fuel: int,
             choose: Callable[[Config], Config | Failed]) -> Outcome:
    """One computation of a program from `s0`, on its program points
    (`root`): `choose(cfg)` takes each step, returning the next
    configuration or the `Failed` that ends the run. Every step spends one
    unit of fuel (the callers reject negative fuel); a computation still
    running when the fuel is spent ends `BoundExceeded("fuel")`."""
    cfg = Config(root(p.body, p), s0)
    for _ in range(fuel):
        if cfg.terminated:
            break
        cfg = choose(cfg)
        if isinstance(cfg, Failed):
            return cfg
    return Terminated(cfg.state) if cfg.terminated else BoundExceeded("fuel")


def run_erratic(p: GclProgram, s0: State | None = None, seed: int = 0,
                fuel: int = FUEL) -> Outcome:
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

    def choose(cfg: Config) -> Config | Failed:
        pt, s = cfg.point, cfg.state
        head = pt.head
        if isinstance(head, RandomAssign):
            return Config(pt.next, s.set_scalar(head.target, _geometric(rng)))
        if isinstance(head, ChoiceAssign):
            try:
                v = rng.randint(1, _choice_bound(pt.compiled(), s))
            except EvalError as e:
                return Failed(e.reason, s, e.detail)
            return Config(pt.next, s.set_scalar(head.target, v))
        exp = step(cfg, 0)
        if exp.failure is not None:
            return exp.failure
        return exp.transitions[rng.randrange(len(exp.transitions))][1]

    return run_path(p, s0, fuel, choose)


# ---------------------------------------------------------------------------
# Angelic search
# ---------------------------------------------------------------------------

def solve_angelic(p: GclProgram, s0: State | None = None,
                  lim: Limits = Limits(), cut: list | None = None) -> list[Terminated]:
    """Backtracking enumeration of the successful terminal states.

    The demonic search, reading only its terminal states: depth-first
    with choice values ascending, failures closing their branch, on-path
    repeats (divergence) and exhausted budgets pruning theirs. Results
    are deduplicated by final state, in first-found order. Every bound
    that cut the answer (`max-configs`, `max-depth`, `choice-bound`) is
    appended to `cut`, if given, as a `BoundExceeded` in report order.
    """
    if s0 is None:
        s0 = initial_state(p.decls)
    search = GraphSearch(lim, _expander(lim), config_key, _final)
    search.run(Config(root(p.body, p), s0))
    if cut is not None:
        cut += sorted((o for o in search.outcomes if isinstance(o, BoundExceeded)),
                      key=BoundExceeded.key)
    return [o for o in search.outcomes if isinstance(o, Terminated)]
