"""Weak-fairness source transformation, fair schedulers, and the
asynchronous least-fixpoint workload.

The transformation applies to one-level nondeterministic programs: an
initialization part followed by a single repetitive command whose bodies
are deterministic. It introduces one priority variable per guarded
command; an enabled command holding the minimum priority is selected, its
priority is reset arbitrarily, enabled competitors move up (decrement)
and disabled ones are reset. Ignoring the priority variables, the
transformed program's computations are the weakly fair ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random

from .check import decl_map, type_of
from .engine import (
    BoundExceeded, Config, Failed, IdentityCache, Outcome, Point, Points,
    Terminated, step,
)
from .errors import CheckError, EvalError
from .printer import render_stmt_inline
from .state import State, eval_expr, initial_state
from .syntax import (
    Assign, BinOp, BoolLit, Builtin, ChoiceAssign, Declaration, Do, Expr,
    GclProgram, GuardedCommand, If, IntLit, RandomAssign, Seq, Skip, Stmt,
    UnaryOp, Var, conj, disj, not_, program_names, seq,
)


class FairnessError(Exception):
    """Shape or precondition violation for the fairness operations."""


class FixpointError(Exception):
    """Bad fixpoint instance: non-monotone, out of range, malformed."""


# ---------------------------------------------------------------------------
# One-level shape recognition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneLevelProgram:
    """init; do B_1 -> S_1 [] ... [] B_n -> S_n od with deterministic
    init and bodies. The loop's own guards may overlap."""

    decls: tuple[Declaration, ...]
    init: Stmt
    loop: Do

    @property
    def program(self) -> GclProgram:
        body = self.loop if isinstance(self.init, Skip) else seq([self.init, self.loop])
        return GclProgram(self.decls, body)


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


def one_level_of(p: GclProgram) -> OneLevelProgram:
    ok, why = is_one_level_nondeterministic(p)
    if not ok:
        raise FairnessError(f"not one-level nondeterministic: {why}")
    body = p.body
    if isinstance(body, Do):
        return OneLevelProgram(p.decls, Skip(), body)
    return OneLevelProgram(p.decls, seq(list(body.stmts[:-1])), body.stmts[-1])


# ---------------------------------------------------------------------------
# The weak-fairness transformation
# ---------------------------------------------------------------------------

def _fresh_names(base: str, n: int, taken: set[str]) -> list[str]:
    for prefix in (base, base * 2, base * 3, base * 4):
        names = [f"{prefix}{k}" for k in range(1, n + 1)]
        if not any(nm in taken for nm in names):
            return names
    raise FairnessError(f"no fresh '{base}' names available")


def _min_of(names: list[str]) -> Expr:
    """Right-folded binary min over priority variables."""
    out: Expr = Var(names[-1])
    for nm in reversed(names[:-1]):
        out = Builtin("min", (Var(nm), out))
    return out


def transform_wf(p: GclProgram | OneLevelProgram) -> GclProgram:
    """Compile weak fairness away.

    Emits: init; z_1 := ?; ...; z_n := ?;
    do []_i  B_i and z_i = min(z_1, ..., z_n) ->
         z_i := ?;
         for each j != i: if B_j -> z_j := z_j - 1 [] not B_j -> z_j := ? fi;
         S_i
    od
    with the j-iteration unrolled (n is static). The priority variables
    are fresh integer scalars that do not occur in the input program.
    """
    olp = p if isinstance(p, OneLevelProgram) else one_level_of(p)
    arms = olp.loop.arms
    n = len(arms)
    taken = program_names(olp.program)
    znames = _fresh_names("z", n, taken)
    zdecls = tuple(Declaration(nm, "int") for nm in znames)
    min_expr = _min_of(znames)

    new_arms = []
    for i, arm in enumerate(arms):
        guard = BinOp("and", arm.guard, BinOp("=", Var(znames[i]), min_expr))
        body: list[Stmt] = [RandomAssign(znames[i])]
        for j, other in enumerate(arms):
            if j == i:
                continue
            zj = znames[j]
            body.append(If((
                GuardedCommand(other.guard,
                               Assign((Var(zj),),
                                      (BinOp("-", Var(zj), IntLit(1)),))),
                GuardedCommand(not_(other.guard), RandomAssign(zj)),
            )))
        body.append(arm.body)
        new_arms.append(GuardedCommand(guard, seq(body)))

    prologue: list[Stmt] = [] if isinstance(olp.init, Skip) else [olp.init]
    prologue += [RandomAssign(nm) for nm in znames]
    return GclProgram(olp.decls + zdecls,
                      seq(prologue + [Do(tuple(new_arms))]))


# ---------------------------------------------------------------------------
# Fair schedulers
# ---------------------------------------------------------------------------

def _fresh_priority(rng: Random) -> int:
    """Reset value for a priority counter: usually urgent, sometimes a
    long fuse, so seed sweeps reach both quick and patient schedules."""
    if rng.random() < 0.75:
        return 0
    return rng.randint(0, 24)


def _run_deterministic(pt: Point, s: State, fuel: int) -> tuple[State | None, Outcome | None, int]:
    """Run a deterministic statement, lowered to its program point, to
    completion.

    Returns (final state, None, fuel_used) on success or (None, outcome,
    fuel_used) on failure or fuel exhaustion.
    """
    cfg = Config(pt, s)
    used = 0
    while not cfg.terminated:
        if used >= fuel:
            return None, BoundExceeded("fuel"), used
        res = step(cfg, 0)
        if res.failure is not None:
            reason, detail = res.failure
            return None, Failed(reason, cfg.state, detail), used
        if len(res.transitions) != 1:
            raise FairnessError(
                "deterministic body took a nondeterministic step; "
                "the one-level check should have rejected this program")
        cfg = res.transitions[0][1]
        used += 1
    return cfg.state, None, used


class _FairLoop:
    """A one-level program prepared for fair runs: its shape proved once,
    its initialization and arm bodies lowered into one points table."""

    __slots__ = ("init", "guards", "bodies")

    def __init__(self, olp: OneLevelProgram):
        points = Points()
        self.init = points.lower((olp.init,))
        self.guards = tuple(arm.guard for arm in olp.loop.arms)
        self.bodies = tuple(points.lower((arm.body,)) for arm in olp.loop.arms)


def _prepare(p: GclProgram) -> _FairLoop | str:
    """The prepared loop, or the diagnostic of a program that is not
    one-level."""
    try:
        return _FairLoop(one_level_of(p))
    except FairnessError as e:
        return str(e)


# Prepared loops of recently run programs: a seed sweep over one program
# proves its shape and lowers its bodies once.
_LOOPS = IdentityCache(64)


def _fair_loop(p: GclProgram) -> _FairLoop:
    loop = _LOOPS.get(p, _prepare)
    if isinstance(loop, str):
        raise FairnessError(loop)
    return loop


def run_fair(p: GclProgram, s0: State | None = None, policy: str = "weak",
             seed: int = 0, fuel: int = 100_000) -> Outcome:
    """Fair execution of a one-level program's top loop.

    weak: per-command priority counters mirror the source transformation;
    the enabled command with the minimum counter runs, its counter resets,
    enabled competitors decrement, disabled ones reset. A continuously
    enabled command is therefore selected within a bounded number of
    turns. strong: per-command debt counts how often a command was enabled
    since it last ran; the enabled command with maximal debt runs. Ties
    break uniformly at random from the seed; runs are reproducible.
    Negative fuel raises ValueError.
    """
    outcome, _ = run_fair_traced(p, s0, policy, seed, fuel)
    return outcome


def run_fair_traced(p: GclProgram, s0: State | None = None,
                    policy: str = "weak", seed: int = 0,
                    fuel: int = 100_000):
    """As run_fair, also returning the scheduling trace: one entry
    (enabled indices, counter snapshot, selected index) per iteration.
    The one-level check and the lowering of the loop are done once per
    program object and reused by later runs of the same object."""
    if policy not in ("weak", "strong"):
        raise ValueError(f"unknown policy {policy!r}")
    if fuel < 0:
        raise ValueError("fuel must not be negative")
    loop = _fair_loop(p)
    if s0 is None:
        s0 = initial_state(p.decls)
    rng = Random(seed)
    trace: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []

    s, failure, used = _run_deterministic(loop.init, s0, fuel)
    if failure is not None:
        return failure, trace
    fuel -= used

    guards = loop.guards
    n = len(guards)
    counters = ([_fresh_priority(rng) for _ in range(n)] if policy == "weak"
                else [0] * n)

    while True:
        if fuel <= 0:
            return BoundExceeded("fuel"), trace
        try:
            enabled = [i for i in range(n) if eval_expr(guards[i], s)]
        except EvalError as e:
            return Failed(e.reason, s, e.detail), trace
        if not enabled:
            return Terminated(s), trace
        if policy == "weak":
            best = min(counters[i] for i in enabled)
            candidates = [i for i in enabled if counters[i] == best]
        else:
            for i in enabled:
                counters[i] += 1
            best = max(counters[i] for i in enabled)
            candidates = [i for i in enabled if counters[i] == best]
        pick = candidates[rng.randrange(len(candidates))]
        trace.append((tuple(enabled), tuple(counters), pick))
        fuel -= 1
        if policy == "weak":
            counters[pick] = _fresh_priority(rng)
            for j in range(n):
                if j == pick:
                    continue
                if j in enabled:
                    counters[j] -= 1
                else:
                    counters[j] = _fresh_priority(rng)
        else:
            counters[pick] = 0
        s, failure, used = _run_deterministic(loop.bodies[pick], s, fuel)
        if failure is not None:
            return failure, trace
        fuel -= used


# ---------------------------------------------------------------------------
# Least fixpoints by chaotic iteration
# ---------------------------------------------------------------------------

Point = tuple[int, ...]


class FixpointInstance:
    """A monotone operator on the n-fold product of the chain 0..height.

    Holds an explicit table point -> point; optionally also per-component
    expressions over variables x1..xn, in which case the emitted program
    uses them directly instead of a table dispatch.
    """

    def __init__(self, n: int, height: int, table: dict[Point, Point],
                 exprs: tuple[Expr, ...] | None = None):
        if n < 1 or height < 0:
            raise FixpointError("need n >= 1 and height >= 0")
        self.n = n
        self.height = height
        self.table = table
        self.exprs = exprs
        self._validate_table()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_table(cls, n: int, height: int,
                   table: dict[Point, Point]) -> "FixpointInstance":
        return cls(n, height, dict(table))

    @classmethod
    def from_exprs(cls, n: int, height: int,
                   exprs: list[Expr]) -> "FixpointInstance":
        if len(exprs) != n:
            raise FixpointError(f"need {n} component expressions")
        decls = tuple(Declaration(f"x{k + 1}", "int") for k in range(n))
        dm = decl_map(decls)
        for e in exprs:
            try:
                if type_of(e, dm) != "int":
                    raise FixpointError("component expressions must be integer-valued")
            except CheckError as err:
                raise FixpointError(f"bad component expression: {err}") from None
        layout_state = initial_state(decls)
        table: dict[Point, Point] = {}
        for pt in itertools.product(range(height + 1), repeat=n):
            s = layout_state
            for k, v in enumerate(pt):
                s = s.set_scalar(f"x{k + 1}", v)
            img = tuple(eval_expr(e, s) for e in exprs)
            table[pt] = img
        return cls(n, height, table, tuple(exprs))

    def _validate_table(self) -> None:
        pts = set(itertools.product(range(self.height + 1), repeat=self.n))
        if set(self.table) != pts:
            raise FixpointError("table must cover every lattice point exactly once")
        for pt, img in self.table.items():
            if len(img) != self.n or any(v < 0 or v > self.height for v in img):
                raise FixpointError(f"F{pt} = {img} leaves the lattice")

    # -- lattice helpers ------------------------------------------------

    def points(self):
        return itertools.product(range(self.height + 1), repeat=self.n)

    @staticmethod
    def leq(a: Point, b: Point) -> bool:
        return all(x <= y for x, y in zip(a, b))

    def validate_monotone(self) -> None:
        """Exhaustive monotonicity check; quadratic in lattice size."""
        pts = list(self.points())
        for a in pts:
            for b in pts:
                if self.leq(a, b) and not self.leq(self.table[a], self.table[b]):
                    raise FixpointError(
                        f"not monotone: {a} <= {b} but F{a} = {self.table[a]} "
                        f"!<= F{b} = {self.table[b]}")


def kleene_lfp(inst: FixpointInstance) -> Point:
    """Least fixpoint by synchronous iteration from the bottom element.
    Validates monotonicity first; serves as the oracle for the
    asynchronous program."""
    inst.validate_monotone()
    x: Point = (0,) * inst.n
    while True:
        nxt = inst.table[x]
        if nxt == x:
            return x
        x = nxt


def _point_eq(names: list[str], pt: Point) -> Expr:
    return conj([BinOp("=", Var(nm), IntLit(v)) for nm, v in zip(names, pt)])


def chaotic_iteration_program(inst: FixpointInstance) -> GclProgram:
    """The asynchronous fixpoint program:

        x := bottom;
        do []_i  x != F(x) -> x_i := F_i(x) od

    Every arm shares the one guard. With expression components the arm
    body is a direct assignment; with a table it is a deterministic
    alternative command dispatching on the current lattice point, so the
    emitted program is one-level nondeterministic either way.
    """
    names = [f"x{k + 1}" for k in range(inst.n)]
    decls = tuple(Declaration(nm, "int") for nm in names)
    bottom = Assign(tuple(Var(nm) for nm in names),
                    tuple(IntLit(0) for _ in names))

    if inst.exprs is not None:
        guard = disj([BinOp("!=", Var(nm), e)
                      for nm, e in zip(names, inst.exprs)])
        bodies: list[Stmt] = [Assign((Var(nm),), (e,))
                              for nm, e in zip(names, inst.exprs)]
    else:
        moved = [pt for pt in inst.points() if inst.table[pt] != pt]
        guard = disj([_point_eq(names, pt) for pt in moved])
        bodies = []
        for i in range(inst.n):
            arms = tuple(
                GuardedCommand(_point_eq(names, pt),
                               Assign((Var(names[i]),),
                                      (IntLit(inst.table[pt][i]),)))
                for pt in inst.points())
            bodies.append(If(arms))

    loop = Do(tuple(GuardedCommand(guard, body) for body in bodies))
    return GclProgram(decls, seq([bottom, loop]))


# ---------------------------------------------------------------------------
# Fixpoint instance text format
# ---------------------------------------------------------------------------

def parse_fixpoint(text: str) -> FixpointInstance:
    """Read the `lfp n h` header plus one `x1 .. xn -> y1 .. yn` line per
    lattice point."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise FixpointError("empty fixpoint description")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "lfp":
        raise FixpointError(f"bad header {lines[0]!r}, expected 'lfp n h'")
    try:
        n, h = int(head[1]), int(head[2])
    except ValueError:
        raise FixpointError(f"bad header {lines[0]!r}") from None
    table: dict[Point, Point] = {}
    for ln in lines[1:]:
        if "->" not in ln:
            raise FixpointError(f"bad table line {ln!r}")
        lhs, rhs = ln.split("->", 1)
        try:
            pt = tuple(int(v) for v in lhs.split())
            img = tuple(int(v) for v in rhs.split())
        except ValueError:
            raise FixpointError(f"bad table line {ln!r}") from None
        if len(pt) != n or len(img) != n:
            raise FixpointError(f"arity mismatch in {ln!r}")
        if pt in table:
            raise FixpointError(f"duplicate table entry for {pt}")
        table[pt] = img
    return FixpointInstance(n, h, table)


def format_fixpoint(inst: FixpointInstance) -> str:
    lines = [f"lfp {inst.n} {inst.height}"]
    for pt in inst.points():
        lhs = " ".join(str(v) for v in pt)
        rhs = " ".join(str(v) for v in inst.table[pt])
        lines.append(f"{lhs} -> {rhs}")
    return "\n".join(lines) + "\n"
