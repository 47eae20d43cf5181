"""Weak-fairness source transformation, fair schedulers, and the
asynchronous least-fixpoint workload.

The transformation applies to one-level nondeterministic programs: an
initialization part followed by a single repetitive command whose bodies
are deterministic, that is, free of `x := ?` and `choice`, with pairwise
exclusive guards in every if and do. Exclusion is proved atom by atom of
the guards' conjunctions (`syntax.conjuncts`); comparisons are evaluated
with their `syntax.BINARY` meanings at a few sample values
(`_atoms_exclusive`). The proof is symmetric, so a command's distinct
atom pairs are each decided at most once, and its guards are compared as
atom sets (`_overlap`): a table `if` of n arms over d distinct atoms
costs at most d(d+1)/2 atom proofs, not one per atom pair of each of its
n(n-1)/2 guard pairs, and each guard is tested against all later ones at
once, on bit masks of the guards that hold each atom.

The transformation introduces one fresh priority variable per guarded
command (`syntax.fresh_names`); an enabled command holding the minimum
priority is selected, its priority is reset arbitrarily, enabled
competitors move up (decrement) and disabled ones are reset. Ignoring
the priority variables, the transformed program's computations are
meant to be the weakly fair ones; until its minimum ranges over the
enabled arms only, they need not be (`transform_wf`).

The fair schedulers run on the engine's single-computation loop
(`engine.run_path`), on the same program points as erratic runs: at the
top loop's point they pick an arm by priority or debt, and everywhere
else they take the one successor of a deterministic step.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import or_
from random import Random
from typing import NamedTuple

from .check import decl_map, type_of
from .engine import FUEL, Config, Failed, Outcome, run_path, step
from .errors import CheckError
from .printer import render_stmt_inline
from .state import State, compile_expr, initial_state
from .syntax import (
    BINARY, COMPARE_BP, Assign, BinOp, BoolLit, Builtin, ChoiceAssign,
    Declaration, Do, Expr, GclProgram, GuardedCommand, If, IntLit,
    RandomAssign, Seq, Skip, Stmt, UnaryOp, Var, conj, conjuncts, disj,
    fresh_names, kept, not_, program_names, seq,
)


class FairnessError(Exception):
    """Shape or precondition violation for the fairness operations."""


class FixpointError(Exception):
    """Bad fixpoint instance: non-monotone, out of range, malformed."""


# ---------------------------------------------------------------------------
# One-level shape recognition
# ---------------------------------------------------------------------------

class OneLevelProgram(NamedTuple):
    """init; do B_1 -> S_1 [] ... [] B_n -> S_n od with deterministic
    init and bodies. The loop's own guards may overlap."""

    decls: tuple[Declaration, ...]
    init: Stmt
    loop: Do


# The comparison operators' meanings; one (left, right) pair per order: <, =, >
_COMPARE = {op: row.meaning for op, row in BINARY.items() if row.power == COMPARE_BP}
_ORDERS = ((0, 1), (0, 0), (1, 0))


def _atoms_exclusive(a: Expr, b: Expr) -> bool:
    """Conservative proof that two atoms cannot hold simultaneously:
    `false`, `e` against `not e`, or two comparisons that no sample makes
    both true. Comparisons of the same operands, or of the same operands
    swapped, are sampled at one pair per order; `x op c` against `x op' d`
    at x = c-1, c, c+1, d-1, d, d+1, since each solution set is a ray, a
    point or a punctured line, and two that meet share a point within 1 of
    c or d."""
    if isinstance(a, BoolLit) and not a.value:
        return True
    if isinstance(b, BoolLit) and not b.value:
        return True
    if isinstance(a, UnaryOp) and a.op == "not" and a.operand == b:
        return True
    if isinstance(b, UnaryOp) and b.op == "not" and b.operand == a:
        return True
    if not (isinstance(a, BinOp) and isinstance(b, BinOp)):
        return False
    fa, fb = _COMPARE.get(a.op), _COMPARE.get(b.op)
    if fa is None or fb is None:
        return False
    same = a.left == b.left and a.right == b.right
    if same or (a.left == b.right and a.right == b.left):
        for l, r in _ORDERS:
            if fa(l, r) and (fb(l, r) if same else fb(r, l)):
                return False
        return True
    if not (a.left == b.left and isinstance(a.right, IntLit)
            and isinstance(b.right, IntLit)):
        return False
    c, d = a.right.value, b.right.value
    for x in (c - 1, c, c + 1, d - 1, d, d + 1):
        if fa(x, c) and fb(x, d):
            return False
    return True


def _deterministic(s: Stmt, where: str) -> str | None:
    """None when syntactically deterministic, else a diagnostic. The walk
    visits statements only, in pre-order: an if or do before its arms'
    bodies, and the first offence found is the one reported."""
    todo = [s]
    while todo:
        stmt = todo.pop()
        if isinstance(stmt, (RandomAssign, ChoiceAssign)):
            return f"{where}: '{render_stmt_inline(stmt)}' is a nondeterministic assignment"
        if isinstance(stmt, Seq):
            todo += reversed(stmt.stmts)
        elif isinstance(stmt, (If, Do)):
            overlap = _overlap([conjuncts(arm.guard) for arm in stmt.arms])
            if overlap is not None:
                i, j = overlap
                return (f"{where}: guards {i + 1} and {j + 1} of "
                        f"'{render_stmt_inline(stmt)[:60]}' may overlap")
            todo += reversed([arm.body for arm in stmt.arms])
    return None


def _overlap(guards: list[list[Expr]]) -> tuple[int, int] | None:
    """The first pair of guards (i, j), i < j, given by their conjunction
    atoms, that may hold together, or None. Two guards are exclusive when
    some atom of one excludes some atom of the other. Exclusion is
    symmetric, so each distinct unordered atom pair is decided at most
    once. Each atom keeps a bit mask of the guards that hold it, and of
    the guards that hold an atom it excludes; guard i excludes the guards
    of the OR of its atoms' masks, and overlaps the first later guard
    missing from it."""
    holders: dict[Expr, int] = {}  # atom -> mask of the guards holding it
    for j, atoms in enumerate(guards):
        for a in atoms:
            holders[a] = holders.get(a, 0) | 1 << j
    excludes: dict[Expr, set[Expr]] = {}
    masks: dict[Expr, int] = {}  # atom -> mask of the guards it excludes

    def excluded(a: Expr) -> int:
        mask = masks.get(a)
        if mask is None:
            # a pair with an atom decided before is read from that atom's set
            out = excludes[a] = {
                b for b in holders
                if (a in excludes[b] if b in excludes else _atoms_exclusive(a, b))}
            mask = masks[a] = reduce(or_, map(holders.__getitem__, out), 0)
        return mask

    later = (1 << len(guards)) - 1
    for i, atoms in enumerate(guards[:-1]):
        later &= later - 1  # the guards after i
        missing = later & ~reduce(or_, map(excluded, atoms), 0)
        if missing:
            return i, (missing & -missing).bit_length() - 1
    return None


def _one_level(p: GclProgram) -> OneLevelProgram | str:
    """The program split into initialization and loop, or the diagnostic
    of why it is not one-level nondeterministic, proved once per program
    and kept with it (`syntax.kept`)."""
    return kept(p, "_shape", lambda: _prove_shape(p))


def _prove_shape(p: GclProgram) -> OneLevelProgram | str:
    body = p.body
    if isinstance(body, Do):
        olp = OneLevelProgram(p.decls, Skip(), body)
    elif isinstance(body, Seq) and body.stmts and isinstance(body.stmts[-1], Do):
        olp = OneLevelProgram(p.decls, seq(list(body.stmts[:-1])), body.stmts[-1])
    else:
        return "no top-level repetitive command in final position"
    bad = _deterministic(olp.init, "initialization")
    for k, arm in enumerate(olp.loop.arms):
        bad = bad or _deterministic(arm.body, f"body of guard {k + 1}")
    return bad or olp


def is_one_level_nondeterministic(p: GclProgram) -> tuple[bool, str | None]:
    """Does the program have the init-plus-single-loop shape with
    deterministic init and loop bodies? Returns (verdict, diagnostic)."""
    olp = _one_level(p)
    return (False, olp) if isinstance(olp, str) else (True, None)


def one_level_of(p: GclProgram) -> OneLevelProgram:
    olp = _one_level(p)
    if isinstance(olp, str):
        raise FairnessError(f"not one-level nondeterministic: {olp}")
    return olp


# ---------------------------------------------------------------------------
# The weak-fairness transformation
# ---------------------------------------------------------------------------

def _min_of(names: list[str]) -> Expr:
    """Binary min over priority variables, folded by halves so that it
    nests ceil(log2 n) deep: min(z1, min(z2, z3)) for three."""
    if len(names) == 1:
        return Var(names[0])
    half = len(names) // 2
    return Builtin("min", (_min_of(names[:half]), _min_of(names[half:])))


def transform_wf(p: GclProgram) -> GclProgram:
    """Compile weak fairness away.

    Emits: init; z_1 := ?; ...; z_n := ?;
    do []_i  B_i and z_i = min(z_1, ..., z_n) ->
         z_i := ?;
         for each j != i: if B_j -> z_j := z_j - 1 [] not B_j -> z_j := ? fi;
         S_i
    od
    with the j-iteration unrolled (n is static). The priority variables
    are fresh integer scalars that do not occur in the input program.

    A known gap, open in ROADMAP: the minimum ranges over every priority,
    not over the enabled arms' only, so the loop can exit while an
    original guard holds. A competitor decremented while enabled and then
    disabled by the selected body keeps a priority below every enabled
    arm's, and no guard of the transformed loop holds.
    """
    olp = one_level_of(p)
    arms = olp.loop.arms
    znames = fresh_names(("z", "zz", "zzz", "zzzz"), len(arms), program_names(p))
    if znames is None:
        raise FairnessError("no fresh 'z' names available")
    zdecls = tuple(Declaration(nm, "int") for nm in znames)
    min_expr = _min_of(znames)
    # competitor j's priority update, built once for every other arm
    updates = [
        If((GuardedCommand(arm.guard, Assign((Var(z),), (BinOp("-", Var(z), IntLit(1)),))),
            GuardedCommand(not_(arm.guard), RandomAssign(z))))
        for arm, z in zip(arms, znames)]

    new_arms = []
    for i, arm in enumerate(arms):
        guard = BinOp("and", arm.guard, BinOp("=", Var(znames[i]), min_expr))
        body = [RandomAssign(znames[i]), *updates[:i], *updates[i + 1:], arm.body]
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


def run_fair(p: GclProgram, s0: State | None = None, policy: str = "weak",
             seed: int = 0, fuel: int = FUEL) -> Outcome:
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
                    fuel: int = FUEL):
    """As run_fair, also returning the scheduling trace: one entry
    (enabled indices, counter snapshot, selected index) per iteration.
    The program's one-level shape is proved once and kept with it."""
    if policy not in ("weak", "strong"):
        raise ValueError(f"unknown policy {policy!r}")
    if fuel < 0:
        raise ValueError("fuel must not be negative")
    loop = one_level_of(p).loop
    rng = Random(seed)
    trace: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
    n = len(loop.arms)
    counters = ([_fresh_priority(rng) for _ in range(n)] if policy == "weak"
                else [0] * n)

    def choose(cfg: Config) -> Config | Failed:
        pt = cfg.point
        # only the final occurrence of the loop is the top loop: a program
        # built through the API may repeat the same object before it
        if pt.head is not loop or pt.next.head is not None:
            exp = step(cfg, 0)
            if exp.failure is not None:
                return exp.failure
            if len(exp.transitions) != 1:
                raise FairnessError(
                    "deterministic body took a nondeterministic step; "
                    "the one-level check should have rejected this program")
            return exp.transitions[0][1]
        s = cfg.state
        enabled = [i for i, on in enumerate(pt.code(s)) if on]
        if not enabled:
            return Config(pt.next, s)
        if policy == "strong":
            for i in enabled:
                counters[i] += 1
        best = (min if policy == "weak" else max)(counters[i] for i in enabled)
        candidates = [i for i in enabled if counters[i] == best]
        pick = candidates[rng.randrange(len(candidates))]
        trace.append((tuple(enabled), tuple(counters), pick))
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
        return Config(pt.arm(pick), s)

    return run_path(p, s0, fuel, choose), trace


# ---------------------------------------------------------------------------
# Least fixpoints by chaotic iteration
# ---------------------------------------------------------------------------

LatticePoint = tuple[int, ...]  # a point of the product lattice


class FixpointInstance:
    """A monotone operator on the n-fold product of the chain 0..height.

    Holds an explicit table point -> point; optionally also per-component
    expressions over variables x1..xn, in which case the emitted program
    uses them directly instead of a table dispatch.
    """

    def __init__(self, n: int, height: int,
                 table: dict[LatticePoint, LatticePoint],
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
                   table: dict[LatticePoint, LatticePoint]) -> "FixpointInstance":
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
        components = tuple(compile_expr(e) for e in exprs)
        layout_state = initial_state(decls)
        table: dict[LatticePoint, LatticePoint] = {}
        for pt in itertools.product(range(height + 1), repeat=n):
            s = layout_state
            for k, v in enumerate(pt):
                s = s.set_scalar(f"x{k + 1}", v)
            img = tuple(f(s) for f in components)
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
    def leq(a: LatticePoint, b: LatticePoint) -> bool:
        return all(x <= y for x, y in zip(a, b))

    def validate_monotone(self) -> None:
        """Exhaustive monotonicity check on covering pairs: each point
        against the points one step above it in one component. On a
        product of chains every a <= b is a run of such steps, so this
        decides F(a) <= F(b) for all of them in O(N n) comparisons."""
        table = self.table
        for a in self.points():
            for k in range(self.n):
                if a[k] == self.height:
                    continue
                b = a[:k] + (a[k] + 1,) + a[k + 1:]
                if not self.leq(table[a], table[b]):
                    raise FixpointError(
                        f"not monotone: {a} <= {b} but F{a} = {table[a]} "
                        f"!<= F{b} = {table[b]}")


def kleene_lfp(inst: FixpointInstance) -> LatticePoint:
    """Least fixpoint by synchronous iteration from the bottom element.
    Validates monotonicity first; serves as the oracle for the
    asynchronous program."""
    inst.validate_monotone()
    x: LatticePoint = (0,) * inst.n
    while True:
        nxt = inst.table[x]
        if nxt == x:
            return x
        x = nxt


def _point_eq(names: list[str], pt: LatticePoint) -> Expr:
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
    table: dict[LatticePoint, LatticePoint] = {}
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
