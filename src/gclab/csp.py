"""Direct semantics of the communication fragment and its translation
into a single guarded-commands loop.

Processes communicate only through the i/o commands in their main-loop
guards. A matching input/output pair whose boolean guard parts both hold
can be passed jointly; the communication acts as an assignment of the
output expression to the input target, after which both guard bodies run.
The translation lists one guarded command per matching pair; the final
states of properly terminating runs agree with the translated program's
terminal states that satisfy the all-guards-false condition.

A system keeps the direct semantics' table of compiled guard parts,
corresponding pairs and compiled joint effects, as `syntax` says of what
a program keeps: a system run many times is paired and compiled once.
"""

from __future__ import annotations

from typing import NamedTuple

from .check import decl_map, type_of
from .engine import Expansion, ExplorationReport, Failed, Limits, explore_system
from .errors import CheckError, EvalError
from .state import State, compile_assign, compile_expr
from .syntax import (
    Assign, BinOp, CspSystem, Do, Expr, GclProgram, GuardedCommand, If,
    Input, IoCommand, Output, Skip, Stmt, Var, conj, kept, not_, seq,
)


class CorrespondencePair(NamedTuple):
    """Indices (process i, guard j) and (process r, guard s) of a matching
    input/output pair with i < r."""

    i: int
    j: int
    r: int
    s: int


def _io_type(io: IoCommand, decls) -> str:
    if isinstance(io, Input):
        return decls[io.target].kind
    return type_of(io.expr, decls)


def correspondence_pairs(sys: CspSystem) -> set[CorrespondencePair]:
    """All (i, j, r, s) with i < r whose i/o commands correspond: one
    input and one output, each naming the other's process, same value
    type."""
    decls = decl_map(sys.all_decls())
    names = [p.name for p in sys.processes]
    out: set[CorrespondencePair] = set()
    for i, pi in enumerate(sys.processes):
        for r in range(i + 1, len(sys.processes)):
            pr = sys.processes[r]
            for j, gi in enumerate(pi.loop):
                for s, gr in enumerate(pr.loop):
                    a, b = gi.io, gr.io
                    if isinstance(a, Input) == isinstance(b, Input):
                        continue
                    if a.peer != names[r] or b.peer != names[i]:
                        continue
                    if _io_type(a, decls) != _io_type(b, decls):
                        continue
                    out.add(CorrespondencePair(i, j, r, s))
    return out


def _pair_guards(sys: CspSystem) -> list[tuple[CorrespondencePair,
                                               GuardedCommand, GuardedCommand]]:
    """Every corresponding pair in order, with its two guarded commands."""
    return [(pair, sys.processes[pair.i].loop[pair.j], sys.processes[pair.r].loop[pair.s])
            for pair in sorted(correspondence_pairs(sys))]


def eff(a1: IoCommand, a2: IoCommand) -> Stmt:
    """Joint effect of a matching pair: the assignment target := value.
    Symmetric in its arguments."""
    if isinstance(a1, Input) and isinstance(a2, Output):
        return Assign((Var(a1.target),), (a2.expr,))
    if isinstance(a1, Output) and isinstance(a2, Input):
        return Assign((Var(a2.target),), (a1.expr,))
    raise CheckError("i/o commands do not correspond: need one input and one output")


def term_condition(sys: CspSystem) -> Expr:
    """Conjunction of the negated boolean guard parts of every process;
    separates proper termination from deadlock after translation."""
    parts = []
    for p in sys.processes:
        for g in p.loop:
            parts.append(not_(g.cond))
    return conj(parts)


def translate_csp(sys: CspSystem) -> GclProgram:
    """One guarded-commands program equivalent to the whole system.

    Process initializations run in order, then a single repetitive
    command offers one arm per corresponding pair: both boolean parts as
    the guard; the communication assignment followed by both bodies as
    the command. With no corresponding pairs the loop is dropped. No new
    variables are introduced.
    """
    decls = sys.all_decls()
    inits = [p.init for p in sys.processes if not isinstance(p.init, Skip)]
    arms = [GuardedCommand(BinOp("and", gi.cond, gr.cond),
                           seq([eff(gi.io, gr.io), gi.body, gr.body]))
            for _, gi, gr in _pair_guards(sys)]
    stmts: list[Stmt] = list(inits)
    if arms:
        stmts.append(Do(tuple(arms)))
    return GclProgram(decls, seq(stmts))


def translate_csp_checked(sys: CspSystem) -> GclProgram:
    """Translation followed by `if TERM -> skip fi`, turning any deadlock
    of the original system into an explicit failure."""
    base = translate_csp(sys)
    check = If((GuardedCommand(term_condition(sys), Skip()),))
    return GclProgram(base.decls, seq([base.body, check]))


# ---------------------------------------------------------------------------
# Direct semantics
# ---------------------------------------------------------------------------

def _pair_table(sys: CspSystem) -> tuple[list[list], list[tuple]]:
    """The compiled boolean guard parts of each process, and (pair,
    compiled joint effect, the two guard bodies) for every corresponding
    pair in pair order, kept with the system."""
    return kept(sys, "_actions", lambda: (
        [[compile_expr(g.cond) for g in p.loop] for p in sys.processes],
        [(pair, compile_assign(eff(gi.io, gr.io)), gi.body, gr.body)
         for pair, gi, gr in _pair_guards(sys)]))


def run_csp(sys: CspSystem, s0: State | None = None,
            lim: Limits = Limits()) -> ExplorationReport:
    """Exhaustive exploration of the system's own semantics.

    Initializations run to completion first (process variables are
    disjoint, so their order cannot matter; any internal nondeterminism
    still branches). Then, repeatedly, any corresponding pair whose
    boolean parts both hold communicates and runs both guard bodies to
    completion as one atomic joint step. Termination is proper when every
    boolean guard part of every process is false; a stuck configuration
    with some guard still true is a deadlock failure.
    """
    conds, pairs = _pair_table(sys)
    # the last state whose parts were evaluated, and their values or the
    # failure that stopped them: the search asks `final_of` and then
    # `expand` about one node, and the parts are evaluated once for both
    last: list = [None, None]

    def parts(s: State) -> list[list[bool]] | Failed:
        if last[0] is not s:
            try:
                value = [[bool(cond(s)) for cond in row] for row in conds]
            except EvalError as e:
                value = Failed(e.reason, s, e.detail)
            last[0], last[1] = s, value
        return last[1]

    def final_of(s: State) -> State | None:
        enabled = parts(s)
        # terminated when `term_condition` holds, that is, no part is
        # true; a failed part is not final, and expand() reports it
        if enabled.__class__ is Failed or any(map(any, enabled)):
            return None
        return s

    def expand(s: State, absorb) -> Expansion:
        enabled = parts(s)
        if enabled.__class__ is Failed:
            return Expansion(failure=enabled)
        trans: list[tuple[str, State]] = []
        extra: list = []
        attempted = False
        for pair, joint, bi, br in pairs:
            if not (enabled[pair.i][pair.j] and enabled[pair.r][pair.s]):
                continue
            attempted = True
            try:
                s1 = joint(s)
            except EvalError as e:
                extra.append(Failed(e.reason, s, e.detail))
                continue
            k = 0
            for sm in absorb(bi, s1, extra):
                for sf in absorb(br, sm, extra):
                    label = f"comm({pair.i},{pair.j},{pair.r},{pair.s})#{k}"
                    trans.append((label, sf))
                    k += 1
        if not attempted:
            # guards are live somewhere (final_of said no) but no pair matches
            return Expansion(failure=Failed("deadlock", s, "no corresponding pair enabled"))
        return Expansion(transitions=trans, side_outcomes=extra)

    return explore_system(sys, s0, lim, [p.init for p in sys.processes], lambda s: s,
                          expand, State.canonical, final_of)
