"""Shared-variable parallel fragment: control-flow labeling, direct
interleaving semantics, and the control-variable translation.

Each sequential component is cut into atomic actions, one per control
transfer: a guard evaluation (true and false branches of while/if heads,
await) or a single assignment. The translation introduces one control
variable per component and lists every action as a guarded command of a
single loop; a final alternative command aborts unless every component
sits at its exit, which turns a deadlock of the original program into a
failure.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from .engine import (
    Expansion, ExplorationReport, Failed, GraphSearch, Limits, SubSearches,
)
from .errors import CheckError, EvalError
from .state import State, compile_assign, compile_expr, initial_state
from .syntax import (
    Assign, Await, BinOp, Declaration, Do, Expr, GclProgram,
    GuardedCommand, If, IfElse, IntLit, ParSystem, Seq, Skip, Stmt, Var,
    While, conj, not_, seq, stmt_names,
)


@dataclass(frozen=True, slots=True)
class AtomicAction:
    """One control transfer: from `source`, when `guard` holds (None =
    always), perform `effect` (None = none) and move to `target`.
    Labels are indices into LabeledComponent.labels."""

    source: int
    guard: Expr | None
    effect: Assign | None
    target: int


@dataclass(frozen=True, slots=True)
class LabeledComponent:
    """Control-flow graph of one component. `labels` names the control
    points in allocation order; the exit label is always last and has no
    outgoing action."""

    actions: tuple[AtomicAction, ...]
    entry: int
    exit: int
    labels: tuple[str, ...]


def _label_name(k: int) -> str:
    letters = string.ascii_lowercase
    return letters[k] if k < len(letters) else f"l{k}"


_EXIT = -1  # placeholder for the component exit while wiring


def label_component(component: Stmt) -> LabeledComponent:
    """Cut a sequential component into atomic actions.

    Control points are labelled in syntactic order (a while head before
    its body, an if head before its branches); the component exit gets
    the final label. A single assignment yields two labels and one
    action; `await B` yields one guarded, effect-free action.
    """
    actions: list[AtomicAction] = []
    exit_ = _wire(component, 0, _EXIT, 1, actions)
    actions = [AtomicAction(a.source, a.guard, a.effect,
                            exit_ if a.target == _EXIT else a.target)
               for a in actions]
    labels = tuple(_label_name(k) for k in range(exit_ + 1))
    return LabeledComponent(tuple(actions), 0, exit_, labels)


def _wire(s: Stmt, entry: int, exit_: int, free: int,
          actions: list[AtomicAction]) -> int:
    """Append the actions that take `s` from `entry` to `exit_`, labelling
    its inner control points from `free` on; returns the next free label."""
    if isinstance(s, Skip):
        actions.append(AtomicAction(entry, None, None, exit_))
    elif isinstance(s, Assign):
        actions.append(AtomicAction(entry, None, s, exit_))
    elif isinstance(s, Await):
        actions.append(AtomicAction(entry, s.cond, None, exit_))
    elif isinstance(s, Seq):
        for sub in s.stmts[:-1]:  # each ends where the next one starts
            entry, free = free, _wire(sub, entry, free, free + 1, actions)
        free = _wire(s.stmts[-1], entry, exit_, free, actions)
    elif isinstance(s, While):
        actions.append(AtomicAction(entry, s.cond, None, free))
        actions.append(AtomicAction(entry, not_(s.cond), None, exit_))
        free = _wire(s.body, free, entry, free + 1, actions)
    elif isinstance(s, IfElse):
        then_entry, else_entry = free, free + 1
        actions.append(AtomicAction(entry, s.cond, None, then_entry))
        actions.append(AtomicAction(entry, not_(s.cond), None, else_entry))
        free = _wire(s.then_branch, then_entry, exit_, free + 2, actions)
        free = _wire(s.else_branch, else_entry, exit_, free, actions)
    else:
        raise CheckError(f"{type(s).__name__} is outside the parallel fragment")
    return free


def label_components(sys: ParSystem) -> list[LabeledComponent]:
    return [label_component(c) for c in sys.components]


def control_variable_names(sys: ParSystem) -> list[str]:
    """Fresh cv names, one per component."""
    taken = {d.name for d in sys.decls}
    for stmt in (sys.init, sys.epilogue) + sys.components:
        stmt_names(stmt, taken)
    n = len(sys.components)
    for prefix in ("cv", "cvv", "cvvv"):
        names = [f"{prefix}{k + 1}" for k in range(n)]
        if not any(nm in taken for nm in names):
            return names
    raise CheckError("no fresh control-variable names available")


def translate_par(sys: ParSystem) -> GclProgram:
    """Flatten the parallel composition into one guarded-commands program.

    init; cv_i := entry_i; a single loop with one guarded command per
    atomic action (guard `cv_i = source [and action guard]`, body
    `[effect;] cv_i := target`); then `if /\\ cv_i = exit_i -> skip fi`
    (failing exactly on deadlock) and the epilogue. Control points are
    encoded as small integers; label_component fixes the numbering.
    """
    comps = label_components(sys)
    cvs = control_variable_names(sys)
    decls = sys.decls + tuple(Declaration(nm, "int") for nm in cvs)

    stmts: list[Stmt] = []
    if not isinstance(sys.init, Skip):
        stmts.append(sys.init)
    stmts.append(Assign(tuple(Var(nm) for nm in cvs),
                        tuple(IntLit(c.entry) for c in comps)))

    arms = []
    for nm, comp in zip(cvs, comps):
        for act in comp.actions:
            guard: Expr = BinOp("=", Var(nm), IntLit(act.source))
            if act.guard is not None:
                guard = BinOp("and", guard, act.guard)
            move: Stmt = Assign((Var(nm),), (IntLit(act.target),))
            body = move if act.effect is None else seq([act.effect, move])
            arms.append(GuardedCommand(guard, body))
    stmts.append(Do(tuple(arms)))

    done = conj([BinOp("=", Var(nm), IntLit(c.exit))
                 for nm, c in zip(cvs, comps)])
    stmts.append(If((GuardedCommand(done, Skip()),)))
    if not isinstance(sys.epilogue, Skip):
        stmts.append(sys.epilogue)
    return GclProgram(decls, seq(stmts))


def label_table(sys: ParSystem) -> str:
    """Human-readable label/integer table matching translate_par's
    control-variable encoding, as comment lines."""
    comps = label_components(sys)
    cvs = control_variable_names(sys)
    lines = []
    for nm, comp in zip(cvs, comps):
        pairs = " ".join(f"{lab}={k}" for k, lab in enumerate(comp.labels))
        lines.append(f"# {nm}: {pairs} (entry {comp.labels[comp.entry]}, "
                     f"exit {comp.labels[comp.exit]})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Direct interleaving semantics
# ---------------------------------------------------------------------------

def run_par_direct(sys: ParSystem, s0: State | None = None,
                   lim: Limits = Limits()) -> ExplorationReport:
    """Explore the interleavings of the labelled components directly,
    without translating.

    At every step any component with an enabled action advances by that
    one action. When all components sit at their exits the epilogue runs
    and the run terminates properly; a configuration where some component
    is unfinished but nothing can move is a deadlock failure.
    """
    if s0 is None:
        s0 = initial_state(sys.decls)
    comps = label_components(sys)
    # per component: source label -> [(target, compiled guard, compiled
    # effect, step label)]
    by_source = []
    for ci, comp in enumerate(comps):
        table: dict[int, list] = {}
        for act in comp.actions:
            table.setdefault(act.source, []).append((
                act.target,
                None if act.guard is None else compile_expr(act.guard),
                None if act.effect is None else compile_assign(act.effect),
                f"c{ci + 1}:{comp.labels[act.source]}->{comp.labels[act.target]}"))
        by_source.append(table)
    exits = tuple(c.exit for c in comps)
    subs = SubSearches(lim, sys)

    # nodes are (cvs, state) while running and ("done", state) after the
    # epilogue; the latter are terminal (final_of), so never expanded
    def expand(node) -> Expansion:
        cvs, s = node
        if cvs == exits:
            fin: list = []
            outs = subs.absorb(sys.epilogue, s, fin)
            trans = [(f"epilogue#{k}", ("done", sf)) for k, sf in enumerate(outs)]
            return Expansion(transitions=trans, side_outcomes=fin)
        trans = []
        extra: list = []
        for ci, table in enumerate(by_source):
            for target, guard, effect, label in table.get(cvs[ci], ()):
                if guard is not None:
                    try:
                        if not guard(s):
                            continue
                    except EvalError as e:
                        return Expansion(failure=Failed(e.reason, s, e.detail))
                s2 = s
                if effect is not None:
                    try:
                        s2 = effect(s)
                    except EvalError as e:
                        extra.append(Failed(e.reason, s, e.detail))
                        continue
                trans.append((label, (cvs[:ci] + (target,) + cvs[ci + 1:], s2)))
        if not trans and not extra:
            return Expansion(failure=Failed("deadlock", s, _stuck_detail(cvs, comps)))
        return Expansion(transitions=trans, side_outcomes=extra)

    search = GraphSearch(lim, expand,
                         lambda nd: f"{nd[0]} @ {nd[1].canonical()}",
                         lambda nd: nd[1] if nd[0] == "done" else None)
    init_outcomes: list = []
    entries = tuple(c.entry for c in comps)
    for s in subs.absorb(sys.init, s0, init_outcomes):
        search.run((entries, s))
    for o in init_outcomes:
        search.close(o)
    return search.report(subs.counts)


def _stuck_detail(cvs, comps) -> str:
    waiting = [f"component {k + 1} at {comp.labels[cvs[k]]}"
               for k, comp in enumerate(comps) if cvs[k] != comp.exit]
    return "; ".join(waiting)
