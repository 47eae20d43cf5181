"""Independent oracles for the test suite.

Everything here recomputes expected results by a route separate from the
implementation under test: a breadth-first enumerator with its own
transition function, classical algorithms (gcd, sorting, argmax, triple
scan, permutation backtracking), and exhaustive enumerators for monotone
operators, fair-scheduler reachability and small LTS families.
"""

from __future__ import annotations

import itertools
from collections import deque
from random import Random

from gclab.errors import EvalError
from gclab.state import State, initial_state
from gclab.syntax import (
    ArrayRef, Assign, ChoiceAssign, Do, Fail, GclProgram, If, RandomAssign,
    Seq, Skip,
)
from gclab.equiv import Lts

from eval_reference import eval_expr

# ---------------------------------------------------------------------------
# Breadth-first state-space enumerator (independent of engine.step)
# ---------------------------------------------------------------------------

# Expressions are evaluated by the tree walk of `eval_reference`, and
# assignments written by `_assign`, so no closure of `state.compile_expr`
# is on the oracle's side of a comparison.


def _assign(targets, values, s: State) -> State:
    """Write `values` to `targets` at once: every target index is read in
    `s` before any write, and two targets at one location fail."""
    locs = [(t.name, eval_expr(t.index, s) if isinstance(t, ArrayRef) else None)
            for t in targets]
    if len(set(locs)) != len(locs):
        raise EvalError("parallel assignment targets collide", reason="aliasing")
    for (name, index), v in zip(locs, values):
        s = s.set_scalar(name, v) if index is None else s.set_cell(name, index, v)
    return s


def _norm(residue):
    while residue and isinstance(residue[0], Seq):
        residue = residue[0].stmts + residue[1:]
    return residue


def _successors(residue, s: State, choice_bound: int):
    """All successor (residue, state) pairs, or the string 'failed'."""
    head = residue[0]
    rest = residue[1:]
    if isinstance(head, Skip):
        return [(_norm(rest), s)]
    if isinstance(head, Fail):
        return "failed"
    if isinstance(head, Assign):
        try:
            vals = tuple(eval_expr(v, s) for v in head.values)
            return [(_norm(rest), _assign(head.targets, vals, s))]
        except EvalError:
            return "failed"
    if isinstance(head, RandomAssign):
        return [(_norm(rest), s.set_scalar(head.target, v))
                for v in range(choice_bound + 1)]
    if isinstance(head, ChoiceAssign):
        try:
            b = eval_expr(head.bound, s)
        except EvalError:
            return "failed"
        if b < 1:
            return "failed"
        return [(_norm(rest), s.set_scalar(head.target, v))
                for v in range(1, b + 1)]
    if isinstance(head, If):
        out = []
        for arm in head.arms:
            try:
                if eval_expr(arm.guard, s):
                    out.append((_norm((arm.body,) + rest), s))
            except EvalError:
                return "failed"
        return out if out else "failed"
    if isinstance(head, Do):
        out = []
        for arm in head.arms:
            try:
                if eval_expr(arm.guard, s):
                    out.append((_norm((arm.body, head) + rest), s))
            except EvalError:
                return "failed"
        return out if out else [(_norm(rest), s)]
    raise AssertionError(f"oracle cannot step {type(head).__name__}")


def bfs_outcomes(p: GclProgram, s0: State | None = None, choice_bound: int = 8,
                 max_depth: int = 10 ** 9, max_states: int = 200_000):
    """Layered breadth-first enumeration up to max_depth steps.

    Returns (terminated canonical-state set, failed flag, revisit flag,
    truncated flag); revisit means some configuration was generated twice
    (a join or a loop in the reachable graph).
    """
    if s0 is None:
        s0 = initial_state(p.decls)
    start = (_norm((p.body,)), s0)
    seen = {start}
    frontier = [start]
    terminated: set[str] = set()
    failed = False
    revisit = False
    truncated = False
    depth = 0
    while frontier and depth <= max_depth:
        nxt = []
        for residue, s in frontier:
            if not residue:
                terminated.add(s.canonical())
                continue
            if depth == max_depth:
                truncated = True
                continue
            succ = _successors(residue, s, choice_bound)
            if succ == "failed":
                failed = True
                continue
            for node in succ:
                if node in seen:
                    revisit = True
                    continue
                if len(seen) >= max_states:
                    truncated = True
                    continue
                seen.add(node)
                nxt.append(node)
        frontier = nxt
        depth += 1
    if frontier:
        truncated = True
    return terminated, failed, revisit, truncated


def bfs_terminated(p: GclProgram, s0: State | None = None, choice_bound: int = 8,
                   max_depth: int = 10 ** 9) -> set[str]:
    terms, _, _, _ = bfs_outcomes(p, s0, choice_bound, max_depth)
    return terms


# ---------------------------------------------------------------------------
# Classical oracles
# ---------------------------------------------------------------------------

def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def argmax_set(values):
    top = max(values)
    return {i for i, v in enumerate(values) if v == top}


def first_common_triple(a, b, c):
    """Lexicographically smallest (i, j, k) with a[i] = b[j] = c[k]."""
    best = None
    for i in range(len(a)):
        for j in range(len(b)):
            for k in range(len(c)):
                if a[i] == b[j] == c[k]:
                    cand = (i, j, k)
                    if best is None or cand < best:
                        best = cand
    return best


def queens_solutions():
    """All 92 eight-queens solutions as 1-based row tuples, by an
    independent permutation filter."""
    out = []
    for perm in itertools.permutations(range(1, 9)):
        ok = True
        for i in range(8):
            for j in range(i + 1, 8):
                if abs(perm[i] - perm[j]) == j - i:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(perm)
    return out


def blank_filtered(cells):
    """The SFR pipeline's intended output: drop zeros, keep the rest."""
    return [v for v in cells if v != 0]


def zero_search_k(ia):
    for idx, v in enumerate(ia, start=1):
        if v > 0:
            return idx
    return len(ia) + 1


# ---------------------------------------------------------------------------
# Monotone operators on products of chains
# ---------------------------------------------------------------------------

def monotone_component_maps(n: int, height: int):
    """All monotone maps from the product of n chains 0..height to the
    chain 0..height, as dicts."""
    pts = sorted(itertools.product(range(height + 1), repeat=n))
    below = {p: [q for q in pts if all(x <= y for x, y in zip(q, p)) and q != p]
             for p in pts}
    out = []

    def rec(k: int, acc: dict):
        if k == len(pts):
            out.append(dict(acc))
            return
        p = pts[k]
        lo = max((acc[q] for q in below[p]), default=0)
        for v in range(lo, height + 1):
            acc[p] = v
            rec(k + 1, acc)
        del acc[p]

    rec(0, {})
    return out


def chaotic_reachable(table, n, start=None):
    """States reachable by asynchronous single-component updates."""
    x0 = start or (0,) * n
    seen = {x0}
    todo = deque([x0])
    while todo:
        x = todo.popleft()
        fx = table[x]
        if fx == x:
            continue
        for i in range(n):
            y = x[:i] + (fx[i],) + x[i + 1:]
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def has_stuttering_cycle(table, n) -> bool:
    """Some reachable non-fixpoint state where one component's update is
    a no-op: the asynchronous program can spin there forever."""
    for x in chaotic_reachable(table, n):
        fx = table[x]
        if fx == x:
            continue
        if any(fx[i] == x[i] for i in range(n)):
            return True
    return False


# ---------------------------------------------------------------------------
# Weak-fair scheduler reachability (oracle for the fairness translation)
# ---------------------------------------------------------------------------

def weak_fair_reachable(guards, exec_body, s0, bound: int,
                        max_nodes: int = 300_000):
    """Exhaustively enumerate weak-fair-scheduler executions with priority
    resets ranging over 0..bound.

    `guards` are evaluated by `eval_reference`; `exec_body(i, state)` runs body
    i deterministically. Returns the canonical terminal state set. The
    scheduler selects an enabled command with the minimum priority
    (branching over ties), resets its priority to any value in 0..bound,
    decrements enabled competitors and resets disabled ones to any value
    in 0..bound.
    """
    n = len(guards)
    resets = range(bound + 1)
    init_nodes = {(s0, z) for z in itertools.product(resets, repeat=n)}
    seen = set(init_nodes)
    todo = deque(init_nodes)
    finals: set[str] = set()
    while todo:
        if len(seen) > max_nodes:
            raise AssertionError("fair-reachability oracle exceeded its node budget")
        s, z = todo.popleft()
        enabled = [i for i in range(n) if eval_expr(guards[i], s)]
        if not enabled:
            finals.add(s.canonical())
            continue
        best = min(z[i] for i in enabled)
        for pick in [i for i in enabled if z[i] == best]:
            s2 = exec_body(pick, s)
            others = []
            for j in range(n):
                if j == pick:
                    others.append(None)  # filled by reset
                elif j in enabled:
                    others.append((z[j] - 1,))
                else:
                    others.append(None)
            slots = [resets if o is None else o for o in others]
            for combo in itertools.product(*slots):
                node = (s2, tuple(combo))
                if node not in seen:
                    seen.add(node)
                    todo.append(node)
    return finals


# ---------------------------------------------------------------------------
# LTS families for the testing-equivalence spot checks
# ---------------------------------------------------------------------------

def all_two_state_systems(alphabet=("a", "b")):
    """Every tau-free system over two states with initial state s0."""
    states = ("s0", "s1")
    edges = [(s, lab, t) for s in states for lab in alphabet for t in states]
    out = []
    for mask in range(1 << len(edges)):
        trans = tuple(e for k, e in enumerate(edges) if mask >> k & 1)
        out.append(Lts(states, alphabet, trans, "s0"))
    return out


def random_system(rng: Random, n_states: int, alphabet=("a", "b"),
                  allow_tau: bool = True) -> Lts:
    states = tuple(f"s{k}" for k in range(n_states))
    labels = list(alphabet) + (["tau"] if allow_tau else [])
    trans = []
    for s in states:
        for lab in labels:
            for t in states:
                if rng.random() < 0.25:
                    trans.append((s, lab, t))
    return Lts(states, tuple(alphabet), tuple(trans), "s0")


def divergence_free(l: Lts) -> bool:
    from gclab.equiv import DivergenceError, max_refusals
    try:
        max_refusals(l, 0)
        return True
    except DivergenceError:
        return False


def canonical_failure_test(trace, refusal, alphabet) -> Lts:
    """The test that a process must-fails exactly when it can follow the
    trace into a stable state refusing the whole refusal set (or die
    refusing everything along the way): trace path with success escapes
    on every deviation, then the refusal set offered toward success."""
    k = len(trace)
    states = tuple(f"u{m}" for m in range(k + 1)) + ("ok",)
    trans = []
    for m, lab in enumerate(trace):
        trans.append((f"u{m}", lab, f"u{m + 1}"))
        for other in alphabet:
            if other != lab:
                trans.append((f"u{m}", other, "ok"))
    for x in sorted(refusal):
        trans.append((f"u{k}", x, "ok"))
    return Lts(states, tuple(alphabet), tuple(trans), "u0", frozenset({"ok"}))


def all_tree_tests(depth: int, alphabet=("a", "b")):
    """Every tree-shaped test of the given depth bound with at least one
    success state."""
    counter = itertools.count()

    def build(d):
        """Yields (states, transitions, success, root) pieces."""
        for marked in (False, True):
            if d == 0:
                root = f"n{next(counter)}"
                yield ((root,), (), frozenset({root}) if marked else frozenset(), root)
                continue
            kids = []
            for lab in alphabet:
                opts = [None] + list(build(d - 1))
                kids.append([(lab, o) for o in opts])
            for combo in itertools.product(*kids):
                root = f"n{next(counter)}"
                states = [root]
                trans = []
                succ = set()
                if marked:
                    succ.add(root)
                for lab, opt in combo:
                    if opt is None:
                        continue
                    cs, ct, csucc, croot = opt
                    states.extend(cs)
                    trans.extend(ct)
                    trans.append((root, lab, croot))
                    succ |= csucc
                yield (tuple(states), tuple(trans), frozenset(succ), root)

    tests = []
    for states, trans, succ, root in build(depth):
        if succ:
            tests.append(Lts(states, tuple(alphabet), trans, root, succ))
    return tests


def random_tree_test(rng: Random, depth: int, alphabet=("a", "b")) -> Lts:
    counter = itertools.count()
    states = []
    trans = []
    succ = set()

    def build(d):
        me = f"n{next(counter)}"
        states.append(me)
        if rng.random() < 0.25:
            succ.add(me)
        if d > 0:
            for lab in alphabet:
                if rng.random() < 0.6:
                    child = build(d - 1)
                    trans.append((me, lab, child))
        return me

    root = build(depth)
    if not succ:
        succ.add(states[-1])
    return Lts(tuple(states), tuple(alphabet), tuple(trans), root,
               frozenset(succ))
