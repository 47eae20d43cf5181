"""Differential tests: random inputs, independently computed answers.

The generators are seeded, so failures reproduce; the comparison targets
are the components with the subtlest logic (exploration with memoization
and bound-aware re-expansion, partition refinement, the failures model).
"""

import itertools
from random import Random

from gclab.engine import Divergent, Limits, Terminated, explore_demonic, replay
from gclab.equiv import Lts, bisimilar, failures, max_refusals
from gclab.parser import parse_gcl
from gclab.printer import render
from gclab.state import initial_state
from gclab.syntax import (
    Assign, BinOp, ChoiceAssign, Declaration, Do, Fail, GclProgram,
    GuardedCommand, If, IntLit, RandomAssign, Skip, Var, seq,
)
from gclab.check import check_program

from oracles import bfs_outcomes, random_system

VARS = ("x", "y")


def _expr(rng: Random, depth: int):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return IntLit(rng.randint(-2, 3))
        return Var(rng.choice(VARS))
    op = rng.choice(["+", "-", "*"])
    return BinOp(op, _expr(rng, depth - 1), _expr(rng, depth - 1))


def _guard(rng: Random):
    op = rng.choice(["<", "<=", "=", "!=", ">", ">="])
    return BinOp(op, _expr(rng, 1), _expr(rng, 1))


def _stmt(rng: Random, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        choice = rng.random()
        if choice < 0.70:
            return Assign((Var(rng.choice(VARS)),), (_expr(rng, 2),))
        if choice < 0.80:
            return ChoiceAssign(rng.choice(VARS), IntLit(rng.randint(1, 3)))
        if choice < 0.88:
            return RandomAssign(rng.choice(VARS))
        if choice < 0.94:
            return Skip()
        return Fail()
    if roll < 0.65:
        return seq([_stmt(rng, depth - 1) for _ in range(rng.randint(2, 3))])
    arms = tuple(GuardedCommand(_guard(rng), _stmt(rng, depth - 1))
                 for _ in range(rng.randint(1, 3)))
    return If(arms) if rng.random() < 0.6 else Do(arms)


def _program(rng: Random):
    decls = tuple(Declaration(v, "int") for v in VARS)
    return GclProgram(decls, _stmt(rng, 3))


def test_random_programs_round_trip():
    rng = Random(1357)
    for _ in range(300):
        p = _program(rng)
        check_program(p)
        assert parse_gcl(render(p)) == p


def test_explorer_matches_bfs_oracle_on_random_programs():
    """Terminated-state sets within a depth budget agree between the
    memoizing depth-first explorer and the layered breadth-first oracle,
    and so does the presence of failures."""
    rng = Random(8642)
    checked = 0
    for _ in range(250):
        p = _program(rng)
        for depth in (8, 14):
            lim = Limits(max_depth=depth, choice_bound=3, max_configs=50_000)
            rep = explore_demonic(p, lim=lim)
            mine = {o.state.canonical() for o in rep.outcomes
                    if isinstance(o, Terminated)}
            terms, failed, _, truncated = bfs_outcomes(
                p, choice_bound=3, max_depth=depth, max_states=50_000)
            if truncated and rep.configs >= lim.max_configs:
                continue  # both sides ran out of room; sets incomparable
            assert mine == terms, render(p)
            from gclab.engine import Failed
            assert rep.has(Failed) == failed, render(p)
            checked += 1
    assert checked > 300


def test_every_lasso_of_random_programs_replays():
    """Every `Divergent` witness is a lasso of the program: following its
    stem and then its cycle returns to the stem's residue, and to the
    stem's very configuration when the lasso is exact."""
    rng = Random(2468)
    lim = Limits(max_depth=20, choice_bound=3, max_configs=20_000)
    exact = inexact = 0
    for _ in range(600):
        p = _program(rng)
        s0 = initial_state(p.decls)
        for o in explore_demonic(p, s0, lim).outcomes:
            if not isinstance(o, Divergent):
                continue
            c1 = replay(p, s0, o.stem, lim.choice_bound)
            c2 = replay(p, s0, o.stem + o.cycle, lim.choice_bound)
            assert c1.residue == c2.residue, render(p)
            if o.exact:
                assert c1 == c2, render(p)
                exact += 1
            else:
                inexact += 1
    assert exact > 200 and inexact > 10


# ---------------------------------------------------------------------------
# bisimilarity against a naive greatest-fixpoint computation
# ---------------------------------------------------------------------------

def _naive_bisimilar(p: Lts, q: Lts) -> bool:
    pmv, qmv = p.moves(), q.moves()
    labels = sorted(set(p.alphabet) | set(q.alphabet) | {"tau"})
    rel = {(a, b) for a in p.states for b in q.states}
    changed = True
    while changed:
        changed = False
        for (a, b) in sorted(rel):
            ok = True
            for lab in labels:
                for a2 in pmv[a].get(lab, ()):
                    if not any((a2, b2) in rel for b2 in qmv[b].get(lab, ())):
                        ok = False
                        break
                if not ok:
                    break
                for b2 in qmv[b].get(lab, ()):
                    if not any((a2, b2) in rel for a2 in pmv[a].get(lab, ())):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                rel.discard((a, b))
                changed = True
    return (p.init, q.init) in rel


def test_partition_refinement_matches_naive_fixpoint():
    rng = Random(31415)
    family = [random_system(rng, rng.randint(1, 4), ("a", "b"))
              for _ in range(40)]
    agree = 0
    for i, x in enumerate(family):
        for y in family[i:]:
            assert bisimilar(x, y) == _naive_bisimilar(x, y)
            agree += 1
    assert agree > 700


# ---------------------------------------------------------------------------
# failures against explicit path enumeration
# ---------------------------------------------------------------------------

def _paths_failures(l: Lts, depth: int):
    """Failures by brute-force path enumeration: walk every transition
    sequence, record (visible trace, refusal subsets) at stable states."""
    mv = l.moves()
    sigma = set(l.alphabet)
    out = set()

    def stable(s):
        return not mv[s].get("tau")

    def note(s, trace):
        if stable(s) and len(trace) <= depth:
            refusal = sorted(sigma - set(mv[s]))
            for mask in range(1 << len(refusal)):
                sub = frozenset(refusal[k] for k in range(len(refusal))
                                if mask >> k & 1)
                out.add((trace, sub))

    def walk(s, trace, budget):
        note(s, trace)
        if budget == 0:
            return
        for lab, dsts in mv[s].items():
            for d in dsts:
                nxt = trace if lab == "tau" else trace + (lab,)
                if len(nxt) <= depth:
                    walk(d, nxt, budget - 1)

    # budget bounds total steps incl. tau; taus are acyclic so a generous
    # multiplier covers every trace of the wanted length
    walk(l.init, (), depth * (len(l.states) + 1))
    return out


def test_failures_match_path_enumeration():
    rng = Random(2772)
    done = 0
    while done < 30:
        l = random_system(rng, rng.randint(1, 4), ("a", "b"))
        try:
            got = {(f.trace, f.refusal) for f in failures(l, 2)}
        except Exception:
            continue  # divergent sample: out of the failures model
        assert got == _paths_failures(l, 2)
        done += 1


def test_max_refusals_are_maximal():
    rng = Random(515)
    for _ in range(25):
        l = random_system(rng, 3, ("a", "b"), allow_tau=False)
        for trace, maxima in max_refusals(l, 2).items():
            for a in maxima:
                assert not any(a < b for b in maxima)
