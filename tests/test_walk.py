"""The walk that starts a search of an atomic sub-step (`engine.walk`)
against the search it starts (`GraphSearch.run`).

Either way a walked search ends with exactly the outcomes and counts of
the same search run from its root, and takes no step twice. When the
walk returns a final state, the search's one outcome is `Terminated` of
it, with k configurations, k edges and one path. The csp and par direct
semantics give the same reports, counts included, with every sub-step
searched by `run` alone.
"""

from random import Random

from gclab import engine
from gclab.csp import run_csp
from gclab.engine import (
    BoundExceeded, Divergent, Limits, Terminated, _statement_search,
    explore_statement, start_config, walk,
)
from gclab.par import run_par_direct
from gclab.parser import parse_csp, parse_par
from gclab.state import initial_state
from gclab.syntax import (
    Assign, BinOp, ChoiceAssign, Declaration, Do, Fail, GuardedCommand, If,
    IntLit, RandomAssign, Skip, Var, nodes, seq,
)

from conftest import corpus_text
from generated_systems import random_csp, random_par

VARS = ("x", "y")
DECLS = tuple(Declaration(v, "int") for v in VARS)


def _value(rng: Random):
    if rng.random() < 0.5:
        return IntLit(rng.randint(-1, 2))
    v = Var(rng.choice(VARS))
    return BinOp(rng.choice(("+", "-", "div")), v, IntLit(rng.randint(0, 2)))


def _stmt(rng: Random, depth: int):
    """Mostly straight-line statements; some branch, loop, fail or are cut."""
    roll = rng.random()
    if depth == 0 or roll < 0.55:
        pick = rng.random()
        if pick < 0.75:
            return Assign((Var(rng.choice(VARS)),), (_value(rng),))
        if pick < 0.83:
            return Skip()
        if pick < 0.90:
            return ChoiceAssign(rng.choice(VARS), IntLit(rng.randint(0, 2)))
        if pick < 0.95:
            return RandomAssign(rng.choice(VARS))
        return Fail()
    if roll < 0.85:
        return seq([_stmt(rng, depth - 1) for _ in range(rng.randint(2, 4))])
    guard = lambda: BinOp(rng.choice(("<", "=", ">=")), Var(rng.choice(VARS)),
                          IntLit(rng.randint(-1, 2)))
    arms = tuple(GuardedCommand(guard(), _stmt(rng, depth - 1))
                 for _ in range(rng.randint(1, 2)))
    return If(arms) if rng.random() < 0.8 else Do(arms)


def _counts(x) -> tuple:
    """Outcomes, lasso witnesses and counts of a report."""
    witnesses = tuple((o.stem, o.cycle) for o in x.outcomes if isinstance(o, Divergent))
    return x.outcomes, witnesses, x.configs, x.edges, x.paths


STEP = engine.step


def _walked(stmt, s0, lim, monkeypatch):
    """(what `walk` returns, the walked search's report, its steps)."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(engine, "step", lambda c, *a: calls.append(c) or STEP(c, *a))
        search = _statement_search(lim)
        final = walk(search, start_config(stmt, s0))
    if final is not None:  # the path is the caller's to close
        search.close(Terminated(final))
    return final, search.report(), calls


def _run(stmt, s0, lim, monkeypatch):
    """(the report of `GraphSearch.run`, its steps)."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(engine, "step", lambda c, *a: calls.append(c) or STEP(c, *a))
        rep = explore_statement(stmt, s0, lim)
    return rep, calls



def test_walks_match_the_search_on_random_bodies(monkeypatch):
    rng = Random(2027)
    walked = declined = 0
    for _ in range(1500):
        stmt = _stmt(rng, 3)
        s0 = initial_state(DECLS, {v: rng.randint(-1, 2) for v in VARS})
        lim = Limits(max_configs=rng.randint(1, 12), max_depth=rng.randint(1, 12),
                     choice_bound=rng.randint(0, 2))
        final, got, got_steps = _walked(stmt, s0, lim, monkeypatch)
        rep, steps = _run(stmt, s0, lim, monkeypatch)
        assert _counts(got) == _counts(rep), stmt
        assert got_steps == steps, stmt  # the same steps, none of them twice
        if final is not None:
            assert rep.outcomes == (Terminated(final),), stmt
            assert rep.configs == rep.edges and rep.paths == 1, stmt
            walked += 1
        else:
            # it branches, fails or is cut, or it reaches a do-od head
            assert (len(rep.outcomes) != 1 or not isinstance(rep.outcomes[0], Terminated)
                    or rep.paths != 1 or any(isinstance(n, Do) for n in nodes(stmt))), stmt
            declined += 1
    assert walked > 300 and declined > 300


def test_a_walk_stops_at_a_do_head(monkeypatch):
    """Only a do-od head can repeat a configuration or start a control
    lasso, so the walk leaves it to the search, even on one path."""
    x = Var("x")
    count = Do((GuardedCommand(BinOp("<", x, IntLit(3)),
                               Assign((x,), (BinOp("+", x, IntLit(1)),))),))
    spin = Do((GuardedCommand(BinOp("<", x, IntLit(3)), Skip()),))
    s0 = initial_state(DECLS)
    for stmt in (count, seq([Assign((x,), (IntLit(1),)), count]), spin,
                 seq([Assign((x,), (IntLit(1),)), spin])):
        final, got, _ = _walked(stmt, s0, Limits(), monkeypatch)
        assert final is None
        assert _counts(got) == _counts(explore_statement(stmt, s0, Limits()))
    assert explore_statement(spin, s0, Limits()).has(Divergent)


def test_a_loop_that_comes_back_to_the_walked_path(monkeypatch):
    """`x := x` and the body of the loop after it are one point, so the
    loop's first turn meets the walk's first configuration again: the
    search it hands over to knows the path's nodes, and the lasso closes
    there, as in `run`."""
    x = Var("x")
    again = Assign((x,), (x,))
    stmt = seq([again, Do((GuardedCommand(BinOp("<", x, IntLit(3)), again),))])
    s0 = initial_state(DECLS)
    final, got, _ = _walked(stmt, s0, Limits(), monkeypatch)
    rep = explore_statement(stmt, s0, Limits())
    assert final is None and _counts(got) == _counts(rep)
    (div,) = rep.outcomes
    assert isinstance(div, Divergent) and div.exact and div.stem == ()


def _counter(n: int):
    x = Var("x")
    return seq([Assign((x,), (BinOp("+", x, IntLit(1)),))] * n)


def test_a_walk_fills_the_budget_exactly(monkeypatch):
    """The walk keeps the search's bounds: k steps fit when
    k <= min(max_depth, max_configs), and one step more is the bound."""
    s0 = initial_state(DECLS)
    for n in (1, 2, 7):
        for lim, bound in ((Limits(max_depth=n), "max-depth"),
                           (Limits(max_configs=n), "max-configs"),
                           (Limits(max_depth=n, max_configs=n), None)):
            final, got, steps = _walked(_counter(n), s0, lim, monkeypatch)
            assert final.scalar("x") == n and len(steps) == n
            assert got.outcomes == (Terminated(final),) and got.configs == got.edges == n
            final, over, _ = _walked(_counter(n + 1), s0, lim, monkeypatch)
            assert final is None
            assert _counts(over) == _counts(explore_statement(_counter(n + 1), s0, lim))
            assert over.has(BoundExceeded) and not over.has(Terminated)
            if bound is not None:
                assert over.outcomes == (BoundExceeded(bound),)


def _search_only(monkeypatch, run, sysm, lim):
    with monkeypatch.context() as m:
        m.setattr(engine, "walk", lambda search, root: search.run(root))
        return run(sysm, lim=lim)


def test_direct_reports_do_not_depend_on_the_walk(monkeypatch):
    """Every csp and par report, counts included, equals the report with
    every atomic sub-step searched by `run` alone: the corpus systems and
    200 generated systems of each kind, under a tight and a loose budget."""
    lims = (Limits(max_configs=5_000, max_depth=200), Limits(max_configs=40, max_depth=6))
    systems = [(run_csp, parse_csp(corpus_text(n))) for n in ("sfr.csp", "circwait.csp")]
    systems += [(run_par_direct, parse_par(corpus_text(n)))
                for n in ("zerosearch.par", "awaitfalse.par")]
    for seed, make, parse, run in ((2310, random_csp, parse_csp, run_csp),
                                   (9004, random_par, parse_par, run_par_direct)):
        rng = Random(seed)
        systems += [(run, parse(make(rng))) for _ in range(200)]
    for run, sysm in systems:
        for lim in lims:
            assert _counts(run(sysm, lim=lim)) == _counts(_search_only(monkeypatch, run, sysm, lim)), sysm
