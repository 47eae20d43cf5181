import itertools

import pytest

from gclab import fairness
from gclab.check import check_program
from gclab.engine import (
    BoundExceeded, Divergent, Limits, Terminated, explore_demonic,
)
from gclab.fairness import (
    FairnessError, FixpointError, FixpointInstance, chaotic_iteration_program,
    format_fixpoint, is_one_level_nondeterministic, kleene_lfp, one_level_of,
    parse_fixpoint, run_fair, run_fair_traced, transform_wf,
)
from gclab.parser import parse_gcl
from gclab.printer import render, render_expr
from gclab.state import initial_state
from gclab.syntax import BinOp, Builtin, Do, IntLit, Var

from conftest import corpus_text
from oracles import (
    has_stuttering_cycle, monotone_component_maps, weak_fair_reachable,
)


def _prog(name):
    return parse_gcl(corpus_text(name))


# ---------------------------------------------------------------------------
# one-level shape
# ---------------------------------------------------------------------------

def test_goon_is_one_level():
    ok, why = is_one_level_nondeterministic(_prog("goon.gcl"))
    assert ok, why


def test_euclid_is_one_level():
    ok, _ = is_one_level_nondeterministic(_prog("euclid.gcl"))
    assert ok


def test_overlapping_inner_if_is_not():
    p = parse_gcl("""
    var n: int = 3;
    var k: int;
    do n > 0 ->
      if k >= 0 -> k := k + 1
      [] k <= 0 -> k := k - 1
      fi;
      n := n - 1
    od
    """)
    ok, why = is_one_level_nondeterministic(p)
    assert not ok
    assert "guards 1 and 2" in why


def test_random_assign_in_body_is_not_deterministic():
    p = parse_gcl("var n: int = 1; var x: int;\ndo n > 0 -> x := ?; n := 0 od")
    ok, why = is_one_level_nondeterministic(p)
    assert not ok and "nondeterministic assignment" in why


def test_no_top_loop():
    ok, why = is_one_level_nondeterministic(parse_gcl("var x: int; x := 1"))
    assert not ok and "repetitive" in why


# ---------------------------------------------------------------------------
# the transformation
# ---------------------------------------------------------------------------

def test_transform_goon_shape():
    p = _prog("goon.gcl")
    t = transform_wf(p)
    check_program(t)
    names = {d.name for d in t.decls}
    assert {"z1", "z2"} <= names and len(t.decls) == len(p.decls) + 2
    loop = t.body.stmts[-1]
    assert isinstance(loop, Do) and len(loop.arms) == 2
    for i, arm in enumerate(loop.arms, start=1):
        txt = render_expr(arm.guard)
        assert txt == f"goon and z{i} = min(z1, z2)", txt


def test_transform_single_guard_degenerate_min():
    p = parse_gcl("var x: int = 3;\ndo x > 0 -> x := x - 1 od")
    t = transform_wf(p)
    check_program(t)
    loop = t.body.stmts[-1]
    assert render_expr(loop.arms[0].guard) == "x > 0 and z1 = z1"
    # behavior modulo z1 unchanged
    terms = {o.state.scalar("x")
             for o in explore_demonic(t, lim=Limits(choice_bound=3)).outcomes
             if isinstance(o, Terminated)}
    assert terms == {0}


def test_transform_fresh_name_collision_escalates():
    p = parse_gcl("var z1: int = 1;\ndo z1 > 0 -> z1 := z1 - 1 od")
    t = transform_wf(p)
    names = {d.name for d in t.decls}
    assert "zz1" in names


def test_transform_requires_one_level():
    with pytest.raises(FairnessError):
        transform_wf(parse_gcl("var x: int; x := 1"))


def _project(states, keep):
    return {s.restricted(keep) for s in states}


@pytest.mark.parametrize("name", ["goon.gcl", "fair_threeway.gcl", "fair_race.gcl"])
def test_twf_projection_matches_fair_scheduler(name):
    """Terminal states of the transformed program, priorities hidden,
    equal the weak-fair-scheduler-reachable terminal states at the same
    priority bound."""
    bound = 5
    p = _prog(name)
    olp = one_level_of(p)
    t = transform_wf(p)
    keep = {d.name for d in p.decls}

    lim = Limits(max_configs=400_000, max_depth=400, choice_bound=bound)
    rep = explore_demonic(t, lim=lim)
    twf_terms = _project((o.state for o in rep.outcomes if isinstance(o, Terminated)),
                         keep)

    # oracle: exhaustive scheduler-level enumeration over the same bound
    from gclab.engine import make_config, step

    def exec_body(i, s):
        cfg = make_config((olp.loop.arms[i].body,), s)
        while not cfg.terminated:
            res = step(cfg, 0)
            assert res.failure is None and len(res.transitions) == 1
            cfg = res.transitions[0][1]
        return cfg.state

    s0 = initial_state(p.decls)
    cfg = make_config((olp.init,), s0)
    while not cfg.terminated:
        res = step(cfg, 0)
        cfg = res.transitions[0][1]
    guards = [arm.guard for arm in olp.loop.arms]
    oracle = weak_fair_reachable(guards, exec_body, cfg.state, bound)
    oracle_proj = {_parse_canonical(canon, p.decls).restricted(keep)
                   for canon in oracle}
    assert twf_terms == oracle_proj


def _parse_canonical(canon, decls):
    binds = {}
    for piece in canon.split(" "):
        name, raw = piece.split("=", 1)
        if raw.startswith("["):
            binds[name] = tuple(int(v) for v in raw[1:-1].split(",") if v)
        elif raw in ("true", "false"):
            binds[name] = raw == "true"
        else:
            binds[name] = int(raw)
    return initial_state(decls, binds)


def test_twf_reachable_projection_subset():
    """States reachable inside the transformed program, priorities
    hidden, all occur in the original program's reachable set."""
    from oracles import _norm, _successors

    p = _prog("fair_threeway.gcl")
    t = transform_wf(p)
    keep = {d.name for d in p.decls}

    def reach(prog, choice_bound=3):
        start = (_norm((prog.body,)), initial_state(prog.decls))
        seen = {start}
        todo = [start]
        states = set()
        while todo:
            residue, s = todo.pop()
            states.add(s.restricted(keep))
            if not residue:
                continue
            succ = _successors(residue, s, choice_bound)
            if succ == "failed":
                continue
            for node in succ:
                if node not in seen:
                    seen.add(node)
                    todo.append(node)
        return states

    assert reach(t) <= reach(p)


# ---------------------------------------------------------------------------
# schedulers
# ---------------------------------------------------------------------------

def test_fair_weak_goon_always_terminates_coverage():
    p = _prog("goon.gcl")
    xs = set()
    for seed in range(1000):
        out = run_fair(p, policy="weak", seed=seed, fuel=100_000)
        assert isinstance(out, Terminated), seed
        xs.add(out.state.scalar("x"))
    assert set(range(1, 11)) <= xs


def test_fair_strong_goon_terminates():
    p = _prog("goon.gcl")
    for seed in range(200):
        out = run_fair(p, policy="strong", seed=seed, fuel=100_000)
        assert isinstance(out, Terminated)


def test_strong_fairness_picks_intermittently_enabled_guard():
    # guard 2 is enabled only when c is even; under strong fairness its
    # debt grows every other turn, so it runs at least once per 4n steps
    p = parse_gcl("""
    var c: int;
    var hits: int;
    do c < 40 -> c := c + 1
    [] c < 40 and c mod 2 = 0 -> hits := hits + 1; c := c + 1
    od
    """)
    for seed in range(30):
        out, trace = run_fair_traced(p, policy="strong", seed=seed)
        assert isinstance(out, Terminated)
        selected2 = sum(1 for _, _, pick in trace if pick == 1)
        assert selected2 >= len(trace) // 8, (seed, selected2, len(trace))


def test_single_guard_fair_matches_erratic():
    from gclab.engine import run_erratic
    p = parse_gcl("var x: int = 5;\ndo x > 0 -> x := x - 1 od")
    want = run_erratic(p, seed=0)
    for policy in ("weak", "strong"):
        got = run_fair(p, policy=policy, seed=7)
        assert got == want


def test_fair_fuel_exhaustion():
    p = _prog("goon.gcl")
    out = run_fair(p, policy="weak", seed=0, fuel=3)
    assert isinstance(out, (BoundExceeded, Terminated))
    assert run_fair(p, policy="weak", seed=0, fuel=3) == out


def test_weak_counter_law():
    """A continuously enabled command's priority strictly decreases
    between consecutive non-selections, and once it holds the unique
    minimum among the enabled commands it is the one selected."""
    p = _prog("goon.gcl")
    for seed in range(100):
        out, trace = run_fair_traced(p, policy="weak", seed=seed)
        assert isinstance(out, Terminated)
        for enabled, counters, pick in trace:
            assert 1 in enabled  # the disabling command stays enabled
            others = [counters[i] for i in enabled if i != 1]
            if others and counters[1] < min(others):
                assert pick == 1
        for (_, c1, p1), (_, c2, _) in zip(trace, trace[1:]):
            if p1 != 1:
                assert c2[1] == c1[1] - 1  # not selected: strictly decreases


def test_fair_rejects_non_one_level():
    # the verdict is cached per program; every call must still raise
    for text, why in (("var x: int; x := 1", "repetitive"),
                      ("var n: int = 1; var x: int;\ndo n > 0 -> x := ?; n := 0 od",
                       "nondeterministic assignment")):
        p = parse_gcl(text)
        for seed in range(3):
            with pytest.raises(FairnessError, match=why):
                run_fair(p, seed=seed)


def test_fair_checks_the_shape_once_per_program(monkeypatch):
    calls = []
    real = fairness.one_level_of
    monkeypatch.setattr(fairness, "one_level_of",
                        lambda p: calls.append(p) or real(p))
    p, q = _prog("goon.gcl"), _prog("goon.gcl")
    want = [run_fair(p, policy="weak", seed=seed) for seed in range(5)]
    assert [run_fair(q, policy="weak", seed=seed) for seed in range(5)] == want
    assert [c is p for c in calls] == [True, False]


# ---------------------------------------------------------------------------
# fixpoints
# ---------------------------------------------------------------------------

def _diag_instance():
    return FixpointInstance.from_exprs(2, 3, [
        Builtin("min", (BinOp("+", Var("x2"), IntLit(1)), IntLit(2))),
        Builtin("min", (BinOp("+", Var("x1"), IntLit(1)), IntLit(2))),
    ])


def test_kleene_identity_is_bottom():
    ident = FixpointInstance.from_exprs(2, 2, [Var("x1"), Var("x2")])
    assert kleene_lfp(ident) == (0, 0)


def test_kleene_diag_instance():
    # hand iteration: (0,0) -> (1,1) -> (2,2) -> (2,2)
    inst = _diag_instance()
    assert inst.table[(0, 0)] == (1, 1)
    assert inst.table[(1, 1)] == (2, 2)
    assert inst.table[(2, 2)] == (2, 2)
    assert kleene_lfp(inst) == (2, 2)


def test_non_monotone_rejected():
    table = {pt: (0,) for pt in itertools.product(range(2), repeat=1)}
    table[(0,)] = (1,)
    table[(1,)] = (0,)
    inst = FixpointInstance.from_table(1, 1, table)
    with pytest.raises(FixpointError):
        kleene_lfp(inst)


def test_out_of_lattice_rejected():
    with pytest.raises(FixpointError):
        FixpointInstance.from_table(1, 1, {(0,): (2,), (1,): (1,)})


def test_fixpoint_text_round_trip():
    inst = _diag_instance()
    again = parse_fixpoint(format_fixpoint(inst))
    assert again.table == inst.table
    assert again.n == 2 and again.height == 3


def test_parse_fixpoint_rejects_incomplete_table():
    with pytest.raises(FixpointError):
        parse_fixpoint("lfp 1 1\n0 -> 0\n")


def test_corpus_lfp_fixtures_match_generator():
    """The shipped lfp programs are exactly what the builder emits for
    their operators (comment headers aside)."""
    diag = render(chaotic_iteration_program(_diag_instance()))
    assert corpus_text("lfp_diag.gcl").endswith(diag)
    ident = FixpointInstance.from_exprs(2, 1, [Var("x1"), Var("x2")])
    assert corpus_text("lfp_id.gcl").endswith(render(chaotic_iteration_program(ident)))


def test_chaotic_program_identity_terminates_immediately():
    ident = FixpointInstance.from_exprs(2, 1, [Var("x1"), Var("x2")])
    prog = chaotic_iteration_program(ident)
    rep = explore_demonic(prog)
    (out,) = rep.outcomes
    assert isinstance(out, Terminated)
    assert out.state.scalar("x1") == 0 and out.state.scalar("x2") == 0


def test_chaotic_diag_fair_and_demonic():
    inst = _diag_instance()
    prog = chaotic_iteration_program(inst)
    check_program(prog)
    for seed in range(100):
        out = run_fair(prog, policy="weak", seed=seed)
        assert isinstance(out, Terminated)
        assert (out.state.scalar("x1"), out.state.scalar("x2")) == (2, 2)
    rep = explore_demonic(prog, lim=Limits(max_depth=120))
    terms = {(o.state.scalar("x1"), o.state.scalar("x2"))
             for o in rep.outcomes if isinstance(o, Terminated)}
    assert terms == {(2, 2)}
    assert has_stuttering_cycle(inst.table, 2)
    assert rep.has(Divergent)


def test_chaotic_exhaustive_height_one():
    """All monotone operators on the 2-component chain of height 1:
    demonic exploration terminates exactly at the least fixpoint, fair
    execution reaches it for every seed tried, and divergence is
    reported whenever a stuttering cycle exists."""
    maps = monotone_component_maps(2, 1)
    assert len(maps) == 6
    lim = Limits(max_depth=200)
    for f1 in maps:
        for f2 in maps:
            table = {pt: (f1[pt], f2[pt]) for pt in f1}
            inst = FixpointInstance.from_table(2, 1, table)
            mu = kleene_lfp(inst)
            prog = chaotic_iteration_program(inst)
            rep = explore_demonic(prog, lim=lim)
            terms = {(o.state.scalar("x1"), o.state.scalar("x2"))
                     for o in rep.outcomes if isinstance(o, Terminated)}
            assert terms == {mu}, table
            if has_stuttering_cycle(table, 2):
                assert rep.has(Divergent), table
            for seed in range(20):
                out = run_fair(prog, policy="weak", seed=seed)
                assert isinstance(out, Terminated)
                assert (out.state.scalar("x1"), out.state.scalar("x2")) == mu
