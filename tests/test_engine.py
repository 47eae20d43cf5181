import gc
import itertools
import weakref

import pytest

from gclab.engine import (
    BoundExceeded, Config, Divergent, Failed, Limits, Terminated, explore_demonic,
    make_config, replay, root, run_erratic, solve_angelic, step,
)
from gclab.csp import run_csp
from gclab.par import run_par_direct
from gclab.parser import parse_csp, parse_gcl, parse_par
from gclab.state import initial_state
from gclab.syntax import (
    Assign, Await, Declaration, GclProgram, IfElse, IntLit, Seq, Skip, Var, While,
)

from conftest import corpus_text
from oracles import bfs_terminated, gcd, argmax_set


def _prog(name):
    return parse_gcl(corpus_text(name))


def _init(p, **binds):
    return initial_state(p.decls, binds or None)


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

def test_step_if_both_guards_true():
    p = _prog("max.gcl")
    cfg = make_config((p.body,), _init(p, x=2, y=2))
    res = step(cfg, 8)
    assert res.failure is None and len(res.transitions) == 2
    finals = set()
    for _, nxt in res.transitions:
        res2 = step(nxt, 8)
        (_, done), = res2.transitions
        assert done.terminated
        finals.add(done.state.scalar("m"))
    assert finals == {2}


def test_step_if_no_guard_true_fails():
    p = parse_gcl("var x: int; if x > 0 -> skip fi")
    res = step(make_config((p.body,), _init(p)), 8)
    assert res.failure is not None
    assert res.failure.reason == "guard-all-false-in-if"


def test_step_do_exit():
    p = parse_gcl("var x: int; do x > 0 -> x := x - 1 od")
    res = step(make_config((p.body,), _init(p, x=0)), 8)
    (label, nxt), = res.transitions
    assert label == "od" and nxt.terminated


def test_step_random_assign_enumerates_bound():
    p = parse_gcl("var x: int; x := ?")
    res = step(make_config((p.body,), _init(p)), 5)
    assert res.truncated
    assert [eval_expr_x(c) for _, c in res.transitions] == [0, 1, 2, 3, 4, 5]


def eval_expr_x(cfg):
    return cfg.state.scalar("x")


def test_step_choice_enumerates_one_to_t():
    p = parse_gcl("var x: int; var t: int = 3; x := choice(t)")
    res = step(make_config((p.body,), _init(p)), 99)
    assert not res.truncated
    assert [eval_expr_x(c) for _, c in res.transitions] == [1, 2, 3]


def test_step_choice_is_cut_at_max_configs():
    p = parse_gcl("var x: int; x := choice(1000)")
    c = make_config((p.body,), _init(p))
    res = step(c, 8, 3)
    assert res.truncated == "max-configs"
    assert [eval_expr_x(c) for _, c in res.transitions] == [1, 2, 3]
    res = step(c, 8, 1000)
    assert res.truncated is None and len(res.transitions) == 1000


def test_step_choice_below_one_fails():
    p = parse_gcl("var x: int; x := choice(0)")
    res = step(make_config((p.body,), _init(p)), 8)
    assert res.failure is not None and res.failure.reason == "eval-error"


def test_step_guard_eval_error_fails_whole_command():
    p = parse_gcl("var a: int[0..1]; var i: int = 5;\n"
                  "if a[i] = 0 -> skip [] true -> skip fi")
    res = step(make_config((p.body,), _init(p)), 8)
    assert res.failure is not None and res.failure.reason == "eval-error"


def test_explicit_fail_and_abort_synonymous():
    for kw in ("fail", "abort"):
        p = parse_gcl(f"var x: int; {kw}")
        rep = explore_demonic(p)
        (out,) = rep.outcomes
        assert isinstance(out, Failed) and out.reason == "explicit-fail"


# ---------------------------------------------------------------------------
# demonic exploration
# ---------------------------------------------------------------------------

def test_euclid_unique_outcome():
    p = _prog("euclid.gcl")
    rep = explore_demonic(p, _init(p, x=12, y=18))
    (out,) = rep.outcomes
    assert isinstance(out, Terminated)
    assert out.state.scalar("x") == out.state.scalar("y") == 6


def test_sort_unique_sorted_outcome():
    p = _prog("sort4.gcl")
    rep = explore_demonic(p, _init(p, X1=3, X2=1, X3=2, X4=2))
    terms = [o for o in rep.outcomes if isinstance(o, Terminated)]
    assert len(terms) == 1
    got = [terms[0].state.scalar(f"x{i}") for i in (1, 2, 3, 4)]
    assert got == [1, 2, 2, 3]


def test_goon_outcomes_at_depth_limit():
    p = _prog("goon.gcl")
    d = 25
    rep = explore_demonic(p, lim=Limits(max_depth=d))
    xs = {o.state.scalar("x") for o in rep.outcomes if isinstance(o, Terminated)}
    # x = k costs 2 init steps + 2(k-1) increments + 2 disable + 1 exit
    kmax = (d - 3) // 2
    assert xs == set(range(1, kmax + 1))
    assert rep.has(Divergent)
    assert rep.has(BoundExceeded)


def test_goon_matches_bfs_oracle_at_depths():
    p = _prog("goon.gcl")
    for d in (7, 12, 19):
        rep = explore_demonic(p, lim=Limits(max_depth=d))
        mine = {o.state.canonical() for o in rep.outcomes if isinstance(o, Terminated)}
        assert mine == bfs_terminated(p, max_depth=d), d


def test_divergence_lasso_is_replayable():
    p = _prog("goon.gcl")
    rep = explore_demonic(p, lim=Limits(max_depth=20))
    (div,) = [o for o in rep.outcomes if isinstance(o, Divergent)]
    s0 = _init(p)
    c1 = replay(p, s0, div.stem)
    c2 = replay(p, s0, div.stem + div.cycle)
    assert c1.residue == c2.residue
    if div.exact:
        assert c1 == c2


def test_exact_lasso_repeats_configuration():
    p = parse_gcl("var x: int; do x = 0 -> skip od")
    rep = explore_demonic(p, lim=Limits(max_depth=30))
    (div,) = [o for o in rep.outcomes if isinstance(o, Divergent)]
    assert div.exact
    s0 = _init(p)
    assert replay(p, s0, div.stem) == replay(p, s0, div.stem + div.cycle)


def test_goon_control_lasso_witness():
    p = _prog("goon.gcl")
    for d in (20, 500):
        rep = explore_demonic(p, lim=Limits(max_depth=d))
        (div,) = [o for o in rep.outcomes if isinstance(o, Divergent)]
        assert not div.exact
        assert div.repeat_key == ("do goon -> x := x + 1 [] goon -> goon := false od"
                                  " @ goon=true x=*")
        assert div.stem == ("goon := true", "x := 1")
        assert div.cycle == ("do#1", "x := x + 1")


def test_if_and_do_arm_labels_in_a_lasso_witness():
    p = parse_gcl("var x: int; var y: int; y := 1;"
                  " do x = 0 -> if y = 2 -> x := 1 [] y = 1 -> skip fi od")
    rep = explore_demonic(p)
    (div,) = [o for o in rep.outcomes if isinstance(o, Divergent)]
    assert div.exact
    assert div.stem == ("y := 1",)
    assert div.cycle == ("do#1", "if#2", "skip")
    s0 = _init(p)
    assert replay(p, s0, div.stem) == replay(p, s0, div.stem + div.cycle)


@pytest.mark.parametrize("head", [
    While(Var("b"), Skip()), Await(Var("b")), IfElse(Var("b"), Skip(), Skip()),
], ids=("While", "Await", "IfElse"))
def test_step_refuses_a_parallel_fragment_head(head):
    s = initial_state((Declaration("b", "bool"),))
    with pytest.raises(TypeError) as err:
        step(Config(root(head), s), 8)
    assert str(err.value) == f"{type(head).__name__} is not a guarded-commands statement"


# ---------------------------------------------------------------------------
# The Config record
# ---------------------------------------------------------------------------

def test_config_fields_refuse_assignment():
    p = _prog("max.gcl")
    cfg = make_config((p.body,), _init(p))
    hash(cfg)
    for name in ("point", "state", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(cfg, name, None)
        with pytest.raises(AttributeError):
            delattr(cfg, name)


def test_config_equality_is_point_identity_and_state_equality():
    p = parse_gcl("var x: int; x := 1; x := 1")
    s0, s1 = _init(p), _init(p, x=1)
    first = root(p.body, p)
    second = first.next
    assert first.head is second.head  # equal statements, distinct points
    c = Config(first, s0)
    assert c == Config(first, _init(p)) and hash(c) == hash(Config(first, _init(p)))
    assert hash(c) == hash((first, s0))
    assert c != Config(second, s0)
    assert c != Config(first, s1)
    assert (c == (first, s0)) is True


# ---------------------------------------------------------------------------
# program points
# ---------------------------------------------------------------------------

def test_independent_parses_give_equal_configs():
    text = corpus_text("goon.gcl")
    p1, p2 = parse_gcl(text), parse_gcl(text)
    assert p1.body is p2.body
    s0 = _init(p1)
    c1, c2 = make_config((p1.body,), s0), make_config((p2.body,), s0)
    assert c1.point is c2.point
    assert c1 == c2 and hash(c1) == hash(c2) and len({c1, c2}) == 1
    n1, n2 = step(c1, 8).transitions[0][1], step(c2, 8).transitions[0][1]
    assert n1 == n2 and hash(n1) == hash(n2)
    assert n1 != c1


def test_equal_arms_share_a_point_and_merge_in_the_memo():
    # the parser builds the two equal arm bodies as one object
    p = parse_gcl("var x: int;\nif true -> x := 1; x := 2 [] true -> x := 1; x := 2 fi")
    arms = p.body.arms
    assert arms[0].body is arms[1].body
    (_, a), (_, b) = step(make_config((p.body,), _init(p)), 8).transitions
    assert a.point is b.point
    rep = explore_demonic(p)
    assert (rep.configs, rep.edges, rep.paths) == (3, 4, 2)


def test_residue_is_the_unfolded_tuple():
    x1 = Assign((Var("x"),), (IntLit(1),))
    x2 = Assign((Var("x"),), (IntLit(2),))
    body = Seq((Seq((x1, Skip())), x2))
    p = GclProgram((Declaration("x", "int"),), body)
    cfg = make_config((p.body,), _init(p))
    assert cfg.residue == (x1, Skip(), x2)
    assert cfg.residue_key() == "x := 1 ; skip ; x := 2"
    (_, nxt), = step(cfg, 8).transitions
    assert nxt.residue == (Skip(), x2)
    assert not nxt.terminated
    last = replay(p, _init(p), ("x := 1", "skip", "x := 2"))
    assert last.residue == () and last.terminated


def test_nested_sequence_past_the_head_unfolds():
    """A hand-built residue may hold a sequence past its head; it unfolds
    into points like one at the head. Parsed and transformed programs
    hold flat sequences only, so their residues never show this."""
    x1, x2, x3 = (Assign((Var("x"),), (IntLit(v),)) for v in (1, 2, 3))
    p = GclProgram((Declaration("x", "int"),), x1)
    cfg = make_config((x1, Seq((x2, x3))), _init(p))
    assert cfg.residue == (x1, x2, x3)
    assert cfg.residue_key() == "x := 1 ; x := 2 ; x := 3"


def _gone_without_the_cycle_collector(drop, refs):
    """Whether every referent of `refs` dies when `drop()` releases the
    last references: by reference counting alone, so no reference cycle
    keeps a dropped program's nodes or points for the collector."""
    gc.disable()
    try:
        drop()
        return [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_dropped_program_releases_its_nodes_and_points():
    p = parse_gcl("var dropped_u: int;\n"
                  "do dropped_u < 3 -> dropped_u := dropped_u + 1\n"
                  "[] dropped_u < 2 -> dropped_u := dropped_u + 2 od")
    assert explore_demonic(p).terminated_states()
    first = weakref.ref(root(p.body, p))
    gc.collect()
    # kept by the program: lowered and compiled once while it lives
    pt = root(p.body, p)
    assert pt is first() and pt.arm(0).next is pt
    refs = [weakref.ref(x) for x in (p, p.body, p.body.arms[0].guard,
                                      p.decls[0], pt, pt.arm(0))]
    names = {"p": p, "pt": pt}
    del p, pt
    assert _gone_without_the_cycle_collector(names.clear, refs)
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_dropped_concurrent_programs_release_their_points():
    # every statement is unique to the test, so no live program shares
    # its points
    csp = parse_csp("process DROPPED_P var dp: int; dp := 0;\n"
                    "  do dp < 2 ; DROPPED_Q ! dp -> dp := dp + 1 od end\n"
                    "process DROPPED_Q var dq: int; dq := 0;\n"
                    "  do dq < 2 ; DROPPED_P ? dq -> if dq = 1 -> dq := dq + 1\n"
                    "  [] dq != 1 -> dq := dq - 9 fi od end")
    par = parse_par("var dropped_v: int;\n"
                    "init dropped_v := 0\n"
                    "component dropped_v := dropped_v + 1 end\n"
                    "epilogue do dropped_v < 3 -> dropped_v := dropped_v + 1 od")
    assert run_csp(csp).terminated_states()
    assert run_par_direct(par).terminated_states()
    systems = {"csp": csp, "par": par}
    # each keeps the points of its sub-searches: inits, bodies, epilogue
    assert [len(sys._points) for sys in systems.values()] == [4, 2]
    points = [pt for sys in systems.values() for pt in sys._points.values()]
    refs = [weakref.ref(x) for x in (csp, par, *points)]
    del csp, par, points
    assert _gone_without_the_cycle_collector(systems.clear, refs)


def test_max_paths_counter():
    p = _prog("max.gcl")
    assert explore_demonic(p, _init(p, x=2, y=2)).paths == 2
    assert explore_demonic(p, _init(p, x=1, y=9)).paths == 1


def test_report_deterministic_and_sorted():
    p = _prog("goon.gcl")
    lim = Limits(max_depth=15)
    a = explore_demonic(p, lim=lim)
    b = explore_demonic(p, lim=lim)
    assert a.to_text() == b.to_text()
    keys = [o.key() for o in a.outcomes]
    assert keys == sorted(keys)


def test_max_configs_bound():
    p = _prog("goon.gcl")
    rep = explore_demonic(p, lim=Limits(max_configs=5, max_depth=500))
    assert any(isinstance(o, BoundExceeded) and o.limit == "max-configs"
               for o in rep.outcomes)


def test_shallower_revisit_reexpands_truncated_subtree():
    """A configuration first met deep (where its subtree hits the depth
    bound) must be explored again when a shorter path reaches it, or the
    terminal below it is lost."""
    p = parse_gcl("""
    var x: int;
    var pad: int;
    if true -> pad := 0; pad := 0; pad := 0; x := 1
    [] true -> x := 1
    fi;
    do x < 4 -> x := x + 1 od
    """)
    lim = Limits(max_depth=9)
    rep = explore_demonic(p, lim=lim)
    terms = {o.state.scalar("x") for o in rep.outcomes if isinstance(o, Terminated)}
    assert terms == {4}
    assert {o.state.canonical() for o in rep.outcomes if isinstance(o, Terminated)} \
        == bfs_terminated(p, max_depth=9)
    ang = solve_angelic(p, lim=lim)
    assert {t.state.scalar("x") for t in ang} == {4}


def test_oracle_equivalence_on_finite_corpus():
    cases = [
        ("euclid.gcl", dict(x=9, y=6)),
        ("max.gcl", dict(x=3, y=3)),
        ("sort4.gcl", dict(X1=4, X2=3, X3=2, X4=1)),
        ("feijen.gcl", {}),
        ("maxpoint.gcl", dict(f=(1, 3, 0, 3, 2))),
    ]
    for name, binds in cases:
        p = _prog(name)
        s0 = _init(p, **binds)
        mine = {o.state.canonical()
                for o in explore_demonic(p, s0).outcomes
                if isinstance(o, Terminated)}
        assert mine == bfs_terminated(p, s0), name


def test_maxpoint_outcomes_are_argmax_set():
    p = _prog("maxpoint.gcl")
    for f in itertools.product(range(4), repeat=5):
        rep = explore_demonic(p, _init(p, f=f))
        ks = {o.state.scalar("k") for o in rep.outcomes if isinstance(o, Terminated)}
        assert ks == argmax_set(f), f
    # spot-check exhaustively is acceptance 4; here a page of them suffices


def test_dynamic_determinism_detection():
    # euclid's guards are exclusive in every reachable state, so the
    # whole exploration is a single path with a single outcome
    p = _prog("euclid.gcl")
    for x in range(1, 12):
        for y in range(1, 12):
            rep = explore_demonic(p, _init(p, x=x, y=y))
            terms = [o for o in rep.outcomes if isinstance(o, Terminated)]
            assert len(terms) == 1 and rep.paths == 1
            assert terms[0].state.scalar("x") == gcd(x, y)


# ---------------------------------------------------------------------------
# erratic
# ---------------------------------------------------------------------------

def test_erratic_max_always_nine():
    p = _prog("max.gcl")
    for seed in range(25):
        out = run_erratic(p, _init(p, x=1, y=9), seed=seed)
        assert isinstance(out, Terminated) and out.state.scalar("m") == 9


def test_erratic_reproducible():
    p = _prog("goon.gcl")
    a = run_erratic(p, seed=1234, fuel=5000)
    b = run_erratic(p, seed=1234, fuel=5000)
    assert a == b


def test_erratic_goon_seed_sweep():
    p = _prog("goon.gcl")
    xs = []
    for seed in range(1000):
        out = run_erratic(p, seed=seed, fuel=2000)
        assert isinstance(out, (Terminated, BoundExceeded))
        if isinstance(out, Terminated):
            xs.append(out.state.scalar("x"))
    assert xs and all(x >= 1 for x in xs)
    assert len(set(xs)) > 3  # erratic choices do vary


def test_erratic_outcome_inside_demonic_set():
    p = _prog("goon.gcl")
    for seed in range(40):
        out = run_erratic(p, seed=seed, fuel=400)
        if isinstance(out, BoundExceeded):
            continue
        depth = 2 * out.state.scalar("x") + 3
        rep = explore_demonic(p, lim=Limits(max_depth=depth))
        assert any(o == out for o in rep.outcomes if isinstance(o, Terminated))


def test_erratic_random_assign_geometric():
    p = parse_gcl("var x: int; x := ?")
    seen = {run_erratic(p, seed=s).state.scalar("x") for s in range(200)}
    assert 0 in seen and max(seen) >= 4


# ---------------------------------------------------------------------------
# angelic
# ---------------------------------------------------------------------------

def test_angelic_forced_choice():
    p = parse_gcl("var x: int;\n"
                  "x := choice(3);\n"
                  "if x != 2 -> fail [] x = 2 -> skip fi")
    res = solve_angelic(p)
    assert [t.state.scalar("x") for t in res] == [2]


def test_angelic_fail_only_is_empty():
    p = parse_gcl("var x: int; fail")
    assert solve_angelic(p) == []


def test_angelic_ascending_first_found_order():
    p = parse_gcl("var x: int; x := choice(4)")
    res = solve_angelic(p)
    assert [t.state.scalar("x") for t in res] == [1, 2, 3, 4]


def test_angelic_reports_a_configuration_budget_cut():
    """`cut` receives max-configs when the budget stopped the search or
    cut a `choice(t)`, and stays empty for a complete answer."""
    for src, lim, want in [
        ("var x: int; do x < 100 -> x := x + 1 od", Limits(max_configs=10), 0),
        ("var x: int; x := choice(20)", Limits(max_configs=10), 10),
    ]:
        cut: list = []
        assert len(solve_angelic(parse_gcl(src), lim=lim, cut=cut)) == want, src
        assert cut == [BoundExceeded("max-configs")], src
        cut = []
        solve_angelic(parse_gcl(src), cut=cut)
        assert cut == [], src


def test_angelic_reports_depth_and_choice_bound_cuts():
    """`cut` receives every bound that cut the answer, in report order:
    choice-bound for `x := ?`, max-depth for a computation cut short."""
    for src, lim, want, bounds in [
        ("var x: int; x := ?; if x > 20 -> skip fi", Limits(), 0, ["choice-bound"]),
        ("var x: int; do x < 100 -> x := x + 1 od", Limits(max_depth=10), 0,
         ["max-depth"]),
        ("var x: int; x := ?; do x < 5 -> x := x + 1 od", Limits(max_depth=6), 4,
         ["choice-bound", "max-depth"]),
    ]:
        cut: list = []
        assert len(solve_angelic(parse_gcl(src), lim=lim, cut=cut)) == want, src
        assert cut == [BoundExceeded(b) for b in bounds], src


def test_angelic_equals_demonic_terminated():
    for src, lim in [
        ("var x: int; x := choice(5); if x mod 2 = 0 -> skip [] x mod 2 = 1 -> fail fi",
         Limits()),
        ("var x: int; do x < 4 -> x := x + 1 [] x < 4 -> x := x + 2 od", Limits()),
    ]:
        p = parse_gcl(src)
        ang = {t.state.canonical() for t in solve_angelic(p, lim=lim)}
        dem = {o.state.canonical()
               for o in explore_demonic(p, lim=lim).outcomes
               if isinstance(o, Terminated)}
        assert ang == dem, src
