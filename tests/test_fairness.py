import itertools
from random import Random

import pytest

from gclab import fairness
from gclab.check import check_program, decl_map, type_of
from gclab.engine import (
    END, BoundExceeded, Config, Divergent, Failed, Limits, Outcome, Point,
    Terminated, explore_demonic, lower, step,
)
from gclab.errors import EvalError
from gclab.fairness import (
    FairnessError, FixpointError, FixpointInstance, chaotic_iteration_program,
    format_fixpoint, is_one_level_nondeterministic, kleene_lfp, one_level_of,
    parse_fixpoint, run_fair, run_fair_traced, transform_wf,
)
from gclab.parser import parse_gcl
from gclab.printer import render, render_expr
from gclab.state import State, compile_expr, initial_state
from gclab.syntax import (
    BinOp, BoolLit, Builtin, ChoiceAssign, Declaration, Do, GclProgram, IntLit,
    RandomAssign, Seq, Var, program_names,
)

import eval_reference
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


def test_exclusion_reads_the_atoms_inside_parentheses():
    """The guards exclude each other only through `m = 0` against `m = 1`,
    the first inside a parenthesised conjunction."""
    p = parse_gcl("var n: int = 2; var k: int; var m: int;\n"
                  "do n > 0 -> if k = 0 and (n > 0 and m = 0) -> m := 1 [] m = 1 -> skip fi;"
                  " n := n - 1 od")
    assert is_one_level_nondeterministic(p) == (True, None)


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


def test_transform_nests_the_priority_minimum_by_halves():
    p = parse_gcl("var x: int; do " + " [] ".join(
        f"x = {k} -> x := x + 1" for k in range(5)) + " od")
    t = transform_wf(p)
    assert render_expr(t.body.stmts[-1].arms[0].guard) == \
        "x = 0 and z1 = min(min(z1, z2), min(z3, min(z4, z5)))"


def test_transform_of_a_wide_loop_stays_shallow():
    """A 1,200-arm loop: the priority minimum nests 11 deep, so its
    guards render, type and compile, and each competitor's update is one
    node shared by the other arms."""
    n = 1200
    p = parse_gcl("var x: int; do " + " [] ".join(
        f"x = {k} -> x := x + 1" for k in range(n)) + " od")
    t = transform_wf(p)
    loop = t.body.stmts[-1]
    guard = loop.arms[0].guard
    assert render_expr(guard).startswith("x = 0 and z1 = min(min(min(")
    assert type_of(guard, decl_map(t.decls)) == "bool"
    assert compile_expr(guard)(initial_state(t.decls)) is True
    first, second = loop.arms[0].body.stmts, loop.arms[1].body.stmts
    assert len(first) == n + 1 and first[2] is second[2]


def test_transform_fresh_name_collision_escalates():
    p = parse_gcl("var z1: int = 1;\ndo z1 > 0 -> z1 := z1 - 1 od")
    t = transform_wf(p)
    names = {d.name for d in t.decls}
    assert "zz1" in names


def test_transform_fresh_names_run_out():
    """Each priority prefix, `z` to `zzzz`, has a name the program takes."""
    p = parse_gcl("var z1: int; var zz1: int; var zzz1: int; var zzzz1: int;\n"
                  "do z1 > 0 -> z1 := z1 - 1 od")
    with pytest.raises(FairnessError) as err:
        transform_wf(p)
    assert str(err.value) == "no fresh 'z' names available"


def test_transform_keeps_a_weakly_fair_run_that_is_not_strongly_fair():
    """The third arm is enabled infinitely often, but never continuously,
    so running the first two forever is weakly fair: the transformed
    program can diverge. A disabled competitor draws a fresh priority;
    were it to keep its priority instead, as for strong fairness, the
    third arm would come due and no divergence would remain."""
    p = parse_gcl("var done: bool; var x: int;\n"
                  "do not done and x = 0 -> x := 1 [] not done and x = 1 -> x := 0\n"
                  "[] not done and x = 1 -> done := true od")
    rep = explore_demonic(transform_wf(p), lim=Limits(choice_bound=2))
    assert rep.has(Divergent) and rep.has(Terminated)


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
    builds = []
    real = fairness._prove_shape
    monkeypatch.setattr(fairness, "_prove_shape",
                        lambda p: builds.append(p) or real(p))
    # equal programs are one object and keep their shape, so the program
    # is one that no other test builds: goon with one more declaration
    text = "var unused_by_other_tests: int;\n" + corpus_text("goon.gcl")
    p, q = parse_gcl(text), parse_gcl(text)
    want = [run_fair(p, policy="weak", seed=seed) for seed in range(5)]
    assert [run_fair(q, policy="weak", seed=seed) for seed in range(5)] == want
    assert [c is p for c in builds] == [True]


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


def _monotone_all_pairs(inst):
    """The definition: F(a) <= F(b) for every a <= b."""
    pts = list(inst.points())
    return all(inst.leq(inst.table[a], inst.table[b])
               for a in pts for b in pts if inst.leq(a, b))


def test_covering_pair_check_agrees_with_all_pairs():
    """Random tables on small products of chains, half of them made
    monotone (each point's image joined with the images below it) and
    then possibly disturbed in one entry."""
    rng = Random(13)
    verdicts = set()
    for _ in range(600):
        n, h = rng.randint(1, 3), rng.randint(0, 3)
        pts = list(itertools.product(range(h + 1), repeat=n))
        table = {pt: tuple(rng.randint(0, h) for _ in range(n)) for pt in pts}
        if rng.random() < 0.5:
            table = {a: tuple(max(table[b][k] for b in pts
                                  if FixpointInstance.leq(b, a)) for k in range(n))
                     for a in pts}
            if rng.random() < 0.5:
                table[rng.choice(pts)] = tuple(rng.randint(0, h) for _ in range(n))
        inst = FixpointInstance.from_table(n, h, table)
        expected = _monotone_all_pairs(inst)
        verdicts.add(expected)
        if expected:
            inst.validate_monotone()
        else:
            with pytest.raises(FixpointError):
                inst.validate_monotone()
    assert verdicts == {True, False}


@pytest.mark.parametrize("n, height", [(0, 1), (1, -1)])
def test_fixpoint_instance_needs_a_lattice(n, height):
    with pytest.raises(FixpointError) as err:
        FixpointInstance(n, height, {})
    assert str(err.value) == "need n >= 1 and height >= 0"


def test_run_fair_rejects_an_unknown_policy():
    with pytest.raises(ValueError) as err:
        run_fair(_prog("goon.gcl"), policy="bogus")
    assert str(err.value) == "unknown policy 'bogus'"


def test_program_names_include_the_targets_of_random_and_choice_assignments():
    """A tree built through the API may assign `?` or `choice` to a name
    that no declaration gives; the fresh names of `transform_wf` avoid it."""
    p = GclProgram((Declaration("x", "int"),),
                   Seq((RandomAssign("z1"), ChoiceAssign("z2", Var("w")))))
    assert program_names(p) == {"x", "z1", "z2", "w"}


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


@pytest.mark.parametrize("text,message", [
    ("", "empty fixpoint description"),
    ("lfp 1\n", "bad header 'lfp 1', expected 'lfp n h'"),
    ("lfp a b\n", "bad header 'lfp a b'"),
    ("lfp 1 1\n0 1\n", "bad table line '0 1'"),
    ("lfp 1 1\n0 -> x\n", "bad table line '0 -> x'"),
    ("lfp 1 1\n0 -> 0 0\n", "arity mismatch in '0 -> 0 0'"),
    ("lfp 1 1\n0 -> 0\n0 -> 1\n", "duplicate table entry for (0,)"),
], ids=["empty", "short-header", "non-integer-header", "no-arrow",
        "non-integer-value", "arity-mismatch", "duplicate-entry"])
def test_parse_fixpoint_errors(text, message):
    with pytest.raises(FixpointError) as err:
        parse_fixpoint(text)
    assert str(err.value) == message


@pytest.mark.parametrize("exprs,message", [
    ([Var("x1")], "need 2 component expressions"),
    ([Var("x1"), BoolLit(True)], "component expressions must be integer-valued"),
    ([Var("x1"), Var("y")], "bad component expression: undeclared identifier 'y'"),
], ids=["wrong-count", "bool-component", "undeclared-name"])
def test_from_exprs_errors(exprs, message):
    with pytest.raises(FixpointError) as err:
        FixpointInstance.from_exprs(2, 1, exprs)
    assert str(err.value) == message


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


def test_chaotic_iteration_over_a_thousand_points_reaches_the_least_fixpoint():
    """Two components of height 31: 1,024 lattice points, so the loop
    guard is an `or` over the 1,023 points that the operator moves."""
    h = 31
    table = {(a, b): (min(a + 1, h), min(b + 1, h))
             for a, b in itertools.product(range(h + 1), repeat=2)}
    inst = FixpointInstance.from_table(2, h, table)
    assert kleene_lfp(inst) == (h, h)
    rep = explore_demonic(chaotic_iteration_program(inst))
    terms = {(o.state.scalar("x1"), o.state.scalar("x2"))
             for o in rep.outcomes if isinstance(o, Terminated)}
    assert terms == {(h, h)}
    assert not rep.has(BoundExceeded)


# ---------------------------------------------------------------------------
# compiled guards against the reference evaluator
# ---------------------------------------------------------------------------

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
            f = res.failure
            return None, Failed(f.reason, f.state, f.detail), used
        if len(res.transitions) != 1:
            raise FairnessError(
                "deterministic body took a nondeterministic step; "
                "the one-level check should have rejected this program")
        cfg = res.transitions[0][1]
        used += 1
    return cfg.state, None, used


def _reference_fair_traced(p, policy, seed, fuel=100_000):
    """`run_fair_traced` as it was before its guards were compiled and
    before it ran on `engine.run_path`: every arm's guard evaluated by the
    recursive reference evaluator, in arm order, on every iteration, and
    the initialization and the chosen arm's body each run to completion
    by `_run_deterministic`, its own stepping loop. A program without an
    initialization spends one unit of fuel on a `skip` here."""
    olp = one_level_of(p)
    rng = Random(seed)
    trace = []
    s, failure, used = _run_deterministic(
        lower(olp.init, END), initial_state(p.decls), fuel)
    if failure is not None:
        return failure, trace
    fuel -= used
    guards = [arm.guard for arm in olp.loop.arms]
    n = len(guards)
    counters = ([fairness._fresh_priority(rng) for _ in range(n)] if policy == "weak"
                else [0] * n)
    while True:
        if fuel <= 0:
            return BoundExceeded("fuel"), trace
        try:
            enabled = [i for i in range(n) if eval_reference.eval_expr(guards[i], s)]
        except EvalError as e:
            return Failed(e.reason, s, e.detail), trace
        if not enabled:
            return Terminated(s), trace
        if policy == "strong":
            for i in enabled:
                counters[i] += 1
        best = (min if policy == "weak" else max)(counters[i] for i in enabled)
        candidates = [i for i in enabled if counters[i] == best]
        pick = candidates[rng.randrange(len(candidates))]
        trace.append((tuple(enabled), tuple(counters), pick))
        fuel -= 1
        if policy == "weak":
            counters[pick] = fairness._fresh_priority(rng)
            for j in range(n):
                if j != pick:
                    counters[j] = (counters[j] - 1 if j in enabled
                                   else fairness._fresh_priority(rng))
        else:
            counters[pick] = 0
        s, failure, used = _run_deterministic(
            lower(olp.loop.arms[pick].body, END), s, fuel)
        if failure is not None:
            return failure, trace
        fuel -= used


def test_only_the_final_occurrence_of_the_top_loop_is_scheduled():
    """The same loop object as the initialization runs deterministically
    there, unscheduled; the top loop then finds no guard true."""
    loop = parse_gcl("var x: int; do x < 2 -> x := x + 1 od").body
    p = GclProgram((Declaration("x", "int"),), Seq((loop, loop)))
    for policy in ("weak", "strong"):
        out, trace = run_fair_traced(p, policy=policy, seed=1)
        assert (out.state.scalar("x"), trace) == (2, [])
        assert (out, trace) == _reference_fair_traced(p, policy, 1)


def _chain_instance():
    return FixpointInstance.from_exprs(3, 2, [
        Builtin("min", (BinOp("+", Var("x2"), IntLit(1)), IntLit(2))),
        Builtin("min", (BinOp("+", Var("x3"), IntLit(1)), IntLit(2))),
        Builtin("max", (Var("x1"), IntLit(1))),
    ])


@pytest.mark.parametrize("policy", ["weak", "strong"])
def test_fair_traces_on_chaotic_programs_match_reference_guards(policy):
    """Every arm of a chaotic-iteration program shares one guard, which
    the fair loop evaluates once per iteration; the schedules and
    outcomes are those of evaluating it once per arm."""
    for expr_inst in (_diag_instance(), _chain_instance()):
        table_inst = FixpointInstance.from_table(expr_inst.n, expr_inst.height,
                                                 expr_inst.table)
        for inst in (expr_inst, table_inst):
            prog = chaotic_iteration_program(inst)
            guards = [arm.guard for arm in one_level_of(prog).loop.arms]
            assert all(g is guards[0] for g in guards)
            for seed in range(10):
                got = run_fair_traced(prog, policy=policy, seed=seed)
                assert got == _reference_fair_traced(prog, policy, seed)
                assert isinstance(got[0], Terminated) and got[1]


@pytest.mark.parametrize("policy", ["weak", "strong"])
@pytest.mark.parametrize("guards,detail", [
    (["x div y > 0", "x div y > 0"], "div by zero"),
    (["x > 5", "x div y > 0", "a[x] > 0", "x div y > 0"], "div by zero"),
    (["x > 5", "a[x + 9] > 0", "x div y > 0", "a[x + 9] > 0"], "index 10 outside 'a[0..2]'"),
])
def test_shared_failing_guard_fails_like_the_reference(policy, guards, detail):
    arms = " [] ".join(f"{g} -> x := x + 1" for g in guards)
    p = parse_gcl(f"var x: int; var y: int; var a: int[0..2];\nx := 1; do {arms} od")
    out, trace = run_fair_traced(p, policy=policy, seed=3)
    want, want_trace = _reference_fair_traced(p, policy, 3)
    assert (out, trace) == (want, want_trace) and not trace
    assert isinstance(out, Failed)
    assert (out.reason, out.detail, out.state.canonical()) == (
        want.reason, want.detail, want.state.canonical()) == (
        "eval-error", detail, "a=[0,0,0] x=1 y=0")


def test_fair_run_whose_chosen_body_fails():
    """A body that divides by zero ends the fair run with its failure:
    weak seed 1 increments to x=3, weak seeds 2-4 pick the dividing arm
    at once, and strong fairness picks it once x=1."""
    p = parse_gcl("var x: int; var y: int;\n"
                  "do x < 3 -> x := x + 1 [] x < 2 -> x := x div y od")
    for policy in ("weak", "strong"):
        for seed in range(10):
            got = run_fair_traced(p, policy=policy, seed=seed)
            assert got == _reference_fair_traced(p, policy, seed), (policy, seed)
    out = [run_fair_traced(p, policy="weak", seed=seed)[0] for seed in (1, 2, 3, 4)]
    assert out[0] == Terminated(out[0].state) and out[0].state.scalar("x") == 3
    assert all(o.key()[:2] == ("1-failed", "eval-error") and o.state.scalar("x") == 0
               for o in out[1:])
    strong, _ = run_fair_traced(p, policy="strong", seed=1)
    assert strong.key()[:2] == ("1-failed", "eval-error") and strong.state.scalar("x") == 1
