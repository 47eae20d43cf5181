"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` (or `-rP`) to see the
per-criterion lines. Every expected value is produced by an independent
oracle from oracles.py, computed fresh during the run.
"""

import itertools
import math
import time
from random import Random

from gclab.csp import run_csp, term_condition, translate_csp, translate_csp_checked
from gclab.engine import (
    Divergent, Failed, Limits, Terminated, explore_demonic, make_config,
    replay, solve_angelic, step,
)
from gclab.equiv import (
    bisimilar, bisimilar_witness, max_refusals, may_pass, must_pass,
    must_witness, parse_lts, refinement_counterexample, refines,
)
from gclab.fairness import (
    FixpointInstance, chaotic_iteration_program, kleene_lfp, one_level_of,
    run_fair, transform_wf,
)
from gclab.parser import parse_csp, parse_gcl, parse_par
from gclab.par import run_par_direct, translate_par
from gclab.printer import render, render_csp, render_par
from gclab.state import eval_expr, initial_state

from conftest import CORPUS, corpus_text, sfr_source
from oracles import (
    argmax_set, blank_filtered, bfs_terminated, canonical_failure_test,
    all_tree_tests, all_two_state_systems, divergence_free,
    first_common_triple, has_stuttering_cycle, monotone_component_maps,
    queens_solutions, random_system, random_tree_test, weak_fair_reachable,
    zero_search_k,
)

ALPHABET = ("a", "b")
SIGMA = frozenset(ALPHABET)


def _prog(name):
    return parse_gcl(corpus_text(name))


def _passed(n, label):
    print(f"ACCEPTANCE {n:02d} ({label}): PASS")


def test_c01_euclid_gcd_sweep():
    """All 1 <= x,y <= 30: exactly one terminal state with
    x = y = gcd(x, y); whole sweep under five seconds."""
    start = time.monotonic()
    p = _prog("euclid.gcl")
    for x in range(1, 31):
        for y in range(1, 31):
            rep = explore_demonic(p, initial_state(p.decls, dict(x=x, y=y)))
            (out,) = rep.outcomes
            assert isinstance(out, Terminated)
            g = math.gcd(x, y)
            assert out.state.scalar("x") == g and out.state.scalar("y") == g
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _passed(1, f"euclid 900 cases in {elapsed:.2f}s")


def test_c02_max_singleton_and_two_paths():
    p = _prog("max.gcl")
    for x in range(-3, 4):
        for y in range(-3, 4):
            rep = explore_demonic(p, initial_state(p.decls, dict(x=x, y=y)))
            terms = [o for o in rep.outcomes if isinstance(o, Terminated)]
            assert len(terms) == 1
            assert terms[0].state.scalar("m") == max(x, y)
            assert rep.paths == (2 if x == y else 1)
    _passed(2, "max over [-3,3]^2, two paths on ties")


def test_c03_sort_all_tuples():
    p = _prog("sort4.gcl")
    for tup in itertools.product(range(1, 5), repeat=4):
        binds = dict(X1=tup[0], X2=tup[1], X3=tup[2], X4=tup[3])
        rep = explore_demonic(p, initial_state(p.decls, binds))
        terms = [o for o in rep.outcomes if isinstance(o, Terminated)]
        assert len(terms) == 1
        got = [terms[0].state.scalar(f"x{i}") for i in (1, 2, 3, 4)]
        assert got == sorted(tup)
    _passed(3, "sort over all 256 tuples")


def test_c04_maximum_point_argmax():
    p = _prog("maxpoint.gcl")
    for f in itertools.product(range(4), repeat=5):
        rep = explore_demonic(p, initial_state(p.decls, dict(f=f)))
        ks = {o.state.scalar("k") for o in rep.outcomes if isinstance(o, Terminated)}
        assert ks == argmax_set(f), f
        assert not rep.has(Failed) and not rep.has(Divergent)
    _passed(4, "maximum point over all 1024 functions")


def _random_sorted_triple(rng):
    """Strictly increasing arrays of length 8 sharing at least one value."""
    common = rng.randrange(10, 60)
    def column():
        vals = {common}
        while len(vals) < 8:
            vals.add(rng.randrange(0, 99))
        return tuple(sorted(vals))
    return column(), column(), column()


def test_c05_feijen_first_common_entry():
    p = _prog("feijen.gcl")
    rng = Random(1905)
    for _ in range(100):
        a, b, c = _random_sorted_triple(rng)
        s0 = initial_state(p.decls, dict(a=a, b=b, c=c))
        rep = explore_demonic(p, s0)
        terms = [o for o in rep.outcomes if isinstance(o, Terminated)]
        assert len(terms) == 1 and not rep.has(Failed)
        got = tuple(terms[0].state.scalar(v) for v in ("i", "j", "k"))
        assert got == first_common_triple(a, b, c)
    _passed(5, "feijen on 100 random triples")


def test_c06_eight_queens():
    start = time.monotonic()
    p = _prog("queens.gcl")
    results = solve_angelic(p, lim=Limits(max_depth=200))
    got = {tuple(t.state.array("q")) for t in results}
    assert len(results) == 92
    assert got == set(queens_solutions())
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _passed(6, f"eight queens, 92 solutions in {elapsed:.2f}s")


def test_c07_goon_divergence_and_fair_termination():
    p = _prog("goon.gcl")
    for d in (15, 25, 41):
        rep = explore_demonic(p, lim=Limits(max_depth=d))
        xs = {o.state.scalar("x") for o in rep.outcomes if isinstance(o, Terminated)}
        kmax = (d - 3) // 2  # x = k costs 2k + 3 steps
        assert xs == set(range(1, kmax + 1)), d
        mine = {o.state.canonical() for o in rep.outcomes if isinstance(o, Terminated)}
        assert mine == bfs_terminated(p, max_depth=d)
        divs = [o for o in rep.outcomes if isinstance(o, Divergent)]
        assert divs, "divergence must be reported"
        s0 = initial_state(p.decls)
        lhs = replay(p, s0, divs[0].stem)
        rhs = replay(p, s0, divs[0].stem + divs[0].cycle)
        assert lhs.residue == rhs.residue  # the lasso closes

    xs = set()
    for seed in range(1000):
        out = run_fair(p, policy="weak", seed=seed, fuel=100_000)
        assert isinstance(out, Terminated), seed
        xs.add(out.state.scalar("x"))
    assert set(range(1, 11)) <= xs, sorted(xs)[:12]
    _passed(7, "goon: divergent lasso, fair termination, coverage 1..10")


def test_c08_weak_fairness_transformation_correspondence():
    bound = 5
    for name in ("goon.gcl", "fair_threeway.gcl", "fair_race.gcl"):
        p = _prog(name)
        olp = one_level_of(p)
        keep = {d.name for d in p.decls}
        t = transform_wf(p)
        lim = Limits(max_configs=400_000, max_depth=400, choice_bound=bound)
        rep = explore_demonic(t, lim=lim)
        twf = {o.state.restricted(keep)
               for o in rep.outcomes if isinstance(o, Terminated)}

        def exec_body(i, s, arms=olp.loop.arms):
            cfg = make_config((arms[i].body,), s)
            while not cfg.terminated:
                res = step(cfg, 0)
                assert res.failure is None and len(res.transitions) == 1
                cfg = res.transitions[0][1]
            return cfg.state

        cfg = make_config((olp.init,), initial_state(p.decls))
        while not cfg.terminated:
            cfg = step(cfg, 0).transitions[0][1]
        guards = [arm.guard for arm in olp.loop.arms]
        oracle = weak_fair_reachable(guards, exec_body, cfg.state, bound)
        fair = set()
        for canon in oracle:
            binds = {}
            for piece in canon.split(" "):
                nm, raw = piece.split("=", 1)
                if raw in ("true", "false"):
                    binds[nm] = raw == "true"
                elif raw.startswith("["):
                    binds[nm] = tuple(int(v) for v in raw[1:-1].split(",") if v)
                else:
                    binds[nm] = int(raw)
            fair.add(initial_state(p.decls, binds).restricted(keep))
        assert twf == fair, name
    _passed(8, "T_wf projections match fair-scheduler reachability (3 fixtures)")


def _check_fixpoint_instance(table, height, seeds, lim):
    inst = FixpointInstance.from_table(2, height, table)
    mu = kleene_lfp(inst)
    prog = chaotic_iteration_program(inst)
    rep = explore_demonic(prog, lim=lim)
    terms = {(o.state.scalar("x1"), o.state.scalar("x2"))
             for o in rep.outcomes if isinstance(o, Terminated)}
    assert terms == {mu}, (table, terms, mu)
    if has_stuttering_cycle(table, 2):
        assert rep.has(Divergent), table
    for seed in range(seeds):
        out = run_fair(prog, policy="weak", seed=seed)
        assert isinstance(out, Terminated), (table, seed)
        assert (out.state.scalar("x1"), out.state.scalar("x2")) == mu


def test_c09_chaotic_iteration():
    """Exhaustive at height 1 (all 36 operators); exhaustive diagonal plus
    a 400-instance seeded sample at height 2; a 120-instance seeded sample
    at height 3. The full families at heights 2 and 3 have 30625 and
    about 6.1e8 members, far beyond desk scale; see the decisions ledger.
    Each instance: demonic exploration terminates exactly at the least
    fixpoint (with divergence whenever a stuttering cycle exists) and
    fair-weak execution reaches it for 20 seeds."""
    maps1 = monotone_component_maps(2, 1)
    assert len(maps1) == 6
    for f1 in maps1:
        for f2 in maps1:
            table = {pt: (f1[pt], f2[pt]) for pt in f1}
            _check_fixpoint_instance(table, 1, 20, Limits(max_depth=200))

    maps2 = monotone_component_maps(2, 2)
    assert len(maps2) == 175
    lim2 = Limits(max_depth=300)
    for f in maps2:
        table = {pt: (f[pt], f[pt]) for pt in f}
        _check_fixpoint_instance(table, 2, 20, lim2)
    rng = Random(2718)
    for _ in range(400):
        f1, f2 = rng.choice(maps2), rng.choice(maps2)
        table = {pt: (f1[pt], f2[pt]) for pt in f1}
        _check_fixpoint_instance(table, 2, 20, lim2)

    maps3 = monotone_component_maps(2, 3)
    assert len(maps3) == 24696
    lim3 = Limits(max_depth=400)
    for _ in range(120):
        f1, f2 = rng.choice(maps3), rng.choice(maps3)
        table = {pt: (f1[pt], f2[pt]) for pt in f1}
        _check_fixpoint_instance(table, 3, 20, lim3)
    _passed(9, "chaotic iteration: 36 + 575 + 120 operators")


def test_c10_csp_correspondence_and_filtering():
    count = 0
    for length in range(1, 6):
        for content in itertools.product((0, 2, 3), repeat=length - 1):
            cells = tuple(content) + (-1,)
            sysm = parse_csp(sfr_source(cells))
            direct = run_csp(sysm)
            assert not direct.has(Failed) and not direct.has(Divergent)
            d = {s.canonical() for s in direct.terminated_states()}
            trans = explore_demonic(translate_csp(sysm))
            term = term_condition(sysm)
            t = {s.canonical() for s in trans.terminated_states()
                 if eval_expr(term, s)}
            assert d == t, cells
            expect = blank_filtered(cells)
            for st in direct.terminated_states():
                got = list(st.array("c"))[:len(expect)]
                assert got == expect, cells
                assert st.scalar("j") == len(expect)
            count += 1
    assert count == 121
    _passed(10, "csp correspondence and filtering over 121 inputs")


def test_c11_deadlock_becomes_failure():
    cw = parse_csp(corpus_text("circwait.csp"))
    direct = run_csp(cw)
    assert any(isinstance(o, Failed) and o.reason == "deadlock"
               for o in direct.outcomes)
    checked = explore_demonic(translate_csp_checked(cw))
    assert checked.has(Failed) and not checked.has(Terminated)
    plain = explore_demonic(translate_csp(cw))
    term = term_condition(cw)
    assert all(not eval_expr(term, o.state)
               for o in plain.outcomes if isinstance(o, Terminated))

    aw = parse_par(corpus_text("awaitfalse.par"))
    adirect = run_par_direct(aw)
    assert any(isinstance(o, Failed) and o.reason == "deadlock"
               for o in adirect.outcomes)
    atrans = explore_demonic(translate_par(aw))
    assert atrans.has(Failed) and not atrans.has(Terminated)
    _passed(11, "deadlock maps to failure through both translations")


def test_c12_zero_search():
    sysm = parse_par(corpus_text("zerosearch.par"))
    prog = translate_par(sysm)
    keep = {"ia", "i", "j", "oddtop", "eventop", "k"}
    lim = Limits(max_configs=500_000)
    for bits in itertools.product((0, 1), repeat=5):
        s0 = initial_state(sysm.decls, {"ia": bits})
        direct = run_par_direct(sysm, s0, lim)
        ks = {s.scalar("k") for s in direct.terminated_states()}
        assert ks == {zero_search_k(bits)}, bits
        translated = explore_demonic(prog, initial_state(prog.decls, {"ia": bits}), lim)
        assert ({s.restricted(keep) for s in direct.terminated_states()}
                == {s.restricted(keep) for s in translated.terminated_states()}), bits
        assert not direct.has(Failed) and not translated.has(Failed)
    _passed(12, "zero search over all 32 arrays with cv hiding")


def test_c13_vending_machines():
    P = parse_lts(corpus_text("P.lts"))
    Q = parse_lts(corpus_text("Q.lts"))
    T = parse_lts(corpus_text("T.lts"))
    assert not bisimilar(P, Q)
    assert bisimilar_witness(P, Q) == ("p2", "q2", "c")
    assert may_pass(P, T) and may_pass(Q, T)
    assert must_pass(P, T)
    assert not must_pass(Q, T)
    assert must_witness(Q, T) == ("stuck", ("q2", "t2"))
    assert refines(P, Q, 4)
    assert not refines(Q, P, 4)
    cx = refinement_counterexample(Q, P, 4)
    assert cx.trace == ("i",) and cx.refusal == frozenset({"c"})
    _passed(13, "figure pair: bisim, may/must, refinement")


def _saturated_signature(l, refusal_depth=2, trace_depth=3):
    """What depth-<=3 must tests can observe of a process: deadlock-
    saturated maximal refusals after traces of length <= 2, plus
    saturated trace membership at length 3. Once a process can refuse
    the whole alphabet after w, no finite test sees past w."""
    mr = max_refusals(l, trace_depth)
    dead = {tr for tr, refs in mr.items() if any(r == SIGMA for r in refs)}

    def shadowed(tr):
        return any(tr[:k] in dead for k in range(len(tr)))

    sig = {}
    for size in range(refusal_depth + 1):
        for tr in itertools.product(ALPHABET, repeat=size):
            maxima = set(mr.get(tr, []))
            if shadowed(tr):
                maxima.add(SIGMA)
            maxima = frozenset(r for r in maxima
                               if not any(r < o for o in maxima))
            if maxima:
                sig[tr] = maxima
    traces3 = frozenset(tr for tr in itertools.product(ALPHABET, repeat=trace_depth)
                        if tr in mr or shadowed(tr))
    key = tuple(sorted((tr, tuple(sorted(tuple(sorted(r)) for r in m)))
                       for tr, m in sig.items()))
    return (key, tuple(sorted(traces3)))


def _must_test_family():
    canon = []
    for size in range(3):
        for trace in itertools.product(ALPHABET, repeat=size):
            for rsize in range(3):
                for refusal in itertools.combinations(ALPHABET, rsize):
                    canon.append(canonical_failure_test(trace, frozenset(refusal),
                                                        ALPHABET))
    for trace in itertools.product(ALPHABET, repeat=3):
        canon.append(canonical_failure_test(trace, frozenset(), ALPHABET))
    trees = all_tree_tests(2)
    rng = Random(99)
    deep = [random_tree_test(rng, 3) for _ in range(150)]
    return canon + trees + deep


def test_c14_must_failures_coincidence():
    """must-equivalence over a family of 883 tests of depth <= 3 agrees
    exactly with failures equivalence at the matched horizon on the
    exhaustive 256-member 2-state family and a 40-member divergence-free
    tau-bearing 3-state sample. Any disagreement fails loudly with the
    offending pair."""
    family = _must_test_family()
    systems = all_two_state_systems(ALPHABET)
    rng = Random(4242)
    while len(systems) < 256 + 40:
        cand = random_system(rng, 3, ALPHABET, allow_tau=True)
        if divergence_free(cand):
            systems.append(cand)

    masks = []
    for s in systems:
        m = 0
        for k, t in enumerate(family):
            if must_pass(s, t):
                m |= 1 << k
        masks.append(m)
    sigs = [_saturated_signature(s) for s in systems]
    for i in range(len(systems)):
        for j in range(i + 1, len(systems)):
            must_eq = masks[i] == masks[j]
            fail_eq = sigs[i] == sigs[j]
            assert must_eq == fail_eq, (
                f"coincidence violated by systems {i} and {j}: "
                f"must-eq={must_eq} failures-eq={fail_eq}\n"
                f"{systems[i].transitions}\n{systems[j].transitions}")
    _passed(14, f"must/failures coincidence on {len(systems)} systems x "
               f"{len(family)} tests")


def test_c15_round_trips():
    for path in sorted(CORPUS.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".gcl":
            p = parse_gcl(text)
            assert parse_gcl(render(p)) == p, path.name
        elif path.suffix == ".csp":
            s = parse_csp(text)
            assert parse_csp(render_csp(s)) == s, path.name
        elif path.suffix == ".par":
            s = parse_par(text)
            assert parse_par(render_par(s)) == s, path.name
        elif path.suffix == ".lts":
            from gclab.equiv import format_lts
            l = parse_lts(text)
            assert parse_lts(format_lts(l)) == l, path.name
        else:
            raise AssertionError(f"unclassified corpus file {path.name}")
    _passed(15, "round trip over every corpus file")
