import time
from random import Random

import pytest

from gclab.equiv import (
    DivergenceError, Failure, Lts, bisimilar, bisimilar_witness, failures,
    format_lts, max_refusals, may_pass, must_pass, must_witness, parse_lts,
    refinement_counterexample, refines,
)
from gclab.errors import CheckError

import refinement_reference
from conftest import CORPUS, corpus_text
from oracles import random_system

ALPHABETS = [("a",), ("a", "b"), ("a", "b", "c"), ("b", "c")]


def _P():
    return parse_lts(corpus_text("P.lts"))


def _Q():
    return parse_lts(corpus_text("Q.lts"))


def _T():
    return parse_lts(corpus_text("T.lts"))


# ---------------------------------------------------------------------------
# format
# ---------------------------------------------------------------------------

def test_lts_round_trip():
    for name in ("P.lts", "Q.lts", "T.lts"):
        l = parse_lts(corpus_text(name))
        assert parse_lts(format_lts(l)) == l


def test_lts_validation():
    with pytest.raises(CheckError):
        parse_lts("alphabet a\nstates s\ninit t\n")
    with pytest.raises(CheckError):
        parse_lts("alphabet a\nstates s\ninit s\ntrans s b s\n")
    with pytest.raises(CheckError):
        parse_lts("alphabet a tau\nstates s\ninit s\n")


# ---------------------------------------------------------------------------
# bisimilarity
# ---------------------------------------------------------------------------

def test_vending_machines_not_bisimilar_with_witness():
    assert not bisimilar(_P(), _Q())
    assert bisimilar_witness(_P(), _Q()) == ("p2", "q2", "c")


def _a_chain(n: int, b_loop: bool = False) -> Lts:
    """s0 -a-> s1 -a-> ... -a-> s(n-1), optionally with a `b` loop on the
    last state."""
    names = tuple(f"s{k}" for k in range(n))
    trans = tuple((names[k], "a", names[k + 1]) for k in range(n - 1))
    if b_loop:
        trans += ((names[-1], "b", names[-1]),)
    return Lts(names, ("a", "b"), trans, names[0])


def test_long_chains_split_within_ten_seconds():
    """The chains differ at their last states, and the difference reaches
    the initial states one split at a time: re-signing every state in
    every round takes time quadratic in the length, signing again only
    the states whose successors moved does not."""
    p, q = _a_chain(20000), _a_chain(20000, b_loop=True)
    start = time.perf_counter()
    assert bisimilar_witness(p, q) == ("s19999", "s19999", "b")
    assert not bisimilar(p, q)
    assert time.perf_counter() - start < 10


def test_bisimilar_reflexive():
    for l in (_P(), _Q(), _T()):
        assert bisimilar(l, l)
        assert bisimilar_witness(l, l) is None


def test_duplicated_state_is_bisimilar():
    P = _P()
    dup = Lts(P.states + ("p2b",), P.alphabet,
              P.transitions + (("p1", "i", "p2b"), ("p2b", "t", "p3"),
                               ("p2b", "c", "p4")),
              P.init)
    assert bisimilar(P, dup)


def test_bisimilarity_is_an_equivalence_on_random_family():
    rng = Random(20240)
    family = [random_system(rng, rng.randint(2, 5), ("a", "b", "c"))
              for _ in range(20)]
    for x in family:
        assert bisimilar(x, x)
    for x in family:
        for y in family:
            assert bisimilar(x, y) == bisimilar(y, x)
    for x in family:
        for y in family:
            for z in family:
                if bisimilar(x, y) and bisimilar(y, z):
                    assert bisimilar(x, z)


def test_bisimilar_implies_failures_and_testing_equivalent():
    rng = Random(77)
    family = [random_system(rng, rng.randint(2, 4), ("a", "b"), allow_tau=False)
              for _ in range(25)]
    from oracles import all_tree_tests
    tests = all_tree_tests(1)
    for x in family:
        for y in family:
            if not bisimilar(x, y):
                continue
            assert failures(x, 3) == failures(y, 3)
            for t in tests:
                assert may_pass(x, t) == may_pass(y, t)
                assert must_pass(x, t) == must_pass(y, t)


def test_fig2_separates_failures_from_traces():
    # P and Q accept the same traces yet P has strictly fewer failures
    P, Q = _P(), _Q()
    assert {f.trace for f in failures(P, 2)} == {f.trace for f in failures(Q, 2)}
    assert failures(P, 2) < failures(Q, 2)


# ---------------------------------------------------------------------------
# testing
# ---------------------------------------------------------------------------

def test_fig3_may_and_must():
    P, Q, T = _P(), _Q(), _T()
    assert may_pass(P, T) and may_pass(Q, T)
    assert must_pass(P, T)
    assert not must_pass(Q, T)
    assert must_witness(Q, T) == ("stuck", ("q2", "t2"))


def test_unreachable_success_fails_may():
    T = parse_lts("""
    alphabet i t c
    states t1 ts
    init t1
    success ts
    """)
    assert not may_pass(_P(), T)


def test_initial_success_always_must():
    T = parse_lts("""
    alphabet i t c
    states t1
    init t1
    success t1
    """)
    for l in (_P(), _Q()):
        assert must_pass(l, T)


def test_test_needs_success_state():
    bare = parse_lts("alphabet a\nstates s\ninit s\n")
    with pytest.raises(CheckError):
        may_pass(_P(), bare)


def test_must_detects_success_avoiding_cycle():
    # the process can spin on `a` forever, never granting the `b` the
    # test needs: an infinite computation that avoids success
    proc = parse_lts("""
    alphabet a b
    states s0 s1
    init s0
    trans s0 a s0
    trans s0 b s1
    """)
    T = parse_lts("""
    alphabet a b
    states t0 ok
    init t0
    trans t0 a t0
    trans t0 b ok
    success ok
    """)
    assert may_pass(proc, T)
    w = must_witness(proc, T)
    assert w == ("cycle", ("s0", "t0"))


# ---------------------------------------------------------------------------
# failures and refinement
# ---------------------------------------------------------------------------

def test_failures_examples_from_figure():
    P, Q = _P(), _Q()
    fP = failures(P, 2)
    assert Failure(("i",), frozenset({"i"})) in fP
    assert Failure(("i",), frozenset({"c"})) not in fP
    assert Failure(("i",), frozenset({"c"})) in failures(Q, 2)
    assert Failure((), frozenset()) in fP


def test_refines_directions():
    P, Q = _P(), _Q()
    assert refines(P, Q, 4)
    assert not refines(Q, P, 4)
    cx = refinement_counterexample(Q, P, 4)
    assert cx == Failure(("i",), frozenset({"c"}))
    assert refines(P, P, 4) and refines(Q, Q, 4)


@pytest.mark.parametrize("depth", [-1, -5])
def test_refines_negative_depth_is_an_error(depth):
    for check in (refines, refinement_counterexample):
        with pytest.raises(ValueError, match="depth must not be negative"):
            check(_Q(), _P(), depth)


@pytest.mark.parametrize("depth", [-1, -5])
def test_failures_negative_depth_is_an_error(depth):
    for listing in (max_refusals, failures):
        with pytest.raises(ValueError, match="depth must not be negative"):
            listing(_P(), depth)


def test_moves_built_once_outside_the_fields():
    p = _P()
    assert p.moves() is p.moves()
    assert p == _P() and hash(p) == hash(_P()) and repr(p) == repr(_P())
    assert "_moves" not in repr(p)


def _cycle(prefix: str, phases: int, offers_b, tau_to_dead: bool) -> Lts:
    """A cycle of `phases` states on `a`; `b` from the phases in
    `offers_b`, and optionally `tau` from every phase, to one dead state."""
    names = [f"{prefix}{k}" for k in range(phases)]
    dead = f"{prefix}d"
    trans = [(names[k], "a", names[(k + 1) % phases]) for k in range(phases)]
    trans += [(names[k], "b", dead) for k in offers_b]
    if tau_to_dead:
        trans += [(n, "tau", dead) for n in names]
    return Lts(tuple(names) + (dead,), ("a", "b"), tuple(trans), names[0])


@pytest.mark.parametrize("depth,want", [
    (12, None),
    (15, None),
    (16, Failure(("a",) * 15 + ("b",), frozenset({"a", "b"}))),
    (40, Failure(("a",) * 15 + ("b",), frozenset({"a", "b"}))),
    (None, Failure(("a",) * 15 + ("b",), frozenset({"a", "b"}))),
])
def test_refinement_witness_is_least_among_the_shortest(depth, want):
    """The cyclic pair that a depth of |P|+|Q| = 12 misses: P can do
    a^k b whenever 5 divides k, Q only when k mod 4 is not 3. At depth
    40 the witness is the shortest, a^15 b, as with no depth, though
    a^35 b sorts before it."""
    P = _cycle("p", 5, [0], tau_to_dead=False)
    Q = _cycle("q", 4, [0, 1, 2], tau_to_dead=True)
    assert refinement_counterexample(P, Q, depth) == want
    assert refines(P, Q, depth) == (want is None)


def test_cycle_pair_in_the_corpus():
    assert parse_lts(corpus_text("cycle5.lts")) == _cycle("p", 5, [0], tau_to_dead=False)
    assert parse_lts(corpus_text("cycle4.lts")) == _cycle(
        "q", 4, [0, 1, 2], tau_to_dead=True)


def test_every_depth_cuts_the_conclusive_witness_on_the_corpus():
    """For every ordered pair of corpus systems, a depth d gives the
    conclusive witness when its trace has at most d labels, else None."""
    systems = [parse_lts(path.read_text(encoding="utf-8"))
               for path in sorted(CORPUS.glob("*.lts"))]
    witnesses = 0
    for a in systems:
        for b in systems:
            full = refinement_counterexample(a, b)
            witnesses += full is not None
            for depth in range(21):
                want = full if full is not None and len(full.trace) <= depth else None
                assert refinement_counterexample(a, b, depth) == want
    assert witnesses >= 5, witnesses


def _outcome(search, *args):
    try:
        return search(*args)
    except DivergenceError as e:
        return ("divergent", e.cycle)


def test_max_refusals_agree_with_the_reference():
    """The subset construction lists the same maximal refusals per trace
    as the trace enumeration of `refinement_reference`, or raises on the
    same cycle."""
    rng = Random(5150)
    systems = [parse_lts(corpus_text(n)) for n in ("P.lts", "Q.lts", "T.lts")]
    systems += [random_system(rng, rng.randint(1, 6), alphabet, allow_tau=tau)
                for alphabet in ALPHABETS for tau in (False, True)
                for _ in range(25)]
    divergent = 0
    for l in systems:
        for depth in range(7):
            got = _outcome(max_refusals, l, depth)
            assert got == _outcome(refinement_reference.max_refusals, l, depth)
        divergent += isinstance(got, tuple)
    assert divergent > 10


def test_conclusive_witness_is_a_shortest_one():
    """With no depth: a witness w is the reference's witness at depth
    len(w.trace), and the reference finds none one step shallower; no
    witness means the reference finds none at depth 6."""
    rng = Random(6262)
    kinds = {"holds": 0, "witness": 0, "divergent": 0}
    reference = refinement_reference.refinement_counterexample
    for _ in range(300):
        pa = rng.choice(ALPHABETS)
        p = random_system(rng, rng.randint(1, 6), pa, allow_tau=rng.random() < 0.6)
        q = random_system(rng, rng.randint(1, 6), rng.choice([pa] + ALPHABETS),
                          allow_tau=rng.random() < 0.6)
        for x, y in ((p, q), (p, p), (q, p)):
            w = _outcome(refinement_counterexample, x, y)
            if isinstance(w, tuple):
                assert w == _outcome(reference, x, y, 0)
                kinds["divergent"] += 1
            elif w is None:
                assert reference(x, y, 6) is None
                assert refines(x, y)
                kinds["holds"] += 1
            else:
                assert reference(x, y, len(w.trace)) == w
                if w.trace:
                    assert reference(x, y, len(w.trace) - 1) is None
                assert not refines(x, y)
                kinds["witness"] += 1
    assert min(kinds.values()) > 100, kinds


def test_refines_on_divergent_input_raises():
    D = parse_lts("""
    alphabet a
    states s0 s1
    init s0
    trans s0 tau s1
    trans s1 tau s0
    """)
    with pytest.raises(DivergenceError):
        refines(D, _P(), 2)


def _tau_chain(n: int, loop_back: bool = False) -> Lts:
    """s0 -tau-> s1 -tau-> ... -tau-> s(n-1), optionally with a tau move
    from the last state back to the one before it."""
    names = [f"s{k}" for k in range(n)]
    trans = [(names[k], "tau", names[k + 1]) for k in range(n - 1)]
    if loop_back:
        trans.append((names[-1], "tau", names[-2]))
    return Lts(tuple(names), ("a",), tuple(trans), names[0])


def test_divergence_check_on_long_tau_chain():
    one = parse_lts("alphabet a\nstates o\ninit o\n")
    chain = _tau_chain(5000)
    assert refines(chain, one, 2)
    with pytest.raises(DivergenceError) as err:
        refines(_tau_chain(5000, loop_back=True), one, 2)
    assert err.value.cycle == ["s4998", "s4999", "s4998"]


def _two_way_tau_chain_text(n: int) -> str:
    """s0 .. s(n-1), with tau moves both ways between neighbours."""
    names = [f"s{k}" for k in range(n)]
    return f"alphabet a\nstates {' '.join(names)}\ninit s0\n" + "".join(
        f"trans {a} tau {b}\ntrans {b} tau {a}\n" for a, b in zip(names, names[1:]))


def test_two_way_tau_chain_diverges_at_once():
    """Tau closures are built only past the divergence check, so a long tau
    cycle costs a parse and one depth-first search, not a closure per
    state."""
    one = parse_lts("alphabet a\nstates o\ninit o\n")
    start = time.perf_counter()
    chain = parse_lts(_two_way_tau_chain_text(4000))
    for depth in (None, 2):
        with pytest.raises(DivergenceError) as err:
            refines(chain, one, depth)
        assert err.value.cycle == ["s0", "s1", "s0"]
    assert not bisimilar(chain, one)
    assert time.perf_counter() - start < 5


def _recursive_divergence_cycle(l: Lts):
    """The divergence check as a recursive DFS: the cycle it reports, or
    None."""
    mv = l.moves()
    color, trail = {}, []

    def dfs(s):
        color[s] = 1
        trail.append(s)
        for d in sorted(mv[s].get("tau", ())):
            if color.get(d) == 1:
                return trail[trail.index(d):] + [d]
            if d not in color:
                found = dfs(d)
                if found:
                    return found
        trail.pop()
        color[s] = 2
        return None

    for s in sorted(l.reachable()):
        if s not in color:
            found = dfs(s)
            if found:
                return found
    return None


def test_divergence_cycle_matches_recursive_search():
    rng = Random(909)
    divergent = 0
    for _ in range(300):
        l = random_system(rng, rng.randint(1, 6), ("a", "b"))
        want = _recursive_divergence_cycle(l)
        try:
            failures(l, 1)
            got = None
        except DivergenceError as e:
            got = e.cycle
            divergent += 1
        assert got == want
    assert divergent > 20


def test_failures_downward_closed():
    for l in (_P(), _Q()):
        fs = failures(l, 2)
        for f in fs:
            for drop in f.refusal:
                assert Failure(f.trace, f.refusal - {drop}) in fs


def test_deterministic_lts_bisimilar_to_trace_quotient():
    """A deterministic system is bisimilar to its quotient by equal trace
    sets (the language-minimal automaton)."""
    det = parse_lts("""
    alphabet a b
    states s0 s1 s2 s3
    init s0
    trans s0 a s1
    trans s0 b s2
    trans s1 a s3
    trans s2 a s3
    """)

    def traces(l, start, depth=6):
        mv = l.moves()
        out = set()

        def walk(s, acc):
            out.add(acc)
            if len(acc) >= depth:
                return
            for lab, dsts in mv[s].items():
                for d in dsts:
                    walk(d, acc + (lab,))

        walk(start, ())
        return frozenset(out)

    classes: dict[frozenset, list[str]] = {}
    for s in det.states:
        classes.setdefault(traces(det, s), []).append(s)
    rep = {s: min(members) for key, members in classes.items() for s in members}
    qstates = tuple(sorted(set(rep.values())))
    qtrans = tuple(sorted({(rep[a], lab, rep[b]) for (a, lab, b) in det.transitions}))
    quotient = Lts(qstates, det.alphabet, qtrans, rep[det.init])
    assert len(qstates) < len(det.states)  # s1 and s2 merge
    assert bisimilar(det, quotient)


# ---------------------------------------------------------------------------
# validation errors of a parsed Lts name the directive at fault
# ---------------------------------------------------------------------------

LTS_HEAD = "alphabet a b\nstates s0 s1\n# a comment\ninit s0\n\n"


@pytest.mark.parametrize("tail, message, line", [
    ("trans s0 a s1\ninit zz\n", "initial state 'zz' not declared", 7),
    ("alphabet c tau\n", "'tau' is reserved for internal moves", 6),
    ("trans s0 a s1\ntrans s1 b zz\n", "transition s1 -b-> zz uses unknown state", 7),
    ("trans s0 a s1\ntrans yy b s0\n", "transition yy -b-> s0 uses unknown state", 7),
    ("trans s0 tau s1\n\ntrans s1 c s0\n", "label 'c' not in the alphabet", 8),
    ("success s1\nsuccess s0 zz\n", "success marks unknown state 'zz'", 7),
])
def test_parsed_lts_error_names_the_line_at_fault(tail, message, line):
    with pytest.raises(CheckError) as err:
        parse_lts(LTS_HEAD + tail)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, 1)


def test_lts_built_through_the_api_keeps_a_position_free_error():
    with pytest.raises(CheckError) as err:
        Lts(("s0",), ("a",), (("s0", "a", "zz"),), "s0")
    assert (err.value.message, err.value.line) == (
        "transition s0 -a-> zz uses unknown state", None)


def test_a_test_that_moves_on_tau_first():
    p = parse_lts("alphabet a\nstates p0 p1\ninit p0\ntrans p0 a p1\n")
    t = parse_lts("alphabet a\nstates t0 t1 t2\ninit t0\n"
                  "trans t0 tau t1\ntrans t1 a t2\nsuccess t2\n")
    assert may_pass(p, t) and must_pass(p, t)
