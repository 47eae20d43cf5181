"""The pair search of `refinement_counterexample` against the trace
enumeration it replaced (`refinement_reference.py`): the same verdict, or
the same DivergenceError cycle, at every depth. The reference's witness
is the least trace of at most the depth in sorted order; the pair
search's is the least among the shortest, so it equals the reference's
at its own length, and the reference finds none one step shallower."""

from random import Random

import pytest

from gclab.equiv import (
    DivergenceError, Failure, Lts, parse_lts, refinement_counterexample, refines,
)

import refinement_reference
from conftest import corpus_text
from oracles import random_system


def _outcome(search, p, q, depth):
    try:
        return search(p, q, depth)
    except DivergenceError as e:
        return ("divergent", e.cycle)


def _agree(p, q, depth):
    got = _outcome(refinement_counterexample, p, q, depth)
    assert got == _outcome(refinement_reference.refinement_counterexample, p, q, depth)
    return got


def _agree_on_a_shortest(p, q, depth):
    """The reference's verdict or cycle at `depth`; a witness w is the
    reference's at depth len(w.trace), and none is one step shallower."""
    reference = refinement_reference.refinement_counterexample
    got = _outcome(refinement_counterexample, p, q, depth)
    want = _outcome(reference, p, q, depth)
    if got is None or isinstance(got, tuple):
        assert got == want
    else:
        assert isinstance(want, Failure)
        assert reference(p, q, len(got.trace)) == got
        if got.trace:
            assert reference(p, q, len(got.trace) - 1) is None
    return got


def test_random_systems_agree():
    rng = Random(4141)
    alphabets = [("a",), ("a", "b"), ("a", "b", "c"), ("b", "c")]
    kinds = {"holds": 0, "witness": 0, "divergent": 0}
    for _ in range(1200):
        pa = rng.choice(alphabets)
        qa = rng.choice([pa] + alphabets)
        p = random_system(rng, rng.randint(1, 6), pa, allow_tau=rng.random() < 0.6)
        q = random_system(rng, rng.randint(1, 6), qa, allow_tau=rng.random() < 0.6)
        depth = rng.randint(0, 6)
        for x, y in ((p, q), (p, p), (q, p)):
            got = _agree_on_a_shortest(x, y, depth)
            kinds["holds" if got is None else
                  "divergent" if isinstance(got, tuple) else "witness"] += 1
    assert min(kinds.values()) > 150, kinds


@pytest.mark.parametrize("depth,trace", [(2, None), (3, "bcc"), (4, "bcc")])
def test_pair_met_again_with_more_steps_left(depth, trace):
    p = parse_lts("alphabet a b c\nstates s0 s1 x y z\ninit s0\n"
                  "trans s0 a s1\ntrans s1 a x\ntrans s0 b x\n"
                  "trans x c y\ntrans y c z\n")
    q = parse_lts("alphabet a b c\nstates t0 t1 u v\ninit t0\n"
                  "trans t0 a t1\ntrans t1 a u\ntrans t0 b u\ntrans u c v\n")
    got = _agree_on_a_shortest(p, q, depth)
    if trace is None:
        assert got is None
    else:
        assert got == Failure(tuple(trace), frozenset("abc"))


def test_corpus_pairs_agree():
    """On these pairs the least trace within each depth is a shortest
    one, so the two witnesses are the same."""
    systems = [parse_lts(corpus_text(n)) for n in ("P.lts", "Q.lts", "T.lts")]
    for p in systems:
        for q in systems:
            for depth in range(7):
                _agree(p, q, depth)


def test_divergent_inputs_agree_on_the_cycle():
    div = parse_lts("alphabet a\nstates s0 s1 s2\ninit s0\n"
                    "trans s0 a s1\ntrans s1 tau s2\ntrans s2 tau s1\n")
    other = parse_lts("alphabet a\nstates t0 t1\ninit t0\n"
                      "trans t0 tau t1\ntrans t1 tau t0\n")
    ok = parse_lts(corpus_text("P.lts"))
    assert _agree(div, ok, 3) == ("divergent", ["s1", "s2", "s1"])
    assert _agree(ok, div, 3) == ("divergent", ["s1", "s2", "s1"])
    assert _agree(div, other, 0) == ("divergent", ["s1", "s2", "s1"])  # P first
    assert _agree(other, div, 0) == ("divergent", ["t0", "t1", "t0"])


def test_branching_system_at_depth_200():
    """Trace enumeration lists 2^200 traces here; the pair search meets
    a handful of state-set pairs."""
    moves = [("s0", "a", "s1"), ("s0", "a", "s2"), ("s0", "b", "s2"),
             ("s1", "a", "s2"), ("s1", "b", "s0"), ("s2", "a", "s0"),
             ("s2", "b", "s1")]
    branching = Lts(("s0", "s1", "s2"), ("a", "b"), tuple(moves), "s0")
    assert refines(branching, branching, 200)


def test_one_state_loop_at_depth_10000():
    loop = Lts(("s",), ("a",), (("s", "a", "s"),), "s")
    assert refines(loop, loop, 10_000)
    stop = Lts(("s", "t"), ("a",), (("s", "a", "s"), ("s", "tau", "t")), "s")
    assert refinement_counterexample(loop, stop, 10_000) is None
    assert refinement_counterexample(stop, loop, 10_000).refusal == frozenset({"a"})
