"""The splitting partition of `equiv` against the round-by-round one it
replaced (`bisim_reference.py`): the same verdicts, the same witnesses and
the same equivalence on every state of the disjoint union."""

import itertools
from random import Random

from gclab.equiv import Lts, _partition, bisimilar, bisimilar_witness, parse_lts

import bisim_reference
from conftest import CORPUS
from oracles import random_system

ALPHABETS = [("a",), ("a", "b"), ("a", "b", "c"), ("b", "c")]


def _classes(block: dict[str, int]) -> set[frozenset[str]]:
    out: dict[int, set[str]] = {}
    for s, b in block.items():
        out.setdefault(b, set()).add(s)
    return {frozenset(c) for c in out.values()}


def _tagged(p: Lts, q: Lts) -> dict[str, int]:
    """`_partition` keyed as the reference keys it: '0:s' and '1:s'."""
    names = [f"0:{s}" for s in sorted(set(p.states))]
    names += [f"1:{s}" for s in sorted(set(q.states))]
    return dict(zip(names, _partition(p, q), strict=True))


def _agree(p: Lts, q: Lts) -> bool:
    """Assert agreement on p and q; return the verdict."""
    assert _classes(_tagged(p, q)) == _classes(bisim_reference._partition(p, q))
    verdict = bisimilar(p, q)
    assert verdict == bisim_reference.bisimilar(p, q)
    assert bisimilar_witness(p, q) == bisim_reference.bisimilar_witness(p, q)
    return verdict


def _split_copy(rng: Random, l: Lts) -> Lts:
    """A copy of one state with the same moves out, taking about half of
    the moves into it: bisimilar to `l` by construction."""
    split = rng.choice(l.states)
    copy = rng.choice("amz") + split
    trans = []
    for s, a, t in l.transitions:
        trans.append((s, a, copy if t == split and rng.random() < 0.5 else t))
        if s == split:
            trans.append((copy, a, trans[-1][2]))
    return Lts(l.states + (copy,), l.alphabet, tuple(trans), l.init)


def _mutated(rng: Random, l: Lts) -> Lts:
    """`l` with one visible move added or dropped."""
    trans = list(l.transitions)
    if trans and rng.random() < 0.5:
        trans.pop(rng.randrange(len(trans)))
    else:
        trans.append((rng.choice(l.states), rng.choice(l.alphabet), rng.choice(l.states)))
    return Lts(l.states, l.alphabet, tuple(trans), l.init)


def test_random_systems_with_tau_and_self_loops():
    rng = Random(4242)
    verdicts = set()
    for _ in range(400):
        p = random_system(rng, rng.randint(1, 8), rng.choice(ALPHABETS))
        q = random_system(rng, rng.randint(1, 8), rng.choice(ALPHABETS))
        verdicts.add(_agree(p, q))
        _agree(p, p)
    assert verdicts == {True, False}


def test_every_ordered_pair_of_corpus_systems():
    systems = [parse_lts(f.read_text(encoding="utf-8"))
               for f in sorted(CORPUS.glob("*.lts"))]
    assert len(systems) >= 5
    for p, q in itertools.product(systems, repeat=2):
        _agree(p, q)


def test_split_copies_with_and_without_a_mutated_move():
    rng = Random(1729)
    changed = 0
    for _ in range(300):
        p = random_system(rng, rng.randint(2, 7), ("a", "b", "c"))
        copy = _split_copy(rng, p)
        assert _agree(p, copy)
        changed += not _agree(p, _mutated(rng, copy))
    assert changed > 100
