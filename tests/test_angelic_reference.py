"""Angelic search on the shared `GraphSearch` against its former private
search (`angelic_reference.py`): the same successful states in the same
first-found order, under budgets that stop the search early, depths that
cut it, and choice bounds that truncate `x := ?`."""

import itertools
from random import Random

import pytest

from gclab.engine import GraphSearch, Limits, solve_angelic
from gclab.parser import parse_gcl

import angelic_reference
from conftest import CORPUS
from test_differential import _program

LIMITS = [Limits(max_configs=c, max_depth=d, choice_bound=b)
          for c, d, b in itertools.product((5, 40, 100_000), (3, 8, 500), (0, 2))]


@pytest.fixture
def watched(monkeypatch):
    """Counts, over the test, searches stopped by `max_configs` and
    shallower revisits (black-map entries deleted so that a truncated
    subtree is explored again), so the test can show it reached both."""
    counts = {"stopped": 0, "revisits": 0}

    class CountingBlack(dict):
        def __delitem__(self, key):
            counts["revisits"] += 1
            super().__delitem__(key)

    init, run = GraphSearch.__init__, GraphSearch.run

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.black = CountingBlack()

    def counting_run(self, root):
        run(self, root)
        counts["stopped"] += self.stopped

    monkeypatch.setattr(GraphSearch, "__init__", counting_init)
    monkeypatch.setattr(GraphSearch, "run", counting_run)
    return counts


def _same(p, lim):
    got = solve_angelic(p, lim=lim)
    want = angelic_reference.solve_angelic(p, lim=lim)
    assert got == want  # the same states, in the same order
    return len(got)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.gcl")), ids=lambda p: p.name)
def test_angelic_matches_reference_on_corpus(path):
    p = parse_gcl(path.read_text(encoding="utf-8"))
    found = sum(_same(p, lim) for lim in LIMITS)
    assert found > 0


def test_angelic_matches_reference_on_random_programs(watched):
    rng = Random(4242)
    for _ in range(300):  # one of them stops at the 100,000 budget
        p = _program(rng)
        for lim in LIMITS:
            _same(p, lim)
    # the sweep reached both rules the two searches must agree on
    assert watched["stopped"] > 0 and watched["revisits"] > 0
