"""gclab's records, one by one: equality and hashing, order, construction,
repr texts and refused assignment. Each is a `typing.NamedTuple` or a
slotted class with hand-written methods; `import gclab` loads neither
`dataclasses` nor `inspect`."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from gclab import (
    AtomicAction, BoundExceeded, CorrespondencePair, Divergent, ExplorationReport, Failed,
    Failure, LabeledComponent, Limits, Lts, OneLevelProgram, Terminated, initial_state,
    label_component, one_level_of, parse_gcl, parse_par,
)
from gclab.engine import Expansion

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
S = initial_state(parse_gcl("var x: int; var a: int[0..1]; x := 1").decls)
S_TEXT = "State(values=((0, 0), 0))"


def _lts(success=frozenset({"s1"})) -> Lts:
    return Lts(("s0", "s1"), ("a",), (("s0", "a", "s1"),), "s0", success)


RECORDS = [
    (lambda: Limits(), "Limits(max_configs=100000, max_depth=500, choice_bound=8)"),
    (lambda: Terminated(S), f"Terminated(state={S_TEXT})"),
    (lambda: Failed("eval-error", S, "division by zero"),
     f"Failed(reason='eval-error', state={S_TEXT}, detail='division by zero')"),
    (lambda: Divergent("k", False, ("a",), ("b", "c")),
     "Divergent(repeat_key='k', exact=False, stem=('a',), cycle=('b', 'c'))"),
    (lambda: BoundExceeded("fuel"), "BoundExceeded(limit='fuel')"),
    (lambda: ExplorationReport((Terminated(S),), 1, 2, 3, Limits(5, 6, 7)),
     f"ExplorationReport(outcomes=(Terminated(state={S_TEXT}),), configs=1, edges=2, "
     "paths=3, limits=Limits(max_configs=5, max_depth=6, choice_bound=7))"),
    (lambda: Expansion([("x := 1", 3)], None, "max-configs"),
     "Expansion(transitions=[('x := 1', 3)], failure=None, truncated='max-configs', "
     "side_outcomes=())"),
    (_lts, "Lts(states=('s0', 's1'), alphabet=('a',), transitions=(('s0', 'a', 's1'),), "
           "init='s0', success=frozenset({'s1'}))"),
    (lambda: Failure(("a", "b"), frozenset({"a"})),
     "Failure(trace=('a', 'b'), refusal=frozenset({'a'}))"),
    (lambda: one_level_of(parse_gcl("var x: int; x := 0; do x < 2 -> x := x + 1 od")),
     "OneLevelProgram(decls=(Declaration(name='x', kind='int', lo=None, hi=None, init=None),), "
     "init=Assign(targets=(Var(name='x'),), values=(IntLit(value=0),)), "
     "loop=Do(arms=(GuardedCommand(guard=BinOp(op='<', left=Var(name='x'), "
     "right=IntLit(value=2)), body=Assign(targets=(Var(name='x'),), "
     "values=(BinOp(op='+', left=Var(name='x'), right=IntLit(value=1)),))),)))"),
    (lambda: CorrespondencePair(0, 1, 2, 3), "CorrespondencePair(i=0, j=1, r=2, s=3)"),
    (lambda: AtomicAction(0, None, None, 1),
     "AtomicAction(source=0, guard=None, effect=None, target=1)"),
    (lambda: label_component(parse_par("var x: int;\ncomponent\n x := 1\nend").components[0]),
     "LabeledComponent(actions=(AtomicAction(source=0, guard=None, effect=Assign("
     "targets=(Var(name='x'),), values=(IntLit(value=1),)), target=1),), entry=0, exit=1, "
     "labels=('a', 'b'))"),
]
IDS = [text[:text.index("(")] for _, text in RECORDS]


def test_every_record_class_is_pinned():
    assert {type(make()) for make, _ in RECORDS} == {
        Limits, Terminated, Failed, Divergent, BoundExceeded, ExplorationReport, Expansion,
        Lts, Failure, OneLevelProgram, CorrespondencePair, AtomicAction, LabeledComponent}


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_record_repr_texts(make, text):
    assert repr(make()) == text


# an `Expansion` is made once per step, so it stays a plain class whose
# fields can be assigned
FROZEN = [(make, text) for make, text in RECORDS if not text.startswith("Expansion(")]


@pytest.mark.parametrize("make, text", FROZEN, ids=[t[:t.index("(")] for _, t in FROZEN])
def test_record_fields_refuse_assignment(make, text):
    record = make()
    names = record._fields if isinstance(record, tuple) else type(record).__slots__
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_equal_records_hash_alike(make, text):
    a, b = make(), make()
    assert a == b and not a != b
    if isinstance(a, Expansion):
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_failed_and_divergent_equality_skip_their_details():
    assert Failed("eval-error", S, "one") == Failed("eval-error", S, "two")
    assert hash(Failed("eval-error", S, "one")) == hash(Failed("eval-error", S))
    assert Failed("eval-error", S) != Failed("explicit-fail", S)
    assert Divergent("k", True, ("a",), ("b",)) == Divergent("k")
    assert hash(Divergent("k", True, ("a",), ("b",))) == hash(Divergent("k"))
    assert Divergent("k") != Divergent("k", False) and Divergent("k") != Divergent("j")
    outcomes = {Failed("deadlock", S, "one"), Failed("deadlock", S, "two"), Terminated(S),
                Divergent("k", True, ("a",)), Divergent("k"), BoundExceeded("fuel")}
    assert len(outcomes) == 4
    assert Failed("deadlock", S) != Terminated(S) and Divergent("k") != BoundExceeded("k")


def test_correspondence_pairs_order_by_their_fields():
    pairs = [CorrespondencePair(1, 0, 2, 0), CorrespondencePair(0, 1, 2, 3),
             CorrespondencePair(0, 1, 1, 5)]
    assert sorted(pairs) == [pairs[2], pairs[1], pairs[0]]
    assert CorrespondencePair(0, 1, 2, 3) < CorrespondencePair(0, 2, 0, 0)
    assert CorrespondencePair(0, 1, 2, 3) <= CorrespondencePair(0, 1, 2, 3)


def test_limits_construction():
    assert (Limits().max_configs, Limits().max_depth, Limits().choice_bound) == (100_000, 500, 8)
    lim = Limits(7, 9, 0)
    assert (lim.max_configs, lim.max_depth, lim.choice_bound) == (7, 9, 0)
    assert Limits(choice_bound=3) == Limits(100_000, 500, 3)
    assert Limits(max_depth=20, max_configs=4) == Limits(4, 20)
    assert Limits(4) != Limits(5)
    assert hash(Limits(4, 20)) == hash(Limits(max_configs=4, max_depth=20))
    with pytest.raises(ValueError, match="^max-configs must be at least 1$"):
        Limits(0, 0, -1)
    with pytest.raises(ValueError, match="^max-depth must be at least 1$"):
        Limits(max_depth=0, choice_bound=-1)
    with pytest.raises(TypeError):
        Limits(1, 2, 3, 4)


def test_lts_view_stays_out_of_equality_hash_and_repr():
    fresh, used = _lts(), _lts()
    used.moves()
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    # the same numbered view, but other fields: unequal
    swapped = Lts(("s1", "s0"), ("a",), (("s0", "a", "s1"),), "s0", frozenset({"s1"}))
    assert swapped._names == fresh._names and swapped._succ == fresh._succ
    assert swapped != fresh
    assert _lts(frozenset()) != fresh
    keywords = Lts(states=("s0",), alphabet=(), transitions=(), init="s0")
    assert keywords == Lts(("s0",), (), (), "s0", frozenset())


def test_failure_is_not_a_tuple():
    f = Failure(("a",), frozenset({"b"}))
    assert not isinstance(f, tuple)
    assert f != (("a",), frozenset({"b"}))
    assert f == Failure(trace=("a",), refusal=frozenset({"b"}))


def test_import_loads_neither_dataclasses_nor_inspect():
    """In a fresh interpreter, against the modules it had before."""
    code = ("import json, sys; before = set(sys.modules); import gclab; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    added = json.loads(out)
    assert "gclab.engine" in added
    assert not {"dataclasses", "inspect"} & set(added), added
