"""The one-level prover, which decides comparisons with the meanings in
`syntax.BINARY`, against its former hand-written relation tables
(`one_level_reference.py`): the same `_atoms_exclusive` answers, in
either argument order, and the same `is_one_level_nondeterministic`
verdicts and diagnostics, with each atom pair of a command decided once."""

import itertools
from random import Random

import pytest

from gclab import fairness
from gclab.csp import translate_csp
from gclab.fairness import FixpointInstance, chaotic_iteration_program
from gclab.par import translate_par
from gclab.parser import parse_csp, parse_gcl, parse_par
from gclab.syntax import (
    BINARY, ArrayRef, Assign, BinOp, BoolLit, Declaration, Do, GclProgram,
    GuardedCommand, If, IntLit, Skip, UnaryOp, Var, not_, seq,
)

import one_level_reference as ref
from conftest import CORPUS
from test_differential import _guard, _program

COMPARISONS = ("<", "<=", "=", "!=", ">", ">=")


def _same_verdict(p: GclProgram) -> bool:
    verdict = fairness.is_one_level_nondeterministic(p)
    assert verdict == ref.is_one_level_nondeterministic(p)
    return verdict[0]


def _same_exclusive(a, b) -> bool:
    answer = fairness._atoms_exclusive(a, b)
    assert answer == ref._atoms_exclusive(a, b), (a, b)
    # the guard check decides each unordered atom pair once
    assert fairness._atoms_exclusive(b, a) == answer, (b, a)
    return answer


def _corpus_programs():
    for path in sorted(CORPUS.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".gcl":
            yield path.name, parse_gcl(text)
        elif path.suffix == ".csp":
            yield path.name, translate_csp(parse_csp(text))
        elif path.suffix == ".par":
            yield path.name, translate_par(parse_par(text))


@pytest.mark.parametrize("name,program", list(_corpus_programs()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_corpus_verdicts_match_reference(name, program):
    if _same_verdict(program):
        _same_verdict(fairness.transform_wf(program))


def test_random_program_verdicts_match_reference():
    """The differential test's random programs, as they are and as the body
    of a one-armed loop, so the check descends into their statements."""
    rng = Random(4711)
    verdicts = set()
    for _ in range(1500):
        p = _program(rng)
        _same_verdict(p)
        loop = GclProgram(p.decls, Do((GuardedCommand(_guard(rng), p.body),)))
        verdicts.add(_same_verdict(loop))
    assert verdicts == {True, False}


def test_chaotic_iteration_verdicts_match_reference():
    rng = Random(2718)
    for _ in range(60):
        n, height = rng.randint(1, 3), rng.randint(1, 2)
        points = itertools.product(range(height + 1), repeat=n)
        table = {pt: tuple(rng.randint(0, height) for _ in range(n)) for pt in points}
        assert _same_verdict(chaotic_iteration_program(
            FixpointInstance.from_table(n, height, table)))


def test_height_three_chaotic_verdicts_match_reference():
    """Two variables of height 3: every arm body is a 16-arm table `if`."""
    rng = Random(1618)
    for _ in range(20):
        table = {pt: (rng.randint(0, 3), rng.randint(0, 3))
                 for pt in itertools.product(range(4), repeat=2)}
        p = chaotic_iteration_program(FixpointInstance.from_table(2, 3, table))
        assert [len(arm.body.arms) for arm in p.body.stmts[-1].arms] == [16, 16]
        assert _same_verdict(p)


def _table_loop(size: int, duplicate: int | None = None, at: int | None = None):
    """`do n < 3 -> n := n + 1; if x = a and y = b -> x := (a+1) mod size
    [] ... fi od` over every (a, b), with the guard of arm `duplicate`
    repeated before arm `at` when given."""
    arms = [GuardedCommand(BinOp("and", BinOp("=", Var("x"), IntLit(a)),
                                 BinOp("=", Var("y"), IntLit(b))),
                           Assign((Var("x"),), (IntLit((a + 1) % size),)))
            for a in range(size) for b in range(size)]
    if duplicate is not None:
        arms.insert(at, GuardedCommand(arms[duplicate].guard, Skip()))
    n = Var("n")
    body = seq([Assign((n,), (BinOp("+", n, IntLit(1)),)), If(tuple(arms))])
    decls = tuple(Declaration(v, "int") for v in ("n", "x", "y"))
    return GclProgram(decls, Do((GuardedCommand(BinOp("<", n, IntLit(3)), body),)))


def test_late_duplicated_guard_is_reported_like_the_reference():
    """One guard of a table repeated late: the reported pair `guards i
    and j` is deep in the command, and both provers name the same one.
    The 2,500-arm table of 50x50 guards repeats an early guard, so the
    pair-by-pair reference stops after a few thousand guard pairs."""
    rng = Random(5772)
    cases = []
    for _ in range(12):
        size = rng.randint(3, 8)
        dup = rng.randrange(size * size // 2, size * size)
        cases.append((size, dup, rng.randint(dup + 1, size * size)))
    for size, dup, at in cases + [(50, 0, 2500), (50, 3, 1777), (50, 1, 2)]:
        p = _table_loop(size, dup, at)
        verdict, diagnostic = fairness.is_one_level_nondeterministic(p)
        assert not verdict and not _same_verdict(p)
        assert f"guards {dup + 1} and {at + 1} of" in diagnostic
    assert _same_verdict(_table_loop(6))
    assert fairness.is_one_level_nondeterministic(_table_loop(50)) == (True, None)


def test_each_atom_pair_of_a_table_is_decided_once(monkeypatch):
    """A 30x30 table `if` has 60 distinct atoms, so at most 60 * 61 / 2 =
    1,830 atom proofs; deciding every guard pair atom pair by atom pair
    takes hundreds of thousands."""
    calls = [0]
    exclusive = fairness._atoms_exclusive

    def counting(a, b):
        calls[0] += 1
        return exclusive(a, b)

    monkeypatch.setattr(fairness, "_atoms_exclusive", counting)
    assert fairness.is_one_level_nondeterministic(_table_loop(30)) == (True, None)
    assert 0 < calls[0] <= 1830


def _first_overlap(guards):
    """The reference's first overlapping guard pair, pair by pair."""
    for i, j in itertools.combinations(range(len(guards)), 2):
        if not any(ref._atoms_exclusive(a, b) for a in guards[i] for b in guards[j]):
            return i, j
    return None


def test_random_guard_lists_overlap_like_the_reference():
    """Guards of one to three atoms from a small pool, so that guards share,
    exclude and repeat atoms: the bit-mask test finds the reference's
    first overlapping pair."""
    rng = Random(1414)
    x, y = Var("x"), Var("y")
    pool = [BinOp(op, v, IntLit(c)) for op in COMPARISONS for v in (x, y)
            for c in (0, 1)] + [BinOp("<", x, y), BinOp(">=", x, y), BoolLit(False)]
    pool += [not_(a) for a in pool[:6]]
    found = set()
    for _ in range(600):
        guards = [rng.sample(pool, rng.randint(1, 3)) for _ in range(rng.randint(0, 12))]
        overlap = fairness._overlap(guards)
        assert overlap == _first_overlap(guards), guards
        found.add(overlap is None)
    assert found == {True, False}


_OPERANDS = (Var("x"), Var("y"), IntLit(-1), IntLit(0), IntLit(2),
             BinOp("+", Var("x"), IntLit(1)), ArrayRef("a", Var("x")))


def _atom(rng: Random):
    roll = rng.random()
    if roll < 0.05:
        return BoolLit(rng.random() < 0.5)
    if roll < 0.1:
        return Var("b")
    op = rng.choice(COMPARISONS) if roll < 0.8 else rng.choice(list(BINARY))
    return BinOp(op, rng.choice(_OPERANDS), rng.choice(_OPERANDS))


def _partner(rng: Random, a):
    """An atom related to `a`: negated, with swapped or shared operands,
    or with another literal on the right."""
    roll = rng.random()
    if roll < 0.15:
        return not_(a)
    if not isinstance(a, BinOp) or roll < 0.25:
        return _atom(rng)
    op = rng.choice(COMPARISONS) if roll < 0.9 else rng.choice(list(BINARY))
    if roll < 0.5:
        return BinOp(op, a.right, a.left)
    if roll < 0.7:
        return BinOp(op, a.left, a.right)
    return BinOp(op, a.left, IntLit(rng.randint(-3, 3)))


def test_random_atom_pairs_match_reference():
    rng = Random(31415)
    answers = set()
    for _ in range(20_000):
        a = _atom(rng)
        b = _partner(rng, a)
        if rng.random() < 0.5:
            a, b = b, a
        answers.add(_same_exclusive(a, b))
    assert answers == {True, False}


def test_literal_grid_matches_reference():
    """`x op c` against `x op' d` over every pair of the 13 operators and
    c, d in -4..4, with the second atom also written swapped."""
    x = Var("x")
    exclusive = 0
    for op, op2 in itertools.product(BINARY, repeat=2):
        for c, d in itertools.product(range(-4, 5), repeat=2):
            a = BinOp(op, x, IntLit(c))
            exclusive += _same_exclusive(a, BinOp(op2, x, IntLit(d)))
            _same_exclusive(a, BinOp(op2, IntLit(d), x))
    assert exclusive > 0
