"""The one-level prover, which decides comparisons with the meanings in
`syntax.BINARY`, against its former hand-written relation tables
(`one_level_reference.py`): the same `_atoms_exclusive` answers, and the
same `is_one_level_nondeterministic` verdicts and diagnostics."""

import itertools
from random import Random

import pytest

from gclab import fairness
from gclab.csp import translate_csp
from gclab.fairness import FixpointInstance, chaotic_iteration_program
from gclab.par import translate_par
from gclab.parser import parse_csp, parse_gcl, parse_par
from gclab.syntax import (
    BINARY, ArrayRef, BinOp, BoolLit, Do, GclProgram, GuardedCommand, IntLit,
    UnaryOp, Var, not_,
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
