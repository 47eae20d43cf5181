"""The expression compiler (`state.compile_expr`, `compile_guards`,
`compile_assign`) against the recursive evaluator it replaced
(`eval_reference.py`): random well-typed and ill-typed trees, evaluated
over random states of two layouts, must give the same values of the same
types, or raise the same exception with the same reason and detail."""

from collections import Counter
from random import Random

import pytest

from gclab import state
from gclab.errors import EvalError
from gclab.state import (
    apply_parallel_assign, compile_assign, compile_expr, compile_guards,
    eval_expr, initial_state,
)
from gclab.syntax import (
    BINARY, ArrayRef, Assign, BinOp, BoolLit, Builtin, Declaration, IntLit,
    Skip, UnaryOp, Var, conj, disj,
)

import eval_reference

INTS = ("x", "y", "z")
BOOLS = ("b", "c")
# `^`, `~` and `abs` are unknown operators; `Skip()` is not an expression
BINARY_OPS = tuple(BINARY) + ("^",)
UNARY_OPS = ("neg", "not", "~")
FUNCS = ("min", "max", "abs")


def _layouts():
    """Two declaration lists over the same variables; the second adds
    names that shift every position, so one closure meets both."""
    base = ([Declaration(n, "int") for n in INTS]
            + [Declaration(n, "bool") for n in BOOLS]
            + [Declaration("a", "int[]", lo=-1, hi=2)])
    shifted = base + [Declaration("aa", "int"), Declaration("bb", "bool"),
                      Declaration("w", "int[]", lo=0, hi=1)]
    return tuple(base), tuple(shifted)


def _state(rng: Random, decls):
    binds = {n: rng.randint(-3, 3) for n in INTS}
    binds.update({n: rng.random() < 0.5 for n in BOOLS})
    binds["a"] = tuple(rng.randint(-3, 3) for _ in range(4))
    return initial_state(decls, binds)


def _expr(rng: Random, depth: int, typed: bool, want: str = "int"):
    """A random expression. Typed trees respect operand types (they can
    still fail on a division by zero or an index out of range); untyped
    ones mix ints, bools, the array itself and unknown operators."""
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng, typed, want)
    r = rng.random()
    if r < 0.15:
        return ArrayRef("a", _expr(rng, depth - 1, typed))
    if r < 0.30:
        op = rng.choice(UNARY_OPS if not typed else
                        ("not",) if want == "bool" else ("neg",))
        return UnaryOp(op, _expr(rng, depth - 1, typed, want))
    if r < 0.40 and (want == "int" or not typed):
        func = rng.choice(FUNCS if not typed else FUNCS[:2])
        return Builtin(func, (_expr(rng, depth - 1, typed),
                              _expr(rng, depth - 1, typed)))
    if not typed:
        op = rng.choice(BINARY_OPS)
        return BinOp(op, _expr(rng, depth - 1, typed), _expr(rng, depth - 1, typed))
    ops = [op for op, row in BINARY.items() if row.result == want]
    op = rng.choice(ops)
    operand = BINARY[op].operand or rng.choice(("int", "bool"))
    return BinOp(op, _expr(rng, depth - 1, typed, operand),
                 _expr(rng, depth - 1, typed, operand))


def _leaf(rng: Random, typed: bool, want: str):
    if not typed:
        return rng.choice((
            IntLit(rng.randint(-2, 2)), BoolLit(rng.random() < 0.5),
            Var(rng.choice(INTS + BOOLS)), Var("a"), ArrayRef("b", IntLit(0)),
            Skip()))
    if want == "bool":
        return BoolLit(rng.random() < 0.5) if rng.random() < 0.4 else Var(rng.choice(BOOLS))
    return IntLit(rng.randint(-2, 2)) if rng.random() < 0.4 else Var(rng.choice(INTS))


def _outcome(f, *args):
    """What a call gives: ('value', type, value) or ('raised', class,
    reason, detail, message)."""
    try:
        v = f(*args)
    except Exception as e:  # compared class by class below
        return ("raised", type(e), getattr(e, "reason", None),
                getattr(e, "detail", None), str(e))
    return ("value", type(v), v)


def _trees(seed: int, count: int):
    rng = Random(seed)
    layouts = _layouts()
    for k in range(count):
        typed = k % 2 == 0
        e = _expr(rng, rng.randint(1, 5), typed, rng.choice(("int", "bool")))
        yield rng, e, [_state(rng, layouts[j % 2]) for j in range(4)]


def test_compiled_expressions_match_the_reference():
    seen = set()
    for _, e, states in _trees(9, 3000):
        f = compile_expr(e)  # one closure for every state and layout
        for s in states:
            want = _outcome(eval_reference.eval_expr, e, s)
            assert _outcome(f, s) == want, e
            assert _outcome(eval_expr, e, s) == want, e
            seen.add(want[0] if want[0] == "value" else (want[1], want[2]))
    # every kind of result was met: values, evaluation errors and others
    assert {"value", (EvalError, "eval-error"), (TypeError, None),
            (KeyError, None)} <= seen


@pytest.mark.parametrize("text,e,value", [
    ("false and 1 div 0 = 0",
     BinOp("and", BoolLit(False), BinOp("=", BinOp("div", IntLit(1), IntLit(0)), IntLit(0))),
     False),
    ("true or a[9] = 0",
     BinOp("or", BoolLit(True), BinOp("=", ArrayRef("a", IntLit(9)), IntLit(0))), True),
    ("0 and 1 div 0", BinOp("and", IntLit(0), BinOp("div", IntLit(1), IntLit(0))), 0),
])
def test_and_or_short_circuit_and_return_an_operand(text, e, value):
    s = initial_state(_layouts()[0])
    got = compile_expr(e)(s)
    assert got is value or (type(got), got) == (type(value), value), text


@pytest.mark.parametrize("e,exc,detail", [
    (BinOp("^", BinOp("div", IntLit(1), IntLit(0)), IntLit(1)), EvalError, "div by zero"),
    (BinOp("^", IntLit(1), ArrayRef("a", IntLit(9))), EvalError,
     "index 9 outside 'a[-1..2]'"),
    (BinOp("^", IntLit(1), IntLit(2)), EvalError, "unknown operator '^'"),
    (UnaryOp("~", BinOp("mod", IntLit(1), IntLit(0))), EvalError, "mod by zero"),
    (UnaryOp("~", IntLit(1)), EvalError, "unknown unary operator '~'"),
    (Builtin("abs", (IntLit(1), BinOp("div", IntLit(1), IntLit(0)))), EvalError,
     "div by zero"),
    (Builtin("abs", (IntLit(1), IntLit(2))), KeyError, None),
    (BinOp("+", BinOp("div", IntLit(1), IntLit(0)), ArrayRef("a", IntLit(9))),
     EvalError, "div by zero"),
])
def test_unknown_operators_raise_after_their_operands(e, exc, detail):
    s = initial_state(_layouts()[0])
    f = compile_expr(e)  # compiling never raises
    with pytest.raises(exc) as err:
        f(s)
    with pytest.raises(exc) as ref:
        eval_reference.eval_expr(e, s)
    assert getattr(err.value, "detail", None) == getattr(ref.value, "detail", None) == detail


def test_compiled_guards_match_the_reference_in_arm_order():
    rng = Random(5)
    for _, e, states in _trees(17, 600):
        other = _expr(rng, 3, False)
        guards = rng.choice(((e, e), (e, other, e), (other, e, other, e), (e,)))
        f = compile_guards(guards)
        for s in states:
            want = []
            try:
                for g in guards:
                    want.append(eval_reference.eval_expr(g, s))
            except Exception as ex:
                want = ("raised", type(ex), getattr(ex, "detail", None), str(ex))
            got = _outcome(f, s)
            if got[0] == "value":
                got = [(type(v), v) for v in got[2]]
                want = [(type(v), v) for v in want]
            else:
                got = ("raised", got[1], got[3], got[4])
            assert got == want, guards


def _point(rng: Random, names) -> list:
    """The atoms `v = literal` of a point over `names`, in random order;
    a bool variable meets a bool literal, or now and then an int one."""
    atoms = []
    for n in names:
        if n in BOOLS:
            lit = BoolLit(rng.random() < 0.5) if rng.random() < 0.8 else IntLit(rng.randint(0, 1))
        else:
            lit = IntLit(rng.randint(-3, 3))
        atoms.append(BinOp("=", Var(n), lit))
    rng.shuffle(atoms)
    return atoms


def _and_tree(rng: Random, atoms: list):
    """`atoms` joined by `and` in a random nesting, such as
    `a and (b and c)` as well as `(a and b) and c`."""
    if len(atoms) == 1:
        return atoms[0]
    cut = rng.randint(1, len(atoms) - 1)
    return BinOp("and", _and_tree(rng, atoms[:cut]), _and_tree(rng, atoms[cut:]))


def _tables(seed: int, count: int):
    """(whether the guards form a point table, guards, states): random
    tables over 1-3 variables, with duplicate points, now and then a
    variable the states do not declare (`zz`), a repeated variable in one
    conjunction or mixed variable sets; a conjunction is nested at random
    half of the time; half of the states sit on a point."""
    rng = Random(seed)
    layouts = _layouts()
    pool = INTS + BOOLS
    for k in range(count):
        names = rng.sample(pool + ("zz",) if k % 10 == 0 else pool, rng.randint(1, 3))
        points = [_point(rng, names) for _ in range(rng.randint(1, 7))]
        if rng.random() < 0.3:  # the same point again, its atoms reordered
            points.append(rng.sample(points[0], len(points[0])))
        table, roll = True, rng.random()
        if roll < 0.15:  # a repeated variable in one conjunction
            points[-1] = points[-1] + _point(rng, names[:1])
            table = False
        elif roll < 0.3:  # mixed variable sets
            other = rng.sample([n for n in pool if n not in names], 1)
            points.insert(rng.randrange(len(points) + 1),
                          _point(rng, rng.sample(names, 1) + other))
            table = False
        guards = tuple(_and_tree(rng, p) if rng.random() < 0.5 else conj(p) for p in points)
        if rng.random() < 0.3:
            guards += (rng.choice(guards),)  # a duplicate guard
        states = []
        for j in range(6):
            s = _state(rng, layouts[j % 2])
            at = {a.left.name: a.right.value for a in rng.choice(points)
                  if a.left.name in INTS or type(a.right.value) is bool}
            at.pop("zz", None)
            states.append(s.with_bindings(at) if j % 2 else s)
        yield table, guards, states


def _typed(outcome):
    """An outcome with every guard value paired with its type, whatever
    the sequence that holds them."""
    if outcome[0] == "value":
        return ("value", [(type(v), v) for v in outcome[2]])
    return outcome


def test_point_tables_match_the_reference():
    """Guards that are conjunctions of `Var = literal` over one set of
    variables, parenthesised in any way, are one lookup (`compile_guards`), and a run of three or
    more such disjuncts one membership test (`compile_expr`); every other
    list keeps the generic path. Both give the reference's values, types
    included, or raise its error."""
    assert state._point_table(()) is None
    hits = Counter()
    for table, guards, states in _tables(41, 1500):
        assert (state._point_table(guards) is not None) == table, guards
        f = compile_guards(guards)
        run = disj(list(guards))
        g = compile_expr(run)
        for s in states:
            want = _outcome(lambda s: [eval_reference.eval_expr(e, s) for e in guards], s)
            assert _typed(_outcome(f, s)) == _typed(want), guards
            assert _outcome(g, s) == _outcome(eval_reference.eval_expr, run, s), guards
            hits[table, want[0] == "value" and any(want[2])] += 1
    # lookups met hits and misses, and the generic path was taken too
    assert min(hits.values()) > 100 and len(hits) == 4


def _run(first, pairs):
    """The left-associated run `first op operand op operand ...` of the
    (op, operand) pairs."""
    e = first
    for op, operand in pairs:
        e = BinOp(op, e, operand)
    return e


def test_long_runs_match_the_reference():
    """A run of two or more operators compiles to one closure that loops
    over its operands: random runs of up to 300 operators give the
    reference's value, or raise its error at the same operand."""
    rng = Random(31)
    layouts = _layouts()
    families = [(("+", "-"), "int"), (("*", "div", "mod"), "int"),
                (("and",), "bool"), (("or",), "bool")]
    seen = set()
    for n in (2, 3, 7, 40, 300):
        for ops, want in families:
            for typed in (True, False):
                e = _run(_expr(rng, 2, typed, want),
                         [(rng.choice(ops), _expr(rng, 2, typed, want)) for _ in range(n)])
                f = compile_expr(e)
                for j in range(4):
                    s = _state(rng, layouts[j % 2])
                    ref = _outcome(eval_reference.eval_expr, e, s)
                    assert _outcome(f, s) == ref, (n, ops)
                    seen.add((n, ref[0] == "value"))
    assert {(300, True), (300, False)} <= seen


@pytest.mark.parametrize("op,stop", [("and", False), ("or", True)])
def test_long_and_or_runs_stop_at_the_deciding_operand(op, stop):
    """The deciding operand sits mid-run, before an operand that fails
    and one that is not even an expression; its own value comes back."""
    s = initial_state(_layouts()[0])
    fails = BinOp("=", BinOp("div", IntLit(1), IntLit(0)), IntLit(0))
    for decider in (BoolLit(stop), IntLit(7 if stop else 0)):
        rest = [BoolLit(not stop)] * 149 + [decider, fails, Skip()] + [BoolLit(not stop)] * 148
        e = _run(BoolLit(not stop), [(op, x) for x in rest])
        got = compile_expr(e)(s)
        assert (type(got), got) == (type(decider.value), decider.value)
        assert _outcome(compile_expr(e), s) == _outcome(eval_reference.eval_expr, e, s)


@pytest.mark.parametrize("op", ["div", "mod"])
def test_division_by_zero_mid_run_fails_before_later_operands(op):
    s = initial_state(_layouts()[0])
    pairs = ([("*", IntLit(5)), (op, IntLit(3))] * 75 + [(op, BinOp("-", Var("x"), Var("x")))]
             + [(op, ArrayRef("a", IntLit(9)))] * 149)
    e = _run(IntLit(10 ** 20), pairs)
    got = _outcome(compile_expr(e), s)
    assert got == _outcome(eval_reference.eval_expr, e, s)
    assert got[:4] == ("raised", EvalError, "eval-error", f"{op} by zero")


def _assign(rng: Random) -> Assign:
    targets = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            targets.append(Var(rng.choice(INTS[:2])))
        else:
            targets.append(ArrayRef("a", _expr(rng, 2, True)))
    values = tuple(_expr(rng, 2, True) for _ in targets)
    return Assign(tuple(targets), values)


def test_compiled_assignments_match_reference_values_written_in_parallel():
    rng = Random(23)
    layouts = _layouts()
    seen = set()
    for _ in range(2000):
        a = _assign(rng)
        f = compile_assign(a)
        for j in range(4):
            s = _state(rng, layouts[j % 2])

            def reference(s):
                values = tuple(eval_reference.eval_expr(v, s) for v in a.values)
                return apply_parallel_assign(a.targets, values, s)
            want = _outcome(reference, s)
            got = _outcome(f, s)
            assert got == want, a
            if want[0] == "value":
                assert got[2].canonical() == want[2].canonical()
                seen.add("value")
            else:
                seen.add(want[2])
    assert seen == {"value", "eval-error", "aliasing"}
