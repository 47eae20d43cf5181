"""The hash-consed syntax nodes against the frozen dataclasses they
replaced (`syntax_reference.py`): two random trees, built both ways from
one description, are one node exactly when their references are equal,
and every node prints byte for byte as its reference does. The two walks
(`syntax.nodes` and `syntax.chain`) are checked against recursion over
the reference's fields and against folding a run back up, and
`conjuncts` against recursion over both operands of `and`. The rules
for a program's names and fresh names, and the refusals of a node built
with the wrong fields or assigned a field, are checked directly."""

import dataclasses
import gc
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from gclab import syntax
from gclab.parser import parse_csp, parse_gcl, parse_par
from gclab.syntax import BoolLit, Declaration, IntLit

import syntax_reference


def build(module, spec):
    """A tree of `module`'s classes from a description: a list is a node
    (its class name, then its fields, then optionally a dict of keyword
    fields), a tuple is a tuple, anything else a leaf."""
    if isinstance(spec, list):
        cls = getattr(module, spec[0])
        args = spec[1:]
        kwargs = args.pop() if args and isinstance(args[-1], dict) else {}
        return cls(*(build(module, a) for a in args),
                   **{k: build(module, v) for k, v in kwargs.items()})
    if isinstance(spec, tuple):
        return tuple(build(module, a) for a in spec)
    return spec


# Few leaf values, so that equal trees are common. A field is always a
# bool or always an int here: the reference counts `1 == True`, which
# test_bool_and_int_leaves_stay_distinct covers.
NAMES = st.sampled_from(["x", "y"])
INTS = st.integers(-1, 1)


def _node(name, *fields):
    return st.tuples(*fields).map(lambda fs: [name, *fs])


EXPRS = st.recursive(
    st.one_of(_node("IntLit", INTS), _node("BoolLit", st.booleans()), _node("Var", NAMES)),
    lambda kids: st.one_of(
        _node("ArrayRef", NAMES, kids),
        _node("UnaryOp", st.sampled_from(["neg", "not"]), kids),
        _node("BinOp", st.sampled_from(["+", "and", "<"]), kids, kids),
        _node("Builtin", st.sampled_from(["min", "max"]), st.tuples(kids, kids))),
    max_leaves=5)

TARGETS = st.one_of(_node("Var", NAMES), _node("ArrayRef", NAMES, EXPRS))


def _arms(kids):
    return st.lists(_node("GuardedCommand", EXPRS, kids), min_size=1, max_size=2).map(tuple)


STMTS = st.recursive(
    st.one_of(
        st.just(["Skip"]),
        st.sampled_from([["Fail"], ["Fail", "fail"], ["Fail", {"keyword": "fail"}],
                         ["Fail", "abort"]]),
        _node("Assign", st.tuples(TARGETS), st.tuples(EXPRS)),
        _node("RandomAssign", NAMES),
        _node("ChoiceAssign", NAMES, EXPRS),
        _node("Await", EXPRS)),
    lambda kids: st.one_of(
        _node("Seq", st.lists(kids, min_size=2, max_size=3).map(tuple)),
        _node("If", _arms(kids)),
        _node("Do", _arms(kids)),
        _node("IfElse", EXPRS, kids, kids),
        _node("While", EXPRS, kids)),
    max_leaves=4)

DECLS = st.one_of(
    _node("Declaration", NAMES, st.just("int")),
    st.tuples(NAMES, st.one_of(st.none(), INTS)).map(
        lambda t: ["Declaration", t[0], "int", {"init": t[1]}]),
    st.tuples(NAMES, st.booleans()).map(lambda t: ["Declaration", t[0], "bool", None, None, t[1]]),
    st.tuples(NAMES, st.one_of(st.none(), INTS, st.tuples(INTS, INTS))).map(
        lambda t: ["Declaration", t[0], "int[]", {"lo": 0, "hi": 1, "init": t[1]}]))

TREES = st.one_of(
    EXPRS, STMTS, DECLS,
    _node("GclProgram", st.lists(DECLS, max_size=2).map(tuple), STMTS))


@settings(max_examples=400, deadline=None)
@given(TREES, TREES)
def test_interned_nodes_match_the_reference(a, b):
    na, nb = build(syntax, a), build(syntax, b)
    ra, rb = build(syntax_reference, a), build(syntax_reference, b)
    assert (na is nb) == (ra == rb)
    assert (na == nb) == (ra == rb)
    assert repr(na) == repr(ra) and repr(nb) == repr(rb)
    assert build(syntax, a) is na


def test_bool_and_int_leaves_stay_distinct():
    pairs = [
        (IntLit, 1, True),
        (BoolLit, True, 1),
        (lambda v: Declaration("distinct_x", "int", init=v), 1, True),
        (lambda v: Declaration("distinct_x", "int", init=v), 0, False),
        (lambda v: Declaration("distinct_a", "int[]", lo=0, hi=1, init=v), (1, 0), (True, False)),
    ]
    for make, a, b in pairs:
        for first, second in ((a, b), (b, a)):
            x, y = make(first), make(second)
            assert x is not y and x != y
            assert repr(x) != repr(y)
            assert (x, y) == (make(first), make(second))
            del x, y
            gc.collect()


def _reference_preorder(tree):
    """The reference tree's nodes in pre-order, by recursion over each
    node's dataclass fields in order."""
    out = [tree]
    for f in dataclasses.fields(tree):
        value = getattr(tree, f.name)
        for x in value if isinstance(value, tuple) else (value,):
            if dataclasses.is_dataclass(x):
                out += _reference_preorder(x)
    return out


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_nodes_walks_every_field_in_preorder(spec):
    walked = [repr(n) for n in syntax.nodes(build(syntax, spec))]
    assert walked == [repr(r) for r in _reference_preorder(build(syntax_reference, spec))]


def _fold(run):
    first, pairs = run
    return reduce(lambda left, pair: ["BinOp", pair[0], left, pair[1]], pairs, first)


# left-associated runs of operators of mixed binding powers; `^` is unknown
RUNS = st.recursive(
    st.one_of(_node("IntLit", INTS), _node("Var", NAMES)),
    lambda kids: st.one_of(
        st.tuples(kids, st.lists(st.tuples(
            st.sampled_from(["+", "-", "*", "div", "and", "or", "<", "=", "^"]), kids),
            min_size=1, max_size=8)).map(_fold),
        _node("UnaryOp", st.just("neg"), kids)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(RUNS)
def test_chain_folds_back_to_its_expression(spec):
    """For every binary node, `chain` gives the longest run of its binding
    power ending there, and folding the run back with `BinOp` rebuilds
    the node itself."""
    power = {op: row.power for op, row in syntax.BINARY.items()
             if row.power != syntax.COMPARE_BP}
    for e in syntax.nodes(build(syntax, spec)):
        if not isinstance(e, syntax.BinOp):
            continue
        first, pairs = syntax.chain(e)
        assert reduce(lambda left, pair: syntax.BinOp(pair[0], left, pair[1]),
                      pairs, first) is e
        if e.op not in power:
            assert len(pairs) == 1
            continue
        assert {power.get(op) for op, _ in pairs} == {power[e.op]}
        assert not (isinstance(first, syntax.BinOp) and power.get(first.op) == power[e.op])


# ---------------------------------------------------------------------------
# Conjuncts and names
# ---------------------------------------------------------------------------

def _reference_conjuncts(e):
    """The atoms of a conjunction by recursion on both operands of `and`."""
    if isinstance(e, syntax.BinOp) and e.op == "and":
        return _reference_conjuncts(e.left) + _reference_conjuncts(e.right)
    return [e]


# conjunctions nested every way, over variables and other binary operators
CONJUNCTIONS = st.recursive(
    st.one_of(_node("Var", NAMES), _node("BinOp", st.sampled_from(["or", "=", "+"]),
                                         _node("Var", NAMES), _node("Var", NAMES))),
    lambda kids: _node("BinOp", st.just("and"), kids, kids),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(CONJUNCTIONS)
def test_conjuncts_split_every_nesting_of_and(spec):
    for e in syntax.nodes(build(syntax, spec)):
        if isinstance(e, syntax.Expr):
            assert syntax.conjuncts(e) == _reference_conjuncts(e)


def test_program_names_of_every_kind_of_program():
    """The names a program declares, reads or writes, with a declared name
    that no statement uses among them."""
    gcl = parse_gcl("var x: int; var unused: bool; var a: int[0..1];\nx := a[x]; x := ?")
    csp = parse_csp("process P\n  var s: int;\n  var quiet: int;\n  do s = 0 ; Q ! 1 -> s := 1 od\n"
                    "end\nprocess Q\n  var r: int;\n  do r = 0 ; P ? r -> skip od\nend")
    par = parse_par("var x: int; var y: int; var idle: int;\ninit\n  x := 1\n"
                    "component\n  while x < 3 do x := x + 1 od\nend\nepilogue\n  y := 0")
    assert syntax.program_names(gcl) == {"x", "unused", "a"}
    assert syntax.program_names(csp) == {"s", "quiet", "r"}
    assert syntax.program_names(par) == {"x", "y", "idle"}
    # an input target counts even where nothing declares it
    receive = syntax.ExtGuard(syntax.TRUE, syntax.Input("Q", "v"), syntax.Skip())
    unchecked = syntax.CspSystem((syntax.CspProcess("P", (), syntax.Skip(), (receive,)),))
    assert syntax.program_names(unchecked) == {"v"}


def test_fresh_names_take_the_first_prefix_with_no_name_taken():
    prefixes = ("cv", "cvv", "cvvv")
    assert syntax.fresh_names(prefixes, 2, {"x", "cv3", "cvv0"}) == ["cv1", "cv2"]
    assert syntax.fresh_names(prefixes, 2, {"cv2"}) == ["cvv1", "cvv2"]
    assert syntax.fresh_names(prefixes, 2, {"cv1", "cvv2", "cvvv1"}) is None
    assert syntax.fresh_names(prefixes, 0, {"cv1"}) == []


# ---------------------------------------------------------------------------
# A node takes its fields once, and keeps them
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args, kwargs", [
    (("x", "int", 0, 1, None, "extra"), {}),
    (("x",), {}),
    (("x", "int"), {"name": "y"}),
    (("x", "int"), {"size": 3}),
], ids=["too-many", "missing-kind", "name-twice", "unknown-field"])
def test_a_node_built_with_wrong_fields_is_refused(args, kwargs):
    with pytest.raises(TypeError) as err:
        Declaration(*args, **kwargs)
    assert str(err.value).startswith(
        "Declaration takes the fields ('name', 'kind', 'lo', 'hi', 'init'), not ")


def test_node_fields_refuse_assignment():
    e = syntax.BinOp("+", syntax.Var("x"), IntLit(1))
    for name in ("op", "left", "_text", "other"):
        with pytest.raises(AttributeError) as err:
            setattr(e, name, None)
        assert str(err.value) == f"cannot change field {name!r} of a syntax node"
        with pytest.raises(AttributeError):
            delattr(e, name)
    assert (e.op, e.left, e.right) == ("+", syntax.Var("x"), IntLit(1))
