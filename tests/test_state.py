import decimal
import re
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import corpus_text

from gclab.errors import CheckError, EvalError
from gclab.parser import parse_csp, parse_gcl
from gclab.state import Layout, State, apply_parallel_assign, eval_expr, initial_state
from gclab.syntax import ArrayRef, BinOp, Builtin, Declaration, IntLit, Var, interned


def _state(src, **binds):
    p = parse_gcl(src + "\nskip")
    return p, initial_state(p.decls, binds or None)


def test_defaults_and_initializers():
    _, s = _state("var x: int; var b: bool; var y: int = 7; var c: bool = true;")
    assert s.scalar("x") == 0 and s.scalar("b") is False
    assert s.scalar("y") == 7 and s.scalar("c") is True


def test_array_default_and_broadcast():
    _, s = _state("var a: int[2..4]; var b: int[0..1] = 9;")
    assert s.array("a") == (0, 0, 0)
    assert s.array("b") == (9, 9)


def test_min_builtin():
    _, s = _state("var oddtop: int = 5; var eventop: int = 3;")
    e = Builtin("min", (Var("oddtop"), Var("eventop")))
    assert eval_expr(e, s) == 3


def test_precedence_arithmetic_value():
    _, s = _state("var x: int;")
    p = parse_gcl("var x: int; x := 1 + 2 * 3")
    assert eval_expr(p.body.values[0], s) == 7


def test_out_of_bounds_read():
    _, s = _state("var a: int[0..7];")
    with pytest.raises(EvalError):
        eval_expr(ArrayRef("a", IntLit(9)), s)


def test_div_mod_floor_semantics():
    _, s = _state("var x: int;")
    assert eval_expr(BinOp("div", IntLit(-7), IntLit(2)), s) == -4
    assert eval_expr(BinOp("mod", IntLit(-7), IntLit(2)), s) == 1
    with pytest.raises(EvalError):
        eval_expr(BinOp("div", IntLit(1), IntLit(0)), s)


def test_swap():
    _, s = _state("var x1: int = 2; var x2: int = 1;")
    targets = (Var("x1"), Var("x2"))
    values = (s.scalar("x2"), s.scalar("x1"))
    s2 = apply_parallel_assign(targets, values, s)
    assert s2.scalar("x1") == 1 and s2.scalar("x2") == 2


def test_self_assignment_identity():
    _, s = _state("var x: int = 5;")
    s2 = apply_parallel_assign((Var("x"),), (s.scalar("x"),), s)
    assert s2 == s


def test_runtime_aliasing_is_failure():
    _, s = _state("var a: int[0..3]; var i: int = 2; var j: int = 2;")
    with pytest.raises(EvalError) as err:
        apply_parallel_assign((ArrayRef("a", Var("i")), ArrayRef("a", Var("j"))),
                              (1, 2), s)
    assert err.value.reason == "aliasing"


def test_out_of_bounds_target():
    _, s = _state("var a: int[0..3]; var i: int = 9;")
    with pytest.raises(EvalError) as err:
        apply_parallel_assign((ArrayRef("a", Var("i")),), (1,), s)
    assert err.value.reason == "eval-error"


def test_non_targets_untouched():
    _, s = _state("var x: int = 1; var y: int = 2; var a: int[0..2] = [3,4,5];")
    s2 = apply_parallel_assign((Var("x"), ArrayRef("a", IntLit(1))), (9, 9), s)
    assert s2.scalar("y") == 2
    assert s2.array("a") == (3, 9, 5)
    assert s.array("a") == (3, 4, 5)  # persistence


def test_canonical_ordering_and_format():
    _, s = _state("var z: int = -1; var a: int[0..1] = [1,2]; var m1: bool;")
    assert s.canonical() == "a=[1,2] m1=false z=-1"


def test_referential_transparency():
    p = parse_gcl("var x: int = 3; var y: int = 4; x := x * y + x")
    s1 = initial_state(p.decls)
    s2 = initial_state(p.decls)
    e = p.body.values[0]
    assert s1 == s2 and hash(s1) == hash(s2)
    assert eval_expr(e, s1) == eval_expr(e, s2) == 15


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50))
def test_swap_twice_restores(x, y):
    decls = (Declaration("x", "int", init=x), Declaration("y", "int", init=y))
    s0 = initial_state(decls)
    def swap(s):
        return apply_parallel_assign((Var("x"), Var("y")),
                                     (s.scalar("y"), s.scalar("x")), s)
    assert swap(swap(s0)) == s0


def test_restricted_projection():
    _, s = _state("var x: int = 1; var y: int = 2; var a: int[0..1] = [7,8];")
    assert s.restricted({"x", "a"}) == (("a", (7, 8)), ("x", 1))
    with pytest.raises(CheckError) as err:
        s.restricted({"x", "cv1"})
    assert str(err.value) == "cannot project onto undeclared 'cv1'"


# ---------------------------------------------------------------------------
# State format
# ---------------------------------------------------------------------------

def _starred_canonical(s, hidden):
    """The former key of an inexact divergence lasso, which split the
    canonical text; kept as the reference for `canonical(hidden)`."""
    parts = []
    for piece in s.canonical().split(" "):
        name = piece.split("=", 1)[0]
        parts.append(f"{name}=*" if name in hidden else piece)
    return " ".join(parts)


def _text(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(decimal.Decimal(v))


# small values, and values past the 4,300 digits `str()` converts
_INTS = st.one_of(st.integers(-12, 12),
                  st.builds(lambda k, sign: sign * (2 ** 16384 + k),
                            st.integers(0, 9), st.sampled_from([1, -1])))


@st.composite
def _layouts(draw):
    names = draw(st.lists(st.text("ab1", min_size=1, max_size=3),
                          min_size=1, max_size=6, unique=True))
    decls = []
    for name in names:
        kind = draw(st.sampled_from(["int", "bool", "int[]"]))
        if kind == "int[]":
            lo = draw(st.integers(-2, 2))
            cells = tuple(draw(st.lists(_INTS, min_size=1, max_size=3)))
            decls.append(Declaration(name, kind, lo, lo + len(cells) - 1, cells))
        else:
            init = draw(st.booleans() if kind == "bool" else _INTS)
            decls.append(Declaration(name, kind, init=init))
    return tuple(decls), draw(st.sets(st.sampled_from(names)))


@settings(max_examples=150, deadline=None)
@given(_layouts())
def test_canonical_hidden_matches_split_reference(layout):
    decls, hidden = layout
    s = initial_state(decls)
    assert s.canonical(hidden) == _starred_canonical(s, hidden)
    expected = []
    for d in sorted(decls, key=lambda d: d.name):
        v = d.init
        text = f"[{','.join(map(_text, v))}]" if d.is_array else _text(v)
        expected.append(f"{d.name}={text}")
    assert s.canonical() == " ".join(expected)


def test_canonical_cache_never_serves_a_hidden_rendering():
    big = 7 ** 6000  # past the 4,300 digits `str()` converts
    decls = (Declaration("a", "int[]", 0, 1, (big, -3)), Declaration("b", "bool"),
             Declaration("x", "int", init=-big))
    plain = f"a=[{_text(big)},-3] b=false x={_text(-big)}"
    for hidden in ({"a"}, {"x", "b"}, {"a", "b", "x"}):
        first_hidden, first_plain = initial_state(decls), initial_state(decls)
        assert first_hidden.canonical(hidden) == _starred_canonical(first_hidden, hidden)
        assert first_hidden.canonical() == plain
        assert first_plain.canonical() == plain
        assert first_plain.canonical(hidden) == _starred_canonical(first_plain, hidden)
        assert first_plain.canonical() == plain
    assert initial_state(decls).canonical(()) == initial_state(decls).canonical(set()) == plain


def test_canonical_hides_arrays_and_several_names():
    _, s = _state("var b: int[1..2] = [3,4]; var a1: bool; var a: int = 5; var bb: int;")
    assert s.canonical() == "a=5 a1=false b=[3,4] bb=0"
    assert s.canonical({"b", "a"}) == "a=* a1=false b=* bb=0"


_A_I, _A_J, _A_0, _X = (ArrayRef("a", Var("i")), ArrayRef("a", Var("j")),
                        ArrayRef("a", IntLit(0)), Var("x"))


@pytest.mark.parametrize("targets, after", [
    ((_A_I, _A_J), None),
    ((_X, _X), None),
    ((_A_I, _A_0), "a=[8,0,7,0] i=2 j=2 x=0"),
    ((_X, _A_I), "a=[0,0,8,0] i=2 j=2 x=7"),
], ids=("two-cells", "one-scalar", "distinct-cells", "scalar-and-cell"))
def test_aliasing_is_per_location(targets, after):
    _, s = _state("var a: int[0..3]; var x: int; var i: int = 2; var j: int = 2;")
    if after is None:
        with pytest.raises(EvalError) as err:
            apply_parallel_assign(targets, (7, 8), s)
        assert (err.value.reason, err.value.detail) == (
            "aliasing", "parallel assignment targets collide at runtime")
    else:
        assert apply_parallel_assign(targets, (7, 8), s).canonical() == after


def test_index_error_comes_before_aliasing():
    _, s = _state("var a: int[0..3]; var i: int = 2;")
    with pytest.raises(EvalError) as err:
        apply_parallel_assign((ArrayRef("a", Var("i")), ArrayRef("a", Var("i")),
                               ArrayRef("a", IntLit(-4))), (1, 2, 3), s)
    assert (err.value.reason, err.value.detail) == ("eval-error", "index -4 outside 'a[0..3]'")


def test_out_of_range_message_at_read_write_and_target():
    _, s = _state("var x: int; var a: int[1..3];")
    message = "index 9 outside 'a[1..3]'"
    with pytest.raises(EvalError, match=re.escape(message)):
        s.cell("a", 9)
    with pytest.raises(EvalError, match=re.escape(message)):
        s.set_cell("a", 9, 1)
    with pytest.raises(EvalError, match=re.escape("index 0 outside 'a[1..3]'")):
        s.set_cell("a", 0, 1)
    with pytest.raises(EvalError) as err:
        apply_parallel_assign((Var("x"), ArrayRef("a", IntLit(9))), (1, 2), s)
    assert (err.value.reason, err.value.detail) == ("eval-error", message)
    assert s.set_cell("a", 3, 5).array("a") == (0, 0, 5)


@pytest.mark.parametrize("access", [
    lambda s: s.scalar("a"), lambda s: s.array("x"), lambda s: s.cell("x", 0),
    lambda s: s.set_scalar("a", 1), lambda s: s.set_cell("x", 0, 1),
    lambda s: apply_parallel_assign((ArrayRef("x", IntLit(0)),), (1,), s),
    lambda s: s.scalar("y"), lambda s: s.array("y"),
], ids=("scalar", "array", "cell", "set_scalar", "set_cell", "target", "undeclared",
        "undeclared-array"))
def test_access_by_the_other_kind_is_a_key_error(access):
    _, s = _state("var x: int; var a: int[0..1];")
    with pytest.raises(KeyError):
        access(s)


@pytest.mark.parametrize("binds, message", [
    ({"y": 1}, "binding for undeclared variable 'y'"),
    ({"b": 1}, "binding for 'b' must be a bool"),
    ({"x": True}, "binding for 'x' must be an int"),
    ({"a": (1, 2)}, "binding for array 'a' needs exactly 3 cells"),
    ({"a": 1}, "binding for array 'a' needs exactly 3 cells"),
    ({"x": 1, "y": 1, "b": 1}, "binding for undeclared variable 'y'"),
    ({"a": (1, True, 3)}, "binding for array 'a' must hold ints"),
])
def test_with_bindings_errors(binds, message):
    p = parse_gcl("var x: int; var b: bool; var a: int[1..3];\nskip")
    with pytest.raises(CheckError) as err:
        initial_state(p.decls, binds)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# The State record
# ---------------------------------------------------------------------------

def test_state_fields_refuse_assignment():
    _, s = _state("var x: int = 1; var a: int[0..1];")
    s.canonical()
    hash(s)
    for name in ("layout", "values", "_hash", "_text", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, None)
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert s.values == ((0, 0), 1) and s.canonical() == "a=[0,0] x=1"


def test_initial_states_of_one_program_share_one_layout():
    p = parse_gcl(corpus_text("sort4.gcl"))
    s1, s2 = initial_state(p.decls), initial_state(p.decls, {"X1": 7})
    assert s1.layout is s2.layout
    sys = parse_csp(corpus_text("circwait.csp"))
    c1, c2 = initial_state(sys.all_decls()), initial_state(sys.all_decls())
    assert sys.all_decls() is not sys.all_decls()
    assert c1.layout is c2.layout and c1.layout is not s1.layout


def test_an_interned_layout_goes_with_its_states():
    decls = (Declaration("layout_probe", "int"), Declaration("layout_cells", "int[]", 0, 2))
    s = initial_state(decls)
    ref = weakref.ref(s.layout)
    s2 = s.set_cell("layout_cells", 1, 5)
    del s
    assert ref() is s2.layout and initial_state(decls).layout is ref()
    del s2
    assert ref() is None and interned((Layout, decls)) is None


def test_state_equality_and_hash_read_the_values_only():
    decls = (Declaration("x", "int", init=3), Declaration("a", "int[]", 0, 1, (1, 2)))
    s1 = initial_state(decls)
    s2 = State(Layout(decls), s1.values)  # the same values over another layout
    assert s1.layout is not s2.layout
    assert s1 == s2 and hash(s1) == hash(s2) and len({s1, s2}) == 1
    assert repr(s1) == repr(s2) == "State(values=((1, 2), 3))"
    assert hash(s1) == hash((s1.values,))
    s3 = s1.set_scalar("x", 4)
    assert s3 != s1 and hash(s3) == hash((s3.values,))
    assert s1 != s1.values and (s1 == s1.values) is False
