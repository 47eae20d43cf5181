import itertools
import weakref

import pytest

from gclab.engine import Divergent, Failed, Limits, Terminated, explore_demonic
from gclab.par import (
    label_component, label_components, label_table, run_par_direct,
    translate_par,
)
from gclab.parser import parse_gcl, parse_par
from gclab.printer import render
from gclab.state import initial_state
from gclab.errors import CheckError
from gclab.syntax import TRUE, Do, GuardedCommand, If, Seq, Skip

from conftest import corpus_text
from test_csp import outcome_set
from test_engine import _gone_without_the_cycle_collector


def _zs():
    return parse_par(corpus_text("zerosearch.par"))


PROGRAM_VARS = {"ia", "i", "j", "oddtop", "eventop", "k"}


# ---------------------------------------------------------------------------
# labeling
# ---------------------------------------------------------------------------

def test_zero_search_component_labeling():
    comp = label_component(_zs().components[0])
    assert comp.labels == ("a", "b", "c", "d", "e")
    assert comp.entry == 0 and comp.exit == 4
    shapes = [(a.source, a.target, a.effect is not None) for a in comp.actions]
    assert shapes == [
        (0, 1, False),  # a -> b: loop guard true
        (0, 4, False),  # a -> e: loop guard false
        (1, 2, False),  # b -> c: cell positive
        (1, 3, False),  # b -> d: cell not positive
        (2, 0, True),   # c -> a: oddtop := i
        (3, 0, True),   # d -> a: i := i + 2
    ]


def test_single_assignment_component():
    sysm = parse_par("var x: int;\ncomponent x := 1 end")
    comp = label_component(sysm.components[0])
    assert len(comp.labels) == 2 and len(comp.actions) == 1


def test_a_guarded_commands_loop_is_outside_the_parallel_fragment():
    """The parser keeps `do` out of a component; a tree built through the
    API is refused when its components are labelled."""
    loop = Do((GuardedCommand(TRUE, Skip()),))
    with pytest.raises(CheckError) as err:
        label_component(Seq((Skip(), loop)))
    assert str(err.value) == "Do is outside the parallel fragment"


def test_await_component():
    sysm = parse_par("var b: bool;\ncomponent await b end")
    comp = label_component(sysm.components[0])
    (act,) = comp.actions
    assert act.guard is not None and act.effect is None


def test_no_action_leaves_exit():
    for comp in label_components(_zs()):
        assert all(a.source != comp.exit for a in comp.actions)


def test_all_labels_reachable_from_entry():
    for comp in label_components(_zs()):
        succ = {}
        for a in comp.actions:
            succ.setdefault(a.source, []).append(a.target)
        seen = {comp.entry}
        todo = [comp.entry]
        while todo:
            n = todo.pop()
            for t in succ.get(n, ()):
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        assert seen == set(range(len(comp.labels)))


def test_labelled_component_is_freed_without_the_cycle_collector():
    # every name is unique to the test, so no live program shares its nodes
    sysm = parse_par("var freed_u: int; var freed_v: int;\n"
                     "component\n"
                     "  while freed_u < 3 do\n"
                     "    if freed_v = 0 then freed_v := 1 else await freed_u > 0 fi;\n"
                     "    freed_u := freed_u + 1\n"
                     "  od\n"
                     "end")
    comp = label_component(sysm.components[0])
    loop_exit = comp.actions[1].guard  # `not freed_u < 3`, made by the labelling
    refs = [weakref.ref(x) for x in (sysm, sysm.components[0], loop_exit,
                                      comp.actions[-1].effect)]
    names = {"sysm": sysm, "comp": comp}
    del sysm, comp, loop_exit
    assert _gone_without_the_cycle_collector(names.clear, refs)


def test_a_second_run_of_a_system_builds_nothing_new(monkeypatch):
    """The labelled components and the action table stay with the system:
    a second run labels and compiles nothing, and the translation and the
    label table read the same components."""
    import gclab.par as par
    calls = {}

    def counting(name):
        build = getattr(par, name)

        def count(*args):
            calls[name] = calls.get(name, 0) + 1
            return build(*args)
        return count

    for name in ("label_component", "compile_assign"):
        monkeypatch.setattr(par, name, counting(name))
    # every name is unique to the test, so no live system shares its set-up
    sysm = parse_par("var once_x: int; var once_y: int;\n"
                     "component while once_x < 2 do once_x := once_x + 1 od end\n"
                     "component if once_y = 0 then once_y := 1 else skip fi end")
    first = run_par_direct(sysm).to_text()
    assert calls == {"label_component": 2, "compile_assign": 2}
    assert run_par_direct(sysm).to_text() == first
    translate_par(sysm)
    label_table(sysm)
    assert calls == {"label_component": 2, "compile_assign": 2}
    assert label_components(sysm) is label_components(sysm)


def test_one_action_enabled_per_component():
    """Branch guards are complementary: a component never has two enabled
    actions at once."""
    from gclab.state import eval_expr
    sysm = _zs()
    comps = label_components(sysm)
    for bits in itertools.product((0, 1), repeat=5):
        s = initial_state(sysm.decls, {"ia": bits, "i": 1, "j": 2,
                                       "oddtop": 6, "eventop": 6})
        for comp in comps:
            for label in range(len(comp.labels)):
                enabled = [a for a in comp.actions if a.source == label
                           and (a.guard is None or eval_expr(a.guard, s))]
                assert len(enabled) <= 1


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------

def test_translation_shape():
    prog = translate_par(_zs())
    do_nodes = [s for s in prog.body.stmts if isinstance(s, Do)]
    if_nodes = [s for s in prog.body.stmts if isinstance(s, If)]
    assert len(do_nodes) == 1 and len(do_nodes[0].arms) == 12
    assert len(if_nodes) == 1 and len(if_nodes[0].arms) == 1
    assert {d.name for d in prog.decls} == PROGRAM_VARS | {"cv1", "cv2"}
    assert parse_gcl(render(prog)) == prog


TWO_COUNTERS = "component\n  x := x + 1\nend\ncomponent\n  y := y + 1\nend\n"


def test_control_variables_skip_a_prefix_whose_last_name_is_taken():
    sysm = parse_par("var x: int; var y: int; var cv2: bool;\n" + TWO_COUNTERS)
    prog = translate_par(sysm)
    assert [d.name for d in prog.decls] == ["x", "y", "cv2", "cvv1", "cvv2"]
    assert label_table(sysm).startswith("# cvv1: a=0 b=1 (entry a, exit b)\n# cvv2:")
    names = {"x", "y", "cv2"}
    assert outcome_set(explore_demonic(prog), names) == outcome_set(run_par_direct(sysm), names)


def test_control_variable_names_run_out():
    sysm = parse_par("var x: int; var y: int; var cv1: int; var cvv1: int; var cvvv1: int;\n"
                     + TWO_COUNTERS)
    for build in (translate_par, label_table):
        with pytest.raises(CheckError) as err:
            build(sysm)
        assert str(err.value) == "no fresh control-variable names available"


def test_label_table_text():
    table = label_table(_zs())
    assert "cv1: a=0 b=1 c=2 d=3 e=4" in table
    assert table.startswith("#")


def test_zero_search_final_check_trivially_satisfied():
    # every loop exit has both components at their exits: no Failed
    prog = translate_par(_zs())
    rep = explore_demonic(prog, lim=Limits(max_configs=300_000))
    assert not rep.has(Failed)


def test_await_false_deadlock_becomes_failure():
    sysm = parse_par(corpus_text("awaitfalse.par"))
    direct = run_par_direct(sysm)
    fails = [o for o in direct.outcomes if isinstance(o, Failed)]
    assert fails and fails[0].reason == "deadlock"
    translated = explore_demonic(translate_par(sysm))
    tfails = [o for o in translated.outcomes if isinstance(o, Failed)]
    assert tfails and tfails[0].reason == "guard-all-false-in-if"
    assert not translated.has(Terminated)


# ---------------------------------------------------------------------------
# direct semantics
# ---------------------------------------------------------------------------

def test_zero_search_example_input():
    sysm = _zs()
    # not the corpus file's own initializer, whose answer is k = 3
    s0 = initial_state(sysm.decls, {"ia": (0, 4, 0, 0, 1)})
    rep = run_par_direct(sysm, s0)
    ks = {s.scalar("k") for s in rep.terminated_states()}
    assert ks == {2}


def test_all_zero_input_gives_n_plus_one():
    sysm = _zs()
    s0 = initial_state(sysm.decls, {"ia": (0, 0, 0, 0, 0)})
    rep = run_par_direct(sysm, s0)
    ks = {s.scalar("k") for s in rep.terminated_states()}
    assert ks == {6}
    finals = rep.terminated_states()
    assert all(s.scalar("oddtop") == 6 and s.scalar("eventop") == 6
               for s in finals)


def test_single_component_equals_sequential_run():
    sysm = parse_par("""
    var x: int;
    var y: int;
    component
      x := 1;
      while x < 4 do x := x + 1 od;
      if x = 4 then y := 10 else y := 20 fi
    end
    """)
    rep = run_par_direct(sysm)
    (out,) = rep.outcomes
    assert isinstance(out, Terminated)
    assert out.state.scalar("x") == 4 and out.state.scalar("y") == 10

    seq = parse_gcl("""
    var x: int;
    var y: int;
    x := 1;
    do x < 4 -> x := x + 1 od;
    if x = 4 -> y := 10 [] x != 4 -> y := 20 fi
    """)
    (sout,) = explore_demonic(seq).outcomes
    assert sout.state.canonical() == out.state.canonical()


def test_diverging_run_prints_its_action_labels():
    sysm = parse_par("""
    var x: int;
    component
      x := 0; while x = 0 do skip od
    end
    component
      x := 1
    end
    """)
    rep = run_par_direct(sysm)
    divs = [(o.repeat_key, o.exact, o.stem, o.cycle)
            for o in rep.outcomes if isinstance(o, Divergent)]
    assert divs == [
        ("(1, 0) @ x=0", True, ("c1:a->b",), ("c1:b->c", "c1:c->b")),
        ("(1, 1) @ x=0", True, ("c2:a->b", "c1:a->b"), ("c1:b->c", "c1:c->b")),
    ]
    assert (rep.configs, rep.edges, rep.paths) == (11, 14, 4)


# ---------------------------------------------------------------------------
# failures inside atomic steps: the direct semantics against the translation
# ---------------------------------------------------------------------------

FAILING_PAR = [
    # an initialization that can reach `fail`
    ("""
var x: int; var y: int;
init if true -> x := 1 [] true -> fail fi
component y := 2 div x end
""", "counts configs=6 edges=6 paths=3\n"
     "outcome: terminated :: x=1 y=2\n"
     "outcome: failed[explicit-fail] (fail) :: x=0 y=0\n"),
    # an effect that divides by zero
    ("""
var x: int; var y: int;
init x := 2
component while x > 0 do x := x - 1 od; y := 6 div x end
""", "counts configs=7 edges=6 paths=1\n"
     "outcome: failed[eval-error] (div by zero) :: x=0 y=0\n"),
    # an epilogue that fails
    ("""
var x: int; var y: int;
component x := 1 end
component y := 1 end
epilogue if x = y -> fail [] x != y -> skip fi
""", "counts configs=10 edges=7 paths=4\n"
     "outcome: failed[explicit-fail] (fail) :: x=1 y=1\n"),
    # one component's effect fails (mod) and another's guard raises (div):
    # only the guard's failure is reported, as in the translation, which
    # evaluates every guard before any arm runs
    ("""
var x: int; var y: int; var z: int;
component y := 1 mod x end
component if 1 div z = 0 then skip fi end
""", "counts configs=2 edges=1 paths=1\n"
     "outcome: failed[eval-error] (div by zero) :: x=0 y=0 z=0\n"),
]


@pytest.mark.parametrize("text, report", FAILING_PAR,
                         ids=["init", "effect", "epilogue", "effect-and-guard"])
def test_failure_inside_an_atomic_step_matches_the_translation(text, report):
    sysm = parse_par(text)
    direct = run_par_direct(sysm)
    names = {d.name for d in sysm.decls}
    assert outcome_set(direct, names) == outcome_set(
        explore_demonic(translate_par(sysm)), names)
    assert direct.to_text() == (
        "schema 1\nlimits max-configs=100000 max-depth=500 choice-bound=8\n" + report)
