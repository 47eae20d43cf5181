import gc
import weakref
from collections import Counter

import pytest

from gclab import csp
from gclab.csp import (
    CorrespondencePair, correspondence_pairs, eff, run_csp, term_condition,
    translate_csp, translate_csp_checked,
)
from gclab.engine import Failed, Limits, Terminated, explore_demonic
from gclab.errors import CheckError
from gclab.parser import parse_csp, parse_gcl
from gclab.printer import render, render_expr
from gclab.state import compile_expr, eval_expr, initial_state
from gclab.syntax import Assign, Do, Input, IntLit, Var

from conftest import corpus_text


def _sfr():
    return parse_csp(corpus_text("sfr.csp"))


# ---------------------------------------------------------------------------
# correspondence and effect
# ---------------------------------------------------------------------------

def test_sfr_gamma():
    pairs = correspondence_pairs(_sfr())
    assert pairs == {CorrespondencePair(0, 0, 1, 0), CorrespondencePair(1, 1, 2, 0)}


def test_no_matching_peers():
    src = """
    process A
      var x: int;
      do x < 3 ; B ? x -> skip od
    end
    process B
      var y: int;
      do y < 3 ; A ? y -> skip od
    end
    """
    assert correspondence_pairs(parse_csp(src)) == set()


def test_crosswise_pairs():
    src = """
    process A
      var x: int;
      do true ; B ! 1 -> skip
      [] true ; B ! 2 -> skip
      od
    end
    process B
      var y: int;
      do true ; A ? y -> skip
      [] y > 0 ; A ? y -> skip
      od
    end
    """
    pairs = correspondence_pairs(parse_csp(src))
    assert pairs == {CorrespondencePair(0, j, 1, s)
                     for j in (0, 1) for s in (0, 1)}


def test_type_mismatch_does_not_correspond():
    src = """
    process A
      var x: bool;
      do true ; B ? x -> skip od
    end
    process B
      var y: int;
      do true ; A ! y -> skip od
    end
    """
    assert correspondence_pairs(parse_csp(src)) == set()


def test_eff_symmetric():
    sysm = _sfr()
    a1 = sysm.processes[1].loop[0].io   # SENDER ? x
    a2 = sysm.processes[0].loop[0].io   # FILTER ! a[i]
    s1 = eff(a1, a2)
    s2 = eff(a2, a1)
    assert s1 == s2
    assert isinstance(s1, Assign)
    assert s1.targets == (Var("x"),)


def test_eff_rejects_two_inputs():
    with pytest.raises(CheckError):
        eff(Input("P", "x"), Input("P", "y"))


def test_term_condition_sfr():
    sysm = _sfr()
    term = term_condition(sysm)
    s = initial_state(sysm.all_decls())
    # initially every process wants to move, so TERM is false
    assert eval_expr(term, s) is False
    done = s.with_bindings({"i": 4, "x": -1, "y": -1, "in": 2, "out": 2})
    assert eval_expr(term, done) is True


def test_term_condition_trivia():
    src = """
    process A
      var x: int;
      do true ; B ? x -> skip od
    end
    process B
      var y: int;
      do true ; A ! 1 -> skip od
    end
    """
    term = term_condition(parse_csp(src))
    assert render_expr(term) == "not true and not true"

    noloop = parse_csp("""
    process A
      var x: int;
      x := 1
    end
    """)
    assert render_expr(term_condition(noloop)) == "true"


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------

def test_translate_sfr_structure():
    sysm = _sfr()
    t = translate_csp(sysm)
    # no new variables
    assert {d.name for d in t.decls} == {d.name for d in sysm.all_decls()}
    loop = t.body.stmts[-1]
    assert isinstance(loop, Do) and len(loop.arms) == 2
    g0, g1 = (render_expr(arm.guard) for arm in loop.arms)
    assert g0 == "i != 4 and x != -1"
    assert g1 == "out != in and y != -1"
    # first arm starts with the communication assignment x := a[i]
    from gclab.printer import render_stmt_inline
    assert render_stmt_inline(loop.arms[0].body).startswith("x := a[i]; i := i + 1;")


def test_translate_single_process_drops_loop():
    sysm = parse_csp("""
    process A
      var x: int;
      x := 7
    end
    """)
    t = translate_csp(sysm)
    assert t.body == Assign((Var("x"),), (IntLit(7),))
    rep = explore_demonic(t)
    (out,) = rep.outcomes
    assert isinstance(out, Terminated) and out.state.scalar("x") == 7


def test_translate_round_trips_through_text():
    t = translate_csp(_sfr())
    assert parse_gcl(render(t)) == t


# ---------------------------------------------------------------------------
# direct semantics
# ---------------------------------------------------------------------------

def test_sfr_pipeline_unique_outcome():
    sysm = _sfr()
    rep = run_csp(sysm)
    terms = [o for o in rep.outcomes if isinstance(o, Terminated)]
    assert len(terms) == 1 and not rep.has(Failed)
    st = terms[0].state
    assert st.array("c")[:3] == (2, 3, -1)
    assert st.scalar("j") == 3


def test_finished_process_without_communication():
    sysm = parse_csp("""
    process A
      var x: int;
      do x > 0 ; B ? x -> skip od
    end
    process B
      var y: int;
      do y > 0 ; A ! 1 -> skip od
    end
    """)
    rep = run_csp(sysm)
    (out,) = rep.outcomes
    assert isinstance(out, Terminated)


def test_circular_wait_deadlocks():
    sysm = parse_csp(corpus_text("circwait.csp"))
    rep = run_csp(sysm)
    fails = [o for o in rep.outcomes if isinstance(o, Failed)]
    assert fails and fails[0].reason == "deadlock"


def test_sub_search_counts_stay_out_of_the_config_budget():
    """The atomic bodies' sub-searches count in the report but not
    against `max_configs`: sfr's own search expands 11 configurations,
    its bodies 57 more."""
    full = run_csp(_sfr())
    assert (full.configs, full.edges, full.paths) == (68, 72, 5)
    fits = run_csp(_sfr(), lim=Limits(max_configs=11))
    assert fits.outcomes == full.outcomes and (fits.configs, fits.edges) == (68, 72)
    cut = run_csp(_sfr(), lim=Limits(max_configs=10))
    assert ("3-bound", "max-configs") in [o.key() for o in cut.outcomes]


def test_guard_parts_are_evaluated_once_per_node(monkeypatch):
    """The termination test and the enabled table read one evaluation of
    a node's boolean guard parts: each of sfr's 4 parts runs once in each
    of its 12 nodes, 48 closure calls (56 when the termination test
    evaluated them again)."""
    calls = []

    def counting(e):
        f = compile_expr(e)

        def part(s):
            calls.append(s)
            return f(s)
        return part

    monkeypatch.setattr(csp, "compile_expr", counting)
    sysm = _sfr()
    rep = run_csp(sysm)
    assert rep.configs == 68 and len(rep.outcomes) == 1
    per_node = Counter(calls)
    assert len(per_node) == 12 and set(per_node.values()) == {4}
    assert len(calls) == 48


def test_a_second_run_of_a_system_builds_nothing_new(monkeypatch):
    """The pair table stays with the system: a second run pairs and
    compiles nothing."""
    calls = Counter()

    def counting(name):
        build = getattr(csp, name)

        def count(*args):
            calls[name] += 1
            return build(*args)
        return count

    for name in ("correspondence_pairs", "compile_assign", "compile_expr"):
        monkeypatch.setattr(csp, name, counting(name))
    # every name is unique to the test, so no live system shares its set-up
    sysm = parse_csp("process ONCE_P var once_p: int;\n"
                     "  do once_p < 2 ; ONCE_Q ! once_p -> once_p := once_p + 1 od end\n"
                     "process ONCE_Q var once_q: int;\n"
                     "  do once_q < 3 ; ONCE_P ? once_q -> skip od end")
    first = run_csp(sysm).to_text()
    built = {"correspondence_pairs": 1, "compile_assign": 1, "compile_expr": 2}
    assert calls == built
    assert run_csp(sysm).to_text() == first
    assert calls == built
    assert csp._pair_table(sysm) is csp._pair_table(sysm)


def test_dropped_concurrent_programs_release_their_points():
    """A dropped system frees its pair table, its compiled closures and
    its points by reference counting alone."""
    # every statement is unique to the test, so no live program shares
    # its points
    sysm = parse_csp("process GONE_P var gone_p: int; gone_p := 0;\n"
                     "  do gone_p < 2 ; GONE_Q ! gone_p -> gone_p := gone_p + 1 od end\n"
                     "process GONE_Q var gone_q: int; gone_q := 0;\n"
                     "  do gone_q < 2 ; GONE_P ? gone_q -> gone_q := gone_q + 1 od end")
    assert run_csp(sysm).terminated_states()
    conds, pairs = csp._pair_table(sysm)
    closures = [*conds[0], *conds[1], *(joint for _, joint, _, _ in pairs)]
    # the two inits and the two bodies
    assert len(sysm._points) == 4 and len(closures) == 3
    refs = [weakref.ref(x) for x in (sysm, *closures, *sysm._points.values())]
    del conds, pairs, closures
    gc.disable()
    try:
        del sysm
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_deadlock_maps_to_term_violation_and_checked_failure():
    sysm = parse_csp(corpus_text("circwait.csp"))
    t = translate_csp(sysm)
    rep = explore_demonic(t)
    term = term_condition(sysm)
    # the translation terminates, but only in states violating TERM
    terms = [o for o in rep.outcomes if isinstance(o, Terminated)]
    assert terms and all(not eval_expr(term, o.state) for o in terms)
    # the checked translation turns those into failures
    repc = explore_demonic(translate_csp_checked(sysm))
    assert repc.has(Failed) and not repc.has(Terminated)


def _sfr_source(cells):
    m = len(cells)
    lit = ", ".join(str(v) for v in cells)
    return f"""
process SENDER
  var i: int;
  var a: int[0..{m - 1}] = [{lit}];
  i := 0;
  do i != {m} ; FILTER ! a[i] -> i := i + 1 od
end
process FILTER
  var in: int;
  var out: int;
  var x: int;
  var b: int[0..{m - 1}];
  in := 0; out := 0; x := 0;
  do x != -1 ; SENDER ? x ->
      if x = 0 -> skip
      [] x != 0 -> b[in] := x; in := in + 1
      fi
  [] out != in ; RECEIVER ! b[out] -> out := out + 1
  od
end
process RECEIVER
  var j: int;
  var y: int;
  var c: int[0..{m - 1}];
  j := 0; y := 0;
  do y != -1 ; FILTER ? y -> c[j] := y; j := j + 1 od
end
"""


def test_correspondence_theorem_on_small_inputs():
    """Final states of proper direct runs = translated terminal states
    satisfying TERM, for a slice of inputs (the full sweep is acceptance
    criterion 10)."""
    for content in [(), (2,), (0, 2), (2, 0, 3)]:
        cells = tuple(content) + (-1,)
        sysm = parse_csp(_sfr_source(cells))
        direct = run_csp(sysm)
        trans = explore_demonic(translate_csp(sysm))
        term = term_condition(sysm)
        d = {s.canonical() for s in direct.terminated_states()}
        t = {s.canonical() for s in trans.terminated_states()
             if eval_expr(term, s)}
        assert d == t, cells


def test_deadlock_state_sets_match_term_violations():
    """With the sentinel mid-array the sender still wants to transmit
    after the filter stops listening. The direct semantics deadlocks; the
    translated program terminates in exactly those states, all violating
    the all-guards-false condition."""
    import itertools as it
    for content in it.product((0, 2, -1), repeat=3):
        cells = content + (-1,)
        sysm = parse_csp(_sfr_source(cells))
        direct = run_csp(sysm)
        term = term_condition(sysm)
        trans = explore_demonic(translate_csp(sysm))
        proper = {s.canonical() for s in direct.terminated_states()}
        deadlocked = {o.state.canonical() for o in direct.outcomes
                      if isinstance(o, Failed) and o.reason == "deadlock"}
        t_proper = {s.canonical() for s in trans.terminated_states()
                    if eval_expr(term, s)}
        t_violating = {s.canonical() for s in trans.terminated_states()
                       if not eval_expr(term, s)}
        assert proper == t_proper, cells
        assert deadlocked == t_violating, cells


def test_body_atomicity_against_interleaving_oracle():
    """Variables are disjoint across processes, so running the two guard
    bodies atomically in sequence reaches the same states as interleaving
    their statements."""
    src = """
    process A
      var p1: int;
      var p2: int;
      var n: int;
      do n < 2 ; B ! n -> p1 := p1 + 1; p2 := p2 * 2 + p1; n := n + 1 od
    end
    process B
      var q1: int;
      var q2: int;
      do true ; A ? q1 -> q2 := q2 + q1; q1 := q1 * 3 od
    end
    """
    sysm = parse_csp(src)
    lim = Limits(max_depth=200)
    direct = {s.canonical() for s in run_csp(sysm, lim=lim).terminated_states()}

    # oracle: explore with the two bodies' statements interleaved freely
    from gclab.syntax import GclProgram, Seq, seq as mkseq

    pair = sorted(correspondence_pairs(sysm))[0]
    ga = sysm.processes[pair.i].loop[pair.j]
    gb = sysm.processes[pair.r].loop[pair.s]
    a_stmts = ga.body.stmts if isinstance(ga.body, Seq) else (ga.body,)
    b_stmts = gb.body.stmts if isinstance(gb.body, Seq) else (gb.body,)

    def merges(xs, ys):
        if not xs:
            yield ys
            return
        if not ys:
            yield xs
            return
        for rest in merges(xs[1:], ys):
            yield (xs[0],) + rest
        for rest in merges(xs, ys[1:]):
            yield (ys[0],) + rest

    comm = eff(ga.io, gb.io)
    decls = sysm.all_decls()
    seqset = set()
    for order in merges(a_stmts, b_stmts):
        prog = GclProgram(decls, mkseq([comm] + list(order)))
        s0 = initial_state(decls)
        for st in explore_demonic(prog, s0).terminated_states():
            seqset.add(st.canonical())
    atomic = GclProgram(decls, mkseq([comm, ga.body, gb.body]))
    atomicset = {st.canonical()
                 for st in explore_demonic(atomic, initial_state(decls)).terminated_states()}
    assert atomicset == seqset  # disjoint vars: every merge agrees


def test_gamma_invariant_under_guard_reordering():
    base = _sfr()
    src = corpus_text("sfr.csp")
    # swap FILTER's two guards textually
    swapped = src.replace(
        """do x != -1 ; SENDER ? x ->
      if x = 0 -> skip
      [] x != 0 -> b[in] := x; in := in + 1
      fi
  [] out != in ; RECEIVER ! b[out] -> out := out + 1
  od""",
        """do out != in ; RECEIVER ! b[out] -> out := out + 1
  [] x != -1 ; SENDER ? x ->
      if x = 0 -> skip
      [] x != 0 -> b[in] := x; in := in + 1
      fi
  od""")
    assert swapped != src
    resorted = parse_csp(swapped)
    remap = correspondence_pairs(resorted)
    # same set of communication partners, guard indices swapped for FILTER
    assert {(p.i, p.r) for p in remap} == {(0, 1), (1, 2)}
    assert len(remap) == len(correspondence_pairs(base)) == 2


# ---------------------------------------------------------------------------
# failures inside atomic steps: the direct semantics against the checked
# translation
# ---------------------------------------------------------------------------

def outcome_set(rep, names):
    """Outcomes compared as acceptance c10-c12 compare them: a deadlock of
    the direct semantics is the translation's `guard-all-false-in-if`,
    and states are restricted to the program's variables."""
    out = set()
    for o in rep.outcomes:
        reason = "terminated" if isinstance(o, Terminated) else o.reason
        out.add(("guard-all-false-in-if" if reason == "deadlock" else reason,
                 o.state.restricted(names)))
    return out


FAILING_CSP = [
    # a guard body divides by zero on the third communication
    ("""
process P
  var i: int; var y: int;
  do i < 3 ; Q ! i -> i := i + 1; y := 6 div (2 - i) od
end
process Q
  var v: int; var k: int;
  do k < 3 ; P ? v -> k := k + 1 od
end
""", "counts configs=9 edges=7 paths=2\n"
     "outcome: failed[eval-error] (div by zero) :: i=2 k=1 v=1 y=6\n"),
    # an output expression divides by zero
    ("""
process P
  var i: int; var d: int = 2;
  do i < 3 ; Q ! 6 div d -> i := i + 1; d := d - 1 od
end
process Q
  var v: int;
  do v >= 0 ; P ? v -> skip od
end
""", "counts configs=11 edges=10 paths=1\n"
     "outcome: failed[eval-error] (div by zero) :: d=0 i=2 v=6\n"),
    # an initialization that can reach `fail`
    ("""
process P
  var i: int;
  if true -> i := 1 [] true -> fail fi;
  do i < 2 ; Q ! i -> i := i + 1 od
end
process Q
  var v: int;
  do v < 1 ; P ? v -> skip od
end
""", "counts configs=7 edges=7 paths=3\n"
     "outcome: terminated :: i=2 v=1\n"
     "outcome: failed[explicit-fail] (fail) :: i=0 v=0\n"),
    # a boolean guard part that raises once d reaches 0
    ("""
process P
  var i: int; var d: int = 1;
  do 2 div d > i ; Q ! i -> i := i + 1; d := d - 1 od
end
process Q
  var v: int;
  do v < 1 ; P ? v -> skip od
end
""", "counts configs=7 edges=6 paths=1\n"
     "outcome: failed[eval-error] (div by zero) :: d=0 i=1 v=0\n"),
]


@pytest.mark.parametrize("text, report", FAILING_CSP,
                         ids=["body", "output", "init", "guard"])
def test_failure_inside_an_atomic_step_matches_the_translation(text, report):
    sysm = parse_csp(text)
    direct = run_csp(sysm)
    names = {d.name for d in sysm.all_decls()}
    assert outcome_set(direct, names) == outcome_set(
        explore_demonic(translate_csp_checked(sysm)), names)
    assert direct.to_text() == (
        "schema 1\nlimits max-configs=100000 max-depth=500 choice-bound=8\n" + report)
