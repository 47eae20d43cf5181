"""The committed mutant catalogue: faults the oracles are known to catch.

Each entry names a source file, an exact snippet in it, the snippet's
faulty replacement, and the test node ids that must fail once the fault
is in. `tests/test_mutants.py` checks, fast, that every snippet occurs
exactly once in its file and that every named test exists, so the
catalogue cannot rot silently.

Run it from the repository root (stdlib only):

    python tests/mutants.py [NAME ...]

For each mutant (all, or the named ones) the runner copies `src`, `tests`,
`corpus` and `pyproject.toml` into a fresh temporary directory, applies
the one replacement, and runs only that mutant's tests there, one
subprocess at a time, each under a time limit. A mutant is `killed` when
every named test fails, `survived` when one of them passes, `timed out`
when the run exceeds the limit, and `error` when pytest could not run
the tests (a missing test id, a collection error). The runner prints one
line per mutant and exits 1 unless every mutant is killed.

A surviving mutant is a finding: it gets a new test, or is written up as
an open fault. It is never dropped from the catalogue to get a pass.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "corpus", "pyproject.toml")
TIMEOUT_S = 300  # per mutant; each entry's tests take seconds when they pass


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str  # occurs exactly once in `file`
    replacement: str
    tests: tuple[str, ...]  # node ids, each of which must fail


MUTANTS = (
    # An operator-table row, read by the compiler: the evaluation oracle
    # and the BFS oracle spell out their own meanings.
    Mutant("le-reads-as-lt", "src/gclab/syntax.py",
           '"<=": Operator(COMPARE_BP, "int", "bool", operator.le),',
           '"<=": Operator(COMPARE_BP, "int", "bool", operator.lt),',
           ("tests/test_eval_reference.py::test_compiled_expressions_match_the_reference",
            "tests/test_differential.py::test_explorer_matches_bfs_oracle_on_random_programs")),
    # Guard overlap on bit masks (`fairness._overlap`)
    Mutant("overlap-reports-the-highest-missing-guard", "src/gclab/fairness.py",
           "return i, (missing & -missing).bit_length() - 1",
           "return i, missing.bit_length() - 1",
           ("tests/test_one_level_reference.py::test_random_guard_lists_overlap_like_the_reference",
            "tests/test_one_level_reference.py::test_random_program_verdicts_match_reference")),
    Mutant("overlap-later-mask-keeps-guard-i", "src/gclab/fairness.py",
           "later &= later - 1  # the guards after i",
           "later -= 1  # the guards after i",
           ("tests/test_one_level_reference.py::test_random_guard_lists_overlap_like_the_reference",
            "tests/test_one_level_reference.py::test_height_three_chaotic_verdicts_match_reference")),
    Mutant("overlap-drops-an-excluded-atom", "src/gclab/fairness.py",
           "if (a in excludes[b] if b in excludes else _atoms_exclusive(a, b))}",
           "if (False if b in excludes else _atoms_exclusive(a, b))}",
           ("tests/test_one_level_reference.py::test_random_guard_lists_overlap_like_the_reference",)),
    # The csp direct semantics' termination test
    Mutant("csp-final-ignores-the-first-process", "src/gclab/csp.py",
           "if enabled.__class__ is Failed or any(map(any, enabled)):",
           "if enabled.__class__ is Failed or any(map(any, enabled[1:])):",
           ("tests/test_generated_systems.py::test_generated_csp_systems_match_their_translations",)),
    # A program point is built complete (`engine.Point`)
    Mutant("do-arms-labelled-if", "src/gclab/engine.py",
           'tag = "if" if isinstance(head, If) else "do"',
           'tag = "if"',
           ("tests/test_engine.py::test_goon_control_lasso_witness",
            "tests/test_engine.py::test_if_and_do_arm_labels_in_a_lasso_witness")),
    # The one-level shape, proved once and kept (`fairness._prove_shape`)
    Mutant("shape-skips-the-body-check", "src/gclab/fairness.py",
           'bad = bad or _deterministic(arm.body, f"body of guard {k + 1}")',
           "bad = bad",
           ("tests/test_fairness.py::test_random_assign_in_body_is_not_deterministic",
            "tests/test_one_level_reference.py::test_random_program_verdicts_match_reference")),
    # `step`'s if-fi and do-od heads with no true guard
    Mutant("do-with-no-true-guard-fails-like-if", "src/gclab/engine.py",
           "            if isinstance(head, If):\n"
           '                return Expansion(failure=Failed("guard-all-false-in-if", s))',
           "            if True:\n"
           '                return Expansion(failure=Failed("guard-all-false-in-if", s))',
           ("tests/test_engine.py::test_step_do_exit",
            "tests/test_differential.py::test_explorer_matches_bfs_oracle_on_random_programs")),
    Mutant("if-with-no-true-guard-exits-like-od", "src/gclab/engine.py",
           "            if isinstance(head, If):\n"
           '                return Expansion(failure=Failed("guard-all-false-in-if", s))',
           "            if False:\n"
           '                return Expansion(failure=Failed("guard-all-false-in-if", s))',
           ("tests/test_engine.py::test_step_if_no_guard_true_fails",
            "tests/test_differential.py::test_explorer_matches_bfs_oracle_on_random_programs")),
    # `step`'s one handler of a head that fails to evaluate
    Mutant("step-drops-the-eval-detail", "src/gclab/engine.py",
           "        return Expansion(failure=Failed(e.reason, s, e.detail))",
           "        return Expansion(failure=Failed(e.reason, s))",
           ("tests/test_cli.py::test_failure_details_show_integers_past_the_str_digit_limit",
            "tests/test_cli.py::test_erratic_choice_failure_matches_demonic")),
    # The walk that starts a search of an atomic sub-step (`engine.walk`)
    Mutant("walk-steps-through-a-do-head", "src/gclab/engine.py",
           "        if isinstance(node.point.head, Do):\n            break\n",
           "        if False:\n            break\n",
           ("tests/test_walk.py::test_a_walk_stops_at_a_do_head",)),
    Mutant("walk-takes-a-cut-choice-as-one-path", "src/gclab/engine.py",
           "if len(frame[1]) != 1 or search.outcomes:",
           "if len(frame[1]) != 1:",
           ("tests/test_walk.py::test_walks_match_the_search_on_random_bodies",)),
    Mutant("walk-adds-one-edge-too-few", "src/gclab/engine.py",
           "        frame[2] = 1\n        search.edges += 1\n",
           "        frame[2] = 1\n",
           ("tests/test_walk.py::test_walks_match_the_search_on_random_bodies",
            "tests/test_walk.py::test_a_walk_fills_the_budget_exactly",
            "tests/test_walk.py::test_direct_reports_do_not_depend_on_the_walk")),
    Mutant("walk-hands-over-without-its-path", "src/gclab/engine.py",
           "search.black.update((f[0], i) for i, f in enumerate(stack))",
           "search.black.update(())",
           ("tests/test_walk.py::test_a_loop_that_comes_back_to_the_walked_path",)),
    # the depth bound, the one budget rule a walk and a search share
    Mutant("depth-bound-off-by-one", "src/gclab/engine.py",
           "elif len(stack) >= self.lim.max_depth:",
           "elif len(stack) > self.lim.max_depth:",
           ("tests/test_walk.py::test_a_walk_fills_the_budget_exactly",)),
    # Point tables (`state._point_table`)
    Mutant("point-miss-row-marks-the-first-guard", "src/gclab/state.py",
           "miss = (False,) * len(guards)",
           "miss = (True,) + (False,) * (len(guards) - 1)",
           ("tests/test_eval_reference.py::test_point_tables_match_the_reference",)),
    Mutant("or-run-membership-negated", "src/gclab/state.py",
           "return key in members",
           "return key not in members",
           ("tests/test_eval_reference.py::test_point_tables_match_the_reference",)),
    # What a program keeps (`syntax.kept`)
    Mutant("start-config-keeps-no-layout", "src/gclab/engine.py",
           '        kept(owner, "_layout", lambda: s0.layout)\n',
           "        pass\n",
           ("tests/test_engine.py::test_a_program_keeps_its_layout_and_compiled_guards_while_it_lives",)),
    # The default start state, built only when none is given
    Mutant("start-config-ignores-a-given-s0", "src/gclab/engine.py",
           "    if s0 is None:\n        s0 = initial_state(owner.decls)\n",
           "    if isinstance(owner, GclProgram):\n        s0 = initial_state(owner.decls)\n",
           ("tests/test_cli.py::test_bind_reads_what_a_declaration_accepts",
            "tests/test_cli.py::test_cached_parser_keeps_no_state_between_calls")),
    Mutant("explore-system-ignores-a-given-s0", "src/gclab/engine.py",
           "    states = [_start_state(s0, owner)]\n",
           "    states = [_start_state(None, owner)]\n",
           ("tests/test_cli.py::test_bind_sets_a_system_start_state",
            "tests/test_par.py::test_all_zero_input_gives_n_plus_one")),
    # Equality of the outcome records (`engine.Failed` ignores its detail)
    Mutant("failed-equality-reads-the-detail", "src/gclab/engine.py",
           "        return self.reason, self.state\n",
           "        return self.reason, self.state, self.detail\n",
           ("tests/test_records.py::test_failed_and_divergent_equality_skip_their_details",)),
    Mutant("kept-builds-on-every-use", "src/gclab/syntax.py",
           "        object.__setattr__(owner, slot, value)\n",
           "",
           ("tests/test_fairness.py::test_fair_checks_the_shape_once_per_program",
            "tests/test_par.py::test_a_second_run_of_a_system_builds_nothing_new")),
    # The rules that `syntax` holds once for every module
    Mutant("fresh-names-accept-a-taken-last-name", "src/gclab/syntax.py",
           "        if taken.isdisjoint(names):",
           "        if taken.isdisjoint(names[:-1]):",
           ("tests/test_syntax_reference.py::test_fresh_names_take_the_first_prefix_with_no_name_taken",
            "tests/test_fairness.py::test_transform_fresh_name_collision_escalates",
            "tests/test_par.py::test_control_variables_skip_a_prefix_whose_last_name_is_taken")),
    Mutant("conjuncts-keep-a-nested-and", "src/gclab/syntax.py",
           "    return [first] + [atom for _, operand in pairs for atom in conjuncts(operand)]",
           "    return [first] + [operand for _, operand in pairs]",
           ("tests/test_syntax_reference.py::test_conjuncts_split_every_nesting_of_and",
            "tests/test_fairness.py::test_exclusion_reads_the_atoms_inside_parentheses",
            "tests/test_eval_reference.py::test_point_tables_match_the_reference")),
    Mutant("name-walk-skips-declarations", "src/gclab/syntax.py",
           "        if isinstance(n, (Var, ArrayRef, Declaration)):",
           "        if isinstance(n, (Var, ArrayRef)):",
           ("tests/test_syntax_reference.py::test_program_names_of_every_kind_of_program",
            "tests/test_fairness.py::test_transform_fresh_names_run_out",
            "tests/test_par.py::test_control_variable_names_run_out")),
    # The control lasso scan (`engine._control_lasso_scan`): once the cycle
    # reads what it writes, no ancestor further back qualifies
    Mutant("lasso-scan-ignores-reads-meeting-writes", "src/gclab/engine.py",
           "        if reads & writes:\n            return None\n",
           "        if reads & writes:\n            pass\n",
           ("tests/test_engine.py::test_euclid_unique_outcome",
            "tests/test_engine.py::test_goon_control_lasso_witness")),
    Mutant("lasso-scan-goes-on-after-reads-meet-writes", "src/gclab/engine.py",
           "        if reads & writes:\n            return None\n",
           "        if reads & writes:\n            continue\n",
           ("tests/test_engine.py::test_the_lasso_scan_stops_where_the_cycle_reads_what_it_writes",)),
    # Must testing (`equiv.must_witness`) never enters a success node
    Mutant("must-witness-enters-success-nodes", "src/gclab/equiv.py",
           "                if success >> nxt[1] & 1:\n                    continue\n",
           "                if False:\n                    continue\n",
           ("tests/test_equiv.py::test_fig3_may_and_must",
            "tests/test_acceptance.py::test_c14_must_failures_coincidence")),
    # Operator precedence in the printer: an equal-precedence right operand
    # keeps its parentheses, since binary operators associate to the left
    Mutant("printer-drops-parens-of-an-equal-right-operand", "src/gclab/printer.py",
           "if _prec(right) <= my else",
           "if _prec(right) < my else",
           ("tests/test_printer.py::test_every_operator_pairing_round_trips",
            "tests/test_printer_reference.py::test_random_expressions_render_as_reference")),
    # `transform_wf` is for weak fairness: a disabled competitor draws a
    # fresh priority, where strong fairness would keep it
    Mutant("wf-transform-keeps-a-disabled-priority", "src/gclab/fairness.py",
           "            GuardedCommand(not_(arm.guard), RandomAssign(z))))",
           "            GuardedCommand(not_(arm.guard), Skip())))",
           ("tests/test_fairness.py::test_transform_keeps_a_weakly_fair_run_that_is_not_strongly_fair",)),
    # Angelic search reads only the terminal states of the demonic one
    Mutant("angelic-keeps-failures", "src/gclab/engine.py",
           "return [o for o in search.outcomes if isinstance(o, Terminated)]",
           "return [o for o in search.outcomes if isinstance(o, (Terminated, Failed))]",
           ("tests/test_angelic_reference.py::test_angelic_matches_reference_on_random_programs",)),
    # The c10/c11 translations, checked against the direct semantics
    Mutant("csp-translation-drops-the-partner-guard", "src/gclab/csp.py",
           'arms = [GuardedCommand(BinOp("and", gi.cond, gr.cond),',
           "arms = [GuardedCommand(gi.cond,",
           ("tests/test_generated_systems.py::test_generated_csp_systems_match_their_translations",)),
    Mutant("par-translation-drops-action-guards", "src/gclab/par.py",
           '            if act.guard is not None:\n'
           '                guard = BinOp("and", guard, act.guard)\n',
           '            if False:\n'
           '                guard = BinOp("and", guard, act.guard)\n',
           ("tests/test_generated_systems.py::test_generated_par_systems_match_their_translations",)),
    Mutant("par-direct-deadlocks-beside-a-failed-effect", "src/gclab/par.py",
           "if not trans and not extra:",
           "if not trans:",
           ("tests/test_generated_systems.py::test_generated_par_systems_match_their_translations",
            "tests/test_par.py::test_failure_inside_an_atomic_step_matches_the_translation")),
    # The LTS algorithms of `equiv`
    Mutant("partition-signs-no-predecessor-again", "src/gclab/equiv.py",
           "for y in pred[s]:",
           "for y in ():",
           ("tests/test_bisim_reference.py::test_random_systems_with_tau_and_self_loops",)),
    Mutant("refinement-covers-only-by-a-larger-refusal", "src/gclab/equiv.py",
           "if not any(m <= c for c in covers):",
           "if not any(m < c for c in covers):",
           ("tests/test_refinement_reference.py::test_random_systems_agree",)),
    Mutant("reachability-ignores-tau-moves", "src/gclab/equiv.py",
           "rows = tuple(l._succ.values())",
           "rows = tuple(row for lab, row in l._succ.items() if lab != TAU)",
           ("tests/test_equiv.py::test_divergence_cycle_matches_recursive_search",
            "tests/test_refinement_reference.py::test_random_systems_agree")),
    # Name lookup, the one home of "undeclared identifier" (`check.declared`)
    Mutant("declared-accepts-an-undeclared-name", "src/gclab/check.py",
           "    if d is None:\n        raise CheckError(f\"undeclared identifier '{name}'\")\n",
           "    if False:\n        raise CheckError(f\"undeclared identifier '{name}'\")\n",
           ("tests/test_check.py::test_parse_and_check_program_report_the_same_fault",
            "tests/test_parser.py::test_csp_error_positions",
            "tests/test_parser.py::test_csp_name_declared_in_an_earlier_process_is_undeclared_in_a_later_one")),
    # The csp rules that the parser applies to a whole system
    Mutant("communication-loop-need-not-be-last", "src/gclab/parser.py",
           '    if p.at(";"):\n'
           '        p.fail("the communication loop must be the final statement of the process")',
           '    if False:\n'
           '        p.fail("the communication loop must be the final statement of the process")',
           ("tests/test_parser.py::test_communication_loop_must_be_last",
            "tests/test_parser.py::test_csp_error_positions")),
    Mutant("process-may-talk-to-itself", "src/gclab/parser.py",
           "if tok[1] == pr.name:",
           "if False:",
           ("tests/test_parser.py::test_process_cannot_talk_to_itself",
            "tests/test_parser.py::test_csp_error_positions")),
)


def _run(m: Mutant) -> tuple[str, str]:
    """(status, note) of one mutant."""
    with tempfile.TemporaryDirectory(prefix="gclab-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name, ignore=skip)
            else:
                shutil.copy2(src, work / name)
        target = work / m.file
        text = target.read_text(encoding="utf-8")
        if text.count(m.snippet) != 1:
            return "error", f"snippet occurs {text.count(m.snippet)} times"
        target.write_text(text.replace(m.snippet, m.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
               *m.tests]
        try:
            done = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timed out", f"after {TIMEOUT_S} s"
    if done.returncode == 0:
        return "survived", "every named test passed"
    if done.returncode != 1:
        tail = done.stdout.strip().splitlines()[-1:] or ["no output"]
        return "error", f"pytest exit {done.returncode}: {tail[0]}"
    failed = re.findall(r"^FAILED (\S+)", done.stdout, re.M)
    passed = [t for t in m.tests
              if not any(f == t or f.startswith(t + "[") for f in failed)]
    if passed:
        return "survived", "passed: " + " ".join(passed)
    return "killed", f"{len(failed)} failed"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {' '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    statuses = []
    for m in chosen:
        start = time.perf_counter()
        status, note = _run(m)
        statuses.append(status)
        print(f"{status:<9} {m.name} ({time.perf_counter() - start:.1f} s; {note})",
              flush=True)
    killed = statuses.count("killed")
    print(f"{killed} of {len(chosen)} mutants killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
