"""The correspondence of acceptance c10/c11 on generated systems.

For each seeded csp system, the states where the direct run terminates
are the translation's terminal states that satisfy `term_condition`, and
its deadlocks are the translation's terminal states that violate it. For
each par system, with the control variables dropped, the direct run's
terminal states are the translation's, and its deadlocks are the
translation's `guard-all-false-in-if` failures. A system is skipped, and
counted, when either report holds a `BoundExceeded`.
"""

from random import Random

from gclab.csp import run_csp, term_condition, translate_csp
from gclab.engine import BoundExceeded, Failed, Limits, explore_demonic
from gclab.par import run_par_direct, translate_par
from gclab.parser import parse_csp, parse_par
from gclab.state import eval_expr

from generated_systems import random_csp, random_par

SYSTEMS = 200
LIMITS = Limits(max_configs=5_000, max_depth=200)


def _failed_states(rep, reason, names):
    return {o.state.restricted(names) for o in rep.outcomes
            if isinstance(o, Failed) and o.reason == reason}


def _bounded(*reports) -> bool:
    return any(rep.has(BoundExceeded) for rep in reports)


def test_generated_csp_systems_match_their_translations():
    rng = Random(2310)
    skipped = 0
    for _ in range(SYSTEMS):
        text = random_csp(rng)
        sysm = parse_csp(text)
        direct = run_csp(sysm, lim=LIMITS)
        trans = explore_demonic(translate_csp(sysm), lim=LIMITS)
        if _bounded(direct, trans):
            skipped += 1
            continue
        names = {d.name for d in sysm.all_decls()}
        term = term_condition(sysm)
        finals = trans.terminated_states()
        proper = {s.restricted(names) for s in finals if eval_expr(term, s)}
        violating = {s.restricted(names) for s in finals if not eval_expr(term, s)}
        assert {s.restricted(names) for s in direct.terminated_states()} == proper, text
        assert _failed_states(direct, "deadlock", names) == violating, text
    print(f"generated csp systems: {SYSTEMS - skipped} compared, {skipped} skipped")
    assert skipped < SYSTEMS // 4


def test_generated_par_systems_match_their_translations():
    rng = Random(9004)
    skipped = 0
    for _ in range(SYSTEMS):
        text = random_par(rng)
        sysm = parse_par(text)
        direct = run_par_direct(sysm, lim=LIMITS)
        trans = explore_demonic(translate_par(sysm), lim=LIMITS)
        if _bounded(direct, trans):
            skipped += 1
            continue
        names = {d.name for d in sysm.decls}
        assert ({s.restricted(names) for s in direct.terminated_states()}
                == {s.restricted(names) for s in trans.terminated_states()}), text
        assert (_failed_states(direct, "deadlock", names)
                == _failed_states(trans, "guard-all-false-in-if", names)), text
    print(f"generated par systems: {SYSTEMS - skipped} compared, {skipped} skipped")
    assert skipped < SYSTEMS // 4
