"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gclab  # noqa: E402
import gclab.cli  # noqa: E402

import execute  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

SLOW_FAMILIES = {"queens"}


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = os.path.join(ROOT, ".bench_work", "tests", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _sample(workload: str, seed: int = 3, per_family: int = 2):
    """A few cheap items of every family of a workload."""
    picked, seen = [], {}
    for item in gen.WORKLOADS[workload](seed):
        if item.family in SLOW_FAMILIES or item.id == "wf-threeway":
            continue
        if seen.get(item.family, 0) < per_family:
            seen[item.family] = seen.get(item.family, 0) + 1
            picked.append(item)
    return picked


def _corpus(name):
    with open(os.path.join(ROOT, "corpus", name), encoding="utf-8") as fh:
        return fh.read()


def _run_items(items, workdir, tr=None):
    os.makedirs(workdir, exist_ok=True)
    env = execute.Env(workdir, os.path.join(ROOT, "corpus"))
    runs = [execute.prepare(it, env) for it in items]
    if tr is None:
        return [r() for r in runs]
    with tr.installed():
        return [tr.run_item(k, r) for k, r in enumerate(runs)]


def _bindings():
    """Every attribute of every gclab module and of the patched classes."""
    mods = [gclab] + [getattr(gclab, m) for m in
                      ("lexer", "parser", "check", "printer", "syntax", "state",
                       "engine", "fairness", "csp", "par", "equiv", "cli")]
    owners = mods + [gclab.state.State, gclab.engine.GraphSearch, gclab.equiv.Lts]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generators_are_deterministic_per_seed(workload):
    make = gen.WORKLOADS[workload]
    assert gen.digest(make(11)) == gen.digest(make(11))
    assert gen.digest(make(11)) != gen.digest(make(12))
    ids = [it.id for it in make(11)]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_seeds_keep_the_workload_shape(workload):
    """Different seeds give the same families in the same numbers."""
    def shape(seed):
        out = {}
        for it in gen.WORKLOADS[workload](seed):
            out[it.family] = out.get(it.family, 0) + 1
        return out
    assert shape(1) == shape(2)


def test_tracer_restores_every_attribute():
    before = _bindings()
    tr = tracer.Tracer()
    with tr.installed():
        assert gclab.engine.step is not before[(id(gclab.engine), "step")]
        assert gclab.fairness.step is not before[(id(gclab.fairness), "step")]
        assert gclab.fairness.step is not gclab.engine.step
        # eval_expr's own recursion stays unwrapped
        assert gclab.state.eval_expr is before[(id(gclab.state), "eval_expr")]
        assert gclab.engine.eval_expr is not gclab.state.eval_expr
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed
    assert not tr.missing


def test_patch_table_covers_every_binding():
    """Each traced function is wrapped at every gclab binding of it, except
    the defining module when the table says calls there stay unwrapped."""
    table = tracer.Tracer.patch_table()
    patched = {(id(owner), attr) for _, owner, attr, _ in table}
    mods = [gclab] + [getattr(gclab, m) for m in ("lexer", "parser", "check",
                      "printer", "syntax", "state", "engine", "fairness", "csp",
                      "par", "equiv", "cli")]
    for span, home, attr, own in tracer.FUNCTIONS:
        if "." in attr:
            continue
        home_mod = getattr(gclab, home)
        fn = getattr(home_mod, attr)
        for mod in mods:
            if vars(mod).get(attr) is fn and (mod is not home_mod or own):
                assert (id(mod), attr) in patched, (span, mod.__name__)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_traced_and_untraced_verdicts_agree(workload, workdir):
    items = _sample(workload)
    plain = _run_items(items, os.path.join(workdir, "plain"))
    tr = tracer.Tracer()
    traced = _run_items(items, os.path.join(workdir, "traced"), tr)
    assert traced == plain
    for item, verdict in zip(items, plain):
        assert oracles.check(item, verdict, _corpus) is None, item.id
    summary = tracer.summarize(tr.spans(), [it.family for it in items])
    assert set(summary["metrics"]) == {n for n, _, _ in tracer.PER_LAYER} - {"trace.overhead_s"}


def test_trace_counts_repeat_exactly(workdir):
    items = _sample("sweep", per_family=1)
    counts = []
    for k in range(2):
        tr = tracer.Tracer()
        _run_items(items, os.path.join(workdir, str(k)), tr)
        m = tracer.summarize(tr.spans(), [it.family for it in items])
        counts.append({k: v for k, v in m["metrics"].items() if not k.endswith("_s")
                       and not k.endswith("_per_s")})
    assert counts[0] == counts[1]


def test_forked_pass_matches_in_process(workdir):
    items = _sample("sweep", per_family=1)
    plain = _run_items(items, os.path.join(workdir, "plain"))
    os.makedirs(os.path.join(workdir, "forked"))
    res = worker.forked(lambda: worker.one_pass(items, os.path.join(workdir, "forked"),
                                                os.path.join(ROOT, "corpus")))
    assert res["verdicts"] == plain
    assert len(res["times"]) == len(items) and res["wall"] >= sum(res["times"])
    with pytest.raises(RuntimeError):
        worker.forked(lambda: 1 / 0)


def test_reference_server_times_and_ends():
    # gclab is loaded in this process, so the server may not start here.
    with pytest.raises(RuntimeError):
        reference.Server()
    script = """
import os, reference
server = reference.Server()
pid = server.pid
times = [server.time(), server.time()]
server.close()
try:
    os.waitpid(pid, 0)
    print(min(times) > 0, "running")
except ChildProcessError:
    print(min(times) > 0, "ended")
"""
    out = subprocess.run([sys.executable, "-c", script], cwd=os.path.dirname(__file__),
                         check=True, capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["True", "ended"]


def test_span_file_round_trip(workdir):
    items = _sample("frontend", per_family=1)
    tr = tracer.Tracer()
    _run_items(items, workdir, tr)
    path = os.path.join(workdir, "t.spans")
    families = [it.family for it in items]
    tr.write(path, families)
    back = tracer.load(path)
    assert list(back["name"]) == list(tr.name)
    assert list(back["end"]) == list(tr.end)
    assert back["reports"] == tr.reports
    assert back["header"]["families"] == families


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_planted_wrong_verdict_raises_error_rate(workload, workdir):
    items = _sample(workload, per_family=1)
    verdicts = _run_items(items, workdir)
    attempted, failed, reasons = run.check_verdicts(items, verdicts, [], 3)
    assert (attempted, failed, reasons) == (3 * len(items), 0, [])
    for k, item in enumerate(items):
        planted = _corrupt(json.loads(json.dumps(verdicts[k])))
        # a wrong repeat counts once
        attempted, failed, reasons = run.check_verdicts(items, verdicts, [(k, planted)], 3)
        assert (attempted, failed) == (3 * len(items), 1), item.id
        assert reasons[0].startswith(item.id + ":")
        # a wrong first run counts for every run that agreed with it
        first = verdicts[:k] + [planted] + verdicts[k + 1:]
        attempted, failed, reasons = run.check_verdicts(items, first, [], 3)
        assert (attempted, failed) == (3 * len(items), 3), item.id


def _corrupt(verdict):
    """Change one leaf of a verdict so that it is wrong."""
    key = sorted(verdict)[0]
    value = verdict[key]
    if isinstance(value, bool):
        verdict[key] = not value
    elif isinstance(value, int):
        verdict[key] = value + 1
    elif isinstance(value, str):
        verdict[key] = value + "?"
    elif isinstance(value, list):
        verdict[key] = ["planted"] + value[1:]
    else:
        verdict[key] = ["planted"]
    return verdict


def test_exceptions_become_failed_verdicts(workdir):
    item = gen.Item("broken", "euclid", "gcl_demonic",
                    {"text": gen.euclid_text(), "binds": {"nosuchvar": 1}, "vars": ["x"]})
    verdict = _run_items([item], workdir)[0]
    assert "error" in verdict
    assert oracles.check(item, verdict, _corpus) is not None
