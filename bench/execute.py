"""Turn generated items into gclab calls and gclab results into verdicts.

`prepare(item, env)` does the untimed part (parsing for the search
workloads, translating, writing CLI input files) and returns a
zero-argument callable: the timed item, which calls gclab and returns a
JSON-able verdict for the oracles.

Every gclab function is looked up as an attribute of the `gclab` package
(or of `gclab.cli`) at call time, never bound by `from gclab import`, so
that the tracer's patches on those attributes see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import gclab
import gclab.cli


class Env:
    """Per-worker state shared by prepared items: one parsed program per
    distinct source text (so a sweep over bindings or seeds reuses one
    program object, as a user's sweep would), the scratch directory for
    CLI input files, and the checkout's corpus directory."""

    def __init__(self, workdir: str, corpus_dir: str):
        self.workdir = workdir
        self.corpus_dir = corpus_dir
        self.programs: dict = {}

    def parsed(self, parse: str, text: str):
        """gclab.<parse>(text), once per distinct text."""
        key = (parse, text)
        if key not in self.programs:
            self.programs[key] = getattr(gclab, parse)(text)
        return self.programs[key]

    def corpus(self, name: str) -> str:
        with open(os.path.join(self.corpus_dir, name), encoding="utf-8") as fh:
            return fh.read()


def _kinds(outcomes) -> list[str]:
    return sorted({type(o).__name__ for o in outcomes})


def _value(state, name):
    try:
        return state.scalar(name)
    except KeyError:  # an array
        return list(state.array(name))


def _values(state, names) -> list:
    return [_value(state, n) for n in names]


def _finals_list(rep, names) -> list:
    """Sorted distinct projections of the terminated states."""
    rows = {json.dumps(_values(o.state, names))
            for o in rep.outcomes if isinstance(o, gclab.Terminated)}
    return sorted(json.loads(r) for r in rows)


def _binds(args) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v
            for k, v in args.get("binds", {}).items()}


def _has(rep, kind) -> bool:
    return any(isinstance(o, kind) for o in rep.outcomes)


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------

def _queens(args, env, angelic):
    prog = env.parsed("parse_gcl", args["text"])
    lim = gclab.Limits(max_depth=200)

    def solution(state):
        return [list(state.array("q")), state.scalar("row")]

    if angelic:
        def run():
            found = gclab.solve_angelic(prog, lim=lim)
            return {"solutions": sorted(solution(t.state) for t in found),
                    "count": len(found)}
    else:
        def run():
            rep = gclab.explore_demonic(prog, lim=lim)
            return {"solutions": sorted(solution(o.state) for o in rep.outcomes
                                        if isinstance(o, gclab.Terminated)),
                    "kinds": _kinds(rep.outcomes)}
    return run


def _wf_demonic(args, env):
    prog = gclab.transform_wf(env.parsed("parse_gcl", args["text"]))
    lim = gclab.Limits(max_configs=400_000, max_depth=400,
                       choice_bound=args["choice_bound"])

    def run():
        rep = gclab.explore_demonic(prog, lim=lim)
        return {"finals": _finals_list(rep, args["vars"]),
                "failed": _has(rep, gclab.Failed)}
    return run


def _par_translated(args, env):
    prog = gclab.translate_par(env.parsed("parse_par", args["text"]))
    lim = gclab.Limits(max_configs=500_000)

    def run():
        rep = gclab.explore_demonic(prog, lim=lim)
        return {"k": [k for (k,) in _finals_list(rep, ["k"])],
                "failed": _has(rep, gclab.Failed)}
    return run


def _csp_translated(args, env):
    system = env.parsed("parse_csp", args["text"])
    prog = gclab.translate_csp(system)
    term = gclab.term_condition(system)

    def run():
        rep = gclab.explore_demonic(prog)
        finals = [o.state for o in rep.outcomes if isinstance(o, gclab.Terminated)]
        proper = [s for s in finals if gclab.eval_expr(term, s)]
        return {"finals": sorted(_values(s, ["c", "j"]) for s in proper),
                "nonterm": len(finals) - len(proper),
                "failed": _has(rep, gclab.Failed)}
    return run


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _gcl_demonic(args, env):
    prog, binds = env.parsed("parse_gcl", args["text"]), _binds(args)

    def run():
        s0 = gclab.initial_state(prog.decls, binds)
        rep = gclab.explore_demonic(prog, s0)
        return {"finals": _finals_list(rep, args["vars"]),
                "kinds": _kinds(rep.outcomes)}
    return run


def _single(outcome, names) -> dict:
    if isinstance(outcome, gclab.Terminated):
        return {"kind": "Terminated",
                "values": _values(outcome.state, names)}
    return {"kind": type(outcome).__name__}


def _erratic(args, env):
    prog, binds = env.parsed("parse_gcl", args["text"]), _binds(args)

    def run():
        s0 = gclab.initial_state(prog.decls, binds)
        return _single(gclab.run_erratic(prog, s0, seed=args["seed"]), args["vars"])
    return run


def _fair(args, env):
    prog, binds = env.parsed("parse_gcl", args["text"]), _binds(args)

    def run():
        s0 = gclab.initial_state(prog.decls, binds)
        out = gclab.run_fair(prog, s0, args["policy"], seed=args["seed"])
        return _single(out, args["vars"])
    return run


def _fair_chaotic(args, env):
    key = ("chaotic", json.dumps(args["table"]))
    if key not in env.programs:
        table = {tuple(pt): tuple(img) for pt, img in args["table"]}
        inst = gclab.FixpointInstance.from_table(2, args["height"], table)
        env.programs[key] = gclab.chaotic_iteration_program(inst)
    prog = env.programs[key]

    def run():
        out = gclab.run_fair(prog, policy=args["policy"], seed=args["seed"])
        return _single(out, ["x1", "x2"])
    return run


def _csp_direct(args, env):
    system = env.parsed("parse_csp", args["text"])

    def run():
        rep = gclab.run_csp(system)
        return {"finals": _finals_list(rep, ["c", "j"]),
                "kinds": _kinds(rep.outcomes)}
    return run


def _par_direct(args, env):
    system, binds = env.parsed("parse_par", args["text"]), _binds(args)

    def run():
        s0 = gclab.initial_state(system.decls, binds)
        rep = gclab.run_par_direct(system, s0)
        return {"k": [k for (k,) in _finals_list(rep, ["k"])],
                "kinds": _kinds(rep.outcomes)}
    return run


# ---------------------------------------------------------------------------
# frontend
# ---------------------------------------------------------------------------

def _roundtrip(parse, render, count):
    def make(args, env):
        text = env.corpus(args["corpus"]) if "corpus" in args else args["text"]

        def run():
            a = getattr(gclab, parse)(text)
            out = getattr(gclab, render)(a)
            b = getattr(gclab, parse)(out)
            return {"equal": a == b, "stable": getattr(gclab, render)(b) == out,
                    **count(a)}
        return run
    return make


def _transform_wf(args, env):
    text = args["text"]

    def run():
        prog = gclab.transform_wf(gclab.parse_gcl(text))
        out = gclab.render(prog)
        again = gclab.parse_gcl(out)
        return {"equal": again == prog, "stable": gclab.render(again) == out,
                "decls": len(prog.decls), "arms": len(prog.body.stmts[-1].arms)}
    return run


def _translate_csp(args, env):
    text = args["text"]

    def run():
        system = gclab.parse_csp(text)
        prog = gclab.translate_csp(system)
        out = gclab.render(prog)
        again = gclab.parse_gcl(out)
        return {"equal": again == prog, "stable": gclab.render(again) == out,
                "decls": len(prog.decls),
                "pairs": len(gclab.correspondence_pairs(system))}
    return run


def _translate_par(args, env):
    text = args["text"]

    def run():
        system = gclab.parse_par(text)
        prog = gclab.translate_par(system)
        table = gclab.label_table(system)
        out = gclab.render(prog)
        again = gclab.parse_gcl(out)
        return {"equal": again == prog, "stable": gclab.render(again) == out,
                "decls": len(prog.decls), "table_lines": table.count("\n"),
                "actions": sum(len(gclab.label_component(c).actions)
                               for c in system.components)}
    return run


def _reject(args, env):
    parse = {"gcl": "parse_gcl", "csp": "parse_csp", "par": "parse_par"}[args["kind"]]
    text = args["text"]

    def run():
        try:
            getattr(gclab, parse)(text)
        except gclab.SourceError as e:
            return {"raised": type(e).__name__}
        return {"raised": None}
    return run


def _cli(args, env):
    # items share file names, so each file is stored under its content hash
    paths = {}
    for name, text in args.get("files", {}).items():
        tag = hashlib.sha256(text.encode()).hexdigest()[:12]
        paths[name] = os.path.join(env.workdir, f"{tag}-{name}")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    paths.update({name: os.path.join(env.corpus_dir, name)
                  for name in args.get("corpus_files", [])})
    argv = [paths.get(a, a) for a in args["argv"]]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = gclab.cli.main(argv)
        text = out.getvalue()
        lines = text.splitlines()
        verdict = {"rc": rc, "tail": lines[-1] if lines else "",
                   "var_lines": sum(ln.startswith("var ") for ln in lines),
                   "table_lines": sum(ln.startswith("# cv") for ln in lines),
                   "stderr": err.getvalue()[:7]}
        if "--format" in argv and rc == 0:
            verdict["states"] = [o["state"] for o in json.loads(text)["outcomes"]]
        return verdict
    return run


# ---------------------------------------------------------------------------
# lts
# ---------------------------------------------------------------------------

def _bisim(args, env):
    p, q = gclab.parse_lts(args["p"]), gclab.parse_lts(args["q"])

    def run():
        w = gclab.bisimilar_witness(p, q)
        return {"bisimilar": gclab.bisimilar(p, q),
                "witness": list(w) if w is not None else None}
    return run


def _testing(args, env):
    p, t = gclab.parse_lts(args["p"]), gclab.parse_lts(args["t"])

    def run():
        w = gclab.must_witness(p, t)
        return {"may": gclab.may_pass(p, t),
                "must": [w[0], list(w[1])] if w is not None else None}
    return run


def _refines(args, env):
    p, q, depth = gclab.parse_lts(args["p"]), gclab.parse_lts(args["q"]), args["depth"]

    def run():
        cx = gclab.refinement_counterexample(p, q, depth)
        return {"refines": gclab.refines(p, q, depth),
                "cx": [list(cx.trace), sorted(cx.refusal)] if cx is not None else None}
    return run


def _divergent(args, env):
    p, q, depth = gclab.parse_lts(args["p"]), gclab.parse_lts(args["q"]), args["depth"]

    def run():
        try:
            gclab.refines(p, q, depth)
        except gclab.DivergenceError:
            return {"raised": "DivergenceError"}
        return {"raised": None}
    return run


RUNNERS = {
    "queens_demonic": lambda a, e: _queens(a, e, angelic=False),
    "queens_angelic": lambda a, e: _queens(a, e, angelic=True),
    "wf_demonic": _wf_demonic,
    "par_translated": _par_translated,
    "csp_translated": _csp_translated,
    "gcl_demonic": _gcl_demonic,
    "erratic": _erratic,
    "fair": _fair,
    "fair_chaotic": _fair_chaotic,
    "csp_direct": _csp_direct,
    "par_direct": _par_direct,
    "roundtrip_gcl": _roundtrip("parse_gcl", "render", lambda a: {"decls": len(a.decls)}),
    "roundtrip_csp": _roundtrip("parse_csp", "render_csp",
                                lambda a: {"decls": len(a.all_decls())}),
    "roundtrip_par": _roundtrip("parse_par", "render_par",
                                lambda a: {"decls": len(a.decls),
                                           "components": len(a.components)}),
    "roundtrip_lts": _roundtrip("parse_lts", "format_lts",
                                lambda a: {"states": len(a.states)}),
    "transform_wf": _transform_wf,
    "translate_csp": _translate_csp,
    "translate_par": _translate_par,
    "reject": _reject,
    "cli": _cli,
    "bisim": _bisim,
    "testing": _testing,
    "refines": _refines,
    "divergent": _divergent,
}


def prepare(item, env: Env):
    """The timed callable for one item. An exception the item does not
    expect becomes an {"error": ...} verdict, which no oracle accepts."""
    run = RUNNERS[item.op](item.args, env)

    def guarded():
        try:
            return run()
        except Exception as e:  # a wrong verdict, reported by id, not a crash
            return {"error": f"{type(e).__name__}: {e}"}
    return guarded
