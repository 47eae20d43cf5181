"""Outside-in tracer: spans around gclab's module boundaries, recorded
from the benchmark's own files without changing gclab.

gclab imports with `from .x import f`, so a function is reached through
one binding per consumer module (`gclab.engine.step` and
`gclab.fairness.step` are separate names for one function). The patch
table therefore lists, for each traced function, every binding under
which gclab or the benchmark looks it up: the gclab package, each gclab
module holding the same function object, and the defining module itself
when the function is called from within it (`step` from the engine's
own search loop). Recursive walkers (`eval_expr`, `expr_names`,
`render_expr`, `type_of`) are wrapped only where other modules call
them, so one evaluation is one span.

Each span records its name, start, end, parent span, item and a work
count (tokens lexed, characters parsed, solutions found, traces
listed). Spans stay in compact in-memory arrays until the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager

# (span name, defining module, attribute, wrap in the defining module too)
# An attribute "Class.method" patches the method on the class.
FUNCTIONS = [
    ("lexer.tokenize", "lexer", "tokenize", False),
    ("parser.parse_gcl", "parser", "parse_gcl", False),
    ("parser.parse_csp", "parser", "parse_csp", False),
    ("parser.parse_par", "parser", "parse_par", False),
    ("check.check_program", "check", "check_program", False),
    ("check.check_declaration", "check", "check_declaration", False),
    ("check.check_assign", "check", "check_assign", False),
    ("check.type_of", "check", "type_of", False),
    ("check.decl_map", "check", "decl_map", False),
    ("printer.render", "printer", "render", False),
    ("printer.render_csp", "printer", "render_csp", False),
    ("printer.render_par", "printer", "render_par", False),
    ("printer.render_stmt", "printer", "render_stmt", False),
    ("printer.render_expr", "printer", "render_expr", False),
    ("printer.render_stmt_inline", "printer", "render_stmt_inline", False),
    ("syntax.expr_names", "syntax", "expr_names", False),
    ("syntax.stmt_names", "syntax", "stmt_names", False),
    ("syntax.program_names", "syntax", "program_names", False),
    ("state.eval_expr", "state", "eval_expr", False),
    ("state.initial_state", "state", "initial_state", False),
    ("state.canonical", "state", "State.canonical", False),
    ("engine.explore_demonic", "engine", "explore_demonic", True),
    ("engine.explore_statement", "engine", "explore_statement", True),
    ("engine.solve_angelic", "engine", "solve_angelic", True),
    ("engine.run_erratic", "engine", "run_erratic", True),
    ("engine.replay", "engine", "replay", True),
    ("engine.step", "engine", "step", True),
    ("engine.search", "engine", "GraphSearch.run", False),
    ("engine.lasso_scan", "engine", "_control_lasso_scan", True),
    ("fairness.run_fair", "fairness", "run_fair", True),
    ("fairness.run_fair_traced", "fairness", "run_fair_traced", True),
    ("fairness.one_level_of", "fairness", "one_level_of", True),
    ("fairness.is_one_level_nondeterministic", "fairness",
     "is_one_level_nondeterministic", True),
    ("fairness.transform_wf", "fairness", "transform_wf", True),
    ("fairness.chaotic_iteration_program", "fairness", "chaotic_iteration_program", True),
    ("fairness.kleene_lfp", "fairness", "kleene_lfp", True),
    ("csp.run_csp", "csp", "run_csp", True),
    ("csp.translate_csp", "csp", "translate_csp", True),
    ("csp.translate_csp_checked", "csp", "translate_csp_checked", True),
    ("csp.correspondence_pairs", "csp", "correspondence_pairs", True),
    ("csp.term_condition", "csp", "term_condition", True),
    ("par.run_par_direct", "par", "run_par_direct", True),
    ("par.translate_par", "par", "translate_par", True),
    ("par.label_table", "par", "label_table", True),
    ("par.label_component", "par", "label_component", True),
    ("equiv.parse_lts", "equiv", "parse_lts", True),
    ("equiv.format_lts", "equiv", "format_lts", True),
    ("equiv.bisimilar", "equiv", "bisimilar", True),
    ("equiv.bisimilar_witness", "equiv", "bisimilar_witness", True),
    ("equiv.may_pass", "equiv", "may_pass", True),
    ("equiv.must_pass", "equiv", "must_pass", True),
    ("equiv.must_witness", "equiv", "must_witness", True),
    ("equiv.refines", "equiv", "refines", True),
    ("equiv.refinement_counterexample", "equiv", "refinement_counterexample", True),
    ("equiv.failures", "equiv", "failures", True),
    ("equiv.max_refusals", "equiv", "max_refusals", True),
    ("equiv.moves", "equiv", "Lts.moves", False),
    ("cli.main", "cli", "main", True),
]

ITEM = "bench.item"
NAMES = [ITEM] + [f[0] for f in FUNCTIONS]
NAME_ID = {n: k for k, n in enumerate(NAMES)}
REPORTS = ("engine.explore_demonic", "engine.explore_statement", "csp.run_csp",
           "par.run_par_direct")


def _measure(name):
    """Work count recorded with a span, from its arguments and result."""
    if name == "lexer.tokenize":
        return lambda args, res: len(res)
    if name.startswith("parser."):
        return lambda args, res: len(args[0])
    if name in ("engine.solve_angelic", "equiv.max_refusals"):
        return lambda args, res: len(res)
    return None


def layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.name = array("B")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.reports: dict[int, tuple[int, int, int]] = {}
        self.cur = -1
        self.item_id = -1
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- the patch table ----------------------------------------------------

    @staticmethod
    def patch_table() -> list[tuple[str, object, str, object]]:
        """(span name, owner object, attribute, original) for every binding
        to wrap, discovered from the loaded gclab modules."""
        import gclab
        mods = {m: importlib.import_module(f"gclab.{m}")
                for m in ("lexer", "parser", "check", "printer", "syntax", "state",
                          "engine", "fairness", "csp", "par", "equiv", "cli")}
        consumers = [gclab] + list(mods.values())
        table = []
        for span, home, attr, own in FUNCTIONS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[home], cls_name, None)
                if cls is not None and meth in vars(cls):
                    table.append((span, cls, meth, vars(cls)[meth]))
                continue
            fn = getattr(mods[home], attr, None)
            if fn is None:
                continue
            for owner in consumers:
                if owner is mods[home] and not own:
                    continue
                if vars(owner).get(attr) is fn:
                    table.append((span, owner, attr, fn))
        return table

    @contextmanager
    def installed(self):
        """Wrap every binding in the patch table; restore them all on exit."""
        table = self.patch_table()
        found = {span for span, _, _, _ in table}
        self.missing = [f[0] for f in FUNCTIONS if f[0] not in found]
        try:
            for span, owner, attr, fn in table:
                setattr(owner, attr, self._wrap(fn, span))
                self.patched.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(self.patched):
                setattr(owner, attr, fn)
            self.patched.clear()

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn, span: str):
        nid = NAME_ID[span]
        measure = _measure(span)
        is_report = span in REPORTS
        names, parents, items = self.name, self.parent, self.item
        starts, ends, work = self.start, self.end, self.work
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(tracer.cur)
            items.append(tracer.item_id)
            starts.append(0.0)
            ends.append(0.0)
            work.append(0)
            tracer.cur = idx
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                tracer.cur = parents[idx]
            if measure is not None:
                work[idx] = measure(args, res)
            elif is_report:
                tracer.reports[idx] = (res.configs, res.edges, res.paths)
            return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def run_item(self, item_index: int, fn):
        """Run one benchmark item under an item span."""
        idx = len(self.name)
        self.name.append(NAME_ID[ITEM])
        self.parent.append(-1)
        self.item.append(item_index)
        self.start.append(0.0)
        self.end.append(0.0)
        self.work.append(item_index)
        self.cur, self.item_id = idx, item_index
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self.cur, self.item_id = -1, -1

    # -- output -----------------------------------------------------------------

    def spans(self) -> dict:
        """The recorded arrays, in the form summarize() and load() use."""
        return {"name": self.name, "parent": self.parent, "item": self.item,
                "start": self.start, "end": self.end, "work": self.work,
                "reports": self.reports}

    def write(self, path: str, families: list[str]) -> None:
        """One JSON header line, then the raw span arrays."""
        header = {"names": NAMES, "families": families, "count": len(self.name),
                  "arrays": ["name:B", "parent:i", "item:i", "start:d", "end:d",
                             "work:q"],
                  "reports": {str(k): v for k, v in self.reports.items()}}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.item, self.start, self.end,
                        self.work):
                arr.tofile(fh)


def load(path: str) -> dict:
    """Read a span file written by Tracer.write back into arrays."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"header": header}
        for spec in header["arrays"]:
            field, code = spec.split(":")
            arr = array(code)
            arr.fromfile(fh, header["count"])
            out[field] = arr
    out["reports"] = {int(k): tuple(v) for k, v in header["reports"].items()}
    return out


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

PER_LAYER = [
    ("engine.searches", "count", "lower"), ("engine.self_s", "s", "lower"),
    ("engine.step_calls", "count", "lower"), ("engine.step_s", "s", "lower"),
    ("engine.configs", "count", "lower"), ("engine.edges", "count", "lower"),
    ("engine.paths", "count", "lower"), ("engine.configs_per_s", "1/s", "higher"),
    ("engine.new_per_edge", "ratio", "higher"),
    ("engine.angelic_yield", "ratio", "higher"),
    ("engine.lasso_calls", "count", "lower"), ("engine.lasso_s", "s", "lower"),
    ("state.eval_calls", "count", "lower"), ("state.eval_s", "s", "lower"),
    ("state.canonical_calls", "count", "lower"), ("state.canonical_s", "s", "lower"),
    ("state.initial_states", "count", "lower"),
    ("state.initial_state_s", "s", "lower"),
    ("syntax.names_calls", "count", "lower"), ("syntax.names_s", "s", "lower"),
    ("printer.inline_calls", "count", "lower"), ("printer.inline_s", "s", "lower"),
    ("printer.render_s", "s", "lower"),
    ("fairness.runs", "count", "lower"), ("fairness.self_s", "s", "lower"),
    ("fairness.one_level_calls", "count", "lower"),
    ("fairness.one_level_s", "s", "lower"), ("fairness.transform_s", "s", "lower"),
    ("fairness.steps_per_run", "ratio", "lower"),
    ("csp.self_s", "s", "lower"), ("csp.sub_searches", "count", "lower"),
    ("csp.translate_s", "s", "lower"),
    ("par.self_s", "s", "lower"), ("par.sub_searches", "count", "lower"),
    ("par.translate_s", "s", "lower"),
    ("lexer.tokens", "count", "lower"), ("lexer.self_s", "s", "lower"),
    ("lexer.tokens_per_s", "1/s", "higher"),
    ("parser.calls", "count", "lower"), ("parser.self_s", "s", "lower"),
    ("parser.bytes_per_s", "B/s", "higher"),
    ("check.calls", "count", "lower"), ("check.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"), ("cli.self_s", "s", "lower"),
    ("equiv.bisim_s", "s", "lower"), ("equiv.testing_s", "s", "lower"),
    ("equiv.refines_s", "s", "lower"), ("equiv.refusal_traces", "count", "lower"),
    ("equiv.moves_calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

LAYERS = ["lexer", "parser", "check", "printer", "syntax", "state", "engine",
          "fairness", "csp", "par", "equiv", "cli"]
SOURCE_LAYERS = ("lexer", "parser", "check", "printer")
GROUPS = {
    "render": [n for n in NAMES if n.startswith("printer.render")
               and n != "printer.render_stmt_inline"],
    "bisim": ["equiv.bisimilar", "equiv.bisimilar_witness"],
    "testing": ["equiv.may_pass", "equiv.must_pass", "equiv.must_witness"],
    "refines": ["equiv.refines", "equiv.refinement_counterexample", "equiv.failures"],
    "csp_translate": ["csp.translate_csp", "csp.translate_csp_checked"],
    "par_translate": ["par.translate_par", "par.label_table"],
    "reports": list(REPORTS),
}


def _bits(names) -> int:
    out = 0
    for n in names:
        out |= 1 << NAME_ID[n]
    return out


def summarize(spans: dict, item_family: list[str]) -> dict:
    """Per-layer metrics of one traced pass, plus inclusive layer times per
    item family. `spans` holds the arrays (a Tracer's or load()'s)."""
    name, parent, item = spans["name"], spans["parent"], spans["item"]
    start, end, work = spans["start"], spans["end"], spans["work"]
    reports = spans["reports"]
    n_spans = len(name)
    layer_of = [layer(n) for n in NAMES]
    layer_bits = {ly: _bits(n for n in NAMES if layer(n) == ly) for ly in LAYERS}
    layer_bits["bench"] = _bits([ITEM])
    source_bits = _bits(n for n in NAMES if layer(n) in SOURCE_LAYERS)
    group_bits = {g: _bits(ns) for g, ns in GROUPS.items()}
    group_of = {NAME_ID[n]: g for g, ns in GROUPS.items() for n in ns}
    angelic = 1 << NAME_ID["engine.solve_angelic"]
    fair_run = 1 << NAME_ID["fairness.run_fair_traced"]
    csp_run = 1 << NAME_ID["csp.run_csp"]
    par_run = 1 << NAME_ID["par.run_par_direct"]
    step_id, explore_stmt_id = NAME_ID["engine.step"], NAME_ID["engine.explore_statement"]

    count = [0] * len(NAMES)
    total = [0.0] * len(NAMES)
    outer = [0.0] * len(NAMES)       # not nested in a span of the same name
    selfs = [0.0] * len(NAMES)
    child = [0.0] * n_spans
    mask = array("Q", bytes(8 * n_spans))
    group_incl = {g: 0.0 for g in GROUPS}
    configs = edges = paths = 0
    angelic_steps = fair_steps = csp_subs = par_subs = 0
    fam_layers: dict[str, dict[str, float]] = {}

    for i in range(n_spans):
        nid = name[i]
        d = end[i] - start[i]
        p = parent[i]
        m = 0
        if p >= 0:
            m = mask[p] | (1 << name[p])
            mask[i] = m
            child[p] += d
        count[nid] += 1
        total[nid] += d
        if not m & (1 << nid):
            outer[nid] += d
        g = group_of.get(nid)
        if g is not None and not m & group_bits[g]:
            group_incl[g] += d
            if i in reports:
                c, e, pa = reports[i]
                configs, edges, paths = configs + c, edges + e, paths + pa
        if nid == step_id:
            angelic_steps += bool(m & angelic)
            fair_steps += bool(m & fair_run)
        elif nid == explore_stmt_id:
            csp_subs += bool(m & csp_run)
            par_subs += bool(m & par_run)
        if item[i] < 0:
            continue
        fam = fam_layers.setdefault(item_family[item[i]], {})
        ly = layer_of[nid]
        if not m & layer_bits[ly]:  # outermost span of its layer
            key = "items" if ly == "bench" else ly
            fam[key] = fam.get(key, 0.0) + d
        if ly in SOURCE_LAYERS and not m & source_bits:
            fam["source"] = fam.get("source", 0.0) + d
    for i in range(n_spans):
        selfs[name[i]] += end[i] - start[i] - child[i]

    def by(prefix, arr):
        return sum(arr[k] for k, n in enumerate(NAMES) if n.startswith(prefix))

    def c(n):
        return count[NAME_ID[n]]

    def t(n):
        return outer[NAME_ID[n]]

    def work_of(n):
        nid = NAME_ID[n]
        return sum(work[i] for i in range(n_spans) if name[i] == nid)

    def ratio(a, b):
        return a / b if b else 0.0

    engine_incl = sum(fam.get("engine", 0.0) for fam in fam_layers.values())
    parser_bytes = sum(work[i] for i in range(n_spans)
                       if layer_of[name[i]] == "parser"
                       and not mask[i] & layer_bits["parser"])
    parser_incl = sum(fam.get("parser", 0.0) for fam in fam_layers.values())
    tokens = work_of("lexer.tokenize")
    solutions = work_of("engine.solve_angelic")
    runs = c("fairness.run_fair_traced")
    metrics = {
        "engine.searches": c("engine.search") + c("engine.solve_angelic"),
        "engine.self_s": by("engine.", selfs),
        "engine.step_calls": c("engine.step"),
        "engine.step_s": t("engine.step"),
        "engine.configs": configs, "engine.edges": edges, "engine.paths": paths,
        "engine.configs_per_s": ratio(configs, engine_incl),
        "engine.new_per_edge": ratio(configs, edges),
        "engine.angelic_yield": ratio(solutions, angelic_steps),
        "engine.lasso_calls": c("engine.lasso_scan"),
        "engine.lasso_s": t("engine.lasso_scan"),
        "state.eval_calls": c("state.eval_expr"), "state.eval_s": t("state.eval_expr"),
        "state.canonical_calls": c("state.canonical"),
        "state.canonical_s": t("state.canonical"),
        "state.initial_states": c("state.initial_state"),
        "state.initial_state_s": t("state.initial_state"),
        "syntax.names_calls": by("syntax.", count),
        "syntax.names_s": sum(fam.get("syntax", 0.0) for fam in fam_layers.values()),
        "printer.inline_calls": c("printer.render_stmt_inline"),
        "printer.inline_s": t("printer.render_stmt_inline"),
        "printer.render_s": group_incl["render"],
        "fairness.runs": runs, "fairness.self_s": by("fairness.", selfs),
        "fairness.one_level_calls": c("fairness.one_level_of"),
        "fairness.one_level_s": t("fairness.one_level_of"),
        "fairness.transform_s": t("fairness.transform_wf"),
        "fairness.steps_per_run": ratio(fair_steps, runs),
        "csp.self_s": by("csp.", selfs), "csp.sub_searches": csp_subs,
        "csp.translate_s": group_incl["csp_translate"],
        "par.self_s": by("par.", selfs), "par.sub_searches": par_subs,
        "par.translate_s": group_incl["par_translate"],
        "lexer.tokens": tokens, "lexer.self_s": by("lexer.", selfs),
        "lexer.tokens_per_s": ratio(tokens, t("lexer.tokenize")),
        "parser.calls": sum(c(n) for n in NAMES if n.startswith("parser.")),
        "parser.self_s": by("parser.", selfs),
        "parser.bytes_per_s": ratio(parser_bytes, parser_incl),
        "check.calls": by("check.", count), "check.self_s": by("check.", selfs),
        "cli.calls": c("cli.main"), "cli.self_s": by("cli.", selfs),
        "equiv.bisim_s": group_incl["bisim"], "equiv.testing_s": group_incl["testing"],
        "equiv.refines_s": group_incl["refines"],
        "equiv.refusal_traces": work_of("equiv.max_refusals"),
        "equiv.moves_calls": c("equiv.moves"),
    }
    spans_by_name = {n: {"calls": count[k], "total_s": total[k], "self_s": selfs[k]}
                     for k, n in enumerate(NAMES) if count[k]}
    return {"metrics": metrics, "families": fam_layers, "spans": spans_by_name,
            "span_count": n_spans}


def main(argv: list[str]) -> int:
    """Print the per-name and per-family summary of a written span file."""
    if len(argv) != 1:
        print("usage: python3 bench/tracer.py TRACE_FILE", file=sys.stderr)
        return 2
    spans = load(argv[0])
    summary = summarize(spans, spans["header"]["families"])
    print(f"{summary['span_count']} spans")
    print(f"{'span':42} {'calls':>9} {'total_s':>9} {'self_s':>9}")
    for n, row in sorted(summary["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{n:42} {row['calls']:9d} {row['total_s']:9.3f} {row['self_s']:9.3f}")
    print("\ninclusive seconds per item family and layer")
    for fam, row in sorted(summary["families"].items()):
        cells = " ".join(f"{k}={v:.3f}" for k, v in sorted(row.items()))
        print(f"{fam:18} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
