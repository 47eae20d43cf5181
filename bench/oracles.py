"""Independent oracles for every benchmark item.

Nothing here imports gclab. Each oracle recomputes the expected verdict
from the item's generator parameters by a route of its own: classical
algorithms (gcd, sorting, argmax, triple scan, permutation filter for
n-queens, Kleene iteration), an exhaustive weak-fair scheduler
enumeration over Python models of the fair programs, and naive
algorithms over a private parse of the generated LTS texts (bisimulation
as a greatest fixpoint, product search for may/must testing, bounded
failures by enumerating (state, trace) pairs).

`check(item, verdict, corpus)` returns None when the verdict is right and
a one-line reason otherwise.
"""

from __future__ import annotations

import itertools
import re
from collections import deque

# ---------------------------------------------------------------------------
# Classical oracles: the same functions as in tests/oracles.py,
# generalised where the benchmark needs it. They are copied, not
# imported, because tests/oracles.py imports gclab when it is loaded
# (State, eval_expr, Lts) and the process that checks verdicts must not.
# ---------------------------------------------------------------------------


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def argmax_set(values) -> set[int]:
    top = max(values)
    return {i for i, v in enumerate(values) if v == top}


def first_common_triple(a, b, c):
    best = None
    for i, j, k in itertools.product(range(len(a)), range(len(b)), range(len(c))):
        if a[i] == b[j] == c[k] and (best is None or (i, j, k) < best):
            best = (i, j, k)
    return best


def queens_solutions(n: int) -> list[tuple[int, ...]]:
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        if all(abs(perm[i] - perm[j]) != j - i
               for i in range(n) for j in range(i + 1, n)):
            out.append(perm)
    return out


def blank_filtered(cells) -> list[int]:
    return [v for v in cells if v != 0]


def zero_search_k(ia) -> int:
    for idx, v in enumerate(ia, start=1):
        if v > 0:
            return idx
    return len(ia) + 1


def kleene_lfp(table: dict) -> tuple:
    x = (0,) * len(next(iter(table)))
    while table[x] != x:
        x = table[x]
    return x


# ---------------------------------------------------------------------------
# Weak-fair scheduler enumeration over Python models of the fair programs
# ---------------------------------------------------------------------------

# name -> (guards, bodies) over state tuples in the item's `vars` order
FAIR_MODELS = {
    "goon": ([lambda s: s[0], lambda s: s[0]],
             [lambda s: (s[0], s[1] + 1), lambda s: (False, s[1])]),
    "race": ([lambda s: s[0] > 0, lambda s: s[0] > 0],
             [lambda s: (s[0] - 1, s[1] + 1), lambda s: (s[0] - 1, s[1] - 1)]),
    "threeway": ([lambda s: s[0] > 0] * 3,
                 [lambda s: (s[0] - 1, s[1] + 1), lambda s: (s[0] - 1, s[1] + 2),
                  lambda s: (s[0] - 1, s[1])]),
}


def weak_fair_finals(name: str, s0: tuple, bound: int) -> set[tuple]:
    """Terminal states of every weak-fair schedule whose priority resets
    range over 0..bound: the enabled command with minimum priority runs
    (ties branch), its priority resets to any value, enabled competitors
    decrement and disabled ones reset to any value."""
    guards, bodies = FAIR_MODELS[name]
    n = len(guards)
    resets = range(bound + 1)
    start = {(s0, z) for z in itertools.product(resets, repeat=n)}
    seen = set(start)
    todo = deque(start)
    finals = set()
    while todo:
        s, z = todo.popleft()
        enabled = [i for i in range(n) if guards[i](s)]
        if not enabled:
            finals.add(s)
            continue
        best = min(z[i] for i in enabled)
        for pick in (i for i in enabled if z[i] == best):
            s2 = bodies[pick](s)
            slots = [(z[j] - 1,) if j != pick and j in enabled else resets
                     for j in range(n)]
            for combo in itertools.product(*slots):
                node = (s2, combo)
                if node not in seen:
                    seen.add(node)
                    todo.append(node)
    return finals


# ---------------------------------------------------------------------------
# Labelled transition systems
# ---------------------------------------------------------------------------

class Lts:
    """Private reading of the .lts text the generator wrote."""

    def __init__(self, text: str):
        self.alphabet: list[str] = []
        self.states: list[str] = []
        self.success: set[str] = set()
        self.moves: dict[str, dict[str, set[str]]] = {}
        for line in text.splitlines():
            kw, *rest = line.split("#", 1)[0].split() or [""]
            if kw == "alphabet":
                self.alphabet = rest
            elif kw == "states":
                self.states = rest
                self.moves = {s: {} for s in rest}
            elif kw == "init":
                self.init = rest[0]
            elif kw == "trans":
                s, a, t = rest
                self.moves[s].setdefault(a, set()).add(t)
            elif kw == "success":
                self.success.add(rest[0])

    def succ(self, s: str, a: str) -> set[str]:
        return self.moves[s].get(a, set())


def bisimulation(p: Lts, q: Lts) -> set[tuple[str, str]]:
    """Greatest strong bisimulation between p's and q's states (tau is
    an ordinary label), by deleting unmatched pairs until stable."""
    rel = {(u, v) for u in p.states for v in q.states}
    labels = set(p.alphabet) | set(q.alphabet) | {"tau"}
    changed = True
    while changed:
        changed = False
        for (u, v) in sorted(rel):
            ok = all(
                all(any((u2, v2) in rel for v2 in q.succ(v, a)) for u2 in p.succ(u, a))
                and all(any((u2, v2) in rel for u2 in p.succ(u, a)) for v2 in q.succ(v, a))
                for a in labels)
            if not ok:
                rel.discard((u, v))
                changed = True
    return rel


def matched_pairs(p: Lts, q: Lts) -> set[tuple[str, str]]:
    """State pairs reachable from the initial pair by equal-label moves."""
    labels = set(p.alphabet) | set(q.alphabet) | {"tau"}
    start = (p.init, q.init)
    seen = {start}
    todo = [start]
    while todo:
        u, v = todo.pop()
        for a in labels:
            for u2 in p.succ(u, a):
                for v2 in q.succ(v, a):
                    if (u2, v2) not in seen:
                        seen.add((u2, v2))
                        todo.append((u2, v2))
    return seen


def product_succ(proc: Lts, test: Lts, node):
    """Synchronous product: visible labels synchronise, tau moves of
    either side go alone."""
    s, t = node
    out = [(d, t) for d in proc.succ(s, "tau")]
    out += [(s, d) for d in test.succ(t, "tau")]
    for a in set(proc.moves[s]) & set(test.moves[t]) - {"tau"}:
        out += [(ds, dt) for ds in proc.moves[s][a] for dt in test.moves[t][a]]
    return out


def may_pass(proc: Lts, test: Lts) -> bool:
    start = (proc.init, test.init)
    seen = {start}
    todo = [start]
    while todo:
        node = todo.pop()
        if node[1] in test.success:
            return True
        for nxt in product_succ(proc, test, node):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return False


def avoiding_graph(proc: Lts, test: Lts) -> tuple[dict, set]:
    """Success-avoiding part of the product reachable from the start, as
    (node -> non-success successors, stuck nodes). A success node ends a
    computation successfully, so it is left out; a stuck node has no
    move at all."""
    start = (proc.init, test.init)
    graph: dict = {}
    stuck: set = set()
    if start[1] in test.success:
        return graph, stuck
    todo = [start]
    graph[start] = []
    while todo:
        node = todo.pop()
        succ = product_succ(proc, test, node)
        if not succ:
            stuck.add(node)
        graph[node] = [n for n in succ if n[1] not in test.success]
        for n in graph[node]:
            if n not in graph:
                graph[n] = []
                todo.append(n)
    return graph, stuck


def on_cycle(graph: dict, node) -> bool:
    seen, todo = set(), list(graph.get(node, ()))
    while todo:
        n = todo.pop()
        if n == node:
            return True
        if n not in seen:
            seen.add(n)
            todo.extend(graph[n])
    return False


def acyclic(graph: dict) -> bool:
    indeg = {n: 0 for n in graph}
    for n in graph:
        for m in graph[n]:
            indeg[m] += 1
    todo = [n for n in graph if indeg[n] == 0]
    removed = 0
    while todo:
        n = todo.pop()
        removed += 1
        for m in graph[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                todo.append(m)
    return removed == len(graph)


def bounded_failures(l: Lts, depth: int) -> dict[tuple, list[frozenset]]:
    """trace -> refusal sets of the stable states reachable after it, for
    every trace of length <= depth, by enumerating (state, trace) pairs."""
    sigma = frozenset(l.alphabet)
    seen = {(l.init, ())}
    todo = deque(seen)
    out: dict[tuple, list[frozenset]] = {}
    while todo:
        s, tr = todo.popleft()
        row = l.moves[s]
        if not row.get("tau"):
            out.setdefault(tr, []).append(sigma - set(row))
        for a, dsts in row.items():
            nxt = tr if a == "tau" else tr + (a,)
            if len(nxt) > depth:
                continue
            for d in dsts:
                if (d, nxt) not in seen:
                    seen.add((d, nxt))
                    todo.append((d, nxt))
    return out


def has_failure(fails: dict, trace: tuple, refusal: frozenset) -> bool:
    return any(refusal <= r for r in fails.get(trace, ()))


def refines(p: Lts, q: Lts, depth: int) -> bool:
    pf, qf = bounded_failures(p, depth), bounded_failures(q, depth)
    return all(has_failure(qf, tr, r) for tr, refs in pf.items() for r in refs)


def has_tau_cycle(l: Lts) -> bool:
    color: dict[str, int] = {}

    def dfs(s):
        color[s] = 1
        for d in l.succ(s, "tau"):
            if color.get(d) == 1 or (d not in color and dfs(d)):
                return True
        color[s] = 2
        return False

    return any(s not in color and dfs(s) for s in l.states)


# ---------------------------------------------------------------------------
# Per-op checks
# ---------------------------------------------------------------------------

def _diff(got, want) -> str | None:
    return None if got == want else f"expected {want!r}, got {got!r}"


def _queens_expected(args) -> list:
    inv = {v: k + 1 for k, v in enumerate(args["perm"])}
    return sorted([list(sol), inv[sol[-1]]] for sol in queens_solutions(args["n"]))


def _queens_demonic(item, v, corpus):
    return _diff(v, {"solutions": _queens_expected(item.args),
                     "kinds": ["Failed", "Terminated"]})


def _queens_angelic(item, v, corpus):
    want = _queens_expected(item.args)
    return _diff(v, {"solutions": want, "count": len(want)})


def _wf_demonic(item, v, corpus):
    args = item.args
    finals = weak_fair_finals(args["model"]["name"], tuple(args["model"]["init"]),
                              args["choice_bound"])
    return _diff(v, {"finals": sorted(list(f) for f in finals), "failed": False})


def _par_translated(item, v, corpus):
    return _diff(v, {"k": [zero_search_k(item.args["ia"])], "failed": False})


def _sfr_final(cells) -> list:
    kept = blank_filtered(cells)
    return [kept + [0] * (len(cells) - len(kept)), len(kept)]


def _csp_translated(item, v, corpus):
    return _diff(v, {"finals": [_sfr_final(item.args["cells"])], "nonterm": 0,
                     "failed": False})


def _csp_direct(item, v, corpus):
    return _diff(v, {"finals": [_sfr_final(item.args["cells"])],
                     "kinds": ["Terminated"]})


def _par_direct(item, v, corpus):
    return _diff(v, {"k": [zero_search_k(item.args["binds"]["ia"])],
                     "kinds": ["Terminated"]})


def _gcl_demonic(item, v, corpus):
    b = item.args["binds"]
    if item.family == "euclid":
        g = gcd(b["x"], b["y"])
        finals = [[g, g]]
    elif item.family == "sort4":
        finals = [sorted(b[f"X{i}"] for i in (1, 2, 3, 4))]
    elif item.family == "maxpoint":
        finals = [[k] for k in sorted(argmax_set(b["f"]))]
    else:
        finals = [list(first_common_triple(b["a"], b["b"], b["c"]))]
    return _diff(v, {"finals": finals, "kinds": ["Terminated"]})


# family -> is a final state (values in the item's `vars` order) reachable?
REACHABLE = {
    "erratic-max": lambda s, b: s[0] == max(s[1], s[2]) and s[1:] == [b["x"], b["y"]],
    "erratic-sort4": lambda s, b: s == sorted(b[f"X{i}"] for i in (1, 2, 3, 4)),
    "erratic-maxpoint": lambda s, b: s[0] in argmax_set(b["f"]),
    "erratic-goon": lambda s, b: s[0] is False and s[1] >= 1,
    "fair-goon": lambda s, b: s[0] is False and s[1] >= 1,
    "fair-race": lambda s, b: (s[0] == 0 and abs(s[1] - b["lead"]) <= b["laps"]
                               and (s[1] - b["lead"] - b["laps"]) % 2 == 0),
    "fair-threeway": lambda s, b: s[0] == 0 and b["acc"] <= s[1] <= b["acc"] + 2 * b["n"],
}


def _single_run(item, v, corpus):
    """A seeded run must terminate in a state the program can reach."""
    if v.get("kind") != "Terminated":
        return f"expected a terminated run, got {v!r}"
    if not REACHABLE[item.family](v["values"], item.args["binds"]):
        return f"unreachable final state {v['values']!r} for {item.args['binds']!r}"
    return None


def _fair_chaotic(item, v, corpus):
    table = {tuple(pt): tuple(img) for pt, img in item.args["table"]}
    return _diff(v, {"kind": "Terminated", "values": list(kleene_lfp(table))})


def _corpus_facts(text: str, op: str) -> dict:
    if op == "roundtrip_lts":
        return {"states": len(Lts(text).states)}
    facts = {"decls": len(re.findall(r"^\s*var\b", text, re.M))}
    if op == "roundtrip_par":
        facts["components"] = len(re.findall(r"^\s*component\b", text, re.M))
    return facts


def _frontend(item, v, corpus):
    args = item.args
    facts = args.get("facts") or _corpus_facts(corpus(args["corpus"]), item.op)
    return _diff(v, {"equal": True, "stable": True, **facts})


def _reject(item, v, corpus):
    return _diff(v, item.args["facts"])


def _cli(item, v, corpus):
    facts = dict(item.args["facts"])
    if "gcd" in facts:
        g = gcd(*facts.pop("gcd"))
        if "json" in item.args["argv"]:
            facts["states"] = [f"x={g} y={g}"]
        else:
            facts["tail"] = f"outcome: terminated :: x={g} y={g}"
    return _diff({k: v.get(k) for k in facts}, facts)


def _bisim(item, v, corpus):
    p, q = Lts(item.args["p"]), Lts(item.args["q"])
    rel = bisimulation(p, q)
    same = (p.init, q.init) in rel
    if v["bisimilar"] != same:
        return f"bisimilar should be {same}"
    if same:
        return _diff(v["witness"], None)
    u, w, _ = v["witness"] or (None, None, None)
    if (u, w) in rel or (u, w) not in matched_pairs(p, q):
        return f"witness {v['witness']!r} is not a reachable distinguished pair"
    return None


def _testing(item, v, corpus):
    p, t = Lts(item.args["p"]), Lts(item.args["t"])
    if v["may"] != may_pass(p, t):
        return f"may should be {not v['may']}"
    graph, stuck = avoiding_graph(p, t)
    if not stuck and acyclic(graph):
        return _diff(v["must"], None)
    if v["must"] is None:
        return "must should fail"
    kind, node = v["must"][0], tuple(v["must"][1])
    genuine = node in stuck if kind == "stuck" else \
        kind == "cycle" and on_cycle(graph, node)
    return None if genuine else \
        f"must witness {v['must']!r} is not a stuck or cycling node"


def _refines(item, v, corpus):
    p, q, d = Lts(item.args["p"]), Lts(item.args["q"]), item.args["depth"]
    holds = refines(p, q, d)
    if v["refines"] != holds or (v["cx"] is None) != holds:
        return f"refines should be {holds}, got {v!r}"
    if holds:
        return None
    trace, refusal = tuple(v["cx"][0]), frozenset(v["cx"][1])
    pf, qf = bounded_failures(p, d), bounded_failures(q, d)
    if len(trace) > d or not has_failure(pf, trace, refusal) \
            or has_failure(qf, trace, refusal):
        return f"counterexample {v['cx']!r} is not a failure of p alone"
    return None


def _divergent(item, v, corpus):
    if not has_tau_cycle(Lts(item.args["p"])):
        return "generator produced a divergence-free system"
    return _diff(v, {"raised": "DivergenceError"})


CHECKS = {
    "queens_demonic": _queens_demonic, "queens_angelic": _queens_angelic,
    "wf_demonic": _wf_demonic, "par_translated": _par_translated,
    "csp_translated": _csp_translated, "gcl_demonic": _gcl_demonic,
    "erratic": _single_run, "fair": _single_run, "fair_chaotic": _fair_chaotic,
    "csp_direct": _csp_direct, "par_direct": _par_direct,
    "roundtrip_gcl": _frontend, "roundtrip_csp": _frontend,
    "roundtrip_par": _frontend, "roundtrip_lts": _frontend,
    "transform_wf": _frontend, "translate_csp": _frontend,
    "translate_par": _frontend, "reject": _reject, "cli": _cli,
    "bisim": _bisim, "testing": _testing, "refines": _refines,
    "divergent": _divergent,
}


def check(item, verdict, corpus) -> str | None:
    """None if the verdict matches the oracle, else the reason. `corpus`
    maps a corpus file name to its text."""
    if "error" in verdict:
        return f"raised {verdict['error']}"
    return CHECKS[item.op](item, verdict, corpus)
