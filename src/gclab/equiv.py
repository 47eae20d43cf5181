"""Equivalences over finite labelled transition systems: strong
bisimilarity, may/must testing, stable failures and refinement.

An Lts has a finite alphabet of visible labels plus the reserved internal
label `tau`. Tests are Ltss with success-marked states; a process passes
a test by reaching success in some (may) or every (must) maximal
computation of their synchronous product, where visible labels
synchronize and internal moves of either side go alone.

Stable failures are computed over each system's subset construction
(`_Subsets`), built as a search meets it. Refinement is decided without
listing traces, over the pairs of tau-closed sets that p and q reach by
the same trace: conclusively by default, or up to a trace depth, with
the bounded meaning of the trace-by-trace definition and the same
witness. `max_refusals` and `failures` list traces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import CheckError, ParseError

TAU = "tau"


@dataclass(frozen=True)
class Lts:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]  # visible labels only
    transitions: tuple[tuple[str, str, str], ...]
    init: str
    success: frozenset[str] = frozenset()

    def __post_init__(self):
        known = set(self.states)
        if self.init not in known:
            raise _fault(f"initial state '{self.init}' not declared", "init")
        if TAU in self.alphabet:
            raise _fault("'tau' is reserved for internal moves", "alphabet", TAU)
        labels = set(self.alphabet) | {TAU}
        moves: dict[str, dict[str, set[str]]] = {s: {} for s in self.states}
        for k, (src, lab, dst) in enumerate(self.transitions):
            if src not in known or dst not in known:
                raise _fault(f"transition {src} -{lab}-> {dst} uses unknown state", "trans", k)
            if lab not in labels:
                raise _fault(f"label '{lab}' not in the alphabet", "trans", k)
            moves[src].setdefault(lab, set()).add(dst)
        if not self.success <= known:
            raise _fault("success marks an unknown state",
                         "success", min(self.success - known))
        # kept beside the fields, so eq, hash and repr ignore it
        object.__setattr__(self, "_moves", moves)

    # -- derived views ------------------------------------------------------

    def moves(self) -> dict[str, dict[str, set[str]]]:
        """state -> label -> successor set, built once and shared: callers
        must not mutate it."""
        return self._moves

    def reachable(self) -> set[str]:
        mv = self._moves
        return set(_reach((self.init,), lambda s: (
            d for dsts in mv[s].values() for d in dsts)))


def _fault(message: str, *where) -> CheckError:
    """A validation error of an Lts; `where` names the part at fault, which
    `parse_lts` turns into the line of its directive."""
    err = CheckError(message)
    err.where = where
    return err


def _reach(starts, succ):
    """The nodes reachable from `starts` along `succ`, breadth-first, each
    yielded once."""
    seen = set(starts)
    todo = deque(seen)
    while todo:
        node = todo.popleft()
        yield node
        for nxt in succ(node):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def parse_lts(text: str) -> Lts:
    """Line format: `alphabet a b c`, `states s1 s2 ...`, `init s`,
    `trans s a t` (label `tau` allowed), `success s`; `#` comments."""
    alphabet: list[str] = []
    states: list[str] = []
    init: str | None = None
    trans: list[tuple[str, str, str]] = []
    success: set[str] = set()
    line_of: dict[tuple, int] = {}  # a part that _fault names -> its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw, args = parts[0], parts[1:]
        if kw == "alphabet":
            alphabet.extend(args)
            line_of = {("alphabet", a): lineno for a in args} | line_of
        elif kw == "states":
            states.extend(args)
        elif kw == "init":
            if len(args) != 1:
                raise ParseError("init needs exactly one state", lineno, 1)
            init = args[0]
            line_of[("init",)] = lineno
        elif kw == "trans":
            if len(args) != 3:
                raise ParseError("trans needs: source label target", lineno, 1)
            line_of[("trans", len(trans))] = lineno
            trans.append((args[0], args[1], args[2]))
        elif kw == "success":
            success.update(args)
            line_of = {("success", s): lineno for s in args} | line_of
        else:
            raise ParseError(f"unknown directive {kw!r}", lineno, 1)
    if init is None:
        raise ParseError("missing init line", 1, 1)
    try:
        return Lts(tuple(states), tuple(alphabet), tuple(trans), init,
                   frozenset(success))
    except CheckError as e:
        raise CheckError(e.message, line_of[e.where], 1) from None


def format_lts(l: Lts) -> str:
    lines = ["alphabet " + " ".join(l.alphabet),
             "states " + " ".join(l.states),
             f"init {l.init}"]
    lines += [f"trans {s} {a} {t}" for (s, a, t) in l.transitions]
    lines += [f"success {s}" for s in sorted(l.success)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Strong bisimilarity by partition refinement
# ---------------------------------------------------------------------------

def _partition(p: Lts, q: Lts) -> dict[str, int]:
    """Coarsest strong bisimulation partition of the disjoint union;
    returns block ids keyed by tagged state names ('0:s' and '1:s')."""
    mv: dict[str, dict[str, set[str]]] = {}
    for tag, l in (("0", p), ("1", q)):
        for s, row in l.moves().items():
            mv[f"{tag}:{s}"] = {lab: {f"{tag}:{d}" for d in dsts}
                                for lab, dsts in row.items()}
    block = {s: 0 for s in mv}
    while True:
        sigs: dict[tuple, int] = {}
        nxt: dict[str, int] = {}
        for s, row in sorted(mv.items()):
            sig = (block[s],
                   tuple(sorted((lab, tuple(sorted({block[d] for d in dsts})))
                                for lab, dsts in row.items())))
            if sig not in sigs:
                sigs[sig] = len(sigs)
            nxt[s] = sigs[sig]
        if nxt == block:
            return block
        block = nxt


def bisimilar(p: Lts, q: Lts) -> bool:
    """Strong bisimilarity of the initial states (`tau` treated as an
    ordinary label)."""
    block = _partition(p, q)
    return block[f"0:{p.init}"] == block[f"1:{q.init}"]


def bisimilar_witness(p: Lts, q: Lts) -> tuple[str, str, str] | None:
    """None when bisimilar; otherwise a distinguishing (p-state, q-state,
    label): the first pair, breadth-first from the initial states along
    matching moves, where one side moves on the label and the other
    cannot (the usual narrative of a failed simulation attempt). One
    exists: reachable pairs that agree on every label form a
    bisimulation."""
    block = _partition(p, q)
    if block[f"0:{p.init}"] == block[f"1:{q.init}"]:
        return None
    pmv, qmv = p.moves(), q.moves()
    labels = sorted(set(p.alphabet) | set(q.alphabet) | {TAU})

    def succ(pair):
        u, v = pair
        for lab in labels:
            for x in sorted(pmv[u].get(lab, ())):
                for y in sorted(qmv[v].get(lab, ())):
                    yield (x, y)

    for u, v in _reach(((p.init, q.init),), succ):
        for lab in labels:
            if (lab in pmv[u]) != (lab in qmv[v]):
                return (u, v, lab)
    return None


# ---------------------------------------------------------------------------
# Synchronous product and testing
# ---------------------------------------------------------------------------

def _product_moves(proc: Lts, test: Lts):
    """Transition function of the synchronous product: shared visible
    labels synchronize, internal moves interleave."""
    pmv, tmv = proc.moves(), test.moves()

    def succ(node: tuple[str, str]) -> list[tuple[str, str]]:
        s, t = node
        out = []
        for d in sorted(pmv[s].get(TAU, ())):
            out.append((d, t))
        for d in sorted(tmv[t].get(TAU, ())):
            out.append((s, d))
        for lab in sorted(set(pmv[s]) & set(tmv[t]) - {TAU}):
            for ds in sorted(pmv[s][lab]):
                for dt in sorted(tmv[t][lab]):
                    out.append((ds, dt))
        return out

    return succ


def _require_test(test: Lts) -> None:
    if not test.success:
        raise CheckError("a test needs at least one success state")


def may_pass(proc: Lts, test: Lts) -> bool:
    """Does some maximal product computation visit a success state?
    Equivalent to reachability of a success-marked product node."""
    _require_test(test)
    nodes = _reach(((proc.init, test.init),), _product_moves(proc, test))
    return any(t in test.success for _, t in nodes)


def must_pass(proc: Lts, test: Lts) -> bool:
    """Does every maximal product computation visit a success state?

    False exactly when the success-avoiding part of the product contains
    a reachable deadlock or a reachable cycle (an infinite computation
    that never meets success).
    """
    return must_witness(proc, test) is None


def must_witness(proc: Lts, test: Lts) -> tuple[str, tuple[str, str]] | None:
    """None when the process must pass; otherwise ('stuck'|'cycle', pair)
    naming a deadlocked or cycling product node that avoids success."""
    _require_test(test)
    start = (proc.init, test.init)
    if start[1] in test.success:
        return None
    trap = _trap((start,), _product_moves(proc, test),
                 avoid=lambda node: node[1] in test.success, dead_ends=True)
    return trap and (trap[0], trap[1][-1])


def _trap(roots, succ, avoid=None, dead_ends: bool = False):
    """The first trap met by an iterative gray/black depth-first search
    from each root in turn, along `succ` in its order, never entering a
    node that `avoid` accepts: ('cycle', path) for a move back onto the
    current path, the path running from the repeated node round to it
    again, or with `dead_ends`, ('stuck', [node]) for an entered node
    with no successors. None when there is neither."""
    color: dict = {}  # 1 gray (on the path), 2 black (done)
    path: list = []
    stack: list = []

    def enter(node):
        moves = succ(node)
        if dead_ends and not moves:
            return ("stuck", [node])
        color[node] = 1
        path.append(node)
        stack.append(iter(moves))
        return None

    for root in roots:
        if root in color:
            continue
        trap = enter(root)
        while trap is None and stack:
            for nxt in stack[-1]:
                if avoid is not None and avoid(nxt):
                    continue
                c = color.get(nxt)
                if c == 1:
                    return ("cycle", path[path.index(nxt):] + [nxt])
                if c is None:
                    trap = enter(nxt)
                    break
            else:
                stack.pop()
                color[path.pop()] = 2
        if trap is not None:
            return trap
    return None


# ---------------------------------------------------------------------------
# Stable failures and refinement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Failure:
    """A trace and a set of visible labels refusable in some stable state
    reachable after it."""

    trace: tuple[str, ...]
    refusal: frozenset[str]

    def describe(self) -> str:
        t = ",".join(self.trace) if self.trace else ""
        r = ",".join(sorted(self.refusal))
        return f"(<{t}>, {{{r}}})"


class DivergenceError(Exception):
    """The failures model used here covers divergence-free systems only;
    raised with the offending internal cycle."""

    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("divergent: internal cycle " + " -> ".join(cycle))


def _check_divergence_free(l: Lts) -> None:
    """Raise DivergenceError on a reachable internal cycle: the first one
    that a depth-first search over tau moves meets (`_trap`), with roots
    and successors in sorted order, however long the tau chains are."""
    mv = l.moves()
    trap = _trap(sorted(l.reachable()), lambda s: sorted(mv[s].get(TAU, ())))
    if trap is not None:
        raise DivergenceError(trap[1])


class _Subsets:
    """One system's subset construction: its tau-closed state sets, as
    the searches meet them, each set's successor on a label and its
    maximal refusals computed once. Raises DivergenceError if divergent."""

    def __init__(self, l: Lts):
        _check_divergence_free(l)
        self.mv = l.moves()
        self.sigma = frozenset(l.alphabet)
        self.start = self._closure((l.init,))
        self._successors: dict[tuple[frozenset[str], str], frozenset[str]] = {}
        self._maxima: dict[frozenset[str], list[frozenset[str]]] = {}

    def _closure(self, states) -> frozenset[str]:
        mv = self.mv
        return frozenset(_reach(states, lambda s: mv[s].get(TAU, ())))

    def after(self, states: frozenset[str], lab: str) -> frozenset[str]:
        """The tau-closed set one `lab` move leads to; empty if none does."""
        key = (states, lab)
        out = self._successors.get(key)
        if out is None:
            targets: set[str] = set()
            for s in states:
                targets.update(self.mv[s].get(lab, ()))
            out = self._successors[key] = self._closure(targets)
        return out

    def refusals(self, states: frozenset[str]) -> list[frozenset[str]]:
        """The subset-maximal refusals of the set's stable states, sorted."""
        out = self._maxima.get(states)
        if out is None:
            mv, sigma = self.mv, self.sigma
            refs = {sigma.difference(mv[s]) for s in states if TAU not in mv[s]}
            out = self._maxima[states] = sorted(
                (r for r in refs if not any(r < other for other in refs)),
                key=sorted)
        return out


def max_refusals(l: Lts, depth: int) -> dict[tuple[str, ...], list[frozenset[str]]]:
    """trace -> maximal refusal sets (one per stable state shape reached
    after the trace). Downward closure is left implicit. Raises
    DivergenceError, and ValueError on negative depth."""
    if depth < 0:
        raise ValueError("depth must not be negative")
    subsets = _Subsets(l)
    out: dict[tuple[str, ...], list[frozenset[str]]] = {}
    frontier = {(): subsets.start}
    for _ in range(depth + 1):
        nxt: dict[tuple[str, ...], frozenset[str]] = {}
        for trace, states in sorted(frontier.items()):
            maxima = subsets.refusals(states)
            if maxima:
                out[trace] = list(maxima)
            if len(trace) < depth:
                for lab in sorted(subsets.sigma):
                    reached = subsets.after(states, lab)
                    if reached:
                        nxt[trace + (lab,)] = reached
        frontier = nxt
        if not frontier:
            break
    return out


def failures(p: Lts, depth: int) -> set[Failure]:
    """All failures with trace length up to `depth`: pairs of a trace and
    a refusal set held in some stable state after it. Refusal sets are
    expanded to all subsets of the maximal ones, so keep alphabets small.
    Raises as `max_refusals` does.
    """
    out: set[Failure] = set()
    for trace, maxima in max_refusals(p, depth).items():
        for m in maxima:
            members = sorted(m)
            for mask in range(1 << len(members)):
                sub = frozenset(members[k] for k in range(len(members))
                                if mask >> k & 1)
                out.add(Failure(trace, sub))
    return out


def refines(p: Lts, q: Lts, depth: int | None = None) -> bool:
    """failures(p) subset of failures(q), decided by
    `refinement_counterexample`: conclusively with no depth, else for the
    traces of at most `depth` labels."""
    return refinement_counterexample(p, q, depth) is None


def _uncovered(refusals: list[frozenset[str]],
               covers: list[frozenset[str]]) -> frozenset[str] | None:
    """The first of p's maximal refusals after a trace that no maximal
    refusal of q after it covers, shrunk to an informative witness; None
    when q covers them all."""
    for m in refusals:
        if not any(m <= c for c in covers):
            # shrink to an informative witness: drop labels q can
            # also refuse, as long as the remainder stays uncovered
            best = m
            for c in covers:
                reduced = m - c
                if (reduced and len(reduced) < len(best)
                        and not any(reduced <= c2 for c2 in covers)):
                    best = reduced
            return best
    return None


def _witness_depth(ps: _Subsets, qs: _Subsets, labels: list[str]) -> int | None:
    """The length of a shortest trace that holds a witness, or None: the
    distance of the first pair with one that a breadth-first search of
    the pairs reachable by p's labels meets."""
    root = (ps.start, qs.start)
    dist = {root: 0}

    def succ(pair):
        for lab in labels:
            reached = ps.after(pair[0], lab)
            if reached:
                child = (reached, qs.after(pair[1], lab))
                dist.setdefault(child, dist[pair] + 1)
                yield child

    for pair in _reach((root,), succ):
        if _uncovered(ps.refusals(pair[0]), qs.refusals(pair[1])) is not None:
            return dist[pair]
    return None


def refinement_counterexample(p: Lts, q: Lts, depth: int | None = None) -> Failure | None:
    """A failure of p that q does not have, or None. With no depth the
    answer is conclusive, and the witness is on the least trace in sorted
    (lexicographic) order among the shortest; with a depth, on the least
    trace of at most `depth` labels, not necessarily a shortest one.

    Whether a trace holds a witness depends only on the pair of
    tau-closed state sets p and q reach by it (q's is empty when q cannot
    follow), so the search walks pairs depth-first in sorted label order,
    not traces, and remembers for each pair how many further steps are
    known to hold no witness. With no depth, a breadth-first search of
    the pairs, which are finitely many, first finds the length of a
    shortest witness; in the worst case it takes time exponential in the
    state counts. Raises DivergenceError for p, then q; ValueError on
    negative depth.
    """
    if depth is not None and depth < 0:
        raise ValueError("depth must not be negative")
    ps, qs = _Subsets(p), _Subsets(q)
    labels = sorted(p.alphabet)
    if depth is None:
        depth = _witness_depth(ps, qs, labels)
        if depth is None:
            return None
    root = (ps.start, qs.start)
    found = _uncovered(ps.refusals(root[0]), qs.refusals(root[1]))
    if found is not None:
        return Failure((), found)
    # pair -> the most steps below it known to hold no witness; -1 while
    # only the pair itself is known to be clean
    clean = {root: -1}
    trace: list[str] = []
    stack = [(root, depth, iter(labels if depth else ()))]
    while stack:
        (pstates, qstates), left, todo = stack[-1]
        for lab in todo:
            reached = ps.after(pstates, lab)
            if not reached:
                continue
            child = (reached, qs.after(qstates, lab))
            known = clean.get(child)
            if known is None:
                found = _uncovered(ps.refusals(child[0]), qs.refusals(child[1]))
                if found is not None:
                    return Failure(tuple(trace) + (lab,), found)
                clean[child] = -1
            elif known >= left - 1:
                continue
            trace.append(lab)
            stack.append((child, left - 1, iter(labels if left > 1 else ())))
            break
        else:
            # deeper visits of this pair, done inside it, had fewer steps
            clean[stack.pop()[0]] = left
            if trace:
                trace.pop()
    return None
