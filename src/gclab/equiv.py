"""Equivalences over finite labelled transition systems: strong
bisimilarity, may/must testing, stable failures and refinement.

An Lts has a finite alphabet of visible labels plus the reserved internal
label `tau`. Tests are Ltss with success-marked states; a process passes
a test by reaching success in some (may) or every (must) maximal
computation of their synchronous product, where visible labels
synchronize and internal moves of either side go alone.

Every algorithm reads one int-indexed view of each Lts (`_Index`), built
once when the Lts is made: states numbered in sorted-name order, state k
as bit `1 << k` of a mask, and per-label successor masks. Names come back
only in results, so every walk that sorts by name keeps its order.

Strong bisimilarity splits blocks by signatures, the sets of (label,
successor block) pairs. Only the states whose successors moved are
signed again, and each split keeps its largest part in place, the rule
that Valmari's "Simple bisimilarity minimization in O(m log n) time"
(2009) also uses, so a state moves at most log2 n times.

Stable failures are computed over each system's subset construction
(`_Subsets`), on masks, built as a search meets it. Its tau closures come
from one depth-first walk over each system's tau moves (`_tau_reach`),
which also checks that the system is divergence-free. Refinement is
decided without listing traces, by one breadth-first search of the pairs
of tau-closed sets that p and q reach by the same trace: conclusively by
default, or up to a trace depth, with the bounded meaning of the
trace-by-trace definition. In both modes the witness is on the least of
the shortest traces that hold one. `max_refusals` and `failures` list
traces.
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
        names = sorted(set(self.states))
        index = {s: k for k, s in enumerate(names)}
        if self.init not in index:
            raise _fault(f"initial state '{self.init}' not declared", "init")
        if TAU in self.alphabet:
            raise _fault("'tau' is reserved for internal moves", "alphabet", TAU)
        succ = {lab: [0] * len(names) for lab in (*self.alphabet, TAU)}
        for k, (src, lab, dst) in enumerate(self.transitions):
            if src not in index or dst not in index:
                raise _fault(f"transition {src} -{lab}-> {dst} uses unknown state", "trans", k)
            row = succ.get(lab)
            if row is None:
                raise _fault(f"label '{lab}' not in the alphabet", "trans", k)
            row[index[src]] |= 1 << index[dst]
        unknown = [s for s in self.success if s not in index]
        if unknown:
            first = min(unknown)
            raise _fault(f"success marks unknown state '{first}'", "success", first)
        rows = {lab: tuple(row) for lab, row in succ.items()}
        # kept beside the fields, so eq, hash and repr ignore it
        object.__setattr__(self, "_index", _Index(
            tuple(names), rows, index[self.init],
            sum(1 << index[s] for s in self.success)))

    # -- derived views ------------------------------------------------------

    def moves(self) -> dict[str, dict[str, set[str]]]:
        """state -> label -> successor set, built on the first call and
        shared: callers must not mutate it. `equiv` itself reads only the
        indexed view."""
        mv = self.__dict__.get("_moves")
        if mv is None:
            mv = {s: {} for s in self.states}
            for src, lab, dst in self.transitions:
                mv[src].setdefault(lab, set()).add(dst)
            object.__setattr__(self, "_moves", mv)
        return mv

    def reachable(self) -> set[str]:
        ix = self._index
        return {ix.names[k] for k in _bits(_reachable(ix))}


class _Index:
    """An Lts with its states numbered in sorted-name order, so that state
    k is bit `1 << k` of a state-set mask and ascending numbers list
    states in sorted order. Built once per Lts; every algorithm below
    reads it, and maps numbers back to names only in what it returns."""

    __slots__ = ("names", "succ", "init", "success")

    def __init__(self, names: tuple[str, ...], succ: dict[str, tuple[int, ...]],
                 init: int, success: int):
        self.names = names
        self.succ = succ  # label (alphabet and tau) -> per-state successor mask
        self.init = init
        self.success = success  # mask


def _bits(mask: int):
    """The state numbers in `mask`, ascending: from a table when the mask
    holds only states 0-7, else by clearing the lowest bit in turn."""
    if mask < 256:
        return _BYTE_BITS[mask]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _byte_bits() -> tuple[tuple[int, ...], ...]:
    """Entry m lists the bits of m < 256: the masks with bit k set are
    those below 1 << k, each with k added."""
    table: list[tuple[int, ...]] = [()]
    for k in range(8):
        table += [low + (k,) for low in table]
    return tuple(table)


_BYTE_BITS = _byte_bits()


def _reachable(ix: _Index) -> int:
    """The mask of the states reachable from the initial one."""
    rows = tuple(ix.succ.values())
    seen = todo = 1 << ix.init
    while todo:
        nxt = 0
        for k in _bits(todo):
            for row in rows:
                nxt |= row[k]
        todo = nxt & ~seen
        seen |= todo
    return seen


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

def _partition(p: Lts, q: Lts) -> list[int]:
    """Coarsest strong bisimulation partition of the disjoint union: a
    block id per state, p's states first and then q's, each system's in
    its own numbering.

    A state's signature is the set of its (label, block of the successor)
    pairs, and a block splits by the signatures of its members (Valmari,
    "Simple bisimilarity minimization in O(m log n) time", 2009, splits
    by the same rule). Only a state one of whose successors changed block
    is signed again; the other members of its block still share the
    signature they had, and form one part. A split keeps its largest part
    under the old id and moves the others to new ids, so a state moves
    only into a block at most half as large as the one it leaves, at most
    log2 n times, and a state with k moves out is signed at most
    k * log2 n + 1 times."""
    out: list[list[tuple[str, int]]] = []  # state -> its (label, successor) pairs
    pred: list[list[int]] = []  # state -> the states with a move to it
    for l in (p, q):
        base, ix = len(out), l._index
        out += [[] for _ in ix.names]
        pred += [[] for _ in ix.names]
        for lab, row in ix.succ.items():
            for k, mask in enumerate(row, base):
                if mask:
                    for d in _bits(mask):
                        out[k].append((lab, base + d))
                        pred[base + d].append(k)
    block = [0] * len(out)
    members = [set(range(len(out)))]
    touched = {0: set(range(len(out)))}  # block -> members to sign again
    while touched:
        b, signed = touched.popitem()
        mem = members[b]
        parts: dict[frozenset, list[int]] = {}
        for s in signed:
            sig = frozenset([(lab, block[d]) for lab, d in out[s]])
            part = parts.get(sig)
            if part is None:
                parts[sig] = [s]
            else:
                part.append(s)
        # the members none of whose successors moved keep the signature
        # they shared, which no signed member has: a moved successor sits
        # in a block made since
        rest = len(mem) - len(signed)
        moving = sorted(parts.values(), key=len)
        if not rest:
            moving.pop()
        elif len(moving[-1]) > rest:
            moving[-1] = list(mem - signed)
        for part in moving:
            mem.difference_update(part)
            for s in part:
                block[s] = len(members)
            members.append(set(part))
        for part in moving:
            for s in part:
                for y in pred[s]:
                    ys = touched.get(block[y])
                    if ys is None:
                        touched[block[y]] = {y}
                    else:
                        ys.add(y)
    return block


def bisimilar(p: Lts, q: Lts) -> bool:
    """Strong bisimilarity of the initial states (`tau` treated as an
    ordinary label)."""
    block = _partition(p, q)
    return block[p._index.init] == block[len(p._index.names) + q._index.init]


def bisimilar_witness(p: Lts, q: Lts) -> tuple[str, str, str] | None:
    """None when bisimilar; otherwise a distinguishing (p-state, q-state,
    label): the first pair, breadth-first from the initial states along
    matching moves, where one side moves on the label and the other
    cannot (the usual narrative of a failed simulation attempt). One
    exists: reachable pairs that agree on every label form a
    bisimulation."""
    pix, qix = p._index, q._index
    block = _partition(p, q)
    if block[pix.init] == block[len(pix.names) + qix.init]:
        return None
    pnone, qnone = (0,) * len(pix.names), (0,) * len(qix.names)
    rows = [(lab, pix.succ.get(lab, pnone), qix.succ.get(lab, qnone))
            for lab in sorted(pix.succ.keys() | qix.succ.keys())]

    def succ(pair):
        u, v = pair
        for _, prow, qrow in rows:
            if prow[u] and qrow[v]:
                for x in _bits(prow[u]):
                    for y in _bits(qrow[v]):
                        yield (x, y)

    for u, v in _reach(((pix.init, qix.init),), succ):
        for lab, prow, qrow in rows:
            if bool(prow[u]) != bool(qrow[v]):
                return (pix.names[u], qix.names[v], lab)
    return None


# ---------------------------------------------------------------------------
# Synchronous product and testing
# ---------------------------------------------------------------------------

def _product_moves(proc: Lts, test: Lts):
    """Transition function of the synchronous product, over pairs of state
    numbers: shared visible labels synchronize, internal moves
    interleave."""
    pix, tix = proc._index, test._index
    ptau, ttau = pix.succ[TAU], tix.succ[TAU]
    shared = [(pix.succ[lab], tix.succ[lab])
              for lab in sorted(set(proc.alphabet) & set(test.alphabet))]

    def succ(node: tuple[int, int]) -> list[tuple[int, int]]:
        s, t = node
        out = [(d, t) for d in _bits(ptau[s])]
        out += [(s, d) for d in _bits(ttau[t])]
        for prow, trow in shared:
            if prow[s] and trow[t]:
                for ds in _bits(prow[s]):
                    for dt in _bits(trow[t]):
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
    start, success = (proc._index.init, test._index.init), test._index.success
    nodes = _reach((start,), _product_moves(proc, test))
    return any(success >> t & 1 for _, t in nodes)


def must_pass(proc: Lts, test: Lts) -> bool:
    """Does every maximal product computation visit a success state?

    False exactly when the success-avoiding part of the product contains
    a reachable deadlock or a reachable cycle (an infinite computation
    that never meets success).
    """
    return must_witness(proc, test) is None


def must_witness(proc: Lts, test: Lts) -> tuple[str, tuple[str, str]] | None:
    """None when the process must pass; otherwise ('stuck'|'cycle', pair)
    naming a deadlocked or cycling product node that avoids success.

    An iterative gray/black depth-first search from the initial node,
    along `_product_moves` in its order, never entering a success node:
    the first entered node with no moves is stuck, and the first move
    back onto the current path names the node it returns to."""
    _require_test(test)
    pix, tix = proc._index, test._index
    success = tix.success
    if success >> tix.init & 1:
        return None
    succ = _product_moves(proc, test)
    color: dict[tuple[int, int], int] = {}  # 1 gray (on the path), 2 black (done)
    stack: list = []  # the path, each node with its untried moves
    node = (pix.init, tix.init)
    while node is not None:
        moves = succ(node)
        if not moves:
            return ("stuck", (pix.names[node[0]], tix.names[node[1]]))
        color[node] = 1
        stack.append((node, iter(moves)))
        node = None
        while node is None and stack:
            top, todo = stack[-1]
            for nxt in todo:
                if success >> nxt[1] & 1:
                    continue
                c = color.get(nxt)
                if c == 1:
                    return ("cycle", (pix.names[nxt[0]], tix.names[nxt[1]]))
                if c is None:
                    node = nxt
                    break
            else:
                stack.pop()
                color[top] = 2
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


def _tau_reach(l: Lts) -> list[int]:
    """Per state, the mask of the states that one or more tau moves reach
    from it, for every reachable state (0 for the others).

    One iterative depth-first walk over the tau moves, from the reachable
    states in ascending order, successors in ascending order too. It
    raises DivergenceError on the first move back onto its path, naming
    the cycle from the repeated state round to it again, however long the
    tau chains are. Otherwise it fills each state's mask in post-order,
    from its tau successors' masks, which are filled by then."""
    ix = l._index
    tau = ix.succ[TAU]
    reach = [0] * len(ix.names)
    color = bytearray(len(ix.names))  # 1 gray (on the path), 2 black (done)
    # a state with no tau move keeps mask 0 and is never on a cycle, so
    # the walk neither enters it nor starts from it
    for root in _bits(_reachable(ix)):
        if color[root] or not tau[root]:
            continue
        color[root] = 1
        stack = [(root, iter(_bits(tau[root])))]  # the path, with untried moves
        while stack:
            node, todo = stack[-1]
            for d in todo:
                c = color[d]
                if c == 1:
                    path = [s for s, _ in stack]
                    raise DivergenceError(
                        [ix.names[s] for s in path[path.index(d):]] + [ix.names[d]])
                if not c and tau[d]:
                    color[d] = 1
                    stack.append((d, iter(_bits(tau[d]))))
                    break
            else:
                stack.pop()
                color[node] = 2
                mask = tau[node]
                for d in _bits(tau[node]):
                    mask |= reach[d]
                reach[node] = mask
    return reach


class _Subsets:
    """One system's subset construction: its tau-closed state sets, as
    masks, as the searches meet them, each set's successor on a label and
    its maximal refusals computed once. Each state's tau reach comes from
    `_tau_reach`, the walk that also checks the system is not divergent,
    so a closure is one OR per state. Raises DivergenceError if
    divergent."""

    def __init__(self, l: Lts):
        ix = l._index
        self._tau_plus = _tau_reach(l)
        self.succ = ix.succ
        self.sigma = frozenset(l.alphabet)
        self.start = self._closure(1 << ix.init)
        self._successors: dict[tuple[int, str], int] = {}
        self._maxima: dict[int, list[frozenset[str]]] = {}

    def _closure(self, states: int) -> int:
        plus = self._tau_plus
        out = states
        for s in _bits(states):
            out |= plus[s]
        return out

    def after(self, states: int, lab: str) -> int:
        """The tau-closed set one `lab` move leads to; empty if none does."""
        key = (states, lab)
        out = self._successors.get(key)
        if out is None:
            row = self.succ.get(lab)
            targets = 0
            if row is not None:
                for s in _bits(states):
                    targets |= row[s]
            out = self._successors[key] = self._closure(targets)
        return out

    def refusals(self, states: int) -> list[frozenset[str]]:
        """The subset-maximal refusals of the set's stable states, sorted."""
        out = self._maxima.get(states)
        if out is None:
            tau = self.succ[TAU]
            rows = [(lab, self.succ[lab]) for lab in self.sigma]
            refs = {frozenset([lab for lab, row in rows if not row[s]])
                    for s in _bits(states) if not tau[s]}
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
    """failures(p) subset of failures(q), decided by the one search of
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


def refinement_counterexample(p: Lts, q: Lts, depth: int | None = None) -> Failure | None:
    """A failure of p that q does not have, or None: conclusive with no
    depth, else for the traces of at most `depth` labels. In both modes
    the witness is on the least trace in sorted (lexicographic) order
    among the shortest ones that hold a witness.

    Whether a trace holds a witness depends only on the pair of
    tau-closed state sets p and q reach by it (q's is empty when q cannot
    follow), so the search walks pairs, not traces: breadth-first, one
    layer per trace length, children in sorted label order, entering each
    pair once with its least shortest trace. A depth stops it after that
    layer; with none it stops when the pairs, which are finitely many,
    run out, in the worst case after time exponential in the state
    counts. Raises DivergenceError for p, then q; ValueError on negative
    depth.
    """
    if depth is not None and depth < 0:
        raise ValueError("depth must not be negative")
    ps, qs = _Subsets(p), _Subsets(q)
    labels = sorted(p.alphabet)
    root = (ps.start, qs.start)
    found = _uncovered(ps.refusals(root[0]), qs.refusals(root[1]))
    if found is not None:
        return Failure((), found)
    # each layer lists its pairs in the order of their least traces, so
    # the first pair a child is met from gives it its least one
    seen = {root}
    layer = [(root, ())]
    length = 0  # of the traces in `layer`
    while layer and (depth is None or length < depth):
        length += 1
        nxt = []
        for (pstates, qstates), trace in layer:
            for lab in labels:
                reached = ps.after(pstates, lab)
                if reached:
                    child = (reached, qs.after(qstates, lab))
                    if child not in seen:
                        found = _uncovered(ps.refusals(reached), qs.refusals(child[1]))
                        if found is not None:
                            return Failure(trace + (lab,), found)
                        seen.add(child)
                        nxt.append((child, trace + (lab,)))
        layer = nxt
    return None
