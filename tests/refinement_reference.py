"""`refinement_counterexample` as it was before the pair search: it lists
the maximal refusals of every trace up to the depth for both systems
(trace enumeration, |alphabet|^depth traces) and scans P's traces in
sorted order. `max_refusals` and `_tau_closure` are kept beside it as
they were, and the divergence check is a recursive depth-first search of
its own, from the states that its own walk reaches, so the reference
shares no refusal, divergence or reachability code with the search it
checks. Kept only as the reference for `test_refinement_reference.py`
and `test_equiv.py`.
"""

from __future__ import annotations

from collections import deque

from gclab.equiv import TAU, DivergenceError, Failure, Lts


def check_divergence_free(l: Lts) -> None:
    """The divergence check as a recursive depth-first search over tau
    moves, from the reachable states in sorted order: raise
    DivergenceError with the first cycle it meets. The reachable states
    are its own walk of `moves()` from `init`, over every label."""
    mv = l.moves()
    reachable, todo = {l.init}, [l.init]
    while todo:
        for dsts in mv[todo.pop()].values():
            todo.extend(dsts - reachable)
            reachable |= dsts
    color, trail = {}, []

    def dfs(s):
        color[s] = 1
        trail.append(s)
        for d in sorted(mv[s].get(TAU, ())):
            if color.get(d) == 1:
                return trail[trail.index(d):] + [d]
            if d not in color:
                found = dfs(d)
                if found:
                    return found
        trail.pop()
        color[s] = 2
        return None

    for s in sorted(reachable):
        if s not in color:
            found = dfs(s)
            if found:
                raise DivergenceError(found)


def _tau_closure(states: set[str], mv) -> frozenset[str]:
    seen = set(states)
    todo = deque(states)
    while todo:
        s = todo.popleft()
        for d in mv[s].get(TAU, ()):
            if d not in seen:
                seen.add(d)
                todo.append(d)
    return frozenset(seen)


def max_refusals(l: Lts, depth: int) -> dict[tuple[str, ...], list[frozenset[str]]]:
    """trace -> maximal refusal sets (one per stable state shape reached
    after the trace). Downward closure is left implicit."""
    check_divergence_free(l)
    mv = l.moves()
    sigma = set(l.alphabet)
    out: dict[tuple[str, ...], list[frozenset[str]]] = {}
    start = _tau_closure({l.init}, mv)
    frontier: dict[tuple[str, ...], frozenset[str]] = {(): start}
    for _ in range(depth + 1):
        nxt: dict[tuple[str, ...], frozenset[str]] = {}
        for trace, states in sorted(frontier.items()):
            refs = set()
            for s in states:
                if mv[s].get(TAU):
                    continue  # unstable
                refs.add(frozenset(sigma - set(mv[s])))
            # keep only subset-maximal refusals
            maxima = [r for r in refs
                      if not any(r < other for other in refs)]
            if maxima:
                out[trace] = sorted(maxima, key=sorted)
            if len(trace) < depth:
                for lab in sorted(sigma):
                    targets = set()
                    for s in states:
                        targets |= mv[s].get(lab, set())
                    if targets:
                        nxt[trace + (lab,)] = _tau_closure(targets, mv)
        frontier = nxt
        if not frontier:
            break
    return out


def refinement_counterexample(p: Lts, q: Lts, depth: int) -> Failure | None:
    """A failure of p that q does not have, or None."""
    pf = max_refusals(p, depth)
    qf = max_refusals(q, depth)
    for trace in sorted(pf):
        covers = qf.get(trace, [])
        for m in pf[trace]:
            if not any(m <= c for c in covers):
                # shrink to an informative witness: drop labels q can
                # also refuse, as long as the remainder stays uncovered
                best = m
                for c in covers:
                    reduced = m - c
                    if (reduced and len(reduced) < len(best)
                            and not any(reduced <= c2 for c2 in covers)):
                        best = reduced
                return Failure(trace, best)
    return None
