"""Strong bisimilarity as it was before the indexed view: `_partition`
re-signs every state of the disjoint union, tagged by name, in every
round until no block splits, over the name-keyed `Lts.moves`; the witness
search walks the same moves. Kept only as the reference for
`test_bisim_reference.py`.
"""

from __future__ import annotations

from collections import deque

from gclab.equiv import TAU, Lts


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
    block = _partition(p, q)
    return block[f"0:{p.init}"] == block[f"1:{q.init}"]


def bisimilar_witness(p: Lts, q: Lts) -> tuple[str, str, str] | None:
    """The first pair, breadth-first from the initial states along
    matching moves, where one side moves on a label and the other cannot;
    None when bisimilar."""
    if bisimilar(p, q):
        return None
    pmv, qmv = p.moves(), q.moves()
    labels = sorted(set(p.alphabet) | set(q.alphabet) | {TAU})
    seen = {(p.init, q.init)}
    todo = deque(seen)
    while todo:
        u, v = todo.popleft()
        for lab in labels:
            if (lab in pmv[u]) != (lab in qmv[v]):
                return (u, v, lab)
        for lab in labels:
            for x in sorted(pmv[u].get(lab, ())):
                for y in sorted(qmv[v].get(lab, ())):
                    if (x, y) not in seen:
                        seen.add((x, y))
                        todo.append((x, y))
    return None
