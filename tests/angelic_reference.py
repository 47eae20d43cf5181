"""`solve_angelic` as it was before it ran on the shared `GraphSearch`:
a private copy of the depth-first search with its own black map, clean
flag, shallower-revisit rule and `max_configs` budget. Kept only as the
reference for `test_angelic_reference.py`.
"""

from __future__ import annotations

from gclab.engine import Config, Limits, Terminated, root as _root, step
from gclab.state import State, initial_state
from gclab.syntax import GclProgram


def solve_angelic(p: GclProgram, s0: State | None = None,
                  lim: Limits = Limits()) -> list[Terminated]:
    """Backtracking enumeration of the successful terminal states.

    Depth-first with choice values ascending; failures backtrack silently,
    on-path repeats (divergence) and exhausted budgets prune the branch.
    Results are deduplicated by final state, in first-found order.
    """
    if s0 is None:
        s0 = initial_state(p.decls)
    found: list[Terminated] = []
    seen_states: set[str] = set()
    black: dict[Config, tuple[int, bool]] = {}
    budget = lim.max_configs

    def classify(cfg: Config, depth: int):
        """None = closed branch, 'bound' = pruned by budget, else frame."""
        nonlocal budget
        if cfg.terminated:
            key = cfg.state.canonical()
            if key not in seen_states:
                seen_states.add(key)
                found.append(Terminated(cfg.state))
            return None
        if depth >= lim.max_depth or budget <= 0:
            return "bound"
        budget -= 1
        res = step(cfg, lim.choice_bound)
        if res.failure is not None:
            return None  # failures are discarded
        return [cfg, res.transitions, 0, depth, not res.truncated]

    root = Config(_root(p.body), s0)
    first = classify(root, 0)
    if not isinstance(first, list):
        return found
    stack = [first]
    on_path = {root}
    while stack:
        frame = stack[-1]
        cfg, trans, idx, depth, clean = frame
        if idx >= len(trans):
            stack.pop()
            on_path.discard(cfg)
            black[cfg] = (depth, clean)
            if stack:
                stack[-1][4] = stack[-1][4] and clean
            continue
        frame[2] += 1
        _, nxt = trans[idx]
        if nxt in on_path:
            continue  # divergent within limits: prune
        seen = black.get(nxt)
        if seen is not None:
            prev_depth, prev_clean = seen
            if prev_clean or depth + 1 >= prev_depth:
                frame[4] = frame[4] and prev_clean
                continue
            del black[nxt]
        child = classify(nxt, depth + 1)
        if child == "bound":
            frame[4] = False
            continue
        if child is None:
            continue
        stack.append(child)
        on_path.add(nxt)
    return found
