"""The reference workload: a fixed amount of plain-Python work that never
touches gclab, timed beside every pass to read the machine's speed.

The host this benchmark runs on changes speed for stretches of seconds to
minutes (README, Noise). Every timing the benchmark reports is multiplied
by REFERENCE_S / (the reference time sampled around it), so it reads as
if the machine ran the reference in REFERENCE_S seconds. A change to
gclab cannot move the reference: it runs in a process forked before gclab
is imported and shares nothing with it.

The work resembles gclab's: a breadth-first search over hashed tuple and
frozenset states (the engine), regular-expression tokenising and small
object building (the front end), and dict-of-set fixpoint iteration (the
LTS checks). Run it alone with

    python3 bench/reference.py
"""

from __future__ import annotations

import os
import re
import statistics
import sys
import time

# About the median time of one reference() call in the server on the
# machine the bounds were set on (2 virtual cores of a shared host,
# Python 3.11.7), in seconds.
REFERENCE_S = 0.04

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(:=|->|\[\]|<=|>=|.))")


def _search(n: int) -> int:
    """Every placement of n non-attacking queens, breadth first, with a
    seen-set of frozenset states."""
    frontier = [((), frozenset(), frozenset(), frozenset())]
    seen = set()
    solutions = 0
    while frontier:
        nxt = []
        for cols, d1, d2, used in frontier:
            row = len(cols)
            if row == n:
                solutions += 1
                continue
            for c in range(n):
                if c in used or row + c in d1 or row - c in d2:
                    continue
                state = (cols + (c,), d1 | {row + c}, d2 | {row - c}, used | {c})
                key = (state[0], hash(state[3]))
                if key not in seen:
                    seen.add(key)
                    nxt.append(state)
        frontier = nxt
    return solutions * 1000 + len(seen)


class _Node:
    __slots__ = ("kind", "text", "kids")

    def __init__(self, kind, text, kids=()):
        self.kind, self.text, self.kids = kind, text, tuple(kids)


def _tokenise(text: str) -> int:
    """Tokens of a guarded-command text, grouped into statement nodes."""
    nodes, current = [], []
    for m in _TOKEN.finditer(text):
        num, name, sym = m.groups()
        if num is not None:
            current.append(_Node("num", int(num)))
        elif name is not None:
            current.append(_Node("name", name))
        elif sym is not None:
            if sym == ";":
                nodes.append(_Node("stmt", "", current))
                current = []
            else:
                current.append(_Node("sym", sym))
    return sum(len(n.kids) for n in nodes) + len(current)


def _fixpoint(states: int) -> int:
    """Greatest-fixpoint partition refinement, as a bisimulation check does
    it, of a chain with skip edges: it takes one round per state."""
    succ = {s: {t for t in (s + 1, s + 2) if t < states} for s in range(states)}
    block = {s: 0 for s in range(states)}
    rounds = 0
    while True:
        rounds += 1
        sig = {s: (block[s], frozenset(block[t] for t in succ[s])) for s in succ}
        names = {}
        new = {s: names.setdefault(sig[s], len(names)) for s in succ}
        if len(names) == len(set(block.values())):
            return rounds * 1000 + len(names)
        block = new


_TEXT = " ".join(
    f"x{i} := x{i} + {i}; do x{i} <= {i * 7} -> y := y - 1 [] y >= 0 -> skip od;"
    for i in range(240))


def reference() -> int:
    """One unit of reference work; returns a checksum of what it computed."""
    return _search(8) + _tokenise(_TEXT) * 7 + _fixpoint(180)


def serve(requests: int, replies: int) -> None:
    """Runs reference() once per byte read from `requests` and writes its
    time (a line of text) to `replies`, until `requests` closes."""
    with os.fdopen(requests, "rb", buffering=0) as rin, \
            os.fdopen(replies, "w", buffering=1) as wout:
        expected = reference()
        while rin.read(1):
            t0 = time.perf_counter()
            got = reference()
            seconds = time.perf_counter() - t0
            if got != expected:
                raise SystemExit(f"reference checksum changed: {got} != {expected}")
            wout.write(f"{seconds!r}\n")


class Server:
    """A child process, forked from a process that has not imported gclab,
    that runs reference() when asked, one call at a time."""

    def __init__(self):
        if "gclab" in sys.modules:
            raise RuntimeError("the reference server must start before gclab is imported")
        req_r, self._req_w = os.pipe()
        self._rep_r, rep_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                os.close(self._req_w)
                os.close(self._rep_r)
                serve(req_r, rep_w)
                code = 0
            finally:
                os._exit(code)
        os.close(req_r)
        os.close(rep_w)
        self._replies = os.fdopen(self._rep_r, "r")

    def time(self) -> float:
        """Seconds one reference() call took in the server."""
        os.write(self._req_w, b"x")
        line = self._replies.readline()
        if not line:
            raise RuntimeError("reference server ended")
        return float(line)

    def close(self) -> None:
        """Stops the server and waits until it has ended."""
        if self.pid:
            os.close(self._req_w)
            self._replies.close()
            os.waitpid(self.pid, 0)
            self.pid = 0


if __name__ == "__main__":
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    print(f"reference(): median {statistics.median(times):.4f} s, "
          f"min {min(times):.4f} s over {len(times)} calls, checksum {reference()}")
