"""Seeded generators of small csp and par systems, as source text.

A csp system has two processes, P over p1, p2 and Q over q1, q2, each
with an initialization and a communication loop of one or two guarded
commands; a guard's i/o command names the other process, so some guards
pair up and some do not. A par system has two components over the shared
x, y, z, with an optional init and epilogue. Bodies, inits and epilogues
may branch (an if-fi with two true guards) or fail (`fail`, or a division
by a value that can be zero). Boolean guard parts and component
conditions never fail to evaluate, so the direct semantics and the
translation read the same guards.
"""

from __future__ import annotations

from random import Random

CSP_VARS = {"P": ("p1", "p2"), "Q": ("q1", "q2")}
PAR_VARS = ("x", "y", "z")


def _cond(rng: Random, names: tuple[str, ...]) -> str:
    v = rng.choice(names)
    k = rng.randint(0, 2)
    return rng.choice([f"{v} < {k + 1}", f"{v} != {k}", f"{v} <= {k}",
                       f"{v} < {k + 1} and {rng.choice(names)} >= 0"])


def _update(rng: Random, names: tuple[str, ...]) -> str:
    """One assignment, which may fail (a division by a value that can be 0)."""
    v, w = rng.choice(names), rng.choice(names)
    if rng.random() < 0.15:
        return f"{v} := 6 div ({w} - 1)"
    return rng.choice([f"{v} := {v} + 1", f"{v} := {w} + 1", f"{v} := {v} + {w}",
                       f"{v} := 2"])


def _gcl(rng: Random, names: tuple[str, ...]) -> str:
    """A guarded-commands statement: an assignment, a two-way branch, or
    a statement that fails on some branch."""
    roll = rng.random()
    if roll < 0.45:
        return _update(rng, names)
    if roll < 0.75:
        return f"if true -> {_update(rng, names)} [] true -> {_update(rng, names)} fi"
    if roll < 0.9:
        v = rng.choice(names)
        return f"if {v} = 1 -> fail [] {v} != 1 -> {_update(rng, names)} fi"
    return f"{_update(rng, names)}; {_update(rng, names)}"


def random_csp(rng: Random) -> str:
    # P's guard k outputs or inputs; Q's guard k mostly does the other, so
    # that most systems have some corresponding pairs, and most guards
    # allow the same number of rounds in both, so that many runs end
    outputs = [rng.random() < 0.5 for _ in range(2)]
    rounds = rng.randint(1, 2)
    procs = []
    for name, peer in (("P", "Q"), ("Q", "P")):
        own = CSP_VARS[name]
        arms = []
        for k in range(rng.randint(1, 2)):
            output = outputs[k] != (name == "Q" and rng.random() < 0.8)
            if output:
                io = f"{peer} ! {rng.choice(own)} + {rng.randint(0, 1)}"
            else:
                io = f"{peer} ? {own[1] if rng.random() < 0.9 else own[0]}"
            # the body moves the guard's variable forward, so most loops end
            step = f"{own[0]} := {own[0]} + 1"
            body = step if rng.random() < 0.4 else f"{step}; {_gcl(rng, own)}"
            cond = f"{own[0]} < {rounds}" if rng.random() < 0.7 else _cond(rng, own[:1])
            arms.append(f"{cond} ; {io} -> {body}")
        init = f"{own[0]} := 0; {own[1]} := {rng.randint(0, 2)}"
        if rng.random() < 0.5:
            init += f"; {_gcl(rng, (own[1],))}"
        procs.append(f"process {name}\n  var {own[0]}: int; var {own[1]}: int;\n"
                     f"  {init};\n  do {' [] '.join(arms)} od\nend\n")
    return "".join(procs)


def _par_stmt(rng: Random) -> str:
    """A statement of the parallel fragment."""
    roll = rng.random()
    v = rng.choice(PAR_VARS)
    if roll < 0.3:
        return f"while {v} < {rng.randint(1, 2)} do {v} := {v} + 1 od"
    if roll < 0.55:
        return (f"if {_cond(rng, PAR_VARS)} then {_update(rng, PAR_VARS)} "
                f"else {_update(rng, PAR_VARS)} fi")
    if roll < 0.7:
        return f"await {_cond(rng, PAR_VARS)}"
    return _update(rng, PAR_VARS)


def random_par(rng: Random) -> str:
    lines = ["var x: int; var y: int; var z: int;"]
    if rng.random() < 0.6:
        lines.append(f"init {_gcl(rng, PAR_VARS)}")
    for _ in range(2):
        body = "; ".join(_par_stmt(rng) for _ in range(rng.randint(1, 2)))
        lines.append(f"component {body} end")
    if rng.random() < 0.6:
        lines.append(f"epilogue {_gcl(rng, PAR_VARS)}")
    return "\n".join(lines) + "\n"
