"""Seeded item generators for the four benchmark workloads.

Pure Python: nothing here imports gclab. Every item carries the source
texts, bindings and parameters that gclab will receive, plus `facts`
that the generator knows by construction (declaration counts, arm
counts) for the oracles. gclab never sees `facts`.

The seed varies values, not shapes: every seed yields the same families
in the same proportions, with the same program sizes, so that medians
taken over different seeds measure the same amount of work.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from random import Random


@dataclass(frozen=True)
class Item:
    id: str       # unique within its workload
    family: str   # item family, for per-family reporting
    op: str       # runner name in execute.RUNNERS
    args: dict    # JSON-able texts, bindings, seeds, limits and facts


def digest(items: list[Item]) -> str:
    doc = [[it.id, it.family, it.op, it.args] for it in items]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Source templates
# ---------------------------------------------------------------------------

def queens_text(n: int, perm: list[int]) -> str:
    """The corpus queens program for an n x n board, with every chosen
    row relabelled through the permutation p (same search tree shape for
    every p)."""
    cells = ", ".join(str(v) for v in perm)
    pr = "p[row]"
    return f"""# {n} queens by guess-and-fail, rows relabelled through p
var q: int[1..{n}];
var a: int[1..{n}];
var b: int[2..{2 * n}];
var c: int[{1 - n}..{n - 1}];
var p: int[1..{n}] = [{cells}];
var col: int;
var row: int;
col := 1;
do col <= {n} ->
  row := choice({n});
  if a[{pr}] = 1 or b[{pr} + col] = 1 or c[{pr} - col] = 1 -> fail
  [] a[{pr}] = 0 and b[{pr} + col] = 0 and c[{pr} - col] = 0 -> skip
  fi;
  q[col] := {pr};
  a[{pr}] := 1;
  b[{pr} + col] := 1;
  c[{pr} - col] := 1;
  col := col + 1
od
"""


def goon_text(x0: int = 1) -> str:
    return f"""# counts up for a while and may stop
var goon: bool;
var x: int;
goon := true;
x := {x0};
do goon -> x := x + 1
[] goon -> goon := false
od
"""


def race_text(laps: int = 4, lead: int = 0) -> str:
    return f"""# two co-enabled arms pull lead in opposite directions
var laps: int = {laps};
var lead: int = {lead};
do laps > 0 -> lead := lead + 1; laps := laps - 1
[] laps > 0 -> lead := lead - 1; laps := laps - 1
od
"""


def threeway_text(n: int = 3, acc: int = 0) -> str:
    return f"""# three co-enabled arms, every arm makes progress
var n: int = {n};
var acc: int = {acc};
do n > 0 -> acc := acc + 1; n := n - 1
[] n > 0 -> acc := acc + 2; n := n - 1
[] n > 0 -> n := n - 1
od
"""


def euclid_text(x: int = 12, y: int = 18) -> str:
    return f"""# gcd by symmetric subtraction
var x: int = {x};
var y: int = {y};
do x > y -> x := x - y
[] x < y -> y := y - x
od
"""

MAX = """# maximum of two numbers
var x: int;
var y: int;
var m: int;
if x >= y -> m := x
[] y >= x -> m := y
fi
"""

SORT4 = """# sort four values by swapping adjacent out-of-order pairs
var X1: int = 3;
var X2: int = 1;
var X3: int = 2;
var X4: int = 2;
var x1: int;
var x2: int;
var x3: int;
var x4: int;
x1, x2, x3, x4 := X1, X2, X3, X4;
do x1 > x2 -> x1, x2 := x2, x1
[] x2 > x3 -> x2, x3 := x3, x2
[] x3 > x4 -> x3, x4 := x4, x3
od
"""

MAXPOINT = """# some index k at which f attains its maximum
var f: int[0..4];
var n: int = 5;
var k: int;
var j: int;
k := 0;
j := 1;
do j != n ->
  if f[j] <= f[k] -> j := j + 1
  [] f[j] >= f[k] -> k := j; j := j + 1
  fi
od
"""

FEIJEN = """# first common entry of three sorted arrays
var a: int[0..7];
var b: int[0..7];
var c: int[0..7];
var i: int;
var j: int;
var k: int;
i := 0;
j := 0;
k := 0;
do a[i] < b[j] -> i := i + 1
[] b[j] < c[k] -> j := j + 1
[] c[k] < a[i] -> k := k + 1
od
"""


def zerosearch_text(ia: list[int]) -> str:
    m = len(ia)
    cells = ", ".join(str(v) for v in ia)
    return f"""# two scanners race through the odd and even cells of ia
var ia: int[1..{m}] = [{cells}];
var i: int;
var j: int;
var oddtop: int;
var eventop: int;
var k: int;
init
  i := 1; j := 2; oddtop := {m + 1}; eventop := {m + 1}
component
  while i < min(oddtop, eventop) do
    if ia[i] > 0 then oddtop := i else i := i + 2 fi
  od
end
component
  while j < min(oddtop, eventop) do
    if ia[j] > 0 then eventop := j else j := j + 2 fi
  od
end
epilogue
  k := min(oddtop, eventop)
"""


ZEROSEARCH_ACTIONS = 12  # 2 components x (while 2 + if 2 + 2 assignments)


def sfr_text(cells: list[int]) -> str:
    """Sender-filter-receiver pipeline over the given cells; the last
    cell is the sentinel -1."""
    m = len(cells)
    lit = ", ".join(str(v) for v in cells)
    return f"""# SENDER streams a, FILTER drops zeros, RECEIVER stores until -1
process SENDER
  var i: int;
  var a: int[0..{m - 1}] = [{lit}];
  i := 0;
  do i != {m} ; FILTER ! a[i] -> i := i + 1 od
end
process FILTER
  var in: int;
  var out: int;
  var x: int;
  var b: int[0..{m - 1}];
  in := 0; out := 0; x := 0;
  do x != -1 ; SENDER ? x ->
      if x = 0 -> skip
      [] x != 0 -> b[in] := x; in := in + 1
      fi
  [] out != in ; RECEIVER ! b[out] -> out := out + 1
  od
end
process RECEIVER
  var j: int;
  var y: int;
  var c: int[0..{m - 1}];
  j := 0; y := 0;
  do y != -1 ; FILTER ? y -> c[j] := y; j := j + 1 od
end
"""


SFR_DECLS = 9
SFR_PAIRS = 2


def chaotic_text(height: int, table: dict) -> str:
    """The asynchronous least-fixpoint program for a 2-component table
    operator, written out as source: one dispatch table per arm."""
    pts = sorted(table)

    def at(pt):
        return f"(x1 = {pt[0]} and x2 = {pt[1]})"

    moved = [pt for pt in pts if table[pt] != pt]
    guard = " or ".join(at(pt) for pt in moved) if moved else "false"
    arms = []
    for i in range(2):
        rows = "\n    [] ".join(f"{at(pt)} -> x{i + 1} := {table[pt][i]}"
                                for pt in pts)
        arms.append(f"{guard} ->\n    if {rows}\n    fi")
    return (f"# chaotic iteration on the square chain 0..{height}\n"
            "var x1: int;\nvar x2: int;\nx1, x2 := 0, 0;\n"
            "do " + "\n[] ".join(arms) + "\nod\n")


def par_system_text(rng: Random, k: int) -> str:
    """k counting components sharing an accumulator; each has a while
    loop around an if-else with an await branch (8 atomic actions)."""
    lines = ["# counting components sharing an accumulator", "var s: int;",
             "var t: int;"]
    lines += [f"var c{i}: int;\nvar d{i}: int;" for i in range(1, k + 1)]
    lines.append(f"init\n  s := {rng.randint(0, 9)}")
    for i in range(1, k + 1):
        lim, w = rng.randint(2, 9), rng.randint(1, 5)
        lines.append(
            f"component\n"
            f"  while c{i} < {lim} do\n"
            f"    if c{i} mod 2 = 0 then s := s + {w} else await s >= {i} fi;\n"
            f"    c{i} := c{i} + 1\n"
            f"  od;\n"
            f"  d{i} := 1\n"
            f"end")
    lines.append("epilogue\n  t := s + 1")
    return "\n".join(lines) + "\n"


PAR_ACTIONS_PER_COMPONENT = 8


# ---------------------------------------------------------------------------
# Small seeded building blocks
# ---------------------------------------------------------------------------

def random_monotone_map(rng: Random, height: int) -> dict:
    """A random monotone map from the square chain 0..height to 0..height:
    points in ascending order, each value at least those of its lower
    neighbours."""
    out: dict = {}
    for pt in sorted(itertools.product(range(height + 1), repeat=2)):
        lo = 0
        for d in range(2):
            if pt[d] > 0:
                below = list(pt)
                below[d] -= 1
                lo = max(lo, out[tuple(below)])
        out[pt] = rng.randint(lo, height)
    return out


def random_operator(rng: Random, height: int) -> list:
    f1, f2 = random_monotone_map(rng, height), random_monotone_map(rng, height)
    return [[list(pt), [f1[pt], f2[pt]]] for pt in sorted(f1)]


def zero_profile_array(rng: Random, odd_first: int | None,
                       even_first: int | None, m: int = 5) -> list[int]:
    """An array whose first positive odd-index cell is odd_first and first
    positive even-index cell is even_first (None: no positive cell of
    that parity). Cells past a parity's first positive are free; they
    never steer the scanners, so every such array costs the same search."""
    ia = []
    for idx in range(1, m + 1):
        first = odd_first if idx % 2 else even_first
        if first is not None and idx == first:
            ia.append(rng.randint(1, 9))
        elif first is None or idx < first:
            ia.append(0)
        else:
            ia.append(rng.randint(0, 9))
    return ia


def shaped_cells(rng: Random, shape: str) -> list[int]:
    """SFR input of the given zero/non-zero shape ('x' non-zero, '0'
    blank), values seeded, sentinel -1 appended."""
    return [rng.randint(1, 9) if ch == "x" else 0 for ch in shape] + [-1]


def sorted_triple(rng: Random) -> tuple[list[int], list[int], list[int]]:
    """Three strictly increasing arrays of length 8 sharing a value."""
    common = rng.randrange(10, 60)

    def column():
        vals = {common}
        while len(vals) < 8:
            vals.add(rng.randrange(0, 99))
        return sorted(vals)

    return column(), column(), column()


def relabel(rng: Random, values: list[int], lo: int, hi: int) -> list[int]:
    """Replace the values by seeded ones in the same order (ties kept), so
    that every comparison between them comes out as before."""
    distinct = sorted(set(values))
    new = dict(zip(distinct, sorted(rng.sample(range(lo, hi), len(distinct)))))
    return [new[v] for v in values]


def random_perm(rng: Random, n: int) -> list[int]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# explore: a few large exhaustive searches, sized so that a pass takes
# about a second and a run holds some twenty passes
# ---------------------------------------------------------------------------

def explore_items(seed: int) -> list[Item]:
    rng = Random(f"explore/{seed}")
    items: list[Item] = []
    # small first: the first item doubles as the untimed warm-up
    x0 = rng.randint(1, 50)
    items.append(Item("wf-goon", "wf", "wf_demonic", {
        "text": goon_text(x0), "vars": ["goon", "x"],
        "choice_bound": 4,
        "model": {"name": "goon", "init": [True, x0]}}))
    lead = rng.randint(-20, 20)
    items.append(Item("wf-race", "wf", "wf_demonic", {
        "text": race_text(4, lead), "vars": ["laps", "lead"],
        "choice_bound": 3,
        "model": {"name": "race", "init": [4, lead]}}))
    acc = rng.randint(0, 20)
    items.append(Item("wf-threeway", "wf", "wf_demonic", {
        "text": threeway_text(1, acc), "vars": ["n", "acc"],
        "choice_bound": 3,
        "model": {"name": "threeway", "init": [1, acc]}}))
    for odd_first, even_first in ((None, None), (3, 4), (1, 2)):
        ia = zero_profile_array(rng, odd_first, even_first)
        items.append(Item(f"par-zs-{odd_first}-{even_first}", "par-translated",
                          "par_translated", {"text": zerosearch_text(ia),
                                             "ia": ia}))
    for shape in ("x0xx0", "xxxxx", "x0x0x0", "xx0xx0x"):
        cells = shaped_cells(rng, shape)
        items.append(Item(f"csp-sfr-{shape}", "csp-translated", "csp_translated",
                          {"text": sfr_text(cells), "cells": cells}))
    perm = random_perm(rng, 5)
    for mode in ("demonic", "angelic"):
        items.append(Item(f"queens-5-{mode}", "queens", f"queens_{mode}",
                          {"text": queens_text(5, perm), "n": 5, "perm": perm}))
    return items


# ---------------------------------------------------------------------------
# sweep: about a thousand small items
# ---------------------------------------------------------------------------

def sweep_items(seed: int) -> list[Item]:
    """Shapes (which comparisons hold, which cells are blank, which
    operators) come from a fixed stream; the seed picks the values through
    order-preserving maps, the run seeds and the operator orientation."""
    shape, rng = Random("sweep-shapes"), Random(f"sweep/{seed}")
    items: list[Item] = []

    def add(family, op, **args):
        items.append(Item(f"{family}-{len(items)}", family, op, args))

    for x in range(1, 31):
        for y in shape.sample(range(1, 31), 3):
            k = rng.randint(1, 9)  # scaling keeps the subtraction sequence
            add("euclid", "gcl_demonic", text=euclid_text(), binds={"x": k * x, "y": k * y},
                vars=["x", "y"])
    for _ in range(100):
        tup = relabel(rng, [shape.randint(1, 4) for _ in range(4)], 1, 100)
        add("sort4", "gcl_demonic", text=SORT4,
            binds={f"X{i + 1}": v for i, v in enumerate(tup)},
            vars=["x1", "x2", "x3", "x4"])
    for _ in range(80):
        f = relabel(rng, [shape.randint(0, 3) for _ in range(5)], 0, 100)
        add("maxpoint", "gcl_demonic", text=MAXPOINT, binds={"f": f}, vars=["k"])
    for _ in range(50):
        a, b, c = sorted_triple(shape)
        new = relabel(rng, a + b + c, 0, 1000)
        add("feijen", "gcl_demonic", text=FEIJEN,
            binds={"a": new[:8], "b": new[8:16], "c": new[16:]},
            vars=["i", "j", "k"])
    for _ in range(40):
        x, y = rng.randint(-9, 9), rng.randint(-9, 9)
        add("erratic-max", "erratic", text=MAX, binds={"x": x, "y": y},
            vars=["m", "x", "y"], seed=rng.randrange(10 ** 6))
        tup = [rng.randint(1, 4) for _ in range(4)]
        add("erratic-sort4", "erratic", text=SORT4,
            binds={f"X{i + 1}": v for i, v in enumerate(tup)},
            vars=["x1", "x2", "x3", "x4"], seed=rng.randrange(10 ** 6))
        f = [rng.randint(0, 3) for _ in range(5)]
        add("erratic-maxpoint", "erratic", text=MAXPOINT, binds={"f": f},
            vars=["k"], seed=rng.randrange(10 ** 6))
        add("erratic-goon", "erratic", text=goon_text(), binds={},
            vars=["goon", "x"], seed=rng.randrange(10 ** 6))
    for policy in ("weak", "strong"):
        for _ in range(25):
            add("fair-goon", "fair", text=goon_text(), binds={}, vars=["goon", "x"],
                policy=policy, seed=rng.randrange(10 ** 6))
            laps, lead = shape.randint(1, 6), rng.randint(-9, 9)
            add("fair-race", "fair", text=race_text(), vars=["laps", "lead"],
                binds={"laps": laps, "lead": lead}, policy=policy,
                seed=rng.randrange(10 ** 6))
            n, acc = shape.randint(1, 6), rng.randint(0, 9)
            add("fair-threeway", "fair", text=threeway_text(),
                binds={"n": n, "acc": acc}, vars=["n", "acc"], policy=policy,
                seed=rng.randrange(10 ** 6))
    for height, operators in ((2, 14), (3, 10)):
        for _ in range(operators):
            table = random_operator(shape, height)
            if rng.random() < 0.5:  # swap the two components
                table = [[pt[::-1], img[::-1]] for pt, img in table]
                table.sort()
            for policy in ("weak", "strong"):
                for _ in range(5):
                    add("fair-chaotic", "fair_chaotic", height=height,
                        table=table, policy=policy, seed=rng.randrange(10 ** 6))
    for blanks in ("x0", "0x", "xx", "x0x", "00x", "xx0", "x0x0", "0xx0"):
        for _ in range(4):
            cells = shaped_cells(rng, blanks)
            add("csp-direct", "csp_direct", text=sfr_text(cells), cells=cells)
    zs = zerosearch_text([0] * 5)
    for _ in range(50):
        ia = zero_profile_array(rng, shape.choice((1, 3, 5, None)),
                                shape.choice((2, 4, None)))
        add("par-direct", "par_direct", text=zs, binds={"ia": ia})
    return items


# ---------------------------------------------------------------------------
# frontend: source handling, no search
# ---------------------------------------------------------------------------

CORPUS_GCL = ("euclid.gcl", "max.gcl", "sort4.gcl", "maxpoint.gcl", "feijen.gcl",
              "queens.gcl", "goon.gcl", "fair_threeway.gcl", "fair_race.gcl",
              "lfp_id.gcl", "lfp_diag.gcl")
CORPUS_CSP = ("sfr.csp", "circwait.csp")
CORPUS_PAR = ("zerosearch.par", "awaitfalse.par")
CORPUS_LTS = ("P.lts", "Q.lts", "T.lts")


def _bad_texts(rng: Random) -> list[tuple[str, str, str]]:
    """(kind, text, exception) triples, each rejected by construction."""
    v, w = rng.choice("xyzuv"), rng.randint(1, 99)
    return [
        ("gcl", f"var {v}: int;\n{v} := {w} $ 1\n", "ParseError"),
        ("gcl", f"var {v}: int;\nq{v} := {w}\n", "CheckError"),
        ("gcl", f"var {v}: int;\n{v} := true\n", "CheckError"),
        ("gcl", f"var {v}: int;\nif {v} > {w} -> skip\n", "ParseError"),
        ("gcl", f"var {v}: int;\nvar {v}: bool;\n{v} := {w}\n", "CheckError"),
        ("csp", f"process P\n  var {v}: int;\n  {v} := {w}\nend\nprocess Q\n"
                f"  var {v}: int;\n  {v} := 1\nend\n", "CheckError"),
        ("par", f"var {v}: int;\ncomponent\n  {v} := {w} ?\nend\n", "ParseError"),
    ]


def frontend_items(seed: int) -> list[Item]:
    rng = Random(f"frontend/{seed}")
    items: list[Item] = []

    def add(family, op, **args):
        items.append(Item(f"{family}-{len(items)}", family, op, args))

    for n in range(4, 11):
        for _ in range(3):
            add("roundtrip-queens", "roundtrip_gcl",
                text=queens_text(n, random_perm(rng, n)), facts={"decls": 7})
    for height in (2, 2, 3, 3, 3):
        for _ in range(3):
            table = {tuple(pt): tuple(img)
                     for pt, img in random_operator(rng, height)}
            add("roundtrip-chaotic", "roundtrip_gcl",
                text=chaotic_text(height, table), facts={"decls": 2})
    for shape in ("x0x", "xx0x", "x0x0x", "xxx0xx"):
        for _ in range(3):
            add("roundtrip-sfr", "roundtrip_csp", text=sfr_text(shaped_cells(rng, shape)),
                facts={"decls": SFR_DECLS})
    for k in (2, 3, 4, 5):
        for _ in range(3):
            add("roundtrip-par", "roundtrip_par", text=par_system_text(rng, k),
                facts={"decls": 2 + 2 * k, "components": k})
    for name in CORPUS_GCL:
        add("roundtrip-corpus", "roundtrip_gcl", corpus=name)
    for name in CORPUS_CSP:
        add("roundtrip-corpus", "roundtrip_csp", corpus=name)
    for name in CORPUS_PAR:
        add("roundtrip-corpus", "roundtrip_par", corpus=name)
    for name in CORPUS_LTS:
        add("roundtrip-corpus", "roundtrip_lts", corpus=name)

    for _ in range(3):
        add("transform-wf", "transform_wf", text=goon_text(rng.randint(1, 9)),
            facts={"decls": 4, "arms": 2})
        add("transform-wf", "transform_wf",
            text=race_text(rng.randint(1, 9), rng.randint(-9, 9)),
            facts={"decls": 4, "arms": 2})
        add("transform-wf", "transform_wf",
            text=threeway_text(rng.randint(1, 9), rng.randint(0, 9)),
            facts={"decls": 5, "arms": 3})
        table = {tuple(pt): tuple(img) for pt, img in random_operator(rng, 3)}
        add("transform-wf", "transform_wf", text=chaotic_text(3, table),
            facts={"decls": 4, "arms": 2})
        add("transform-wf", "transform_wf", text=SORT4,
            facts={"decls": 11, "arms": 3})
    for shape in ("x0x", "xx0x", "x0x0x", "xxx0xx"):
        for _ in range(2):
            add("transform-csp", "translate_csp",
                text=sfr_text(shaped_cells(rng, shape)),
                facts={"decls": SFR_DECLS, "pairs": SFR_PAIRS})
    for k in (2, 3, 4, 5):
        for _ in range(2):
            add("transform-par", "translate_par", text=par_system_text(rng, k),
                facts={"decls": 2 + 3 * k, "table_lines": k,
                       "actions": PAR_ACTIONS_PER_COMPONENT * k})
    for _ in range(2):
        add("transform-par", "translate_par",
            text=zerosearch_text(zero_profile_array(rng, 3, None)),
            facts={"decls": 8, "table_lines": 2, "actions": ZEROSEARCH_ACTIONS})

    # in-process CLI on small files; the worker writes `files` into its
    # scratch directory and passes their paths
    shape = Random("frontend-shapes")
    for _ in range(4):
        scale = rng.randint(1, 9)  # scaling keeps the subtraction sequence
        x, y = scale * shape.randint(1, 40), scale * shape.randint(1, 40)
        src = euclid_text(x, y)
        add("cli-run", "cli", files={"e.gcl": src}, argv=["run", "e.gcl"],
            facts={"rc": 0, "gcd": [x, y]})
        add("cli-run", "cli", files={"e.gcl": src},
            argv=["run", "e.gcl", "--format", "json"],
            facts={"rc": 0, "gcd": [x, y]})
        bx, by = rng.randint(-9, 9), rng.randint(-9, 9)
        add("cli-run", "cli", files={"m.gcl": MAX},
            argv=["run", "m.gcl", "--bind", f"x={bx}", "--bind", f"y={by}"],
            facts={"rc": 0, "tail": f"outcome: terminated :: m={max(bx, by)} "
                                    f"x={bx} y={by}"})
        add("cli-run", "cli", files={"g.gcl": goon_text()},
            argv=["run", "g.gcl", "--mode", "demonic", "--max-depth", "20"],
            facts={"rc": 2})
        add("cli-run", "cli", files={"g.gcl": goon_text()},
            argv=["run", "g.gcl", "--mode", "fair-weak", "--seed",
                  str(rng.randrange(1000))], facts={"rc": 0})
        add("cli-run", "cli", files={"s.csp": sfr_text(shaped_cells(rng, "x0"))},
            argv=["run", "s.csp"], facts={"rc": 0})
        add("cli-transform", "cli", files={"g.gcl": goon_text(rng.randint(1, 9))},
            argv=["transform", "g.gcl", "--kind", "wf"],
            facts={"rc": 0, "var_lines": 4})
        add("cli-transform", "cli",
            files={"s.csp": sfr_text(shaped_cells(rng, "x0x"))},
            argv=["transform", "s.csp", "--kind", "csp"],
            facts={"rc": 0, "var_lines": SFR_DECLS})
        k = shape.randint(2, 4)
        add("cli-transform", "cli", files={"p.par": par_system_text(rng, k)},
            argv=["transform", "p.par", "--kind", "par"],
            facts={"rc": 0, "var_lines": 2 + 3 * k, "table_lines": k})
    for sub, a, b, extra, rc, tail in (
            ("bisim", "P.lts", "Q.lts", [], 1, "false: (p2,q2) differ on c"),
            ("may", "P.lts", "T.lts", [], 0, "true"),
            ("must", "Q.lts", "T.lts", [], 1, "false: stuck at (q2,t2)"),
            ("refines", "P.lts", "Q.lts", ["--depth", "4"], 0, "true"),
            ("refines", "Q.lts", "P.lts", ["--depth", "4"], 1,
             "false: failure (<i>, {c}) not allowed")):
        add("cli-lts", "cli", corpus_files=[a, b],
            argv=["lts", sub, a, b] + extra, facts={"rc": rc, "tail": tail})

    for _ in range(3):
        for kind, text, exc in _bad_texts(rng):
            add("reject", "reject", kind=kind, text=text, facts={"raised": exc})
    for kind, text, exc in _bad_texts(rng)[:4]:
        add("cli-reject", "cli", files={"bad.gcl": text}, argv=["run", "bad.gcl"],
            facts={"rc": 64, "stderr": "error: "})
    return items


# ---------------------------------------------------------------------------
# lts: process equivalences on small random systems
# ---------------------------------------------------------------------------

LTS_LABELS = ["a", "b", "c"]


def random_lts(rng: Random, n: int, p_visible: float = 0.17,
               p_tau: float = 0.12) -> list[tuple[int, str, int]]:
    """Transitions over states 0..n-1 (0 initial); tau edges only go from a
    lower to a higher index, so the system is divergence-free."""
    trans = []
    for i in range(n):
        for lab in LTS_LABELS:
            for t in range(n):
                if rng.random() < p_visible:
                    trans.append((i, lab, t))
        for t in range(i + 1, n):
            if rng.random() < p_tau:
                trans.append((i, "tau", t))
    return trans


def bisimilar_copy(rng: Random, n: int, trans: list[tuple]) -> list[tuple]:
    """Split one state into two copies (the new state n) with the same
    outgoing moves, sharing its incoming moves between them: the result is
    bisimilar to the input by construction."""
    split = rng.randrange(n)
    out = []
    for (s, a, t) in trans:
        dst = n if t == split and rng.random() < 0.5 else t
        out.append((s, a, dst))
        if s == split:
            out.append((n, a, dst))
    return out


def mutate(rng: Random, n: int, trans: list[tuple]) -> list[tuple]:
    """Add or drop one visible move."""
    trans = list(trans)
    if trans and rng.random() < 0.5:
        trans.pop(rng.randrange(len(trans)))
    else:
        trans.append((rng.randrange(n), rng.choice(LTS_LABELS), rng.randrange(n)))
    return trans


def random_tree_test(rng: Random, depth: int) -> tuple[int, list[tuple], list[int]]:
    trans: list[tuple] = []
    success: list[int] = []
    count = [0]

    def build(d):
        me = count[0]
        count[0] += 1
        if rng.random() < 0.25:
            success.append(me)
        if d > 0:
            for lab in LTS_LABELS:
                if rng.random() < 0.5:
                    trans.append((me, lab, build(d - 1)))
        return me

    build(depth)
    if not success:
        success.append(count[0] - 1)
    return count[0], trans, success


def render_lts(rng: Random, prefix: str, n: int, trans: list[tuple],
               labels: dict, success=()) -> str:
    """The .lts text of a system over states 0..n-1 (0 initial), under a
    seeded renaming of states, the given renaming of labels and a seeded
    order of the transition lines."""
    order = list(range(n))
    rng.shuffle(order)
    name = [f"{prefix}{k}" for k in order]
    moves = [f"trans {name[s]} {labels.get(a, a)} {name[t]}" for (s, a, t) in trans]
    rng.shuffle(moves)
    lines = ["alphabet " + " ".join(LTS_LABELS),
             "states " + " ".join(f"{prefix}{k}" for k in range(n)),
             f"init {name[0]}"] + moves
    lines += [f"success {s}" for s in sorted(name[s] for s in success)]
    return "\n".join(lines) + "\n"


def lts_items(seed: int) -> list[Item]:
    """System shapes come from a fixed stream; the seed renames states and
    labels and reorders the transition lines, which changes every witness
    and counterexample but not the amount of work."""
    shape, rng = Random("lts-shapes"), Random(f"lts/{seed}")
    items: list[Item] = []

    def add(family, op, **args):
        items.append(Item(f"{family}-{len(items)}", family, op, args))

    def labels():
        perm = LTS_LABELS[:]
        rng.shuffle(perm)
        return dict(zip(LTS_LABELS, perm))

    def system():
        n = shape.randint(5, 7)
        return n, random_lts(shape, n)

    for k in range(120):
        n, pt = system()
        qt = bisimilar_copy(shape, n, pt)
        if k % 2:
            qt = mutate(shape, n + 1, qt)
        lab = labels()
        add("bisim", "bisim", p=render_lts(rng, "p", n, pt, lab),
            q=render_lts(rng, "q", n + 1, qt, lab))
    for _ in range(120):
        n, pt = system()
        tn, tt, succ = random_tree_test(shape, 3)
        lab = labels()
        add("testing", "testing", p=render_lts(rng, "p", n, pt, lab),
            t=render_lts(rng, "n", tn, tt, lab, succ))
    for k in range(60):
        n, pt = system()
        if k % 2:
            qn, qt = n + 1, mutate(shape, n + 1, bisimilar_copy(shape, n, pt))
        else:
            qn, qt = system()
        lab = labels()
        add("refines", "refines", p=render_lts(rng, "p", n, pt, lab),
            q=render_lts(rng, "q", qn, qt, lab), depth=5 if k % 3 else 6)
    for _ in range(20):
        n, pt = system()
        qn, qt = system()
        lab = labels()
        add("divergent", "divergent",
            p=render_lts(rng, "p", n, pt + [(0, "tau", 1), (1, "tau", 0)], lab),
            q=render_lts(rng, "q", qn, qt, lab), depth=4)
    return items


WORKLOADS = {
    "explore": explore_items,
    "sweep": sweep_items,
    "frontend": frontend_items,
    "lts": lts_items,
}
