"""gclab benchmark: one command per workload and seed.

    python3 bench/run.py --workload explore --seed 1 --seconds 30 --trace 0

Generates the workload's items from the seed, runs them in a worker
process (worker.py) for the given number of seconds, with the set-up
time of a fresh `import gclab` sampled between passes, checks every
verdict against the independent oracles (oracles.py) and prints the
metrics, one per line with unit and sample count, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
second worker runs one pass under the tracer (tracer.py) and the metrics
are the per-layer ones. Exits 1 when any verdict is wrong, 2 when the
checkout holds no gclab sources. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import gen
import oracles
from reference import REFERENCE_S
from tracer import PER_LAYER

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
WORKER_TIMEOUT_S = 150


def spans_path(workload: str, seed: int) -> str:
    return os.path.join(WORK, f"trace-{workload}-{seed}.spans")


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = os.path.join(WORK, f"result-{workload}-{seed}-{trace}.json")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--out", out, "--spans", spans_path(workload, seed)]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out)
    return result


def check_verdicts(items, first, differing, runs: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over `runs` runs of every item: `first`
    holds one verdict per item, `differing` the (item index, verdict) pairs
    of the other runs that disagreed with it."""
    def corpus(name):
        with open(os.path.join(ROOT, "corpus", name), encoding="utf-8") as fh:
            return fh.read()

    checked: dict[str, str | None] = {}
    reasons: list[str] = []

    def wrong(k, verdict) -> bool:
        key = f"{k} {json.dumps(verdict, sort_keys=True)}"
        if key not in checked:
            checked[key] = oracles.check(items[k], verdict, corpus)
            if checked[key] is not None:
                reasons.append(f"{items[k].id}: {checked[key]}")
        return checked[key] is not None

    others = [0] * len(items)
    failed = 0
    for k, verdict in differing:
        others[k] += 1
        failed += wrong(k, verdict)
    for k, verdict in enumerate(first):
        if wrong(k, verdict):
            failed += runs - others[k]
    return len(items) * runs, failed, reasons


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gclab", "__init__.py")):
        print(f"error: no gclab sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    items = gen.WORKLOADS[args.workload](args.seed)
    digest = gen.digest(items)

    budget = args.seconds / 2 if args.trace else args.seconds
    res = run_worker(args.workload, args.seed, budget, 0)
    first, differing, runs = res["verdicts"], res["differing"], len(res["walls"])
    traced = run_worker(args.workload, args.seed, budget, 1) if args.trace else None
    if traced is not None:
        runs += 1
        differing += [(k, v) for k, v in enumerate(traced["verdicts"]) if v != first[k]]
    for r in filter(None, (res, traced)):
        if r["digest"] != digest:
            print(f"error: worker items differ (digest {r['digest']} != {digest})",
                  file=sys.stderr)
            return 1
    attempted, failed, reasons = check_verdicts(items, first, differing, runs)

    # Every time is scaled to the speed at which the reference workload
    # takes REFERENCE_S, by the reference samples taken around it: the
    # machine's slow and fast stretches (README, Noise) move both alike.
    # Every pass repeats identical work from freshly prepared objects, so
    # an item's time to verdict is the median of its scaled runs, one per
    # pass, and setup_s the median of the scaled import times.
    walls, setup, ref = res["walls"], res["setup"], res["reference"]
    setup_s = statistics.median(s / r for r, s in setup) * REFERENCE_S
    raw_ms = [statistics.median(item_runs) * 1000 for item_runs in zip(*res["times"])]
    item_ms = [statistics.median(t / r for t, r in zip(item_runs, item_refs))
               * REFERENCE_S * 1000
               for item_runs, item_refs in zip(zip(*res["times"]), zip(*res["item_ref"]))]
    wall_s = sum(item_ms) / 1000
    p90 = statistics.quantiles(item_ms, n=10)[8]
    print(f"workload {args.workload} seed {args.seed}: {len(items)} items "
          f"(digest {digest}), {len(walls)} timed passes: fastest {min(walls):.6g} s, "
          f"median {statistics.median(walls):.6g} s")
    print(f"reference {statistics.median(ref):.6g} s (median of {len(ref)} samples; "
          f"times below are at the speed where it takes {REFERENCE_S} s); unscaled: "
          f"wall_s {sum(raw_ms) / 1000:.6g} s, "
          f"setup_s {statistics.median(s for _, s in setup):.6g} s")
    e2e = {
        "setup_s": (setup_s, "s", f"median of {len(setup)} fresh interpreters"),
        "wall_s": (wall_s, "s", f"{len(items)} items, each the median of "
                                f"{len(walls)} runs"),
        "verdict_p50_ms": (statistics.median(item_ms), "ms",
                           f"{len(items)} items, median of {len(walls)} runs each"),
        "verdict_p90_ms": (p90, "ms",
                           f"{len(items)} items, {sum(v > p90 for v in item_ms)} beyond"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "worker process"),
    }
    for name, (value, unit, note) in e2e.items():
        print(f"{name} {value:.6g} {unit} ({note})")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} item runs "
          f"wrong or raised)")
    for reason in reasons:
        print(f"FAILED {reason}")

    if traced is None:
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in e2e.items()}
    else:
        layer = dict(traced["per_layer"])
        layer["trace.overhead_s"] = traced["walls"][0] - sum(raw_ms) / 1000
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": layer[name], "unit": units[name]}
                   for name, _, _ in PER_LAYER}
        print(f"traced pass {traced['walls'][0]:.6g} s, {traced['spans']} spans "
              f"written to {os.path.relpath(spans_path(args.workload, args.seed), ROOT)}")
        if traced["missing"]:
            print("untraced (not found in gclab): " + " ".join(traced["missing"]))
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        for fam, row in sorted(traced["families"].items()):
            cells = " ".join(f"{k}={v:.4f}" for k, v in sorted(row.items()))
            print(f"family {fam}: {cells}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
