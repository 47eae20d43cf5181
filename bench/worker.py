"""Benchmark worker: the process that runs one workload against gclab.

Started by run.py, one process per measurement. It regenerates the items
from the seed, imports gclab and runs one untimed warm-up item. Every
pass then runs in a child forked from that state: the child prepares
every item afresh (untimed: parsing, transforms, translations, CLI input
files) and times each item once. So each timed run starts from program
objects that are new to gclab, in a process whose caches and collector
hold what they held after the warm-up: any once-per-program cost is paid
in every pass, and no pass inherits what an earlier pass left behind.

Untraced, passes repeat until the time budget is spent. A server
process, forked before gclab was imported, times the reference workload
(reference.py) at the start and end of every pass and after every
SEGMENT_S of item time in it; run.py uses those samples to scale every
timing to one machine speed. Between passes a fresh interpreter times
`import gclab` (the set-up samples). The worker and everything it starts
run on one CPU, so the reference runs on the CPU the items ran on.
Traced, one pass runs under the tracer. The worker writes a JSON result
file; run.py checks the verdicts and prints the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import gen
import reference

MIN_SETUP_SPAWNS = 11
SEGMENT_S = 0.3  # item time between two reference samples within a pass
IMPORT_TIMER = ("import time; t0 = time.perf_counter(); import gclab; "
                "print(time.perf_counter() - t0)")


def _import_gclab(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import gclab
    if not os.path.abspath(gclab.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"gclab imported from {gclab.__file__}, not from {src}")
    return gclab


def import_seconds(root: str) -> float:
    """Time of `import gclab` in a fresh interpreter. The interpreter's
    own start-up is not gclab's and is left out."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=root, env=env,
                         check=True, capture_output=True, text=True).stdout
    return float(out)


def setup_sample(root: str, server: reference.Server) -> tuple[float, float]:
    """(reference time, import time), taken one right after the other."""
    return server.time(), import_seconds(root)


def forked(fn):
    """fn() run in a child forked from this process; returns its JSON-able
    result after the child has ended."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 1
        try:
            data = json.dumps(fn()).encode()
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"forked pass failed (status {status})")
    return json.loads(data)


def prepared(items, workdir: str, corpus_dir: str):
    """The timed callables of all items, prepared afresh."""
    import execute
    env = execute.Env(workdir, corpus_dir)
    return [execute.prepare(it, env) for it in items]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def one_pass(items, workdir: str, corpus_dir: str,
             server: reference.Server | None = None) -> dict:
    """Prepares the items (untimed) and runs each once: verdicts, item
    times and the pass wall (their sum), in seconds, and the pass's peak
    memory. Given a reference server, it also samples the reference at the
    start, after every SEGMENT_S of item time and at the end, and gives
    each item the mean of the two samples around its segment."""
    runs = prepared(items, workdir, corpus_dir)
    clock = time.perf_counter
    verdicts, times, segment = [], [], []
    ref = [server.time()] if server else []
    since = 0.0
    for run in runs:
        t0 = clock()
        verdicts.append(run())
        times.append(clock() - t0)
        segment.append(len(ref) - 1)
        since += times[-1]
        if server and since >= SEGMENT_S:
            ref.append(server.time())
            since = 0.0
    if server and since > 0:
        ref.append(server.time())
    res = {"verdicts": verdicts, "times": times, "wall": sum(times), "rss": peak_rss_mb()}
    if server:
        res["reference"] = ref
        res["item_ref"] = [(ref[s] + ref[s + 1]) / 2 for s in segment]
    return res


def timed_passes(items, workdir: str, corpus_dir: str, root: str, seconds: float,
                 server: reference.Server):
    """Forked passes, with reference samples, until another pass would
    overrun the budget (at least one). MIN_SETUP_SPAWNS set-up samples are
    taken between passes, spread evenly over the budget, and any still
    missing after the last pass. Returns the first pass's verdicts, the
    (item, verdict) pairs of later passes whose verdict differed, and a
    dict of the pass walls, the item times and item reference times of
    every pass, the set-up samples, all reference samples of the passes,
    in seconds, and the passes' peak memory in MB."""
    clock = time.perf_counter
    first, differing, costs = None, [], []
    walls, times, item_ref, setup, ref, rss = [], [], [], [], [], []
    begin = clock()
    while True:
        t0 = clock()
        res = forked(lambda: one_pass(items, workdir, corpus_dir, server))
        if len(setup) < MIN_SETUP_SPAWNS * (clock() - begin) / seconds:
            setup.append(setup_sample(root, server))
        costs.append(clock() - t0)
        walls.append(res["wall"])
        times.append(res["times"])
        item_ref.append(res["item_ref"])
        ref += res["reference"]
        rss.append(res["rss"])
        if first is None:
            first = res["verdicts"]
        else:
            differing += [(k, v) for k, v in enumerate(res["verdicts"]) if v != first[k]]
        if clock() - begin + statistics.median(costs) > seconds:
            break
    while len(setup) < MIN_SETUP_SPAWNS:
        setup.append(setup_sample(root, server))
    return first, differing, {"walls": walls, "times": times, "item_ref": item_ref,
                              "setup": setup, "reference": ref, "pass_rss": rss}


def traced_pass(items, workdir: str, corpus_dir: str, spans: str) -> dict:
    import tracer
    runs = prepared(items, workdir, corpus_dir)
    tr = tracer.Tracer()
    with tr.installed():
        t0 = time.perf_counter()
        verdicts = [tr.run_item(k, run) for k, run in enumerate(runs)]
        wall = time.perf_counter() - t0
    rss = peak_rss_mb()
    families = [it.family for it in items]
    summary = tracer.summarize(tr.spans(), families)
    tr.write(spans, families)
    return {"verdicts": verdicts, "walls": [wall], "per_layer": summary["metrics"],
            "families": summary["families"], "spans": summary["span_count"],
            "missing": tr.missing, "pass_rss": [rss]}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    items = gen.WORKLOADS[args.workload](args.seed)
    corpus_dir = os.path.join(args.root, "corpus")
    workdir = args.out + ".files"
    os.makedirs(workdir, exist_ok=True)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    server = None if args.trace else reference.Server()
    try:
        _import_gclab(args.root)
        import_seconds(args.root)  # writes the bytecode cache; not a sample
        prepared(items[:1], workdir, corpus_dir)[0]()  # warm-up
        result = {"digest": gen.digest(items)}
        if args.trace:
            result.update(forked(lambda: traced_pass(items, workdir, corpus_dir,
                                                     args.spans)))
        else:
            first, differing, samples = timed_passes(
                items, workdir, corpus_dir, args.root, args.seconds, server)
            result.update(verdicts=first, differing=differing, **samples)
        # The worker and its passes; not the reference server or the
        # interpreters that time the import.
        result["peak_rss_mb"] = max([peak_rss_mb()] + result.pop("pass_rss"))
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
