"""Batch command-line front end.

    gclab run FILE [--mode ...] [--bind name=value ...] [limits]
    gclab transform FILE --kind wf|csp|par [-o OUT]
    gclab lts bisim|may|must|refines FILES [--depth N]

Exit codes for `run`: 0 all outcomes terminated, 1 some failure,
2 divergence present, 3 only bound exhaustion; 64 usage/parse error.
Every command exits 64 with one `error:` line on a usage error (a bad
option value, a missing argument). `lts` exits 0 (holds) or 1 (does not
hold); 65 flags a divergence error from the failures model. Any command
exits 70 with a one-line `error: internal error: ...` when gclab itself
fails unexpectedly, which is a bug in gclab. Reports are byte-identical
for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import csp as csp_mod
from . import equiv, fairness, par
from .engine import (
    BoundExceeded, Divergent, ExplorationReport, Failed, Limits, Outcome,
    explore_demonic, report_json, report_text, run_erratic, solve_angelic,
)
from .errors import SourceError
from .parser import parse_csp, parse_gcl, parse_par
from .printer import render
from .state import initial_state

USAGE_ERROR = 64
DATA_ERROR = 65
INTERNAL_ERROR = 70  # EX_SOFTWARE

MODES = ("demonic", "erratic", "angelic", "fair-weak", "fair-strong")


def _parse_binding(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"binding {text!r} is not name=value")
    name, raw = text.split("=", 1)
    raw = raw.strip()
    if raw in ("true", "false"):
        return name.strip(), raw == "true"
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise argparse.ArgumentTypeError(f"unterminated list in {text!r}")
        cells = [c.strip() for c in raw[1:-1].split(",") if c.strip()]
        try:
            return name.strip(), tuple(int(c) for c in cells)
        except ValueError:
            raise argparse.ArgumentTypeError(f"non-integer cell in {text!r}")
    try:
        return name.strip(), int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse value in {text!r}")


class _ArgumentParser(argparse.ArgumentParser):
    """Turns a usage error into a ValueError, which `main` reports as one
    `error:` line and exit 64, in place of argparse's usage block and
    exit 2 (the code `run` gives to divergence). Subparsers inherit it."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(prog="gclab")
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a .gcl/.csp/.par file")
    run.add_argument("file")
    run.add_argument("--mode", choices=MODES, default="demonic")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--fuel", type=int, default=100_000)
    run.add_argument("--max-configs", type=int, default=100_000)
    run.add_argument("--max-depth", type=int, default=500)
    run.add_argument("--choice-bound", type=int, default=8)
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--bind", action="append", type=_parse_binding,
                     default=[], metavar="NAME=VALUE",
                     help="override a declared variable's initial value")

    tr = sub.add_parser("transform", help="apply a source transformation")
    tr.add_argument("file")
    tr.add_argument("--kind", choices=("wf", "csp", "par"), required=True)
    tr.add_argument("-o", "--output", default=None,
                    help="output .gcl path (default: stdout)")

    lts = sub.add_parser("lts", help="compare labelled transition systems")
    lts.add_argument("subcommand", choices=("bisim", "may", "must", "refines"))
    lts.add_argument("files", nargs=2, metavar="FILE")
    lts.add_argument("--depth", type=int, default=None,
                     help="trace depth for refines (default: state counts)")
    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "transform":
            return _cmd_transform(args)
        return _cmd_lts(args)
    except (SourceError, fairness.FairnessError, fairness.FixpointError,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as e:  # never a traceback, never an outcome code
        detail = " ".join(str(e).split())
        print(f"error: internal error: {type(e).__name__}: {detail}",
              file=sys.stderr)
        return INTERNAL_ERROR


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _exit_code(outcomes) -> int:
    kinds = {type(o) for o in outcomes}
    if Failed in kinds:
        return 1
    if Divergent in kinds:
        return 2
    if kinds == {BoundExceeded}:
        return 3
    return 0


def _print_report(fmt: str, outcomes, text_header: str, json_header: dict) -> None:
    if fmt == "json":
        print(json.dumps(report_json(json_header, outcomes), indent=2, sort_keys=True))
    else:
        sys.stdout.write(report_text([text_header], outcomes))


def _single_report(outcome: Outcome, mode: str, seed, fmt: str) -> int:
    _print_report(fmt, [outcome], f"mode {mode} seed {seed}",
                  {"mode": mode, "seed": seed})
    return _exit_code([outcome])


def _cmd_run(args) -> int:
    lim = Limits(args.max_configs, args.max_depth, args.choice_bound)
    binds = dict(args.bind)
    if args.mode in ("erratic", "fair-weak", "fair-strong") and args.seed is None:
        print("error: --seed is required for seeded modes", file=sys.stderr)
        return USAGE_ERROR
    path = args.file

    if path.endswith(".csp"):
        if args.mode != "demonic":
            print("error: .csp files run under --mode demonic only",
                  file=sys.stderr)
            return USAGE_ERROR
        system = parse_csp(_read(path))
        s0 = initial_state(system.all_decls(), binds or None)
        rep = csp_mod.run_csp(system, s0, lim)
        return _emit_report(rep, args.format, args.mode)

    if path.endswith(".par"):
        if args.mode != "demonic":
            print("error: .par files run under --mode demonic only",
                  file=sys.stderr)
            return USAGE_ERROR
        system = parse_par(_read(path))
        s0 = initial_state(system.decls, binds or None)
        rep = par.run_par_direct(system, s0, lim)
        return _emit_report(rep, args.format, args.mode)

    program = parse_gcl(_read(path))
    s0 = initial_state(program.decls, binds or None)
    if args.mode == "demonic":
        return _emit_report(explore_demonic(program, s0, lim),
                            args.format, args.mode)
    if args.mode == "erratic":
        out = run_erratic(program, s0, seed=args.seed, fuel=args.fuel)
        return _single_report(out, args.mode, args.seed, args.format)
    if args.mode == "angelic":
        cut: list = []
        results = solve_angelic(program, s0, lim, cut)
        _print_report(args.format, results + cut,
                      f"mode angelic successes {len(results)}", {"mode": "angelic"})
        return 0 if results else 1
    policy = "weak" if args.mode == "fair-weak" else "strong"
    out = fairness.run_fair(program, s0, policy, seed=args.seed, fuel=args.fuel)
    return _single_report(out, args.mode, args.seed, args.format)


def _emit_report(rep: ExplorationReport, fmt: str, mode: str) -> int:
    if fmt == "json":
        print(json.dumps(rep.to_json_dict() | {"mode": mode}, indent=2, sort_keys=True))
    else:
        sys.stdout.write(rep.to_text())
    return _exit_code(rep.outcomes)


def _cmd_transform(args) -> int:
    path = args.file
    if args.kind == "wf":
        if not path.endswith(".gcl"):
            print("error: --kind wf expects a .gcl file", file=sys.stderr)
            return USAGE_ERROR
        out_text = render(fairness.transform_wf(parse_gcl(_read(path))))
    elif args.kind == "csp":
        if not path.endswith(".csp"):
            print("error: --kind csp expects a .csp file", file=sys.stderr)
            return USAGE_ERROR
        out_text = render(csp_mod.translate_csp(parse_csp(_read(path))))
    else:
        if not path.endswith(".par"):
            print("error: --kind par expects a .par file", file=sys.stderr)
            return USAGE_ERROR
        system = parse_par(_read(path))
        out_text = par.label_table(system) + render(par.translate_par(system))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out_text)
    else:
        sys.stdout.write(out_text)
    return 0


def _cmd_lts(args) -> int:
    a = equiv.parse_lts(_read(args.files[0]))
    b = equiv.parse_lts(_read(args.files[1]))
    sub = args.subcommand
    if sub == "bisim":
        w = equiv.bisimilar_witness(a, b)
        if w is None:
            print("true")
            return 0
        sp, sq, lab = w
        print(f"false: ({sp},{sq}) differ on {lab}")
        return 1
    if sub == "may":
        ok = equiv.may_pass(a, b)
        print("true" if ok else "false")
        return 0 if ok else 1
    if sub == "must":
        w = equiv.must_witness(a, b)
        if w is None:
            print("true")
            return 0
        kind, (sp, st) = w
        what = "stuck at" if kind == "stuck" else "success-avoiding cycle at"
        print(f"false: {what} ({sp},{st})")
        return 1
    depth = args.depth if args.depth is not None else (len(a.states) + len(b.states))
    try:
        cx = equiv.refinement_counterexample(a, b, depth)
    except equiv.DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return DATA_ERROR
    if cx is None:
        print("true")
        return 0
    print(f"false: failure {cx.describe()} not allowed")
    return 1


if __name__ == "__main__":
    sys.exit(main())
