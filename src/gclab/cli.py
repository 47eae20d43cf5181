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

The argument parser is built once per process, on the first `main` call
(not at import), and serves every later in-process call.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import csp as csp_mod
from . import equiv, fairness, par
from .engine import (
    FUEL, BoundExceeded, Divergent, ExplorationReport, Failed, Limits,
    explore_demonic, report_json, report_text, run_erratic, solve_angelic,
)
from .errors import ParseError, SourceError
from .parser import parse_csp, parse_gcl, parse_par, parse_value
from .printer import render
from .state import initial_state

USAGE_ERROR = 64
DATA_ERROR = 65
INTERNAL_ERROR = 70  # EX_SOFTWARE

MODES = ("demonic", "erratic", "angelic", "fair-weak", "fair-strong")


def _parse_binding(text: str):
    """`name=value`, the value written as a declaration initializer."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"binding {text!r} is not name=value")
    name, raw = text.split("=", 1)
    try:
        return name.strip(), parse_value(raw)
    except ParseError as e:
        raise argparse.ArgumentTypeError(f"value of {text!r}: {e}") from None


class _ArgumentParser(argparse.ArgumentParser):
    """Turns a usage error into a ValueError, which `main` reports as one
    `error:` line and exit 64, in place of argparse's usage block and
    exit 2 (the code `run` gives to divergence). Subparsers inherit it."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(prog="gclab")
    sub = top.add_subparsers(dest="command", required=True)
    lim = Limits()

    run = sub.add_parser("run", help="execute a .gcl/.csp/.par file")
    run.add_argument("file")
    run.add_argument("--mode", choices=MODES, default="demonic")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--fuel", type=int, default=FUEL)
    run.add_argument("--max-configs", type=int, default=lim.max_configs)
    run.add_argument("--max-depth", type=int, default=lim.max_depth)
    run.add_argument("--choice-bound", type=int, default=lim.choice_bound)
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
                     help="check refines only up to this trace depth "
                     "(default: a conclusive check)")
    return top


# the argument parser, built on the first `main` call of the process; each
# `parse_args` fills a new namespace from it, so no call sees another's
_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    try:
        if _PARSER is None:
            _PARSER = build_parser()
        args = _PARSER.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "transform":
            return _cmd_transform(args)
        return _cmd_lts(args)
    except (SourceError, fairness.FairnessError, ValueError, OSError,
            equiv.DivergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return DATA_ERROR if isinstance(e, equiv.DivergenceError) else USAGE_ERROR
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


def _print_report(fmt: str, outcomes, text_header: list[str], json_header: dict) -> None:
    """Every run mode's schema-1 report, in text or JSON."""
    if fmt == "json":
        print(json.dumps(report_json(json_header, outcomes), indent=2, sort_keys=True))
    else:
        sys.stdout.write(report_text(text_header, outcomes))


def _emit_report(rep: ExplorationReport, fmt: str, mode: str) -> int:
    lines, fields = rep.header()
    _print_report(fmt, rep.outcomes, lines, fields | {"mode": mode})
    return _exit_code(rep.outcomes)


def _cmd_run(args) -> int:
    lim = Limits(args.max_configs, args.max_depth, args.choice_bound)
    binds = dict(args.bind) or None
    if args.mode in ("erratic", "fair-weak", "fair-strong") and args.seed is None:
        print("error: --seed is required for seeded modes", file=sys.stderr)
        return USAGE_ERROR
    path = args.file
    # suffix -> (parser, direct semantics), built per call so that it reads
    # this module's current bindings
    systems = {".csp": (parse_csp, csp_mod.run_csp), ".par": (parse_par, par.run_par_direct)}
    suffix = path[path.rfind("."):]
    if suffix in systems:
        if args.mode != "demonic":
            print(f"error: {suffix} files run under --mode demonic only",
                  file=sys.stderr)
            return USAGE_ERROR
        parse, run_direct = systems[suffix]
        system = parse(_read(path))
        rep = run_direct(system, initial_state(system.decls, binds), lim)
        return _emit_report(rep, args.format, args.mode)

    program = parse_gcl(_read(path))
    s0 = initial_state(program.decls, binds)
    if args.mode == "demonic":
        return _emit_report(explore_demonic(program, s0, lim),
                            args.format, args.mode)
    if args.mode == "angelic":
        cut: list = []
        results = solve_angelic(program, s0, lim, cut)
        _print_report(args.format, results + cut,
                      [f"mode angelic successes {len(results)}"], {"mode": "angelic"})
        return 0 if results else 1
    if args.mode == "erratic":
        out = run_erratic(program, s0, seed=args.seed, fuel=args.fuel)
    else:
        policy = "weak" if args.mode == "fair-weak" else "strong"
        out = fairness.run_fair(program, s0, policy, seed=args.seed, fuel=args.fuel)
    _print_report(args.format, [out], [f"mode {args.mode} seed {args.seed}"],
                  {"mode": args.mode, "seed": args.seed})
    return _exit_code([out])


def _translate_par(text: str) -> str:
    system = parse_par(text)
    return par.label_table(system) + render(par.translate_par(system))


def _cmd_transform(args) -> int:
    # kind -> (the suffix its input file needs, its transformation of the text)
    suffix, transform = {
        "wf": (".gcl", lambda text: render(fairness.transform_wf(parse_gcl(text)))),
        "csp": (".csp", lambda text: render(csp_mod.translate_csp(parse_csp(text)))),
        "par": (".par", _translate_par),
    }[args.kind]
    if not args.file.endswith(suffix):
        print(f"error: --kind {args.kind} expects a {suffix} file", file=sys.stderr)
        return USAGE_ERROR
    out_text = transform(_read(args.file))
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
    # why the relation does not hold: None when it holds, "" for no witness
    if sub == "bisim":
        w = equiv.bisimilar_witness(a, b)
        why = w and "({},{}) differ on {}".format(*w)
    elif sub == "may":
        why = None if equiv.may_pass(a, b) else ""
    elif sub == "must":
        w = equiv.must_witness(a, b)
        why = w and "{} at ({},{})".format(
            "stuck" if w[0] == "stuck" else "success-avoiding cycle", *w[1])
    else:
        cx = equiv.refinement_counterexample(a, b, args.depth)
        why = cx and f"failure {cx.describe()} not allowed"
    if why is None:
        print("true")
        return 0
    print(f"false: {why}" if why else "false")
    return 1


if __name__ == "__main__":
    sys.exit(main())
