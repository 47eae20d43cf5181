import contextlib
import decimal
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from gclab.cli import main
from gclab.fairness import transform_wf
from gclab.parser import parse_gcl
from gclab.syntax import BinOp, Var

import printer_reference
from conftest import CORPUS


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_euclid_demonic(capsys):
    code, out, _ = run_cli(capsys, "run", CORPUS / "euclid.gcl",
                           "--mode", "demonic", "--bind", "x=12", "--bind", "y=18")
    assert code == 0
    assert "terminated :: x=6 y=6" in out


def test_run_goon_demonic_exit_two(capsys):
    code, out, _ = run_cli(capsys, "run", CORPUS / "goon.gcl",
                           "--mode", "demonic", "--max-depth", "20")
    assert code == 2
    assert "divergent" in out


def test_run_goon_fair_weak_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "run", CORPUS / "goon.gcl",
                           "--mode", "fair-weak", "--seed", "7")
    assert code == 0
    assert "terminated" in out


def test_run_fail_program_exit_one(tmp_path, capsys):
    f = tmp_path / "boom.gcl"
    f.write_text("var x: int; fail\n")
    code, out, _ = run_cli(capsys, "run", f)
    assert code == 1
    assert "failed[explicit-fail]" in out


def test_run_bound_only_exit_three(tmp_path, capsys):
    f = tmp_path / "spin.gcl"
    f.write_text("var x: int;\ndo x >= 0 -> x := x + 1 od\n")
    code, out, _ = run_cli(capsys, "run", f, "--max-depth", "10")
    assert code == 3
    assert "bound-exceeded" in out


def test_run_parse_error_exit_64(tmp_path, capsys):
    f = tmp_path / "bad.gcl"
    f.write_text("var x: int; if x > 0 -> skip if\n")
    code, _, err = run_cli(capsys, "run", f)
    assert code == 64
    assert "line" in err


@pytest.mark.parametrize("text, error", [
    ("var x: int;\nx := int\n", "line 2, col 6: expected an expression, found 'int'"),
    ("var x: 5;\nskip\n", "line 1, col 8: expected 'int' or 'bool', found '5'"),
    ("var a: int[int..3];\nskip\n", "line 1, col 12: expected an integer, found 'int'"),
])
def test_keyword_int_is_not_an_integer_literal(tmp_path, capsys, text, error):
    f = tmp_path / "bad.gcl"
    f.write_text(text)
    assert run_cli(capsys, "run", f) == (64, "", f"error: {error}\n")


def test_run_rejects_an_array_past_the_cell_cap(tmp_path, capsys):
    f = tmp_path / "big.gcl"
    f.write_text("var a: int[0..1048576];\na[0] := 1\n")
    assert run_cli(capsys, "run", f) == (64, "", (
        "error: line 1, col 5: array 'a' has 1048577 cells, "
        "more than the 1048576 allowed\n"))


# leaves 2**16384 in x: 4,933 digits, more than `str()` converts by default
SQUARING = ("var a: int[0..1]; var x: int = 2; var n: int = 14;\n"
            "do n > 0 -> x, n := x * x, n - 1 od")
BIG = str(decimal.Context(prec=5000).power(2, 16384))


def test_run_reports_integers_past_the_str_digit_limit(tmp_path, capsys):
    f = tmp_path / "square.gcl"
    f.write_text(SQUARING + "\n")
    assert len(BIG) == 4933
    code, out, err = run_cli(capsys, "run", f)
    assert (code, err) == (0, "")
    assert out.endswith(f"\noutcome: terminated :: a=[0,0] n=0 x={BIG}\n")
    code, out, err = run_cli(capsys, "run", f, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["outcomes"] == [
        {"kind": "terminated", "state": f"a=[0,0] n=0 x={BIG}"}]


@pytest.mark.parametrize("stmt, detail", [
    ("a[x] := 1", f"index {BIG} outside 'a[0..1]'"),
    ("a[0] := a[x]", f"index {BIG} outside 'a[0..1]'"),
    ("x := choice(-x)", f"choice(-{BIG}) has no value"),
], ids=("write", "read", "choice"))
def test_failure_details_show_integers_past_the_str_digit_limit(
        tmp_path, capsys, stmt, detail):
    f = tmp_path / "square.gcl"
    f.write_text(f"{SQUARING};\n{stmt}\n")
    code, out, err = run_cli(capsys, "run", f)
    assert (code, err) == (1, "")
    assert f"outcome: failed[eval-error] ({detail}) :: " in out


def test_erratic_choice_failure_matches_demonic(tmp_path, capsys):
    f = tmp_path / "choice.gcl"
    f.write_text("var x: int = 2; var n: int = 14; var c: int;\n"
                 "do n > 0 -> x, n := x * x, n - 1 od;\nc := choice(0 - x)\n")
    failed = f"failed[eval-error] (choice(-{BIG}) has no value) :: c=0 n=0 x={BIG}"
    for mode in (["--mode", "demonic"], ["--mode", "erratic", "--seed", "1"]):
        code, out, err = run_cli(capsys, "run", f, *mode)
        assert (code, err) == (1, "")
        assert out.endswith(f"\noutcome: {failed}\n")
        code, out, err = run_cli(capsys, "run", f, *mode, "--format", "json")
        assert (code, err) == (1, "")
        assert json.loads(out)["outcomes"] == [
            {"kind": "failed", "reason": "eval-error", "state": f"c=0 n=0 x={BIG}",
             "detail": f"choice(-{BIG}) has no value"}]


@pytest.mark.parametrize("mode", ["demonic", "angelic"])
def test_choice_wider_than_max_configs_is_cut(tmp_path, capsys, mode):
    """`x := choice(t)` enumerates at most max-configs values, and the
    report says that bound fired; choice(10) is not cut."""
    f = tmp_path / "choice.gcl"
    terms = [f"outcome: terminated :: c={v}" for v in range(1, 11)]
    if mode == "demonic":
        terms.sort()  # by canonical state
        head = ["limits max-configs=10 max-depth=500 choice-bound=8",
                "counts configs=1 edges=10 paths=10"]
    else:
        head = ["mode angelic successes 10"]
    for t, tail in (("100000", ["outcome: bound-exceeded :: max-configs"]), ("10", [])):
        f.write_text(f"var c: int;\nc := choice({t})\n")
        code, out, err = run_cli(capsys, "run", f, "--mode", mode, "--max-configs", "10")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["schema 1", *head, *terms, *tail]


def test_angelic_report_names_the_choice_bound_cut(tmp_path, capsys):
    """The only successes lie beyond the values `x := ?` enumerates: the
    angelic report says that the choice bound cut its answer."""
    f = tmp_path / "far.gcl"
    f.write_text("var x: int; x := ?; if x > 20 -> skip fi\n")
    code, out, err = run_cli(capsys, "run", f, "--mode", "angelic")
    assert (code, err) == (1, "")
    assert out.splitlines() == ["schema 1", "mode angelic successes 0",
                                "outcome: bound-exceeded :: choice-bound"]


@pytest.mark.parametrize("mode", ["erratic", "fair-weak", "fair-strong"])
@pytest.mark.parametrize("fuel, code, outcome", [
    (5, 0, "terminated :: x=2"), (4, 3, "bound-exceeded :: fuel")])
def test_fuel_counts_every_step_alike_in_seeded_modes(tmp_path, capsys, mode,
                                                      fuel, code, outcome):
    """Two iterations and the loop exit take five steps in every seeded
    mode; a loop with no initialization spends no fuel before it."""
    f = tmp_path / "loop.gcl"
    f.write_text("var x: int;\ndo x < 2 -> x := x + 1 od\n")
    got = run_cli(capsys, "run", f, "--mode", mode, "--seed", "1", "--fuel", fuel)
    assert got == (code, f"schema 1\nmode {mode} seed 1\noutcome: {outcome}\n", "")


@pytest.mark.parametrize("mode", [["demonic"], ["angelic"], ["erratic", "--seed", "1"]],
                         ids=lambda m: m[0])
def test_long_operator_chain_runs(tmp_path, capsys, mode):
    for terms in (450, 900, 3000, 20_000):
        f = tmp_path / f"chain{terms}.gcl"
        f.write_text("var x: int;\nx := " + "+".join(["1"] * terms) + "\n")
        code, out, err = run_cli(capsys, "run", f, "--mode", *mode)
        assert (code, err) == (0, "")
        assert out.endswith(f"\noutcome: terminated :: x={terms}\n")


def test_one_level_loop_with_a_long_guard_runs_fair_and_transforms(tmp_path, capsys):
    f = tmp_path / "guard.gcl"
    atoms = " and ".join(f"x < {k}" for k in range(1, 3002))
    f.write_text(f"var x: int;\ndo {atoms} -> x := x + 1 od\n")
    got = run_cli(capsys, "run", f, "--mode", "fair-weak", "--seed", "1")
    assert got == (0, "schema 1\nmode fair-weak seed 1\noutcome: terminated :: x=1\n", "")
    code, out, err = run_cli(capsys, "transform", f, "--kind", "wf")
    assert (code, err) == (0, "")
    guard = parse_gcl(f.read_text()).body.arms[0].guard
    assert parse_gcl(out).body.stmts[-1].arms[0].guard == BinOp(
        "and", guard, BinOp("=", Var("z1"), Var("z1")))


@pytest.mark.parametrize("levels", [101, 10_000])
def test_run_deep_nesting_exit_64(tmp_path, capsys, levels):
    f = tmp_path / "deep.gcl"
    f.write_text("var x: int;\nx := " + "-(" * levels + "1" + ")" * levels + "\n")
    code, out, err = run_cli(capsys, "run", f)
    assert code == 64 and out == ""
    assert err.startswith("error: line 2, col ") and err.count("\n") == 1


def test_seed_required_for_seeded_modes(capsys):
    code, _, err = run_cli(capsys, "run", CORPUS / "goon.gcl", "--mode", "erratic")
    assert code == 64 and "seed" in err


@pytest.mark.parametrize("mode", ["erratic", "fair-weak"])
def test_run_negative_fuel_exit_64(capsys, mode):
    code, out, err = run_cli(capsys, "run", CORPUS / "euclid.gcl", "--mode", mode,
                             "--seed", "1", "--fuel", "-5")
    assert code == 64 and out == ""
    assert err.startswith("error:") and "fuel" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv,detail", [
    (("run", CORPUS / "euclid.gcl", "--mode", "bogus"), "invalid choice: 'bogus'"),
    ((), "required: command"),
    (("lts", "refines", CORPUS / "Q.lts", CORPUS / "P.lts", "--depth", "x"),
     "invalid int value: 'x'"),
    (("run", CORPUS / "euclid.gcl", "--max-configs", "0"), "error: max-configs must be at least 1"),
    (("run", CORPUS / "euclid.gcl", "--max-depth", "0"), "error: max-depth must be at least 1"),
    (("run", CORPUS / "euclid.gcl", "--choice-bound", "-1"),
     "error: choice-bound must be at least 0"),
], ids=["bad-choice", "missing-subcommand", "non-integer-depth", "no-configs", "no-depth",
        "negative-choice-bound"])
def test_usage_error_exit_64(capsys, argv, detail):
    code, out, err = run_cli(capsys, *argv)
    assert code == 64 and out == ""
    assert err.startswith("error:") and detail in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("--help",), ("run", "--help")])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    assert stop.value.code == 0
    assert "usage: gclab" in capsys.readouterr().out


def test_run_reports_byte_identical(capsys):
    args = ("run", CORPUS / "goon.gcl", "--mode", "demonic", "--max-depth", "15")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_run_json_schema(capsys):
    code, out, _ = run_cli(capsys, "run", CORPUS / "euclid.gcl",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["outcomes"][0]["kind"] == "terminated"


def test_run_binds_arrays(capsys):
    code, out, _ = run_cli(capsys, "run", CORPUS / "maxpoint.gcl",
                           "--bind", "f=[0,3,1,3,2]")
    assert code == 0
    assert "k=1" in out and "k=3" in out


def test_run_angelic_queens_smoke(capsys):
    # full enumeration is acceptance 6; here only the plumbing
    code, out, _ = run_cli(capsys, "run", CORPUS / "queens.gcl",
                           "--mode", "angelic", "--max-depth", "200")
    assert code == 0
    assert out.count("outcome: terminated") == 92


def test_run_csp_direct(capsys):
    code, out, _ = run_cli(capsys, "run", CORPUS / "sfr.csp")
    assert code == 0
    assert "c=[2,3,-1,0]" in out


@pytest.mark.parametrize("name,mode", [
    ("sfr.csp", "erratic"), ("sfr.csp", "angelic"),
    ("zerosearch.par", "erratic"), ("zerosearch.par", "angelic"),
])
def test_run_csp_wrong_mode(capsys, name, mode):
    code, out, err = run_cli(capsys, "run", CORPUS / name, "--mode", mode, "--seed", "1")
    assert code == 64
    assert out == ""
    assert err == f"error: {pathlib.Path(name).suffix} files run under --mode demonic only\n"


def test_run_par_direct(capsys):
    code, out, _ = run_cli(capsys, "run", CORPUS / "zerosearch.par")
    assert code == 0
    assert "k=3" in out


@pytest.mark.parametrize("name, bind, last", [
    ("sfr.csp", "a=[7,0,8,-1]", "a=[7,0,8,-1] b=[7,8,-1,0] c=[7,8,-1,0] i=4 in=3 j=3 out=3 "
                                "x=-1 y=-1"),
    ("zerosearch.par", "ia=[1,1,1,1,1]", "eventop=6 i=1 ia=[1,1,1,1,1] j=2 k=1 oddtop=1"),
])
def test_bind_sets_a_system_start_state(capsys, name, bind, last):
    code, out, err = run_cli(capsys, "run", CORPUS / name, "--bind", bind)
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == f"outcome: terminated :: {last}"


def test_run_awaitfalse_fails(capsys):
    code, out, _ = run_cli(capsys, "run", CORPUS / "awaitfalse.par")
    assert code == 1
    assert "deadlock" in out


def test_run_circwait_fails(capsys):
    code, out, _ = run_cli(capsys, "run", CORPUS / "circwait.csp")
    assert code == 1


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def test_transform_wf_writes_gcl(tmp_path, capsys):
    out_path = tmp_path / "goon_wf.gcl"
    code, _, _ = run_cli(capsys, "transform", CORPUS / "goon.gcl",
                         "--kind", "wf", "-o", out_path)
    assert code == 0
    text = out_path.read_text()
    assert "z1" in text and "z2" in text
    parse_gcl(text)


def test_transform_csp_stdout(capsys):
    code, out, _ = run_cli(capsys, "transform", CORPUS / "sfr.csp", "--kind", "csp")
    assert code == 0
    prog = parse_gcl(out)
    from gclab.csp import translate_csp
    from gclab.parser import parse_csp
    expected = translate_csp(parse_csp((CORPUS / "sfr.csp").read_text()))
    assert prog == expected


def test_transform_par_has_label_table(capsys):
    code, out, _ = run_cli(capsys, "transform", CORPUS / "zerosearch.par",
                           "--kind", "par")
    assert code == 0
    assert out.startswith("# cv1:")
    body = "\n".join(ln for ln in out.splitlines() if not ln.startswith("#"))
    parse_gcl(body)


def test_transform_wrong_language_usage_error(capsys):
    code, _, err = run_cli(capsys, "transform", CORPUS / "euclid.gcl",
                           "--kind", "csp")
    assert code == 64
    assert ".csp" in err


def test_transform_par_without_fresh_control_variables(tmp_path, capsys):
    f = tmp_path / "taken.par"
    f.write_text("var cv1: int; var cvv1: int; var cvvv1: int;\n"
                 "component\n  cv1 := 1\nend\n")
    code, out, err = run_cli(capsys, "transform", f, "--kind", "par")
    assert (code, out, err) == (64, "", "error: no fresh control-variable names available\n")


def test_transform_not_one_level_diagnostic(tmp_path, capsys):
    f = tmp_path / "nested.gcl"
    f.write_text("""
var n: int = 2;
var k: int;
do n > 0 ->
  if k >= 0 -> k := k + 1
  [] k <= 0 -> k := k - 1
  fi;
  n := n - 1
od
""")
    code, _, err = run_cli(capsys, "transform", f, "--kind", "wf")
    assert code == 64
    assert "one-level" in err


def test_transform_idempotent(capsys):
    _, out1, _ = run_cli(capsys, "transform", CORPUS / "goon.gcl", "--kind", "wf")
    _, out2, _ = run_cli(capsys, "transform", CORPUS / "goon.gcl", "--kind", "wf")
    assert out1 == out2


# ---------------------------------------------------------------------------
# lts
# ---------------------------------------------------------------------------

def test_lts_bisim_verdict(capsys):
    code, out, _ = run_cli(capsys, "lts", "bisim", CORPUS / "P.lts", CORPUS / "Q.lts")
    assert code == 1
    assert out.strip() == "false: (p2,q2) differ on c"
    code, out, _ = run_cli(capsys, "lts", "bisim", CORPUS / "P.lts", CORPUS / "P.lts")
    assert code == 0 and out.strip() == "true"


def test_lts_bisim_partitions_once(capsys, monkeypatch):
    from gclab import equiv
    calls = []
    partition = equiv._partition
    monkeypatch.setattr(equiv, "_partition", lambda p, q: calls.append(1) or partition(p, q))
    for other, code in (("Q.lts", 1), ("P.lts", 0)):
        calls.clear()
        assert run_cli(capsys, "lts", "bisim", CORPUS / "P.lts", CORPUS / other)[0] == code
        assert len(calls) == 1


def test_lts_may(capsys):
    code, out, _ = run_cli(capsys, "lts", "may", CORPUS / "Q.lts", CORPUS / "T.lts")
    assert code == 0 and out.strip() == "true"


def test_lts_must(capsys):
    code, out, _ = run_cli(capsys, "lts", "must", CORPUS / "Q.lts", CORPUS / "T.lts")
    assert code == 1
    assert out.strip() == "false: stuck at (q2,t2)"
    code, out, _ = run_cli(capsys, "lts", "must", CORPUS / "P.lts", CORPUS / "T.lts")
    assert code == 0


def test_lts_refines(capsys):
    code, out, _ = run_cli(capsys, "lts", "refines", CORPUS / "P.lts",
                           CORPUS / "Q.lts", "--depth", "4")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "lts", "refines", CORPUS / "Q.lts",
                           CORPUS / "P.lts", "--depth", "4")
    assert code == 1
    assert "(<i>, {c})" in out


def test_lts_refines_is_conclusive_without_depth(capsys):
    files = (CORPUS / "cycle5.lts", CORPUS / "cycle4.lts")
    code, out, err = run_cli(capsys, "lts", "refines", *files)
    assert (code, err) == (1, "")
    assert out == ("false: failure (<" + "a," * 15 + "b>, {a,b}) not allowed\n")
    assert run_cli(capsys, "lts", "refines", *files, "--depth", "12") == (0, "true\n", "")


def test_lts_refines_negative_depth_exit_64(capsys):
    code, out, err = run_cli(capsys, "lts", "refines", CORPUS / "Q.lts",
                             CORPUS / "P.lts", "--depth", "-1")
    assert (code, out, err) == (64, "", "error: depth must not be negative\n")


def test_lts_divergence_error_exit(tmp_path, capsys):
    f = tmp_path / "div.lts"
    f.write_text("alphabet a\nstates s0 s1\ninit s0\n"
                 "trans s0 tau s1\ntrans s1 tau s0\n")
    code, _, err = run_cli(capsys, "lts", "refines", f, CORPUS / "P.lts")
    assert code == 65
    assert "divergent" in err


def test_lts_refines_long_tau_chain(tmp_path, capsys):
    names = [f"s{k}" for k in range(5000)]
    trans = "".join(f"trans {a} tau {b}\n" for a, b in zip(names, names[1:]))
    head = f"alphabet a\nstates {' '.join(names)}\ninit s0\n"
    chain = tmp_path / "chain.lts"
    chain.write_text(head + trans)
    one = tmp_path / "one.lts"
    one.write_text("alphabet a\nstates o\ninit o\n")
    code, out, err = run_cli(capsys, "lts", "refines", chain, one, "--depth", "2")
    assert (code, out, err) == (0, "true\n", "")
    looped = tmp_path / "looped.lts"
    looped.write_text(head + trans + "trans s4999 tau s4998\n")
    code, _, err = run_cli(capsys, "lts", "refines", looped, one, "--depth", "2")
    assert code == 65
    assert err == "error: divergent: internal cycle s4998 -> s4999 -> s4998\n"


def test_internal_error_exits_seventy(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("an unexpected failure\n  spread over two lines")
    monkeypatch.setattr("gclab.cli.explore_demonic", broken)
    code, out, err = run_cli(capsys, "run", CORPUS / "euclid.gcl")
    assert code == 70
    assert out == ""
    assert err.startswith("error: internal error: RuntimeError: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err == ("error: internal error: RuntimeError: "
                   "an unexpected failure spread over two lines\n")


def test_deep_statement_nesting_exits_sixty_four(tmp_path, capsys):
    f = tmp_path / "deep.gcl"
    f.write_text("var x: int;\n" + "if true -> " * 300 + "skip" + " fi" * 300 + "\n")
    code, out, err = run_cli(capsys, "run", f)
    assert (code, out) == (64, "")
    assert err.startswith("error: line 2, col ") and err.count("\n") == 1


# every corpus fixture runs through its documented command
SMOKE = [
    (("run", "euclid.gcl"), 0),
    (("run", "max.gcl"), 0),
    (("run", "sort4.gcl"), 0),
    (("run", "maxpoint.gcl"), 0),
    (("run", "feijen.gcl"), 0),
    (("run", "queens.gcl", "--mode", "angelic", "--max-depth", "200"), 0),
    (("run", "goon.gcl", "--max-depth", "20"), 2),
    (("run", "fair_threeway.gcl"), 0),
    (("run", "fair_race.gcl"), 0),
    (("run", "lfp_id.gcl"), 0),
    (("run", "lfp_diag.gcl", "--max-depth", "60"), 2),
    (("run", "sfr.csp"), 0),
    (("run", "circwait.csp"), 1),
    (("run", "zerosearch.par"), 0),
    (("run", "awaitfalse.par"), 1),
    (("lts", "bisim", "P.lts", "Q.lts"), 1),
    (("lts", "must", "Q.lts", "T.lts"), 1),
    (("lts", "refines", "P.lts", "Q.lts"), 0),
    (("lts", "refines", "cycle5.lts", "cycle4.lts"), 1),
]


@pytest.mark.parametrize("argv,expected", SMOKE)
def test_corpus_smoke(argv, expected, capsys):
    full = [argv[0]] + [str(CORPUS / a) if "." in a else a for a in argv[1:]]
    code, _, _ = run_cli(capsys, *full)
    assert code == expected


# ---------------------------------------------------------------------------
# the error contract, on mutated corpus texts and drawn argv
# ---------------------------------------------------------------------------

EXIT_CODES = {0, 1, 2, 3, 64, 65, 70}
TEXTS = {p.name: p.read_text(encoding="utf-8") for p in sorted(CORPUS.iterdir())
         if p.suffix in (".gcl", ".csp", ".par", ".lts")}
# the lexical units of the corpus: words, numbers, single symbols, spaces
UNIT = re.compile(r"\w+|\s+|[^\w\s]")
UNITS = sorted({u for text in TEXTS.values() for u in UNIT.findall(text)})
CHARS = sorted(set("".join(TEXTS.values())) | set("?[]()-:=;.,#\"'\\\t"))
# each option with values of every kind it can meet: valid, out of
# range and malformed; no run is long, since LIMITS caps every search and
# the values an `x := ?` enumerates under any --choice-bound
RUN_FLAGS = [
    ["--mode", st.sampled_from(["demonic", "angelic", "erratic", "fair-weak",
                                "fair-strong", "bogus"])],
    ["--seed", st.sampled_from(["0", "1", "7", "-3", "x"])],
    ["--fuel", st.sampled_from(["0", "1", "5", "-5", "x"])],
    ["--max-configs", st.sampled_from(["1", "10", "0", "-1", "x"])],
    ["--max-depth", st.sampled_from(["1", "10", "0", "x"])],
    ["--choice-bound", st.sampled_from(["0", "3", "200000", "-1", "x"])],
    ["--format", st.sampled_from(["text", "json", "xml"])],
    ["--bind", st.sampled_from(["x=3", "y=-2", "goon=true", "a=[1,2]", "x=[1",
                                "a=[1,b]", "x=y", "nope=1", "x"])],
    ["--help"],
]
LIMITS = ["--max-configs", "500", "--max-depth", "50", "--fuel", "500"]


@st.composite
def _mutated(draw, suffixes):
    """A corpus file name, mostly one with a suffix the command reads, and
    its text with one character or one lexical unit deleted, inserted or
    replaced."""
    fitting = [n for n in TEXTS if n.endswith(suffixes)]
    name = draw(st.sampled_from(draw(st.sampled_from([fitting, fitting, sorted(TEXTS)]))))
    text = TEXTS[name]
    if draw(st.booleans()):
        parts, pool = list(text), CHARS
    else:
        parts, pool = UNIT.findall(text), UNITS
    at = draw(st.integers(0, len(parts)))
    op = draw(st.sampled_from(["delete", "insert", "replace"]))
    if op == "insert":
        parts.insert(at, draw(st.sampled_from(pool)))
    elif at < len(parts):
        if op == "delete":
            del parts[at]
        else:
            parts[at] = draw(st.sampled_from(pool))
    return name, "".join(parts)


@st.composite
def _invocation(draw):
    """(mutated file name, its text, argv with FILE standing for its path)."""
    command = draw(st.sampled_from(["run", "transform", "lts"]))
    name, text = draw(_mutated(".lts" if command == "lts" else (".gcl", ".csp", ".par")))
    if command == "run":
        argv = ["run", "FILE"]
        for flag in draw(st.lists(st.sampled_from(RUN_FLAGS), max_size=4)):
            argv += [flag[0]] + [draw(v) for v in flag[1:]]
        argv += LIMITS
    elif command == "transform":
        argv = ["transform", "FILE", "--kind", draw(st.sampled_from(["wf", "csp", "par", "x"]))]
        if draw(st.booleans()):
            argv += ["-o", "OUT"]
    else:
        other = str(CORPUS / draw(st.sampled_from(["P.lts", "Q.lts", "T.lts"])))
        argv = ["lts", draw(st.sampled_from(["bisim", "may", "must", "refines", "x"]))]
        argv += draw(st.permutations(["FILE", other]))
        if draw(st.booleans()):
            argv += ["--depth", draw(st.sampled_from(["0", "2", "4", "-1", "x"]))]
    if draw(st.integers(0, 9)) == 0:  # a missing or surplus argument
        argv = draw(st.sampled_from([argv[:-1], argv + ["extra"]]))
    return name, text, argv


@settings(max_examples=150, deadline=None)
@given(_invocation())
def test_any_invocation_keeps_the_error_contract(case):
    """Every input ends with a documented exit code, and with nothing on
    stderr or one `error:` line, never a traceback; `--help` exits 0."""
    name, text, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        subst = {"FILE": str(path), "OUT": str(pathlib.Path(tmp) / "out.gcl")}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([subst.get(a, a) for a in argv])
            except SystemExit as e:  # argparse's --help
                code = e.code
    out, err = out.getvalue(), err.getvalue()
    assert code in EXIT_CODES, (argv, text)
    assert err == "" or (err.startswith("error:") and err.count("\n") == 1
                         and err.endswith("\n")), (argv, err)
    assert "Traceback" not in out + err


# ---------------------------------------------------------------------------
# --bind values are declaration initializers
# ---------------------------------------------------------------------------

@pytest.fixture
def bind_gcl(tmp_path):
    path = tmp_path / "b.gcl"
    path.write_text("var x: int; var a: int[0..2]; var b: bool;\nskip\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("bind, shown", [
    ("x=-3", "x=-3"), ("x= 7 ", "x=7"), ("a=[1, -2, 3]", "a=[1,-2,3]"),
    ("b=true", "b=true"), ("x=0 # a comment", "x=0"),
])
def test_bind_reads_what_a_declaration_accepts(capsys, bind_gcl, bind, shown):
    code, out, err = run_cli(capsys, "run", bind_gcl, "--bind", bind)
    assert code == 0 and err == ""
    assert shown in out.splitlines()[-1].split(" :: ")[1].split()


@pytest.mark.parametrize("bind, detail", [
    ("x=٣", "line 1, col 1: unexpected character"),
    ("x=1_000", "line 1, col 2: expected end of value, found '_000'"),
    ("x=+5", "line 1, col 1: expected an integer, found '+'"),
    ("a=[1,,2,3]", "line 1, col 4: expected an integer, found ','"),
    ("a=[1,2,3,]", "line 1, col 8: expected an integer, found ']'"),
    ("x=[1", "line 1, col 3: expected ']', found 'end of input'"),
    ("x=", "line 1, col 1: expected an integer, found 'end of input'"),
    ("x=y", "line 1, col 1: expected an integer, found 'y'"),
    ("x", "is not name=value"),
])
def test_bind_rejects_what_no_declaration_accepts(capsys, bind_gcl, bind, detail):
    code, out, err = run_cli(capsys, "run", bind_gcl, "--bind", bind)
    assert code == 64 and out == ""
    assert err.startswith("error: argument --bind: ") and err.count("\n") == 1
    assert detail in err


@pytest.mark.parametrize("bind, detail", [
    ("x=true", "binding for 'x' must be an int"),
    ("b=1", "binding for 'b' must be a bool"),
    ("a=[1,2]", "binding for array 'a' needs exactly 3 cells"),
    ("a=5", "binding for array 'a' needs exactly 3 cells"),
])
def test_bind_of_the_wrong_kind_is_rejected_by_the_state(capsys, bind_gcl, bind, detail):
    code, out, err = run_cli(capsys, "run", bind_gcl, "--bind", bind)
    assert code == 64 and out == "" and err == f"error: {detail}\n"


# ---------------------------------------------------------------------------
# .lts validation errors name the directive's line
# ---------------------------------------------------------------------------

def test_lts_validation_error_names_its_line(capsys, tmp_path):
    path = tmp_path / "bad.lts"
    path.write_text("alphabet a\nstates s0 s1\ninit s0\n# a comment\n\ntrans s0 a zz\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "lts", "bisim", path, CORPUS / "P.lts")
    assert code == 64 and out == ""
    assert err == "error: line 6, col 1: transition s0 -a-> zz uses unknown state\n"


@pytest.mark.parametrize("text, error", [
    ("alphabet a\nstates s0 s1\ninit s0 s1\n", "line 3, col 1: init needs exactly one state"),
    ("alphabet a\nstates s0\ninit s0\ntrans s0 a\n",
     "line 4, col 1: trans needs: source label target"),
    ("alphabet a\nstates s0\n", "line 1, col 1: missing init line"),
], ids=["two-init-states", "short-trans", "no-init"])
def test_lts_directive_errors_exit_64(capsys, tmp_path, text, error):
    path = tmp_path / "bad.lts"
    path.write_text(text, encoding="utf-8")
    assert run_cli(capsys, "lts", "bisim", path, CORPUS / "P.lts") == (64, "", f"error: {error}\n")


# ---------------------------------------------------------------------------
# One argument parser serves every in-process call
# ---------------------------------------------------------------------------

def test_cached_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    import gclab.cli
    euclid = CORPUS / "euclid.gcl"
    monkeypatch.setattr(gclab.cli, "_PARSER", None)
    alone = run_cli(capsys, "run", euclid)  # builds the parser
    assert alone[0] == 0 and "terminated :: x=6 y=6" in alone[1]
    built = gclab.cli._PARSER
    assert built is not None

    code, out, _ = run_cli(capsys, "run", euclid, "--bind", "x=21", "--bind", "y=14")
    assert code == 0 and "terminated :: x=7 y=7" in out
    assert run_cli(capsys, "run", euclid) == alone  # the bindings are gone

    code, out, err = run_cli(capsys, "run", euclid, "--mode", "bogus")
    assert code == 64 and out == "" and err.startswith("error:")
    assert run_cli(capsys, "run", euclid) == alone

    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0 and "usage: gclab" in capsys.readouterr().out
    assert run_cli(capsys, "run", euclid) == alone
    assert gclab.cli._PARSER is built


# ---------------------------------------------------------------------------
# transform --kind wf of a wide loop
# ---------------------------------------------------------------------------

def _arms(n: int) -> str:
    """A one-level loop of `n` arms `x = k -> x := k + 1`. Its wf transform
    repeats each arm's counter update in every other arm, so the output
    grows with the square of `n` and shares its subtrees n - 1 times."""
    return ("var x: int;\ndo " + "\n[] ".join(f"x = {k} -> x := {k} + 1" for k in range(n))
            + "\nod\n")


def test_transform_wf_of_a_wide_loop_within_memory_and_time(tmp_path):
    """In a fresh interpreter, so that its peak resident memory (`ru_maxrss`,
    which Linux reports in KiB) is its own. Rendering each shared subtree
    again at every occurrence took over 4 s for these 500 arms."""
    source, out = tmp_path / "arms.gcl", tmp_path / "arms-wf.gcl"
    source.write_text(_arms(500), encoding="utf-8")
    child = ("import json, resource, sys, time\n"
             "from gclab.cli import main\n"
             "start = time.perf_counter()\n"
             "code = main(['transform', sys.argv[1], '--kind', 'wf', '-o', sys.argv[2]])\n"
             "print(json.dumps([code, time.perf_counter() - start,\n"
             "                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))\n")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", child, str(source), str(out)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    code, seconds, peak_kib = json.loads(done.stdout)
    assert code == 0
    assert out.read_text(encoding="utf-8").count("\n[] ") == 499
    assert seconds < 2.5
    assert peak_kib < 200 * 1024


def test_transform_wf_of_a_wide_loop_matches_the_reference_printer(tmp_path, capsys):
    source, out = tmp_path / "arms.gcl", tmp_path / "arms-wf.gcl"
    text = _arms(200)
    source.write_text(text, encoding="utf-8")
    assert run_cli(capsys, "transform", source, "--kind", "wf", "-o", out)[0] == 0
    want = printer_reference.render(transform_wf(parse_gcl(text)))
    assert out.read_text(encoding="utf-8") == want
