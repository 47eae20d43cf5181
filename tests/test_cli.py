import json

import pytest

from gclab.cli import main
from gclab.parser import parse_gcl

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


def test_seed_required_for_seeded_modes(capsys):
    code, _, err = run_cli(capsys, "run", CORPUS / "goon.gcl", "--mode", "erratic")
    assert code == 64 and "seed" in err


@pytest.mark.parametrize("mode", ["erratic", "fair-weak"])
def test_run_negative_fuel_exit_64(capsys, mode):
    code, out, err = run_cli(capsys, "run", CORPUS / "euclid.gcl", "--mode", mode,
                             "--seed", "1", "--fuel", "-5")
    assert code == 64 and out == ""
    assert err.startswith("error:") and "fuel" in err and err.count("\n") == 1


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


def test_run_csp_wrong_mode(capsys):
    code, _, err = run_cli(capsys, "run", CORPUS / "sfr.csp", "--mode", "erratic")
    assert code == 64


def test_run_par_direct(capsys):
    code, out, _ = run_cli(capsys, "run", CORPUS / "zerosearch.par")
    assert code == 0
    assert "k=3" in out


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


def test_lts_divergence_error_exit(tmp_path, capsys):
    f = tmp_path / "div.lts"
    f.write_text("alphabet a\nstates s0 s1\ninit s0\n"
                 "trans s0 tau s1\ntrans s1 tau s0\n")
    code, _, err = run_cli(capsys, "lts", "refines", f, CORPUS / "P.lts")
    assert code == 65
    assert "divergent" in err


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
]


@pytest.mark.parametrize("argv,expected", SMOKE)
def test_corpus_smoke(argv, expected, capsys):
    full = [argv[0]] + [str(CORPUS / a) if "." in a else a for a in argv[1:]]
    code, _, _ = run_cli(capsys, *full)
    assert code == expected
