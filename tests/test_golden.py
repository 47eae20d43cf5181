"""Golden reports: `gclab run`, `gclab transform` and `gclab lts` output,
byte for byte.

Each file under tests/golden/ holds one command line, its exit code, its
exact stdout and, when it is not empty, its exact stderr:

    $ gclab run corpus/euclid.gcl --mode demonic --format text
    exit 0
    <stdout>
    --- stderr ---
    <stderr>

A stdout longer than DIGEST_ABOVE characters (the full queens search) is kept
as its SHA-256 and its first lines instead. The error cases read their
small inputs from tests/inputs/. The `counts configs=...
edges=... paths=...` lines pin the memo-merge behaviour of the search, so
any change to how configurations are keyed or merged shows up here.
Regenerate (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import sys

import pytest

from gclab.cli import USAGE_ERROR, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
DIGEST_ABOVE = 64 * 1024

# commands that end with an error exit and one `error:` line, whatever
# their code: the array cap, a `--bind` value, a bad `.lts` line, a
# divergent `lts refines` (65) and two usage errors
ERROR_CASES = [
    ("error.array-cap", ["run", "tests/inputs/array.gcl"]),
    ("error.bind", ["run", "corpus/euclid.gcl", "--bind", "x=1_000"]),
    ("error.lts-line", ["lts", "bisim", "tests/inputs/bad.lts", "corpus/P.lts"]),
    ("error.refines-divergent",
     ["lts", "refines", "tests/inputs/two-way.lts", "tests/inputs/one.lts"]),
    ("error.depth", ["lts", "refines", "corpus/P.lts", "corpus/Q.lts", "--depth", "-1"]),
    ("error.mode", ["run", "corpus/euclid.gcl", "--mode", "bogus"]),
]


def _cases():
    """(golden file name, argv) for every case the goldens may cover.
    Fair modes and the wf transform apply only to one-level programs,
    and may and must only to a test with a success state; the generator
    keeps a case only when it does not exit with a usage error."""
    for path in sorted(CORPUS.glob("*.gcl")):
        rel = f"corpus/{path.name}"
        for fmt in ("text", "json"):
            for mode in ("demonic", "angelic"):
                yield f"{path.name}.{mode}.{fmt}", ["run", rel, "--mode", mode,
                                                    "--format", fmt]
            for mode in ("erratic", "fair-weak", "fair-strong"):
                yield (f"{path.name}.{mode}-1.{fmt}",
                       ["run", rel, "--mode", mode, "--seed", "1", "--format", fmt])
        yield f"{path.name}.transform-wf", ["transform", rel, "--kind", "wf"]
    for ext in ("csp", "par"):
        for path in sorted(CORPUS.glob(f"*.{ext}")):
            rel = f"corpus/{path.name}"
            for fmt in ("text", "json"):
                yield f"{path.name}.demonic.{fmt}", ["run", rel, "--format", fmt]
            yield f"{path.name}.transform-{ext}", ["transform", rel, "--kind", ext]
    systems = sorted(CORPUS.glob("*.lts"))
    for p in systems:
        for q in systems:
            pair = [f"corpus/{p.name}", f"corpus/{q.name}"]
            for sub in ("bisim", "may", "must", "refines"):
                yield f"{p.name}.{q.name}.{sub}", ["lts", sub, *pair]
            for depth in ("0", "4", "16"):
                yield (f"{p.name}.{q.name}.refines-{depth}",
                       ["lts", "refines", *pair, "--depth", depth])
    yield from ERROR_CASES


def _run(argv: list[str]) -> tuple[int, str, str]:
    resolved = [str(ROOT / a) if a.startswith(("corpus/", "tests/inputs/")) else a
                for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return code, out.getvalue(), err.getvalue()


def _golden_text(argv: list[str]) -> tuple[int, str]:
    """Exit code and golden file text of one command."""
    code, out, err = _run(argv)
    text = f"$ gclab {' '.join(argv)}\nexit {code}\n"
    if len(out) > DIGEST_ABOVE:
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        head = "".join(out.splitlines(keepends=True)[:8])
        text += f"sha256 {digest} of {len(out)} characters, first lines:\n{head}"
    else:
        text += out
    if err:
        text += f"--- stderr ---\n{err}"
    return code, text


GOLDEN_FILES = sorted(GOLDEN.glob("*")) if GOLDEN.is_dir() else []


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=[p.name for p in GOLDEN_FILES])
def test_golden_report(path):
    want = path.read_text(encoding="utf-8")
    argv = want.split("\n", 1)[0][len("$ gclab "):].split(" ")
    assert _golden_text(argv)[1] == want


def test_goldens_cover_every_corpus_program():
    names = {p.name for p in GOLDEN_FILES}
    for path in CORPUS.iterdir():
        if path.suffix in (".gcl", ".csp", ".par"):
            assert f"{path.name}.demonic.text" in names
            assert f"{path.name}.demonic.json" in names
    for path in CORPUS.glob("*.gcl"):
        assert f"{path.name}.angelic.text" in names
        assert f"{path.name}.erratic-1.json" in names
    systems = [p.name for p in CORPUS.glob("*.lts")]
    for p in systems:
        for q in systems:
            assert f"{p}.{q}.bisim" in names
            assert {f"{p}.{q}.refines-{d}" for d in (0, 4, 16)} <= names
    assert {name for name, _ in ERROR_CASES} <= names


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*"):
        old.unlink()
    for name, argv in _cases():
        code, text = _golden_text(argv)
        if code != USAGE_ERROR or name.startswith("error."):
            (GOLDEN / name).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
