import pathlib

import pytest

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus():
    return CORPUS


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


def sfr_source(cells) -> str:
    """The sender-filter-receiver csp system, sending `cells`; the filter
    drops zeros and stops at -1."""
    m = len(cells)
    lit = ", ".join(str(v) for v in cells)
    return f"""
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
