"""The mutant catalogue (`mutants.py`) cannot rot silently: every snippet
occurs exactly once in its file, and every test it names exists. Running
the mutants themselves is `python tests/mutants.py`, a CI step of its own."""

import ast

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_distinct():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("m", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_snippet_occurs_once_and_each_named_test_exists(m):
    text = (ROOT / m.file).read_text(encoding="utf-8")
    assert text.count(m.snippet) == 1
    assert m.replacement != m.snippet and m.tests
    for node_id in m.tests:
        path, name = node_id.split("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        defined = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
        assert name in defined, node_id
