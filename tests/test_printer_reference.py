"""The printer, whose expressions and statements keep their rendered text,
against the printer that rendered every tree afresh (`printer_reference.py`).

Every program must render byte for byte as the reference renders it, and
every node that holds a text must hold the reference's text for it: the
corpus, the benchmark's program texts, the outputs of the three
transformations, the random programs of `test_differential.py` and the
random expressions of `test_printer.py`. The cache is filled top-down (a tree, then its subtree) and bottom-up (a
subtree, then its tree), and a second rendering returns the kept text.
"""

from random import Random

import pytest
from hypothesis import given, settings

from gclab.csp import translate_csp
from gclab.errors import SourceError
from gclab.fairness import FairnessError, transform_wf
from gclab.par import translate_par
from gclab.parser import parse_csp, parse_gcl, parse_par
from gclab.printer import render, render_csp, render_expr, render_par, render_stmt
from gclab.syntax import (
    Assign, BinOp, CspSystem, Do, Expr, GclProgram, GuardedCommand, If, IntLit,
    ParSystem, Skip, Stmt, UnaryOp, Var, nodes, not_, seq,
)

import printer_reference as ref
from conftest import CORPUS
from test_differential import _program
from test_frontend_differential import _load_bench_gen
from test_printer import bool_exprs

PARSERS = {"gcl": parse_gcl, "csp": parse_csp, "par": parse_par}
RENDERERS = {GclProgram: (render, ref.render), CspSystem: (render_csp, ref.render_csp),
             ParSystem: (render_par, ref.render_par)}


def assert_kept_texts(tree) -> int:
    """Every text that a node of `tree` keeps is the reference's text for
    it; how many nodes keep one."""
    kept = 0
    for node in nodes(tree):
        text = getattr(node, "_text", None)
        if text is not None:
            want = ref.render_expr(node) if isinstance(node, Expr) else ref.render_stmt(node)
            assert text == want, node
            kept += 1
    return kept


def assert_renders_as_reference(program) -> None:
    mine, theirs = RENDERERS[type(program)]
    assert mine(program) == theirs(program)
    assert assert_kept_texts(program)


def transforms(program):
    """The programs the transformations make of `program`."""
    if isinstance(program, GclProgram):
        try:
            return [transform_wf(program)]
        except FairnessError:
            return []
    if isinstance(program, CspSystem):
        return [translate_csp(program)]
    return [translate_par(program)]


def check_text(text: str, kinds=PARSERS) -> int:
    """Compare the parses of `text` and their transformations; how many
    programs were compared."""
    compared = 0
    for kind in kinds:
        try:
            program = PARSERS[kind](text)
        except SourceError:
            continue
        for p in [program] + transforms(program):
            assert_renders_as_reference(p)
            compared += 1
    return compared


@pytest.mark.parametrize("path", sorted(p for p in CORPUS.iterdir() if p.suffix[1:] in PARSERS),
                         ids=lambda p: p.name)
def test_corpus_renders_as_reference(path):
    assert check_text(path.read_text(encoding="utf-8"), [path.suffix[1:]])


def test_bench_program_texts_render_as_reference():
    gen = _load_bench_gen()
    texts = set()
    for workload in ("explore", "sweep", "frontend"):
        for seed in (1, 7):
            for item in gen.WORKLOADS[workload](seed):
                if "text" in item.args:
                    texts.add(item.args["text"])
                texts.update(item.args.get("files", {}).values())
    assert len(texts) > 200
    assert sum(check_text(text) for text in sorted(texts)) > 200


def test_random_programs_render_as_reference():
    rng = Random(1357)
    for _ in range(300):
        assert_renders_as_reference(_program(rng))


@settings(max_examples=300, deadline=None)
@given(bool_exprs(3))
def test_random_expressions_render_as_reference(expr):
    """Hash-consing shares the leaves and small subtrees of these
    expressions between examples, so most meet texts kept by earlier ones,
    in other contexts."""
    assert render_expr(expr) == ref.render_expr(expr)
    assert assert_kept_texts(expr)


def _fresh_tree(tag: str) -> Stmt:
    """A loop whose nodes no other test builds, so that none holds a text
    yet; an expression and an `if` occur in it twice, and operands in and
    out of parentheses."""
    x = Var(f"{tag}_x")
    e = BinOp("+", BinOp("*", x, IntLit(3)), UnaryOp("neg", BinOp("-", x, IntLit(1))))
    low = BinOp("<", x, IntLit(2))
    inner = If((GuardedCommand(low, Assign((x,), (e,))),
                GuardedCommand(not_(BinOp("or", low, BinOp("=", x, e))), Skip())))
    body = seq([inner, Assign((x,), (BinOp("-", e, IntLit(1)),)), inner])
    return Do((GuardedCommand(BinOp("<", e, IntLit(9)), body),))


def test_tree_then_subtree():
    tree = _fresh_tree("top_down")
    assert not hasattr(tree, "_text")
    assert render_stmt(tree) == ref.render_stmt(tree)
    inner = tree.arms[0].body.stmts[0]
    e = inner.arms[0].body.values[0]
    assert hasattr(inner, "_text") and hasattr(e, "_text")  # filled from the top
    assert render_stmt(inner) == ref.render_stmt(inner)
    assert render_expr(e) == ref.render_expr(e)
    assert assert_kept_texts(tree)


def test_subtree_then_tree():
    tree = _fresh_tree("bottom_up")
    inner = tree.arms[0].body.stmts[0]
    e = inner.arms[0].body.values[0]
    assert render_expr(e) == ref.render_expr(e)
    assert not hasattr(inner, "_text")
    assert render_stmt(inner) == ref.render_stmt(inner)
    assert not hasattr(tree, "_text")
    assert render_stmt(tree) == ref.render_stmt(tree)
    assert assert_kept_texts(tree)


def test_second_rendering_returns_the_kept_text():
    tree = _fresh_tree("twice")
    first = render_stmt(tree)
    assert render_stmt(tree) is first
    assert first == ref.render_stmt(tree)
    x = Var("twice_x")
    assert render_expr(x) is render_expr(x) == "twice_x"
    assert repr(x) == "Var(name='twice_x')"  # the text is not a field
