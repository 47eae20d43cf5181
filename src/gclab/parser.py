"""Recursive-descent parsers for the three source languages.

Statements descend one method per construct. One loop,
`Parser._parse_guarded`, reads every `[]`-list of arms, as
`docs/grammar.ebnf` writes them: those of `if`, of `do` and of a
process's communication loop, a `do` whose guards also carry an i/o
command; only the reader of one arm differs. Expressions are parsed by
precedence climbing over the binding powers of `syntax.BINARY`: loosest
to tightest, or, and, a prefix `not`, comparisons, + -, * div mod, then
unary minus. Binary operators associate to the left; comparisons do not
chain, and `not` binds looser than comparisons, so `not x < y` reads as
`not (x < y)` and `x < not y` is rejected. A `-` before an integer literal
makes a negative literal. Parentheses, prefixes, indexes and builtin
arguments may nest `MAX_NESTING` levels deep, and so may `if`, `do` and
`while` statements.

Parsing and checking are interleaved: every name is resolved against the
declarations in scope at the point of use, and each rule of `check` is
applied as soon as its construct is built, with its error placed at a token
there; so no parse returns an ill-typed tree, and every diagnostic carries
a line and column. `parse_value` reads an initializer alone (`--bind`).

A parse runs on `lexer.tokenize`'s tokens, which carry no positions, and
places an error on demand: the first error sends the text through the
same parser once more, on `lexer.scan`'s positioned tokens, where it
raises the same error with its line and column; an error that already
has its position (`tokenize` fell back to `scan`) is raised at once.
Each parse keeps a memo of the types of the expressions it has checked
under its declarations, which `check.type_of` reads, so a subtree that
hash-consing shares is typed once per parse. It also keeps a table of
its leaves, `Parser.leaves`: an identifier's name to its `Var` and an
integer literal's text (a negative one's with its `-`) to its `IntLit`,
so each distinct variable and literal is constructed once per parse.
The table is read only after every check of the token, so a name that
one csp process declares is still undeclared in the next, and an
over-long literal never enters it; by hash-consing its node is the one
the constructor would return.
"""

from __future__ import annotations

import sys

from .check import (BUILTIN_NAMES, check_assign, check_declaration, check_name,
                    check_type, declared, scalar_target, type_of)
from .errors import CheckError, ParseError, SourceError
from .lexer import scan, tokenize
from .syntax import (
    BINARY, COMPARE_BP, NEG_BP, NOT_BP, ArrayRef, Assign, Await, BinOp,
    BoolLit, Builtin, ChoiceAssign, CspProcess, CspSystem, Declaration, Do,
    Expr, ExtGuard, Fail, GclProgram, GuardedCommand, If, IfElse, Input,
    IntLit, Output, ParSystem, RandomAssign, Skip, Stmt, UnaryOp, Var, While,
    seq,
)

_POWER = {op: row.power for op, row in BINARY.items()}

# Parentheses, prefix `not` and `-`, indexes and builtin arguments open an
# expression level each; `if`, `do`, `while` and a process's communication
# loop open a statement level each. The parser stops at this depth of
# either kind with a ParseError rather than exhausting the Python stack.
MAX_NESTING = 100


class Parser:
    """A parse of one token list. A token is a tuple (kind, text) from
    `tokenize`, or (kind, text, line, col) from `scan`: the parser reads
    `t[0]` and `t[1]`, and places an error at `t[2:]`, which is no position
    at all for a `tokenize` token."""

    def __init__(self, toks: list[tuple]):
        self.toks = toks
        self.i = 0
        self.decls: dict[str, Declaration] = {}
        self.decl_positions: dict[str, tuple] = {}
        self.known: dict[Expr, str] = {}  # the type of every expression typed under `decls`
        self.leaves: dict[str, Expr] = {}  # name or literal text -> its Var or IntLit
        self.stmt_depth = 0

    # -- token plumbing: `i` never moves past the final eof token -----------

    def peek(self) -> tuple:
        return self.toks[self.i]

    def at(self, kind: str) -> bool:
        return self.toks[self.i][0] == kind

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is a `kind` (never 'eof')."""
        if self.toks[self.i][0] == kind:
            self.i += 1
            return True
        return False

    def advance(self) -> tuple:
        t = self.toks[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> tuple:
        t = self.toks[self.i]
        if t[0] != kind:
            shown = what or f"'{kind}'"
            found = t[1] if t[0] != "eof" else "end of input"
            raise ParseError(f"expected {shown}, found {found!r}", *t[2:])
        return self.advance()

    def fail(self, message: str, tok: tuple | None = None):
        raise ParseError(message, *(tok or self.peek())[2:])

    def _integer(self, t: tuple) -> int:
        try:
            return int(t[1])
        except ValueError:
            self.fail(f"integer literal longer than {sys.get_int_max_str_digits()} digits", t)

    # -- error-position plumbing for the checker ----------------------------

    def _check_at(self, tok: tuple, check, *args):
        """`check(*args)`, with the CheckError it raises placed at `tok`."""
        try:
            return check(*args)
        except CheckError as err:
            raise CheckError(err.message, *tok[2:]) from None

    def _typed(self, e: Expr, tok: tuple, want: str | None = None) -> Expr:
        t = self._check_at(tok, type_of, e, self.decls, self.known)
        if want is not None:
            self._check_at(tok, check_type, t, want)
        return e

    # -- declarations -------------------------------------------------------

    def parse_decls(self) -> tuple[Declaration, ...]:
        out: list[Declaration] = []
        while self.accept("var"):
            name_tok = self.expect("ident", "a variable name")
            name = name_tok[1]
            self._check_at(name_tok, check_name, name, self.decls)
            self.expect(":")
            if self.accept("bool"):
                kind, lo, hi = "bool", None, None
            else:
                self.expect("int", "'int' or 'bool'")
                if self.accept("["):
                    lo = self._signed_int()
                    self.expect("..")
                    hi = self._signed_int()
                    self.expect("]")
                    kind = "int[]"
                else:
                    kind, lo, hi = "int", None, None
            init = None
            if self.accept("="):
                init = self._parse_initializer()
            d = Declaration(name, kind, lo, hi, init)
            self._check_at(name_tok, check_declaration, d)
            self.decls[name] = d
            self.decl_positions[name] = name_tok
            out.append(d)
            self.expect(";")
        return tuple(out)

    def _signed_int(self) -> int:
        sign = -1 if self.accept("-") else 1
        return sign * self._integer(self.expect("number", "an integer"))

    def _parse_initializer(self):
        if self.at("true") or self.at("false"):
            return self.advance()[0] == "true"
        if self.accept("["):
            cells = [self._signed_int()]
            while self.accept(","):
                cells.append(self._signed_int())
            self.expect("]")
            return tuple(cells)
        return self._signed_int()

    # -- expressions ----------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._expr(0, 0)

    def _expr(self, min_bp: int, depth: int) -> Expr:
        """An operand, then every binary operator that binds tighter than
        `min_bp`, left-associated. `limit` is the loosest binding power
        still allowed: after an operator of power p only p or looser may
        follow, and after a comparison or a prefix `not` only `and`/`or`."""
        toks = self.toks
        t = toks[self.i]
        if t[0] == "not" and min_bp <= NOT_BP:
            self._nest(t, depth)
            self.i += 1
            left = UnaryOp("not", self._expr(NOT_BP, depth + 1))
            limit = NOT_BP
        else:
            left = self._operand(depth)
            limit = NEG_BP
        while True:
            op = toks[self.i][0]
            bp = _POWER.get(op, 0)
            if bp <= min_bp or bp > limit:
                return left
            self.i += 1
            limit = NOT_BP if bp == COMPARE_BP else bp
            left = BinOp(op, left, self._expr(bp, depth))

    def _operand(self, depth: int) -> Expr:
        """Unary minus or an atom: a literal, a parenthesised expression,
        a variable, an indexed array or a builtin call."""
        t = self.toks[self.i]
        kind = t[0]
        if kind == "number":
            self.i += 1
            return self.leaves.get(t[1]) or self.leaves.setdefault(t[1], IntLit(self._integer(t)))
        if kind == "ident":
            self.i += 1
            name = t[1]
            nxt = self.toks[self.i]
            if nxt[0] == "(":
                if name not in BUILTIN_NAMES:
                    self.fail(f"'{name}' is not callable (only min/max are builtins)", t)
                self._nest(nxt, depth)
                self.i += 1
                a = self._expr(0, depth + 1)
                self.expect(",")
                b = self._expr(0, depth + 1)
                self.expect(")")
                return Builtin(name, (a, b))
            if name in BUILTIN_NAMES:
                self.fail(f"builtin '{name}' used without arguments", t)
            if name not in self.decls:
                self._check_at(t, declared, name, self.decls)
            if nxt[0] == "[":
                self._nest(nxt, depth)
                self.i += 1
                idx = self._expr(0, depth + 1)
                self.expect("]")
                return ArrayRef(name, idx)
            return self.leaves.get(name) or self.leaves.setdefault(name, Var(name))
        if kind == "-":
            self.i += 1
            # a minus on an integer literal IS a negative literal; explicit
            # negation of a literal is written with parens, `-(2)`
            if self.at("number"):
                n = self.advance()
                text = "-" + n[1]
                return (self.leaves.get(text)
                        or self.leaves.setdefault(text, IntLit(-self._integer(n))))
            self._nest(t, depth)
            return UnaryOp("neg", self._operand(depth + 1))
        if kind == "(":
            self._nest(t, depth)
            self.i += 1
            e = self._expr(0, depth + 1)
            self.expect(")")
            return e
        if kind in ("true", "false"):
            self.i += 1
            return BoolLit(kind == "true")
        self.fail(f"expected an expression, found {t[1] or 'end of input'!r}", t)

    def _nest(self, t: tuple, depth: int) -> None:
        if depth >= MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels", t)

    def _open_statement(self) -> None:
        """Consume the token that opens a statement level; the caller
        closes the level."""
        t = self.advance()
        if self.stmt_depth >= MAX_NESTING:
            self.fail(f"statement nested deeper than {MAX_NESTING} levels", t)
        self.stmt_depth += 1

    def typed_expr(self, want: str | None = None) -> Expr:
        tok = self.peek()
        return self._typed(self.parse_expr(), tok, want)

    # -- statements -----------------------------------------------------

    def parse_stmt_seq(self, fragment: str = "gcl") -> Stmt:
        stmts = [self.parse_stmt(fragment)]
        while self.accept(";"):
            stmts.append(self.parse_stmt(fragment))
        return seq(stmts)

    def parse_stmt(self, fragment: str = "gcl") -> Stmt:
        t = self.peek()
        kind = t[0]
        if kind == "skip":
            self.advance()
            return Skip()
        if kind in ("abort", "fail"):
            if fragment == "par":
                self.fail("the parallel fragment has no abort/fail", t)
            self.advance()
            return Fail(kind)
        if kind == "if":
            if fragment == "par":
                return self._parse_if_then_else()
            return self._parse_guarded(If, "fi")
        if kind == "do":
            if fragment == "par":
                self.fail("the parallel fragment allows only while/if; no do-od loops", t)
            return self._parse_guarded(Do, "od")
        if kind == "while":
            if fragment != "par":
                self.fail("'while' belongs to the parallel fragment; use do-od", t)
            return self._parse_while()
        if kind == "await":
            if fragment != "par":
                self.fail("'await' belongs to the parallel fragment", t)
            self.advance()
            return Await(self.typed_expr("bool"))
        if kind == "ident":
            return self._parse_assignment(fragment)
        self.fail(f"expected a statement, found {t[1] or 'end of input'!r}", t)

    def _parse_arm(self) -> GuardedCommand:
        guard = self.typed_expr("bool")
        if self.at(";"):
            self.fail("i/o commands are allowed only in the guards of a process main loop")
        self.expect("->")
        body = self.parse_stmt_seq("gcl")
        return GuardedCommand(guard, body)

    def _parse_guarded(self, node, closer: str, arm=_parse_arm) -> Stmt:
        """The opener, `[]`-separated arms each read by `arm(self)`, and
        `closer`: an `if`, a `do` or a communication loop."""
        self._open_statement()
        arms = [arm(self)]
        while self.accept("[]"):
            arms.append(arm(self))
        self.expect(closer, f"'[]' or '{closer}'")
        self.stmt_depth -= 1
        return node(tuple(arms))

    def _parse_if_then_else(self) -> Stmt:
        self._open_statement()
        cond = self.typed_expr("bool")
        self.expect("then")
        then_branch = self.parse_stmt_seq("par")
        if self.accept("else"):
            else_branch = self.parse_stmt_seq("par")
        else:
            else_branch = Skip()
        self.expect("fi")
        self.stmt_depth -= 1
        return IfElse(cond, then_branch, else_branch)

    def _parse_while(self) -> Stmt:
        self._open_statement()
        cond = self.typed_expr("bool")
        self.expect("do")
        body = self.parse_stmt_seq("par")
        self.expect("od")
        self.stmt_depth -= 1
        return While(cond, body)

    def _parse_assignment(self, fragment: str) -> Stmt:
        start = self.peek()
        targets = [self._parse_target()]
        while self.accept(","):
            targets.append(self._parse_target())
        if self.peek()[0] in ("?", "!"):
            self.fail("i/o commands are allowed only in the guards of a process main loop")
        self.expect(":=")
        if self.accept("?"):
            if fragment == "par":
                self.fail("random assignment is not part of the parallel fragment", start)
            return RandomAssign(self._check_at(start, scalar_target, targets, self.decls))
        if self.accept("choice"):
            if fragment == "par":
                self.fail("choice assignment is not part of the parallel fragment", start)
            self.expect("(")
            bound = self.typed_expr("int")
            self.expect(")")
            return ChoiceAssign(self._check_at(start, scalar_target, targets, self.decls), bound)
        values = [self.parse_expr()]
        while self.accept(","):
            values.append(self.parse_expr())
        node = Assign(tuple(targets), tuple(values))
        self._check_at(start, check_assign, node, self.decls, self.known)
        return node

    def _parse_target(self) -> Expr:
        t = self.expect("ident", "an assignment target")
        name = t[1]
        if name not in self.decls:
            if self.peek()[0] in ("?", "!"):
                self.fail("i/o commands are allowed only in the guards of a process main loop", t)
            self._check_at(t, declared, name, self.decls)
        if self.accept("["):
            idx = self.parse_expr()
            self.expect("]")
            return self._typed(ArrayRef(name, idx), t)
        return self.leaves.get(name) or self.leaves.setdefault(name, Var(name))


# ---------------------------------------------------------------------------
# Whole-file entry points
# ---------------------------------------------------------------------------

def _parse(text: str, rule):
    """`rule` run on a Parser of `text`'s position-free tokens. On an error
    without a position it runs once more on `scan`'s tokens, where the
    same code raises the same error with its position."""
    try:
        return rule(Parser(tokenize(text)))
    except SourceError as err:
        if err.line is not None:
            raise
    return rule(Parser(scan(text)))


def parse_gcl(text: str) -> GclProgram:
    """Parse and check a guarded-commands program."""
    return _parse(text, _gcl)


def _gcl(p: Parser) -> GclProgram:
    decls = p.parse_decls()
    body = p.parse_stmt_seq("gcl")
    p.expect("eof", "';' or end of program")
    return GclProgram(decls, body)


def parse_value(text: str):
    """A declaration initializer and nothing after it: exactly what may
    follow `=` in a `var` declaration."""
    return _parse(text, _value)


def _value(p: Parser):
    value = p._parse_initializer()
    p.expect("eof", "end of value")
    return value


def parse_csp(text: str) -> CspSystem:
    """Parse and check a system of communicating processes.

    A process is `process NAME <decls> <stmts> end`; the final statement
    may be the communication loop, a do-od whose guards all have the
    `B ; io ->` shape. Variable names must be disjoint across processes.
    """
    return _parse(text, _csp)


def _csp(p: Parser) -> CspSystem:
    processes: list[CspProcess] = []
    owner: dict[str, str] = {}  # each variable's process
    peers: list[list[tuple]] = []  # per process, the peer token of each i/o command
    while p.accept("process"):
        name_tok = p.expect("ident", "a process name")
        pname = name_tok[1]
        if any(pr.name == pname for pr in processes):
            raise CheckError(f"duplicate process name '{pname}'", *name_tok[2:])
        p.decls = {}
        p.decl_positions = {}
        p.known = {}
        decls = p.parse_decls()
        for d in decls:
            if d.name in owner:
                raise CheckError(
                    f"variable '{d.name}' already declared in process {owner[d.name]}; "
                    f"process variables must be disjoint",
                    *p.decl_positions[d.name][2:])
            owner[d.name] = pname
        peers.append([])
        init, loop = _parse_process_body(p, peers[-1])
        processes.append(CspProcess(pname, decls, init, loop))
        p.expect("end")
    p.expect("eof", "'process' or end of file")
    if not processes:
        raise ParseError("a system needs at least one process", 1, 1)
    names = {pr.name for pr in processes}
    for pr, toks in zip(processes, peers):
        for tok in toks:
            if tok[1] not in names:
                raise CheckError(f"unknown peer process '{tok[1]}'", *tok[2:])
            if tok[1] == pr.name:
                raise CheckError(f"process '{pr.name}' cannot communicate with itself",
                                 *tok[2:])
    return CspSystem(tuple(processes))


def _parse_process_body(p: Parser, peers: list[tuple]):
    """Statements up to `end`; a communication loop, if present, must be
    last. Returns (init stmt, loop arms), and appends the peer token of
    each of the loop's i/o commands to `peers`."""
    if p.at("end"):
        return Skip(), ()
    stmts: list[Stmt] = []
    while not (p.at("do") and _is_extended_do(p)):
        stmts.append(p.parse_stmt("gcl"))
        if not p.accept(";"):
            return seq(stmts), ()
    loop = p._parse_guarded(tuple, "od", lambda p: _parse_io_arm(p, peers))
    if p.at(";"):
        p.fail("the communication loop must be the final statement of the process")
    return seq(stmts), loop


def _is_extended_do(p: Parser) -> bool:
    """Lookahead: does this do-loop's first guard contain `; io`?
    Scans to the matching arrow at nesting depth zero."""
    depth = 0
    j = p.i + 1
    while j < len(p.toks):
        k = p.toks[j][0]
        if k == "(":
            depth += 1
        elif k == ")":
            depth -= 1
        elif depth == 0 and k == ";":
            return True
        elif depth == 0 and k in ("->", "od", "eof"):
            return False
        j += 1
    return False


def _parse_io_arm(p: Parser, peers: list[tuple]) -> ExtGuard:
    """One arm of a communication loop, `B ; peer ! e -> S` or
    `B ; peer ? x -> S`; appends the peer token to `peers`."""
    cond = p.typed_expr("bool")
    p.expect(";", "';' and an i/o command after the boolean guard part")
    peer = p.expect("ident", "a peer process name")
    if p.accept("!"):
        io: Input | Output = Output(peer[1], p.typed_expr())
    elif p.accept("?"):
        tgt = p.expect("ident", "a target variable")
        if p._check_at(tgt, declared, tgt[1], p.decls).is_array:
            raise CheckError("an input target must be a scalar", *tgt[2:])
        io = Input(peer[1], tgt[1])
    else:
        p.fail("expected '!' or '?' in the i/o command")
    peers.append(peer)
    p.expect("->")
    return ExtGuard(cond, io, p.parse_stmt_seq("gcl"))


def parse_par(text: str) -> ParSystem:
    """Parse and check a shared-variable parallel program:
    declarations, optional `init`, one or more `component ... end`
    blocks, optional `epilogue`."""
    return _parse(text, _par)


def _par(p: Parser) -> ParSystem:
    decls = p.parse_decls()
    init: Stmt = Skip()
    if p.accept("init"):
        init = p.parse_stmt_seq("gcl")
    components: list[Stmt] = []
    while p.accept("component"):
        components.append(p.parse_stmt_seq("par"))
        p.expect("end")
    if not components:
        p.fail("expected at least one 'component' block")
    epilogue: Stmt = Skip()
    if p.accept("epilogue"):
        epilogue = p.parse_stmt_seq("gcl")
    p.expect("eof", "'component', 'epilogue' or end of file")
    return ParSystem(decls, init, tuple(components), epilogue)
