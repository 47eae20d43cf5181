"""The pretty-printers as `gclab.printer` defined them before each
expression and statement kept its rendered text: every call renders the
whole tree again. The reference that `test_printer_reference.py` compares
the cached printer against, byte for byte."""

from __future__ import annotations

from gclab.syntax import (
    BINARY, COMPARE_BP, NEG_BP, NOT_BP, ArrayRef, Assign, Await, BinOp,
    BoolLit, Builtin, ChoiceAssign, CspSystem, Declaration, Do, Expr, Fail,
    GclProgram, If, IfElse, Input, IntLit, Output, ParSystem, RandomAssign,
    Seq, Skip, Stmt, UnaryOp, Var, While, chain,
)

# the parser's binding powers, and a literal's, tighter than any operator
_ATOM = NEG_BP + 1


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return BINARY[e.op].power
    if isinstance(e, UnaryOp):
        return NOT_BP if e.op == "not" else NEG_BP
    return _ATOM


def render_expr(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, ArrayRef):
        return f"{e.name}[{render_expr(e.index)}]"
    if isinstance(e, Builtin):
        return f"{e.func}({render_expr(e.args[0])}, {render_expr(e.args[1])})"
    if isinstance(e, UnaryOp):
        if e.op == "not":
            inner = render_expr(e.operand)
            if _prec(e.operand) < NOT_BP:
                inner = f"({inner})"
            return f"not {inner}"
        inner = render_expr(e.operand)
        # parenthesize anything not tighter than unary minus, and also a
        # literal operand: bare `-2` reparses as the negative literal
        if _prec(e.operand) <= NEG_BP or isinstance(e.operand, IntLit):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        # binary operators parse left-associatively (comparisons do not
        # chain), so an equal-precedence right child always needs parens
        # for the reparse to rebuild the identical tree
        my = BINARY[e.op].power
        first, pairs = chain(e)
        parts = [render_expr(first)]
        if _prec(first) < my or (my == COMPARE_BP and _prec(first) == my):
            parts[0] = f"({parts[0]})"
        for op, right in pairs:
            text = render_expr(right)
            parts.append(f"{op} ({text})" if _prec(right) <= my else f"{op} {text}")
        return " ".join(parts)
    raise ValueError(f"cannot render {type(e).__name__}")


def render_decl(d: Declaration) -> str:
    if d.is_array:
        head = f"var {d.name}: int[{d.lo}..{d.hi}]"
    else:
        head = f"var {d.name}: {d.kind}"
    if d.init is not None:
        if isinstance(d.init, bool):
            head += " = " + ("true" if d.init else "false")
        elif isinstance(d.init, tuple):
            head += " = [" + ", ".join(str(c) for c in d.init) + "]"
        else:
            head += f" = {d.init}"
    return head + ";"


def _indent(text: str, pad: str = "  ") -> str:
    return "\n".join(pad + line for line in text.split("\n"))


def render_stmt(s: Stmt) -> str:
    if isinstance(s, Skip):
        return "skip"
    if isinstance(s, Fail):
        return s.keyword
    if isinstance(s, Assign):
        lhs = ", ".join(render_expr(t) for t in s.targets)
        rhs = ", ".join(render_expr(v) for v in s.values)
        return f"{lhs} := {rhs}"
    if isinstance(s, RandomAssign):
        return f"{s.target} := ?"
    if isinstance(s, ChoiceAssign):
        return f"{s.target} := choice({render_expr(s.bound)})"
    if isinstance(s, Seq):
        return ";\n".join(render_stmt(sub) for sub in s.stmts)
    if isinstance(s, (If, Do)):
        opener, closer = ("if", "fi") if isinstance(s, If) else ("do", "od")
        lines = []
        for k, arm in enumerate(s.arms):
            lead = opener if k == 0 else "[]"
            lines.append(f"{lead} {render_expr(arm.guard)} ->")
            lines.append(_indent(render_stmt(arm.body)))
        lines.append(closer)
        return "\n".join(lines)
    if isinstance(s, IfElse):
        out = f"if {render_expr(s.cond)} then\n{_indent(render_stmt(s.then_branch))}"
        if not isinstance(s.else_branch, Skip):
            out += f"\nelse\n{_indent(render_stmt(s.else_branch))}"
        return out + "\nfi"
    if isinstance(s, While):
        return (f"while {render_expr(s.cond)} do\n"
                f"{_indent(render_stmt(s.body))}\nod")
    if isinstance(s, Await):
        return f"await {render_expr(s.cond)}"
    raise ValueError(f"cannot render {type(s).__name__}")


def render_stmt_inline(s: Stmt) -> str:
    """Single-line rendering, used for transition labels and residue keys."""
    return " ".join(part.strip() for part in render_stmt(s).split("\n"))


def render(p: GclProgram) -> str:
    """Concrete text of a guarded-commands program (trailing newline)."""
    parts = [render_decl(d) for d in p.decls]
    parts.append(render_stmt(p.body))
    return "\n".join(parts) + "\n"


def render_csp(sys: CspSystem) -> str:
    blocks = []
    for proc in sys.processes:
        lines = [f"process {proc.name}"]
        for d in proc.decls:
            lines.append("  " + render_decl(d))
        if not isinstance(proc.init, Skip) or not proc.loop:
            init_text = _indent(render_stmt(proc.init))
            lines.append(init_text + (";" if proc.loop else ""))
        for k, g in enumerate(proc.loop):
            lead = "do" if k == 0 else "[]"
            io = render_io(g.io)
            lines.append(f"  {lead} {render_expr(g.cond)} ; {io} ->")
            lines.append(_indent(render_stmt(g.body), "      "))
        if proc.loop:
            lines.append("  od")
        lines.append("end")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def render_io(io: Input | Output) -> str:
    if isinstance(io, Input):
        return f"{io.peer} ? {io.target}"
    return f"{io.peer} ! {render_expr(io.expr)}"


def render_par(sys: ParSystem) -> str:
    lines = [render_decl(d) for d in sys.decls]
    if not isinstance(sys.init, Skip):
        lines.append("init")
        lines.append(_indent(render_stmt(sys.init)))
    for comp in sys.components:
        lines.append("component")
        lines.append(_indent(render_stmt(comp)))
        lines.append("end")
    if not isinstance(sys.epilogue, Skip):
        lines.append("epilogue")
        lines.append(_indent(render_stmt(sys.epilogue)))
    return "\n".join(lines) + "\n"
