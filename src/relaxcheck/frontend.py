"""Parser and lowering for the textual litmus-program language (.lit files).

The surface language allows statements mixing several globals; lowering
atomizes them so every CFG node touches at most one global:

  * ``y = x + 1`` becomes ``Load(__t0, x); Store(y, __t0 + 1)``
  * conditions over globals load each global occurrence into a fresh
    local, left to right, immediately before the branch
  * ``lock(m)``/``unlock(m)`` lower to plain fences (mutual exclusion is
    deliberately NOT modeled; this over-approximates interleavings and is
    sound for proving assertions)
  * trailing top-level asserts become a virtual epilogue thread that the
    root creates after joining all top-level threads
"""
from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field

from . import ir
from .ir import (
    And, Assert, Assume, BinOp, Cmp, Cond, Const, Expr, Fence, Load,
    LocalAssign, Membar, MemoryModel, Nop, Not, Or, Store, ThreadCreate,
    ThreadJoin, Var, VarId, negate,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class NestingError(ParseError):
    """Input nested deeper than MAX_NESTING."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass
class Stmt:
    line: int = 0
    col: int = 0


@dataclass
class AssignStmt(Stmt):
    target: str = ""
    expr: Expr = Const(0)


@dataclass
class LocalDeclStmt(Stmt):
    name: str = ""
    expr: Expr | None = None


@dataclass
class FenceStmt(Stmt):
    pass


@dataclass
class MembarStmt(Stmt):
    kinds: tuple[str, ...] = ()


@dataclass
class AssertStmt(Stmt):
    cond: Cond = Cmp("==", Const(0), Const(0))


@dataclass
class IfStmt(Stmt):
    cond: Cond = Cmp("==", Const(0), Const(0))
    then: list[Stmt] = field(default_factory=list)
    els: list[Stmt] = field(default_factory=list)


@dataclass
class WhileStmt(Stmt):
    cond: Cond = Cmp("==", Const(0), Const(0))
    body: list[Stmt] = field(default_factory=list)


@dataclass
class CallStmt(Stmt):
    """`kind(target);` for kind create, join, lock or unlock."""
    kind: str = ""
    target: str = ""


@dataclass
class ThreadBlock:
    name: str
    stmts: list[Stmt]
    line: int = 0
    col: int = 0


@dataclass
class SourceProgram:
    model: str | None
    globals: list[tuple[str, int]]
    threads: list[ThreadBlock]
    epilogue_asserts: list[AssertStmt] = field(default_factory=list)


def _nested_stmts(stmts: list[Stmt]) -> Iterator[Stmt]:
    """Every statement of stmts and of the if/while bodies within, in
    source order."""
    for s in stmts:
        yield s
        if isinstance(s, IfStmt):
            yield from _nested_stmts(s.then)
            yield from _nested_stmts(s.els)
        elif isinstance(s, WhileStmt):
            yield from _nested_stmts(s.body)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = {"model", "global", "local", "thread", "fence", "membar",
             "assert", "if", "else", "while", "create", "join", "lock",
             "unlock"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<membar_kind>\#(LL|LS|SL|SS))
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>==|!=|<=|>=|&&|\|\||[-+*<>!=;,(){}])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # 'int', 'ident', 'kw', 'op', 'membar_kind', 'eof'
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            if kind == "ident" and lexeme in _KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent with bounded backtracking for conditions)
# ---------------------------------------------------------------------------

_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")

#: Deeper blocks, parentheses and expression trees are a ParseError: the
#: parser, the lowering and the analyzer all recurse on them.
MAX_NESTING = 100


def _nesting(method):
    """Count the parser's recursion through `method` against MAX_NESTING."""
    def nested(self, *args):
        if self.depth == MAX_NESTING:
            tok = self.peek()
            raise NestingError(f"input nested deeper than {MAX_NESTING} "
                               f"levels", tok.line, tok.col)
        self.depth += 1
        try:
            return method(self, *args)
        finally:
            self.depth -= 1
    return nested


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.globals: dict[str, int] = {}
        self.threads: list[str] = []
        self.locals: set[str] = set()  # current thread's locals
        self.depth = 0

    # -- token helpers ----------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            expected = text if text is not None else kind
            self.error(f"expected {expected!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def int_value(self, tok: Token) -> int:
        """The value of an 'int' token.  A literal past Python's limit on
        converting strings to int (4,300 digits by default) is an error."""
        try:
            return int(tok.text)
        except ValueError:
            self.error(f"integer literal too long ({len(tok.text)} digits)",
                       tok)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    def ident(self) -> Token:
        tok = self.expect("ident")
        if tok.text.startswith("__"):
            self.error("identifiers starting with '__' are reserved", tok)
        return tok

    def bounded(self, tree, tok: Token):
        """`tree`, unless it is higher than MAX_NESTING.  Operator chains
        build deep trees without parser recursion, so this walks by level."""
        level, height = [tree], 0
        while level:
            height += 1
            level = [getattr(n, f) for n in level
                     for f in ("left", "right", "cond") if hasattr(n, f)]
        if height > MAX_NESTING:
            raise NestingError(f"expression nested deeper than "
                               f"{MAX_NESTING} levels", tok.line, tok.col)
        return tree

    # -- grammar ----------------------------------------------------------
    def program(self) -> SourceProgram:
        model = None
        if self.accept("kw", "model"):
            tok = self.expect("ident")
            if tok.text not in {m.value for m in MemoryModel}:
                self.error(f"unknown memory model {tok.text!r}", tok)
            model = tok.text
            self.expect("op", ";")
        decls: list[tuple[str, int]] = []
        while self.accept("kw", "global"):
            while True:
                name = self.ident()
                if name.text in self.globals:
                    self.error(f"duplicate global {name.text!r}", name)
                init = 0
                if self.accept("op", "="):
                    init = self._int_literal()
                self.globals[name.text] = init
                decls.append((name.text, init))
                if not self.accept("op", ","):
                    break
            self.expect("op", ";")
        threads = []
        while self.peek().kind == "kw" and self.peek().text == "thread":
            threads.append(self.thread_block())
        if not threads:
            self.error("expected at least one 'thread' block")
        self.locals = set()  # top-level asserts read globals only
        epilogue = []
        while self.peek().kind == "kw" and self.peek().text == "assert":
            epilogue.append(self.assert_stmt())
        if self.peek().kind != "eof":
            self.error(f"unexpected {self.peek().text!r}")
        self._check_calls(threads)
        return SourceProgram(model, decls, threads, epilogue)

    def _int_literal(self) -> int:
        neg = bool(self.accept("op", "-"))
        value = self.int_value(self.expect("int"))
        return -value if neg else value

    def thread_block(self) -> ThreadBlock:
        kw = self.expect("kw", "thread")
        name = self.ident()
        if name.text in self.threads:
            self.error(f"duplicate thread {name.text!r}", name)
        if name.text in self.globals:
            self.error(f"{name.text!r} is already a global", name)
        self.threads.append(name.text)
        self.locals = set()
        stmts = self.block()
        return ThreadBlock(name.text, stmts, kw.line, kw.col)

    @_nesting
    def block(self) -> list[Stmt]:
        self.expect("op", "{")
        stmts = []
        while not self.accept("op", "}"):
            stmts.append(self.stmt())
        return stmts

    def stmt(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "kw":
            handler = {
                "local": self.local_stmt, "fence": self.fence_stmt,
                "membar": self.membar_stmt, "assert": self.assert_stmt,
                "if": self.if_stmt, "while": self.while_stmt,
                "create": self.call_stmt, "join": self.call_stmt,
                "lock": self.call_stmt, "unlock": self.call_stmt,
            }.get(tok.text)
            if handler is None:
                self.error(f"unexpected keyword {tok.text!r}")
            return handler()
        if tok.kind == "ident":
            return self.assign_stmt()
        self.error(f"expected statement, found {tok.text or 'end of input'!r}")

    def assign_stmt(self) -> AssignStmt:
        name = self.ident()
        if name.text not in self.globals and name.text not in self.locals:
            self.error(f"undeclared identifier {name.text!r}", name)
        self.expect("op", "=")
        expr = self.bounded(self.expr(), name)
        self.expect("op", ";")
        return AssignStmt(name.line, name.col, name.text, expr)

    def local_stmt(self) -> LocalDeclStmt:
        kw = self.expect("kw", "local")
        name = self.ident()
        if name.text in self.locals or name.text in self.globals:
            self.error(f"duplicate declaration of {name.text!r}", name)
        expr = None
        if self.accept("op", "="):
            expr = self.bounded(self.expr(), name)
        self.expect("op", ";")
        self.locals.add(name.text)
        return LocalDeclStmt(kw.line, kw.col, name.text, expr)

    def fence_stmt(self) -> FenceStmt:
        kw = self.expect("kw", "fence")
        self.expect("op", ";")
        return FenceStmt(kw.line, kw.col)

    def membar_stmt(self) -> MembarStmt:
        kw = self.expect("kw", "membar")
        kinds = []
        while self.peek().kind == "membar_kind":
            kinds.append(self.next().text[1:])
        if not kinds:
            self.error("membar needs at least one kind (#LL #LS #SL #SS)")
        self.expect("op", ";")
        return MembarStmt(kw.line, kw.col, tuple(kinds))

    def keyword_cond(self, text: str) -> tuple[Token, Cond]:
        """`text ( cond )`: the keyword's token and the condition."""
        kw = self.expect("kw", text)
        self.expect("op", "(")
        cond = self.bounded(self.cond(), kw)
        self.expect("op", ")")
        return kw, cond

    def assert_stmt(self) -> AssertStmt:
        kw, cond = self.keyword_cond("assert")
        self.expect("op", ";")
        return AssertStmt(kw.line, kw.col, cond)

    def if_stmt(self) -> IfStmt:
        kw, cond = self.keyword_cond("if")
        then = self.block()
        els: list[Stmt] = []
        if self.accept("kw", "else"):
            els = self.block()
        return IfStmt(kw.line, kw.col, cond, then, els)

    def while_stmt(self) -> WhileStmt:
        kw, cond = self.keyword_cond("while")
        body = self.block()
        return WhileStmt(kw.line, kw.col, cond, body)

    def call_stmt(self) -> CallStmt:
        kw = self.expect("kw")
        self.expect("op", "(")
        name = self.ident()
        self.expect("op", ")")
        self.expect("op", ";")
        return CallStmt(kw.line, kw.col, kw.text, name.text)

    def _check_calls(self, threads: list[ThreadBlock]) -> None:
        """Reject, in this order: a create or join of an unknown thread; a
        thread created at two sites, at the second one; and a thread that
        creates itself, directly or through the threads it creates, at the
        create statement closing the cycle."""
        creates: dict[str, list] = {t.name: [] for t in threads}
        for t in threads:
            for s in _nested_stmts(t.stmts):
                if isinstance(s, CallStmt) and s.kind in ("create", "join"):
                    if s.target not in creates:
                        raise ParseError(f"unknown thread {s.target!r}",
                                         s.line, s.col)
                    if s.kind == "create":
                        creates[t.name].append((s.target, s))
        created: set[str] = set()
        for child, s in (edge for edges in creates.values() for edge in edges):
            if child in created:
                raise ParseError(f"thread {child!r} is created at two sites",
                                 s.line, s.col)
            created.add(child)
        closing = ir.creation_cycle(creates)
        if closing is not None:
            raise ParseError(f"thread creation cycle through "
                             f"{closing.target!r}", closing.line, closing.col)

    # -- expressions ------------------------------------------------------
    def expr(self) -> Expr:
        left = self.term()
        while True:
            tok = self.accept("op", "+") or self.accept("op", "-")
            if not tok:
                return left
            left = BinOp(tok.text, left, self.term())

    def term(self) -> Expr:
        left = self.factor()
        while self.accept("op", "*"):
            left = BinOp("*", left, self.factor())
        return left

    @_nesting
    def factor(self) -> Expr:
        if self.accept("op", "("):
            e = self.expr()
            self.expect("op", ")")
            return e
        if self.accept("op", "-"):
            return BinOp("-", Const(0), self.factor())
        tok = self.peek()
        if tok.kind == "int":
            return Const(self.int_value(self.next()))
        if tok.kind == "ident":
            name = self.ident()
            if name.text not in self.globals and name.text not in self.locals:
                self.error(f"undeclared identifier {name.text!r}", name)
            return Var(VarId(name.text))
        self.error(f"expected expression, found {tok.text or 'end of input'!r}")

    # -- conditions -------------------------------------------------------
    def cond(self) -> Cond:
        left = self.cond_and()
        while self.accept("op", "||"):
            left = Or(left, self.cond_and())
        return left

    def cond_and(self) -> Cond:
        left = self.cond_unary()
        while self.accept("op", "&&"):
            left = And(left, self.cond_unary())
        return left

    @_nesting
    def cond_unary(self) -> Cond:
        if self.accept("op", "!"):
            return Not(self.cond_unary())
        # Try 'expr CMP expr', then a parenthesized condition; when both fail,
        # report the error further into the input, the comparison's on a tie.
        mark = self.pos
        try:
            left = self.expr()
            tok = self.peek()
            if tok.kind == "op" and tok.text in _CMP_OPS:
                self.next()
                return Cmp(tok.text, left, self.expr())
            raise ParseError("expected comparison operator", tok.line, tok.col)
        except NestingError:
            raise
        except ParseError as e:
            self.pos = mark
            first = e
        try:
            self.expect("op", "(")
            inner = self.cond()
            self.expect("op", ")")
        except NestingError:
            raise
        except ParseError as e:
            raise max(first, e, key=lambda err: (err.line, err.col)) from None
        return inner


def parse(text: str) -> SourceProgram:
    return _Parser(text).program()


# ---------------------------------------------------------------------------
# Printer (debugging + round-trip tests)
# ---------------------------------------------------------------------------

def print_program(ast: SourceProgram) -> str:
    out = []
    if ast.model:
        out.append(f"model {ast.model};")
    for name, init in ast.globals:
        out.append(f"global {name} = {init};")
    for t in ast.threads:
        out.append(f"thread {t.name} {{")
        _print_stmts(t.stmts, out, "  ")
        out.append("}")
    for a in ast.epilogue_asserts:
        out.append(f"assert ({a.cond});")
    return "\n".join(out) + "\n"


def _print_stmts(stmts: list[Stmt], out: list[str], indent: str) -> None:
    for s in stmts:
        if isinstance(s, AssignStmt):
            out.append(f"{indent}{s.target} = {s.expr};")
        elif isinstance(s, LocalDeclStmt):
            init = f" = {s.expr}" if s.expr is not None else ""
            out.append(f"{indent}local {s.name}{init};")
        elif isinstance(s, FenceStmt):
            out.append(f"{indent}fence;")
        elif isinstance(s, MembarStmt):
            kinds = " ".join(f"#{k}" for k in s.kinds)
            out.append(f"{indent}membar {kinds};")
        elif isinstance(s, AssertStmt):
            out.append(f"{indent}assert ({s.cond});")
        elif isinstance(s, IfStmt):
            out.append(f"{indent}if ({s.cond}) {{")
            _print_stmts(s.then, out, indent + "  ")
            if s.els:
                out.append(f"{indent}}} else {{")
                _print_stmts(s.els, out, indent + "  ")
            out.append(f"{indent}}}")
        elif isinstance(s, WhileStmt):
            out.append(f"{indent}while ({s.cond}) {{")
            _print_stmts(s.body, out, indent + "  ")
            out.append(f"{indent}}}")
        elif isinstance(s, CallStmt):
            out.append(f"{indent}{s.kind}({s.target});")
        else:
            raise TypeError(s)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

class _GraphBuilder:
    def __init__(self, thread: str, ids):
        self.thread = thread
        self.ids = ids
        self.nodes: dict[int, ir.Instruction] = {}
        self.edges: set[tuple[int, int]] = set()
        self.entry = self.add(Nop())
        self.tails = [self.entry]

    def add(self, instr: ir.Instruction) -> int:
        n = self.ids()
        self.nodes[n] = instr
        return n

    def append(self, instr: ir.Instruction) -> int:
        n = self.add(instr)
        for t in self.tails:
            self.edges.add((t, n))
        self.tails = [n]
        return n

    def finish(self) -> ir.FlowGraph:
        exit_node = self.append(Nop())
        return ir.FlowGraph(self.thread, self.nodes, self.entry, exit_node,
                            self.edges)


class _Lowerer:
    def __init__(self, ast: SourceProgram):
        self.ast = ast
        self.counter = 0
        self.temp_counter = 0
        self.global_vars = {name: VarId(name) for name, _ in ast.globals}

    def _ids(self) -> int:
        n = self.counter
        self.counter += 1
        return n

    def _fresh(self, thread: str) -> VarId:
        v = VarId(f"__t{self.temp_counter}", thread)
        self.temp_counter += 1
        return v

    def lower(self) -> ir.Program:
        graphs: dict[str, ir.FlowGraph] = {}
        for t in self.ast.threads:
            b = _GraphBuilder(t.name, self._ids)
            for s in t.stmts:
                self._stmt(b, s)
            graphs[t.name] = b.finish()

        epilogue = None
        if self.ast.epilogue_asserts:
            b = _GraphBuilder(ir.EPILOGUE_THREAD, self._ids)
            for a in self.ast.epilogue_asserts:
                self._stmt(b, a)
            epilogue = b.finish()

        root = _GraphBuilder(ir.ROOT_THREAD, self._ids)
        init_stores: dict[VarId, int] = {}
        for name, init in self.ast.globals:
            init_stores[self.global_vars[name]] = root.append(
                Store(self.global_vars[name], Const(init)))
        created = {instr.child for g in graphs.values()
                   for instr in g.nodes.values()
                   if isinstance(instr, ThreadCreate)}
        top_level = [t.name for t in self.ast.threads
                     if t.name not in created]
        for name in top_level:
            root.append(ThreadCreate(name))
        for name in top_level:
            root.append(ThreadJoin(name))
        if epilogue is not None:
            root.append(ThreadCreate(ir.EPILOGUE_THREAD))
            root.append(ThreadJoin(ir.EPILOGUE_THREAD))
            graphs[ir.EPILOGUE_THREAD] = epilogue
        graphs[ir.ROOT_THREAD] = root.finish()

        program = ir.Program(
            globals={self.global_vars[n]: v for n, v in self.ast.globals},
            threads=graphs,
            init_stores=init_stores,
        )
        return program

    # -- statement lowering ------------------------------------------------
    def _stmt(self, b: _GraphBuilder, s: Stmt) -> None:
        if isinstance(s, AssignStmt):
            expr = self._hoist_expr(b, s.expr)
            if s.target in self.global_vars:
                b.append(Store(self.global_vars[s.target], expr))
            else:
                b.append(LocalAssign(VarId(s.target, b.thread), expr))
        elif isinstance(s, LocalDeclStmt):
            if s.expr is not None:
                expr = self._hoist_expr(b, s.expr)
                b.append(LocalAssign(VarId(s.name, b.thread), expr))
        elif isinstance(s, FenceStmt):
            b.append(Fence())
        elif isinstance(s, CallStmt):
            call = {"create": ThreadCreate, "join": ThreadJoin}.get(s.kind)
            b.append(Fence() if call is None else call(s.target))
        elif isinstance(s, MembarStmt):
            b.append(Membar(frozenset(s.kinds)))
        elif isinstance(s, AssertStmt):
            cond = self._hoist_cond(b, s.cond)
            b.append(Assert(cond, f"{s.line}:{s.col}"))
        elif isinstance(s, IfStmt):
            self._if(b, s)
        elif isinstance(s, WhileStmt):
            self._while(b, s)
        else:
            raise TypeError(s)

    def _if(self, b: _GraphBuilder, s: IfStmt) -> None:
        cond = self._hoist_cond(b, s.cond)
        branch_tails = b.tails

        b.tails = branch_tails
        b.append(Assume(cond))
        for st in s.then:
            self._stmt(b, st)
        then_tails = b.tails

        b.tails = branch_tails
        b.append(Assume(negate(cond)))
        for st in s.els:
            self._stmt(b, st)
        else_tails = b.tails

        b.tails = then_tails + else_tails
        b.append(Nop())  # merge point

    def _while(self, b: _GraphBuilder, s: WhileStmt) -> None:
        head = b.append(Nop())  # loop head: each iteration re-reads globals
        cond = self._hoist_cond(b, s.cond)
        cond_tails = b.tails

        b.tails = cond_tails
        b.append(Assume(cond))
        for st in s.body:
            self._stmt(b, st)
        for t in b.tails:  # back edge
            b.edges.add((t, head))

        b.tails = cond_tails
        b.append(Assume(negate(cond)))

    # -- hoisting globals out of expressions/conditions --------------------
    def _hoist_expr(self, b: _GraphBuilder, e: Expr) -> Expr:
        if isinstance(e, Const):
            return e
        if isinstance(e, Var):
            name = e.var.name
            if name in self.global_vars:
                tmp = self._fresh(b.thread)
                b.append(Load(tmp, self.global_vars[name]))
                return Var(tmp)
            return Var(VarId(name, b.thread))
        return BinOp(e.op, self._hoist_expr(b, e.left),
                     self._hoist_expr(b, e.right))

    def _hoist_cond(self, b: _GraphBuilder, c: Cond) -> Cond:
        if isinstance(c, Cmp):
            return Cmp(c.op, self._hoist_expr(b, c.left),
                       self._hoist_expr(b, c.right))
        if isinstance(c, Not):
            return Not(self._hoist_cond(b, c.cond))
        if isinstance(c, And):
            return And(self._hoist_cond(b, c.left),
                       self._hoist_cond(b, c.right))
        if isinstance(c, Or):
            return Or(self._hoist_cond(b, c.left),
                      self._hoist_cond(b, c.right))
        raise TypeError(c)


def lower(ast: SourceProgram) -> ir.Program:
    program = _Lowerer(ast).lower()
    diags = ir.validate(program)
    if diags:  # lowering must always produce well-formed programs
        raise AssertionError("lowering produced invalid program: "
                             + "; ".join(diags))
    return program


def parse_and_lower(text: str) -> tuple[ir.Program, str | None]:
    ast = parse(text)
    return lower(ast), ast.model
