"""Front end for the textual litmus-program language (.lit files).

`parse` reads the text once and emits, as it reads each thread, the
thread's flow graph of atomic instructions, each touching at most one
global:

  * ``y = x + 1`` becomes ``Load(__t0, x); Store(y, __t0 + 1)``
  * expressions and conditions over globals load each global occurrence
    into a fresh local, left to right, immediately before their use
  * ``if`` branches on ``Assume(c)`` and ``Assume(!c)`` and merges at a
    ``Nop``; ``while`` re-reads its globals at a head ``Nop`` on every
    iteration
  * ``lock(m)``/``unlock(m)`` lower to plain fences (mutual exclusion is
    deliberately NOT modeled; this over-approximates interleavings and is
    sound for proving assertions)
  * trailing top-level asserts become a virtual epilogue thread

`lower` adds the root thread, which stores every global's initial value,
creates and joins the threads that no thread creates, then runs the
epilogue, and validates the program.
"""
from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from itertools import count

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


@dataclass
class SourceProgram:
    model: str | None
    globals: list[tuple[str, int]]
    #: each thread's flow graph in source order, the epilogue (if any) last
    threads: dict[str, ir.FlowGraph]


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
# Flow graph construction
# ---------------------------------------------------------------------------

class _GraphBuilder:
    """One thread's flow graph, built in program order: `append` links a
    new node after every current tail and makes it the only tail."""

    def __init__(self, thread: str, ids: Callable[[], int]):
        self.thread = thread
        self.ids = ids
        self.nodes: dict[int, ir.Instruction] = {}
        self.edges: set[tuple[int, int]] = set()
        self.tails: list[int] = []
        self.entry = self.append(Nop())

    def append(self, instr: ir.Instruction) -> int:
        n = self.ids()
        self.nodes[n] = instr
        for t in self.tails:
            self.edges.add((t, n))
        self.tails = [n]
        return n

    def finish(self) -> ir.FlowGraph:
        exit_node = self.append(Nop())
        return ir.FlowGraph(self.thread, self.nodes, self.entry, exit_node,
                            self.edges)


# ---------------------------------------------------------------------------
# Parser (recursive descent with bounded backtracking for conditions)
# ---------------------------------------------------------------------------

_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")

#: Deeper blocks, parentheses and expression trees are a ParseError: the
#: parser, its hoisting and the analyzer recurse on them.
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
        self.graphs: dict[str, ir.FlowGraph] = {}
        self.graph: _GraphBuilder | None = None  # the thread being read
        self.locals: set[str] = set()  # current thread's locals
        self.depth = 0
        self.ids = count().__next__  # node ids, unique across threads
        self.temps = count()  # the n of each __t<n> temporary
        # each create and join site as (thread, keyword token, target), in
        # source order
        self.calls: list[tuple[str, Token, str]] = []

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

    def variable(self, name: Token) -> VarId:
        """The global, or the current thread's local, that `name` names."""
        if name.text in self.globals:
            return VarId(name.text)
        if name.text not in self.locals:
            self.error(f"undeclared identifier {name.text!r}", name)
        return VarId(name.text, self.graph.thread)

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

    def hoist(self, tree):
        """`tree`, an expression or condition, with each global read
        replaced by a fresh local that a Load appended just before fills,
        left to right."""
        if isinstance(tree, Var):
            if not tree.var.is_global:
                return tree
            tmp = VarId(f"__t{next(self.temps)}", self.graph.thread)
            self.graph.append(Load(tmp, tree.var))
            return Var(tmp)
        if isinstance(tree, Const):
            return tree
        if isinstance(tree, Not):
            return Not(self.hoist(tree.cond))
        if isinstance(tree, (BinOp, Cmp)):
            return type(tree)(tree.op, self.hoist(tree.left),
                              self.hoist(tree.right))
        return type(tree)(self.hoist(tree.left), self.hoist(tree.right))

    # -- grammar ----------------------------------------------------------
    def program(self) -> SourceProgram:
        model = None
        if self.accept("kw", "model"):
            tok = self.expect("ident")
            if tok.text not in {m.value for m in MemoryModel}:
                self.error(f"unknown memory model {tok.text!r}", tok)
            model = tok.text
            self.expect("op", ";")
        while self.accept("kw", "global"):
            while True:
                name = self.ident()
                if name.text in self.globals:
                    self.error(f"duplicate global {name.text!r}", name)
                init = 0
                if self.accept("op", "="):
                    init = self._int_literal()
                self.globals[name.text] = init
                if not self.accept("op", ","):
                    break
            self.expect("op", ";")
        while self.peek().kind == "kw" and self.peek().text == "thread":
            self.thread_block()
        if not self.graphs:
            self.error("expected at least one 'thread' block")
        self.locals = set()  # top-level asserts read globals only
        if self.peek().kind == "kw" and self.peek().text == "assert":
            self.graph = _GraphBuilder(ir.EPILOGUE_THREAD, self.ids)
            while self.peek().kind == "kw" and self.peek().text == "assert":
                self.assert_stmt()
            self.graphs[ir.EPILOGUE_THREAD] = self.graph.finish()
        if self.peek().kind != "eof":
            self.error(f"unexpected {self.peek().text!r}")
        self._check_calls()
        return SourceProgram(model, list(self.globals.items()), self.graphs)

    def _int_literal(self) -> int:
        neg = bool(self.accept("op", "-"))
        value = self.int_value(self.expect("int"))
        return -value if neg else value

    def thread_block(self) -> None:
        self.expect("kw", "thread")
        name = self.ident()
        if name.text in self.graphs:
            self.error(f"duplicate thread {name.text!r}", name)
        if name.text in self.globals:
            self.error(f"{name.text!r} is already a global", name)
        self.locals = set()
        self.graph = _GraphBuilder(name.text, self.ids)
        self.block()
        self.graphs[name.text] = self.graph.finish()

    @_nesting
    def block(self) -> None:
        self.expect("op", "{")
        while not self.accept("op", "}"):
            self.stmt()

    def stmt(self) -> None:
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
            handler()
        elif tok.kind == "ident":
            self.assign_stmt()
        else:
            self.error(f"expected statement, found "
                       f"{tok.text or 'end of input'!r}")

    def assign_stmt(self) -> None:
        name = self.ident()
        target = self.variable(name)
        self.expect("op", "=")
        expr = self.bounded(self.expr(), name)
        self.expect("op", ";")
        expr = self.hoist(expr)
        self.graph.append(Store(target, expr) if target.is_global
                          else LocalAssign(target, expr))

    def local_stmt(self) -> None:
        self.expect("kw", "local")
        name = self.ident()
        if name.text in self.locals or name.text in self.globals:
            self.error(f"duplicate declaration of {name.text!r}", name)
        expr = None
        if self.accept("op", "="):
            expr = self.bounded(self.expr(), name)
        self.expect("op", ";")
        self.locals.add(name.text)
        if expr is not None:
            expr = self.hoist(expr)
            self.graph.append(LocalAssign(self.variable(name), expr))

    def fence_stmt(self) -> None:
        self.expect("kw", "fence")
        self.expect("op", ";")
        self.graph.append(Fence())

    def membar_stmt(self) -> None:
        self.expect("kw", "membar")
        kinds = []
        while self.peek().kind == "membar_kind":
            kinds.append(self.next().text[1:])
        if not kinds:
            self.error("membar needs at least one kind (#LL #LS #SL #SS)")
        self.expect("op", ";")
        self.graph.append(Membar(frozenset(kinds)))

    def keyword_cond(self, text: str) -> tuple[Token, Cond]:
        """`text ( cond )`: the keyword's token and the condition."""
        kw = self.expect("kw", text)
        self.expect("op", "(")
        cond = self.bounded(self.cond(), kw)
        self.expect("op", ")")
        return kw, cond

    def assert_stmt(self) -> None:
        kw, cond = self.keyword_cond("assert")
        self.expect("op", ";")
        self.graph.append(Assert(self.hoist(cond), f"{kw.line}:{kw.col}"))

    def if_stmt(self) -> None:
        _, cond = self.keyword_cond("if")
        g = self.graph
        cond = self.hoist(cond)
        branch_tails = g.tails
        g.append(Assume(cond))
        self.block()
        then_tails = g.tails
        g.tails = branch_tails
        g.append(Assume(negate(cond)))
        if self.accept("kw", "else"):
            self.block()
        g.tails = then_tails + g.tails
        g.append(Nop())  # merge point

    def while_stmt(self) -> None:
        _, cond = self.keyword_cond("while")
        g = self.graph
        head = g.append(Nop())  # loop head: each iteration re-reads globals
        cond = self.hoist(cond)
        cond_tails = g.tails
        g.append(Assume(cond))
        self.block()
        for t in g.tails:  # back edge
            g.edges.add((t, head))
        g.tails = cond_tails
        g.append(Assume(negate(cond)))

    def call_stmt(self) -> None:
        kw = self.expect("kw")
        self.expect("op", "(")
        name = self.ident()
        self.expect("op", ")")
        self.expect("op", ";")
        call = {"create": ThreadCreate, "join": ThreadJoin}.get(kw.text)
        if call is None:
            self.graph.append(Fence())
        else:
            self.calls.append((self.graph.thread, kw, name.text))
            self.graph.append(call(name.text))

    def _check_calls(self) -> None:
        """Reject, in this order: a create or join of an unknown thread; a
        thread created at two sites, at the second one; and a thread that
        creates itself, directly or through the threads it creates, at the
        create statement closing the cycle."""
        for _, kw, target in self.calls:
            if target not in self.graphs:
                raise ParseError(f"unknown thread {target!r}", kw.line,
                                 kw.col)
        creates: dict[str, list] = {name: [] for name in self.graphs}
        created: set[str] = set()
        for thread, kw, target in self.calls:
            if kw.text == "create":
                if target in created:
                    raise ParseError(f"thread {target!r} is created at two "
                                     f"sites", kw.line, kw.col)
                created.add(target)
                creates[thread].append((target, (kw, target)))
        closing = ir.creation_cycle(creates)
        if closing is not None:
            kw, target = closing
            raise ParseError(f"thread creation cycle through {target!r}",
                             kw.line, kw.col)

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
            return Var(self.variable(self.ident()))
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
# The root thread
# ---------------------------------------------------------------------------

def lower(ast: SourceProgram) -> ir.Program:
    """The program of `ast`'s threads and a root thread numbered after
    them; `ast` is left as it is."""
    ids = count(1 + max(n for g in ast.threads.values() for n in g.nodes))
    root = _GraphBuilder(ir.ROOT_THREAD, ids.__next__)
    init_stores = {VarId(name): root.append(Store(VarId(name), Const(init)))
                   for name, init in ast.globals}
    created = {instr.child for g in ast.threads.values()
               for instr in g.nodes.values()
               if isinstance(instr, ThreadCreate)}
    top_level = [name for name in ast.threads
                 if name not in created and name != ir.EPILOGUE_THREAD]
    for name in top_level:
        root.append(ThreadCreate(name))
    for name in top_level:
        root.append(ThreadJoin(name))
    if ir.EPILOGUE_THREAD in ast.threads:
        root.append(ThreadCreate(ir.EPILOGUE_THREAD))
        root.append(ThreadJoin(ir.EPILOGUE_THREAD))
    program = ir.Program(
        globals={VarId(name): init for name, init in ast.globals},
        threads={**ast.threads, ir.ROOT_THREAD: root.finish()},
        init_stores=init_stores,
    )
    diags = ir.validate(program)
    if diags:  # the front end must always produce well-formed programs
        raise AssertionError("lowering produced invalid program: "
                             + "; ".join(diags))
    return program


def parse_and_lower(text: str) -> tuple[ir.Program, str | None]:
    ast = parse(text)
    return lower(ast), ast.model
