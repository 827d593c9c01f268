"""Program representation: per-thread flow graphs of atomic instructions.

A program is a set of flow graphs, one per thread, plus a virtual root
thread that stores the initial value of every global, creates all
top-level threads, and joins them at the end.  Every node carries exactly
one atomic instruction that touches at most one global variable.
A flow graph builds its adjacency lists, reachability closure, strict
dominators, loop nodes and the interval fixpoint's visit plan once; the
plan lists the nodes in reverse postorder, so the fixpoint's worklist is
one mask over their ranks.  Every per-node node set of the package, and
every node set of the static relations (`relations.py`), is an int mask
indexed by node id: bit n stands for node n, `bits` lists the nodes of a
mask, and `closure` is the package's one transitive closure over such
masks, for reachability and MHB alike.  `MemoryModel` names the memory models for the front end,
the analyzer and the oracle.
"""
from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_
from typing import NamedTuple, TypeVar

ROOT_THREAD = "__root__"
EPILOGUE_THREAD = "__epilogue__"


# ---------------------------------------------------------------------------
# Variables, expressions, conditions
# ---------------------------------------------------------------------------

class VarId(NamedTuple):
    """A variable: global (owner is None) or local to one thread.  A named
    tuple, so the dict probes of every env operation hash and compare it in
    C.  Its hash is the hash of the tuple (name, owner), so dict and set
    orders are those of the fields; a pickled VarId is rebuilt from its
    fields and rehashed where it is loaded, since str hashes differ between
    processes.  Its repr is `VarId(name=..., owner=...)`, and it equals the
    plain tuple (name, owner)."""
    name: str
    owner: str | None = None

    @property
    def is_global(self) -> bool:
        return self.owner is None

    def __str__(self) -> str:
        if self.owner is None:
            return self.name
        return f"{self.owner}.{self.name}"


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Var:
    var: VarId


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*'
    left: Expr
    right: Expr


Expr = Const | Var | BinOp


@dataclass(frozen=True)
class Cmp:
    op: str  # '==', '!=', '<', '<=', '>', '>='
    left: Expr
    right: Expr


@dataclass(frozen=True)
class And:
    left: Cond
    right: Cond


@dataclass(frozen=True)
class Or:
    left: Cond
    right: Cond


@dataclass(frozen=True)
class Not:
    cond: Cond


Cond = Cmp | And | Or | Not


def expr_vars(e: Expr) -> set[VarId]:
    if isinstance(e, Const):
        return set()
    if isinstance(e, Var):
        return {e.var}
    return expr_vars(e.left) | expr_vars(e.right)


def cond_vars(c: Cond) -> set[VarId]:
    if isinstance(c, Cmp):
        return expr_vars(c.left) | expr_vars(c.right)
    if isinstance(c, Not):
        return cond_vars(c.cond)
    return cond_vars(c.left) | cond_vars(c.right)


_NEGATE = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def negate(cond: Cond) -> Cond:
    if isinstance(cond, Cmp):
        return Cmp(_NEGATE[cond.op], cond.left, cond.right)
    if isinstance(cond, Not):
        return cond.cond
    if isinstance(cond, And):
        return Or(negate(cond.left), negate(cond.right))
    if isinstance(cond, Or):
        return And(negate(cond.left), negate(cond.right))
    raise TypeError(cond)


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Load:
    dst: VarId  # local
    src: VarId  # global


@dataclass(frozen=True)
class Store:
    dst: VarId  # global
    src: Expr   # pure expression over locals/constants


@dataclass(frozen=True)
class LocalAssign:
    dst: VarId
    src: Expr


@dataclass(frozen=True)
class Fence:
    pass


MEMBAR_KINDS = ("LL", "LS", "SL", "SS")


class MemoryModel(enum.Enum):
    SC = "sc"
    TSO = "tso"
    PSO = "pso"
    RMO = "rmo"

    def __str__(self) -> str:
        return self.value.upper()


@dataclass(frozen=True)
class Membar:
    kinds: frozenset[str]


@dataclass(frozen=True)
class Assume:
    cond: Cond


@dataclass(frozen=True)
class Assert:
    cond: Cond
    location: str = ""


@dataclass(frozen=True)
class ThreadCreate:
    child: str


@dataclass(frozen=True)
class ThreadJoin:
    child: str


@dataclass(frozen=True)
class Nop:
    pass


Instruction = (
    Load | Store | LocalAssign | Fence | Membar | Assume | Assert
    | ThreadCreate | ThreadJoin | Nop
)


# ---------------------------------------------------------------------------
# Flow graphs and programs
# ---------------------------------------------------------------------------

@dataclass
class FlowGraph:
    """One thread's flow graph.  Adjacency, reachability, dominators, loop
    nodes and the visit plan are built on first use and never rebuilt, so
    nodes and edges are fixed from then on."""
    thread: str
    nodes: dict[int, Instruction]
    entry: int
    exit: int
    edges: set[tuple[int, int]]

    @cached_property
    def adjacency(self) -> tuple[dict[int, tuple[int, ...]], ...]:
        """(successors, predecessors) of each node, in ascending order; a
        node with none has no entry."""
        succ: dict[int, tuple[int, ...]] = {}
        pred: dict[int, tuple[int, ...]] = {}
        for a, b in sorted(self.edges):
            succ[a] = succ.get(a, ()) + (b,)
            pred[b] = pred.get(b, ()) + (a,)
        return succ, pred

    def successors(self, n: int) -> tuple[int, ...]:
        return self.adjacency[0].get(n, ())

    def predecessors(self, n: int) -> tuple[int, ...]:
        return self.adjacency[1].get(n, ())

    @cached_property
    def reachable(self) -> dict[int, int]:
        """The mask of the nodes reachable from each node through one or more
        edges: the closure of the successor edges."""
        rows = closure({n: sum(1 << s for s in succ)
                        for n, succ in self.adjacency[0].items()},
                       max(self.nodes) + 1)
        return {n: rows[n] for n in sorted(self.nodes)}

    @cached_property
    def dominators(self) -> dict[int, int]:
        """The mask of the strict dominators of every node: a is in
        dominators[b] iff a != b and every path entry->b passes through a.
        Standard iterative dataflow over the node set, so a node that the
        entry cannot reach is dominated by every other node."""
        every = sum(1 << n for n in self.nodes)
        dom = dict.fromkeys(sorted(self.nodes), every)
        dom[self.entry] = 1 << self.entry
        while True:
            before = dict(dom)
            for n in dom:
                if n != self.entry:
                    dom[n] = reduce(and_, map(dom.get, self.predecessors(n)),
                                    every) | 1 << n
            if dom == before:
                return {n: d & ~(1 << n) for n, d in dom.items()}

    @cached_property
    def loop_nodes(self) -> frozenset[int]:
        """Nodes lying on some cycle (self-reachable through >=1 edge)."""
        return frozenset(n for n, r in self.reachable.items() if r >> n & 1)

    @cached_property
    def plan(self) -> list[tuple]:
        """The interval fixpoint's visit plan: the nodes the entry reaches,
        in reverse postorder of a depth-first search from the entry that
        takes successors in ascending order, so a node's rank is its index
        and the entry has rank 0.  Entry k is (node, its instruction, its
        predecessors (the `adjacency` tuple), the mask of its successors'
        ranks, whether it widens (it is a loop node), a load's source
        variable (None for any other instruction)).  Every edge to a lower
        or equal rank closes a cycle."""
        succ, pred = self.adjacency
        order, seen = [], {self.entry}
        stack = [(self.entry, iter(succ.get(self.entry, ())))]
        while stack:
            n, rest = stack[-1]
            for s in rest:
                if s not in seen:
                    seen.add(s)
                    stack.append((s, iter(succ.get(s, ()))))
                    break
            else:
                order.append(stack.pop()[0])
        order.reverse()
        rank = {n: k for k, n in enumerate(order)}
        instrs = [self.nodes[n] for n in order]
        return [(n, i, pred.get(n, ()),
                 sum(1 << rank[s] for s in succ.get(n, ())),
                 n in self.loop_nodes, i.src if isinstance(i, Load) else None)
                for n, i in zip(order, instrs)]


def bits(mask: int) -> Iterator[int]:
    """The nodes of a node mask (the indices of its set bits), lowest
    first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closure(targets: dict[int, int], size: int) -> list[int]:
    """The transitive closure of the edges a -> t for every bit t of
    targets[a], as `size` rows: the least fixpoint of rows[a] = targets[a]
    | OR of rows[t] over the targets t of a.

    The sources are swept by descending id until no row changes.  A row is
    settled once it is computed from settled rows only (a node without
    targets has the settled row 0): it is then final and closed, so later
    sweeps skip it, and no target inside it needs its own row read.  Edges
    mostly point to higher ids, so most rows settle in the first sweep;
    the rest (an edge to a lower id, or a cycle) are swept again."""
    rows = [0] * size
    unsettled = sum(1 << a for a in targets)
    sweep = sorted(targets, reverse=True)
    while sweep:
        again, changed = [], False
        for a in sweep:
            row = rest = targets[a]
            while rest:
                low = rest & -rest
                t = low.bit_length() - 1
                row |= rows[t]
                rest ^= low
                if not unsettled & low:
                    rest &= ~rows[t]
            if row != rows[a]:
                rows[a], changed = row, True
            if targets[a] & unsettled:
                again.append(a)
            else:
                unsettled ^= 1 << a
        sweep = again if changed else []
    return rows


@dataclass
class Program:
    globals: dict[VarId, int]
    threads: dict[str, FlowGraph]  # includes the root graph
    root: str = ROOT_THREAD
    # node id of the virtual initializing store for each global
    init_stores: dict[VarId, int] = field(default_factory=dict)


def validate(program: Program) -> list[str]:
    """Structural diagnostics; empty list iff the program is well formed."""
    diags: list[str] = []
    seen_nodes: set[int] = set()

    for name in sorted(program.threads):
        g = program.threads[name]
        if g.entry not in g.nodes:
            diags.append(f"{name}: entry node {g.entry} missing")
            continue
        if g.exit not in g.nodes:
            diags.append(f"{name}: exit node {g.exit} missing")
            continue
        if min(g.nodes) < 0:  # node masks need non-negative ids
            diags.append(f"{name}: negative node id {min(g.nodes)}")
            continue
        for n in g.nodes:
            if n in seen_nodes:
                diags.append(f"{name}: node {n} reused across graphs")
            seen_nodes.add(n)
        dangling = [(a, b) for (a, b) in sorted(g.edges)
                    if a not in g.nodes or b not in g.nodes]
        for (a, b) in dangling:
            diags.append(f"{name}: edge ({a},{b}) references unknown node")
        if g.predecessors(g.entry):
            diags.append(f"{name}: entry node {g.entry} has incoming edges")
        if g.successors(g.exit):
            diags.append(f"{name}: exit node {g.exit} has outgoing edges")
        if not dangling:  # the reach masks read only edges inside the graph
            reach = g.reachable[g.entry]
            diags += [f"{name}: node {n} unreachable from entry"
                      for n in sorted(g.nodes)
                      if n != g.entry and not reach >> n & 1]

        for n in sorted(g.nodes):
            instr = g.nodes[n]
            diags.extend(_check_instr(program, name, n, instr))

    # thread creation structure
    for name in sorted(program.threads):
        g = program.threads[name]
        for n in sorted(g.nodes):
            instr = g.nodes[n]
            if isinstance(instr, (ThreadCreate, ThreadJoin)):
                if instr.child not in program.threads:
                    diags.append(f"{name}: node {n} targets unknown thread "
                                 f"'{instr.child}'")
    creates = Counter(i.child for g in program.threads.values()
                      for i in g.nodes.values() if isinstance(i, ThreadCreate))
    diags += [f"thread '{child}' has {k} create nodes"
              for child, k in sorted(creates.items()) if k > 1]
    if program.root not in program.threads:
        diags.append(f"root graph '{program.root}' missing")
    child = creation_cycle({
        name: [(i.child, i.child) for i in g.nodes.values()
               if isinstance(i, ThreadCreate) and i.child in program.threads]
        for name, g in program.threads.items()})
    if child is not None:
        diags.append(f"thread creation cycle involving '{child}'")
    return diags


def _check_instr(program: Program, thread: str, n: int,
                 instr: Instruction) -> list[str]:
    diags = []

    def check_local(v: VarId, what: str) -> None:
        if v.is_global:
            diags.append(f"{thread}: node {n}: {what} must be local, got "
                         f"global '{v.name}'")
        elif v.owner != thread:
            diags.append(f"{thread}: node {n}: {what} '{v}' belongs to "
                         f"another thread")

    def check_pure(vs: set[VarId], what: str) -> None:
        for v in sorted(vs, key=str):
            if v.is_global:
                diags.append(f"{thread}: node {n}: {what} mentions global "
                             f"'{v.name}'")
            else:
                check_local(v, what)

    if isinstance(instr, Load):
        check_local(instr.dst, "load destination")
        if not instr.src.is_global:
            diags.append(f"{thread}: node {n}: load source '{instr.src}' "
                         f"is not global")
    elif isinstance(instr, Store):
        if not instr.dst.is_global:
            diags.append(f"{thread}: node {n}: store destination "
                         f"'{instr.dst}' is not global")
        check_pure(expr_vars(instr.src), "store expression")
    elif isinstance(instr, LocalAssign):
        check_local(instr.dst, "assignment destination")
        check_pure(expr_vars(instr.src), "assignment expression")
    elif isinstance(instr, Assume):
        check_pure(cond_vars(instr.cond), "assume condition")
    elif isinstance(instr, Assert):
        check_pure(cond_vars(instr.cond), "assert condition")
    elif isinstance(instr, Membar):
        if not instr.kinds or not instr.kinds <= set(MEMBAR_KINDS):
            diags.append(f"{thread}: node {n}: bad membar kinds "
                         f"{sorted(instr.kinds)}")
    return diags


T = TypeVar("T")


def creation_cycle(creates: Mapping[str, Iterable[tuple[str, T]]]
                   ) -> T | None:
    """The label of a create edge that closes a thread creation cycle, or
    None when there is no cycle.  `creates` maps every thread to its
    (child, label) create edges.  The depth-first search keeps its own
    stack, so a long creation chain cannot reach the recursion limit."""
    done: set[str] = set()
    for root in creates:
        path, todo = {root: None}, [iter(creates[root])]  # dict: ordered set
        while todo:
            child, label = next(todo[-1], (None, None))
            if child is None:
                done.add(path.popitem()[0])
                todo.pop()
            elif child in path:
                return label
            elif child not in done:
                path[child] = None
                todo.append(iter(creates[child]))
    return None
