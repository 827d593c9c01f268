"""Static relation extraction from a program's flow graphs.

Populates the finite relations the deductive feasibility engine consumes:
instruction classifiers (IsLoad, IsStore, IsFence, per-kind membars),
per-thread Dominates and NotReachableFrom, and the cross-thread
ThreadCreates/ThreadJoins edges.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ir import (
    Fence, FlowGraph, Load, Membar, Program, Store, ThreadCreate, ThreadJoin,
    VarId,
)


@dataclass
class RelationStore:
    """Named finite relations over node ids (and variables)."""
    load_var: dict[int, VarId] = field(default_factory=dict)
    store_var: dict[int, VarId] = field(default_factory=dict)
    is_fence: set[int] = field(default_factory=set)
    membars: dict[str, set[int]] = field(
        default_factory=lambda: {"LL": set(), "LS": set(),
                                 "SL": set(), "SS": set()})
    dominates: set[tuple[int, int]] = field(default_factory=set)
    not_reachable_from: set[tuple[int, int]] = field(default_factory=set)
    thread_creates: set[tuple[int, int]] = field(default_factory=set)
    thread_joins: set[tuple[int, int]] = field(default_factory=set)
    thread_of: dict[int, str] = field(default_factory=dict)

    # IsLoad/IsStore as relations, for the dump and the Datalog spec
    @property
    def is_load(self) -> set[tuple[int, VarId]]:
        return set(self.load_var.items())

    @property
    def is_store(self) -> set[tuple[int, VarId]]:
        return set(self.store_var.items())

    def dump(self) -> str:
        """Deterministic text dump of every relation, one tuple per line."""
        lines: list[str] = []

        def pair_lines(name: str, pairs) -> None:
            for a, b in sorted(pairs, key=lambda t: (str(t[0]), str(t[1]))):
                lines.append(f"{name}({a},{b})")

        pair_lines("IsLoad", self.is_load)
        pair_lines("IsStore", self.is_store)
        for n in sorted(self.is_fence):
            lines.append(f"IsFence({n})")
        for kind in ("LL", "LS", "SL", "SS"):
            for n in sorted(self.membars[kind]):
                lines.append(f"Is{kind}Membar({n})")
        pair_lines("Dominates", self.dominates)
        pair_lines("NotReachableFrom", self.not_reachable_from)
        pair_lines("ThreadCreates", self.thread_creates)
        pair_lines("ThreadJoins", self.thread_joins)
        return "\n".join(lines)


def extract_unary(program: Program) -> RelationStore:
    """Instruction classifiers.  Fence nodes enter IsFence and all four
    membar relations; Membar nodes enter exactly their declared kinds."""
    store = RelationStore()
    for name in sorted(program.threads):
        g = program.threads[name]
        for n in sorted(g.nodes):
            instr = g.nodes[n]
            store.thread_of[n] = name
            if isinstance(instr, Load):
                store.load_var[n] = instr.src
            elif isinstance(instr, Store):
                store.store_var[n] = instr.dst
            elif isinstance(instr, Fence):
                store.is_fence.add(n)
                for kind in store.membars:
                    store.membars[kind].add(n)
            elif isinstance(instr, Membar):
                for kind in instr.kinds:
                    store.membars[kind].add(n)
    return store


def compute_dominates(graph: FlowGraph) -> set[tuple[int, int]]:
    """Strict domination: (a,b) iff a != b and every path entry->b passes
    through a.  Standard iterative dataflow over the node set."""
    nodes = sorted(graph.nodes)
    all_set = set(nodes)
    dom: dict[int, set[int]] = {n: set(all_set) for n in nodes}
    dom[graph.entry] = {graph.entry}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            if n == graph.entry:
                continue
            preds = graph.predecessors(n)
            new = set(all_set)
            for p in preds:
                new &= dom[p]
            new.add(n)
            if new != dom[n]:
                dom[n] = new
                changed = True
    return {(a, b) for b in nodes for a in dom[b] if a != b}


def compute_not_reachable_from(graph: FlowGraph) -> set[tuple[int, int]]:
    """(s1,s2) iff there is no directed path from s2 to s1."""
    nodes = sorted(graph.nodes)
    reach = graph.reachable
    return {(s1, s2) for s2 in nodes for s1 in nodes
            if s1 != s2 and s1 not in reach[s2]}


def compute_thread_edges(program: Program) -> tuple[set[tuple[int, int]],
                                                    set[tuple[int, int]]]:
    creates: set[tuple[int, int]] = set()
    joins: set[tuple[int, int]] = set()
    for name in sorted(program.threads):
        g = program.threads[name]
        for n in sorted(g.nodes):
            instr = g.nodes[n]
            if isinstance(instr, ThreadCreate):
                creates.add((n, program.threads[instr.child].entry))
            elif isinstance(instr, ThreadJoin):
                joins.add((n, program.threads[instr.child].exit))
    return creates, joins


def extract_all(program: Program) -> RelationStore:
    store = extract_unary(program)
    for name in sorted(program.threads):
        g = program.threads[name]
        store.dominates |= compute_dominates(g)
        store.not_reachable_from |= compute_not_reachable_from(g)
    store.thread_creates, store.thread_joins = compute_thread_edges(program)
    return store
