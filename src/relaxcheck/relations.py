"""Static relation extraction from a program's flow graphs.

Populates the finite relations the deductive feasibility engine consumes:
instruction classifiers (IsLoad, IsStore, IsFence, per-kind membars), the
cross-thread ThreadCreates/ThreadJoins edges, and per thread Dominates and
NotReachableFrom.  The last two are stored per node, as each node's strict
dominators and the nodes reachable from it: references to the node masks
every `FlowGraph` computes once, so no analysis builds a quadratic pair
set.  As pair sets they are read-only views, built on access for the dump
and the Datalog spec.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ir import (
    Fence, Load, Membar, Program, Store, ThreadCreate, ThreadJoin, VarId, bits,
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
    #: node -> the mask of its strict dominators (`FlowGraph.dominators`)
    dominators: dict[int, int] = field(default_factory=dict)
    #: node -> the mask of the nodes reachable from it (`FlowGraph.reachable`)
    reach: dict[int, int] = field(default_factory=dict)
    thread_creates: set[tuple[int, int]] = field(default_factory=set)
    thread_joins: set[tuple[int, int]] = field(default_factory=set)
    thread_of: dict[int, str] = field(default_factory=dict)

    # Pair-set views, for the dump and the Datalog spec
    @property
    def is_load(self) -> set[tuple[int, VarId]]:
        return set(self.load_var.items())

    @property
    def is_store(self) -> set[tuple[int, VarId]]:
        return set(self.store_var.items())

    @property
    def dominates(self) -> set[tuple[int, int]]:
        """(a, b) iff a strictly dominates b."""
        return {(a, b) for b, doms in self.dominators.items()
                for a in bits(doms)}

    @property
    def not_reachable_from(self) -> set[tuple[int, int]]:
        """(s1, s2) iff s1 != s2 share a thread and no path leads from s2
        to s1."""
        nodes_of: dict[str, int] = {}
        for n, name in self.thread_of.items():
            nodes_of[name] = nodes_of.get(name, 0) | 1 << n
        return {(s1, s2) for s2, after in self.reach.items()
                for s1 in bits(nodes_of[self.thread_of[s2]]
                               & ~after & ~(1 << s2))}

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


def extract_all(program: Program) -> RelationStore:
    """Every relation of the program.  Fence nodes enter IsFence and all
    four membar relations; Membar nodes enter exactly their declared
    kinds."""
    store = RelationStore()
    for name in sorted(program.threads):
        g = program.threads[name]
        store.dominators.update(g.dominators)
        store.reach.update(g.reachable)
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
            elif isinstance(instr, ThreadCreate):
                child = program.threads[instr.child]
                store.thread_creates.add((n, child.entry))
            elif isinstance(instr, ThreadJoin):
                child = program.threads[instr.child]
                store.thread_joins.add((n, child.exit))
    return store
