"""Static relation extraction from a program's flow graphs.

Populates the finite relations the deductive feasibility engine consumes:
instruction classifiers (IsLoad, IsStore, IsFence, per-kind membars), the
cross-thread ThreadCreates/ThreadJoins edges, and per thread Dominates and
NotReachableFrom.  The last two are stored per node, as each node's strict
dominators and the nodes reachable from it: references to the node masks
every `FlowGraph` computes once, so no analysis builds a quadratic pair
set.  `FeasibilityContext.relation_facts` decodes them into Datalog facts
for the dump and the spec.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ir import (
    Fence, Load, Membar, Program, Store, ThreadCreate, ThreadJoin, VarId,
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
