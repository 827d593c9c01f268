"""Static relation extraction from a program's flow graphs.

Derives, once per program, every fact the feasibility engine reads that
does not depend on the memory model: instruction classifiers (IsLoad,
IsStore, IsFence, per-kind membars), the per-variable loads and stores,
each thread's nodes, entries and exits, the init stores and each load's
init source, the cross-thread ThreadCreates/ThreadJoins edges, and per
thread Dominates and NotReachableFrom.  Every node set is a node mask; the
last two are stored per node, as each node's strict dominators and the
nodes reachable from it: references to the masks every `FlowGraph`
computes once, so no analysis builds a quadratic pair set.  Only NoReorder
and MHB depend on the model (`FeasibilityContext`), so one store can serve
every model.  `FeasibilityContext.relation_facts` decodes the masks into
Datalog facts for the dump and the spec.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ir import (
    MEMBAR_KINDS, Fence, Load, Membar, Program, Store, ThreadCreate,
    ThreadJoin, VarId, bits,
)


@dataclass
class RelationStore:
    """Named finite relations over node ids (and variables); every node
    set is a node mask."""
    load_var: dict[int, VarId] = field(default_factory=dict)
    store_var: dict[int, VarId] = field(default_factory=dict)
    #: variable -> the mask of its loads, and of its stores (init included)
    loads_of: dict[VarId, int] = field(default_factory=dict)
    stores_of: dict[VarId, int] = field(default_factory=dict)
    fences: int = 0
    #: membar kind -> the mask of the nodes of that kind (fences included)
    membars: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(MEMBAR_KINDS, 0))
    #: node -> the mask of its strict dominators (`FlowGraph.dominators`)
    dominators: dict[int, int] = field(default_factory=dict)
    #: node -> the mask of the nodes reachable from it (`FlowGraph.reachable`)
    reach: dict[int, int] = field(default_factory=dict)
    #: create node -> the child's entry; join node -> the child's exit
    thread_creates: dict[int, int] = field(default_factory=dict)
    thread_joins: dict[int, int] = field(default_factory=dict)
    thread_of: dict[int, str] = field(default_factory=dict)
    #: thread -> the mask of its nodes
    thread_nodes: dict[str, int] = field(default_factory=dict)
    #: every thread's entry and exit
    ends: int = 0
    init_stores: int = 0
    #: load -> the init store of its variable when no store to the
    #: variable reaches the load, else None (only an own store can, and
    #: then the sequential value may be a forwarded own write, so no
    #: single source can be asserted)
    init_source: dict[int, int | None] = field(default_factory=dict)


def extract_all(program: Program) -> RelationStore:
    """Every relation of the program.  Fence nodes enter IsFence and all
    four membar relations; Membar nodes enter exactly their declared
    kinds."""
    store = RelationStore()
    for name in sorted(program.threads):
        g = program.threads[name]
        store.dominators.update(g.dominators)
        store.reach.update(g.reachable)
        store.ends |= 1 << g.entry | 1 << g.exit
        own = 0
        for n in sorted(g.nodes):
            instr, bit = g.nodes[n], 1 << n
            store.thread_of[n] = name
            own |= bit
            if isinstance(instr, Load):
                store.load_var[n] = v = instr.src
                store.loads_of[v] = store.loads_of.get(v, 0) | bit
            elif isinstance(instr, Store):
                store.store_var[n] = v = instr.dst
                store.stores_of[v] = store.stores_of.get(v, 0) | bit
            elif isinstance(instr, Fence):
                store.fences |= bit
                for kind in MEMBAR_KINDS:
                    store.membars[kind] |= bit
            elif isinstance(instr, Membar):
                for kind in instr.kinds:
                    store.membars[kind] |= bit
            elif isinstance(instr, ThreadCreate):
                store.thread_creates[n] = program.threads[instr.child].entry
            elif isinstance(instr, ThreadJoin):
                store.thread_joins[n] = program.threads[instr.child].exit
        store.thread_nodes[name] = own
    store.init_stores = sum(1 << n for n in program.init_stores.values())
    reached: dict[VarId, int] = {}  # per variable: what its stores reach
    for v, stores in store.stores_of.items():
        for s in bits(stores):
            reached[v] = reached.get(v, 0) | store.reach[s]
    store.init_source = {
        l: None if reached.get(v, 0) >> l & 1 else program.init_stores.get(v)
        for l, v in store.load_var.items()}
    return store
