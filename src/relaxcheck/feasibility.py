"""Feasibility of inter-thread data-flow combinations under a memory model.

Given a memory model, the engine derives which same-thread instruction pairs
can never be reordered (NoReorder), then decides the paper's rules (1)-(6):
a must-happen-before relation (MHB) and a refuted-data-flow relation
(MustNotReadFrom), used to reject interference combinations that cannot
occur in any concrete execution.  `datalog.py` transcribes the rules as a
least fixpoint over sets, the specification the tests hold this module to;
this module evaluates them with a closure over bitsets instead, and reads
Dominates and NotReachableFrom as per-node masks rather than as pair sets.

MHB is kept transitively closed as one row per node id, a node mask like
every per-node node set of the package: bit b of row a means MHB(a, b).
Adding the edges a -> T keeps the rows closed in one pass, with no
Warshall step: a, and every row that has bit a, gains T and the rows of T.
The rows under no reads-from facts (rules (1)-(3)) are built once per
context.  `add_facts` closes rows under more facts: it adds each new fact's
store -> load edge and applies rule (4) until nothing changes.  Both ways
of asking use it and `must_not_read_from` (rules (5) and (6)):

- `check_facts` decides one fact set from the base rows.
- `extend` is one step of a depth-first enumeration: it adds a single fact
  to the rows of a feasible prefix and re-checks rules (5) and (6) for the
  facts the new one can affect.  The rules are monotone in the facts, so a
  refuted prefix refutes every set that extends it.
"""
from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

from .ir import Program, VarId, bits
from .relations import RelationStore, extract_all


Fact = tuple[int, int]  # reads-from: (load node, store node)
#: a depth-first enumeration's state: MHB rows closed under the facts
Prefix = tuple[list[int], tuple[Fact, ...]]


class MemoryModel(enum.Enum):
    SC = "sc"
    TSO = "tso"
    PSO = "pso"
    RMO = "rmo"

    def __str__(self) -> str:
        return self.value.upper()


class ContractViolation(Exception):
    """Malformed interference combination (distinct from Infeasible)."""


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: tuple[int, int] | None = None  # refuted (load, store) pair

    def __bool__(self) -> bool:
        return self.feasible


def compute_no_reorder(model: MemoryModel, store: RelationStore,
                       program: Program) -> set[tuple[int, int]]:
    """Same-thread pairs (s1,s2), s1 program-order-before s2, that no
    execution under the model may reorder.  Fences and the
    thread-management points are ordered with everything in their thread:
    create/join act as full barriers, and entry/exit anchor the
    cross-thread ordering rules."""
    strong = (store.is_fence | {c for c, _ in store.thread_creates}
              | {j for j, _ in store.thread_joins})
    pairs: set[tuple[int, int]] = set()
    for name in sorted(program.threads):
        g = program.threads[name]
        interesting = []
        for n in sorted(g.nodes):
            kind = ("L" if n in store.load_var
                    else "S" if n in store.store_var else None)
            c = (kind, store.load_var.get(n, store.store_var.get(n)),
                 n in strong or n in (g.entry, g.exit))
            if kind is not None or c[2]:
                interesting.append((n, c, 1 << n))
        for s1, c1, bit1 in interesting:
            # s1 must be able to precede s2 in program order
            after = store.reach[s1] & ~bit1
            for s2, c2, bit2 in interesting:
                if after & bit2 and _base_no_reorder(model, c1, c2):
                    pairs.add((s1, s2))
    pairs |= _membar_pairs(store)
    return pairs


def _base_no_reorder(model: MemoryModel, c1, c2) -> bool:
    """Whether the model keeps s1 before s2, from their (access kind,
    variable, strong)."""
    (k1, v1, strong1), (k2, v2, strong2) = c1, c2
    if strong1 or strong2:
        return True
    if k1 is None or k2 is None:
        return False
    if model is MemoryModel.SC:
        return True
    if model is MemoryModel.TSO:
        # only store->load pairs may be reordered (incl. same variable,
        # which the store buffer forwards)
        return k1 == "L" or k2 == "S"
    if model is MemoryModel.PSO:
        return k1 == "L" or (k1 == "S" and k2 == "S" and v1 == v2)
    # RMO keeps only same-variable pairs, except store->load (forwarding)
    return v1 == v2 and not (k1 == "S" and k2 == "L")


def _membar_pairs(store: RelationStore) -> set[tuple[int, int]]:
    """(s1, s2) with s1 dominating a membar of kind k1k2 that dominates
    s2, s1 of access kind k1 and s2 of access kind k2."""
    of_kind = {"L": store.load_var, "S": store.store_var}
    firsts = {k: sum(1 << n for n in nodes) for k, nodes in of_kind.items()}
    pairs: set[tuple[int, int]] = set()
    for kind, members in store.membars.items():
        membars = sum(1 << m for m in members)
        for s2 in of_kind[kind[1]]:
            for m in bits(store.dominators[s2] & membars):
                pairs.update((s1, s2) for s1 in
                             bits(store.dominators[m] & firsts[kind[0]]))
    return pairs


# ---------------------------------------------------------------------------
# MHB as a closure over bitset rows
# ---------------------------------------------------------------------------

def _insert(rows: list[int], a: int, targets: int) -> None:
    """Add MHB(a, t) for every bit t of targets to the closed rows, keeping
    them closed: a, and every node before a, gain the targets and every
    node after them."""
    add = targets
    for t in bits(targets):
        add |= rows[t]
    if not add & ~rows[a]:
        return  # row a, and every row before a (a superset), has add
    before_a = 1 << a
    for i, row in enumerate(rows):
        if row & before_a or i == a:
            rows[i] = row | add


def deduce_mhb(store: RelationStore,
               no_reorder: set[tuple[int, int]]) -> tuple[int, ...]:
    """MHB rows under no reads-from facts, one per node id up to the
    largest: the closure of the edges of rules (1) and (2)."""
    edges = (store.thread_creates
             | {(x, j) for j, x in store.thread_joins}
             | {(a, b) for a, b in no_reorder
                if (store.dominators[b] & ~store.reach[b]) >> a & 1})
    targets: dict[int, int] = {}
    for a, b in edges:
        targets[a] = targets.get(a, 0) | 1 << b
    rows = [0] * (max(store.thread_of) + 1)
    for a in sorted(targets):
        _insert(rows, a, targets[a])
    return tuple(rows)


# ---------------------------------------------------------------------------
# Combination feasibility
# ---------------------------------------------------------------------------

class FeasibilityContext:
    """Per-(program, model) engine with the static relations precomputed."""

    def __init__(self, program: Program, model: MemoryModel,
                 store: RelationStore | None = None):
        self.program = program
        self.model = model
        self.store = store if store is not None else extract_all(program)
        self.no_reorder = compute_no_reorder(model, self.store, program)
        self._stores_of: dict[VarId, int] = {}
        for s, v in self.store.store_var.items():
            self._stores_of[v] = self._stores_of.get(v, 0) | 1 << s
        # MHB under no reads-from assumptions; every query starts from it
        self._base_rows = deduce_mhb(self.store, self.no_reorder)
        # per load: the init store, when no same-thread store to its
        # variable can reach it (otherwise the sequential value may be a
        # forwarded own write, and no single source can be asserted)
        own_stores: dict[tuple[str, VarId], list[int]] = {}
        for s, v in self.store.store_var.items():
            own_stores.setdefault((self.store.thread_of[s], v), []).append(s)
        self._init_source: dict[int, int | None] = {}
        for l, v in self.store.load_var.items():
            own = own_stores.get((self.store.thread_of[l], v), ())
            forwarded = any(self.store.reach[s] >> l & 1 for s in own)
            self._init_source[l] = (None if forwarded
                                    else program.init_stores.get(v))
        self._cache: dict[frozenset, FeasibilityResult] = {}

    @cached_property
    def base_mhb(self) -> set[tuple[int, int]]:
        return self.mhb_pairs(self._base_rows)

    def mhb_pairs(self, rows: Sequence[int]) -> set[tuple[int, int]]:
        """The MHB relation the rows encode, as (node, node) pairs."""
        return {(a, b) for a, row in enumerate(rows) for b in bits(row)}

    # -- building reads-from fact sets -------------------------------------
    def fact(self, load: int, source: int | None) -> Fact | None:
        """The reads-from fact of `load` reading `source`: the chosen remote
        store, or for None (no interference) — when the load's sequential
        value can only be the initial one — the virtual init store; None
        when no fact applies."""
        var = self.store.load_var.get(load)
        if var is None:
            raise ContractViolation(f"node {load} is not a load")
        if source is None:
            init = self._init_source[load]
            return None if init is None else (load, init)
        if self.store.store_var.get(source) != var:
            raise ContractViolation(f"store {source} does not write {var}")
        if self.store.thread_of[source] == self.store.thread_of[load]:
            raise ContractViolation(
                f"store {source} is not remote to load {load}")
        return load, source

    def facts_for(self, sources: dict[int, int | None]) -> frozenset[Fact]:
        """Reads-from facts of a choice of source per load (see `fact`)."""
        return frozenset(f for load, source in sources.items()
                         if (f := self.fact(load, source)) is not None)

    # -- deciding the rules ------------------------------------------------
    def add_facts(self, rows: Sequence[int], facts: Sequence[Fact],
                  new: Sequence[Fact]) -> list[int]:
        """A copy of `rows`, which are closed under the reads-from `facts`,
        closed under `facts` and `new`.  Every fact pairs a load with a
        store in another thread, which cannot be forwarded from a buffer:
        the store commits first.  Rule (4) then orders the load before
        every same-variable store after its source.  While the rows stay
        as they were, only the new facts' rule (4) can add an edge."""
        load_var, store_var = self.store.load_var, self.store.store_var
        before, rows = rows, list(rows)
        for load, source in new:
            _insert(rows, source, 1 << load)

        def flows(facts):
            return [(load, source, self._stores_of[var])
                    for load, source in facts
                    if (var := load_var.get(load)) is not None
                    and store_var.get(source) == var]

        every = rows != before
        pending = flows([*facts, *new] if every else new)
        while True:
            changed = False
            for load, source, same_var in pending:
                gain = rows[source] & same_var & ~rows[load]
                if gain:
                    _insert(rows, load, gain)
                    changed = True
            if not changed:
                return rows
            if not every:
                every, pending = True, flows([*facts, *new])

    def mhb_rows(self, facts: Iterable[Fact]) -> list[int]:
        """The base MHB rows closed under the reads-from facts."""
        return self.add_facts(self._base_rows, (), tuple(facts))

    def must_not_read_from(self, rows: Sequence[int], facts: Iterable[Fact],
                           load: int, source: int) -> bool:
        """Rules (5) and (6) for one pair, on the rows `mhb_rows(facts)`."""
        var = self.store.load_var.get(load)
        if var is None or self.store.store_var.get(source) != var:
            return False
        # (5) the load must precede the store
        if rows[load] >> source & 1:
            return True
        # (6) another load of var read the store, and a store to var lies
        #     between that load and this one
        same_var = self._stores_of[var]
        for first, read in facts:
            if read == source and self.store.load_var.get(first) == var:
                for s2 in bits(rows[first] & same_var):
                    if rows[s2] >> load & 1:
                        return True
        return False

    def check_facts(self, facts: frozenset[Fact]) -> FeasibilityResult:
        if facts in self._cache:
            return self._cache[facts]
        rows = self.mhb_rows(facts)
        result = FeasibilityResult(True)
        for pair in sorted(facts):
            if self.must_not_read_from(rows, facts, *pair):
                result = FeasibilityResult(False, witness=pair)
                break
        self._cache[facts] = result
        return result

    def root(self) -> Prefix:
        """The prefix of a depth-first enumeration that chose nothing."""
        return list(self._base_rows), ()

    def extend(self, prefix: Prefix, load: int, source: int | None
               ) -> Prefix | None:
        """One step of a depth-first enumeration: the feasible `prefix`
        (rows closed under its facts, as `root` and `extend` return them)
        plus the fact of `load` reading `source`, or None when the rules
        refute the larger fact set, and so every set that contains it.

        With the rows grown, every fact is checked again.  With the rows
        unchanged, only the new fact can be refuted: an earlier fact (l2, s)
        refuted by rule (6) through the new fact (l, s) has l -> s2 -> l2
        for a store s2 to the variable, and s -> l held already, so s -> s2
        and rule (4) gave l2 -> s2: rule (6) through (l2, s) itself had
        refuted it before."""
        rows, facts = prefix
        fact = self.fact(load, source)
        if fact is None:
            return prefix
        grown = (*facts, fact)
        new_rows = self.add_facts(rows, facts, (fact,))
        suspects = (fact,) if new_rows == rows else grown
        if any(self.must_not_read_from(new_rows, grown, *pair)
               for pair in suspects):
            return None
        return new_rows, grown


def check_feasible(program: Program, model: MemoryModel,
                   sources: dict[int, int | None]) -> FeasibilityResult:
    """One-shot feasibility of a choice of source per load (see
    `FeasibilityContext.facts_for`)."""
    ctx = FeasibilityContext(program, model)
    return ctx.check_facts(ctx.facts_for(sources))
