"""Feasibility of inter-thread data-flow combinations under a memory model.

Given a memory model, the engine derives which same-thread instruction pairs
can never be reordered (NoReorder), then decides the paper's rules (1)-(6):
a must-happen-before relation (MHB) and a refuted-data-flow relation
(MustNotReadFrom), used to reject interference combinations that cannot
occur in any concrete execution.  `datalog.py` transcribes the rules as a
least fixpoint over sets, the specification the tests hold this module to;
this module evaluates them with a closure over bitsets instead, and reads
Dominates, NotReachableFrom and NoReorder as one node mask per node: the
node's dominators, its reach, and the nodes the model keeps before it.

MHB is kept transitively closed as one row per node id, a node mask like
every per-node node set of the package: bit b of row a means MHB(a, b).
Adding the edges a -> T keeps the rows closed in one pass, with no
Warshall step: a, and every row that has bit a, gains T and the rows of T.
The rows under no reads-from facts (rules (1)-(3)) are built once per
context, as the least fixpoint of their edges (`deduce_mhb`).  `add_facts`
closes rows under more facts: it adds each new fact's store -> load edge
and applies rule (4) until nothing changes.  Both ways of asking use it
and `must_not_read_from` (rules (5) and (6)):

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


def _masks_by_var(var_of: dict[int, VarId]) -> dict[VarId, int]:
    """Per variable, the mask of the nodes that access it."""
    masks: dict[VarId, int] = {}
    for n, v in var_of.items():
        masks[v] = masks.get(v, 0) | 1 << n
    return masks


def compute_no_reorder(model: MemoryModel, store: RelationStore,
                       program: Program) -> tuple[int, ...]:
    """NoReorder as one node mask per node id up to the largest: bit a of
    mask b says that the model keeps a before b whenever a comes before b
    in program order, which the mask does not test.  Fences, create/join
    (full barriers) and each thread's entry/exit are kept with everything;
    a membar of kind k1k2 that dominates an access b of kind k2 keeps
    before b every access of kind k1 that dominates the membar."""
    loads_of = _masks_by_var(store.load_var)
    stores_of = _masks_by_var(store.store_var)
    of_kind = {"L": sum(loads_of.values()), "S": sum(stores_of.values())}
    loads, accesses = of_kind["L"], of_kind["L"] | of_kind["S"]
    barriers = {n for n, _ in store.thread_creates | store.thread_joins}
    ends = {n for g in program.threads.values() for n in (g.entry, g.exit)}
    strong = sum(1 << n for n in store.is_fence | barriers | ends)
    membars = {kind: sum(1 << m for m in members)
               for kind, members in store.membars.items()}
    kept = [0] * (max(store.thread_of) + 1)
    for b in bits(accesses | strong):
        if strong >> b & 1:
            kept[b] = accesses | strong
            continue
        kind = "L" if loads >> b & 1 else "S"
        var = store.load_var[b] if kind == "L" else store.store_var[b]
        own_loads, own_stores = loads_of.get(var, 0), stores_of.get(var, 0)
        # what the model keeps before a load b and before a store b: TSO
        # relaxes store->load only (same variable too: the buffer
        # forwards), PSO also store->store on two variables, and RMO keeps
        # only same-variable pairs, except store->load
        keep = {MemoryModel.SC: (accesses, accesses),
                MemoryModel.TSO: (loads, accesses),
                MemoryModel.PSO: (loads, loads | own_stores),
                MemoryModel.RMO: (own_loads, own_loads | own_stores),
                }[model][kind == "S"]
        for first in "LS":
            for m in bits(store.dominators[b] & membars[first + kind]):
                keep |= store.dominators[m] & of_kind[first]
        kept[b] = keep | strong
    return tuple(kept)


def node_pairs(masks: Sequence[int]) -> set[tuple[int, int]]:
    """The (n, m) pairs with bit m set in the mask of node n."""
    return {(n, m) for n, mask in enumerate(masks) for m in bits(mask)}


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


def _closure(targets: dict[int, int], size: int) -> list[int]:
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


def deduce_mhb(store: RelationStore,
               no_reorder: Sequence[int]) -> tuple[int, ...]:
    """MHB rows under no reads-from facts, one per node id up to the
    largest: the closure of the edges of rules (1) and (2).  Dominance
    implies program order, so rule (2) reads NoReorder's masks directly."""
    targets: dict[int, int] = {}
    joins = {(x, j) for j, x in store.thread_joins}
    for a, b in store.thread_creates | joins:
        targets[a] = targets.get(a, 0) | 1 << b
    for b, doms in store.dominators.items():
        for a in bits(doms & ~store.reach[b] & no_reorder[b]):
            targets[a] = targets.get(a, 0) | 1 << b
    return tuple(_closure(targets, max(store.thread_of) + 1))


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
        self.kept = compute_no_reorder(model, self.store, program)
        self._loads_of = _masks_by_var(self.store.load_var)
        self._stores_of = _masks_by_var(self.store.store_var)
        # MHB under no reads-from assumptions; every query starts from it
        self._base_rows = deduce_mhb(self.store, self.kept)
        # per load: the init store, when no store to its variable reaches
        # it (only an own store can; else the sequential value may be a
        # forwarded own write, and no single source can be asserted)
        self._init_source: dict[int, int | None] = {}
        for l, v in self.store.load_var.items():
            forwarded = any(self.store.reach[s] >> l & 1
                            for s in bits(self._stores_of.get(v, 0)))
            self._init_source[l] = (None if forwarded
                                    else program.init_stores.get(v))
        self._cache: dict[frozenset, FeasibilityResult] = {}

    # Pair-set views, for the dump and the Datalog spec
    @cached_property
    def no_reorder(self) -> set[tuple[int, int]]:
        """(a, b) iff a != b, a reaches b and the model keeps a before b:
        the bits of `kept[b]` among b's ancestors."""
        ancestors = {n: anc for g in self.program.threads.values()
                     for n, anc in g.ancestors.items()}
        return {(a, b) for b, kept in enumerate(self.kept)
                for a in bits(kept & ancestors.get(b, 0) & ~(1 << b))}

    @cached_property
    def base_mhb(self) -> set[tuple[int, int]]:
        return node_pairs(self._base_rows)

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
        same_var, var_loads = self._stores_of[var], self._loads_of[var]
        for first, read in facts:
            if read == source and var_loads >> first & 1:
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
