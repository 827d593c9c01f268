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
`FeasibilityContext.relation_facts` decodes those masks into the Datalog
facts that the spec and `--emit-relations` read; the analyzer never does.

Every other relation the rules read is model-independent and comes from
the program's `RelationStore` (`relations.py`), which a context only reads:
a context holds just NoReorder, the base MHB rows and its decided fact
sets, so contexts for several models can share one store.

MHB is kept transitively closed as one row per node id, a node mask like
every per-node node set of the package: bit b of row a means MHB(a, b).
Adding the edges a -> T keeps the rows closed in one pass, with no
Warshall step: a, and every row that has bit a, gains T and the rows of T.
The rows under no reads-from facts (rules (1)-(3)) are built once per
context, as the closure of their edges (`deduce_mhb`, with `ir.closure`).
`add_facts` closes rows under more facts: it adds each new fact's
store -> load edge and applies rule (4) until nothing changes.  One step
decides the rules for one more fact: it closes the rows of a feasible
prefix under the new fact with `add_facts`, and re-checks rules (5) and (6)
(`must_not_read_from`) for the facts the new one can affect.  The rules are
monotone in the facts, so a refuted prefix refutes every set that extends
it.  Both ways of asking take that step:

- `extend` is one level of a depth-first enumeration: the step for one
  load's choice of source.
- `check_facts` decides one fact set: it steps from the base rows through
  the sorted facts and stops at the first refusal.  It keeps each answer in
  `_cache`, the context's one memo.  The analyzer asks it only single-fact
  sets, one per (load, candidate) in every bootstrap round, so the memo
  answers every round after the first.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .ir import MemoryModel, bits, closure
from .relations import RelationStore


Fact = tuple[int, int]  # reads-from: (load node, store node)
#: a depth-first enumeration's state: MHB rows closed under the facts
Prefix = tuple[list[int], tuple[Fact, ...]]


class ContractViolation(Exception):
    """Malformed interference combination (distinct from Infeasible)."""


def compute_no_reorder(model: MemoryModel,
                       store: RelationStore) -> tuple[int, ...]:
    """NoReorder as one node mask per node id up to the largest: bit a of
    mask b says that the model keeps a before b whenever a comes before b
    in program order, which the mask does not test.  Fences, create/join
    (full barriers) and each thread's entry/exit are kept with everything;
    a membar of kind k1k2 that dominates an access b of kind k2 keeps
    before b every access of kind k1 that dominates the membar."""
    loads_of, stores_of = store.loads_of, store.stores_of
    of_kind = {"L": sum(loads_of.values()), "S": sum(stores_of.values())}
    loads, accesses = of_kind["L"], of_kind["L"] | of_kind["S"]
    barriers = sum(1 << n for n in [*store.thread_creates,
                                    *store.thread_joins])
    strong = store.fences | barriers | store.ends
    # what the model keeps before a load and before a store: a fixed mask,
    # and the per-variable masks of the access's own variable.  TSO relaxes
    # store->load only (same variable too: the buffer forwards), PSO also
    # store->store on two variables, and RMO keeps only same-variable
    # pairs, except store->load
    keep_before = {MemoryModel.SC: ((accesses, ()), (accesses, ())),
                   MemoryModel.TSO: ((loads, ()), (accesses, ())),
                   MemoryModel.PSO: ((loads, ()), (loads, (stores_of,))),
                   MemoryModel.RMO: ((0, (loads_of,)),
                                     (0, (loads_of, stores_of)))}[model]
    kept = [0] * (max(store.thread_of) + 1)
    for b in bits(accesses | strong):
        if strong >> b & 1:
            kept[b] = accesses | strong
            continue
        kind = "L" if loads >> b & 1 else "S"
        keep, own_masks = keep_before[kind == "S"]
        if own_masks:
            var = store.load_var[b] if kind == "L" else store.store_var[b]
            for masks in own_masks:
                keep |= masks.get(var, 0)
        for first in "LS":
            for m in bits(store.dominators[b]
                          & store.membars[first + kind]):
                keep |= store.dominators[m] & of_kind[first]
        kept[b] = keep | strong
    return tuple(kept)


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
               no_reorder: Sequence[int]) -> tuple[int, ...]:
    """MHB rows under no reads-from facts, one per node id up to the
    largest: the closure of the edges of rules (1) and (2).  Dominance
    implies program order, so rule (2) reads NoReorder's masks directly."""
    targets: dict[int, int] = {}
    joins = [(x, j) for j, x in store.thread_joins.items()]
    for a, b in [*store.thread_creates.items(), *joins]:
        targets[a] = targets.get(a, 0) | 1 << b
    for b, doms in store.dominators.items():
        for a in bits(doms & ~store.reach[b] & no_reorder[b]):
            targets[a] = targets.get(a, 0) | 1 << b
    return tuple(closure(targets, max(store.thread_of) + 1))


# ---------------------------------------------------------------------------
# Combination feasibility
# ---------------------------------------------------------------------------

class FeasibilityContext:
    """The model's part of the feasibility engine over one program's static
    relations: NoReorder, the base MHB rows and the decided fact sets."""

    def __init__(self, store: RelationStore, model: MemoryModel):
        self.store = store
        self.kept = compute_no_reorder(model, store)
        # MHB under no reads-from assumptions; every query starts from it
        self._base_rows = deduce_mhb(store, self.kept)
        self._cache: dict[frozenset[Fact], bool] = {}

    def relation_facts(self) -> Iterator[tuple]:
        """Every relation as Datalog facts `(relation, *args)`, decoded
        from the stored maps and masks, which `--emit-relations` prints and
        the Datalog spec reads.  The relations come in a fixed order; each
        relation's facts come in node order: by the node that holds them
        as a map entry or mask, then by the bits of the mask.  No relation
        is collected or sorted, so the stream needs no memory beyond the
        masks it decodes."""
        store, nodes = self.store, range(len(self.kept))
        for relation, var_of in (("IsLoad", store.load_var),
                                 ("IsStore", store.store_var)):
            yield from ((relation, n, var_of[n])
                        for n in nodes if n in var_of)
        yield from (("IsFence", n) for n in bits(store.fences))
        for kind, members in store.membars.items():
            yield from ((f"Is{kind}Membar", n) for n in bits(members))
        for b in nodes:
            for a in bits(store.dominators.get(b, 0)):
                yield "Dominates", a, b
        # (s1, s2) iff s1 != s2 share a thread and no path leads from s2
        # to s1
        for s2 in nodes:
            if s2 in store.reach:
                for s1 in bits(store.thread_nodes[store.thread_of[s2]]
                               & ~store.reach[s2] & ~(1 << s2)):
                    yield "NotReachableFrom", s1, s2
        for relation, targets in (("ThreadCreates", store.thread_creates),
                                  ("ThreadJoins", store.thread_joins)):
            yield from ((relation, n, targets[n])
                        for n in nodes if n in targets)
        # (a, b) iff a != b, a reaches b and the model keeps a before b
        for a in nodes:
            for b in bits(store.reach.get(a, 0) & ~(1 << a)):
                if self.kept[b] >> a & 1:
                    yield "NoReorder", a, b
        for a, row in enumerate(self._base_rows):
            for b in bits(row):
                yield "MHB", a, b

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
            init = self.store.init_source[load]
            return None if init is None else (load, init)
        if self.store.store_var.get(source) != var:
            raise ContractViolation(f"store {source} does not write {var}")
        if self.store.thread_of[source] == self.store.thread_of[load]:
            raise ContractViolation(
                f"store {source} is not remote to load {load}")
        return load, source

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
        stores_of = self.store.stores_of
        before, rows = rows, list(rows)
        for load, source in new:
            _insert(rows, source, 1 << load)

        def flows(facts):
            return [(load, source, stores_of[var])
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

    def must_not_read_from(self, rows: Sequence[int], facts: Iterable[Fact],
                           load: int, source: int) -> bool:
        """Rules (5) and (6) for one pair, on rows closed under `facts`."""
        store = self.store
        var = store.load_var.get(load)
        if var is None or store.store_var.get(source) != var:
            return False
        # (5) the load must precede the store
        if rows[load] >> source & 1:
            return True
        # (6) another load of var read the store, and a store to var lies
        #     between that load and this one
        same_var, var_loads = store.stores_of[var], store.loads_of[var]
        for first, read in facts:
            if read == source and var_loads >> first & 1:
                for s2 in bits(rows[first] & same_var):
                    if rows[s2] >> load & 1:
                        return True
        return False

    def check_facts(self, facts: frozenset[Fact]) -> bool:
        """Whether the rules refute none of the reads-from facts: one step
        per fact, in sorted order, from the base rows."""
        if facts not in self._cache:
            prefix: Prefix | None = self.root()
            for fact in sorted(facts):
                prefix = self._step(prefix, fact)
                if prefix is None:
                    break
            self._cache[facts] = prefix is not None
        return self._cache[facts]

    def root(self) -> Prefix:
        """The prefix of a depth-first enumeration that chose nothing."""
        return list(self._base_rows), ()

    def extend(self, prefix: Prefix, load: int, source: int | None
               ) -> Prefix | None:
        """One level of a depth-first enumeration: the feasible `prefix`
        (rows closed under its facts, as `root` and `extend` return them)
        plus the fact of `load` reading `source`, or None when the rules
        refute the larger fact set, and so every set that contains it."""
        fact = self.fact(load, source)
        return prefix if fact is None else self._step(prefix, fact)

    def _step(self, prefix: Prefix, fact: Fact) -> Prefix | None:
        """The feasible `prefix` plus `fact`, or None when the rules refute
        the larger fact set.

        With the rows grown, every fact is checked again.  With the rows
        unchanged, only the new fact can be refuted: an earlier fact (l2, s)
        refuted by rule (6) through the new fact (l, s) has l -> s2 -> l2
        for a store s2 to the variable, and s -> l held already, so s -> s2
        and rule (4) gave l2 -> s2: rule (6) through (l2, s) itself had
        refuted it before."""
        rows, facts = prefix
        grown = (*facts, fact)
        new_rows = self.add_facts(rows, facts, (fact,))
        suspects = (fact,) if new_rows == rows else grown
        if any(self.must_not_read_from(new_rows, grown, *pair)
               for pair in suspects):
            return None
        return new_rows, grown
