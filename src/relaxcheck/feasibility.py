"""Deductive feasibility engine for inter-thread data-flow combinations.

Given a memory model, the engine derives which same-thread instruction pairs
can never be reordered (NoReorder), deduces a must-happen-before relation
(MHB) and a refuted-data-flow relation (MustNotReadFrom) as Datalog
fixpoints, and uses them to reject interference combinations that cannot
occur in any concrete execution.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import datalog
from .datalog import atom, rule
from .domain import AbstractEnv
from .ir import (
    Fence, Load, Nop, Program, Store, ThreadCreate, ThreadJoin, VarId,
)
from .relations import RelationStore, extract_all


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
class RemoteStore:
    """Choice for a load: read from this remote store with post-env env."""
    store: int
    env: AbstractEnv


class _NoInterference:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NoInterference"


NO_INTERFERENCE = _NoInterference()

InterferenceCombination = dict  # load node -> RemoteStore | NO_INTERFERENCE


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: tuple[int, int] | None = None  # refuted (load, store) pair

    def __bool__(self) -> bool:
        return self.feasible


def _access_kind(instr) -> str | None:
    if isinstance(instr, Load):
        return "L"
    if isinstance(instr, Store):
        return "S"
    return None


def _is_strong(instr) -> bool:
    """Nodes ordered with everything in their thread: fences and the
    thread-management points (create/join act as full barriers, and
    entry/exit anchor the cross-thread ordering rules)."""
    return isinstance(instr, (Fence, ThreadCreate, ThreadJoin))


def compute_no_reorder(model: MemoryModel, store: RelationStore,
                       program: Program) -> set[tuple[int, int]]:
    """Same-thread pairs (s1,s2), s1 program-order-before s2, that no
    execution under the model may reorder."""
    pairs: set[tuple[int, int]] = set()
    for name in sorted(program.threads):
        g = program.threads[name]
        nodes = sorted(g.nodes)
        interesting = [n for n in nodes
                       if _access_kind(g.nodes[n]) is not None
                       or _is_strong(g.nodes[n])
                       or n in (g.entry, g.exit)]
        for s1 in interesting:
            for s2 in interesting:
                if s1 == s2:
                    continue
                # s1 must be able to precede s2 in program order
                if (s2, s1) in store.not_reachable_from:
                    continue
                if _base_no_reorder(model, g.nodes[s1], g.nodes[s2],
                                    s1 in (g.entry, g.exit),
                                    s2 in (g.entry, g.exit)):
                    pairs.add((s1, s2))
    pairs |= _membar_pairs(store)
    return pairs


def _base_no_reorder(model: MemoryModel, i1, i2,
                     s1_boundary: bool, s2_boundary: bool) -> bool:
    if _is_strong(i1) or _is_strong(i2) or s1_boundary or s2_boundary:
        return True
    k1, k2 = _access_kind(i1), _access_kind(i2)
    if k1 is None or k2 is None:
        return False
    if model is MemoryModel.SC:
        return True
    if model is MemoryModel.TSO:
        # only store->load pairs may be reordered (incl. same variable,
        # which the store buffer forwards)
        return k1 == "L" or k2 == "S"
    v1 = i1.src if k1 == "L" else i1.dst
    v2 = i2.src if k2 == "L" else i2.dst
    if model is MemoryModel.PSO:
        return k1 == "L" or (k1 == "S" and k2 == "S" and v1 == v2)
    # RMO keeps only same-variable pairs, except store->load (forwarding)
    return v1 == v2 and not (k1 == "S" and k2 == "L")


def _membar_pairs(store: RelationStore) -> set[tuple[int, int]]:
    pairs: set[tuple[int, int]] = set()
    before: dict[int, list[int]] = {}
    after: dict[int, list[int]] = {}
    for a, b in store.dominates:
        after.setdefault(a, []).append(b)
        before.setdefault(b, []).append(a)
    kind_of = {}
    for n, v in store.load_var.items():
        kind_of[n] = "L"
    for n, v in store.store_var.items():
        kind_of[n] = "S"
    for kind, members in store.membars.items():
        k1, k2 = kind[0], kind[1]
        for m in sorted(members):
            for s1 in before.get(m, ()):
                if kind_of.get(s1) != k1:
                    continue
                for s2 in after.get(m, ()):
                    if kind_of.get(s2) == k2:
                        pairs.add((s1, s2))
    return pairs


# ---------------------------------------------------------------------------
# MHB / MustNotReadFrom deduction
# ---------------------------------------------------------------------------

_MHB_RULES = [
    # (1) thread creation precedes the child; the child precedes its join
    rule(atom("MHB", "c", "e"), atom("ThreadCreates", "c", "e")),
    rule(atom("MHB", "x", "j"), atom("ThreadJoins", "j", "x")),
    # (2) dominating, loop-free, non-reorderable pairs
    rule(atom("MHB", "a", "b"),
         atom("Dominates", "a", "b"),
         atom("NotReachableFrom", "a", "b"),
         atom("NoReorder", "a", "b")),
    # (3) transitivity
    rule(atom("MHB", "a", "c"), atom("MHB", "a", "b"), atom("MHB", "b", "c")),
    # (4) a load precedes every same-variable store ordered after its source
    rule(atom("MHB", "l", "s2"),
         atom("ReadsFrom", "l", "s1"),
         atom("MHB", "s1", "s2"),
         atom("IsLoad", "l", "v"),
         atom("IsStore", "s1", "v"),
         atom("IsStore", "s2", "v")),
]

_MNRF_RULES = [
    # (5) a load cannot read a store it must precede
    rule(atom("MustNotReadFrom", "l", "s"),
         atom("MHB", "l", "s"),
         atom("IsLoad", "l", "v"),
         atom("IsStore", "s", "v")),
    # (6) a load after an intervening same-variable store cannot read a
    #     store the first load already read
    rule(atom("MustNotReadFrom", "l2", "s1"),
         atom("ReadsFrom", "l1", "s1"),
         atom("MHB", "l1", "s2"),
         atom("MHB", "s2", "l2"),
         atom("IsLoad", "l1", "v"),
         atom("IsLoad", "l2", "v"),
         atom("IsStore", "s1", "v"),
         atom("IsStore", "s2", "v")),
]


def _base_db(store: RelationStore,
             no_reorder: set[tuple[int, int]]) -> dict[str, set[tuple]]:
    return {
        "IsLoad": set(store.is_load),
        "IsStore": set(store.is_store),
        "Dominates": set(store.dominates),
        "NotReachableFrom": set(store.not_reachable_from),
        "ThreadCreates": set(store.thread_creates),
        "ThreadJoins": set(store.thread_joins),
        "NoReorder": set(no_reorder),
    }


def deduce_mhb(store: RelationStore, no_reorder: set[tuple[int, int]],
               reads_from: set[tuple[int, int]],
               mhb_seeds: set[tuple[int, int]] = frozenset(),
               ) -> set[tuple[int, int]]:
    db = datalog.Database(_base_db(store, no_reorder))
    db.relation("ReadsFrom").update(reads_from)
    db.relation("MHB").update(mhb_seeds)
    datalog.solve(db, _MHB_RULES)
    return set(db.relation("MHB"))


def deduce_must_not_read_from(store: RelationStore,
                              no_reorder: set[tuple[int, int]],
                              reads_from: set[tuple[int, int]],
                              mhb_seeds: set[tuple[int, int]] = frozenset(),
                              ) -> set[tuple[int, int]]:
    db = datalog.Database(_base_db(store, no_reorder))
    db.relation("ReadsFrom").update(reads_from)
    db.relation("MHB").update(mhb_seeds)
    datalog.solve(db, _MHB_RULES + _MNRF_RULES)
    return set(db.relation("MustNotReadFrom"))


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
        # MHB under no reads-from assumptions; a sound seed for every query
        self.base_mhb = deduce_mhb(self.store, self.no_reorder, set())
        self._cache: dict[frozenset, FeasibilityResult] = {}

    # -- building reads-from fact sets -------------------------------------
    def facts_for(self, ic: InterferenceCombination
                  ) -> frozenset[tuple[int, int]]:
        """Reads-from facts contributed by a combination: the chosen remote
        store per load, and — for loads whose sequential value can only be
        the initial one — the virtual init store."""
        facts: set[tuple[int, int]] = set()
        for load_node in ic:
            choice = ic[load_node]
            var = self.store.load_var.get(load_node)
            if var is None:
                raise ContractViolation(f"node {load_node} is not a load")
            if choice is NO_INTERFERENCE:
                init = self._init_only_source(load_node, var)
                if init is not None:
                    facts.add((load_node, init))
            elif isinstance(choice, RemoteStore):
                svar = self.store.store_var.get(choice.store)
                if svar != var:
                    raise ContractViolation(
                        f"store {choice.store} does not write {var}")
                if (self.store.thread_of[choice.store]
                        == self.store.thread_of[load_node]):
                    raise ContractViolation(
                        f"store {choice.store} is not remote to load "
                        f"{load_node}")
                facts.add((load_node, choice.store))
            else:
                raise ContractViolation(f"bad choice {choice!r}")
        return frozenset(facts)

    def _init_only_source(self, load_node: int, var: VarId) -> int | None:
        """The init store node, when no same-thread store to var can reach
        the load (otherwise the sequential value may be a forwarded own
        write, and no single source can be asserted)."""
        thread = self.store.thread_of[load_node]
        for s, v in self.store.is_store:
            if v == var and self.store.thread_of[s] == thread:
                if (load_node, s) not in self.store.not_reachable_from:
                    return None
        return self.program.init_stores.get(var)

    def check_facts(self, facts: frozenset[tuple[int, int]]
                    ) -> FeasibilityResult:
        if facts in self._cache:
            return self._cache[facts]
        # Every fact pairs a load with a store in another thread, which
        # cannot be forwarded from a buffer: the store commits first.
        seeds = set(self.base_mhb)
        seeds.update((s, l) for (l, s) in facts)
        mnrf = deduce_must_not_read_from(self.store, self.no_reorder,
                                         set(facts), seeds)
        result = FeasibilityResult(True)
        for pair in sorted(facts):
            if pair in mnrf:
                result = FeasibilityResult(False, witness=pair)
                break
        self._cache[facts] = result
        return result

    def check(self, ic: InterferenceCombination) -> FeasibilityResult:
        return self.check_facts(self.facts_for(ic))


def check_feasible(program: Program, model: MemoryModel,
                   ic: InterferenceCombination) -> FeasibilityResult:
    return FeasibilityContext(program, model).check(ic)
