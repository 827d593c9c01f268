"""The paper's feasibility rules (1)-(6): the executable specification.

`solve` transcribes the rules directly, each under its Datalog form, as a
naive least fixpoint over plain Python sets: every round applies rules (3)
and (4) to the whole relation until no pair is new.  The analyzer does not
run this module: `feasibility.py` evaluates the same rules with a bitset
closure, and the tests check that closure against `spec_mhb` and
`spec_must_not_read_from`.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .relations import RelationStore

Pairs = set[tuple[int, int]]


def solve(store: RelationStore, no_reorder: Pairs, reads_from: Pairs,
          mhb_seeds: Pairs = frozenset()) -> tuple[Pairs, Pairs]:
    """(MHB, MustNotReadFrom): the least fixpoint of rules (1)-(6) over the
    static relations, NoReorder, ReadsFrom and the given MHB facts."""
    load_var, store_var = dict(store.is_load), dict(store.is_store)
    # MHB as successor sets: `after[a]` holds every b with MHB(a, b)
    after: dict[int, set[int]] = {n: set() for n in store.thread_of}
    # (1) MHB(c, e) :- ThreadCreates(c, e).
    #     MHB(x, j) :- ThreadJoins(j, x).
    # (2) MHB(a, b) :- Dominates(a, b), NotReachableFrom(a, b),
    #                  NoReorder(a, b).
    for a, b in (set(mhb_seeds) | store.thread_creates
                 | {(x, j) for j, x in store.thread_joins}
                 | (store.dominates & store.not_reachable_from & no_reorder)):
        after[a].add(b)
    while True:
        # (3) MHB(a, c) :- MHB(a, b), MHB(b, c).
        new = {a: bs.union(*map(after.get, bs)) for a, bs in after.items()}
        # (4) MHB(l, s2) :- ReadsFrom(l, s1), MHB(s1, s2),
        #                   IsLoad(l, v), IsStore(s1, v), IsStore(s2, v).
        for l, s1 in reads_from:
            v = load_var.get(l)
            if v is not None and store_var.get(s1) == v:
                new[l].update(s2 for s2 in after[s1]
                              if store_var.get(s2) == v)
        if new == after:
            break
        after = new
    # (5) MustNotReadFrom(l, s) :- MHB(l, s), IsLoad(l, v), IsStore(s, v).
    mnrf = {(l, s) for l, v in load_var.items()
            for s in after[l] if store_var.get(s) == v}
    # (6) MustNotReadFrom(l2, s1) :- ReadsFrom(l1, s1), MHB(l1, s2),
    #         MHB(s2, l2), IsLoad(l1, v), IsLoad(l2, v), IsStore(s1, v),
    #         IsStore(s2, v).
    mnrf |= {(l2, s1) for l1, s1 in reads_from
             if (v := load_var.get(l1)) is not None
             and store_var.get(s1) == v
             for s2 in after[l1] if store_var.get(s2) == v
             for l2 in after[s2] if load_var.get(l2) == v}
    return {(a, b) for a, bs in after.items() for b in bs}, mnrf


def spec_mhb(store: RelationStore, no_reorder: Pairs, reads_from: Pairs,
             mhb_seeds: Pairs = frozenset()) -> Pairs:
    """MHB: the least fixpoint of rules (1)-(4) over the given facts."""
    return solve(store, no_reorder, reads_from, mhb_seeds)[0]


def spec_must_not_read_from(store: RelationStore, no_reorder: Pairs,
                            reads_from: Pairs, mhb_seeds: Pairs = frozenset(),
                            ) -> Pairs:
    """MustNotReadFrom: the least fixpoint of rules (1)-(6)."""
    return solve(store, no_reorder, reads_from, mhb_seeds)[1]
