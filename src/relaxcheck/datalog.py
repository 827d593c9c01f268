"""The paper's feasibility rules (1)-(6): the executable specification.

`solve` transcribes the rules directly, each under its Datalog form, as a
naive least fixpoint over plain Python sets: every round applies rules (3)
and (4) to the whole relation until no pair is new.  Its input relations
are a stream of facts `(relation, *args)`, as
`FeasibilityContext.relation_facts` decodes them: the stream that
`--emit-relations` prints.  The rules read only the relations their bodies
name, so the stream's MHB facts (the engine's answer) are not read.  The
analyzer does not run this module: `feasibility.py` evaluates the same
rules with a bitset closure, and the tests check that closure against
`solve`.
"""
from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

Pairs = set[tuple[int, int]]


def solve(facts: Iterable[tuple], reads_from: Pairs) -> tuple[Pairs, Pairs]:
    """(MHB, MustNotReadFrom): the least fixpoint of rules (1)-(6) over the
    facts and ReadsFrom, where a load comes after the store it reads from,
    as in the engine's `add_facts`."""
    rel: defaultdict[str, set[tuple]] = defaultdict(set)
    for fact in facts:
        rel[fact[0]].add(fact[1:])
    load_var, store_var = dict(rel["IsLoad"]), dict(rel["IsStore"])
    # MHB as successor sets: `after[a]` holds every b with MHB(a, b)
    after: dict[int, set[int]] = {}
    # (1) MHB(c, e) :- ThreadCreates(c, e).
    #     MHB(x, j) :- ThreadJoins(j, x).
    # (2) MHB(a, b) :- Dominates(a, b), NotReachableFrom(a, b),
    #                  NoReorder(a, b).
    # A load follows the store it reads from:
    #     MHB(s, l) :- ReadsFrom(l, s).
    for a, b in ({(s, l) for l, s in reads_from} | rel["ThreadCreates"]
                 | {(x, j) for j, x in rel["ThreadJoins"]}
                 | (rel["Dominates"] & rel["NotReachableFrom"]
                    & rel["NoReorder"])):
        after.setdefault(a, set()).add(b)
    while True:
        # (3) MHB(a, c) :- MHB(a, b), MHB(b, c).
        new = {a: bs.union(*(after.get(b, ()) for b in bs))
               for a, bs in after.items()}
        # (4) MHB(l, s2) :- ReadsFrom(l, s1), MHB(s1, s2),
        #                   IsLoad(l, v), IsStore(s1, v), IsStore(s2, v).
        for l, s1 in reads_from:
            v = load_var.get(l)
            if v is not None and store_var.get(s1) == v:
                gain = {s2 for s2 in after.get(s1, ())
                        if store_var.get(s2) == v}
                if gain:
                    new.setdefault(l, set()).update(gain)
        if new == after:
            break
        after = new
    # (5) MustNotReadFrom(l, s) :- MHB(l, s), IsLoad(l, v), IsStore(s, v).
    mnrf = {(l, s) for l, v in load_var.items()
            for s in after.get(l, ()) if store_var.get(s) == v}
    # (6) MustNotReadFrom(l2, s1) :- ReadsFrom(l1, s1), MHB(l1, s2),
    #         MHB(s2, l2), IsLoad(l1, v), IsLoad(l2, v), IsStore(s1, v),
    #         IsStore(s2, v).
    mnrf |= {(l2, s1) for l1, s1 in reads_from
             if (v := load_var.get(l1)) is not None
             and store_var.get(s1) == v
             for s2 in after.get(l1, ()) if store_var.get(s2) == v
             for l2 in after.get(s2, ()) if load_var.get(l2) == v}
    return {(a, b) for a, bs in after.items() for b in bs}, mnrf
