"""The paper's feasibility rules as Datalog: the executable specification.

A tiny semi-naive Datalog fixpoint engine over finite tuple sets, plus the
must-happen-before (MHB) and MustNotReadFrom rules (1)-(6) written in it and
the `spec_*` functions that evaluate them.  The analyzer does not run this
module: `feasibility.py` evaluates the same rules with a bitset closure, and
the tests check that closure against `spec_mhb` and
`spec_must_not_read_from`.

Rules are positive conjunctive queries: a head atom derived from a join of
body atoms.  Atom arguments are either variable names (strings) or constant
values; repeated variables express equality joins.  Everything lives in
plain Python sets, so evaluation is deterministic and dependency-free.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .relations import RelationStore


@dataclass(frozen=True)
class Atom:
    relation: str
    args: tuple


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[Atom, ...]


def atom(relation: str, *args) -> Atom:
    return Atom(relation, tuple(args))


def rule(head: Atom, *body: Atom) -> Rule:
    return Rule(head, body)


class Database:
    """Mutable store of named relations (sets of tuples)."""

    def __init__(self, relations: dict[str, set[tuple]] | None = None):
        self._rels: dict[str, set[tuple]] = {}
        for name, facts in (relations or {}).items():
            self._rels[name] = set(facts)

    def relation(self, name: str) -> set[tuple]:
        return self._rels.setdefault(name, set())

    def add(self, name: str, fact: tuple) -> bool:
        rel = self.relation(name)
        if fact in rel:
            return False
        rel.add(fact)
        return True


def _match(pattern: tuple, fact: tuple, binding: dict) -> dict | None:
    """Extend binding so pattern equals fact, or return None."""
    if len(pattern) != len(fact):
        return None
    out = binding
    for p, f in zip(pattern, fact):
        if isinstance(p, str):
            bound = out.get(p, _UNBOUND)
            if bound is _UNBOUND:
                if out is binding:
                    out = dict(binding)
                out[p] = f
            elif bound != f:
                return None
        elif p != f:
            return None
    return out


_UNBOUND = object()


def _instantiate(args: tuple, binding: dict) -> tuple:
    return tuple(binding[a] if isinstance(a, str) else a for a in args)


def _join(db: Database, body: tuple[Atom, ...], delta_pos: int,
          delta: dict[str, set[tuple]]) -> list[dict]:
    """All variable bindings satisfying the body, where the atom at
    delta_pos ranges over the delta facts of its relation.

    Each atom is matched through a hash index on its bound argument
    positions (constants plus variables bound by earlier atoms), so joins
    cost roughly output size rather than a full cross product."""
    bindings = [{}]
    for i, a in enumerate(body):
        facts = delta.get(a.relation, set()) if i == delta_pos \
            else db.relation(a.relation)
        # All current bindings share the same bound-variable set: every
        # binding extends the same prefix of atoms.
        bound = bindings[0].keys() if bindings else ()
        key_pos = tuple(j for j, p in enumerate(a.args)
                        if not isinstance(p, str) or p in bound)
        index: dict[tuple, list[tuple]] = {}
        arity = len(a.args)
        for fact in facts:
            if len(fact) != arity:
                continue
            index.setdefault(tuple(fact[j] for j in key_pos), []).append(fact)
        new_bindings = []
        for b in bindings:
            key = tuple(a.args[j] if not isinstance(a.args[j], str)
                        else b[a.args[j]] for j in key_pos)
            for fact in index.get(key, ()):
                nb = _match(a.args, fact, b)
                if nb is not None:
                    new_bindings.append(nb)
        bindings = new_bindings
        if not bindings:
            break
    return bindings


def solve(db: Database, rules: list[Rule]) -> Database:
    """Least fixpoint of the rules over db, computed semi-naively.

    Mutates and returns db.  Only head relations grow; body-only relations
    are read as given.
    """
    # Round zero: naive pass over the full database.
    delta: dict[str, set[tuple]] = {}
    for r in rules:
        for binding in _join(db, r.body, -1, {}):
            fact = _instantiate(r.head.args, binding)
            if db.add(r.head.relation, fact):
                delta.setdefault(r.head.relation, set()).add(fact)

    # Semi-naive rounds: each new derivation must use at least one delta fact.
    while delta:
        new_delta: dict[str, set[tuple]] = {}
        for r in rules:
            for pos, a in enumerate(r.body):
                if a.relation not in delta:
                    continue
                for binding in _join(db, r.body, pos, delta):
                    fact = _instantiate(r.head.args, binding)
                    if db.add(r.head.relation, fact):
                        new_delta.setdefault(r.head.relation, set()).add(fact)
        delta = new_delta
    return db


# ---------------------------------------------------------------------------
# The feasibility rules (the specification of feasibility.py)
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


def _spec_db(store: RelationStore, no_reorder: set[tuple[int, int]],
             reads_from: set[tuple[int, int]],
             mhb_seeds: set[tuple[int, int]]) -> Database:
    return Database({
        "IsLoad": store.is_load,
        "IsStore": store.is_store,
        "Dominates": store.dominates,
        "NotReachableFrom": store.not_reachable_from,
        "ThreadCreates": store.thread_creates,
        "ThreadJoins": store.thread_joins,
        "NoReorder": no_reorder,
        "ReadsFrom": reads_from,
        "MHB": mhb_seeds,
    })


def spec_mhb(store: RelationStore, no_reorder: set[tuple[int, int]],
             reads_from: set[tuple[int, int]],
             mhb_seeds: set[tuple[int, int]] = frozenset(),
             ) -> set[tuple[int, int]]:
    """MHB: the least fixpoint of rules (1)-(4) over the given facts."""
    db = _spec_db(store, no_reorder, reads_from, mhb_seeds)
    solve(db, _MHB_RULES)
    return set(db.relation("MHB"))


def spec_must_not_read_from(store: RelationStore,
                            no_reorder: set[tuple[int, int]],
                            reads_from: set[tuple[int, int]],
                            mhb_seeds: set[tuple[int, int]] = frozenset(),
                            ) -> set[tuple[int, int]]:
    """MustNotReadFrom: the least fixpoint of rules (1)-(6)."""
    db = _spec_db(store, no_reorder, reads_from, mhb_seeds)
    solve(db, _MHB_RULES + _MNRF_RULES)
    return set(db.relation("MustNotReadFrom"))
