"""NoReorder tables, MHB/MustNotReadFrom deduction, combination checks,
and the enumeration's one-fact step against whole-set checks."""
from __future__ import annotations

import pytest

from relaxcheck import feasibility
from relaxcheck.analysis import collect_candidates
from relaxcheck.feasibility import (
    ContractViolation, FeasibilityContext, MemoryModel, check_feasible,
)
from relaxcheck.frontend import parse_and_lower
from relaxcheck.ir import Load, Store, bits
from relaxcheck.relations import extract_all

from conftest import CORPUS_FILES, corpus_program, with_gaps

SC, TSO, PSO, RMO = (MemoryModel.SC, MemoryModel.TSO, MemoryModel.PSO,
                     MemoryModel.RMO)


def _node(prog, thread: str, pred, which: int = 0) -> int:
    g = prog.threads[thread]
    hits = [n for n in sorted(g.nodes) if pred(g.nodes[n])]
    return hits[which]


def _load_of(prog, thread: str, var: str, which: int = 0) -> int:
    return _node(prog, thread,
                 lambda i: isinstance(i, Load) and i.src.name == var, which)


def _store_of(prog, thread: str, var: str, which: int = 0) -> int:
    return _node(prog, thread,
                 lambda i: isinstance(i, Store) and i.dst.name == var, which)


# ---------------------------------------------------------------------------
# NoReorder per model
# ---------------------------------------------------------------------------

def _no_reorder(name: str, model: MemoryModel):
    prog = corpus_program(name)
    return prog, FeasibilityContext(prog, model).no_reorder


def test_tso_keeps_store_load_same_variable_relaxed():
    # buffer forwarding: W(x) -> R(x) in the same thread is reorderable
    prog, nr = _no_reorder("fig7.lit", TSO)
    s_x = _store_of(prog, "u1", "x")
    l_x = _load_of(prog, "u1", "x")
    assert (s_x, l_x) not in nr


def test_sc_orders_every_same_thread_access_pair():
    prog, nr = _no_reorder("fig1_nofence.lit", SC)
    s_x = _store_of(prog, "t1", "x")
    l_y = _load_of(prog, "t1", "y")
    assert (s_x, l_y) in nr


def test_tso_relaxes_store_load_only():
    prog, nr = _no_reorder("fig1_nofence.lit", TSO)
    s_x = _store_of(prog, "t1", "x")
    l_y = _load_of(prog, "t1", "y")
    s_a = _store_of(prog, "t1", "a")
    assert (s_x, l_y) not in nr   # store -> load relaxed
    assert (l_y, s_a) in nr       # load -> store kept
    assert (s_x, s_a) in nr       # store -> store kept


def test_pso_relaxes_independent_store_store():
    prog, nr = _no_reorder("fig2_nofence.lit", PSO)
    s_x = _store_of(prog, "t1", "x")
    s_y = _store_of(prog, "t1", "y")
    assert (s_x, s_y) not in nr


def test_fence_restores_store_store_order_under_pso():
    prog, nr = _no_reorder("fig2_fence.lit", PSO)
    s_x = _store_of(prog, "t1", "x")
    s_y = _store_of(prog, "t1", "y")
    assert (s_x, s_y) in nr


def test_rmo_keeps_same_variable_load_load():
    prog, nr = _no_reorder("corr.lit", RMO)
    g = prog.threads["reader"]
    loads = [n for n in sorted(g.nodes)
             if isinstance(g.nodes[n], Load) and g.nodes[n].src.name == "x"]
    assert (loads[0], loads[1]) in nr


def test_sl_membar_orders_store_then_load():
    prog, nr = _no_reorder("sb_membar.lit", TSO)
    s_x = _store_of(prog, "t1", "x")
    l_y = _load_of(prog, "t1", "y")
    assert (s_x, l_y) in nr


def test_model_inclusion_chain_on_no_reorder():
    for name in ("fig1_nofence.lit", "fig2_fence.lit", "fig7.lit"):
        prog = corpus_program(name)
        store = extract_all(prog)
        rmo, pso, tso, sc = (FeasibilityContext(prog, model, store).no_reorder
                             for model in (RMO, PSO, TSO, SC))
        assert rmo <= pso <= tso <= sc


# ---------------------------------------------------------------------------
# Pinned combination checks (message-passing program, fence present)
# ---------------------------------------------------------------------------

def _fig2_combinations():
    """Per combination, each load's source store (None: sequential)."""
    prog = corpus_program("fig2_fence.lit")
    l_y = _load_of(prog, "t2", "y")
    l_x = _load_of(prog, "t2", "x")
    s_y = _store_of(prog, "t1", "y")
    s_x = _store_of(prog, "t1", "x")
    rho = {
        1: {l_y: None, l_x: None},
        2: {l_y: s_y, l_x: s_x},
        3: {l_y: None, l_x: s_x},
        4: {l_y: s_y, l_x: None},
    }
    return prog, rho, l_x


def test_fig2_rho4_infeasible_under_tso():
    prog, rho, l_x = _fig2_combinations()
    ctx = FeasibilityContext(prog, TSO)
    facts = ctx.facts_for(rho[4])
    res = ctx.check_facts(facts)
    assert not res
    # the flag read forces the data read to see the new value, so the
    # init-store fact for l_x is among the refuted flows
    assert res.witness in facts
    init_x = prog.init_stores[next(v for v in prog.globals
                                   if v.name == "x")]
    assert (l_x, init_x) in facts


def test_fig2_rho123_feasible_under_tso():
    prog, rho, _ = _fig2_combinations()
    for k in (1, 2, 3):
        assert check_feasible(prog, TSO, rho[k]), k


def test_fig2_rho4_feasible_under_rmo():
    # without store->store ordering from the program side, the fence still
    # orders t1's stores; but the reader's loads may reorder under RMO
    prog, rho, _ = _fig2_combinations()
    assert check_feasible(prog, RMO, rho[4])


def test_fig2_nofence_rho4_feasible_under_pso():
    prog = corpus_program("fig2_nofence.lit")
    l_y = _load_of(prog, "t2", "y")
    l_x = _load_of(prog, "t2", "x")
    s_y = _store_of(prog, "t1", "y")
    ic = {l_y: s_y, l_x: None}
    assert check_feasible(prog, PSO, ic)
    assert not check_feasible(prog, TSO, ic)


# ---------------------------------------------------------------------------
# Buffer-forwarding program: the all-sequential combination
# ---------------------------------------------------------------------------

def _fig7_combination(prog):
    l_x = _load_of(prog, "u1", "x")   # reads its own buffered store
    l_y = _load_of(prog, "u1", "y")   # reads the initial value
    l_x2 = _load_of(prog, "u2", "x")  # reads the initial value
    return {l_x: None, l_y: None, l_x2: None}


def test_fig7_sequential_combination_feasible_under_tso():
    prog = corpus_program("fig7.lit")
    assert check_feasible(prog, TSO, _fig7_combination(prog))


def test_fig7_sequential_combination_infeasible_under_sc():
    prog = corpus_program("fig7.lit")
    assert not check_feasible(prog, SC, _fig7_combination(prog))


def test_fig7_own_store_load_contributes_no_init_fact():
    prog = corpus_program("fig7.lit")
    ctx = FeasibilityContext(prog, TSO)
    l_x = _load_of(prog, "u1", "x")
    facts = ctx.facts_for({l_x: None})
    assert facts == frozenset()  # own store may forward; no single source


# ---------------------------------------------------------------------------
# Contract violations
# ---------------------------------------------------------------------------

def test_contract_violation_wrong_variable():
    prog = corpus_program("fig2_fence.lit")
    l_y = _load_of(prog, "t2", "y")
    s_x = _store_of(prog, "t1", "x")
    with pytest.raises(ContractViolation):
        check_feasible(prog, TSO, {l_y: s_x})


def test_contract_violation_same_thread_store():
    prog = corpus_program("fig7.lit")
    l_x = _load_of(prog, "u1", "x")
    s_x = _store_of(prog, "u1", "x")
    with pytest.raises(ContractViolation):
        check_feasible(prog, TSO, {l_x: s_x})


def test_contract_violation_non_load_key():
    prog = corpus_program("fig2_fence.lit")
    s_x = _store_of(prog, "t1", "x")
    with pytest.raises(ContractViolation):
        check_feasible(prog, TSO, {s_x: None})


# ---------------------------------------------------------------------------
# Deduction structure
# ---------------------------------------------------------------------------

def test_create_join_edges_enter_mhb():
    prog = corpus_program("fig2_fence.lit")
    ctx = FeasibilityContext(prog, RMO)
    root = prog.threads[prog.root]
    creates = [n for n in sorted(root.nodes)
               if type(root.nodes[n]).__name__ == "ThreadCreate"]
    t1 = prog.threads["t1"]
    assert any((c, t1.entry) in ctx.base_mhb for c in creates)


def _reference_deduce_mhb(store, no_reorder) -> tuple[int, ...]:
    """The base MHB rows built one source at a time in ascending order:
    `_insert` adds a source's targets, and their rows, to the source's row
    and to every row that has the source."""
    targets: dict[int, int] = {}
    joins = {(x, j) for j, x in store.thread_joins}
    for a, b in store.thread_creates | joins:
        targets[a] = targets.get(a, 0) | 1 << b
    for b, doms in store.dominators.items():
        for a in bits(doms & ~store.reach[b] & no_reorder[b]):
            targets[a] = targets.get(a, 0) | 1 << b
    rows = [0] * (max(store.thread_of) + 1)
    for a in sorted(targets):
        feasibility._insert(rows, a, targets[a])
    return tuple(rows)


# A thread that joins its child before creating it: join -> create (rule
# (2): both are barriers), create -> child entry -> child exit -> join, so
# the base MHB has a cycle through both threads.
JOIN_BEFORE_CREATE = """
global x = 0, y = 0;

thread main {
  x = 5;
  join(w);
  create(w);
  local a = y;
  assert(a == 9);
}

thread w {
  local b = x;
  y = b + 4;
}
"""


def _assert_base_mhb_equals_reference(prog, model):
    ctx = FeasibilityContext(prog, model)
    rows = feasibility.deduce_mhb(ctx.store, ctx.kept)
    assert rows == _reference_deduce_mhb(ctx.store, ctx.kept), model
    return rows


def test_base_mhb_equals_per_source_reference():
    for name in CORPUS_FILES:
        program = corpus_program(name)
        gapped = with_gaps(program, lambda n: 3 * n + 2)
        for model in (SC, TSO, PSO, RMO):
            _assert_base_mhb_equals_reference(program, model)
            _assert_base_mhb_equals_reference(gapped, model)


def test_base_mhb_closes_a_cycle_like_the_reference():
    prog, _ = parse_and_lower(JOIN_BEFORE_CREATE)
    main, w = prog.threads["main"], prog.threads["w"]
    for model, pairs in zip((SC, TSO, PSO, RMO), (141, 141, 140, 140)):
        rows = _assert_base_mhb_equals_reference(prog, model)
        assert sum(row.bit_count() for row in rows) == pairs, model
        # every node on the cycle happens before itself
        assert rows[w.entry] >> w.entry & 1 and rows[w.exit] >> w.exit & 1
        assert not rows[main.entry] >> main.entry & 1


def test_infeasible_witness_is_member_of_facts():
    prog, rho, _ = _fig2_combinations()
    ctx = FeasibilityContext(prog, TSO)
    facts = ctx.facts_for(rho[4])
    res = ctx.check_facts(facts)
    assert not res and res.witness in facts


def test_fact_monotonicity_never_unprunes():
    # adding reads-from facts can only grow MustNotReadFrom
    prog, rho, _ = _fig2_combinations()
    ctx = FeasibilityContext(prog, TSO)
    small = ctx.facts_for({list(rho[4])[0]: None})
    big = ctx.facts_for(rho[4])
    if not ctx.check_facts(small):
        assert not ctx.check_facts(big | small)


# ---------------------------------------------------------------------------
# One fact at a time (the enumeration's step) against the whole set
# ---------------------------------------------------------------------------

# Programs where one fact acts on the facts before it.  In LATER_FLOW the
# new fact adds no edge of its own: the load of x in r, reading the initial
# x, precedes w's stores, so by rule (4) u's load, which read r's store to y,
# precedes w's later store to y.  In LATER_PATH, b's load of y reading a's
# store to y puts a's store to x between the two loads of x: if both read
# w's store, rule (6) refutes b's, and b's load of y stays feasible.
LATER_FLOW = """
global x = 0, y = 0;
thread u { local p = y; }
thread r { y = 1; local q = x; }
thread w { x = 2; y = 3; }
"""

LATER_PATH = """
global x = 0, y = 0;
thread w { x = 1; }
thread a { local p = x; x = 5; y = 1; }
thread b { local q = y; local r = x; }
"""


HAND_WRITTEN = {"later-flow": LATER_FLOW, "later-path": LATER_PATH}


def _extend_in_every_order(ctx, candidates, prefix, done, tag) -> None:
    """Extends `prefix`, the feasible facts of the (load, source) pairs
    `done` in the order they were added, by each choice of each load not
    yet chosen and recurses on the extensions not refuted: every prefix of
    every order of every combination is stepped to once.  Each step must
    refute exactly when check_facts refutes the facts so far, and otherwise
    keep the rows equal to their closure from scratch."""
    chosen = dict(done)
    for load in candidates:
        if load in chosen:
            continue
        for source in [None] + candidates[load]:
            child = ctx.extend(prefix, load, source)
            order = (*done, (load, source))
            facts = ctx.facts_for(dict(order))
            assert bool(ctx.check_facts(facts)) == (child is not None), \
                (tag, order)
            if child is None:
                continue
            assert child[0] == ctx.mhb_rows(facts), (tag, order)
            assert frozenset(child[1]) == facts, (tag, order)
            _extend_in_every_order(ctx, candidates, child, order, tag)


@pytest.mark.parametrize("name", CORPUS_FILES + sorted(HAND_WRITTEN))
def test_extend_in_every_order_equals_check_facts(name):
    # the enumeration adds facts in load order; the step must not depend
    # on that order
    prog = (parse_and_lower(HAND_WRITTEN[name])[0] if name in HAND_WRITTEN
            else corpus_program(name))
    store = extract_all(prog)
    candidates = collect_candidates(prog, store)
    for model in (SC, TSO, PSO, RMO):
        ctx = FeasibilityContext(prog, model, store)
        _extend_in_every_order(ctx, candidates, ctx.root(), (), (name, model))
