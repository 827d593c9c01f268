"""Concrete-execution enumerator: cross-checks and model separation."""
from __future__ import annotations

import pytest

from relaxcheck.frontend import parse_and_lower
from relaxcheck.ir import Assume, Const, Load, LocalAssign, Store, Var
from relaxcheck.feasibility import MemoryModel
from relaxcheck.oracle import (
    Execution, OracleLimitError, enumerate_executions, violates,
)

from conftest import corpus_program, oracle_behaviors, oracle_flags

SC, TSO, PSO, RMO = (MemoryModel.SC, MemoryModel.TSO, MemoryModel.PSO,
                     MemoryModel.RMO)

SB_TEXT = """
global x = 0, y = 0;
global a = 0, b = 0;

thread t1 {
  x = 1;
  a = y;
}

thread t2 {
  y = 1;
  b = x;
}
"""


# ---------------------------------------------------------------------------
# A naive SC interleaver for straight-line programs (independent oracle)
# ---------------------------------------------------------------------------

def _ceval(expr, local):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return local[expr.var]
    l, r = _ceval(expr.left, local), _ceval(expr.right, local)
    return {"+": l + r, "-": l - r, "*": l * r}[expr.op]


def _thread_sequence(graph):
    """Node instructions of a straight-line graph in control order."""
    seq, n = [], graph.entry
    while True:
        seq.append(graph.nodes[n])
        succ = graph.successors(n)
        if not succ:
            return seq
        assert len(succ) == 1, "straight-line graphs only"
        n = succ[0]


def naive_sc_final_states(program):
    """All final global valuations from atomic interleavings."""
    memory = {v: init for v, init in program.globals.items()}
    bodies = [
        _thread_sequence(g)
        for name, g in sorted(program.threads.items())
        if name != program.root
    ]
    results = set()

    def step(memory, locals_, remaining):
        if all(not r for r in remaining):
            results.add(tuple(sorted((v.name, val)
                                     for v, val in memory.items())))
            return
        for i, r in enumerate(remaining):
            if not r:
                continue
            instr, rest = r[0], r[1:]
            mem, loc = dict(memory), dict(locals_)
            if isinstance(instr, Load):
                loc[instr.dst] = mem[instr.src]
            elif isinstance(instr, Store):
                mem[instr.dst] = _ceval(instr.src, loc)
            elif isinstance(instr, LocalAssign):
                loc[instr.dst] = _ceval(instr.src, loc)
            elif isinstance(instr, (Assume,)):
                raise AssertionError("straight-line programs only")
            step(mem, loc,
                 remaining[:i] + (rest,) + remaining[i + 1:])

    step(memory, {}, tuple(tuple(b) for b in bodies))
    return results


def test_sc_matches_naive_interleaver_on_store_buffering():
    program, _ = parse_and_lower(SB_TEXT)
    expected = naive_sc_final_states(program)
    got = {ex.final_memory for ex in enumerate_executions(program, SC)}
    assert got == expected


def test_sc_store_buffering_forbids_both_zero():
    program, _ = parse_and_lower(SB_TEXT)
    finals = [dict(ex.final_memory)
              for ex in enumerate_executions(program, SC)]
    assert all(f["a"] == 1 or f["b"] == 1 for f in finals)


def test_tso_store_buffering_allows_both_zero():
    program, _ = parse_and_lower(SB_TEXT)
    finals = [dict(ex.final_memory)
              for ex in enumerate_executions(program, TSO)]
    assert any(f["a"] == 0 and f["b"] == 0 for f in finals)


# ---------------------------------------------------------------------------
# Model separation on the corpus
# ---------------------------------------------------------------------------

def test_behavior_inclusion_chain():
    for name in ("fig1_nofence.lit", "fig2_nofence.lit", "lb.lit"):
        chain = [oracle_behaviors(name, m) for m in (SC, TSO, PSO, RMO)]
        for weaker, stronger in zip(chain, chain[1:]):
            assert weaker <= stronger, name


def _violated(name: str, model: MemoryModel) -> bool:
    return any(oracle_flags(name, model).values())


def test_fig2_violations_by_model():
    assert not any(_violated("fig2_fence.lit", m) for m in (SC, TSO, PSO))
    assert not _violated("fig2_nofence.lit", TSO)
    assert _violated("fig2_nofence.lit", PSO)


def test_fig1_violations_by_model():
    assert not _violated("fig1_nofence.lit", SC)
    assert _violated("fig1_nofence.lit", TSO)
    assert not any(_violated("fig1_fence.lit", m)
                   for m in (SC, TSO, PSO, RMO))


def test_fig7_buffer_forwarding_violation_under_tso_only_with_flags_zero():
    assert any(oracle_flags("fig7.lit", TSO).values())
    assert not any(oracle_flags("fig7.lit", SC).values())
    # the witnessing behavior has a forwarded own-write and stale flags
    finals = [dict(ex.final_memory)
              for ex in oracle_behaviors("fig7.lit", TSO)
              if ex.failed_asserts]
    assert any(f["a"] == 1 and f["b"] == 0 and f["c"] == 0 for f in finals)


def test_load_buffering_violation_only_under_rmo():
    for m in (SC, TSO, PSO):
        assert not any(oracle_flags("lb.lit", m).values())
    assert any(oracle_flags("lb.lit", RMO).values())


def test_membar_restores_order():
    for m in (SC, TSO, PSO, RMO):
        assert not any(oracle_flags("sb_membar.lit", m).values()), m


# ---------------------------------------------------------------------------
# Limits
# ---------------------------------------------------------------------------

def test_event_budget_exceeded_raises():
    program, _ = parse_and_lower(SB_TEXT)
    with pytest.raises(OracleLimitError):
        enumerate_executions(program, SC, max_events=2)


def test_loop_bound_exceeded_raises():
    prog = corpus_program("loop_local.lit")
    with pytest.raises(OracleLimitError):
        enumerate_executions(prog, SC, max_loop_iters=1)


def test_violates_covers_all_assert_nodes():
    prog = corpus_program("fig2_fence.lit")
    flags = violates(prog, SC)
    assert len(flags) == 1 and not any(flags.values())


# ---------------------------------------------------------------------------
# Blocked executions and threads that are never created
# ---------------------------------------------------------------------------

BLOCKED_TEXT = """
global x = 0;
thread a { x = 1; join(a); }
thread b { local r = x; assert(r == 0); }
"""

UNCREATED_TEXT = """
global x = 0, y = 0;
thread a { local r = y; if (r == 1) { create(c); } }
thread c { x = 1; }
thread b { local s = x; assert(s == 0); }
"""


def test_blocked_execution_judges_the_asserts_it_reached():
    # thread a waits for itself forever, after its store: b can read 1
    program, _ = parse_and_lower(BLOCKED_TEXT)
    for model in (SC, TSO, PSO, RMO):
        assert list(violates(program, model).values()) == [True], model


def test_thread_created_on_an_untaken_branch_never_runs():
    # y stays 0, so c is never created and x stays 0
    program, _ = parse_and_lower(UNCREATED_TEXT)
    for model in (SC, TSO, PSO, RMO):
        assert list(violates(program, model).values()) == [False], model
        assert {dict(ex.final_memory)["x"]
                for ex in enumerate_executions(program, model)} == {0}


def test_a_long_chain_of_local_assignments_folds_to_a_constant():
    # nested unfolded, the value would pass the recursion limit
    text = ("global x = 0;\nthread t {\n  local i = 0;\n"
            + "  i = i + 1;\n" * 1500 + "  x = i;\n}\nassert(x == 1500);\n")
    program, _ = parse_and_lower(text)
    (execution,) = enumerate_executions(program, SC)
    assert execution == Execution((("x", 1500),), frozenset())
