"""Acceptance gate: one test (and one pass/fail line) per criterion.

Run with `pytest -v tests/test_acceptance.py` to see a line per criterion;
each test also prints an explicit `criterion N: PASS` once its assertions
hold.
"""
from __future__ import annotations

import time

from relaxcheck.analysis import analyze_all
from relaxcheck.domain import AbstractEnv, Interval, transfer
from relaxcheck.feasibility import MemoryModel
from relaxcheck.ir import BinOp, Const, Load, Store, Var, VarId
from relaxcheck.oracle import violates

from conftest import (
    CORPUS_FILES, MODELS, analyzer_result, check_feasible, corpus_program,
)

SC, TSO, PSO, RMO = (MemoryModel.SC, MemoryModel.TSO, MemoryModel.PSO,
                     MemoryModel.RMO)


def _status(name: str, model: MemoryModel) -> str:
    _, verdicts, _ = analyzer_result(name, model)
    (v,) = verdicts
    return v.status


def test_criterion_1_headline_verdict_table():
    """Both flagship programs, with and without fences, across SC/TSO/PSO."""
    expected = {
        ("fig1_fence.lit", SC): "PROVED",
        ("fig1_fence.lit", TSO): "PROVED",
        ("fig1_fence.lit", PSO): "PROVED",
        ("fig1_nofence.lit", SC): "PROVED",
        ("fig1_nofence.lit", TSO): "ALARM",
        ("fig1_nofence.lit", PSO): "ALARM",
        ("fig2_fence.lit", SC): "PROVED",
        ("fig2_fence.lit", TSO): "PROVED",
        ("fig2_fence.lit", PSO): "PROVED",
        ("fig2_nofence.lit", SC): "PROVED",
        ("fig2_nofence.lit", TSO): "PROVED",
        ("fig2_nofence.lit", PSO): "ALARM",
    }
    started = time.monotonic()
    got = {}
    for (name, model) in expected:
        prog = corpus_program(name)
        _, verdicts, _ = analyze_all(prog, model)  # fresh, timed run
        (v,) = verdicts
        got[(name, model)] = v.status
    elapsed = time.monotonic() - started
    assert got == expected
    assert elapsed < 5.0, f"12-cell table took {elapsed:.2f}s"
    print(f"criterion 1: PASS (12/12 verdict cells exact, {elapsed:.2f}s)")


def test_criterion_2_rmo_alarms():
    assert _status("fig1_nofence.lit", RMO) == "ALARM"
    assert _status("fig2_nofence.lit", RMO) == "ALARM"
    print("criterion 2: PASS (fence-free programs alarm under RMO)")


def test_criterion_3_combination_audit():
    _, verdicts, stats = analyzer_result("fig2_fence.lit", TSO)
    t2 = stats.per_thread["t2"]
    assert t2.combinations_enumerated == 4
    assert t2.combinations_pruned == 1
    (v,) = verdicts
    assert v.status == "PROVED"
    print("criterion 3: PASS (reader thread: 4 combinations, 1 pruned, "
          "assert proved)")


def test_criterion_4_buffer_forwarding():
    assert _status("fig7.lit", TSO) == "ALARM"
    # the all-sequential combination (own-write forward + two stale flag
    # reads) must be accepted as feasible under TSO
    prog = corpus_program("fig7.lit")
    loads = {}
    for tname in ("u1", "u2"):
        g = prog.threads[tname]
        for n in sorted(g.nodes):
            if isinstance(g.nodes[n], Load):
                loads[n] = None
    assert check_feasible(prog, TSO, loads)
    assert not check_feasible(prog, SC, loads)
    print("criterion 4: PASS (forwarding program alarms under TSO; "
          "sequential combination feasible)")


def test_criterion_5_soundness_sweep():
    assert len(CORPUS_FILES) >= 20
    started = time.monotonic()
    bugs = []
    for name in CORPUS_FILES:
        prog = corpus_program(name)
        for model in MODELS:
            _, verdicts, _ = analyze_all(prog, model)
            flags = violates(prog, model)
            status = {v.node: v.status for v in verdicts}
            for node, violated in flags.items():
                if violated and status[node] == "PROVED":
                    bugs.append((name, model.value, node))
    elapsed = time.monotonic() - started
    assert bugs == [], f"soundness violations: {bugs}"
    assert elapsed < 60.0, f"sweep took {elapsed:.2f}s"
    print(f"criterion 5: PASS ({len(CORPUS_FILES)} programs x 4 models, "
          f"0 soundness bugs, {elapsed:.1f}s)")


def test_criterion_6_interval_unit_values():
    assert Interval(1, 3).join(Interval(7, 10)) == Interval(1, 10)
    assert Interval(4, 6).leq(Interval(1, 10))
    x, a = VarId("x"), VarId("a", "t")
    env = AbstractEnv({x: Interval(1, 3), a: Interval(2, 5)})
    out = transfer(Store(x, BinOp("+", Var(a), Const(1))), env)
    assert out.get(x) == Interval(3, 6)
    assert out.get(a) == Interval(2, 5)
    print("criterion 6: PASS (interval unit values exact)")


def test_criterion_7_property_suites_configured():
    import test_properties as props
    assert props.MANY.max_examples >= 200
    suites = [n for n in dir(props) if n.startswith("test_")]
    # lattice laws, transfer monotonicity+soundness, relation inclusion,
    # feasibility-rule monotonicity, dominators, oracle inclusion, verdict
    # monotonicity, determinism
    assert len(suites) >= 8
    print(f"criterion 7: PASS ({len(suites)} property suites at "
          f">= {props.MANY.max_examples} cases each)")


def test_criterion_8_single_thread_degeneracy():
    from relaxcheck.analysis import analyze_thread, initial_env
    for name in ("seq1.lit", "seq2.lit"):  # loop-free single-thread programs
        prog = corpus_program(name)
        init = initial_env(prog)
        env_map, _, _ = analyze_all(prog, SC)
        for g in prog.threads.values():
            sequential = analyze_thread(g, init, {})
            for n in g.nodes:
                assert env_map[n] == sequential[n], (name, n)
    print("criterion 8: PASS (single-thread programs match sequential "
          "interval analysis)")
