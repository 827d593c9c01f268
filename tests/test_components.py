"""Interference components: grouping rules, per-component enumeration
against the one global product, feasibility decomposition and the reach
that per-component enumeration gives (mp-pairs past the old cap)."""
from __future__ import annotations

import functools
import math

import pytest

from relaxcheck import analysis
from relaxcheck.analysis import (
    ThreadRuns, analyze_all, bootstrap_fixpoint, collect_candidates,
    initial_env, interference_components,
)
from relaxcheck.domain import may_be_false
from relaxcheck.feasibility import FeasibilityContext, MemoryModel
from relaxcheck.frontend import parse_and_lower
from relaxcheck.ir import Assert, EPILOGUE_THREAD, ROOT_THREAD
from relaxcheck.relations import extract_all

from conftest import (
    CORPUS_FILES, MODELS, analyzer_result, component_loads, corpus_program,
    facts_for, mp_text, product,
)

TSO = MemoryModel.TSO


# `main` creates and joins `w`, which only reads `z` from `v`: the create/join
# alone puts `main` with `w` and `v`; the unfenced pair is a second component.
CREATE_JOIN = """
global x = 0, y = 0, z = 0, d = 0, f = 0;
thread main {
  x = 5;
  create(w);
  join(w);
  local a = y;
  assert(a == 9 || a == 0);
}
thread w {
  local b = z;
  y = b + 9;
}
thread v {
  z = 0;
}
thread p {
  d = 1;
  f = 1;
}
thread q {
  local s = f;
  local g = d;
  if (s == 1) {
    assert(g == 1);
  }
}
"""

# The trailing assert becomes an epilogue thread that reads x and y, so it
# joins t1 and t2; the unfenced pair stays a component of its own.
EPILOGUE = """
global x = 0, y = 0, d = 0, f = 0;
thread t1 {
  x = 1;
  local a = y;
}
thread t2 {
  y = 1;
  local b = x;
}
thread p {
  d = 1;
  f = 1;
}
thread q {
  local s = f;
  local g = d;
  if (s == 1) {
    assert(g == 1);
  }
}
assert(x == 1 && y == 1);
"""

# Under cap 4 the three-load reader overflows; the fenced pair (4
# combinations) does not.
BIG_AND_SMALL = """
global a = 0, b = 0, c = 0, d = 0, f = 0;
thread bw {
  a = 1;
  b = 1;
  c = 1;
}
thread br {
  local x1 = a;
  local x2 = b;
  local x3 = c;
  assert(x1 <= 1);
}
thread w {
  d = 1;
  fence;
  f = 1;
}
thread r {
  local s = f;
  fence;
  local g = d;
  if (s == 1) {
    assert(g == 1);
  }
}
"""


@functools.lru_cache(maxsize=None)
def program(text: str):
    prog, _ = parse_and_lower(text)
    return prog


# (name, text, models) of the generated programs
GENERATED = ([(f"mp-k{k}", mp_text(k), (TSO,)) for k in range(1, 5)]
             + [("mp-unfenced-k2", mp_text(2, fenced=False), tuple(MODELS)),
                ("create-join", CREATE_JOIN, tuple(MODELS)),
                ("epilogue", EPILOGUE, tuple(MODELS))])
MULTI = [g for g in GENERATED if g[0] != "mp-k1"]


def _groups(prog):
    relstore = extract_all(prog)
    return interference_components(prog, relstore,
                                   collect_candidates(relstore))


def _one_component(prog, relstore, candidates):
    return [list(prog.threads)]


# ---------------------------------------------------------------------------
# Grouping rules
# ---------------------------------------------------------------------------

def test_create_join_unites_parent_and_child():
    groups = _groups(program(CREATE_JOIN))
    assert groups == [["main", "w", "v"], ["p", "q"], [ROOT_THREAD]]


def test_epilogue_joins_through_its_candidates():
    groups = _groups(program(EPILOGUE))
    assert groups == [["t1", "t2", EPILOGUE_THREAD], ["p", "q"],
                      [ROOT_THREAD]]


def test_mp_pairs_split_per_pair():
    groups = _groups(program(mp_text(3)))
    assert groups == [["w0", "r0"], ["w1", "r1"], ["w2", "r2"],
                      [ROOT_THREAD]]


def test_no_corpus_program_has_two_load_bearing_components():
    # so the generated programs above carry the differential test
    for name in CORPUS_FILES:
        prog = corpus_program(name)
        loads = extract_all(prog).load_var
        bearing = [names for names in _groups(prog)
                   if any(l in loads for t in names
                          for l in prog.threads[t].nodes)]
        assert len(bearing) <= 1, (name, bearing)


# ---------------------------------------------------------------------------
# Per-component enumeration equals the one global product
# ---------------------------------------------------------------------------

def _assert_same_as_global(prog, model, result, global_result, tag):
    env_map, verdicts, stats = result
    g_map, g_verdicts, g_stats = global_result
    assert env_map.keys() == g_map.keys(), tag
    for n, env in env_map.items():
        assert env == g_map[n], (tag, n)
    assert stats == g_stats, tag
    relstore = extract_all(prog)
    candidates = collect_candidates(relstore)
    loops = {n for g in prog.threads.values() for n in g.loop_nodes}
    comp_loads = {}
    for names in interference_components(prog, relstore, candidates):
        loads = {l for t in names for l in prog.threads[t].nodes
                 if l in candidates and l not in loops}
        for t in names:
            comp_loads[t] = loads
    thread_of = relstore.thread_of
    assert [(v.node, v.status) for v in verdicts] \
        == [(v.node, v.status) for v in g_verdicts], tag
    for v, gv in zip(verdicts, g_verdicts):
        own = comp_loads[thread_of[v.node]]
        assert v.witness == tuple((l, s) for l, s in gv.witness
                                  if l in own), (tag, v.node)


def test_components_equal_global_product_on_corpus(monkeypatch):
    cells = [(name, model) for name in CORPUS_FILES for model in MODELS]
    per_component = {cell: analyzer_result(*cell) for cell in cells}
    monkeypatch.setattr(analysis, "interference_components", _one_component)
    for name, model in cells:
        prog = corpus_program(name)
        _assert_same_as_global(prog, model, per_component[name, model],
                               analyze_all(prog, model), (name, model))


@pytest.mark.parametrize("name,text,models", GENERATED,
                         ids=[g[0] for g in GENERATED])
def test_components_equal_global_product_on_generated(monkeypatch, name,
                                                      text, models):
    prog = program(text)
    per_component = {m: analyze_all(prog, m) for m in models}
    monkeypatch.setattr(analysis, "interference_components", _one_component)
    for model in models:
        _assert_same_as_global(prog, model, per_component[model],
                               analyze_all(prog, model), (name, model))


def test_unfenced_pairs_alarm_with_component_witnesses():
    # the differential above is not vacuous: real alarms with witnesses
    prog = program(mp_text(2, fenced=False))
    groups = {t: names for names in _groups(prog) for t in names}
    thread_of = extract_all(prog).thread_of
    for model in (MemoryModel.PSO, MemoryModel.RMO):
        _, verdicts, _ = analyze_all(prog, model)
        assert [v.status for v in verdicts] == ["ALARM", "ALARM"]
        for v in verdicts:
            assert v.witness
            assert all(thread_of[l] in groups[thread_of[v.node]]
                       for l, _ in v.witness)


# ---------------------------------------------------------------------------
# Feasibility decomposes over components
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,text,models", MULTI,
                         ids=[g[0] for g in MULTI])
def test_feasible_facts_of_different_components_stay_feasible(name, text,
                                                              models):
    prog = program(text)
    relstore = extract_all(prog)
    for model in models:
        ctx = FeasibilityContext(relstore, model)
        accepted = []
        for loads in component_loads(prog, relstore):
            facts = [facts_for(ctx, sigma) for sigma in product(loads)]
            accepted.append([f for f in facts if ctx.check_facts(f)])
        assert len(accepted) >= 2, (name, model)
        for i, first in enumerate(accepted):
            assert first, (name, model, i)
            for second in accepted[i + 1:]:
                for a in first:
                    for b in second:
                        assert ctx.check_facts(a | b), (name, model, a, b)


# ---------------------------------------------------------------------------
# Reach: mp-pairs past the old global cap, per-component cap, linear growth
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [7, 10])
def test_mp_pairs_prove_every_assert_without_overflow(k):
    _, verdicts, stats = analyze_all(program(mp_text(k)), TSO)
    assert not any(t.overflowed for t in stats.per_thread.values())
    assert len(verdicts) == k
    assert all(v.status == "PROVED" for v in verdicts)


def test_cap_overflows_only_the_large_component():
    prog = program(BIG_AND_SMALL)
    _, verdicts, stats = analyze_all(prog, TSO, cap=4)
    overflowed = {t for t, s in stats.per_thread.items() if s.overflowed}
    assert overflowed == {"br"}
    assert stats.per_thread["r"].combinations_enumerated == 4
    thread_of = extract_all(prog).thread_of
    small = [v for v in verdicts if thread_of[v.node] == "r"]
    assert [v.status for v in small] == ["PROVED"]
    # with the default cap nothing overflows and the verdicts agree
    _, full, full_stats = analyze_all(prog, TSO)
    assert not any(s.overflowed for s in full_stats.per_thread.values())
    assert [v.status for v in full] == [v.status for v in verdicts]


@pytest.mark.parametrize("cap", [1, 2, 4, 16])
def test_cap_partitions_threads_on_corpus(cap):
    # a thread with a non-loop load in a component over the cap overflows
    # and takes the bootstrap result; every other thread keeps the default
    # cap's env maps, verdicts and witnesses
    overflows = 0
    for name in CORPUS_FILES:
        prog = corpus_program(name)
        relstore = extract_all(prog)
        candidates = collect_candidates(relstore)
        loops = {n for g in prog.threads.values() for n in g.loop_nodes}
        over = set()
        for names in interference_components(prog, relstore, candidates):
            loads = {t: [l for l in prog.threads[t].nodes
                         if l in candidates and l not in loops]
                     for t in names}
            if math.prod(len(candidates[l]) + 1 for t in names
                         for l in loads[t]) > cap:
                over |= {t for t in names if loads[t]}
        for model in MODELS:
            tag = (name, model, cap)
            env_map, verdicts, stats = analyze_all(prog, model, cap)
            d_map, d_verdicts, _ = analyzer_result(name, model)
            boot_map = bootstrap_fixpoint(
                prog, relstore, FeasibilityContext(relstore, model),
                candidates, ThreadRuns(prog, initial_env(prog)))[0]
            assert {t for t, s in stats.per_thread.items()
                    if s.overflowed} == over, tag
            overflows += len(over)
            verdict_of = {v.node: v for v in verdicts}
            d_verdict_of = {v.node: v for v in d_verdicts}
            for t, g in prog.threads.items():
                for n, instr in g.nodes.items():
                    if t not in over:
                        assert env_map[n] == d_map[n], (tag, n)
                        if isinstance(instr, Assert):
                            assert verdict_of[n] == d_verdict_of[n], (tag, n)
                        continue
                    assert env_map[n] == boot_map[n], (tag, n)
                    if isinstance(instr, Assert):
                        alarm = may_be_false(instr.cond, boot_map[n])
                        assert verdict_of[n].status == (
                            "ALARM" if alarm else "PROVED"), (tag, n)
                        assert verdict_of[n].witness == (), (tag, n)
    assert overflows, cap


def test_mp_pairs_combinations_grow_linearly():
    # the product size of each component with an enumerable load, from the
    # per-thread stats: a component's product is its threads' products
    counts = []
    for k in range(1, 8):
        prog = program(mp_text(k))
        relstore = extract_all(prog)
        candidates = collect_candidates(relstore)
        _, _, stats = analyze_all(prog, TSO)
        counts.append(sum(
            math.prod(stats.per_thread[t].combinations_enumerated
                      for t in names)
            for names in interference_components(prog, relstore, candidates)
            if any(l in candidates for t in names
                   for l in prog.threads[t].nodes)))
    assert counts == [4 * k for k in range(1, 8)]
