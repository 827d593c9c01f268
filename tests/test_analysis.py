"""Analysis driver: sequential degeneracy, enumeration, fixpoint shape,
memoized thread runs, the flow graphs' visit plans, fixpoint exactness
against the reference loop."""
from __future__ import annotations

import copy
from collections import Counter, deque

import pytest

from relaxcheck import analysis
from relaxcheck.analysis import (
    ThreadRuns, analyze_all, analyze_thread, bootstrap_fixpoint,
    collect_candidates, enumerate_combinations, initial_env,
    loop_fallback_env,
)
from relaxcheck.domain import POS_INF, AbstractEnv, Interval
from relaxcheck.feasibility import FeasibilityContext, MemoryModel
from relaxcheck.frontend import lower, parse, parse_and_lower
from relaxcheck.ir import Assert, Load, Store, VarId
from relaxcheck.oracle import violates
from relaxcheck.relations import extract_all

from conftest import (
    CORPUS_FILES, MODELS, analyzer_result, corpus_program, corpus_text,
    ring_text,
)

SC, TSO = MemoryModel.SC, MemoryModel.TSO


# ---------------------------------------------------------------------------
# Single-thread degeneracy: interference machinery is the identity
# ---------------------------------------------------------------------------

def test_single_thread_equals_sequential_analysis():
    for name in ("seq1.lit", "seq2.lit"):
        prog = corpus_program(name)
        init = initial_env(prog)
        env_map, verdicts, _ = analyze_all(prog, SC)
        for tname, graph in prog.threads.items():
            sequential = analyze_thread(graph, init, {})
            for n in graph.nodes:
                assert env_map[n] == sequential[n], (name, tname, n)
        assert all(v.status == "PROVED" for v in verdicts)


def test_single_thread_same_under_every_model():
    prog = corpus_program("seq1.lit")
    results = [analyze_all(prog, m) for m in MODELS]
    base = results[0]
    for env_map, verdicts, _ in results[1:]:
        assert [(v.node, v.status) for v in verdicts] \
            == [(v.node, v.status) for v in base[1]]
        for n in base[0]:
            assert env_map[n] == base[0][n]


# ---------------------------------------------------------------------------
# Combination enumeration
# ---------------------------------------------------------------------------

class _Unpruned:
    """A feasibility context that refutes no prefix: the enumeration is the
    whole product."""

    def root(self):
        return ()

    def extend(self, prefix, load, source):
        return prefix


def test_enumerate_combinations_counts():
    combos, overflow = enumerate_combinations({1: [10], 2: [20]}, cap=100,
                                              ctx=_Unpruned())
    assert not overflow
    assert len(combos) == 4
    assert {1: None, 2: None} in combos
    assert {1: 10, 2: 20} in combos


def test_enumerate_combinations_no_loads():
    combos, overflow = enumerate_combinations({}, cap=10, ctx=_Unpruned())
    assert combos == [{}] and not overflow


def test_enumerate_combinations_overflow():
    candidates = {i: [100 + i] for i in range(13)}  # 2^13 > 4096
    combos, overflow = enumerate_combinations(candidates, cap=4096,
                                              ctx=_Unpruned())
    assert overflow and combos == []


def test_overflow_falls_back_to_joined_analysis():
    prog = corpus_program("fig1_nofence.lit")
    env_map, verdicts, stats = analyze_all(prog, TSO, cap=1)
    assert any(t.overflowed for t in stats.per_thread.values())
    # the fallback is a sound over-approximation: verdicts still exist
    assert len(verdicts) == 1
    # and it must not be more precise than full enumeration
    _, full_verdicts, _ = analyzer_result("fig1_nofence.lit", TSO)
    assert [v.status for v in full_verdicts] == ["ALARM"]
    assert [v.status for v in verdicts] == ["ALARM"]


def test_loop_fallback_excludes_refuted_candidate():
    # A load of spin can never read a store that main makes only after
    # joining spin: rule (5) refutes it under every model.
    text = """
    global done = 0;

    thread spin {
      local d = done;
      while (d == 0) {
        d = done;
      }
    }

    thread main {
      join(spin);
      done = 1;
    }
    """
    prog, _ = parse_and_lower(text)
    relstore = extract_all(prog)
    main = prog.threads["main"]
    s_done = next(n for n in main.nodes if isinstance(main.nodes[n], Store))
    spin = prog.threads["spin"]
    l_done = min(n for n in spin.nodes if isinstance(spin.nodes[n], Load))
    var = spin.nodes[l_done].src
    store_envs = {s_done: AbstractEnv({var: Interval.const(1)})}
    for model in MODELS:
        ctx = FeasibilityContext(relstore, model)
        env = loop_fallback_env(l_done, var, [s_done], store_envs, ctx)
        assert env.is_bottom, model


# Thread b reads x only inside a loop, so x = 1 of thread a reaches the
# assert only through the loop load's remote candidates.
_LOOP_LOAD = """
global x = 0;
thread a { x = 1; }
thread b {
  local i = 0;
  local r = 0;
  while (i < 1) {
    r = x;
    i = i + 1;
  }
  assert(r == 0);
}
"""


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_loop_load_reads_its_remote_store(model):
    prog, _ = parse_and_lower(_LOOP_LOAD)
    _, verdicts, _ = analyze_all(prog, model)
    assert [v.status for v in verdicts] == ["ALARM"]
    assert violates(prog, model) == {verdicts[0].node: True}


# b and c join each other, so the base MHB is cyclic and the rules refute
# every combination of their component, a's load and the epilogue's
# included.  Yet a runs, and b stores y = 2 before it blocks.
_JOIN_CYCLE = """
global x = 0, y = 0;
thread a { local r2 = y; assert(r2 == 1); }
thread b { join(c); y = 2; }
thread c { join(b); x = 2; }
assert(x == 2);
"""


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_component_with_no_feasible_combination_takes_the_bootstrap(model):
    prog, _ = parse_and_lower(_JOIN_CYCLE)
    _, verdicts, stats = analyze_all(prog, model)
    flags = violates(prog, model)
    assert [v.status for v in verdicts] == ["ALARM", "ALARM"]
    assert [flags[v.node] for v in verdicts] == [True, False]
    # its stats stay those of the enumeration: every combination pruned
    assert all(t.combinations_pruned == t.combinations_enumerated
               for name, t in stats.per_thread.items() if name != prog.root)


# ---------------------------------------------------------------------------
# Fixpoint shape
# ---------------------------------------------------------------------------

# Each thread's loads read x and store it incremented, so without widening
# the store envs of x would grow forever.
_COUNTER = """
global x = 0;
thread t1 { local a = x; x = a + 1; }
thread t2 { local a = x; x = a + 1; }
thread t3 { local b = x; }
"""


def _bootstrap_closure(prog, model):
    """Bootstrap one program, then check that its store envs are closed:
    the loads' values recomputed from the returned store envs equal the
    returned joined values, fresh runs against them give back the returned
    env map, and every store's post is within its store env.  Returns the
    store envs."""
    relstore = extract_all(prog)
    ctx = FeasibilityContext(relstore, model)
    candidates = collect_candidates(relstore)
    env_map, store_envs, _, boot_joined = bootstrap_fixpoint(
        prog, relstore, ctx, candidates, ThreadRuns(prog, initial_env(prog)))
    # the surviving candidates decided anew, by a context with an empty memo
    fresh = FeasibilityContext(relstore, model)
    joined = {l: loop_fallback_env(l, relstore.load_var[l], stores,
                                   store_envs, fresh)
              for l, stores in candidates.items()}
    assert boot_joined == joined
    for graph in prog.threads.values():
        post = analyze_thread(graph, initial_env(prog), {}, joined)
        for n in graph.nodes:
            assert post[n] == env_map[n], (graph.thread, n)
    for s, env in store_envs.items():
        assert env_map[s].leq(env), s
    return store_envs


def test_bootstrap_store_envs_are_closed():
    for name in CORPUS_FILES:
        for model in MODELS:
            _bootstrap_closure(corpus_program(name), model)
    prog, _ = parse_and_lower(_COUNTER)
    x = VarId("x")
    for model in MODELS:
        # bootstrap_fixpoint raises past _MAX_ROUNDS rounds
        store_envs = _bootstrap_closure(prog, model)
        assert len(store_envs) == 2  # the stores of t1 and t2
        for s, env in store_envs.items():
            assert env.get(x).hi == POS_INF, (model, s)


def test_analyze_thread_load_reads():
    # a pinned load reads the given interval, a joined load reads its
    # sequential value joined with it, any other load its sequential value
    prog, _ = parse_and_lower("global x = 0; thread t { local a = x; }")
    g = prog.threads["t"]
    (load,) = (n for n in g.nodes if isinstance(g.nodes[n], Load))
    a = VarId("a", "t")
    init = initial_env(prog)
    five = {load: Interval.const(5)}
    for pinned, joined, expected in ((five, None, Interval(5, 5)),
                                     ({}, five, Interval(0, 5)),
                                     ({}, None, Interval(0, 0))):
        post = analyze_thread(g, init, pinned, joined)
        assert post[g.exit].get(a) == expected, (pinned, joined)


def test_widening_forces_loop_termination():
    prog = corpus_program("loop_local.lit")
    g = prog.threads["t"]
    post = analyze_thread(g, initial_env(prog), {})
    # the loop exit sees the widened counter refined by the exit guard
    exit_env = post[g.exit]
    assert not exit_env.is_bottom
    i_var = next(v for v in exit_env.variables() if v.name == "i")
    assert exit_env.get(i_var).lo == 3


def test_stats_shape():
    _, _, stats = analyzer_result("fig2_fence.lit", TSO)
    assert stats.threads == 3
    assert stats.nodes == 21
    assert stats.outer_rounds >= 2
    assert set(stats.per_thread) == {"t1", "t2", "__root__"}


def test_verdicts_deterministic_across_runs():
    prog = corpus_program("fig7.lit")
    first = analyze_all(prog, TSO)
    second = analyze_all(prog, TSO)
    assert first[1] == second[1]
    for n in first[0]:
        assert first[0][n] == second[0][n]


def test_alarm_witness_names_loads_and_sources():
    _, verdicts, _ = analyzer_result("fig1_nofence.lit", TSO)
    (v,) = verdicts
    assert v.status == "ALARM"
    assert v.witness  # (load node -> store node | None) pairs
    prog = corpus_program("fig1_nofence.lit")
    all_nodes = {n: instr for g in prog.threads.values()
                 for n, instr in g.nodes.items()}
    for load, store in v.witness:
        assert isinstance(all_nodes[load], Load)
        assert store is None or store in all_nodes


# ---------------------------------------------------------------------------
# Memoized thread runs
# ---------------------------------------------------------------------------

def _unmemoized(self, graph, pinned, joined):
    return analysis.analyze_thread(graph, self.init, pinned, joined)


def test_memo_changes_no_result(monkeypatch):
    cells = [(name, model) for name in CORPUS_FILES for model in MODELS]
    memoized = {cell: analyzer_result(*cell) for cell in cells}
    monkeypatch.setattr(ThreadRuns, "run", _unmemoized)
    for name, model in cells:
        env_map, verdicts, stats = analyze_all(corpus_program(name), model)
        memo_map, memo_verdicts, memo_stats = memoized[name, model]
        assert verdicts == memo_verdicts, (name, model)
        assert stats == memo_stats, (name, model)
        assert env_map.keys() == memo_map.keys()
        for n, env in env_map.items():
            assert env == memo_map[n], (name, model, n)
            assert str(env) == str(memo_map[n]), (name, model, n)


_NEST = """
global g = 0, h = 0;
thread nest {
  local i = 0;
  while (i < 3) {
    h = i;
    local j = 0;
    while (j < 2) {
      g = j;
      j = j + 1;
    }
    i = i + 1;
  }
}
thread obs {
  local a = g;
  local b = h;
  assert(a >= 0 && a < 2);
  assert(b < 2);
}
"""


def test_thread_without_loads_runs_once(monkeypatch):
    # the nest thread has no global loads, so every bootstrap round and
    # every combination round gives it the same input
    prog, _ = parse_and_lower(_NEST)
    runs: Counter = Counter()
    real = analysis.analyze_thread

    def counting(graph, init_env, pinned, joined=None):
        runs[graph.thread] += 1
        return real(graph, init_env, pinned, joined)

    monkeypatch.setattr(analysis, "analyze_thread", counting)
    for model in MODELS:
        runs.clear()
        _, verdicts, stats = analyze_all(prog, model)
        assert runs["nest"] == 1, (model, runs)
        assert stats.outer_rounds > 1 and runs["obs"] > 1, (model, runs)
        assert [v.status for v in verdicts] == ["PROVED", "ALARM"]


def test_each_distinct_thread_result_is_judged_once(monkeypatch):
    # the ring's 1,024 combinations share far fewer thread results; an
    # assert is judged at most once on each result of its thread
    prog, _ = parse_and_lower(ring_text(5))
    assert_of = {id(instr.cond): n for g in prog.threads.values()
                 for n, instr in g.nodes.items() if isinstance(instr, Assert)}
    thread_of = {n: name for name, g in prog.threads.items()
                 for n in g.nodes}
    results: dict[str, set] = {name: set() for name in prog.threads}
    judged: Counter = Counter()
    run, judge = ThreadRuns.run, analysis.may_be_false

    def recording(self, graph, pinned, joined):
        post = run(self, graph, pinned, joined)
        results[graph.thread].add(id(post))
        return post

    def counting(cond, env):
        judged[assert_of[id(cond)]] += 1
        return judge(cond, env)

    monkeypatch.setattr(ThreadRuns, "run", recording)
    monkeypatch.setattr(analysis, "may_be_false", counting)
    for model in MODELS:
        for ids in results.values():
            ids.clear()
        judged.clear()
        analyze_all(prog, model)
        assert judged, model
        for n, count in judged.items():
            assert count <= len(results[thread_of[n]]), (model, n, count)


# ---------------------------------------------------------------------------
# Fixpoint exactness: analyze_thread against the reference loop
# ---------------------------------------------------------------------------

def _reference_analyze_thread(graph, init_env, pinned, joined=None):
    """The fixpoint loop before its visits were made cheap: the input is a
    fresh bottom joined with every predecessor's post, a widening node past
    2 visits widens the join of its old env and the transfer's output, and
    every visit ends with a full `leq`.  Same FIFO order, same widening
    nodes, same module-global `transfer`."""
    joined = joined or {}
    cycles = graph.loop_nodes
    post = {n: AbstractEnv(is_bottom=True) for n in graph.nodes}
    visits = {n: 0 for n in graph.nodes}
    worklist = deque([graph.entry])
    in_list = {graph.entry}
    while worklist:
        n = worklist.popleft()
        in_list.discard(n)
        instr = graph.nodes[n]
        if n == graph.entry:
            inp = init_env
        else:
            inp = AbstractEnv(is_bottom=True)
            for p in graph.predecessors(n):
                inp = inp.join(post[p])
        if isinstance(instr, Load) and not inp.is_bottom:
            if n in pinned:
                inp = inp.set(instr.src, pinned[n])
            if n in joined:
                inp = inp.set(instr.src, inp.get(instr.src).join(joined[n]))
        out = analysis.transfer(instr, inp)
        visits[n] += 1
        new = post[n].join(out)
        if n in cycles and visits[n] > 2:
            new = post[n].widen(new)
        if not new.leq(post[n]):
            post[n] = new
            for s in graph.successors(n):
                if s not in in_list:
                    in_list.add(s)
                    worklist.append(s)
    return post


def _exact(post):
    """Each node's env as plain data: None for bottom, else its whole map,
    so an explicit Top entry and a missing key differ."""
    return {n: None if env.is_bottom else dict(env._map)
            for n, env in post.items()}


def _nest_text(depth: int) -> str:
    """`depth` nested counting loops publishing the outermost and innermost
    counters, and an observer reading both."""
    lines = ["global g = 0, h = 0;", "thread nest {"]
    indent = "  "
    for level in range(depth):
        lines.append(f"{indent}local i{level} = 0;")
        lines.append(f"{indent}while (i{level} < {2 + level % 3}) {{")
        indent += "  "
        if level == 0:
            lines.append(f"{indent}h = i0;")
    lines.append(f"{indent}g = i{depth - 1};")
    for level in reversed(range(depth)):
        lines.append(f"{indent}i{level} = i{level} + 1;")
        indent = indent[:-2]
        lines.append(f"{indent}}}")
    lines += ["}", "thread obs {", "  local a = g;", "  local b = h;",
              "  assert(a < 2);", "}"]
    return "\n".join(lines)


def _plan_texts():
    yield from (corpus_text(name) for name in CORPUS_FILES)
    yield from (_nest_text(depth) for depth in range(2, 15))


def test_visit_plan_matches_the_graph():
    """Each plan entry is the node's instruction, its predecessors and
    successors in `adjacency` order, whether it is a loop node and a load's
    source; the plan is built once, and the graphs still compare (and
    deep-copy) by their fields alone."""
    for text in _plan_texts():
        ast = parse(text)
        program = lower(ast)
        for graph in program.threads.values():
            plan = graph.plan
            assert list(plan) == list(graph.nodes)
            for n, (instr, preds, succs, widens, src) in plan.items():
                assert instr is graph.nodes[n]
                assert preds == graph.predecessors(n) == tuple(
                    sorted(a for a, b in graph.edges if b == n))
                assert succs == graph.successors(n) == tuple(
                    sorted(b for a, b in graph.edges if a == n))
                assert widens == (n in graph.loop_nodes)
                assert src == (instr.src if isinstance(instr, Load)
                               else None)
            assert graph.plan is plan
        assert program == lower(ast)
        assert copy.deepcopy(program) == program


def _assert_fixpoints_exact(prog, model, monkeypatch, label):
    """Every thread of `prog`, run alone and with the bootstrap's joined
    values, gives node-for-node the reference's env maps with as many
    `transfer` and `AbstractEnv.widen` calls."""
    relstore = extract_all(prog)
    ctx = FeasibilityContext(relstore, model)
    candidates = collect_candidates(relstore)
    init = initial_env(prog)
    _, _, _, joined = bootstrap_fixpoint(
        prog, relstore, ctx, candidates, ThreadRuns(prog, init))
    calls: Counter = Counter()
    total: Counter = Counter()
    transfer, widen = analysis.transfer, AbstractEnv.widen

    def counting_transfer(instr, env):
        calls["transfer"] += 1
        return transfer(instr, env)

    def counting_widen(self, other):
        calls["widen"] += 1
        return widen(self, other)

    with monkeypatch.context() as m:
        m.setattr(analysis, "transfer", counting_transfer)
        m.setattr(AbstractEnv, "widen", counting_widen)
        for graph in prog.threads.values():
            for loads in ({}, joined):
                where = (label, model, graph.thread, bool(loads))
                calls.clear()
                expected = _reference_analyze_thread(graph, init, {}, loads)
                expected_calls = dict(calls)
                calls.clear()
                got = analyze_thread(graph, init, {}, loads)
                assert dict(calls) == expected_calls, where
                assert _exact(got) == _exact(expected), where
                total.update(calls)
    return total


def test_fixpoint_equals_reference_on_corpus(monkeypatch):
    for name in CORPUS_FILES:
        for model in MODELS:
            _assert_fixpoints_exact(corpus_program(name), model,
                                    monkeypatch, name)


def test_fixpoint_equals_reference_on_nests(monkeypatch):
    for depth in range(2, 15):
        prog, _ = parse_and_lower(_nest_text(depth))
        calls = _assert_fixpoints_exact(prog, TSO, monkeypatch,
                                        f"nest-{depth}")
        # every nest widens, so the widening counts are not vacuous
        assert calls["widen"] > 0, depth


# A local first assigned inside a loop reaches the loop head with nothing
# else changed: the head's new env only adds that key (as Top), so it is not
# its old env by identity yet is below it, and must not propagate.
_LOOP_LOCAL_ONLY = """
global x = 0;
thread t {
  while (x < 1) {
    local a = 0;
  }
  while (x < 1) {
    local b = x;
    local c = b * b;
  }
}
"""


def test_fixpoint_equals_reference_when_only_a_key_is_added(monkeypatch):
    prog, _ = parse_and_lower(_LOOP_LOCAL_ONLY)
    for model in MODELS:
        _assert_fixpoints_exact(prog, model, monkeypatch, "loop-local-only")
