"""Static relation extraction: classifiers, dominators, reachability, the
`--emit-relations` output and the per-node form the analyzer reads."""
from __future__ import annotations

import functools
import hashlib
import re

from relaxcheck import analyze_all, parse_and_lower
from relaxcheck.cli import _relation_dump
from relaxcheck.datalog import spec_mhb
from relaxcheck.feasibility import FeasibilityContext
from relaxcheck.ir import Fence, FlowGraph, Membar, Nop, validate
from relaxcheck.relations import RelationStore, extract_all

from conftest import (
    CORPUS_FILES, MODELS, analyzer_result, corpus_program, corpus_text,
    dominates, not_reachable_from, with_gaps,
)


def _graph(n_nodes: int, edges: set[tuple[int, int]]) -> FlowGraph:
    nodes = {i: Nop() for i in range(n_nodes)}
    return FlowGraph("t", nodes, 0, n_nodes - 1, edges)


def brute_force_dominates(graph: FlowGraph) -> set[tuple[int, int]]:
    """(a, b) iff every entry->b path passes through a, via path search:
    b unreachable from entry once a is deleted."""
    out = set()
    for a in graph.nodes:
        reach = {graph.entry} - {a}
        stack = list(reach)
        while stack:
            n = stack.pop()
            for s in graph.successors(n):
                if s != a and s not in reach:
                    reach.add(s)
                    stack.append(s)
        if graph.entry == a:
            reach = set()
        for b in graph.nodes:
            if b != a and b not in reach:
                # unreachable without a; only counts if reachable at all
                out.add((a, b))
    # restrict to entry-reachable targets
    reachable = {graph.entry}
    stack = [graph.entry]
    while stack:
        n = stack.pop()
        for s in graph.successors(n):
            if s not in reachable:
                reachable.add(s)
                stack.append(s)
    return {(a, b) for (a, b) in out
            if a in reachable and b in reachable}


def test_dominates_chain():
    g = _graph(3, {(0, 1), (1, 2)})
    assert dominates(g) == {(0, 1), (0, 2), (1, 2)}


def test_dominates_diamond():
    g = _graph(4, {(0, 1), (0, 2), (1, 3), (2, 3)})
    d = dominates(g)
    assert (0, 3) in d
    assert (1, 3) not in d and (2, 3) not in d


def test_dominates_strict():
    g = _graph(2, {(0, 1)})
    assert all(a != b for a, b in dominates(g))


def test_dominates_with_loop_before_pair():
    # entry -> loop {1 <-> 2} -> 3 -> 4: 3 dominates 4 despite the loop
    g = _graph(5, {(0, 1), (1, 2), (2, 1), (2, 3), (3, 4)})
    assert (3, 4) in dominates(g)


def test_dominates_matches_brute_force_on_small_graphs():
    shapes = [
        _graph(3, {(0, 1), (1, 2)}),
        _graph(4, {(0, 1), (0, 2), (1, 3), (2, 3)}),
        _graph(5, {(0, 1), (1, 2), (2, 1), (2, 3), (3, 4)}),
        _graph(6, {(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5)}),
    ]
    for g in shapes:
        assert dominates(g) == brute_force_dominates(g)


def test_not_reachable_from_straight_line():
    g = _graph(2, {(0, 1)})
    nrf = not_reachable_from(g)
    assert (0, 1) in nrf          # 0 not reachable from 1
    assert (1, 0) not in nrf      # 1 is reachable from 0


def test_not_reachable_from_loop():
    g = _graph(4, {(0, 1), (1, 2), (2, 1), (2, 3)})
    nrf = not_reachable_from(g)
    assert (1, 2) not in nrf      # back edge: 1 reachable from 2
    assert (1, 1) not in nrf      # on a cycle: self-reachable
    # reflexive pairs are always excluded (trivial empty path)
    assert (0, 0) not in nrf


def test_thread_edges_from_root():
    prog = corpus_program("fig2_fence.lit")
    store = extract_all(prog)
    creates, joins = store.thread_creates, store.thread_joins
    targets = {b for (_, b) in creates}
    assert {prog.threads["t1"].entry, prog.threads["t2"].entry} <= targets
    exits = {b for (_, b) in joins}
    assert {prog.threads["t1"].exit, prog.threads["t2"].exit} <= exits


def test_fence_populates_all_membar_relations():
    prog = corpus_program("fig2_fence.lit")
    store = extract_all(prog)
    fences = store.is_fence
    assert len(fences) == 1
    f = next(iter(fences))
    for kind in ("LL", "LS", "SL", "SS"):
        assert f in store.membars[kind]


def test_membar_node_populates_only_declared_kinds():
    prog = corpus_program("sb_membar.lit")
    store = extract_all(prog)
    declared = {k for k, members in store.membars.items() if members}
    ms = set().union(*(store.membars[k] for k in declared)) \
        if declared else set()
    # every membar node appears exactly in its declared kinds
    for name, g in prog.threads.items():
        for n, instr in g.nodes.items():
            if isinstance(instr, Membar):
                for kind in ("LL", "LS", "SL", "SS"):
                    assert (n in store.membars[kind]) == \
                        (kind in instr.kinds)
            elif not isinstance(instr, Fence):
                assert n not in ms


def test_init_stores_in_is_store():
    prog = corpus_program("fig1_nofence.lit")
    store = extract_all(prog)
    store_nodes = {n for (n, _) in store.is_store}
    assert set(prog.init_stores.values()) <= store_nodes


def test_dominates_and_nrf_same_thread_only():
    prog = corpus_program("fig1_nofence.lit")
    store = extract_all(prog)
    for rel in (store.dominates, store.not_reachable_from):
        for a, b in rel:
            assert store.thread_of[a] == store.thread_of[b]


def test_dump_is_deterministic():
    prog = corpus_program("fig2_fence.lit")
    assert extract_all(prog).dump() == extract_all(prog).dump()


#: sha256 of `--emit-relations` over corpus x models, when every relation
#: was a stored pair set
RELATION_DUMP_DIGEST = \
    "dbd236104ac0466a5d1b2f18ad2d26dde0838bdfc8af52d004f9623532a9f81e"


def test_relation_dump_digest_is_pinned():
    """Dominates, NotReachableFrom, NoReorder and MHB print byte for byte
    as they did when the relations were pair sets."""
    digest = hashlib.sha256()
    for name in CORPUS_FILES:
        for model in MODELS:
            dump = _relation_dump(corpus_program(name), model)
            digest.update(f"{name} {model}\n{dump}\n".encode())
    assert digest.hexdigest() == RELATION_DUMP_DIGEST


def test_analyzer_builds_no_pair_set(monkeypatch):
    """analyze_all reads Dominates, NotReachableFrom, NoReorder and MHB per
    node only, and each flow graph computes its dominators and its reach
    once across the four models."""
    expected = {(name, model): analyzer_result(name, model)
                for name in CORPUS_FILES for model in MODELS}

    def refuse(instance):
        raise AssertionError("the analyzer built a pair set")
    for owner, attr in ((RelationStore, "dominates"),
                        (RelationStore, "not_reachable_from"),
                        (FeasibilityContext, "no_reorder"),
                        (FeasibilityContext, "base_mhb")):
        monkeypatch.setattr(owner, attr, property(refuse))
    computed: dict[str, list[FlowGraph]] = {}
    for attr in ("dominators", "reachable"):
        def counted(graph, compute=getattr(FlowGraph, attr).func,
                    calls=computed.setdefault(attr, [])):
            calls.append(graph)
            return compute(graph)
        counted_property = functools.cached_property(counted)
        counted_property.__set_name__(FlowGraph, attr)
        monkeypatch.setattr(FlowGraph, attr, counted_property)

    graphs = []
    for name in CORPUS_FILES:
        program, _ = parse_and_lower(corpus_text(name))
        for model in MODELS:
            assert analyze_all(program, model) == expected[name, model]
        graphs += program.threads.values()
    for attr, calls in computed.items():
        assert sorted(map(id, calls)) == sorted(map(id, graphs)), attr


def test_node_ids_with_gaps_give_the_same_relations():
    """MHB rows are indexed by node id, so ids with gaps leave rows that
    stand for no node: the base MHB still equals the rules' MHB, and every
    relation is the dense program's, renamed."""
    def unshift(m: re.Match) -> str:
        return str((int(m[0]) - 2) // 3)
    for name in CORPUS_FILES:
        program = corpus_program(name)
        gapped = with_gaps(program, lambda n: 3 * n + 2)
        assert validate(gapped) == []
        for model in MODELS:
            ctx = FeasibilityContext(gapped, model)
            assert ctx.base_mhb == spec_mhb(ctx.store, ctx.no_reorder, set())
            renamed = re.sub(r"(?<=[(,])\d+(?=[,)])", unshift,
                             _relation_dump(gapped, model))
            assert sorted(renamed.splitlines()) == sorted(
                _relation_dump(program, model).splitlines()), (name, model)
