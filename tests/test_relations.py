"""Static relation extraction: classifiers, dominators, reachability, the
`--emit-relations` output and the per-node form the analyzer reads, and
the store's masks against the code they replaced."""
from __future__ import annotations

import functools
import hashlib
import operator
import re

from relaxcheck import analyze_all, parse_and_lower
from relaxcheck.analysis import collect_candidates
from relaxcheck.cli import _relation_dump
from relaxcheck.datalog import solve
from relaxcheck.feasibility import FeasibilityContext, MemoryModel
from relaxcheck.ir import Fence, FlowGraph, Load, Membar, Nop, validate
from relaxcheck.relations import extract_all

from conftest import (
    CORPUS_FILES, MODELS, analyzer_result, corpus_program, corpus_text,
    dominates, mp_text, not_reachable_from, relation, ring_text, with_gaps,
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
    targets = set(store.thread_creates.values())
    assert {prog.threads["t1"].entry, prog.threads["t2"].entry} <= targets
    exits = set(store.thread_joins.values())
    assert {prog.threads["t1"].exit, prog.threads["t2"].exit} <= exits


def test_fence_populates_all_membar_relations():
    prog = corpus_program("fig2_fence.lit")
    store = extract_all(prog)
    assert store.fences.bit_count() == 1
    for kind in ("LL", "LS", "SL", "SS"):
        assert store.membars[kind] & store.fences


def test_membar_node_populates_only_declared_kinds():
    prog = corpus_program("sb_membar.lit")
    store = extract_all(prog)
    ms = functools.reduce(operator.or_, store.membars.values())
    # every membar node appears exactly in its declared kinds
    for name, g in prog.threads.items():
        for n, instr in g.nodes.items():
            if isinstance(instr, Membar):
                for kind in ("LL", "LS", "SL", "SS"):
                    assert bool(store.membars[kind] >> n & 1) == \
                        (kind in instr.kinds)
            elif not isinstance(instr, Fence):
                assert not ms >> n & 1


def test_init_stores_in_is_store():
    prog = corpus_program("fig1_nofence.lit")
    store = extract_all(prog)
    store_nodes = set(store.store_var)
    assert set(prog.init_stores.values()) <= store_nodes


def test_dominates_and_nrf_same_thread_only():
    prog = corpus_program("fig1_nofence.lit")
    ctx = FeasibilityContext(extract_all(prog), MemoryModel.SC)
    for name in ("Dominates", "NotReachableFrom"):
        for a, b in relation(ctx, name):
            assert ctx.store.thread_of[a] == ctx.store.thread_of[b]


def test_dump_is_deterministic():
    def dump():
        program, _ = parse_and_lower(corpus_text("fig2_fence.lit"))
        return list(_relation_dump(program, MemoryModel.TSO))
    assert dump() == dump()


#: sha256 of `--emit-relations` over corpus x models, when every relation
#: was a stored pair set, printed sorted
RELATION_DUMP_DIGEST = \
    "dbd236104ac0466a5d1b2f18ad2d26dde0838bdfc8af52d004f9623532a9f81e"

#: sha256 of the streamed `--emit-relations` over corpus x models
STREAMED_DUMP_DIGEST = \
    "fcb68ebf86572b9e8e82597ab0b60a4b39e8a69cc888c696d972ebf9cd9750d4"

#: the relations that pair-set dump sorted by the text of each argument;
#: it sorted the rest by node id
_SORTED_AS_TEXT = {"IsLoad", "IsStore", "Dominates", "NotReachableFrom",
                   "ThreadCreates", "ThreadJoins"}


def _as_sorted_pair_sets(lines):
    """The dump's lines, each relation's sorted as the pair-set dump
    sorted them.  The relations keep their order."""
    by_relation: dict[str, list[list[str]]] = {}
    for line in lines:
        name, args = line[:-1].split("(")
        by_relation.setdefault(name, []).append(args.split(","))
    for name, facts in by_relation.items():
        key = None if name in _SORTED_AS_TEXT else lambda a: [*map(int, a)]
        for args in sorted(facts, key=key):
            yield f"{name}({','.join(args)})"


def _dump_digest(order=list) -> str:
    digest = hashlib.sha256()
    for name in CORPUS_FILES:
        for model in MODELS:
            dump = "\n".join(order(_relation_dump(corpus_program(name),
                                                  model)))
            digest.update(f"{name} {model}\n{dump}\n".encode())
    return digest.hexdigest()


def test_relation_dump_digest_is_pinned():
    """Each relation's facts, sorted as the pair-set dump sorted them,
    print byte for byte as they did when the relations were pair sets."""
    assert _dump_digest(_as_sorted_pair_sets) == RELATION_DUMP_DIGEST


def test_streamed_dump_digest_is_pinned():
    """The dump as it streams, in node order, is pinned too."""
    assert _dump_digest() == STREAMED_DUMP_DIGEST


def test_analyzer_builds_no_pair_set(monkeypatch):
    """analyze_all reads Dominates, NotReachableFrom, NoReorder and MHB per
    node only, never decoding them into facts, and each flow graph computes
    its dominators and its reach once across the four models."""
    expected = {(name, model): analyzer_result(name, model)
                for name in CORPUS_FILES for model in MODELS}

    def refuse(ctx):
        raise AssertionError("the analyzer decoded relation facts")
    monkeypatch.setattr(FeasibilityContext, "relation_facts", refuse)
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
            ctx = FeasibilityContext(extract_all(gapped), model)
            assert relation(ctx, "MHB") == solve(ctx.relation_facts(),
                                                 set())[0]
            renamed = [re.sub(r"(?<=[(,])\d+(?=[,)])", unshift, line)
                       for line in _relation_dump(gapped, model)]
            assert renamed == list(_relation_dump(program, model)), \
                (name, model)


# ---------------------------------------------------------------------------
# The code the store's masks replaced, kept as references
# ---------------------------------------------------------------------------

def _reference_candidates(program, store) -> dict[int, list[int]]:
    """The scan `collect_candidates` made over loads x stores: per load,
    the stores to its variable in other threads, init stores excluded, in
    node order."""
    init_nodes = set(program.init_stores.values())
    stores = sorted(s for s in store.store_var if s not in init_nodes)
    out: dict[int, list[int]] = {}
    for graph in program.threads.values():
        for n in sorted(graph.nodes):
            instr = graph.nodes[n]
            if isinstance(instr, Load):
                out[n] = [s for s in stores
                          if store.store_var[s] == instr.src
                          and store.thread_of[s] != graph.thread]
    return out


def _reference_init_source(program, store) -> dict[int, int | None]:
    """The loop every context ran per model: a load's init store, unless
    a store to its variable reaches the load."""
    out: dict[int, int | None] = {}
    for l, v in store.load_var.items():
        forwarded = any(store.reach[s] >> l & 1
                        for s, sv in store.store_var.items() if sv == v)
        out[l] = None if forwarded else program.init_stores.get(v)
    return out


def _reference_reachable(graph: FlowGraph) -> dict[int, int]:
    """The sweep `FlowGraph.reachable` made: the backward dataflow
    reach[n] = OR over successors s of {s} | reach[s], iterated over
    descending node ids until stable."""
    reach = dict.fromkeys(sorted(graph.nodes, reverse=True), 0)
    while True:
        before = dict(reach)
        for n in reach:
            for s in graph.successors(n):
                reach[n] |= 1 << s | reach[s]
        if reach == before:
            return reach


def _reference_programs():
    """The corpus, with and without gaps in its node ids, k message-passing
    pairs for k = 1..3 and store-buffering rings of 2..4 threads."""
    for name in CORPUS_FILES:
        program = corpus_program(name)
        yield name, program
        yield name + " gapped", with_gaps(program, lambda n: 3 * n + 2)
    for k in (1, 2, 3):
        yield f"mp {k}", parse_and_lower(mp_text(k))[0]
        yield f"ring {k + 1}", parse_and_lower(ring_text(k + 1))[0]


def test_candidates_equal_the_scan_they_replaced():
    for name, program in _reference_programs():
        store = extract_all(program)
        assert collect_candidates(store) \
            == _reference_candidates(program, store), name


def test_init_sources_equal_the_per_model_loop():
    for name, program in _reference_programs():
        store = extract_all(program)
        expected = {l: None if s is None else (l, s) for l, s in
                    _reference_init_source(program, store).items()}
        for model in MODELS:
            ctx = FeasibilityContext(store, model)
            assert {l: ctx.fact(l, None) for l in store.load_var} \
                == expected, (name, model)


def test_reachable_equals_the_sweep_it_replaced():
    for name, program in _reference_programs():
        for graph in program.threads.values():
            assert graph.reachable == _reference_reachable(graph), \
                (name, graph.thread)
