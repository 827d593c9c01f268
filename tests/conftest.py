"""Shared fixtures: corpus discovery, cached analyzer/oracle results, two
generated program families, the per-component combination product, a
relation's facts and MHB rows as pair sets (one flow graph's Dominates and
NotReachableFrom among them), reads-from facts of a choice of sources, the
MHB rows they close and their one-shot feasibility, and a program's copy
with gaps in its node ids.

Analyzer and oracle runs are memoized per (program, model) so the property
suites and the acceptance gate can sample them repeatedly without re-paying
the fixpoint or the execution enumeration.
"""
from __future__ import annotations

import functools
import itertools
import pathlib

import pytest

from relaxcheck import MemoryModel, analyze_all, parse_and_lower
from relaxcheck.analysis import collect_candidates, interference_components
from relaxcheck.feasibility import Fact, FeasibilityContext
from relaxcheck.ir import FlowGraph, Nop, Program, bits
from relaxcheck.oracle import enumerate_executions, violates
from relaxcheck.relations import extract_all

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

CORPUS_FILES = sorted(p.name for p in CORPUS.glob("*.lit"))

MODELS = [MemoryModel.SC, MemoryModel.TSO, MemoryModel.PSO, MemoryModel.RMO]


@functools.lru_cache(maxsize=None)
def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


@functools.lru_cache(maxsize=None)
def corpus_program(name: str):
    program, _ = parse_and_lower(corpus_text(name))
    return program


@functools.lru_cache(maxsize=None)
def analyzer_result(name: str, model: MemoryModel):
    """(env_map, verdicts, stats) for one corpus program and model."""
    return analyze_all(corpus_program(name), model)


@functools.lru_cache(maxsize=None)
def oracle_flags(name: str, model: MemoryModel) -> dict[int, bool]:
    return violates(corpus_program(name), model)


@functools.lru_cache(maxsize=None)
def oracle_behaviors(name: str, model: MemoryModel) -> frozenset:
    return frozenset(enumerate_executions(corpus_program(name), model))


def relation(ctx: FeasibilityContext, name: str) -> set[tuple]:
    """One relation of `ctx.relation_facts()`, as a set of argument
    tuples."""
    return {fact[1:] for fact in ctx.relation_facts() if fact[0] == name}


def node_pairs(rows) -> set[tuple[int, int]]:
    """The (n, m) pairs with bit m set in the mask of node n."""
    return {(n, m) for n, mask in enumerate(rows) for m in bits(mask)}


def _graph_context(graph: FlowGraph) -> FeasibilityContext:
    """A context for one flow graph's edges: a program of one thread, the
    graph with a Nop at every node."""
    nops = FlowGraph(graph.thread, dict.fromkeys(graph.nodes, Nop()),
                     graph.entry, graph.exit, graph.edges)
    program = Program({}, {graph.thread: nops}, graph.thread)
    return FeasibilityContext(extract_all(program), MemoryModel.SC)


def dominates(graph) -> set[tuple[int, int]]:
    """One flow graph's Dominates, as the relation facts decode it."""
    return relation(_graph_context(graph), "Dominates")


def not_reachable_from(graph) -> set[tuple[int, int]]:
    """One flow graph's NotReachableFrom, as the relation facts decode
    it."""
    return relation(_graph_context(graph), "NotReachableFrom")


def facts_for(ctx: FeasibilityContext, sources: dict[int, int | None]
              ) -> frozenset[Fact]:
    """Reads-from facts of a choice of source per load (see
    `FeasibilityContext.fact`)."""
    return frozenset(f for load, source in sources.items()
                     if (f := ctx.fact(load, source)) is not None)


def mhb_rows(ctx: FeasibilityContext, facts) -> list[int]:
    """The base MHB rows closed under the reads-from facts, all at once."""
    return ctx.add_facts(ctx.root()[0], (), tuple(facts))


def check_feasible(program: Program, model: MemoryModel,
                   sources: dict[int, int | None]) -> bool:
    """One-shot feasibility of a choice of source per load (see
    `facts_for`)."""
    ctx = FeasibilityContext(extract_all(program), model)
    return ctx.check_facts(facts_for(ctx, sources))


def with_gaps(program: Program, shift) -> Program:
    """A copy of the program with every node id n renamed shift(n)."""
    return Program(
        dict(program.globals),
        {name: FlowGraph(name, {shift(n): i for n, i in g.nodes.items()},
                         shift(g.entry), shift(g.exit),
                         {(shift(a), shift(b)) for a, b in g.edges})
         for name, g in program.threads.items()},
        program.root,
        {v: shift(n) for v, n in program.init_stores.items()})


def component_loads(prog, relstore):
    """Per interference component with an enumerable load: its loads and
    their candidates, as analyze_all enumerates them."""
    candidates = collect_candidates(relstore)
    loops = {n for g in prog.threads.values() for n in g.loop_nodes}
    for names in interference_components(prog, relstore, candidates):
        loads = {l: candidates[l] for t in names for l in prog.threads[t].nodes
                 if l in candidates and l not in loops}
        if loads:
            yield loads


def product(loads) -> list[dict]:
    """Every combination of the loads' choices (no interference, then each
    candidate), in itertools.product order over the sorted loads."""
    order = sorted(loads)
    return [dict(zip(order, picks))
            for picks in itertools.product(*([None] + loads[l]
                                             for l in order))]


def mp_text(k: int, fenced: bool = True) -> str:
    """k independent message-passing pairs; the fences make every assert
    hold under every model, and without them PSO and RMO violate it."""
    fence = "  fence;\n" if fenced else ""
    lines = ["global " + ", ".join(f"d{i} = 0, f{i} = 0" for i in range(k))
             + ";"]
    for i in range(k):
        lines.append(f"thread w{i} {{\n  d{i} = 1;\n{fence}  f{i} = 1;\n}}")
        lines.append(f"thread r{i} {{\n  local seen = f{i};\n{fence}"
                     f"  local got = d{i};\n"
                     f"  if (seen == 1) {{\n    assert(got == 1);\n  }}\n}}")
    return "\n".join(lines) + "\n"


def ring_text(k: int) -> str:
    """A k-thread store-buffering ring: each thread stores its own
    variable, fences, then loads the next two threads' variables and
    asserts that one of them was already stored.  Every thread reads from
    the others, so the ring is one component of 4^k combinations."""
    lines = ["global " + ", ".join(f"x{i} = 0" for i in range(k)) + ";"]
    for i in range(k):
        a, b = (i + 1) % k, (i + 2) % k
        lines.append(f"thread t{i} {{\n  x{i} = 1;\n  fence;\n"
                     f"  local a = x{a};\n  local b = x{b};\n"
                     f"  assert(a == 1 || b == 1);\n}}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def corpus_dir() -> pathlib.Path:
    return CORPUS
