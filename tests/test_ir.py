"""Structural checks on the program representation and its validator."""
from __future__ import annotations

import os
import pathlib
import pickle
import subprocess
import sys

import relaxcheck
from relaxcheck.frontend import parse_and_lower
from relaxcheck.ir import (
    Assert, Cmp, Const, FlowGraph, Load, Nop, Program, Store, ThreadCreate,
    ThreadJoin, Var, VarId, validate,
)

from conftest import CORPUS_FILES, corpus_program, corpus_text


def _line(thread: str, instrs) -> FlowGraph:
    nodes = {i: instr for i, instr in enumerate(instrs)}
    edges = {(i, i + 1) for i in range(len(instrs) - 1)}
    return FlowGraph(thread, nodes, 0, len(instrs) - 1, edges)


def _node_count(program: Program) -> int:
    return sum(len(g.nodes) for g in program.threads.values())


def _program_with(graphs: dict[str, FlowGraph]) -> Program:
    x = VarId("x")
    root = _line("__root__", [Nop(), Store(x, Const(0)),
                              *(ThreadCreate(t) for t in graphs),
                              *(ThreadJoin(t) for t in graphs), Nop()])
    offset = 100
    for name, g in graphs.items():
        g.nodes = {n + offset: i for n, i in g.nodes.items()}
        g.edges = {(a + offset, b + offset) for a, b in g.edges}
        g.entry += offset
        g.exit += offset
        offset += 100
    return Program(globals={x: 0}, threads={"__root__": root, **graphs},
                   init_stores={x: 1})


def test_validate_accepts_every_lowered_corpus_program():
    for name in CORPUS_FILES:
        assert validate(corpus_program(name)) == []


def test_validate_reports_entry_with_incoming_edge():
    x = VarId("x")
    t = _line("t", [Nop(), Load(VarId("a", "t"), x), Nop()])
    t.edges.add((t.exit, t.entry))  # back edge into the entry
    prog = _program_with({"t": t})
    diags = validate(prog)
    assert any("entry" in d and "incoming" in d for d in diags)


def test_validate_reports_unknown_thread_target():
    t = _line("t", [Nop(), ThreadCreate("ghost"), Nop()])
    prog = _program_with({"t": t})
    diags = validate(prog)
    assert any("unknown thread 'ghost'" in d for d in diags)


def test_validate_reports_unreachable_node():
    t = _line("t", [Nop(), Nop(), Nop()])
    t.nodes[99] = Nop()
    t.edges.add((99, t.exit))
    prog = _program_with({"t": t})
    assert any("unreachable" in d for d in validate(prog))


def test_validate_reports_negative_node_id():
    t = _line("t", [Nop(), Nop(), Nop()])
    prog = _program_with({"t": t})
    t.nodes = {-n: instr for n, instr in t.nodes.items()}
    t.edges = {(-a, -b) for a, b in t.edges}
    t.entry, t.exit = -t.entry, -t.exit
    assert any("negative node id" in d for d in validate(prog))


def test_validate_rejects_foreign_local_reference():
    a_of_other = VarId("a", "other")
    t = _line("t", [Nop(), Load(a_of_other, VarId("x")), Nop()])
    prog = _program_with({"t": t})
    assert any("belongs to another thread" in d for d in validate(prog))


def test_validate_rejects_global_in_assert_condition():
    cond = Cmp("==", Var(VarId("x")), Const(0))
    t = _line("t", [Nop(), Assert(cond), Nop()])
    prog = _program_with({"t": t})
    assert any("mentions global" in d for d in validate(prog))


def test_validate_detects_creation_cycle():
    t1 = _line("t1", [Nop(), ThreadCreate("t2"), Nop()])
    t2 = _line("t2", [Nop(), ThreadCreate("t1"), Nop()])
    prog = _program_with({"t1": t1, "t2": t2})
    assert any("creation cycle" in d for d in validate(prog))


def test_node_count_empty_program_is_root_entry_and_exit():
    root = _line("__root__", [Nop(), Nop()])
    prog = Program(globals={}, threads={"__root__": root})
    assert validate(prog) == []
    assert _node_count(prog) == 2


def test_node_count_matches_lowering_construction():
    # Two globals, two two-statement threads, one trailing assert:
    # count every node the lowering produces, once, by hand.
    prog = corpus_program("fig1_nofence.lit")
    # t1: entry + load y + store a + store x + exit           = 5
    # t2: entry + load x + store b + store y + exit           = 5
    # epilogue: entry + load a + load b + assert + exit       = 5
    # root: entry + 4 init stores + 3 creates + 3 joins + exit = 12
    assert _node_count(prog) == 27


def test_two_parses_yield_identical_graphs():
    text = corpus_text("fig2_fence.lit")
    p1, _ = parse_and_lower(text)
    p2, _ = parse_and_lower(text)
    assert sorted(p1.threads) == sorted(p2.threads)
    for name in p1.threads:
        g1, g2 = p1.threads[name], p2.threads[name]
        assert g1.entry == g2.entry and g1.exit == g2.exit
        assert g1.edges == g2.edges
        assert {n: str(i) for n, i in g1.nodes.items()} \
            == {n: str(i) for n, i in g2.nodes.items()}


def test_loads_and_stores_name_exactly_one_global():
    for name in CORPUS_FILES:
        prog = corpus_program(name)
        for g in prog.threads.values():
            for instr in g.nodes.values():
                if isinstance(instr, Load):
                    assert instr.src.is_global and not instr.dst.is_global
                if isinstance(instr, Store):
                    assert instr.dst.is_global


# ---------------------------------------------------------------------------
# VarId: hashing, equality and pickling
# ---------------------------------------------------------------------------

def test_varid_built_apart_finds_its_dict_entry():
    # names built at run time are distinct str objects, not interned ones
    first = VarId("".join(["coun", "ter"]), "".join(["wor", "ker"]))
    second = VarId("".join(["cou", "nter"]), "".join(["work", "er"]))
    assert first.name is not second.name and first.owner is not second.owner
    assert first == second and hash(first) == hash(second)
    table = {first: 1, VarId("counter"): 2}
    assert table[second] == 1 and table[VarId("counter")] == 2
    assert second in set(table)


_PICKLE_IN_CHILD = """
import pickle
from relaxcheck.ir import VarId
key = VarId("counter", "worker")
print(hash(key), pickle.dumps(({key: 1}, key)).hex())
"""


def test_varid_pickled_under_another_hash_seed_finds_its_key():
    """str hashes differ between processes: a VarId pickled where they
    differ from ours is rehashed here, as keys and as lookups alike."""
    here = VarId("counter", "worker")
    src = pathlib.Path(relaxcheck.__file__).resolve().parents[1]
    differing = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _PICKLE_IN_CHILD],
            capture_output=True, text=True, timeout=60, check=True,
            env={**os.environ, "PYTHONPATH": str(src),
                 "PYTHONHASHSEED": seed})
        child_hash, payload = proc.stdout.split()
        if int(child_hash) != hash(here):
            differing.append(seed)
            table, key = pickle.loads(bytes.fromhex(payload))
            assert key == here and hash(key) == hash(here)
            assert table[here] == 1 and {here: 2}[key] == 2
    # the hashes of two seeds cannot both equal ours
    assert differing
