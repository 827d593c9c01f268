"""The soundness invariant on seeded generated programs: under every model,
an assert the analyzer proves is one the oracle finds no violation of.

Two generators feed the gate.  `gate_text` programs load globals inside
loops, so a loop load's remote candidates decide asserts;
`test_oracle_differential.generated_text` programs create and join threads
(self-joins, join cycles, joins before creates, creates on one branch).  A
planted fault, re-analysis that ignores the loop loads' remote candidates,
must fail the gate.  On both generators, verdicts must also be monotone
across the models and the same on a second run, as `test_properties`
checks on the corpus."""
from __future__ import annotations

import functools
import random
from collections.abc import Callable, Iterator

import pytest

from relaxcheck import MemoryModel, analysis, analyze_all, parse_and_lower
from relaxcheck.ir import Program, VarId
from relaxcheck.oracle import OracleLimitError, violates

from conftest import MODELS
from test_analysis import _reference_analyze_thread
from test_oracle_differential import GENERATED_SEEDS, generated_text

GATE_SEEDS = range(200)


def gate_text(seed: int) -> str:
    """A random program of 2-3 threads over x and y: stores, loads, fences,
    `if`s, thread asserts, and loops whose body loads a global into a local
    that an assert at the end of the thread reads; half of the programs
    end with a top-level assert."""
    rng = random.Random(seed)
    out = ["global x = 0, y = 0;"]

    def stmt(locals_: list[str], loop_locals: list[str], depth: int) -> str:
        kind = rng.choice(["store", "store", "load", "fence", "if", "loop",
                           "loop", "assert"])
        g, k = rng.choice("xy"), rng.randint(0, 2)
        r = rng.choice(locals_) if locals_ else None
        if kind == "load" or kind in ("if", "assert") and r is None:
            locals_.append(f"r{len(locals_)}")
            return f"local {locals_[-1]} = {g};"
        if kind == "store":
            return f"{g} = {rng.choice([k, f'{r} + 1']) if r else k};"
        if kind == "assert":
            return f"assert({r} == {k});"
        if kind == "if" and depth < 1:
            return (f"if ({r} == {k}) "
                    f"{{ {stmt(locals_, loop_locals, depth + 1)} }} else "
                    f"{{ {stmt(locals_, loop_locals, depth + 1)} }}")
        if kind == "loop" and depth == 0:
            n = len(locals_)
            loaded, i = f"r{n}", f"r{n + 1}"
            locals_ += [loaded, i]
            loop_locals.append(loaded)
            return (f"local {loaded} = 0; local {i} = 0; while ({i} < 1) "
                    f"{{ {loaded} = {g}; {i} = {i} + 1; }}")
        return "fence;"

    for t in range(rng.randint(2, 3)):
        locals_: list[str] = []
        loop_locals: list[str] = []
        body = [stmt(locals_, loop_locals, 0)
                for _ in range(rng.randint(1, 4))]
        body += [f"assert({r} == {rng.randint(0, 2)});" for r in loop_locals]
        out.append(f"thread t{t} {{ " + " ".join(body) + " }")
    if rng.random() < 0.5:
        out.append(f"assert({rng.choice('xy')} == {rng.randint(0, 2)});")
    return "\n".join(out) + "\n"


_FAMILIES = {"gate": (gate_text, GATE_SEEDS),
             "creates-joins": (generated_text, GENERATED_SEEDS)}


@functools.lru_cache(maxsize=None)
def _program(family: str, seed: int) -> Program:
    program, _ = parse_and_lower(_FAMILIES[family][0](seed))
    return program


@functools.lru_cache(maxsize=None)
def _analysis(family: str, seed: int, model: MemoryModel) -> tuple:
    """`analyze_all` of one generated program, shared like `_program` by
    the soundness gates and the monotone test, which adds only the
    determinism rerun."""
    return analyze_all(_program(family, seed), model)


def unsound_cells(skipped: list, family: str = "gate",
                  analyze: Callable[[str, int, MemoryModel], tuple]
                  = _analysis) -> Iterator[tuple[int, str]]:
    """Every (seed, model) whose analysis proves an assert that the oracle
    finds violated; a cell past the oracle's budget goes to `skipped`."""
    for seed in _FAMILIES[family][1]:
        program = _program(family, seed)
        for model in MODELS:
            try:
                flags = violates(program, model)
            except OracleLimitError:
                skipped.append((seed, model))
                continue
            _, verdicts, _ = analyze(family, seed, model)
            if any(v.status == "PROVED" and flags[v.node] for v in verdicts):
                yield seed, str(model)


def test_generated_programs_load_in_loops():
    texts = [gate_text(seed) for seed in GATE_SEEDS]
    assert sum("while" in t for t in texts) >= len(texts) // 2


def test_proved_implies_no_oracle_violation_on_generated_programs():
    skipped: list = []
    assert list(unsound_cells(skipped)) == []
    assert len(skipped) < len(GATE_SEEDS) * len(MODELS) // 2


def test_gate_catches_loop_loads_that_ignore_remote_stores(monkeypatch):
    # the mutant re-analyzes every combination with `joined = {}`, so a
    # loop load reads only its own thread's stores
    original = analysis._run_combination

    def ignore_remote(graphs, relstore, sigma, store_envs, joined, runs):
        return original(graphs, relstore, sigma, store_envs, {}, runs)

    monkeypatch.setattr(analysis, "_run_combination", ignore_remote)
    # past the memo, which holds the unmutated analyses
    assert next(unsound_cells([], analyze=lambda family, seed, model:
                              analyze_all(_program(family, seed), model)),
                None) is not None


def test_proved_implies_no_oracle_violation_on_creates_and_joins():
    skipped: list = []
    assert list(unsound_cells(skipped, "creates-joins")) == []
    assert len(skipped) < len(GENERATED_SEEDS) * len(MODELS) // 2


# weakest first: each model allows every behaviour of the next
_WEAKEST_FIRST = (MemoryModel.RMO, MemoryModel.PSO, MemoryModel.TSO,
                  MemoryModel.SC)


def _snapshot(result) -> tuple:
    """Everything `analyze_all` returns, in order, as values."""
    env_map, verdicts, stats = result
    return ([(n, env, str(env)) for n, env in env_map.items()], verdicts,
            stats)


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_verdicts_are_monotone_across_models_and_deterministic(family):
    # PROVED under a model is PROVED under every stronger one, and a second
    # run gives equal verdicts, witnesses, stats and env maps
    for seed in _FAMILIES[family][1]:
        program = _program(family, seed)
        proved_weaker: set[int] = set()
        for model in _WEAKEST_FIRST:
            result = _analysis(family, seed, model)
            assert _snapshot(result) == _snapshot(analyze_all(program,
                                                              model)), \
                (family, seed, model)
            proved = {v.node for v in result[1] if v.status == "PROVED"}
            assert proved_weaker <= proved, (family, seed, model)
            proved_weaker = proved


def test_rank_order_is_no_less_precise_than_fifo(monkeypatch):
    """`analyze_all` against itself with the FIFO `analyze_thread` of
    `test_analysis`: equal verdicts and witnesses, and every env-map entry
    below or equal to FIFO's.  Visiting loop heads after what precedes
    them widens less, so somewhere the order must be strictly tighter: in
    `generated_text(100)`, t0's loop counter i2 is [0, 1], not [0, +inf]."""
    tighter = set()
    for family, (_, seeds) in sorted(_FAMILIES.items()):
        for seed in seeds:
            for model in MODELS:
                env_map, verdicts, _ = _analysis(family, seed, model)
                with monkeypatch.context() as m:
                    m.setattr(analysis, "analyze_thread",
                              _reference_analyze_thread)
                    fifo_map, fifo_verdicts, _ = analyze_all(
                        _program(family, seed), model)
                cell = (family, seed, model)
                assert verdicts == fifo_verdicts, cell
                assert env_map.keys() == fifo_map.keys(), cell
                assert all(env.leq(fifo_map[n])
                           for n, env in env_map.items()), cell
                if any(not fifo_map[n].leq(env)
                       for n, env in env_map.items()):
                    tighter.add((family, seed))
    assert ("creates-joins", 100) in tighter
    counter = VarId("i2", "t0")
    env_map, _, _ = _analysis("creates-joins", 100, MemoryModel.SC)
    assert max(env.get(counter).hi for env in env_map.values()
               if counter in env._map) == 1
