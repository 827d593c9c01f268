"""Tests of the benchmark itself: generators, reference answers, tracer and
verdict gate.

    PYTHONPATH=src python3 -m pytest -q bench
"""
from __future__ import annotations

import json
import random
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from relaxcheck import MemoryModel, ir, lower, parse, violates  # noqa: E402


def generated(seed: int) -> list[workloads.Input]:
    return (workloads.load("mp-pairs", seed, ROOT)
            + workloads.load("loop-nest", seed, ROOT))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generated_text_parses_and_every_assert_has_an_answer(seed):
    for inp in generated(seed):
        program = lower(parse(inp.text))
        assert ir.validate(program) == []
        lines = run.assert_lines({"ir": ir}, program)
        assert sorted(lines.values()) == sorted(inp.expected), inp.name


def test_seed_sets_names_only():
    a, b, again = generated(1), generated(2), generated(1)
    assert [i.text for i in a] == [i.text for i in again]
    for x, y in zip(a, b):
        assert x.text != y.text
        assert x.text.count("\n") == y.text.count("\n")
        assert x.expected == y.expected and x.models == y.models


def test_corpus_inputs_use_the_oracle_under_every_model():
    inputs = workloads.load("corpus", 3, ROOT)
    assert len(inputs) == 24
    assert all(i.use_oracle and i.expected is None
               and i.models == workloads.MODELS for i in inputs)


@pytest.mark.parametrize("k", [1, 2])
def test_oracle_agrees_with_mp_construction(k):
    inp = workloads.mp_program(k, random.Random(k))
    program = lower(parse(inp.text))
    lines = run.assert_lines({"ir": ir}, program)
    flags = violates(program, MemoryModel.TSO)
    assert {lines[n]: v for n, v in flags.items()} == inp.expected


def test_loop_nest_never_uses_the_oracle():
    assert not any(i.use_oracle for i in workloads.load("loop-nest", 0, ROOT))


def _toy_module():
    mod = types.ModuleType("bench_toy_layers")
    exec("def inner():\n    return 1\n\n"
         "def outer():\n    return inner() + inner()\n", mod.__dict__)
    sys.modules[mod.__name__] = mod
    return mod


def test_tracer_self_time_from_span_stack():
    mod = _toy_module()
    original = mod.outer
    # outer starts at 0 and ends at 10; inner runs 1..3 and 4..7
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    seen = []
    tracer.span("bench_toy_layers.outer", "toy.outer")
    tracer.span("bench_toy_layers.inner", "toy.inner",
                after=lambda args, result, callers, own, token:
                seen.append((callers, own)))
    assert mod.outer() == 2
    assert tracer.incl_s["toy.outer"] == 10.0
    assert tracer.self_s["toy.outer"] == 5.0
    assert tracer.self_s["toy.inner"] == 5.0
    assert tracer.calls["toy.inner"] == 2
    assert seen == [(["toy.outer"], 2.0), (["toy.outer"], 3.0)]
    tracer.uninstall()
    assert mod.outer is original


def test_tracer_reports_missing_and_changed_names_as_absent():
    mod = _toy_module()
    tracer = Tracer()
    assert not tracer.span("bench_toy_layers.gone", "toy.gone")
    assert not tracer.span("bench_no_such_module.f", "toy.module")
    assert not tracer.count("bench_toy_layers.Missing.method", "toy.method")
    assert tracer.span("bench_toy_layers.inner", "toy.changed",
                       after=lambda args, result, *_: len(result))
    assert mod.inner() == 1
    tracer.uninstall()
    assert tracer.absent == {"toy.gone", "toy.module", "toy.method",
                             "toy.changed"}
    assert run.layer_metrics(tracer).keys().isdisjoint(tracer.absent)


def _one_cell(status, violated):
    passes = [{("p", "sc"): run.Cell(0.1, [(5, status)])}]
    return run.judge(passes, {("p", "sc"): {5: violated}})


def test_gate_fails_unsound_proof_and_counts_imprecision():
    unsound = _one_cell("PROVED", True)
    assert unsound.failed == 1 and "UNSOUND" in unsound.problems[0]
    imprecise = _one_cell("ALARM", False)
    assert (imprecise.failed, imprecise.imprecise, imprecise.holding) \
        == (0, 1, 1)
    raised = run.judge([{("p", "sc"): run.Cell(0.1, None)}],
                       {("p", "sc"): {5: False}})
    assert raised.failed == 1


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, unit, better) for name, unit, better, *_ in run.PER_LAYER]


def test_fingerprint_check_catches_a_cell_that_changes():
    def cell(digest):
        return run.Cell(0.1, [(5, "ALARM")], digest=digest)
    same = [{("p", "sc"): cell("a"), ("q", "sc"): cell("b")},
            {("p", "sc"): cell("a")}]
    assert run.digests_agree(same)
    assert not run.digests_agree(same + [{("q", "sc"): cell("c")}])


def test_times_come_from_cell_means_over_whole_and_cut_passes():
    def cell(seconds):
        return run.Cell(seconds, [(5, "ALARM")])
    # p takes 0.5 s per model, q 1.5 s under one model: p is the slowest
    whole = {("p", "sc"): cell(0.5), ("p", "tso"): cell(0.5),
             ("p", "pso"): cell(0.5), ("p", "rmo"): cell(0.5),
             ("q", "tso"): cell(1.5)}
    cut = {("q", "tso"): cell(0.5), ("p", "sc"): cell(0.7)}
    assert run.cell_means([whole, cut])[("q", "tso")] == pytest.approx(1.0)
    pass_s, geomean_s, slowest_s = run.pass_times([whole, cut])
    assert pass_s == pytest.approx(0.6 + 0.5 * 3 + 1.0)
    assert geomean_s == pytest.approx((0.6 * 0.5 ** 3 * 1.0) ** (1 / 5))
    assert slowest_s == pytest.approx(2.1)


def test_probe_mean_weights_every_probe_run_equally():
    assert run.run_probes(0.0)[1] == 1
    cells = [run.Cell(1.0, [], probe_s=0.3, probes=100),
             run.Cell(0.01, [], probe_s=0.004, probes=1)]
    assert run.probe_mean([{("p", "sc"): cells[0]}, {("q", "sc"): cells[1]}]) \
        == pytest.approx(0.304 / 101)
