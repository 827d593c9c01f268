"""relaxcheck benchmark: time to verdict on litmus programs, end to end and
per module.

    python3 bench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py): `corpus` (24 litmus programs x 4 models),
`mp-pairs` (k fenced message-passing pairs under TSO, k = 1, 2, 3, 7) and
`loop-nest` (nested counting loops of depth 2..14).

One run imports relaxcheck and parses and lowers every input several times
(`setup_s` is the median), then analyzes every (input, model) cell once per
pass, each pass in a new seeded order, until `--seconds` have passed: the
first pass is always whole, the last one stops at the deadline.  Timing
metrics are built from each cell's mean time over the run, so that every
second of the run counts: the pass time is the sum of the cell means, the
geometric mean is taken over the cell means, and the slowest input's time
to verdict is the sum of its cell means (one cell per memory model).

The end-to-end times are reported in units of `probe()`, a fixed piece of
pure-Python work, run after every cell for PROBE_SHARE of the cell's time
(at least once), so that the probe samples the host's speed when and as
long as the cells ran: `pass_time`, `geomean_time` and `slowest_time` are
those times divided by the probe's mean time over the run.  The shared
host's speed drifts by 20-30% over minutes, and every workload drifts with
it; the probe drifts the same way, so the ratio follows only the program.
(Ten 25 s loop-nest runs on a 2-vCPU VM: the pass time spread 10.6%
between quartiles, its ratio to the probe 1.9%.)  The wall
seconds are printed as well.  Each pass is
fingerprinted (verdicts, witnesses, non-timing stats and every environment
map); the fingerprints of one run must be identical.  After the analyzer
has finished, reference answers are computed (oracle or construction) and
every verdict is judged: a PROVED assert that the reference says is
violated, a missing verdict or an exception fails the operation.

With `--trace 1` the run adds one traced pass: relaxcheck's layer
boundaries are wrapped from outside (tracer.py) and the per-layer metrics
are printed instead of the end-to-end ones.  The tracing overhead is the
traced pass time minus the mean untraced pass time.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit status is 0 when
every verdict is sound and the fingerprints agree, 1 otherwise, and 2 when
the program or its inputs cannot be found.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import math
import random
import re
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import Tracer, install_relaxcheck

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 15
PROBE_SHARE = 0.05

#: Per-layer metrics and the end-to-end metric each is expected to move.
#: Each entry: (metric, unit, better, span it needs, value from a tracer).
LAYER_GROUPS = [
    ("pass_time and geomean_time on corpus, slowest_time on mp-pairs; "
     "loop-nest within noise (bitset MHB closure, ROADMAP item 2)", [
        ("feasibility.check_facts_s", "s", "lower", "feasibility.check_facts",
         lambda t: t.self_s["feasibility.check_facts"]),
        ("feasibility.check_facts_calls", "count", "lower",
         "feasibility.check_facts",
         lambda t: t.calls["feasibility.check_facts"]),
        ("feasibility.cache_hits", "count", "higher",
         "feasibility.cache_hits",
         lambda t: t.counts["feasibility.cache_hits"]),
        ("feasibility.refuted", "count", "higher", "feasibility.check_facts",
         lambda t: t.counts["feasibility.refuted"]),
        ("feasibility.base_mhb_s", "s", "lower", "feasibility.base_mhb",
         lambda t: t.self_s["feasibility.base_mhb"]),
        ("feasibility.no_reorder_s", "s", "lower", "feasibility.no_reorder",
         lambda t: t.self_s["feasibility.no_reorder"]),
        ("datalog.solve_s", "s", "lower", "datalog.solve",
         lambda t: t.self_s["datalog.solve"]),
        ("datalog.solve_calls", "count", "lower", "datalog.solve",
         lambda t: t.calls["datalog.solve"]),
    ]),
    ("slowest_time, pass_time, peak_rss_mb and proved_share on mp-pairs; "
     "corpus unchanged (per-component enumeration, ROADMAP item 3)", [
        ("analysis.combinations", "count", "lower", "analysis.enumerate",
         lambda t: t.counts["analysis.combinations"]),
        ("analysis.cap_fallbacks", "count", "lower", "analysis.analyze_all",
         lambda t: t.counts["analysis.cap_fallbacks"]),
        ("feasibility.combination_queries", "count", "lower",
         "feasibility.check_facts",
         lambda t: t.counts["feasibility.combination_queries"]),
        ("feasibility.fallback_queries", "count", "lower",
         "analysis.loop_fallback_env",
         lambda t: t.counts["feasibility.fallback_queries"]),
        ("analysis.reanalyzed_combinations", "count", "lower",
         "feasibility.check_facts",
         lambda t: t.counts["analysis.reanalyzed_combinations"]),
        ("analysis.enumerate_s", "s", "lower", "analysis.enumerate",
         lambda t: t.self_s["analysis.enumerate"]),
        ("analysis.candidates_s", "s", "lower", "analysis.candidates",
         lambda t: t.self_s["analysis.candidates"]),
        ("analysis.analyze_all_s", "s", "lower", "analysis.analyze_all",
         lambda t: t.self_s["analysis.analyze_all"]),
    ]),
    ("pass_time on loop-nest; about 1.5% of corpus (interval fixpoint)", [
        ("analysis.analyze_thread_s", "s", "lower", "analysis.analyze_thread",
         lambda t: t.self_s["analysis.analyze_thread"]),
        ("analysis.analyze_thread_calls", "count", "lower",
         "analysis.analyze_thread",
         lambda t: t.calls["analysis.analyze_thread"]),
        ("analysis.reanalysis_s", "s", "lower", "analysis.analyze_thread",
         lambda t: t.self_s["analysis.reanalysis"]),
        ("analysis.bootstrap_s", "s", "lower", "analysis.bootstrap",
         lambda t: t.self_s["analysis.bootstrap"]),
        ("analysis.bootstrap_rounds", "count", "lower", "analysis.bootstrap",
         lambda t: t.counts["analysis.bootstrap_rounds"]),
        ("domain.transfer_calls", "count", "lower", "domain.transfer",
         lambda t: t.calls["domain.transfer"]),
        ("domain.widen_calls", "count", "lower", "domain.widen",
         lambda t: t.calls["domain.widen"]),
        ("analysis.imprecise_alarms", "count", "lower", "analysis.analyze_all",
         lambda t: t.counts["analysis.imprecise_alarms"]),
    ]),
    ("setup_s on every workload; geomean_time on corpus for extract_all", [
        ("frontend.parse_s", "s", "lower", "frontend.parse",
         lambda t: t.self_s["frontend.parse"]),
        ("frontend.lower_s", "s", "lower", "frontend.lower",
         lambda t: t.self_s["frontend.lower"]),
        ("relations.extract_all_s", "s", "lower", "relations.extract_all",
         lambda t: t.self_s["relations.extract_all"]),
    ]),
    ("no analyzer metric: cost of the reference answers, and of tracing", [
        ("oracle.reference_s", "s", "lower", None,
         lambda t: t.self_s["oracle.reference"]),
        ("oracle.limit_hits", "count", "lower", None,
         lambda t: t.counts["oracle.limit_hits"]),
        ("trace.overhead_s", "s", "lower", None,
         lambda t: t.self_s["trace.overhead"]),
    ]),
]

PER_LAYER = [m for _, group in LAYER_GROUPS for m in group]

END_TO_END = [
    ("setup_s", "s"), ("pass_time", "probe"), ("geomean_time", "probe"),
    ("slowest_time", "probe"), ("peak_rss_mb", "MB"),
    ("proved_share", "share"),
]

_TIMING_KEY = re.compile(r"tim(e|ing)|_s$")


class SetupError(Exception):
    """The program or the workload's inputs cannot be loaded."""


@dataclass
class Cell:
    """One analyze_all call: its time and what the verdict check needs."""
    seconds: float
    verdicts: list[tuple[int, str]] | None   # None when it raised
    overflowed: bool = False
    digest: str = ""
    probe_s: float = 0.0   # time of the probes run after the cell
    probes: int = 0


@dataclass
class Judgement:
    failed: int = 0
    imprecise: int = 0
    holding: int = 0
    proved_holding: int = 0
    problems: list[str] = field(default_factory=list)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_relaxcheck():
    """Fresh import of the program under test from <root>/src."""
    src = str(ROOT / "src")
    if not (ROOT / "src" / "relaxcheck" / "__init__.py").is_file():
        raise SetupError(f"relaxcheck sources not found under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules
                 if m == "relaxcheck" or m.startswith("relaxcheck.")]:
        del sys.modules[name]
    importlib.import_module("relaxcheck")
    return {name: importlib.import_module("relaxcheck." + name)
            for name in ("analysis", "feasibility", "frontend", "ir",
                         "oracle")}


def parse_all(mods, inputs):
    frontend = mods["frontend"]
    return {inp.name: frontend.lower(frontend.parse(inp.text))
            for inp in inputs}


def set_up(inputs):
    start = time.perf_counter()
    mods = import_relaxcheck()
    programs = parse_all(mods, inputs)
    return time.perf_counter() - start, mods, programs


def _untimed(value):
    """Stats as plain data without timing fields, which vary run to run."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items()
                if not _TIMING_KEY.search(str(k))}
    return value


def cell_digest(name, model, env_map, verdicts, stats) -> str:
    lines = [f"{name} {model}"]
    lines += [f"verdict {v.node} {v.location} {v.model.value} {v.status} "
              f"{v.witness}" for v in verdicts]
    lines.append(f"stats {_untimed(stats)!r}")
    lines += [f"env {n} {env_map[n]}" for n in sorted(env_map)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def probe() -> list:
    """Fixed work in the style of the analyzer (tuples, dicts and frozensets
    of small ints), about 3 ms; it never touches relaxcheck."""
    table: dict[tuple[int, int], frozenset] = {}
    for i in range(3000):
        key = i % 97, i % 13
        table[key] = table.get(key, frozenset()) | {i % 7}
    return sorted(table.items())[:5]


def run_probes(seconds) -> tuple[float, int]:
    """(time, count) of probes run for PROBE_SHARE of `seconds`, at least
    one; after gc.collect(), so that no garbage of the program slows them."""
    gc.collect()
    spent, count = 0.0, 0
    while count == 0 or spent < PROBE_SHARE * seconds:
        start = time.perf_counter()
        probe()
        spent += time.perf_counter() - start
        count += 1
    return spent, count


def run_cell(mods, program, name, model) -> Cell:
    analysis, feasibility = mods["analysis"], mods["feasibility"]
    gc.collect()
    start = time.perf_counter()
    try:
        env_map, verdicts, stats = analysis.analyze_all(
            program, feasibility.MemoryModel(model))
    except Exception:
        seconds = time.perf_counter() - start
        print(f"error: analyze_all raised on {name} under {model}",
              file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return Cell(seconds, None, False, "", *run_probes(seconds))
    seconds = time.perf_counter() - start
    return Cell(seconds, [(v.node, v.status) for v in verdicts],
                any(t.overflowed for t in stats.per_thread.values()),
                cell_digest(name, model, env_map, verdicts, stats),
                *run_probes(seconds))


def run_pass(mods, programs, cells, rng, deadline=math.inf):
    """One pass over the cells in a seeded order; no cell starts after
    `deadline`."""
    order = list(cells)
    rng.shuffle(order)
    result = {}
    for inp, model in order:
        if time.perf_counter() >= deadline:
            break
        key = inp.name, model
        result[key] = run_cell(mods, programs[inp.name], *key)
    return result


def run_passes(mods, programs, cells, rng, deadline):
    """One whole pass, then passes cut at `deadline`."""
    passes = [run_pass(mods, programs, cells, rng)]
    while time.perf_counter() < deadline:
        passes.append(run_pass(mods, programs, cells, rng, deadline))
    return passes


def fingerprint(result: dict[tuple[str, str], Cell]) -> str:
    h = hashlib.sha256()
    for key in sorted(result):
        h.update(f"{key} {result[key].digest}\n".encode())
    return h.hexdigest()[:16]


def digests_agree(passes) -> bool:
    """Every cell has one digest across all passes."""
    digests = {(key, cell.digest) for p in passes for key, cell in p.items()}
    return len(digests) == len({key for p in passes for key in p})


def cell_means(passes) -> dict[tuple[str, str], float]:
    """Mean time of each cell over the (whole or cut) passes."""
    times: dict[tuple[str, str], list[float]] = {}
    for result in passes:
        for key, cell in result.items():
            times.setdefault(key, []).append(cell.seconds)
    return {key: statistics.fmean(t) for key, t in times.items()}


def probe_mean(passes) -> float:
    cells = [c for p in passes for c in p.values()]
    return sum(c.probe_s for c in cells) / sum(c.probes for c in cells)


def pass_times(passes) -> tuple[float, float, float]:
    """(pass, geometric mean of the cells, slowest input) from the cell
    means of `passes`."""
    means = cell_means(passes)
    per_input: dict[str, float] = {}
    for (name, _), seconds in means.items():
        per_input[name] = per_input.get(name, 0.0) + seconds
    return (sum(means.values()),
            math.exp(statistics.fmean(map(math.log, means.values()))),
            max(per_input.values()))


def assert_lines(mods, program) -> dict[int, int]:
    """Assert node -> source line."""
    Assert = mods["ir"].Assert
    return {n: int(instr.location.split(":")[0])
            for g in program.threads.values()
            for n, instr in g.nodes.items() if isinstance(instr, Assert)}


def references(mods, inputs, programs, counts):
    """(input, model) -> {assert node: violated?}, or a reason string when
    no trustworthy reference exists."""
    oracle, feasibility = mods["oracle"], mods["feasibility"]
    refs = {}
    for inp in inputs:
        program = programs[inp.name]
        lines = assert_lines(mods, program)
        for model in inp.models:
            ref = None
            if inp.expected is not None:
                missing = set(lines.values()) - set(inp.expected)
                if missing:
                    refs[inp.name, model] = (
                        f"no construction answer for lines {sorted(missing)}")
                    continue
                ref = {n: inp.expected[line] for n, line in lines.items()}
            if inp.use_oracle:
                try:
                    flags = oracle.violates(program,
                                            feasibility.MemoryModel(model))
                except oracle.OracleLimitError as e:
                    counts["oracle.limit_hits"] += 1
                    if ref is None:
                        refs[inp.name, model] = f"oracle limit: {e}"
                        continue
                else:
                    if ref is not None and flags != ref:
                        refs[inp.name, model] = (
                            f"oracle {flags} disagrees with construction "
                            f"{ref}")
                        continue
                    ref = flags
            refs[inp.name, model] = ref
    return refs


def judge(passes, refs) -> Judgement:
    """Check every verdict of every pass; precision counts are per pass."""
    j = Judgement()
    for index, result in enumerate(passes):
        for key in sorted(result):
            cell, ref = result[key], refs[key]
            where = f"{key[0]} under {key[1]}"
            if isinstance(ref, str):
                j.failed += 1
                j.problems.append(f"{where}: {ref}")
                continue
            if cell.verdicts is None:
                j.failed += 1
                j.problems.append(f"{where}: analyze_all raised")
                continue
            got = dict(cell.verdicts)
            bad = []
            if set(got) != set(ref):
                bad.append(f"verdicts for asserts {sorted(got)}, "
                           f"expected {sorted(ref)}")
            for node, status in sorted(got.items()):
                violated = ref.get(node)
                if violated and status == "PROVED":
                    bad.append(f"UNSOUND: assert node {node} PROVED but "
                               f"violated")
                if index == 0 and violated is False:
                    j.holding += 1
                    j.proved_holding += status == "PROVED"
                    j.imprecise += status == "ALARM"
            if bad:
                j.failed += 1
                j.problems += [f"{where}: {b}" for b in bad]
    return j


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    out = {}
    for name, unit, _, needs, value in PER_LAYER:
        if needs in tracer.absent or name in tracer.absent:
            continue
        out[name] = {"value": value(tracer), "unit": unit}
    return out


def print_layers(tracer: Tracer, metrics: dict) -> None:
    for moves, group in LAYER_GROUPS:
        print(f"-- moves {moves}")
        for name, unit, *_ in group:
            if name in metrics:
                print(f"   {name:36s} {metrics[name]['value']:>14.6g} {unit}")
            else:
                print(f"   {name:36s} {'absent':>14s}")
    print("-- spans: calls, self s, inclusive s")
    for name in sorted(tracer.calls):
        print(f"   {name:36s} {tracer.calls[name]:>9d} "
              f"{tracer.self_s.get(name, 0.0):>10.4f} "
              f"{tracer.incl_s.get(name, 0.0):>10.4f}")
    for name in sorted(tracer.absent):
        print(f"   {name:36s} absent")
    total = tracer.incl_s.get("analysis.analyze_all", 0.0)
    if total:
        for name in ("feasibility.check_facts", "analysis.analyze_thread",
                     "analysis.bootstrap"):
            share = tracer.incl_s.get(name, 0.0) / total
            print(f"   {name} inclusive share of analyze_all: {share:.1%}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        inputs = workloads.load(args.workload, args.seed, ROOT)
        setups = []
        for _ in range(SETUP_REPS):
            seconds, mods, programs = set_up(inputs)
            setups.append(seconds)
            gc.collect()  # frees the previous import, which holds cycles
    except (SetupError, ImportError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    cells = [(inp, model) for inp in inputs for model in inp.models]
    rng = random.Random(f"order-{args.seed}")
    deadline = time.perf_counter() + args.seconds
    passes = run_passes(mods, programs, cells, rng, deadline)
    untraced = list(passes)
    means = cell_means(untraced)
    pass_s, geomean_s, slowest_s = pass_times(untraced)
    probe_s = probe_mean(untraced)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_relaxcheck(tracer)
        parse_all(mods, inputs)
        passes.append(run_pass(mods, programs, cells, rng))
    else:
        # before the oracle runs, so that only the analyzer's memory counts
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024

    start = time.perf_counter()
    counts = tracer.counts if tracer else {"oracle.limit_hits": 0}
    refs = references(mods, inputs, programs, counts)
    reference_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()

    j = judge(passes, refs)
    agree = digests_agree(passes)
    if not agree:
        j.problems.append("fingerprints differ across passes: "
                          f"{[fingerprint(p) for p in passes]}")
    correct = j.failed == 0 and not j.problems
    attempted = sum(len(p) for p in passes)
    cap_fallbacks = sum(c.overflowed for c in passes[0].values())

    print(f"workload {args.workload} seed {args.seed}: {len(inputs)} inputs, "
          f"{len(cells)} cells, {len(untraced)} untraced pass(es)"
          + (" + 1 traced pass" if tracer else ""))
    print(f"fingerprint {fingerprint(passes[0])} "
          f"({'identical' if agree else 'DIFFERENT'} across "
          f"{len(passes)} passes)")
    for key in sorted(passes[0]):
        secs = means[key]
        statuses = " ".join(s for _, s in passes[0][key].verdicts or [])
        print(f"  {key[0]:22s} {key[1]:4s} {secs:10.4f} s  {statuses}")
    print(f"imprecise_alarms {j.imprecise}  cap_fallbacks {cap_fallbacks}  "
          f"failed_share {j.failed}/{attempted}  oracle_limit_hits "
          f"{counts['oracle.limit_hits']}  reference_s {reference_s:.3f}")
    for problem in j.problems:
        print(f"PROBLEM {problem}")

    if tracer:
        tracer.counts["analysis.cap_fallbacks"] = sum(
            c.overflowed for c in passes[-1].values())
        tracer.counts["analysis.imprecise_alarms"] = j.imprecise
        tracer.self_s["oracle.reference"] = reference_s
        untraced_pass = pass_s
        traced_pass = pass_times(passes[-1:])[0]
        tracer.self_s["trace.overhead"] = traced_pass - untraced_pass
        print(f"tracing overhead: traced pass {traced_pass:.3f} s - untraced "
              f"pass {untraced_pass:.3f} s = {traced_pass - untraced_pass:.3f}"
              " s")
        violates_s = tracer.incl_s.get("oracle.violates", 0.0)
        if violates_s:
            print(f"analyzer/oracle: untraced pass {untraced_pass:.3f} s / "
                  f"oracle {violates_s:.3f} s over "
                  f"{tracer.calls['oracle.violates']} cells = "
                  f"{untraced_pass / violates_s:.0f}x")
        metrics = layer_metrics(tracer)
        print_layers(tracer, metrics)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "pass_time": pass_s / probe_s,
            "geomean_time": geomean_s / probe_s,
            "slowest_time": slowest_s / probe_s,
            "peak_rss_mb": peak_rss_mb,
            "proved_share": (j.proved_holding / j.holding
                             if j.holding else 1.0),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        probes = sum(c.probes for p in untraced for c in p.values())
        print(f"wall: pass {pass_s:.4f} s, geomean {geomean_s:.5f} s, "
              f"slowest input {slowest_s:.4f} s; probe {probe_s * 1e3:.3f} ms"
              f" (mean of {probes})")
        for name, m in metrics.items():
            print(f"{name:14s} {m['value']:.6g} {m['unit']}")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": j.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
