"""Command-line driver: exit codes, report format, stability."""
from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import relaxcheck
from relaxcheck import analysis, cli, frontend, oracle
from relaxcheck.cli import run
from relaxcheck.feasibility import FeasibilityContext
from relaxcheck.frontend import parse_and_lower
from relaxcheck.relations import extract_all

from conftest import CORPUS


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _corpus(name: str) -> str:
    return str(CORPUS / name)


def test_proved_exit_zero(capsys):
    code, out, _ = _run(capsys, "--model", "sc",
                        _corpus("fig1_nofence.lit"))
    assert code == 0
    assert re.search(r"fig1_nofence\.lit:\d+: PROVED under SC", out)


def test_alarm_exit_one(capsys):
    code, out, _ = _run(capsys, "--model", "tso",
                        _corpus("fig1_nofence.lit"))
    assert code == 1
    assert "ALARM under TSO" in out


def test_missing_file_exit_two(capsys):
    code, _, err = _run(capsys, "no_such_file.lit")
    assert code == 2 and "cannot read" in err


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.lit"
    bad.write_text("thread t { x = ; }")
    code, _, err = _run(capsys, str(bad))
    assert code == 2 and "bad.lit" in err


@pytest.mark.parametrize("body", [
    "local a = " + "(" * 3000 + "1" + ")" * 3000 + ";",
    "local a = 0; a = x" + " + 1" * 3000 + ";",
], ids=["parens-3000", "sum-3000-terms"])
def test_deeply_nested_input_exit_two_without_traceback(tmp_path, body):
    deep = tmp_path / "deep.lit"
    deep.write_text(f"global x = 0;\nthread t {{ {body} }}\n")
    src = pathlib.Path(relaxcheck.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "relaxcheck.cli", str(deep)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "nested deeper than" in proc.stderr


@pytest.mark.parametrize("argv,code", [
    (["--model", "tso", "fig2_fence.lit"], 0),
    (["--model", "tso", "fig1_nofence.lit"], 1),
    (["--emit-relations", "fig2_fence.lit"], 0),
], ids=["proved", "alarm", "emit-relations"])
def test_closed_stdout_keeps_the_exit_code(argv, code):
    # a reader that exits early (`relax-check prog.lit | head -1`) must not
    # turn the verdict into a traceback and exit 1 (ALARM)
    src = pathlib.Path(relaxcheck.__file__).resolve().parents[1]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "relaxcheck.cli", *argv[:-1],
             _corpus(argv[-1])],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        os.close(write)
    assert proc.returncode == code
    assert proc.stderr == ""


def test_reader_that_quits_early_stops_the_relation_stream(tmp_path):
    # `relax-check --emit-relations long.lit | head -1`: the dump of a long
    # thread overflows the pipe, so the writer sees the reader go mid-stream
    long_thread = tmp_path / "long.lit"
    long_thread.write_text(
        "global x;\nthread t {\n"
        + "".join(f"  local r{i} = x;\n" for i in range(200)) + "}\n")
    src = pathlib.Path(relaxcheck.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "relaxcheck.cli", "--emit-relations",
         str(long_thread)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.readline() == "IsLoad(1,x)\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == ""
    proc.stderr.close()


def test_non_utf8_input_exit_two(tmp_path, capsys):
    bad = tmp_path / "utf16.lit"
    bad.write_bytes(b"\xff\xfe" + "thread t { }".encode("utf-16-le"))
    code, out, err = _run(capsys, str(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {bad}: not UTF-8")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "global x;\nthread a { create(a); x = 1; }\n",
    "global x;\nthread a { create(b); }\nthread b { create(a); }\n",
], ids=["self", "pair"])
def test_thread_creation_cycle_exit_two(tmp_path, capsys, text):
    cyclic = tmp_path / "cyclic.lit"
    cyclic.write_text(text)
    code, out, err = _run(capsys, str(cyclic))
    assert code == 2 and out == ""
    assert err.startswith(f"{cyclic}:") and "creation cycle" in err


def test_top_level_assert_reading_a_thread_local_exit_two(tmp_path, capsys):
    # once ALARM: lowering read r as an uninitialised epilogue local
    scope = tmp_path / "scope.lit"
    scope.write_text("global x;\nthread t { local r = 5; }\nassert(r == 0);\n")
    code, out, err = _run(capsys, "--oracle", str(scope))
    assert code == 2 and out == ""
    assert err == f"{scope}:3:8: undeclared identifier 'r'\n"


@pytest.mark.parametrize("op", ["*", "+"])
def test_huge_constant_against_an_infinite_bound_exit_zero(tmp_path, capsys,
                                                           op):
    # once exit 3: OverflowError converting the int to float
    huge = tmp_path / "huge.lit"
    huge.write_text("global x;\nthread t { local i = 0; while (i < 5) "
                    f"{{ i = i + 1; }} local r = i {op} 1{'0' * 400}; "
                    "assert(r > 0); }\n")
    code, out, err = _run(capsys, str(huge))
    assert code == 0 and err == ""
    assert out.startswith(f"{huge}:2: PROVED under SC\n")


def test_literal_past_the_int_conversion_limit_exit_two(tmp_path, capsys):
    # once a traceback and exit 1 (ALARM): int() refuses 5,001 digits
    long_lit = tmp_path / "long_lit.lit"
    long_lit.write_text(
        f"global x;\nthread t {{ local r = 1{'0' * 5000}; assert(r > 0); }}\n")
    code, out, err = _run(capsys, str(long_lit))
    assert code == 2 and out == ""
    assert err == f"{long_lit}:2:22: integer literal too long (5001 digits)\n"


def test_thread_created_at_two_sites_exit_two(tmp_path, capsys):
    # once PROVED under every model, though the oracle finds a violation
    two_sites = tmp_path / "two_sites.lit"
    two_sites.write_text(
        "global x = 0, y = 0;\n"
        "thread a { local r = y; if (r == 1) { x = 1; create(c); }\n"
        "  else { create(c); } }\n"
        "thread c { local v = x; assert(v == 1); }\n")
    code, out, err = _run(capsys, "--oracle", str(two_sites))
    assert code == 2 and out == ""
    assert err.startswith(f"{two_sites}:3:10: ") and "two sites" in err


def _raise_value_error(*args, **kwargs):
    raise ValueError("broken")


def test_emit_relations_exception_exit_three(capsys, monkeypatch):
    monkeypatch.setattr(cli, "extract_all", _raise_value_error)
    code, out, err = _run(capsys, "--emit-relations", _corpus("seq1.lit"))
    assert code == 3 and out == ""
    assert err == "internal error: ValueError: broken\n"
    assert "Traceback" not in err


def test_emit_relations_exception_mid_stream_exit_three(capsys,
                                                       monkeypatch):
    def broken(ctx):
        for n in range(100_000):
            yield "IsFence", n
        raise ValueError("broken")
    monkeypatch.setattr(cli.FeasibilityContext, "relation_facts", broken)
    code, out, err = _run(capsys, "--emit-relations", _corpus("seq1.lit"))
    assert code == 3 and out.startswith("IsFence(0)\n")
    assert err == "internal error: ValueError: broken\n"


def _planted_failure(owner, name):
    original = getattr(owner, name)
    if name == "relation_facts":  # fail mid-stream, after the first fact
        def planted(ctx):
            yield next(original(ctx))
            raise RuntimeError(f"planted in {name}")
    else:
        def planted(*args, **kwargs):
            raise RuntimeError(f"planted in {name}")
    return planted


@pytest.mark.parametrize("owner, name, flags", [
    (frontend, "parse", []),
    (frontend, "lower", []),
    (FeasibilityContext, "relation_facts", ["--emit-relations"]),
    (analysis, "analyze_all", []),
    (oracle, "violates", ["--oracle"]),
    (cli, "_print_text", []),
    (cli, "_json_report", ["--format", "json"]),
], ids=["parse", "lower", "relation-facts", "analyze-all", "oracle",
        "text-report", "json-report"])
def test_failure_in_any_phase_is_one_internal_error_line(capsys, monkeypatch,
                                                         owner, name, flags):
    # once a traceback out of run for parse and for both reports
    monkeypatch.setattr(owner, name, _planted_failure(owner, name))
    code, out, err = _run(capsys, *flags, _corpus("seq1.lit"))
    assert code == 3 and out == ""
    assert err == f"internal error: RuntimeError: planted in {name}\n"


def test_bad_cap_exit_two(capsys):
    code, _, err = _run(capsys, "--max-combinations", "0",
                        _corpus("seq1.lit"))
    assert code == 2 and "max-combinations" in err


@pytest.mark.parametrize("flag", ["--oracle-max-events",
                                  "--oracle-max-loop-iters"])
def test_negative_oracle_budget_exit_two(capsys, flag):
    code, out, err = _run(capsys, "--oracle", flag, "-1",
                          _corpus("seq1.lit"))
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be non-negative\n"


def test_model_directive_used_when_no_flag(tmp_path, capsys):
    f = tmp_path / "m.lit"
    f.write_text("model pso;\nglobal x = 0;\nthread t1 { x = 1; }\n"
                 "assert(x >= 0);\n")
    code, out, _ = _run(capsys, str(f))
    assert code == 0 and "under PSO" in out


def test_flag_overrides_directive(tmp_path, capsys):
    f = tmp_path / "m.lit"
    f.write_text("model pso;\nglobal x = 0;\nthread t1 { x = 1; }\n"
                 "assert(x >= 0);\n")
    code, out, _ = _run(capsys, "--model", "sc", str(f))
    assert code == 0 and "under SC" in out


def _chain_text(threads: int, loads: int) -> str:
    """A thread-creation chain (t0 creates t1, ...) whose threads each
    load their own global `loads` times; no load has a candidate store."""
    lines = ["global " + ", ".join(f"g{i} = 0" for i in range(threads)) + ";"]
    for i in range(threads):
        body = ["local a = 0;"] + [f"a = g{i};"] * loads
        if i + 1 < threads:
            body.append(f"create(t{i + 1});")
        body.append("assert(a == 0);")
        lines.append(f"thread t{i} {{ " + " ".join(body) + " }")
    return "\n".join(lines) + "\n"


def test_deep_component_exit_zero(tmp_path, capsys):
    # one interference component of 1,500 loads: the enumeration goes
    # 1,500 levels deep, past Python's default recursion limit
    text = _chain_text(30, 50)
    program, _ = parse_and_lower(text)
    relstore = extract_all(program)
    candidates = analysis.collect_candidates(relstore)
    deepest = max(sum(l in candidates for t in names
                      for l in program.threads[t].nodes)
                  for names in analysis.interference_components(
                      program, relstore, candidates))
    assert deepest == 1500 > sys.getrecursionlimit()
    path = tmp_path / "chain.lit"
    path.write_text(text)
    code, out, err = _run(capsys, str(path))
    assert code == 0 and err == ""
    assert out.count(": PROVED under SC") == 30


def test_stats_block_present(capsys):
    _, out, _ = _run(capsys, "--model", "tso", _corpus("fig2_fence.lit"))
    assert re.search(r"stats: threads=3 nodes=21 combinations=\d+ "
                     r"pruned=\d+ rounds=\d+ wall_time_s=", out)
    assert "stats: thread t2: combinations=4 pruned=1" in out


def test_oracle_agree_annotation(capsys):
    code, out, _ = _run(capsys, "--model", "tso", "--oracle",
                        _corpus("fig2_fence.lit"))
    assert code == 0 and "(oracle: agree)" in out


def test_oracle_imprecise_annotation(capsys):
    code, out, _ = _run(capsys, "--model", "sc", "--oracle",
                        _corpus("loop_local.lit"))
    assert code == 1 and "(oracle: analyzer imprecise)" in out


def test_oracle_limit_reported_as_skip(capsys):
    code, out, _ = _run(capsys, "--model", "sc", "--oracle",
                        "--oracle-max-events", "1",
                        _corpus("fig1_nofence.lit"))
    assert code == 0 and "oracle: skipped" in out


def test_emit_relations_dump(capsys):
    code, out, _ = _run(capsys, "--model", "tso", "--emit-relations",
                        _corpus("fig2_fence.lit"))
    assert code == 0
    for rel in ("IsLoad(", "IsStore(", "Dominates(", "NoReorder(", "MHB("):
        assert rel in out


def test_json_report_schema(capsys):
    code, out, _ = _run(capsys, "--model", "pso", "--format", "json",
                        _corpus("fig2_nofence.lit"))
    assert code == 1
    report = json.loads(out)
    assert report["model"] == "pso"
    assert report["file"].endswith("fig2_nofence.lit")
    (verdict,) = report["verdicts"]
    assert verdict["status"] == "ALARM"
    assert isinstance(verdict["line"], int)
    stats = report["stats"]
    assert set(stats) == {"threads", "nodes", "outer_rounds", "per_thread",
                          "wall_time_s"}
    for t in stats["per_thread"].values():
        assert set(t) == {"combinations_enumerated", "combinations_pruned",
                          "overflowed"}


def test_output_byte_stable_modulo_wall_time(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = _run(capsys, "--model", "rmo", _corpus("lb.lit"))
        outs.append(re.sub(r"wall_time_s=\S+", "wall_time_s=X", out))
    assert outs[0] == outs[1]
