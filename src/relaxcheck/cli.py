"""Command-line driver.

Exit status: 0 = all asserts proved; 1 = at least one alarm; 2 = usage or
parse error, including unreadable or non-UTF-8 input, input nested too
deeply, an integer literal too long, thread creation cycles and bad flag
values; 3 = internal error: any exception after argument parsing, writing
the report included (reported in one line, never as a traceback), or
(--oracle) a soundness disagreement with the oracle.  A reader that closes
stdout early changes no exit code.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from collections.abc import Iterator
from itertools import islice

from . import analysis, oracle
from .feasibility import FeasibilityContext
from .frontend import ParseError, parse_and_lower
from .ir import MemoryModel
from .relations import extract_all


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="relax-check",
        description="Verify assertions in small concurrent programs under "
                    "SC/TSO/PSO/RMO memory models.")
    p.add_argument("input", help="input program (.lit file)")
    p.add_argument("--model", choices=sorted(m.value for m in MemoryModel),
                   help="memory model (overrides the file's 'model' "
                        "directive; default sc)")
    p.add_argument("--max-combinations", type=int, default=analysis.DEFAULT_CAP,
                   help="interference-combination cap before the sound join "
                        "fallback kicks in (default %(default)s)")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check verdicts against exhaustive concrete "
                        "execution enumeration")
    p.add_argument("--oracle-max-events", type=int,
                   default=oracle.MAX_EVENTS,
                   help="oracle per-execution memory-event budget "
                        "(default %(default)s)")
    p.add_argument("--oracle-max-loop-iters", type=int,
                   default=oracle.MAX_LOOP_ITERS,
                   help="oracle loop unrolling bound (default %(default)s)")
    p.add_argument("--emit-relations", action="store_true",
                   help="dump the extracted relations and exit")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format (default %(default)s)")
    return p


def run(argv: list[str]) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        try:
            with open(args.input, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            print(f"error: cannot read {args.input}: {e.strerror}",
                  file=sys.stderr)
            return 2
        except UnicodeDecodeError as e:
            print(f"error: cannot read {args.input}: not UTF-8 text "
                  f"(byte {e.start})", file=sys.stderr)
            return 2
        try:
            program, file_model = parse_and_lower(text)
        except ParseError as e:
            print(f"{args.input}:{e}", file=sys.stderr)
            return 2
        if args.max_combinations < 1:
            print("error: --max-combinations must be positive",
                  file=sys.stderr)
            return 2
        for flag, budget in (("--oracle-max-events", args.oracle_max_events),
                             ("--oracle-max-loop-iters",
                              args.oracle_max_loop_iters)):
            if budget < 0:
                print(f"error: {flag} must be non-negative", file=sys.stderr)
                return 2

        model = MemoryModel(args.model or file_model or "sc")
        if args.emit_relations:
            _report(lambda: _print_lines(_relation_dump(program, model)))
            return 0

        started = time.monotonic()
        env_map, verdicts, stats = analysis.analyze_all(
            program, model, cap=args.max_combinations)
        wall = time.monotonic() - started

        oracle_flags: dict[int, bool] | None = None
        oracle_error: str | None = None
        if args.oracle:
            try:
                oracle_flags = oracle.violates(
                    program, model, max_events=args.oracle_max_events,
                    max_loop_iters=args.oracle_max_loop_iters)
            except oracle.OracleLimitError as e:
                oracle_error = str(e)

        annotations: dict[int, str] = {}
        if oracle_flags is not None:
            for v in verdicts:
                violated = oracle_flags.get(v.node, False)
                if violated and v.status == "PROVED":
                    annotations[v.node] = "SOUNDNESS BUG"
                elif not violated and v.status == "ALARM":
                    annotations[v.node] = "analyzer imprecise"
                else:
                    annotations[v.node] = "agree"

        if args.format == "json":
            _report(lambda: print(json.dumps(
                _json_report(args.input, model, verdicts, stats, wall,
                             annotations, oracle_error),
                indent=2, sort_keys=True)))
        else:
            _report(lambda: _print_text(args.input, model, verdicts, stats,
                                        wall, annotations, oracle_error))
        if "SOUNDNESS BUG" in annotations.values():
            return 3
        return 1 if any(v.status == "ALARM" for v in verdicts) else 0
    except Exception as e:  # a bug anywhere, the report included: one line,
        # never a traceback and never exit 1 (ALARM)
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def _report(write) -> None:
    """Call `write`, which prints to stdout, and flush.  A reader that
    closes the pipe early (`relax-check prog.lit | head -1`) leaves the
    exit code to the verdicts: the rest of the output goes to os.devnull."""
    try:
        write()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _print_text(path, model, verdicts, stats, wall, annotations,
                oracle_error) -> None:
    for v in verdicts:
        line = v.location.split(":")[0] if v.location else "?"
        msg = f"{path}:{line}: {v.status} under {model}"
        if v.node in annotations:
            msg += f" (oracle: {annotations[v.node]})"
        print(msg)
    if oracle_error:
        print(f"oracle: skipped ({oracle_error})")
    total_enum = sum(t.combinations_enumerated
                     for t in stats.per_thread.values())
    total_pruned = sum(t.combinations_pruned
                       for t in stats.per_thread.values())
    print(f"stats: threads={stats.threads} nodes={stats.nodes} "
          f"combinations={total_enum} pruned={total_pruned} "
          f"rounds={stats.outer_rounds} wall_time_s={wall:.3f}")
    for name, t in stats.per_thread.items():
        extra = " overflowed" if t.overflowed else ""
        print(f"stats: thread {name}: "
              f"combinations={t.combinations_enumerated} "
              f"pruned={t.combinations_pruned}{extra}")


def _json_report(path, model, verdicts, stats, wall, annotations,
                 oracle_error) -> dict:
    return {
        "file": path,
        "model": model.value,
        "verdicts": [
            {
                "line": int(v.location.split(":")[0]) if v.location else None,
                "node": v.node,
                "status": v.status,
                **({"oracle": annotations[v.node]}
                   if v.node in annotations else {}),
            }
            for v in verdicts
        ],
        "stats": {**dataclasses.asdict(stats),
                  "wall_time_s": round(wall, 6)},
        **({"oracle_error": oracle_error} if oracle_error else {}),
    }


def _relation_dump(program, model: MemoryModel) -> Iterator[str]:
    """The lines of `--emit-relations`: one Datalog fact per line, such as
    `Dominates(3,5)`, in the order `FeasibilityContext.relation_facts`
    streams them."""
    ctx = FeasibilityContext(extract_all(program), model)
    for fact in ctx.relation_facts():
        yield _FACT_FORMATS[len(fact)] % fact


#: per fact length: formatting is about 2.5x as fast as joining the
#: arguments, about 3 s less on the 11.3M lines of a 1,500-load thread
#: (2-vCPU x86 host)
_FACT_FORMATS = {2: "%s(%s)", 3: "%s(%s,%s)"}


def _print_lines(lines: Iterator[str]) -> None:
    """Print the lines, joined 16,384 at a time."""
    while batch := list(islice(lines, 1 << 14)):
        print("\n".join(batch))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
