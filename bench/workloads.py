"""Benchmark inputs: the litmus corpus and two seeded program families.

Every workload is a list of `Input`s.  An input is one program text plus the
memory models it is analyzed under and where its reference answers come
from: the exhaustive oracle (corpus), or the construction of the generated
program (mp-pairs, loop-nest), cross-checked by the oracle where its event
budget allows.  The seed only renames threads and variables and shuffles
the order in which (input, model) cells run; the work per cell is the same
for every seed.
"""
from __future__ import annotations

import random
import string
from dataclasses import dataclass
from pathlib import Path

MODELS = ("sc", "tso", "pso", "rmo")

#: k values for mp-pairs.  4^k combinations: 1, 2 and 3 give the growth
#: curve; 7 (16384 > the 4096 default cap) is the run past the cap.
MP_PAIRS = (1, 2, 3, 7)
#: The oracle's 12-event budget covers 4 memory events per pair up to k=3.
MP_ORACLE_MAX_K = 3

#: Nest depths for loop-nest.  Depth 14 costs about 1.3 s to analyze.
NEST_DEPTHS = (2, 4, 6, 8, 10, 12, 14)


@dataclass(frozen=True)
class Input:
    name: str
    text: str
    models: tuple[str, ...]
    #: assert source line -> True when some execution violates it; None
    #: when the oracle alone supplies the reference (corpus).
    expected: dict[int, bool] | None = None
    #: run the oracle (as reference, or to cross-check `expected`)
    use_oracle: bool = False


def _namer(rng: random.Random):
    """Fresh identifiers `<prefix>_<4 random letters>`, never repeated."""
    used: set[str] = set()

    def fresh(prefix: str) -> str:
        while True:
            name = prefix + "_" + "".join(
                rng.choice(string.ascii_lowercase) for _ in range(4))
            if name not in used:
                used.add(name)
                return name

    return fresh


class _Text:
    """Line-numbered program text builder."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, line: str) -> int:
        self.lines.append(line)
        return len(self.lines)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def corpus(root: Path) -> list[Input]:
    files = sorted((root / "corpus").glob("*.lit"))
    if not files:
        raise FileNotFoundError(f"no .lit files under {root / 'corpus'}")
    return [Input(p.name, p.read_text(encoding="utf-8"), MODELS,
                  use_oracle=True)
            for p in files]


def mp_program(k: int, rng: random.Random) -> Input:
    """k independent message-passing pairs, each fenced on both sides.

    Writer i stores the data, fences, then raises the flag; reader i loads
    the flag, fences, loads the data and asserts it saw the data whenever it
    saw the flag.  The fences order both sides under every model, so every
    assert holds.  The asserts sit inside the reader threads, so the pairs
    share no variable and no thread.
    """
    fresh = _namer(rng)
    pairs = [(fresh("w"), fresh("r"), fresh("d"), fresh("f"))
             for _ in range(k)]
    out = _Text()
    out.add("global " + ", ".join(f"{d} = 0, {f} = 0"
                                  for _, _, d, f in pairs) + ";")
    expected = {}
    for writer, reader, d, f in pairs:
        out.add(f"thread {writer} {{")
        out.add(f"  {d} = 1;")
        out.add("  fence;")
        out.add(f"  {f} = 1;")
        out.add("}")
        out.add(f"thread {reader} {{")
        out.add(f"  local seen = {f};")
        out.add("  fence;")
        out.add(f"  local got = {d};")
        out.add("  if (seen == 1) {")
        expected[out.add("    assert(got == 1);")] = False
        out.add("  }")
        out.add("}")
    return Input(f"mp-k{k}", out.text(), ("tso",), expected,
                 use_oracle=k <= MP_ORACLE_MAX_K)


def nest_program(depth: int, model: str, rng: random.Random) -> Input:
    """One thread of `depth` nested counting loops, plus an observer.

    The outermost loop publishes its counter to `outer`, the innermost loop
    publishes its counter to `inner`; counters run from 0 to bound-1.  The
    observer asserts both ranges (they hold) and that `inner` never reaches
    its last value (violated: the observer may read after the nest ends).
    There are no global loads inside the loops, so feasibility and
    combination enumeration see only the observer's two loads.
    """
    fresh = _namer(rng)
    nest, obs = fresh("nest"), fresh("obs")
    inner, outer = fresh("g"), fresh("h")
    counters = [fresh("i") for _ in range(depth)]
    bounds = [2 + level % 3 for level in range(depth)]
    out = _Text()
    out.add(f"global {inner} = 0, {outer} = 0;")
    out.add(f"thread {nest} {{")
    indent = "  "
    for level, (i, bound) in enumerate(zip(counters, bounds)):
        out.add(f"{indent}local {i} = 0;")
        out.add(f"{indent}while ({i} < {bound}) {{")
        indent += "  "
        if level == 0:
            out.add(f"{indent}{outer} = {i};")
    out.add(f"{indent}{inner} = {counters[-1]};")
    for i in reversed(counters):
        out.add(f"{indent}{i} = {i} + 1;")
        indent = indent[:-2]
        out.add(f"{indent}}}")
    out.add("}")
    out.add(f"thread {obs} {{")
    out.add(f"  local a = {inner};")
    out.add(f"  local b = {outer};")
    expected = {
        out.add(f"  assert(a >= 0 && a < {bounds[-1]});"): False,
        out.add(f"  assert(b >= 0 && b < {bounds[0]});"): False,
        out.add(f"  assert(a < {bounds[-1] - 1});"): True,
    }
    out.add("}")
    return Input(f"nest-d{depth:02d}", out.text(), (model,), expected)


def load(workload: str, seed: int, root: Path) -> list[Input]:
    """The inputs of a workload for a seed (cell order is shuffled later)."""
    rng = random.Random(seed)
    if workload == "corpus":
        return corpus(root)
    if workload == "mp-pairs":
        return [mp_program(k, rng) for k in MP_PAIRS]
    if workload == "loop-nest":
        return [nest_program(d, MODELS[i % len(MODELS)], rng)
                for i, d in enumerate(NEST_DEPTHS)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("corpus", "mp-pairs", "loop-nest")
