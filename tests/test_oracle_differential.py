"""The oracle against its reference, `oracle_reference.py`: the search as it
stood before its symbolic values became IR expressions.  Both must give the
same behaviour set, or the same `OracleLimitError` message, on the corpus
under every model, on every program written inline in the tests, and on
seeded generated programs that create and join threads."""
from __future__ import annotations

import ast
import pathlib
import random
import re

import pytest

import oracle_reference
from relaxcheck import oracle
from relaxcheck.frontend import ParseError, parse_and_lower

from conftest import CORPUS_FILES, MODELS, corpus_program

GENERATED_SEEDS = range(160)


def outcome(module, program, model, max_events: int = 12):
    """The behaviour set as plain tuples, or the limit error's message."""
    try:
        return {(ex.final_memory, ex.failed_asserts)
                for ex in module.enumerate_executions(program, model,
                                                      max_events)}
    except module.OracleLimitError as e:
        return f"limit: {e}"


def assert_same(program, model, max_events: int = 12) -> None:
    assert outcome(oracle, program, model, max_events) == outcome(
        oracle_reference, program, model, max_events)


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_oracle_equals_reference_on_the_corpus(name):
    for model in MODELS:
        assert_same(corpus_program(name), model)


def inline_programs() -> dict[str, str]:
    """Every string literal in the tests that parses as a program, mapped
    to the file it is written in."""
    found: dict[str, str] = {}
    for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            text = node.value if isinstance(node, ast.Constant) else None
            if isinstance(text, str) and "thread" in text:
                try:
                    parse_and_lower(text)
                except ParseError:
                    continue
                found.setdefault(text, path.name)
    return found


def test_oracle_equals_reference_on_the_inline_programs():
    texts = inline_programs()
    assert len(texts) >= 20  # the search finds them
    for text, where in texts.items():
        program, _ = parse_and_lower(text)
        for model in MODELS:
            assert outcome(oracle, program, model) == outcome(
                oracle_reference, program, model), (where, model, text)


def generated_text(seed: int) -> str:
    """A random program of 2-3 threads over x and y: stores, loads, fences,
    `if`s, creates of later threads (some on one branch only), joins of any
    thread (itself or a joiner too, so some executions block), counting
    loops that may pass the oracle's loop bound, thread asserts and a
    top-level assert."""
    rng = random.Random(seed)
    names = [f"t{i}" for i in range(rng.randint(2, 3))]
    uncreated = names[1:]
    out = ["global x = 0, y = 0;"]

    def stmt(me: int, locals_: list[str], depth: int) -> str:
        kind = rng.choice(["store", "store", "load", "load", "fence", "if",
                           "create", "create", "join", "loop", "assert"])
        g, k = rng.choice("xy"), rng.randint(0, 2)
        r = rng.choice(locals_) if locals_ else None
        if kind == "load" or kind in ("assert", "store") and r is None:
            locals_.append(f"r{len(locals_)}")
            return f"local {locals_[-1]} = {g};"
        if kind == "store":
            return f"{g} = {rng.choice([str(k), r + ' + 1'])};"
        if kind == "assert":
            return f"assert({r} == {k});"
        if kind == "if" and depth < 2:
            test = r or g
            then = stmt(me, locals_, depth + 1)
            return (f"if ({test} == {k}) {{ {then} }} "
                    f"else {{ {stmt(me, locals_, depth + 1)} }}")
        later = [t for t in uncreated if names.index(t) > me]
        if kind == "create" and later:
            uncreated.remove(child := rng.choice(later))
            return f"create({child});"
        if kind == "loop":
            i = f"i{len(locals_)}"
            locals_.append(i)
            return (f"local {i} = 0; while ({i} < {rng.choice([1, 4])}) "
                    f"{{ {i} = {i} + 1; }}")
        if kind == "join":
            return f"join({rng.choice(names)});"
        return "fence;"

    for me, name in enumerate(names):
        locals_: list[str] = []
        body = [stmt(me, locals_, 0) for _ in range(rng.randint(1, 5))]
        out.append(f"thread {name} {{ " + " ".join(body) + " }")
    if rng.random() < 0.5:
        out.append(f"assert({rng.choice('xy')} == {rng.randint(0, 2)});")
    return "\n".join(out) + "\n"


def generated_cell(seed: int):
    """A generated program, the model it runs under, and its event budget:
    one seed in five has a budget of 6, so that some exceed it."""
    program, _ = parse_and_lower(generated_text(seed))
    return program, MODELS[seed % len(MODELS)], 6 if seed % 5 == 0 else 12


def test_generated_programs_cover_creates_joins_blocks_and_limits():
    texts = [generated_text(seed) for seed in GENERATED_SEEDS]
    assert sum("create(" in t for t in texts) >= 40
    assert sum("join(" in t for t in texts) >= 40
    self_joins = r"thread (t\d) \{[^\n]*join\(\1\)"  # these block
    assert sum(bool(re.search(self_joins, t)) for t in texts) >= 20
    outcomes = [outcome(oracle, *generated_cell(seed))
                for seed in GENERATED_SEEDS]
    limits = [o for o in outcomes if isinstance(o, str)]
    assert any("loop bound" in o for o in limits)
    assert any("event budget" in o for o in limits)
    assert len(limits) < len(outcomes) // 2  # most programs are judged


@pytest.mark.parametrize("seed", GENERATED_SEEDS)
def test_oracle_equals_reference_on_generated_programs(seed):
    assert_same(*generated_cell(seed))
