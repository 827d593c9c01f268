"""Front-end tests: parse errors and their positions, the flow graphs the
parser emits for each thread, the root thread that `lower` adds, and a
gate of token-level mutants of the corpus and of retargeted thread
calls."""
from __future__ import annotations

import copy
import random
from pathlib import Path

import pytest

from relaxcheck.analysis import analyze_all
from relaxcheck.feasibility import MemoryModel
from relaxcheck.frontend import (
    MAX_NESTING, NestingError, ParseError, lower, parse, parse_and_lower,
    tokenize,
)
from relaxcheck.ir import (
    Assert, Assume, EPILOGUE_THREAD, Fence, Load, Membar, Store, validate,
)

from conftest import CORPUS_FILES, corpus_text

FIG2 = """
global x = 0, y = 0;

thread t1 {
  x = 5;
  fence;
  y = 10;
}

thread t2 {
  if (y == 10) {
    assert(x == 5);
  }
}
"""


def _instrs(graph):
    """Instructions in a deterministic order (straight-line friendly)."""
    return [graph.nodes[n] for n in sorted(graph.nodes)]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_fig2_shape():
    ast = parse(FIG2)
    assert list(ast.threads) == ["t1", "t2"]
    assert ast.globals == [("x", 0), ("y", 0)]
    assert ast.model is None


def test_parse_model_directive():
    ast = parse("model tso;\nglobal x;\nthread t { x = 1; }\n")
    assert ast.model == "tso"


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as e:
        parse("thread t { x = ; }")
    assert e.value.line == 1


def test_parse_undeclared_identifier():
    with pytest.raises(ParseError, match="undeclared"):
        parse("global x;\nthread t { y = 1; }")


def test_top_level_assert_cannot_read_a_thread_local():
    # the last thread's locals are out of scope after its block
    with pytest.raises(ParseError) as e:
        parse("global x;\nthread t { local r = 5; }\nassert(r == 0);\n")
    assert (e.value.message, e.value.line, e.value.col) == (
        "undeclared identifier 'r'", 3, 8)


@pytest.mark.parametrize("text, message, line, col", [
    # both attempts fail at zz: the comparison's error wins the tie
    ("global x;\nthread t { assert(zz == 0); }", "undeclared identifier 'zz'",
     2, 19),
    # the comparison gets further than the parenthesized condition
    ("global x;\nthread t { if (x == zz) { x = 1; } }",
     "undeclared identifier 'zz'", 2, 21),
    # the parenthesized condition gets further than the comparison
    ("global x;\nthread t { assert((x == 1) && (x ==)); }",
     "expected expression, found ')'", 2, 36),
], ids=["tie", "comparison-further", "parenthesized-further"])
def test_condition_error_is_the_one_further_into_the_input(text, message,
                                                          line, col):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


@pytest.mark.parametrize("text, line, col", [
    (f"global x;\nthread t {{ local r = 1{'0' * 5000}; }}", 2, 22),
    (f"global x = -1{'0' * 5000};\nthread t {{ x = 1; }}", 1, 13),
], ids=["expression", "global-initialiser"])
def test_literal_past_the_int_conversion_limit_is_a_parse_error(text, line,
                                                                 col):
    # once a ValueError out of int(): a traceback and exit 1 (ALARM)
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.message, e.value.line, e.value.col) == (
        "integer literal too long (5001 digits)", line, col)


def test_parse_duplicate_global():
    with pytest.raises(ParseError, match="duplicate"):
        parse("global x; global x;\nthread t { x = 1; }")


def test_parse_rejects_reserved_identifiers():
    with pytest.raises(ParseError):
        parse("global __t0;\nthread t { __t0 = 1; }")


def test_parse_rejects_join_of_unknown_thread():
    with pytest.raises(ParseError, match="unknown thread"):
        parse("global x;\nthread t { join(u); }")


@pytest.mark.parametrize("text, line, col", [
    ("global x;\nthread a { create(a); x = 1; }", 2, 12),
    ("global x;\nthread a { create(b); }\nthread b {\n  create(a);\n}", 4, 3),
], ids=["self", "pair"])
def test_parse_rejects_thread_creation_cycle_at_its_create(text, line, col):
    with pytest.raises(ParseError, match="creation cycle through 'a'") as e:
        parse(text)
    assert (e.value.line, e.value.col) == (line, col)


@pytest.mark.parametrize("text, line, col", [
    ("global y;\nthread a { local r = y;\n  if (r == 1) { create(c); }\n"
     "  else { create(c); } }\nthread c { }", 4, 10),
    ("thread a { create(c); }\nthread b {\n  create(c);\n}\nthread c { }",
     3, 3),
], ids=["branches", "threads"])
def test_parse_rejects_a_thread_created_at_two_sites(text, line, col):
    # each create would order the child after it, but only one of them runs
    with pytest.raises(ParseError, match="'c' is created at two sites") as e:
        parse(text)
    assert (e.value.line, e.value.col) == (line, col)


def test_long_thread_creation_chain_lowers():
    n = 1100  # past the default recursion limit of 1000
    program, _ = parse_and_lower(
        "global x;\n"
        + "".join(f"thread t{i} {{ create(t{i + 1}); }}\n"
                  for i in range(n - 1))
        + f"thread t{n - 1} {{ x = 1; }}\n")
    assert len(program.threads) == n + 1  # and the root


_DEEP = MAX_NESTING + 1


@pytest.mark.parametrize("text", [
    "thread t { " + "if (x == 0) { " * _DEEP + "x = 1;" + " }" * _DEEP + " }",
    "thread t { assert(" + "!" * _DEEP + "(x == 0)); }",
    "thread t { x = " + "-" * _DEEP + "1; }",
    "thread t { assert(" + "(" * _DEEP + "x == 0" + ")" * _DEEP + "); }",
    "thread t { x = 1; }\nassert(x" + " * 2" * _DEEP + " > 0);",
    "thread t { assert(" + " && ".join(["x == 0"] * _DEEP) + "); }",
], ids=["blocks", "nots", "negations", "cond-parens", "product", "ands"])
def test_parse_rejects_nesting_past_the_limit(text):
    with pytest.raises(NestingError, match="deeper than"):
        parse("global x = 0;\n" + text)


def test_nesting_just_under_the_limit_is_analyzed():
    d = MAX_NESTING - 10
    program, _ = parse_and_lower(
        "global x = 0;\nthread t { local a = " + "(" * d + "x" + ")" * d
        + "; a = a" + " + 1" * d + "; "
        + "if (x == 0) { " * d + "x = a;" + " }" * d + " }\n"
        "assert(x >= 0);\n")
    _, verdicts, _ = analyze_all(program, MemoryModel.SC)
    assert [v.status for v in verdicts] == ["PROVED"]


def _line_starts(text: str) -> list[int]:
    """The offset in text of each line's first character, line 1 first."""
    starts = [0]
    for line in text.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    return starts


def _token_mutants(text: str, rng: random.Random, n: int):
    """n mutants of text, each with one token, located by its line and
    column, deleted, duplicated or replaced by a token of the same kind."""
    line_starts = _line_starts(text)
    tokens = [t for t in tokenize(text) if t.kind != "eof"]
    same_kind: dict[str, list[str]] = {}
    for t in tokens:
        same_kind.setdefault(t.kind, []).append(t.text)
    for _ in range(n):
        tok = rng.choice(tokens)
        start = line_starts[tok.line - 1] + tok.col - 1
        assert text[start:start + len(tok.text)] == tok.text
        new = rng.choice(["", f"{tok.text} {tok.text}",
                          rng.choice(same_kind[tok.kind])])
        yield text[:start] + new + text[start + len(tok.text):]


def test_token_mutants_of_the_corpus_are_valid_programs_or_parse_errors():
    parsed = 0
    for name in CORPUS_FILES:
        rng = random.Random(name)
        for mutant in _token_mutants(corpus_text(name), rng, 50):
            try:
                program, _ = parse_and_lower(mutant)
            except ParseError:
                continue
            assert validate(program) == [], (name, mutant)
            parsed += 1
    assert parsed > 0  # the gate reaches lowering, not only the parser


#: non-root threads that create and join, so that a retargeted create can
#: name a thread created elsewhere or close a creation cycle
_NESTED_CALLS = """
global x = 0, y = 0;

thread main {
  create(p);
  create(q);
  join(p);
  join(q);
}

thread p {
  x = 1;
  create(c);
  join(c);
}

thread q {
  local a = x;
}

thread c {
  y = 2;
}
"""


def _call_retargets(text: str):
    """Mutants of text with one create or join site retargeted: to every
    other declared thread (its own thread included) and to an undeclared
    name."""
    line_starts = _line_starts(text)
    tokens = tokenize(text)
    threads = [tokens[i + 1].text for i, t in enumerate(tokens)
               if (t.kind, t.text) == ("kw", "thread")]
    for i, tok in enumerate(tokens):
        if (tok.kind, tok.text) == ("kw", "thread"):
            own = tokens[i + 1].text
        elif tok.kind == "kw" and tok.text in ("create", "join"):
            target = tokens[i + 2]
            start = line_starts[target.line - 1] + target.col - 1
            for new in dict.fromkeys([*threads, own, "ghost"]):
                if new != target.text:
                    yield (text[:start] + new
                           + text[start + len(target.text):])


@pytest.mark.parametrize("source", ["create_join.lit", "nested calls"])
def test_retargeted_thread_calls_are_valid_programs_or_parse_errors(source):
    text = _NESTED_CALLS if source == "nested calls" else corpus_text(source)
    parsed = rejected = 0
    for mutant in _call_retargets(text):
        try:
            program, _ = parse_and_lower(mutant)
        except ParseError:
            rejected += 1
            continue
        assert validate(program) == [], mutant
        parsed += 1
    assert parsed > 0 and rejected > 0


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

def test_lowered_corpus_programs_validate():
    for name in CORPUS_FILES:
        program, _ = parse_and_lower(corpus_text(name))
        assert validate(program) == [], name


def test_lower_leaves_its_input_as_it_was():
    # the program shares the parsed thread graphs with the parse
    ast = parse(FIG2 + "assert(x >= 0);\n")
    before = copy.deepcopy(ast.threads)
    assert lower(ast) == lower(ast)
    assert list(ast.threads) == ["t1", "t2", EPILOGUE_THREAD]
    assert ast.threads == before


def test_global_assignment_splits_into_load_and_store():
    program, _ = parse_and_lower(
        "global x = 0, y = 0;\nthread t { y = x + 1; }\n")
    body = [i for i in _instrs(program.threads["t"])
            if isinstance(i, (Load, Store))]
    assert isinstance(body[0], Load) and body[0].src.name == "x"
    assert isinstance(body[1], Store) and body[1].dst.name == "y"
    # the store expression references the hoisted temporary, not the global
    assert body[0].dst.name.startswith("__t")


def test_fig2_thread2_lowering_shape():
    program, _ = parse_and_lower(FIG2)
    t2 = program.threads["t2"]
    kinds = [type(i).__name__ for i in _instrs(t2)]
    # entry, hoisted load of y, two assume branches, hoisted load of x,
    # assert, merge, exit — as multiset since ids interleave branches
    assert kinds.count("Load") == 2
    assert kinds.count("Assume") == 2
    assert kinds.count("Assert") == 1
    assumes = [i for i in _instrs(t2) if isinstance(i, Assume)]
    assert len({a.cond for a in assumes}) == 2  # complementary guards


def test_fence_lowers_to_single_fence_node():
    program, _ = parse_and_lower("global x;\nthread t { fence; }\n")
    fences = [i for i in _instrs(program.threads["t"])
              if isinstance(i, Fence)]
    assert len(fences) == 1


def test_membar_kinds_preserved():
    program, _ = parse_and_lower(
        "global x;\nthread t { membar #SL #SS; }\n")
    membars = [i for i in _instrs(program.threads["t"])
               if isinstance(i, Membar)]
    assert len(membars) == 1
    assert membars[0].kinds == frozenset({"SL", "SS"})


def test_lock_unlock_lower_to_fences():
    program, _ = parse_and_lower(
        "global x;\nthread t { lock(m); x = 1; unlock(m); }\n")
    kinds = [type(i).__name__ for i in _instrs(program.threads["t"])]
    assert kinds.count("Fence") == 2


def test_trailing_assert_becomes_epilogue_thread():
    program, _ = parse_and_lower(
        "global x = 0;\nthread t { x = 1; }\nassert(x >= 0);\n")
    assert EPILOGUE_THREAD in program.threads
    epi = program.threads[EPILOGUE_THREAD]
    assert any(isinstance(i, Assert) for i in _instrs(epi))
    # the epilogue reads the global through a hoisted load
    assert any(isinstance(i, Load) for i in _instrs(epi))


def test_while_reloads_globals_each_iteration():
    program, _ = parse_and_lower(
        "global x = 0;\nthread t { local i = 0;\n"
        "  while (x < 3) { i = i + 1; } }\n")
    t = program.threads["t"]
    loads = [n for n in t.nodes if isinstance(t.nodes[n], Load)]
    assert len(loads) == 1
    # the loop's back edge must reach the hoisted load again
    load = loads[0]
    stack, seen = [load], set()
    while stack:
        n = stack.pop()
        for s in t.successors(n):
            if s == load:
                seen.add("cycle")
                stack = []
                break
            if s not in seen:
                seen.add(s)
                stack.append(s)
    assert "cycle" in seen


def test_root_thread_creates_and_joins_every_thread():
    program, _ = parse_and_lower(FIG2)
    root = program.threads[program.root]
    created = {i.child for i in _instrs(root)
               if type(i).__name__ == "ThreadCreate"}
    joined = {i.child for i in _instrs(root)
              if type(i).__name__ == "ThreadJoin"}
    assert created == joined == {"t1", "t2"}
    assert len(program.init_stores) == 2


def test_model_directive_returned_by_parse_and_lower():
    _, model = parse_and_lower("model pso;\nglobal x;\nthread t { x = 1; }\n")
    assert model == "pso"


def test_readme_example_is_proved_under_tso():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Input language", 1)[1]
    example = section.split("```")[1]
    program, model = parse_and_lower(example)
    assert model == "tso"
    _, verdicts, _ = analyze_all(program, MemoryModel.TSO)
    assert [v.status for v in verdicts] == ["PROVED"]
