"""Every function and method in `src/relaxcheck` is reached from
`relax-check`: `cli.run` over the corpus under every model, once with no
flag and once each with `--oracle`, `--format json` and
`--emit-relations`, under `sys.setprofile`.  Methods that dataclasses and
named tuples generate have no line in the package's source, so they are
not counted.  The functions the command never calls are listed in
`UNREACHED`, each with its reason; a listed function that the command
does call fails the test too."""
from __future__ import annotations

import contextlib
import inspect
import io
import pathlib
import sys
import types

import relaxcheck
from relaxcheck import cli

from conftest import CORPUS, CORPUS_FILES, MODELS

PACKAGE = pathlib.Path(relaxcheck.__file__).resolve().parent

FLAGS = [[], ["--oracle"], ["--format", "json"], ["--emit-relations"]]

#: (module, qualified name) -> why `relax-check` never calls it
UNREACHED = {
    ("cli", "main"): "the console script's entry point; it calls `run`",
    ("datalog", "solve"): "the rules' specification: the tests hold the "
        "engine to it, and the benchmark's `datalog.*` metrics wrap it "
        "until ROADMAP item 13 retires them",
    ("domain", "AbstractEnv.__str__"): "the benchmark's fingerprint and "
        "the tests print env maps",
    ("domain", "AbstractEnv.variables"): "`AbstractEnv.__str__` sorts the "
        "variables with it",
    ("domain", "Interval.__str__"): "`AbstractEnv.__str__` prints with it",
    ("domain", "Interval.__repr__"): "debugging and test messages; the "
        "tests hold it equal to the dataclass repr it replaced",
    ("domain", "Interval.__setattr__"): "keeps intervals immutable: it "
        "raises on a write, which the package never makes",
    ("domain", "Interval.__delattr__"): "keeps intervals immutable, like "
        "`__setattr__`",
    ("domain", "Interval.__reduce__"): "lets `pickle` and `copy` rebuild a "
        "slotted interval; `relax-check` does neither",
    ("domain", "Interval.is_top"): "`AbstractEnv.__str__`, and "
        "`AbstractEnv.leq` on a variable that only its right operand "
        "maps, which no corpus run meets",
    ("domain", "Interval.sub"): "no corpus program subtracts",
    ("frontend", "_nesting"): "a decorator of parser methods: it runs at "
        "import, before the profile starts",
    ("frontend", "_Parser.cond_unary.<locals>.<lambda>"): "ranks two parse "
        "errors of one condition; every corpus file parses",
}


def _defined() -> dict[tuple[str, int, str], str]:
    """The qualified name of every `def` and `lambda` in the package,
    keyed by its code's module, first line and name.  The walk builds
    each qualified name from the enclosing ones, as Python does, since
    code objects carry theirs only from Python 3.11."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        stack = [(module, "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                qualname = f"{prefix}.{const.co_name}" if prefix \
                    else const.co_name
                function = bool(const.co_flags & inspect.CO_OPTIMIZED)
                # names nested in a function sit under its `<locals>`
                stack.append((const, f"{qualname}.<locals>" if function
                              else qualname))
                # a function, not a class body or a comprehension
                if function and (not const.co_name.startswith("<")
                                 or const.co_name == "<lambda>"):
                    found[_key(const)] = qualname
    return found


def _key(code: types.CodeType) -> tuple[str, int, str]:
    return (pathlib.Path(code.co_filename).resolve().stem,
            code.co_firstlineno, code.co_name)


def _reached() -> set[tuple[str, int, str]]:
    """The keys, as `_defined` keys them, of the package's functions that
    `cli.run` calls over the corpus, every model and every flag set."""
    seen: set[types.CodeType] = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for name in CORPUS_FILES:
                for model in MODELS:
                    for flags in FLAGS:
                        codes.append(cli.run([str(CORPUS / name), "--model",
                                              model.value, *flags]))
    finally:
        sys.setprofile(None)
    assert set(codes) == {0, 1}  # verdicts and dumps, no error
    return {_key(code) for code in seen
            if pathlib.Path(code.co_filename).resolve().parent == PACKAGE}


def test_every_function_is_reached_or_listed():
    defined = _defined()
    reached = _reached()
    unreached = {(key[0], qualname) for key, qualname in defined.items()
                 if key not in reached}
    assert unreached == UNREACHED.keys()
