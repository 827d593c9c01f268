"""The README's examples: the Usage output is what `relax-check` prints for
the Usage command, and the Input-language example parses and lowers."""
from __future__ import annotations

import re

from relaxcheck.cli import run
from relaxcheck.frontend import parse_and_lower
from relaxcheck.ir import validate

from conftest import CORPUS

README = CORPUS.parent / "README.md"


def _blocks(section: str) -> list[str]:
    """The fenced code blocks of one `## ` section, subsections included."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```\w*\n(.*?)^```", body, re.M | re.S)


def _mask_time(report: str) -> str:
    return re.sub(r"wall_time_s=\S+", "wall_time_s=*", report)


def test_usage_output_is_the_commands_output(capsys, monkeypatch):
    command, output = _blocks("Usage")[:2]
    argv = command.split()
    assert argv[0] == "relax-check"
    monkeypatch.chdir(README.parent)
    code = run(argv[1:])
    assert _mask_time(capsys.readouterr().out) == _mask_time(output)
    assert code == 0


def test_input_language_example_parses_and_lowers():
    (example,) = _blocks("Input language")
    program, model = parse_and_lower(example)
    assert model == "tso"
    assert validate(program) == []
    assert {"t1", "t2"} <= set(program.threads)
