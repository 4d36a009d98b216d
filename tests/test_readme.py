"""README's examples run as written: each `hurwitz compute ... # -> V` line of
the CLI block prints `= V`, and each call of the library example returns the
value its comment starts with."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

from hurwitz.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> list[str]:
    """Lines of the first fenced `lang` block after the `heading` line."""
    after = README[README.index(f"\n{heading}\n"):]
    start = after.index(f"```{lang}\n") + len(f"```{lang}\n")
    return after[start:after.index("```", start)].splitlines()


def test_each_cli_example_prints_its_value(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("HURWITZ_CACHE", str(tmp_path / "cache.jsonl"))
    examples = [
        m.groups() for m in map(re.compile(r"hurwitz (compute .*?)\s+# -> (\S+)").fullmatch, _block("## CLI", "sh")) if m
    ]
    assert len(examples) == 3
    for command, value in examples:
        assert main(shlex.split(command)) == 0, command
        assert f" = {value}  # method=" in capsys.readouterr().out, command


def test_each_library_example_returns_its_value():
    lines = [line for line in _block("## Library example", "python") if line.strip()]
    namespace: dict = {}
    exec(lines[0], namespace)  # the import line
    calls = [re.fullmatch(r"(.*?)\s+# (\d+(?:/\d+)?)\b.*", line).groups() for line in lines[1:]]
    assert len(calls) == 3
    for call, value in calls:
        assert eval(call, namespace) == Fraction(value), call
