"""Every ``python -m repro`` command the docs quote parses.

The command lines in the fenced code blocks of README.md, DESIGN.md and the
verify skill go through :func:`repro.cli.build_parser`'s ``parse_args``, so a
renamed or deleted flag cannot survive in the prose. Nothing is run: a
``$ `` prompt and ``#`` comments are stripped, ``\\`` continuations joined,
and a shell variable reads as a placeholder.

EXPERIMENTS.md types no table: each claims table is a block the renderer
writes, and a markdown table line anywhere else fails.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.framework.claims import TABLES

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md")
#: What ``$i``, ``$N`` or ``${hosts[$i]}`` reads as.
PLACEHOLDER = "1"


def _fenced_lines(text):
    """``(line number, logical line)`` of each fenced code block line, with
    ``\\`` continuations joined onto the line they continue."""
    fenced, pending, start = False, "", 0
    for number, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced, pending = not fenced, ""
            continue
        if not fenced:
            continue
        if not pending:
            start = number
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        yield start, pending + line
        pending = ""


def _arguments(line):
    """The arguments after ``python -m repro`` on one shell line, up to the
    first shell operator (``;``, ``&``, ``|``, a redirection)."""
    line = re.sub(r"\$\{[^}]*\}|\$\w+", PLACEHOLDER, line.strip().removeprefix("$ "))
    line = re.sub(r"(?<=\s)\d+(?=[<>])", "", line)  # the 2 of `2> file`
    lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    tokens = list(lexer)
    start = next(i for i in range(len(tokens)) if tokens[i : i + 3] == ["python", "-m", "repro"])
    arguments = []
    for token in tokens[start + 3 :]:
        if set(token) <= set("();<>|&"):
            break
        arguments.append(token)
    return arguments


COMMANDS = [
    pytest.param(_arguments(line), id=f"{Path(doc).name}:{number}")
    for doc in DOCS
    for number, line in _fenced_lines((ROOT / doc).read_text())
    if "python -m repro " in line
]


def test_the_docs_quote_commands():
    assert len(COMMANDS) >= 40


@pytest.mark.parametrize("arguments", COMMANDS)
def test_a_quoted_command_parses(arguments):
    try:
        build_parser().parse_args(arguments)
    except SystemExit:
        pytest.fail(f"`python -m repro {shlex.join(arguments)}` does not parse")


def test_experiments_md_has_a_rendered_block_per_table_and_no_other_table():
    blocks, inside, typed = [], None, []
    for number, line in enumerate((ROOT / "EXPERIMENTS.md").read_text().splitlines(), 1):
        marker = re.fullmatch(r"<!-- (\w+):(begin|end) -->", line)
        if marker:
            name, edge = marker.groups()
            if edge == "begin":
                blocks.append(name)
            inside = name if edge == "begin" else None
        elif line.startswith("|") and inside is None:
            typed.append(number)
    assert blocks == list(TABLES)
    assert not typed, f"EXPERIMENTS.md lines {typed} type a table outside a rendered block"
