"""Every ``blinkinfer`` command shown in the README is one the CLI accepts.

Each command in the README's fenced blocks, its continuation lines joined,
goes through the CLI's own argument parser and option checks, so a flag
or value that the CLI refuses at parse or config time fails here.
"""

import shlex
from pathlib import Path

import pytest

from blinkinfer import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The argument lists of the ``blinkinfer`` commands in fenced blocks."""
    commands, fenced, pending = [], False, ""
    for line in README.read_text().splitlines():
        if line.lstrip().startswith("```"):
            fenced, pending = not fenced, ""
            continue
        if not fenced:
            continue
        pending += line.strip()
        if pending.endswith("\\"):
            pending = pending[:-1] + " "
            continue
        if pending.startswith("blinkinfer "):
            commands.append(shlex.split(pending)[1:])
        pending = ""
    return commands


COMMANDS = readme_commands()


def test_readme_shows_every_command():
    assert {argv[0] for argv in COMMANDS} == set(cli._COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[:3]) for a in COMMANDS])
def test_readme_command_accepted(argv):
    args = cli._build_parser().parse_args(argv)
    cfg = cli._config_from_args(args)
    assert cfg.command == argv[0]
