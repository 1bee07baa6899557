"""The README's command-line section matches the command line."""

import re
import shlex
from pathlib import Path

from garside.cli import EXIT_OK, cli, main

README = Path(__file__).resolve().parents[1] / "README.md"


def command_line_section():
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Command line\n")
    return text[start:text.index("\n## ", start + 1)]


def example_runs():
    """(argv, head, shown) for each `$ garside ...` line of the Examples block.

    `head` is the line count of a trailing `| head -N`, else None; `shown`
    is the text printed under the command.
    """
    section = command_line_section()
    block = section[section.index("Examples:"):].split("```sh\n", 1)[1].split("```", 1)[0]
    runs = []
    for line in block.splitlines():
        if line.startswith("$ "):
            command, _, pipe = line[2:].partition(" | ")
            head = int(pipe.removeprefix("head -")) if pipe else None
            argv = shlex.split(command)
            assert argv[0] == "garside", line
            runs.append((argv[1:], head, []))
        else:
            runs[-1][2].append(line + "\n")
    return [(argv, head, "".join(shown)) for argv, head, shown in runs]


def test_readme_lists_every_subcommand():
    section = command_line_section()
    listed = re.findall(r"^\| `([a-z-]+)[ `]", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(cli.commands)


def test_readme_examples_reproduce(capsys):
    runs = example_runs()
    assert len(runs) >= 4
    for argv, head, shown in runs:
        code = main(argv)
        out = capsys.readouterr().out
        if head is not None:
            out = "".join(out.splitlines(keepends=True)[:head])
        assert code == EXIT_OK, argv
        assert out == shown, argv
