"""The README's library quick start and command-line examples run, and the
quick start prints what its comments show."""

import re
import shlex
from pathlib import Path

import pytest

from esdurate.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first python block after the "Library quick start" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def cli_examples() -> list[list[str]]:
    """The argv of every `esdurate ...` line in the first sh block after the
    "Command line" heading."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("esdurate ")]


def test_library_quick_start_runs(capsys):
    code = quick_start()
    exec(compile(code, str(README), "exec"), {"__name__": "readme_quick_start"})
    printed = capsys.readouterr().out.split()
    # a comment "# 1.5074..." shows the leading digits of one printed value
    shown = re.findall(r"(-?\d+\.\d+)\.\.\.", "".join(re.findall(r"#.*", code)))
    assert shown and len(printed) == len(shown)
    assert all(value.startswith(prefix) for value, prefix in zip(printed, shown))


def test_every_command_has_an_example():
    assert {argv[0] for argv in cli_examples()} == {"p2p-bounds", "esdu-rate", "bc-inner", "bc-outer", "verify"}


# each id is the whole command line, so a new example renames no other test
@pytest.mark.parametrize("argv", cli_examples(), ids=" ".join)
def test_command_line_example_runs(capsys, argv):
    try:
        code = main([*argv, "--timestamp", "2000-01-01T00:00:00Z"])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith(("# manifest: {", "{\n"))
