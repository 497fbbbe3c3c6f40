"""The README's library quick start runs, and prints what its comments show."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first python block after the "Library quick start" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs(capsys):
    code = quick_start()
    exec(compile(code, str(README), "exec"), {"__name__": "readme_quick_start"})
    printed = capsys.readouterr().out.split()
    # a comment "# 1.5074..." shows the leading digits of one printed value
    shown = re.findall(r"(-?\d+\.\d+)\.\.\.", "".join(re.findall(r"#.*", code)))
    assert shown and len(printed) == len(shown)
    assert all(value.startswith(prefix) for value, prefix in zip(printed, shown))
