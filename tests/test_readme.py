"""The README's library example runs as printed, from the repository root,
and prints the output the README shows under it."""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def library_example() -> tuple[str, str]:
    """The first two fenced blocks of the README's "Library" section: the
    ``python`` example and the output printed under it."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code, output = re.findall(r"^```(?:python)?\n(.*?)^```$", section, re.M | re.S)[:2]
    return code, output


def test_library_example_prints_what_the_readme_shows(monkeypatch, capsys):
    code, output = library_example()
    assert "from idealtop import" in code
    monkeypatch.chdir(REPO)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == output
