"""The README's library example runs as printed, from the repository root,
and prints the output the README shows under it; every line of its
command-line block runs."""

import re
import shlex
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SPACES = REPO / "src" / "idealtop" / "spaces"


def readme_section(title: str) -> str:
    text = (REPO / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> tuple[str, str]:
    """The first two fenced blocks of the README's "Library" section: the
    ``python`` example and the output printed under it."""
    blocks = re.findall(r"^```(?:python)?\n(.*?)^```$", readme_section("Library"), re.M | re.S)
    code, output = blocks[:2]
    return code, output


def command_lines(workdir) -> list[list[str]]:
    """The first fenced block of the README's "Command line" section, one
    argument list per line, without the leading ``idealtop``. ``S.json``
    and ``S1.json`` become the package space ex-3.3-1, ``S2.json`` becomes
    ex-3.3-2, and ``laws.txt`` a file of one law written in ``workdir``."""
    laws_file = Path(workdir) / "laws.txt"
    laws_file.write_text("star(A) <= cl(A)\n", encoding="utf-8")
    files = {
        "S.json": SPACES / "ex-3.3-1.json",
        "S1.json": SPACES / "ex-3.3-1.json",
        "S2.json": SPACES / "ex-3.3-2.json",
        "laws.txt": laws_file,
    }
    block = re.search(r"^```\n(.*?)^```$", readme_section("Command line"), re.M | re.S)[1]
    lines = [shlex.split(line) for line in block.splitlines()]
    assert all(line[0] == "idealtop" for line in lines)
    return [[str(files.get(arg, arg)) for arg in line[1:]] for line in lines]


def test_library_example_prints_what_the_readme_shows(monkeypatch, capsys):
    code, output = library_example()
    assert "from idealtop import" in code
    monkeypatch.chdir(REPO)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == output


def test_command_line_block_runs(tmp_path, capsys):
    # each line exits 0 or 1, so a usage error (exit 2), such as a retired
    # option, cannot stay in the README
    from idealtop import cli

    lines = command_lines(tmp_path)
    assert {argv[0] for argv in lines} == {"eval", "check", "families", "search", "repro"}
    for argv in lines:
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the line
            status = exc.code
        assert status in (0, 1), (argv, capsys.readouterr().err)
    capsys.readouterr()
