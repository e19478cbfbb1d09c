"""README.md stays in step with the code: its tour runs and its CLI lines exit as stated."""

import re
import shlex
from pathlib import Path

from expobasis.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(heading: str) -> str:
    """The text under ``## heading`` up to the next second-level heading."""
    return README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _fenced_blocks(text: str) -> list[str]:
    return re.findall(r"^```[a-z]*\n(.*?)^```", text, flags=re.M | re.S)


def _cli_lines() -> list[str]:
    return [line for block in _fenced_blocks(_section("CLI"))
            for line in block.splitlines() if line.startswith("expobasis ")]


def test_library_quick_tour_runs():
    tour = _fenced_blocks(_section("Library quick tour"))[0]
    exec(compile(tour, "README.md", "exec"), {})


def test_cli_lines_exit_as_stated(tmp_path, monkeypatch, capsys):
    # the lines run in order: later ones read the files earlier ones write
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EXPOBASIS_SEED", raising=False)
    lines = _cli_lines()
    assert len(lines) >= 9
    for line in lines:
        comment = line.partition("#")[2]
        stated = re.search(r"\bexit (\d+)", comment)
        argv = shlex.split(line, comments=True)[1:]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == (int(stated.group(1)) if stated else 0), (line, err)

