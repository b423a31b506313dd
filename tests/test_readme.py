"""The README's library example runs as documented, and its paper map names
code that exists."""

import re
from pathlib import Path

import sharporder
from sharporder.cli import _COMMANDS

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_library_example(capsys):
    text = README.read_text()
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == "True 4 4\n"


def _paper_map():
    """The paper map's rows below its header, each a list of its five cells."""
    section = README.read_text().split("\n## Paper map\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def test_paper_map_names_code_that_exists():
    # every function imports from sharporder, every command has a parser,
    # every test is defined under tests/, and a gap names a ROADMAP item
    commands = {" ".join(filter(None, row[:2])) for row in _COMMANDS}
    tests = set(re.findall(r"^def (test_\w+)\(", "\n".join(
        path.read_text() for path in (ROOT / "tests").glob("test_*.py")), re.M))
    items = set(re.findall(r"^(\d+)\. \*\*", (ROOT / "ROADMAP.md").read_text(), re.M))
    rows = _paper_map()
    assert len(rows) == 11
    for claim, functions, cli, checks, gap in rows:
        for cell in (functions, cli, checks):
            assert "`" in cell or cell == "—", claim
        for name in re.findall(r"`(\w+)`", functions):
            assert callable(getattr(sharporder, name)), name
        assert set(re.findall(r"`([^`]+)`", cli)) <= commands, claim
        assert set(re.findall(r"`(\w+)`", checks)) <= tests, claim
        named = set(re.findall(r"item (\d+)", gap))
        assert (gap == "—") != bool(named) and named <= items, claim
        # a claim with no function or no test is a gap
        assert "—" not in (functions, checks) or gap != "—", claim
