"""The README's library example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example(capsys):
    text = README.read_text()
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == "True 4 4\n"
