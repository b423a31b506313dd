"""Every module-level import of a library module is used by that module.

Deleting code tends to leave its imports behind; this catches them.  The
package's __init__.py imports names to re-export them, so it is left out."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sharporder"


def unused_imports(source):
    """The names that the module-level imports of source bind but that no
    expression of source reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return sorted(bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_a_leftover():
    source = "import numpy as np\nimport os.path\nfrom math import gcd, lcm\nx = lcm(os.sep)\n"
    assert unused_imports(source) == ["gcd", "np"]
