"""Every import of a library module is used where it is made (in the
module, or in the function that makes it), no library module holds mutable
state at module level, every error class of errors.py is raised somewhere,
every fact a value keeps is written by core._kept, and the brute-force
oracle's sweeps load neither numpy nor the order code they check.

Deleting code tends to leave its imports behind; this catches them, also
in the CLI, whose commands each import what they run.  A module-level
dict, list or set is where a global cache grows; a value keeps what it
derives from itself instead (an exact Matrix keeps its square and its
index verdict), so there is none to clear or cap.  An
error class that no module raises is a code, and a CLI exit, that can no
longer happen.  A kept fact written by hand repeats the check, the make
and the write that core._kept does once."""

import ast
from pathlib import Path

import pytest

from conftest import loaded_in_fresh_interpreter

SRC = Path(__file__).resolve().parents[1] / "src" / "sharporder"


_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def _imported(node):
    """The names that the imports of node's scope bind: in its statements
    and their blocks, not in the functions or classes it defines."""
    bound = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in child.names}
        elif isinstance(child, ast.ImportFrom) and child.module != "__future__":
            bound |= {a.asname or a.name for a in child.names}
        elif not isinstance(child, _SCOPES + (ast.ClassDef, ast.Lambda)):
            bound |= _imported(child)
    return bound


def unused_imports(source):
    """The names that an import of source binds but that no expression of
    its scope reads: of the module for a module-level import, of the
    function (nested functions included) for one inside a function."""
    unused = set()
    for scope in ast.walk(ast.parse(source)):
        if isinstance(scope, _SCOPES):
            unused |= _imported(scope) - {n.id for n in ast.walk(scope)
                                          if isinstance(n, ast.Name)}
    return sorted(unused)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_a_leftover():
    source = "import numpy as np\nimport os.path\nfrom math import gcd, lcm\nx = lcm(os.sep)\n"
    assert unused_imports(source) == ["gcd", "np"]
    # a function's import is used only by a read in that function: h reads
    # hs_decompose, which f imports, and f never reads group_inverse
    source = ("import json\n"
              "def f(x):\n"
              "    from .hs import hs_decompose, hs_to_obj\n"
              "    if x:\n"
              "        import numpy as np\n"
              "        from .ginv import group_inverse\n"
              "    def g():\n"
              "        return json.dumps(hs_to_obj(np))\n"
              "    return g\n"
              "def h(x):\n"
              "    return hs_decompose(x)\n")
    assert unused_imports(source) == ["group_inverse", "hs_decompose"]


# what makes a dict, list or set: a display, a comprehension, or a call of
# the type by name
_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_TYPES = ("dict", "list", "set")


def module_containers(source):
    """The names that module-level assignments of source bind to a new dict,
    list or set."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        v = node.value
        if isinstance(v, _CONTAINERS) or (isinstance(v, ast.Call) and isinstance(v.func, ast.Name)
                                          and v.func.id in _CONTAINER_TYPES):
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return sorted(names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_containers(path):
    # __init__.py lists its public names, which is not state
    exempt = {"__all__"} if path.name == "__init__.py" else set()
    assert [n for n in module_containers(path.read_text()) if n not in exempt] == []


def test_module_containers_finds_a_cache():
    source = ("_CACHE = {}\n_SEEN: set = set()\nA = B = [x for x in ()]\nN = 4\nT = (1, 2)\n"
              "M = dict(a=1)\nP = frozenset()\ndef f():\n    local = []\n")
    assert module_containers(source) == ["A", "B", "M", "_CACHE", "_SEEN"]


def unraised_errors(errors_source, sources):
    """The SharpOrderError subclasses that errors_source defines but that no
    raise statement of the other sources names: raise E, raise E(...), or
    either with a from clause."""
    subclasses = {"SharpOrderError"}
    for node in ast.parse(errors_source).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in subclasses for b in node.bases):
            subclasses.add(node.name)
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return sorted(subclasses - {"SharpOrderError"} - raised)


def test_every_error_is_raised():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "errors.py"]
    assert unraised_errors((SRC / "errors.py").read_text(), sources) == []


def test_unraised_errors_finds_a_leftover():
    errors = ("class SharpOrderError(Exception):\n    pass\n"
              "class NotEP(SharpOrderError):\n    code = 'not_ep'\n"
              "class Shape(SharpOrderError):\n    pass\n"
              "class Ragged(Shape):\n    pass\n"
              "class Bare(SharpOrderError):\n    pass\n"
              "class Other(ValueError):\n    pass\n")
    sources = ["def f(x):\n    if x:\n        raise Shape('no') from None\n    raise Bare\n",
               "from .errors import NotEP, Ragged\ntry:\n    pass\nexcept NotEP:\n"
               "    raise ValueError(Ragged)\n"]
    assert unraised_errors(errors, sources) == ["NotEP", "Ragged"]


# a constructor sets the slots of its own value; every later write of a
# slot is a kept fact, and core._kept is its one writer.  No value class is a
# dataclass, so a __post_init__ write is a write after construction
_SETTERS = ("__init__",)


def setattr_sites(source, allowed=()):
    """The names of the functions of source (module for module level) that
    call object.__setattr__, other than constructors and the functions
    named in allowed; one entry per call."""
    sites = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "__setattr__" and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "object" and fn not in _SETTERS + tuple(allowed)):
            sites.append(fn)
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(source), "module")
    return sites


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_kept_facts_are_written_by_kept(path):
    allowed = ("_kept",) if path.name == "core.py" else ()
    assert setattr_sites(path.read_text(), allowed) == []


def test_setattr_sites_finds_a_hand_written_cache():
    source = ("class A:\n    def __init__(self):\n        object.__setattr__(self, 'x', 1)\n"
              "    def __post_init__(self):\n        object.__setattr__(self, 'y', 2)\n"
              "    def get(self):\n        def make():\n            return 3\n"
              "        object.__setattr__(self, 'z', make())\n"
              "def keep(obj):\n    object.__setattr__(obj, 'w', 4)\n"
              "def _kept(obj):\n    object.__setattr__(obj, 'v', 5)\n"
              "setattr(A, 'u', 6)\nobject.__setattr__(A, 't', 7)\n")
    assert setattr_sites(source, ("_kept",)) == ["__post_init__", "get", "keep", "module"]


def test_oracle_sweeps_load_neither_numpy_nor_the_order_code():
    # the sweeps run on integer forms in pure Python, and share no code with
    # the sharp order they are the ground truth for
    loaded = loaded_in_fresh_interpreter(
        "from sharporder.core import Matrix; from sharporder import oracle; "
        "u = oracle.enumerate_index1(2, [0, 1, '1/2']); b = Matrix.exact([[1, 0], [0, 2]]); "
        "oracle.predecessor_table(u); oracle.brute_common_lower_bounds(b, u[-1], u); "
        "oracle.brute_commuting_idempotents(b, u)")
    assert "sharporder.oracle" in loaded
    assert "numpy" not in loaded and "sharporder.sharp" not in loaded
