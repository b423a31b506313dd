"""Fuzz the CLI's JSON boundary: seeded mutations of the cli benchmark's
exact and float inputs, each run in process through main.

Whatever the mutation, a command exits 0, 2 or 3 (or 1 from check order),
prints nothing or strict JSON to stdout and nothing, a JSON error or
argparse's usage text to stderr, and lets no exception but SystemExit out
of main.  The mutations include huge block sizes and counts, which the CLI's
work bounds refuse before anything is built; none asks for work that the
bounds allow but that takes long."""

import importlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sharporder.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _wl_cli():
    """perfbench's wl_cli module, imported from its directory as the
    benchmark imports it, without leaving that directory on sys.path."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("wl_cli")
    finally:
        sys.path.remove(str(PERFBENCH))


wl_cli = _wl_cli()
CASES = [argv for variants in wl_cli.EXACT_CASES.values() for _, argv, _ in variants]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The benchmark's exact and float input files, in a fresh directory,
    and the argv of its float cases."""
    path = tmp_path_factory.mktemp("fuzz")
    wl_cli.write_exact_inputs(path)
    inputs = SimpleNamespace(work=path)
    wl_cli.Cli._write_float_inputs(inputs, 1)
    return path, CASES + [argv for _, argv, _ in wl_cli.Cli._float_cases(inputs)]


# ----------------------------------------------------------------------
# mutations

HUGE_SIZES = [[10 ** 400, 1, 1], [100000], [1000], [129], [64, 64, 1]]
VALUES = [0, 1, -1, 2.5, 10 ** 400, -(10 ** 400), 1e308, float("nan"), float("inf"), "1/0",
          "x", "", None, True, [], {}, [0], [[1]], ["1/2", "0/1"], [1e308, 1e308], [-1]]
# option values: a count the bounds refuse, or one that is cheap
OPTION_VALUES = ["-1", "0", "1", "3", str(2 ** 63), str(10 ** 7), "1e-3", "0.5", "2", "nan",
                 "inf", "-1e-3", "x", ""]


def _nodes(obj, path=()):
    """Every (path, node) of a JSON tree, the root first."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(
        obj, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutated(obj, rnd):
    """obj with one node replaced, deleted or duplicated, or, for a spec,
    one eigenvalue's sizes made huge or the spec given 20 one-block
    eigenvalues."""
    if isinstance(obj, dict) and isinstance(obj.get("eigenvalues"), list) and rnd.random() < 0.4:
        eigs = obj["eigenvalues"]
        if rnd.random() < 0.3:
            exact = isinstance(eigs[0]["lambda"][0], str)
            obj["eigenvalues"] = [{"lambda": [f"{k}/1", "0/1"] if exact else [float(k), 0.0],
                                   "sizes": [1]} for k in range(1, 21)]
        else:
            rnd.choice(eigs)["sizes"] = rnd.choice(HUGE_SIZES)
        return obj
    path, _ = rnd.choice(list(_nodes(obj)))
    if not path:
        return rnd.choice(VALUES)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key, action = path[-1], rnd.choice(["replace", "replace", "delete", "duplicate"])
    if action == "delete":
        del parent[key]
    elif action == "duplicate" and isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        parent[key] = rnd.choice(VALUES)
    return obj


def _mutated_argv(argv, directory, rnd):
    """argv with its paths in directory and one input file or one option
    value mutated, or with an argument dropped or one added."""
    argv = [str(directory / a) if a.endswith((".json", ".dot")) else a for a in argv]
    inputs = [i for i, a in enumerate(argv) if a.endswith(".json") and Path(a).is_file()]
    options = [i + 1 for i, a in enumerate(argv[:-1])
               if a in ("--seed", "--count", "--antichain-samples", "--tol")]
    roll = rnd.random()
    if inputs and roll < 0.75:
        i = rnd.choice(inputs)
        obj = _mutated(json.loads(Path(argv[i]).read_text()), rnd)
        mutant = directory / "mutant.json"
        mutant.write_text(json.dumps(obj))
        argv[i] = str(mutant)
    elif options and roll < 0.85:
        i = rnd.choice(options)
        argv[i] = rnd.choice(OPTION_VALUES)
    elif roll < 0.95:
        del argv[rnd.randrange(len(argv))]
    else:
        argv.insert(rnd.randrange(len(argv) + 1), rnd.choice(["--nope", "--tol", "x"]))
    return argv


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.integers(0, 2 ** 32 - 1))
def test_mutated_inputs_exit_with_a_code_and_json(work, data, seed):
    directory, cases = work
    argv = _mutated_argv(data.draw(st.sampled_from(cases)), directory, random.Random(seed))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as stop:
        main(argv)
    code, out, err = stop.value.code, out.getvalue(), err.getvalue()
    assert code in (0, 2, 3) or (code == 1 and argv[:2] == ["check", "order"]), (argv, code)
    if out:
        _strict_json(out)
    if err and not err.startswith("usage: "):
        assert set(_strict_json(err)) == {"error"}, (argv, err)
