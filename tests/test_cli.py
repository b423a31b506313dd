import json

import numpy as np
import pytest
from click.testing import CliRunner

from sharporder import EXACT, FLOAT, Matrix, make_spec
from sharporder.cli import main
from sharporder.core import matrix_from_obj, matrix_to_obj
from sharporder.jordan import spec_to_obj


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    b = Matrix.floating(np.diag([1.0, 2.0, 0.0]))
    spec = make_spec([(2.0, [1]), (1.0, [1])],
                     P=Matrix.identity(2, FLOAT), mode=FLOAT)
    return {
        "B": write("B.json", matrix_to_obj(b)),
        "A": write("A.json", matrix_to_obj(Matrix.floating(np.diag([1.0, 0, 0])))),
        "spec": write("spec.json", spec_to_obj(spec)),
        "b1": write("b1.json", matrix_to_obj(Matrix.exact([[1, 0], [0, 2]]))),
        "b2": write("b2.json", matrix_to_obj(Matrix.exact([[1, 0], [0, 3]]))),
        "wspec": write("wspec.json", spec_to_obj(make_spec([(1, [1, 1, 1])]))),
        "bad": write("bad.json", {"nope": True}),
        "nilpotent": write("nil.json",
                           matrix_to_obj(Matrix.floating([[0, 1], [0, 0]]))),
        "tmp": tmp_path,
    }


def test_refute_conjecture(runner):
    res = runner.invoke(main, ["refute", "conjecture"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["report"]["sharp_leq"] is True
    assert out["report"]["diagonal_form"] is False


def test_check_order_exit_codes(runner, files):
    res = runner.invoke(main, ["check", "order", "--a", files["A"],
                               "--b", files["B"]])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"leq": True}
    res2 = runner.invoke(main, ["check", "order", "--a", files["B"],
                                "--b", files["A"]])
    assert res2.exit_code == 1
    assert json.loads(res2.output) == {"leq": False}


def test_check_order_precondition_exit_3(runner, files):
    res = runner.invoke(main, ["check", "order", "--a", files["nilpotent"],
                               "--b", files["nilpotent"]])
    assert res.exit_code == 3
    assert json.loads(res.stderr) == {"error": "index_too_large"}


def test_malformed_input_exit_2(runner, files):
    res = runner.invoke(main, ["inverse", "mp", "--in", files["bad"]])
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": "malformed_input"}
    res2 = runner.invoke(main, ["decompose", "hs", "--in",
                                str(files["tmp"] / "missing.json")])
    assert res2.exit_code == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("args", [["decompose", "hs", "--in"],
                                  ["inverse", "group", "--in"],
                                  ["inverse", "mp", "--in"],
                                  ["check", "order", "--a", "{B}", "--b"]])
def test_non_finite_input_exit_2(runner, files, args, bad):
    # json.dumps writes NaN and Infinity, which json.load reads back
    path = files["tmp"] / "nonfinite.json"
    path.write_text(json.dumps({"mode": "float", "rows": 2, "cols": 2,
                                "entries": [[1, 0], [bad, 0], [0, 0], [1, 0]]}))
    argv = [a.format(**files) for a in args] + [str(path)]
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": "malformed_input"}
    assert res.stdout == ""


def test_decompose_and_inverse(runner, files):
    res = runner.invoke(main, ["decompose", "hs", "--in", files["B"]])
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["r"] == 2 and len(obj["sigma"]) == 2

    res2 = runner.invoke(main, ["inverse", "group", "--in", files["B"]])
    assert res2.exit_code == 0
    g = matrix_from_obj(json.loads(res2.output))
    assert abs(g[0, 0] - 1.0) < 1e-9 and abs(g[1, 1] - 0.5) < 1e-9

    res3 = runner.invoke(main, ["inverse", "mp", "--in", files["A"]])
    assert res3.exit_code == 0


def test_downset_classify(runner, files):
    res = runner.invoke(main, ["downset", "classify", "--spec", files["spec"]])
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["is_boolean"] is True and obj["boolean_center_size"] == 4


def test_downset_boolean_chain_sample(runner, files):
    res = runner.invoke(main, ["downset", "boolean", "--b", files["B"],
                               "--spec", files["spec"]])
    assert res.exit_code == 0
    mats = [matrix_from_obj(o) for o in json.loads(res.output)]
    assert len(mats) == 4
    diags = sorted(tuple(round(m[i, i].real) for i in range(3)) for m in mats)
    assert diags == [(0, 0, 0), (0, 2, 0), (1, 0, 0), (1, 2, 0)]

    res2 = runner.invoke(main, ["downset", "chain", "--b", files["B"],
                                "--spec", files["spec"]])
    assert res2.exit_code == 0
    assert len(json.loads(res2.output)) == 3

    res3 = runner.invoke(main, ["downset", "sample", "--spec", files["spec"],
                                "--seed", "3", "--count", "2"])
    assert res3.exit_code == 0
    assert len(json.loads(res3.output)) == 2


def test_witness_nonlattice(runner, files):
    res = runner.invoke(main, ["witness", "nonlattice", "--spec",
                               files["wspec"]])
    assert res.exit_code == 0
    rel = json.loads(res.output)["relations"]
    assert all(rel.values())
    # ineligible spec: exit 3
    res2 = runner.invoke(main, ["witness", "nonlattice", "--spec",
                               files["spec"]])
    assert res2.exit_code == 3
    assert json.loads(res2.stderr) == {"error": "no_eligible_eigenvalue"}


def test_meet2(runner, files):
    res = runner.invoke(main, ["meet2", "--b1", files["b1"],
                               "--b2", files["b2"]])
    assert res.exit_code == 0
    m = matrix_from_obj(json.loads(res.output))
    assert m == Matrix.diag([1, 0], EXACT)


def test_equations(runner, files):
    res = runner.invoke(main, ["equations", "count", "--b", files["B"],
                               "--spec", files["spec"]])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"count": 8}

    res2 = runner.invoke(main, ["equations", "solve", "--b", files["B"],
                                "--spec", files["spec"]])
    assert res2.exit_code == 0
    out = json.loads(res2.output)
    assert out["count"] == 8 and len(out["solutions"]) == 8


def test_hasse(runner, files, tmp_path):
    out = str(tmp_path / "g.dot")
    res = runner.invoke(main, ["hasse", "--spec", files["spec"],
                               "--out", out])
    assert res.exit_code == 0
    dot = open(out).read()
    assert dot.startswith("digraph downset {")


def test_byte_identical_repeat(runner, files):
    args = ["downset", "sample", "--spec", files["spec"], "--seed", "9",
            "--count", "3"]
    a = runner.invoke(main, args).output
    b = runner.invoke(main, args).output
    assert a == b
