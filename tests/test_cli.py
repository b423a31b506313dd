import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import sharporder
from sharporder import EXACT, FLOAT, Matrix, make_spec
from sharporder.cli import _parser, main
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
        "fwspec": write("fwspec.json", spec_to_obj(make_spec([(1.0, [1, 1, 1])], mode=FLOAT))),
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


def test_check_order_mode_mismatch_exit_3(runner, files):
    res = runner.invoke(main, ["check", "order", "--a", files["b1"], "--b", files["A"]])
    assert res.exit_code == 3
    assert json.loads(res.stderr) == {"error": "mode_mismatch"}
    assert res.stdout == ""


def test_inverse_group_index_two_exit_3(runner, files):
    res = runner.invoke(main, ["inverse", "group", "--in", files["nilpotent"]])
    assert res.exit_code == 3
    assert json.loads(res.stderr) == {"error": "index_too_large"}
    assert res.stdout == ""


def test_malformed_input_exit_2(runner, files):
    res = runner.invoke(main, ["inverse", "mp", "--in", files["bad"]])
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": "malformed_input"}
    res2 = runner.invoke(main, ["decompose", "hs", "--in",
                                str(files["tmp"] / "missing.json")])
    assert res2.exit_code == 2


@pytest.mark.parametrize("obj", [
    {"mode": "exact", "rows": 1, "cols": 1, "entries": [[1, 0, 0]]},
    {"mode": "exact", "rows": 1, "cols": 1, "entries": [1]},
    {"mode": "exact", "rows": -1, "cols": 0, "entries": []},
    {"mode": "exact", "rows": 1.5, "cols": 1, "entries": [[1, 0]]},
    {"mode": "exact", "rows": 1, "cols": 1, "entries": [[True, 0]]},
    {"mode": "float", "rows": 1, "cols": 1, "entries": [[True, 0]]},
    {"mode": "float", "rows": 1, "cols": 1, "entries": [["2", 0]]},
    {"mode": "float", "rows": 1, "cols": 1, "entries": [[10 ** 400, 0.5]]},
], ids=["triple", "scalar", "negative-rows", "float-rows", "exact-bool", "float-bool",
        "float-string", "float-huge-int"])
def test_malformed_matrix_json_exit_2(runner, files, obj):
    path = files["tmp"] / "malformed.json"
    path.write_text(json.dumps(obj))
    res = runner.invoke(main, ["inverse", "mp", "--in", str(path)])
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": "malformed_input"}
    assert res.stdout == ""


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                    reason="the interpreter does not limit int digits")
def test_over_long_json_integer_exit_2(runner, files):
    # json raises a plain ValueError past the interpreter's int digit limit
    path = files["tmp"] / "long.json"
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    path.write_text(f'{{"mode": "exact", "rows": 1, "cols": 1, "entries": [[{digits}, 0]]}}')
    res = runner.invoke(main, ["inverse", "group", "--in", str(path)])
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": "malformed_input"}
    assert res.stdout == ""


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


@pytest.mark.parametrize("opt", [["--tol", "inf"], ["--tol", "1e300"], ["--tol", "nan"],
                                 ["--tol", "1.0"], ["--rank-threshold", "inf"],
                                 ["--rank-threshold", "1.0"]])
@pytest.mark.parametrize("args", [["check", "order", "--a", "{A}", "--b", "{B}"],
                                  ["decompose", "hs", "--in", "{B}"]])
def test_tolerance_out_of_range_exit_2(runner, tmp_path, args, opt):
    # with --tol inf, A <= B held for A = [[1, 2], [3, 4]], B = diag(5, 7)
    paths = {}
    for name, m in [("A", [[1.0, 2.0], [3.0, 4.0]]), ("B", [[5.0, 0.0], [0.0, 7.0]])]:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(matrix_to_obj(Matrix.floating(m))))
    res = runner.invoke(main, [a.format(**paths) for a in args] + opt)
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": "malformed_input"}
    assert res.stdout == ""


@pytest.mark.parametrize("args", [["downset", "sample", "--count", "-3"],
                                  ["hasse", "--out", "{out}", "--antichain-samples", "-1"]])
def test_negative_count_exit_2(runner, files, args):
    out = files["tmp"] / "g.dot"
    argv = [a.format(out=out) for a in args] + ["--spec", files["wspec"]]
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": "malformed_input"}
    assert res.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("spec", ["wspec", "fwspec"])
@pytest.mark.parametrize("args", [["downset", "sample", "--seed=-1", "--count=3"],
                                  ["hasse", "--out", "{out}", "--seed=-1"]])
def test_negative_seed_exit_2(runner, files, args, spec):
    # random.Random seeds with |seed|, so seed -1 would repeat seed 1's
    # sample; hasse's sample seeds grow from --seed, and are negative with it
    out = files["tmp"] / "g.dot"
    res = runner.invoke(main, [a.format(out=out) for a in args] + ["--spec", files[spec]])
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": "malformed_input"}
    assert res.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("args", [["downset", "classify"],
                                  ["downset", "sample"],
                                  ["downset", "boolean", "--b", "{B}"],
                                  ["equations", "count", "--b", "{B}"]])
def test_spec_p_mode_mismatch_exit_2(runner, files, args):
    # integer eigenvalues are exact, so a float P does not fit them
    path = files["tmp"] / "mixed_spec.json"
    path.write_text(json.dumps({
        "eigenvalues": [{"lambda": [2, 0], "sizes": [1]}, {"lambda": [1, 0], "sizes": [1]}],
        "P": matrix_to_obj(Matrix.identity(2, FLOAT))}))
    argv = [a.format(**files) for a in args] + ["--spec", str(path)]
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": "malformed_input"}
    assert res.stdout == ""


@pytest.mark.parametrize("eig", [{"lambda": [2, 0], "sizes": [2.5]},
                                 {"lambda": [2, 0], "sizes": "21"},
                                 {"lambda": [2, 0], "sizes": [True]},
                                 {"lambda": [True, 0], "sizes": [1]},
                                 {"lambda": [2.0, False], "sizes": [1]},
                                 {"lambda": [10 ** 400, 0.5], "sizes": [1]}])
def test_malformed_spec_json_exit_2(runner, files, eig):
    # each of these was read as some spec (2.5 as 2, "21" as (2, 1), true as 1),
    # and an integer part too large for a float crashed the parser
    path = files["tmp"] / "bad_spec.json"
    path.write_text(json.dumps({"eigenvalues": [eig]}))
    res = runner.invoke(main, ["downset", "classify", "--spec", str(path)])
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": "malformed_input"}
    assert res.stdout == ""


def test_downset_sample_integer_eigenvalue_is_exact(runner, files):
    path = files["tmp"] / "int_spec.json"
    path.write_text(json.dumps({"eigenvalues": [{"lambda": [2, 0], "sizes": [2, 1]}]}))
    res = runner.invoke(main, ["downset", "sample", "--spec", str(path), "--seed", "4"])
    assert res.exit_code == 0
    (obj,) = json.loads(res.output)
    assert obj["spec"]["eigenvalues"][0]["lambda"] == ["2/1", "0/1"]
    coeffs = [c for row in obj["blocks"][0] for cell in row for c in cell]
    assert coeffs and all(isinstance(part, str) for c in coeffs for part in c)


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


@pytest.mark.parametrize("command", ["count", "solve", "chain", "boolean"])
def test_spec_of_another_size_exit_3(runner, files, tmp_path, command):
    # B = diag(1, 2, 0) has a 2 x 2 core block; a spec of three eigenvalues
    # describes none of it
    spec = tmp_path / "spec3.json"
    spec.write_text(json.dumps(spec_to_obj(make_spec(
        [(1.0, [1]), (2.0, [1]), (3.0, [1])], P=Matrix.identity(3, FLOAT), mode=FLOAT))))
    group = "downset" if command in ("chain", "boolean") else "equations"
    res = runner.invoke(main, [group, command, "--b", files["B"], "--spec", str(spec)])
    assert res.exit_code == 3 and res.stdout == ""
    assert json.loads(res.stderr) == {"error": "precondition_violated"}


def test_spec_without_p_exit_3(runner, files, tmp_path):
    spec = tmp_path / "nop.json"
    spec.write_text(json.dumps(spec_to_obj(make_spec([(2.0, [1]), (1.0, [1])], mode=FLOAT))))
    res = runner.invoke(main, ["downset", "chain", "--b", files["B"], "--spec", str(spec)])
    assert res.exit_code == 3 and res.stdout == ""
    assert json.loads(res.stderr) == {"error": "precondition_violated"}


def test_equations_solve_infinite_family(runner, tmp_path):
    # two Jordan blocks of 2: the solutions are not finitely many.  The
    # core block SK of diag(2, 2, 3) is diag(3, 2, 2), by descending sigma
    b, spec = tmp_path / "b.json", tmp_path / "spec.json"
    b.write_text(json.dumps(matrix_to_obj(Matrix.floating(np.diag([2.0, 2.0, 3.0])))))
    spec.write_text(json.dumps(spec_to_obj(make_spec(
        [(3.0, [1]), (2.0, [1, 1])], P=Matrix.identity(3, FLOAT), mode=FLOAT))))
    res = runner.invoke(main, ["equations", "solve", "--b", str(b), "--spec", str(spec)])
    assert res.exit_code == 0
    assert res.stdout == ('{"finite_count": null, "free_part_shape": [3, 3], '
                          '"kind": "infinite_family"}\n')


def test_overflowing_norm_prints_no_warning(tmp_path):
    # the norm of diag(1e200, 1e200) overflows where the group inverse asks
    # whether B is within the tolerance of O, and the answer is still right;
    # numpy's overflow warning must not reach stderr.  A child process runs
    # under the default warning filters, which pytest's error filter does
    # not reach
    path = tmp_path / "big.json"
    path.write_text(json.dumps(matrix_to_obj(Matrix.floating(np.diag([1e200, 1e200])))))
    src = str(Path(sharporder.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "sharporder.cli", "inverse", "group",
                           "--in", str(path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert matrix_from_obj(json.loads(proc.stdout)) == Matrix.floating(np.diag([1e-200, 1e-200]))


def test_hasse(runner, files, tmp_path):
    out = str(tmp_path / "g.dot")
    res = runner.invoke(main, ["hasse", "--spec", files["spec"],
                               "--out", out])
    assert res.exit_code == 0
    dot = open(out).read()
    assert dot.startswith("digraph downset {")


def test_hasse_unwritable_out_exit_2(runner, files, tmp_path):
    out = tmp_path / "missing" / "g.dot"
    res = runner.invoke(main, ["hasse", "--spec", files["wspec"], "--out", str(out)])
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": "malformed_input"}
    assert res.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, pairs", [
    (["witness", "nonlattice"], [(1, [10 ** 400, 1, 1])]),
    (["downset", "sample"], [(1, [100000])]),
    (["downset", "sample"], [(1, [1000])]),
    (["hasse", "--out", "{tmp}/g.dot"], [(1, [1000])]),
    (["downset", "sample", f"--count={2 ** 63}"], [(2, [2, 1]), (3, [1])]),
    (["downset", "sample", "--count=65537"], [(2, [2, 1]), (3, [1])]),
    (["hasse", "--out", "{tmp}/g.dot"], [(k, [1]) for k in range(1, 21)]),
    # 70,000 samples of 4 x 4 projectors: 1,120,000 entries drawn
    (["hasse", "--out", "{tmp}/g.dot", "--antichain-samples=70000"], [(1, [2, 2])]),
    # 65,536 samples, exactly MAX_ENTRIES entries: allowed, and refused by
    # the node budget at the first sample too many
    (["hasse", "--out", "{tmp}/g.dot", "--antichain-samples=65536"], [(1, [2, 2])]),
], ids=["witness-huge-size", "sample-size-100000", "sample-size-1000", "hasse-size-1000",
        "sample-count-2**63", "sample-count-over-entries", "hasse-s-20",
        "hasse-samples-over-entries", "hasse-samples-over-nodes"])
def test_work_bounds_refuse_at_once(runner, tmp_path, argv, pairs):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_to_obj(make_spec(pairs))))
    start = time.perf_counter()
    res = runner.invoke(main, [a.format(tmp=tmp_path) for a in argv] + ["--spec", str(spec)])
    assert time.perf_counter() - start < 1
    assert (res.exit_code, res.stdout) == (3, "")
    assert json.loads(res.stderr) == {"error": "budget_exceeded"}
    assert not (tmp_path / "g.dot").exists()
    # classify needs the sizes only, and answers for any
    assert runner.invoke(main, ["downset", "classify", "--spec", str(spec)]).exit_code == 0


@pytest.mark.parametrize("command", [["downset", "boolean"], ["equations", "solve"],
                                     ["downset", "chain"]])
def test_written_entries_bound(runner, tmp_path, command):
    # B = diag(1..n), one block per eigenvalue, refused before B is
    # decomposed or P checked: for n = 13, 2^13 matrices of 13 x 13,
    # 1,384,448 entries; the chain of n = 102 has 103 matrices of 102 x 102,
    # 1,071,612 entries
    n = 102 if command[1] == "chain" else 13
    b, spec = tmp_path / "b.json", tmp_path / "spec.json"
    b.write_text(json.dumps(matrix_to_obj(Matrix.floating(np.diag(np.arange(1.0, n + 1))))))
    spec.write_text(json.dumps(spec_to_obj(make_spec(
        [(float(k), [1]) for k in range(1, n + 1)], P=Matrix.identity(n, FLOAT), mode=FLOAT))))
    start = time.perf_counter()
    res = runner.invoke(main, command + ["--b", str(b), "--spec", str(spec)])
    assert time.perf_counter() - start < 1
    assert (res.exit_code, res.stdout) == (3, "")
    assert json.loads(res.stderr) == {"error": "budget_exceeded"}


@pytest.mark.parametrize("argv, pairs", [
    (["downset", "sample", "--seed=17"], [(1.0, [48]), (3.0, [1])]),
    (["downset", "sample", "--seed=17"], [(1, [48]), (3, [1])]),
    (["hasse", "--out", "{tmp}/g.dot", "--seed=2"], [(1.0, [60, 60]), (2.0, [1])]),
    (["hasse", "--out", "{tmp}/g.dot", "--seed=9"], [(1.0, [60, 60]), (2.0, [1])]),
], ids=["float-sample-48", "exact-sample-48", "float-hasse-60-60-seed-2",
        "float-hasse-60-60-seed-9"])
def test_ill_conditioned_float_samples_exit_0(runner, tmp_path, argv, pairs):
    # the first S of these float samples passes the rank cut, yet its T
    # misses is_projector on some LAPACK and BLAS builds: the sampler draws S
    # again rather than exit 3 with not_in_delta.  The exact twin never did
    from sharporder.commutant import projector_from_obj

    mode = FLOAT if isinstance(pairs[0][0], float) else EXACT
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_to_obj(make_spec(pairs, mode=mode))))
    res = runner.invoke(main, [a.format(tmp=tmp_path) for a in argv] + ["--spec", str(spec)])
    assert (res.exit_code, res.stderr) == (0, "")
    if argv[0] == "hasse":
        assert (tmp_path / "g.dot").read_text().startswith("digraph")
    else:
        for obj in json.loads(res.stdout):
            projector_from_obj(obj)


def test_work_bounds_are_inclusive():
    from sharporder.cli import MAX_ENTRIES, MAX_R, _budget
    from sharporder.errors import BudgetExceeded

    _budget(MAX_R, MAX_ENTRIES)
    for r, entries in ((MAX_R + 1, 0), (0, MAX_ENTRIES + 1)):
        with pytest.raises(BudgetExceeded):
            _budget(r, entries)


def test_byte_identical_repeat(runner, files):
    args = ["downset", "sample", "--spec", files["spec"], "--seed", "9",
            "--count", "3"]
    a = runner.invoke(main, args).output
    b = runner.invoke(main, args).output
    assert a == b


# runs the CLI in a fresh interpreter, then prints whether numpy, the float
# backend and click were imported and, as JSON, the sorted sharporder.*
# modules it loaded: the last four lines of stdout
_IMPORT_PROBE = """
import json, runpy, sys
sys.argv[0] = "sharporder.cli"
try:
    runpy.run_module("sharporder.cli", run_name="__main__")
finally:
    print("numpy" in sys.modules)
    print("sharporder.floatmatrix" in sys.modules)
    print("click" in sys.modules)
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("sharporder."))))
"""


def run_fresh(argv, cwd):
    """(exit code, stdout, stderr, whether numpy was loaded, whether the
    float backend was loaded, whether click was loaded, the sharporder
    modules loaded) of the CLI run on argv in a fresh interpreter."""
    src = str(Path(sharporder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    *out, numpy_flag, float_flag, click_flag, modules = proc.stdout.splitlines(keepends=True)
    return (proc.returncode, "".join(out), proc.stderr, numpy_flag == "True\n",
            float_flag == "True\n", click_flag == "True\n", json.loads(modules))


@pytest.mark.parametrize("args, code, numpy_loaded", [
    (["refute", "conjecture"], 0, False),
    (["inverse", "mp", "--in", "{b1}"], 0, False),
    (["downset", "classify", "--spec", "{wspec}"], 0, False),
    # the exact commands that run the commutant code, whose float path
    # keeps numpy index arrays on the spec
    (["downset", "sample", "--spec", "{wspec}", "--seed", "3", "--count", "4"], 0, False),
    (["witness", "nonlattice", "--spec", "{wspec}"], 0, False),
    (["hasse", "--spec", "{wspec}", "--out", "{tmp}/g.dot"], 0, False),
    (["inverse", "mp", "--in", "{bad}"], 2, False),
    (["decompose", "hs", "--in", "{B}"], 0, True),
], ids=["refute", "inverse-mp-exact", "classify", "sample-exact", "witness-exact", "hasse-exact",
        "malformed", "decompose-float"])
def test_numpy_loaded_only_by_float_commands(runner, files, args, code, numpy_loaded):
    argv = [a.format(**files) for a in args]
    got, out, err, loaded, float_loaded, _, _ = run_fresh(argv, files["tmp"])
    assert got == code
    # the float backend imports numpy, and nothing else does on exact input
    assert loaded == float_loaded == numpy_loaded
    if code:
        assert out == "" and json.loads(err) == {"error": "malformed_input"}
    else:
        assert err == ""
        assert json.loads(out) == json.loads(runner.invoke(main, argv).output)


# the modules each command loads besides sharporder.cli: its own, and what
# they import.  sharp imports ginv, lattice imports sharp, hs and equations
# import the float backend (floatmatrix), and a float input loads it
_SHARP = ("core", "errors", "ginv", "scalars", "sharp")
_LATTICE = _SHARP + ("lattice",)
_HS = ("core", "errors", "floatmatrix", "hs", "scalars")
_SETUP = _SHARP + ("floatmatrix", "hs", "jordan")
_EQUATIONS = _SETUP + ("commutant", "equations")
# the commands that decompose B, float only, load the float backend on exact
# input too; every other command loads it for float input only
_FLOAT_ONLY = (["decompose", "hs"], ["downset", "boolean"], ["downset", "chain"],
               ["equations", "count"], ["equations", "solve"])
_FLOAT_FILES = ("{A}", "{B}", "{spec}", "{fwspec}")


@pytest.mark.parametrize("args, code, modules", [
    (["decompose", "hs", "--in", "{b1}"], 3, _HS),
    (["decompose", "hs", "--in", "{B}"], 0, _HS),
    (["inverse", "mp", "--in", "{b1}"], 0, ("core", "errors", "ginv", "scalars")),
    (["inverse", "group", "--in", "{b1}"], 0, ("core", "errors", "ginv", "scalars")),
    (["inverse", "mp", "--in", "{B}"], 0, ("core", "errors", "floatmatrix", "ginv", "scalars")),
    # the float group inverse decomposes B
    (["inverse", "group", "--in", "{B}"], 0, _HS + ("ginv",)),
    (["check", "order", "--a", "{b1}", "--b", "{b1}"], 0, _SHARP),
    (["check", "order", "--a", "{A}", "--b", "{B}"], 0, _SHARP + ("floatmatrix",)),
    (["downset", "classify", "--spec", "{wspec}"], 0, _LATTICE + ("commutant", "jordan")),
    (["downset", "classify", "--spec", "{spec}"], 0,
     _LATTICE + ("commutant", "floatmatrix", "jordan")),
    # the Boolean center and the maximal chain take their block choices
    # from jordan, and load no commutant code
    (["downset", "boolean", "--b", "{b1}", "--spec", "{wspec}"], 3, _SETUP),
    (["downset", "boolean", "--b", "{B}", "--spec", "{spec}"], 0, _SETUP),
    (["downset", "sample", "--spec", "{wspec}", "--seed", "3"], 0,
     ("commutant", "core", "errors", "jordan", "scalars")),
    (["downset", "sample", "--spec", "{spec}", "--seed", "3"], 0,
     ("commutant", "core", "errors", "floatmatrix", "jordan", "scalars")),
    # an exact B fails before the chain's Jordan data is looked at
    (["downset", "chain", "--b", "{b1}", "--spec", "{wspec}"], 3, _SETUP + ("lattice",)),
    (["downset", "chain", "--b", "{B}", "--spec", "{spec}"], 0, _SETUP + ("lattice",)),
    # an exact witness is checked on the Cullen chart's head rows
    (["witness", "nonlattice", "--spec", "{wspec}"], 0, _LATTICE + ("commutant", "jordan")),
    (["witness", "nonlattice", "--spec", "{fwspec}"], 0, _LATTICE + ("floatmatrix", "jordan")),
    (["refute", "conjecture"], 0, _SHARP),
    (["meet2", "--b1", "{b1}", "--b2", "{b2}"], 0, _LATTICE),
    (["meet2", "--b1", "{A}", "--b2", "{B}"], 3, _LATTICE + ("floatmatrix",)),
    (["equations", "count", "--b", "{b1}", "--spec", "{wspec}"], 3, _EQUATIONS),
    (["equations", "count", "--b", "{B}", "--spec", "{spec}"], 0, _EQUATIONS),
    (["equations", "solve", "--b", "{b1}", "--spec", "{wspec}"], 3, _EQUATIONS),
    (["equations", "solve", "--b", "{B}", "--spec", "{spec}"], 0, _EQUATIONS),
    (["hasse", "--spec", "{wspec}", "--out", "{tmp}/g.dot"], 0,
     _LATTICE + ("commutant", "hasse", "jordan")),
    (["hasse", "--spec", "{spec}", "--out", "{tmp}/g.dot"], 0,
     _LATTICE + ("commutant", "floatmatrix", "hasse", "jordan")),
], ids=["hs-exact", "hs-float", "inverse-mp-exact", "inverse-group-exact", "inverse-mp-float",
        "inverse-group-float", "order-exact", "order-float", "classify-exact", "classify-float",
        "boolean-exact", "boolean-float", "sample-exact", "sample-float", "chain-exact",
        "chain-float", "witness-exact", "witness-float", "refute", "meet2-exact", "meet2-float",
        "count-exact", "count-float", "solve-exact", "solve-float", "hasse-exact", "hasse-float"])
def test_each_command_in_a_fresh_interpreter(runner, files, args, code, modules):
    # a CliRunner test passes without a command's own import once another
    # test has imported the module; a fresh interpreter has imported nothing
    argv = [a.format(**files) for a in args]
    got, out, err, numpy_loaded, float_loaded, click_loaded, loaded = run_fresh(
        argv, files["tmp"])
    res = runner.invoke(main, argv)
    assert (got, out, err) == (res.exit_code, res.stdout, res.stderr)
    assert got == code
    assert not click_loaded
    assert loaded == sorted(f"sharporder.{m}" for m in modules)
    # only the equations commands load equations, only hasse loads hasse,
    # no command loads the brute-force oracle, and only the float-only
    # commands load the float backend, and numpy, on exact input
    assert ("sharporder.equations" in loaded) == (argv[0] == "equations")
    assert ("sharporder.hasse" in loaded) == (argv[0] == "hasse")
    assert "sharporder.oracle" not in loaded
    assert "sharporder.commutant" not in loaded or argv[:2] not in (["downset", "boolean"],
                                                                   ["downset", "chain"])
    float_input = any(a in _FLOAT_FILES for a in args)
    assert float_loaded == numpy_loaded == (float_input or argv[:2] in _FLOAT_ONLY)


@pytest.mark.parametrize("args", [
    [],
    ["frobnicate"],
    ["downset"],
    ["inverse", "mp"],
    ["check", "order", "--a", "{A}", "--b", "{B}", "--tol", "abc"],
    # no option is matched by a prefix of its name
    ["decompose", "hs", "--in", "{B}", "--rank", "1e-6"],
], ids=["no-command", "unknown-command", "no-subcommand", "missing-option", "tol-not-a-number",
        "abbreviated-option"])
def test_usage_error_exit_2(runner, files, args):
    # argparse's usage and message on stderr, the same message in a fresh
    # interpreter and in the process (the usage is wrapped to the terminal),
    # and nothing on stdout
    argv = [a.format(**files) for a in args]
    got, out, err, _, _, click_loaded, _ = run_fresh(argv, files["tmp"])
    res = runner.invoke(main, argv)
    assert (got, out) == (res.exit_code, res.stdout) == (2, "")
    assert err.startswith("usage: sharporder") and res.stderr.startswith("usage: sharporder")
    assert err.splitlines()[-1] == res.stderr.splitlines()[-1]
    assert ": error: " in err
    assert not click_loaded


@pytest.mark.parametrize("value", [["-1e-3"], ["-1"], ["=-1e-3"]], ids=["exponent", "integer",
                                                                      "joined"])
@pytest.mark.parametrize("option", ["--tol", "--rank-threshold"])
def test_negative_tolerance_exit_2(runner, files, option, value):
    # argparse reads a separate "-1e-3" as an option, not as the value; the
    # CLI joins it to its option, so every spelling reaches the tolerance
    # check and writes the JSON error
    opt = [option + value[0]] if value[0].startswith("=") else [option, *value]
    argv = ["check", "order", "--a", files["A"], "--b", files["B"], *opt]
    got, out, err, _, _, _, _ = run_fresh(argv, files["tmp"])
    res = runner.invoke(main, argv)
    assert (got, out, err) == (res.exit_code, res.stdout, res.stderr)
    assert (got, out) == (2, "")
    assert json.loads(err) == {"error": "malformed_input"}


def test_parser_builds_the_named_command_only(capsys):
    # a group and one of its commands build that command's parser alone; the
    # group alone (as for its --help) builds all of its commands
    narrow = _parser("sharporder", ["downset", "sample", "--spec", "s.json"])
    assert narrow.parse_args(["downset", "sample", "--spec", "s.json"]).seed == 0
    with pytest.raises(SystemExit):
        narrow.parse_args(["downset", "chain", "--b", "b.json", "--spec", "s.json"])
    err = capsys.readouterr().err
    assert "invalid choice: 'chain'" in err and "sample" in err and "classify" not in err
    group = _parser("sharporder", ["downset", "--help"])
    with pytest.raises(SystemExit):
        group.parse_args(["downset", "nope"])
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err
    assert all(name in err for name in ("classify", "boolean", "sample", "chain"))


def test_help_lists_every_command(runner):
    top = runner.invoke(main, ["--help"])
    assert (top.exit_code, top.stderr) == (0, "")
    for name in ("decompose", "inverse", "check", "downset", "witness", "refute", "meet2",
                 "equations", "hasse"):
        assert f"    {name}" in top.stdout
    for name in ("inverse", "meet2", "hasse"):
        res = runner.invoke(main, [name, "--help"])
        assert res.exit_code == 0 and res.stdout.startswith(f"usage: sharporder {name}")
    for group, names in [("decompose", ["hs"]), ("check", ["order"]),
                         ("downset", ["classify", "boolean", "sample", "chain"]),
                         ("witness", ["nonlattice"]), ("refute", ["conjecture"]),
                         ("equations", ["count", "solve"])]:
        res = runner.invoke(main, [group, "-h"])
        assert (res.exit_code, res.stderr) == (0, "")
        assert all(f"    {name}" in res.stdout for name in names)
        for name in names:
            res = runner.invoke(main, [group, name, "--help"])
            assert res.exit_code == 0
            assert res.stdout.startswith(f"usage: sharporder {group} {name}")


def test_non_ep_b_equations_and_boolean(runner, tmp_path):
    # B = [[1, 1], [0, 0]] has index 1 but is not EP: its commuting
    # idempotents are O, I - B, B and I (B is idempotent, so BB# = B), and
    # its down-set is computed too
    b, spec = tmp_path / "b.json", tmp_path / "spec.json"
    b.write_text(json.dumps(matrix_to_obj(Matrix.floating([[1, 1], [0, 0]]))))
    spec.write_text(json.dumps(spec_to_obj(make_spec([(1.0, [1])], P=Matrix.floating([[1]]),
                                                     mode=FLOAT))))
    args = ["--b", str(b), "--spec", str(spec)]
    res = runner.invoke(main, ["equations", "count", *args])
    assert (res.exit_code, res.stderr) == (0, "")
    assert json.loads(res.stdout) == {"count": 4}
    res = runner.invoke(main, ["equations", "solve", *args])
    assert (res.exit_code, res.stderr) == (0, "")
    out = json.loads(res.stdout)
    got = np.array([matrix_from_obj(m).array for m in out["solutions"]])
    want = np.array([[[0, 0], [0, 0]], [[0, -1], [0, 1]], [[1, 1], [0, 0]], [[1, 0], [0, 1]]])
    assert out["count"] == 4 and np.abs(got - want).max() <= 1e-9
    res = runner.invoke(main, ["downset", "boolean", *args])
    assert (res.exit_code, res.stderr) == (0, "")
    assert len(json.loads(res.stdout)) == 2
