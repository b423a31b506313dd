"""cli: one ``python -m sharporder.cli`` process per operation.

A round runs every one of the 13 subcommands once on input files written at
set-up, plus a malformed input (exit 2) and an index-2 matrix (exit 3).
Exact-mode commands cycle through a few fixed inputs, one per round, and their
stdout, stderr and exit code are compared byte for byte with
``cli_reference.json``; float outputs are decoded and checked by their
defining identities.  This is the only workload that pays interpreter start,
imports, JSON parsing and serialization.
"""

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import sharporder as so
from sharporder import Matrix
from sharporder.commutant import block_choice_projector

from common import (Op, Workload, array_from_obj, below, close_to, group_axioms,
                    hs_holds, penrose_axioms)
from wl_float import ORDER_TOL, TOL7, float_context

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "cli_reference.json"
AXIOM_TOL = 1e-8
CHILD_TIMEOUT_S = 120

# exact inputs: file name -> matrix rows, or ("spec", (eigenvalue, sizes) pairs)
EXACT_FILES = {
    "m2a1.json": [[1, 0], [0, 2]], "m2a2.json": [[1, 0], [0, 3]],
    "m2b1.json": [[1, 1], [0, 2]], "m2b2.json": [[1, 0], [0, 2]],
    "m2c1.json": [[2, 1], [1, 2]], "m2c2.json": [[1, -1], [-1, 1]],
    "mpa.json": [[1, 2, 0, (1, 1)], [0, 1, 1, 0], [1, 3, 1, (1, 1)]],
    "mpb.json": [[(0, 1), 1, 2], [2, 0, (1, -1)], [(2, 1), 1, (3, -1)], [0, 0, 0]],
    "mpc.json": [[2, 0], [0, 0], [1, (0, 1)]],
    "ga.json": [[1, 1, 0], [0, 0, 0], [0, 0, 2]],
    "gb.json": [[1, 1], [1, 1]],
    "gc.json": [[2, 1, 0, 0], [0, 0, 0, 0], [0, 0, (0, 1), 1], [0, 0, 0, 3]],
    "oa1.json": [[1, 0], [0, 0]], "ob1.json": [[1, 0], [0, 2]],
    "oa2.json": [[0, 1, 0], [0, 1, 0], [0, 0, 0]],
    "ob2.json": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "oa3.json": [[1, 0], [0, 2]], "ob3.json": [[1, 0], [0, 0]],
    "nil.json": [[0, 1], [0, 0]],
    "s1.json": ("spec", [(2, [2, 1]), (3, [1])]),
    "s2.json": ("spec", [(1, [1, 1, 1])]),
    "s3.json": ("spec", [((1, 1), [1]), (-1, [2, 2])]),
    "s4.json": ("spec", [(2, [2, 1, 1])]),
    "s5.json": ("spec", [(1, [3, 2, 1]), (2, [1])]),
    "s6.json": ("spec", [(2, [1, 1]), (3, [1])]),
    "s7.json": ("spec", [(1, [2, 1])]),
}

# command family -> variants of (case key, argv, expected exit code)
EXACT_CASES = {
    "refute": [("refute", ["refute", "conjecture"], 0)],
    "meet2": [(f"meet2-{v}", ["meet2", "--b1", f"m2{v}1.json", "--b2", f"m2{v}2.json"], 0)
              for v in "abc"],
    "inverse-mp": [(f"inverse-mp-{v}", ["inverse", "mp", "--in", f"mp{v}.json"], 0)
                   for v in "abc"],
    "inverse-group": [(f"inverse-group-{v}", ["inverse", "group", "--in", f"g{v}.json"], 0)
                      for v in "abc"],
    "check-order": [(f"check-order-{v}", ["check", "order", "--a", f"oa{v}.json",
                                          "--b", f"ob{v}.json"], 1 if v == 3 else 0)
                    for v in (1, 2, 3)],
    "classify": [(f"classify-{v}", ["downset", "classify", "--spec", f"s{v}.json"], 0)
                 for v in (1, 2, 3)],
    "sample": [(f"sample-{v}", ["downset", "sample", "--spec", "s1.json",
                                "--seed", str(v), "--count", "2"], 0)
               for v in (1, 2, 3)],
    "witness": [(f"witness-{v}", ["witness", "nonlattice", "--spec", f"s{v}.json"], 0)
                for v in (2, 4, 5)],
    "hasse": [(f"hasse-{v}", ["hasse", "--spec", f"s{v}.json", "--out", "g.dot",
                              "--seed", str(v)], 0)
              for v in (1, 6, 7)],
    "malformed": [("malformed", ["inverse", "mp", "--in", "bad.json"], 2)],
    "index-2": [("index-2", ["inverse", "group", "--in", "nil.json"], 3)],
}

B8_PAIRS = ([3], [2], [2], [1])
BS_PAIRS = ([1], [1], [1], [1])
EIGENVALUES = [2.0, -1.0, 3.0, 1.5, -2.5, 1j, 0.5 + 1j, -1.0 - 1.0j]


def write_exact_inputs(work):
    for name, data in EXACT_FILES.items():
        if isinstance(data, tuple):
            obj = so.spec_to_obj(so.make_spec(data[1]))
        else:
            obj = so.matrix_to_obj(Matrix.exact(data))
        (work / name).write_text(json.dumps(obj))
    (work / "bad.json").write_text(json.dumps({"nope": True}))


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv, cwd, env):
    """Run one CLI process; returns (exit code, stdout, stderr, peak RSS in
    KiB) and reaps the child itself to read its own resource usage."""
    p = subprocess.Popen([sys.executable, "-m", "sharporder.cli", *argv], cwd=cwd,
                         env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    watchdog.start()
    try:
        out = p.stdout.read()
        err = p.stderr.read()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        p.stdout.close()
        p.stderr.close()
    return p.returncode, out.decode(), err.decode(), usage.ru_maxrss


class Cli(Workload):
    trace_round_count = 1
    child_processes = True

    def __init__(self, seed, root):
        self.seed = seed
        self.env = child_env(root)
        self.work = HERE / "out" / f"cli-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.reference = json.loads(REFERENCE.read_text())
        self.child_rss_kib = 0
        write_exact_inputs(self.work)
        self._write_float_inputs(seed)

    def _write_float_inputs(self, seed):
        rnd = random.Random(seed)
        np_rng = np.random.default_rng(seed)

        def write(name, obj):
            (self.work / name).write_text(json.dumps(obj))

        lams = rnd.sample(EIGENVALUES, 4)
        b8, hs8, spec8 = float_context(list(zip(lams, B8_PAIRS)), 0, seed * 7 + 1)
        bs, _, specs = float_context(list(zip(lams, BS_PAIRS)), 1, seed * 7 + 2)
        bits = [rnd.randint(0, 1) for _ in spec8.block_sizes]
        e = block_choice_projector(spec8, bits)
        a8 = so.phi_inv(so.psi(e, spec8.P), hs8, TOL7)
        rect = np_rng.standard_normal((6, 9)) + 1j * np_rng.standard_normal((6, 9))
        write("b8.json", so.matrix_to_obj(b8))
        write("spec8.json", so.spec_to_obj(spec8))
        write("a8.json", so.matrix_to_obj(a8))
        write("bs.json", so.matrix_to_obj(bs))
        write("specs.json", so.spec_to_obj(specs))
        write("rect.json", so.matrix_to_obj(Matrix.floating(rect)))
        self.b8, self.bs, self.rect = b8.array, bs.array, rect

    # ------------------------------------------------------------------
    # checks

    def _exact_check(self, key):
        ref = self.reference[key]

        def check(res):
            code, out, err = res
            ok = [code, out, err] == [ref["exit"], ref["stdout"], ref["stderr"]]
            if ref.get("dot") is not None:
                dot = self.work / "g.dot"
                ok = ok and dot.is_file() and dot.read_text() == ref["dot"]
                dot.unlink(missing_ok=True)
            return ok
        return check

    def _float_cases(self):
        b8, bs, rect = self.b8, self.bs, self.rect

        def ok(check):
            return lambda res: res[0] == 0 and res[2] == "" and check(json.loads(res[1]))

        def hs(obj):
            return obj["r"] == b8.shape[0] and hs_holds(
                b8, array_from_obj(obj["U"]), obj["sigma"], array_from_obj(obj["K"]),
                array_from_obj(obj["L"]), obj["r"], AXIOM_TOL)

        def boolean(mats):
            return (len(mats) == 2 ** len(B8_PAIRS)
                    and all(below(array_from_obj(m), b8, ORDER_TOL) for m in mats))

        def chain(mats):
            arrs = [array_from_obj(m) for m in mats]
            return (len(arrs) == len(B8_PAIRS) + 1 and not np.any(arrs[0])
                    and close_to(arrs[-1], b8, ORDER_TOL)
                    and all(below(x, y, ORDER_TOL) for x, y in zip(arrs, arrs[1:])))

        def solve(obj):
            sols = [array_from_obj(m) for m in obj["solutions"]]
            return (obj["count"] == len(sols) == 2 ** (len(BS_PAIRS) + 1)
                    and all(close_to(x @ x, x, ORDER_TOL) and close_to(x @ bs, bs @ x, ORDER_TOL)
                            for x in sols))

        return [
            ("decompose-hs", ["decompose", "hs", "--in", "b8.json"], ok(hs)),
            ("inverse-group-float", ["inverse", "group", "--in", "b8.json"],
             ok(lambda g: group_axioms(b8, array_from_obj(g), AXIOM_TOL))),
            ("inverse-mp-float", ["inverse", "mp", "--in", "rect.json"],
             ok(lambda x: penrose_axioms(rect, array_from_obj(x), AXIOM_TOL))),
            ("check-order-float", ["check", "order", "--a", "a8.json", "--b", "b8.json"],
             ok(lambda obj: obj == {"leq": True})),
            ("downset-boolean", ["downset", "boolean", "--b", "b8.json", "--spec", "spec8.json"],
             ok(boolean)),
            ("downset-chain", ["downset", "chain", "--b", "b8.json", "--spec", "spec8.json"],
             ok(chain)),
            ("equations-count", ["equations", "count", "--b", "b8.json", "--spec", "spec8.json"],
             ok(lambda obj: obj == {"count": 2 ** len(B8_PAIRS)})),
            ("equations-solve", ["equations", "solve", "--b", "bs.json", "--spec", "specs.json"],
             ok(solve)),
        ]

    # ------------------------------------------------------------------
    # operations

    def _subprocess(self, argv):
        def run():
            code, out, err, rss = run_child(argv, self.work, self.env)
            self.child_rss_kib = max(self.child_rss_kib, rss)
            return code, out, err
        return run

    def _in_process(self, argv):
        from click.testing import CliRunner

        from sharporder.cli import main

        def run():
            cwd = os.getcwd()
            os.chdir(self.work)
            try:
                res = CliRunner().invoke(main, argv)
            finally:
                os.chdir(cwd)
            return res.exit_code, res.stdout, res.stderr
        return run

    def _cases(self, r):
        # each family cycles through its variants from a seeded start, so
        # that every six rounds hold each variant equally often, whatever
        # the seed: the variants differ in cost by up to a third
        rnd = random.Random(self.seed)
        cases = [(key, argv, self._exact_check(key)) for key, argv, _ in
                 (v[(rnd.randrange(len(v)) + r) % len(v)] for v in EXACT_CASES.values())]
        return cases + self._float_cases()

    def round(self, r, in_process=False):
        make = self._in_process if in_process else self._subprocess
        return [Op(key, make(argv), check) for key, argv, check in self._cases(r)]

    def warmup(self):
        return [Op("refute", self._subprocess(["refute", "conjecture"]),
                   self._exact_check("refute"))]

    def trace_rounds(self):
        return [self.round(r, in_process=True) for r in range(self.trace_round_count)]

    def trace_extra(self, runner, traced_latencies):
        """cli.startup_s: median over the traced round's commands of the
        process wall time minus the same command's in-process time under the
        tracer; cli.import_s: median time to import sharporder.cli."""
        wall = runner.run(self.round(0))
        startup = statistics.median(w - t for w, t in zip(wall, traced_latencies))
        code = ("import time; t = time.perf_counter(); import sharporder.cli; "
                "print(time.perf_counter() - t)")
        imports = []
        for _ in range(3):
            res = subprocess.run([sys.executable, "-c", code], cwd=self.work, env=self.env,
                                 capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                                 check=True)
            imports.append(float(res.stdout))
        return {"cli.startup_s": startup, "cli.import_s": statistics.median(imports)}

    def peak_rss_mb(self):
        return self.child_rss_kib / 1024.0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
