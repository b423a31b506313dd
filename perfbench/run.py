"""sharporder benchmark: closed-loop workloads, one client, one process.

    python3 perfbench/run.py --workload oracle-2x2 --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it measures the end-to-end metrics for ``--seconds``, on
one CPU, with times scaled to a reference host speed (``HostSpeed``); with
``--trace 1`` it runs a fixed list of operations under the span tracer and
again without it, and reports per-layer call counts and self times.  Every
operation's output is checked.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload both ways.  See README.md.
"""

import argparse
import gc
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# one BLAS thread, in this process and in every child it starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# the CPUs this process may use before ``pin_one_cpu``
CPUS = sorted(os.sched_getaffinity(0))
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ["oracle-2x2", "exact-projectors", "float-downset", "cli"]
SETUP_PROBES = 7
# reference loop timings between two set-up probes, spaced apart
SETUP_CAL_SAMPLES = 8
SETUP_CAL_GAP_S = 0.02
# the reference loop's time at reference speed; see HostSpeed
REF_S = 1.0e-3
REF_LOOP_N = 280
REF_REPEATS = 3
CAL_INTERVAL_S = 0.1
# the highest percentile reported, p90, needs ten samples beyond it
MIN_SAMPLES = 100
TRACE_PASSES = 2
PROBE_TIMEOUT_S = 120
MAX_REPORTED_FAILURES = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def make_workload(name, seed):
    if name == "oracle-2x2":
        from wl_oracle import Oracle2x2
        return Oracle2x2(seed)
    if name == "exact-projectors":
        from wl_projectors import ExactProjectors
        return ExactProjectors(seed)
    if name == "float-downset":
        from wl_float import FloatDownset
        return FloatDownset(seed)
    from wl_cli import Cli
    return Cli(seed, ROOT)


class HostSpeed:
    """The host's speed, from a fixed reference loop that runs no sharporder
    code: exact fractions, a dict and small numpy products, the kinds of work
    the library does.

    On a shared host the same code runs up to twice as slow from one tenth
    of a second to the next, in CPU time as much as in wall time, and each
    CPU changes speed on its own; a timed run is therefore pinned to one CPU
    (``pin_one_cpu``).  The loop is timed between operations, at least every
    ``CAL_INTERVAL_S``, and each latency is scaled by ``REF_S`` over the loop
    time around it (``scale``): a scaled latency is the time the operation
    takes when the loop takes ``REF_S``.  The loop runs with the cyclic GC
    off, so that its time does not depend on the size of the library's heap.
    """

    _vec = None

    def __init__(self):
        self.cal = []
        self.segment = []
        self.last = float("-inf")

    @classmethod
    def measure(cls):
        """The median of ``REF_REPEATS`` timings of the reference loop."""
        import numpy as np

        if cls._vec is None:
            cls._vec = np.arange(8, dtype=complex)
        vec = cls._vec
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(REF_REPEATS):
                t0 = perf_counter()
                x, d, acc = Fraction(0), {}, 0j
                for i in range(1, REF_LOOP_N):
                    x += Fraction(i % 7 - 3, i % 11 + 1)
                    d[i % 97] = d.get(i % 97, 0) + i
                    acc += complex(np.vdot(vec, vec)) * 0.5
                times.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return statistics.median(times)

    def before_op(self):
        if perf_counter() - self.last >= CAL_INTERVAL_S:
            self.cal.append(self.measure())
            self.last = perf_counter()
        self.segment.append(len(self.cal) - 1)

    def scale(self, latencies, child_processes=False):
        """Latencies in reference-speed seconds; ends the current segment.

        An in-process operation is scaled by the mean of the loop times just
        before and just after it.  A child process of a few hundred ms
        outlasts the host's spells of one speed, and the loop times next to
        it catch only its ends, while the run's mean loop time misses the
        spell it ran in; it is scaled by the geometric mean of the two.
        """
        self.cal.append(self.measure())
        self.last = perf_counter()
        cal = self.cal
        run_mean = statistics.mean(cal)
        scaled = []
        for x, i in zip(latencies, self.segment):
            local = (cal[i] + cal[i + 1]) / 2
            scaled.append(x * REF_S / (math.sqrt(run_mean * local) if child_processes else local))
        return scaled


class Runner:
    """Runs operations one after another, timing ``run`` and checking its
    output; a raised error or a failed check counts as a failed operation
    and the run goes on.  With a ``HostSpeed``, the reference loop is timed
    between operations."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.speed = None
        self.attempted = 0
        self.failed = 0

    def run(self, ops):
        latencies = []
        tracer = self.tracer
        speed = self.speed
        for op in ops:
            if tracer is not None:
                tracer.current_op = self.attempted
                tracer.enabled = True
            if speed is not None:
                speed.before_op()
            t0 = perf_counter()
            try:
                out = op.run()
                error = None
            except Exception:  # noqa: BLE001 - an operation error is a result
                error = traceback.format_exc()
            latencies.append(perf_counter() - t0)
            if tracer is not None:
                tracer.enabled = False
            self.attempted += 1
            if error is None:
                try:
                    if op.check(out):
                        continue
                    error = "output check failed"
                except Exception:  # noqa: BLE001 - a crashing check is a failed check
                    error = traceback.format_exc()
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"FAILED op {self.attempted - 1} ({op.kind}): {error}", file=sys.stderr)
        return latencies


# ----------------------------------------------------------------------
# measurement


def pin_one_cpu():
    """Run this process, and every child it starts, on one CPU, so that the
    reference loop and the operations it scales run on the same CPU."""
    os.sched_setaffinity(0, {CPUS[0]})


def probe_setup(args):
    """Seconds from starting a fresh benchmark process to the end of its
    set-up and warm-up, i.e. to where the first timed operation would start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = p.stdout.readline()
        elapsed = perf_counter() - t0
        p.stdout.read()
        p.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
        p.stdout.close()
    if line.strip() != "ready" or p.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {p.returncode})")
    return elapsed


def latency_metrics(latencies):
    ms = sorted(x * 1e3 for x in latencies)
    return {
        "ops_per_s": len(ms) / sum(latencies),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[8],
    }


def measure_setup(args):
    """The median of ``SETUP_PROBES`` set-up probes, at reference speed and
    in wall time.  A probe is a child process, so all are scaled by the mean
    of the loop times taken before, between and after them; the loop is
    timed several times per gap, spaced apart, so that the mean catches the
    host's share of slow spells rather than the speed of a few instants."""
    def calibrate():
        for _ in range(SETUP_CAL_SAMPLES):
            cal.append(HostSpeed.measure())
            time.sleep(SETUP_CAL_GAP_S)

    cal, wall = [], []
    calibrate()
    for _ in range(SETUP_PROBES):
        wall.append(probe_setup(args))
        calibrate()
    scale = REF_S / statistics.mean(cal)
    return statistics.median(wall) * scale, [x * scale for x in wall], statistics.median(wall)


def timed_run(args, wl, runner):
    """Whole rounds, each with fresh inputs, until ``--seconds`` have passed
    and at least ``MIN_SAMPLES`` operations have run.

    A latency times ``op.run`` only: inputs are built and outputs checked
    outside it, and ``ops_per_s`` is the operations over their summed
    latencies.  Whole rounds keep the mix of operations the same in every run.

    Latencies are reported at reference speed (``HostSpeed.scale``); the
    wall-clock figures go to ``meta``.
    """
    runner.run(wl.warmup())
    speed = runner.speed = HostSpeed()
    latencies = []
    rounds = 0
    t0 = perf_counter()
    while perf_counter() - t0 < args.seconds or len(latencies) < MIN_SAMPLES:
        latencies += runner.run(wl.round(rounds))
        rounds += 1
    runner.speed = None
    metrics = latency_metrics(speed.scale(latencies, wl.child_processes))
    metrics["peak_rss_mb"] = wl.peak_rss_mb()
    cal_ms = sorted(c * 1e3 for c in speed.cal)
    return metrics, {
        "latency_samples": len(latencies), "rounds": rounds, "elapsed_s": perf_counter() - t0,
        "wall_clock": latency_metrics(latencies),
        "reference_loop_ms": {"samples": len(cal_ms), "min": cal_ms[0],
                              "mean": statistics.mean(cal_ms), "max": cal_ms[-1]},
    }


def traced_run(args, runner):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    wl = make_workload(args.workload, args.seed)
    tracer.enabled = False
    try:
        runner.tracer = tracer
        runner.run(wl.warmup())
        # traced and untraced passes alternate, and each side keeps its
        # fastest pass, so that the overhead is not a change of host speed
        traced_s, plain_s = [], []
        for _ in range(TRACE_PASSES):
            t0 = perf_counter()
            traced = [x for ops in wl.trace_rounds() for x in runner.run(ops)]
            traced_s.append(perf_counter() - t0)
            tracer.uninstall()
            runner.tracer = None
            t0 = perf_counter()
            plain = [x for ops in wl.trace_rounds() for x in runner.run(ops)]
            plain_s.append(perf_counter() - t0)
            tracer.install()
            runner.tracer = tracer
        tracer.uninstall()
        runner.tracer = None
        layers = tracer.summary()
        layers.update({"cli.startup_s": 0.0, "cli.import_s": 0.0})
        layers.update(wl.trace_extra(runner, traced))
    finally:
        tracer.uninstall()
        wl.close()
    untraced_ops = len(plain) / min(plain_s)
    traced_ops = len(traced) / min(traced_s)
    layers["trace.untraced_ops_per_s"] = untraced_ops
    layers["trace.traced_ops_per_s"] = traced_ops
    layers["trace.overhead_pct"] = 100.0 * (untraced_ops - traced_ops) / untraced_ops
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(spans_path)
    return layers, {"spans": len(tracer.name), "spans_file": str(spans_path.relative_to(ROOT)),
                    "traced_ops": len(traced)}


def layer_unit(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".hit_ratio"):
        return "ratio"
    if name.endswith("_ops_per_s"):
        return "1/s"
    if name.endswith("_pct"):
        return "%"
    return "s"


# ----------------------------------------------------------------------
# run description


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def meta(args):
    import numpy

    src = ROOT / "src" / "sharporder"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "platform": platform.platform(),
        "nproc": len(CPUS),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py"))),
    }


def report(args, metrics, units, runner, details):
    print(f"{args.workload}  seed={args.seed}  trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {units[name]}")
    rate = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"  {'error_rate':<48} {rate:>16.6g} ({runner.failed} of {runner.attempted})")
    info = dict(meta(args), **details, error_rate=rate)
    print("meta " + json.dumps(info, sort_keys=True))
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dict(result, meta=info), indent=1, sort_keys=True))
    print(json.dumps(result))


def run_all(args):
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            status |= subprocess.run(cmd).returncode
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and warm up, print 'ready' and exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "sharporder" / "__init__.py").is_file():
        print(f"error: no sharporder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))

    runner = Runner()
    if args.setup_only:
        # failed warm-up checks are reported by the measuring run itself
        wl = make_workload(args.workload, args.seed)
        try:
            runner.run(wl.warmup())
        finally:
            wl.close()
        print("ready", flush=True)
        return 0
    if args.trace:
        layers, details = traced_run(args, runner)
        report(args, layers, {k: layer_unit(k) for k in layers}, runner, details)
        return 0
    pin_one_cpu()
    setup, setup_samples, setup_wall = measure_setup(args)
    wl = make_workload(args.workload, args.seed)
    try:
        metrics, details = timed_run(args, wl, runner)
    finally:
        wl.close()
    metrics["setup_s"] = setup
    metrics = {k: metrics[k] for k in END_TO_END_UNITS}
    details["setup_samples_s"] = setup_samples
    details["wall_clock"]["setup_s"] = setup_wall
    report(args, metrics, END_TO_END_UNITS, runner, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
