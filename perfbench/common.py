"""Pieces shared by the workloads: the operation record, the workload base
class, and the output checks that do not go through the library."""

import resource
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Op:
    """One closed-loop operation: ``run`` is the timed library work and
    ``check`` decides, outside the timing, whether its output is correct."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


class Workload:
    """A workload's inputs, built by the subclass constructor (that is the
    set-up); operations are grouped into rounds with a fixed mix."""

    # rounds run under the tracer, and again without it, by ``--trace 1``;
    # a fixed number so that call counts repeat exactly for a seed
    trace_round_count = 1
    # True when each operation is a child process; see run.py, timed_run
    child_processes = False

    def round(self, r):
        raise NotImplementedError

    def trace_rounds(self):
        return [self.round(r) for r in range(self.trace_round_count)]

    def trace_extra(self, runner, traced_latencies):
        """Per-layer metrics a workload measures outside the span tracer."""
        return {}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


def close_to(x, y, tol):
    """Relative Frobenius closeness of two complex arrays."""
    x = np.asarray(x)
    y = np.asarray(y)
    scale = max(1.0, float(np.linalg.norm(x)), float(np.linalg.norm(y)))
    return float(np.linalg.norm(x - y)) <= tol * scale


def below(a, b, tol):
    """The sharp order A^2 = AB = BA on complex arrays, at a tolerance."""
    a2 = a @ a
    return close_to(a2, a @ b, tol) and close_to(a2, b @ a, tol)


def group_axioms(a, g, tol):
    return (close_to(a @ g @ a, a, tol) and close_to(g @ a @ g, g, tol)
            and close_to(a @ g, g @ a, tol))


def penrose_axioms(a, x, tol):
    ax = a @ x
    xa = x @ a
    return (close_to(ax @ a, a, tol) and close_to(xa @ x, x, tol)
            and close_to(ax.conj().T, ax, tol) and close_to(xa.conj().T, xa, tol))


def hs_holds(b, u, sigma, k, l, r, tol):
    """U unitary, KK* + LL* = I_r and B = U [[SK, SL], [O, O]] U*."""
    n = b.shape[0]
    s = np.diag(sigma)
    inner = np.zeros((n, n), dtype=complex)
    inner[:r, :r] = s @ k
    inner[:r, r:] = s @ l
    return (close_to(u.conj().T @ u, np.eye(n), tol)
            and close_to(k @ k.conj().T + l @ l.conj().T, np.eye(r), tol)
            and close_to(u @ inner @ u.conj().T, b, tol))


def array_from_obj(obj):
    """A float matrix from its wire-format object, without the library."""
    flat = [complex(re, im) for re, im in obj["entries"]]
    return np.array(flat, dtype=complex).reshape(obj["rows"], obj["cols"])
