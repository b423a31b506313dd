"""float-downset: float queries on B at n = 4..16.

Nonsingular B with nontrivial Jordan blocks and singular, non-EP B with a
diagonalizable core, built from a seeded unitary P the way the test suite's
``float_context`` builds them (plus a coupling block, so that a singular B is
not EP and its group and Moore-Penrose inverses differ); that building is
part of the set-up.  One operation is one query on one B: ``hs_decompose``,
``group_inverse``, a sampled predecessor (``sample_delta_projector`` ->
``psi`` -> ``phi_inv``, then ``sharp_leq`` and the ``phi`` round trip), or
``max_chain``.  The time goes
to the pure-Python Jacobi SVD and repeated decompositions.
"""

import random

import numpy as np

import sharporder as so
from sharporder import FLOAT, Matrix, Tolerance

from common import Op, Workload, below, close_to, group_axioms, hs_holds

TOL7 = Tolerance(rel=1e-7)
AXIOM_TOL = 1e-8
ORDER_TOL = 1e-7

# (Jordan block sizes per eigenvalue, extra zero dimensions); a singular B
# needs a diagonalizable core
SHAPES = [
    (([2, 1], [1]), 0),
    (([1, 1], [1]), 1),
    (([2, 2], [2]), 0),
    (([1, 1, 1], [1, 1], [1]), 2),
    (([3, 2, 1], [2, 2]), 0),
    (([1] * 4, [1] * 3, [1, 1]), 3),
    (([3, 3, 2], [2, 2, 1], [1]), 0),
    (([4, 3, 2], [3, 2], [2]), 0),
    (([1] * 5, [1] * 4, [1] * 3), 4),
]
EIGENVALUES = [2.0, -1.0, 3.0, 1.5, -2.5, 1j, 0.5 + 1j, -1.0 - 1.0j, 4.0]


def _rand_unitary(n, np_rng):
    g = np_rng.standard_normal((n, n)) + 1j * np_rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r).copy()
    d[np.abs(d) < 1e-12] = 1.0
    return q @ np.diag(d / np.abs(d))


def _eig_similarity(sk, lam_order):
    """Eigenvector similarity of a diagonalizable core block, columns in
    the spec's eigenvalue order."""
    vals, vecs = np.linalg.eig(sk.array)
    cols, used = [], set()
    for lam in lam_order:
        best = min((i for i in range(len(vals)) if i not in used),
                   key=lambda i: abs(vals[i] - lam))
        used.add(best)
        cols.append(vecs[:, best])
    return Matrix.floating(np.column_stack(cols))


def float_context(pairs, extra_zeros, seed, coupling=0.0):
    """(B, hs, spec with a validated similarity P) for B = P [[J, J X], [O, O]] P*
    with unitary P.  X is a seeded Gaussian matrix times ``coupling``; with
    coupling 0 this is the test suite's EP matrix P diag(J, O) P*, otherwise a
    singular B is not EP."""
    spec0 = so.make_spec(pairs, mode=FLOAT)
    r = spec0.r
    n = r + extra_zeros
    np_rng = np.random.default_rng(seed)
    p = _rand_unitary(n, np_rng)
    j = so.build_jordan_matrix(spec0).array
    inner = np.zeros((n, n), dtype=complex)
    inner[:r, :r] = j
    inner[:r, r:] = coupling * j @ np_rng.standard_normal((r, n - r))
    b = Matrix.floating(p @ inner @ p.conj().T)
    hs = so.hs_decompose(b, TOL7)
    sk = hs.sigma_k()
    if extra_zeros == 0:
        pp = hs.U.H @ Matrix.floating(p)
    else:
        pp = _eig_similarity(sk, [lam for lam, sizes in pairs for _ in sizes])
    spec = so.make_spec(pairs, P=pp, mode=FLOAT)
    if not so.validate_similarity(pp, spec, sk, TOL7):
        raise RuntimeError("float context failed its similarity check")
    return b, hs, spec


class FloatDownset(Workload):
    trace_round_count = 2

    def __init__(self, seed):
        self.seed = seed
        rnd = random.Random(seed)
        self.contexts = []
        for ci, (shape, extra) in enumerate(SHAPES):
            pairs = list(zip(rnd.sample(EIGENVALUES, len(shape)), shape))
            b, hs, spec = float_context(pairs, extra, seed * 101 + ci, coupling=1.0)
            self.contexts.append((b, hs, spec, len(spec.block_sizes)))

    def _ops(self, ctx, rnd):
        b, hs, spec, blocks = ctx
        ba = b.array
        sample_seed = rnd.randrange(1 << 30)

        def check_hs(d):
            return d.r == spec.r and hs_holds(ba, d.U.array, d.sigma, d.K.array,
                                              d.L.array, d.r, AXIOM_TOL)

        def predecessor():
            cp = so.sample_delta_projector(spec, sample_seed, tol=TOL7)
            t = so.psi(cp.expand(), spec.P)
            a = so.phi_inv(t, hs, TOL7)
            return a, so.sharp_leq(a, b, TOL7), t, so.phi(a, hs, TOL7)

        def check_chain(chain):
            arrs = [m.array for m in chain]
            return (len(arrs) == blocks + 1 and not np.any(arrs[0])
                    and close_to(arrs[-1], ba, ORDER_TOL)
                    and all(below(x, y, ORDER_TOL) for x, y in zip(arrs, arrs[1:])))

        return [
            Op("hs_decompose", lambda: so.hs_decompose(b, TOL7), check_hs),
            Op("group_inverse", lambda: so.group_inverse(b, TOL7),
               lambda g: group_axioms(ba, g.array, AXIOM_TOL)),
            Op("predecessor", predecessor,
               lambda out: (out[1] and below(out[0].array, ba, ORDER_TOL)
                            and close_to(out[3].array, out[2].array, ORDER_TOL))),
            Op("max_chain", lambda: so.max_chain(hs, spec, TOL7), check_chain),
        ]

    def round(self, r):
        rnd = random.Random(self.seed * 1_000_003 + r)
        return [op for ctx in self.contexts for op in self._ops(ctx, rnd)]

    def warmup(self):
        return self._ops(self.contexts[0], random.Random(-1))
