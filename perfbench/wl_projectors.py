"""exact-projectors: few, larger exact matrices (r = 4..8, n = 4..10).

Four kinds of operation, one round holding each kind at every shape:

* two commutant projectors sharing one conjugator (same sampling seed,
  nested block choices), ``proj_leq``, and an interval isomorphism round trip;
* ``non_lattice_witness`` with its four relations;
* ``classify_downset``;
* exact ``moore_penrose`` / ``group_inverse`` of a seeded Gaussian-integer
  matrix, checked by the Penrose and group axioms.

Time goes to elimination (RREF, inverse) and commutant sampling rather than
to per-entry product overhead.
"""

import random

import sharporder as so
from sharporder import Matrix

from common import Op, Workload

# Jordan block sizes per eigenvalue: one, two and three or more blocks
SHAPES = [
    ([1, 1], [1, 1]),
    ([2, 2, 1],),
    ([1] * 6,),
    ([2, 1], [2, 1, 1]),
    ([3, 2], [2, 1]),
    ([3, 3, 2],),
]
EIGENVALUES = [(1, 0), (2, 0), (3, 0), (-1, 0), (-2, 0), (1, 1), (0, 1), (2, -1)]
INVERSE_SIZES = (4, 6, 8, 10)


def _jordan(pairs):
    """The Jordan matrix of (eigenvalue, sizes) pairs, built entry by entry."""
    sizes = [(lam, k) for lam, ks in pairs for k in ks]
    n = sum(k for _, k in sizes)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for lam, k in sizes:
        for i in range(k):
            rows[off + i][off + i] = lam
            if i + 1 < k:
                rows[off + i][off + i + 1] = 1
        off += k
    return Matrix.exact(rows)


def _leq(a, b):
    """Projector order T1 = T1 T2 = T2 T1, decided exactly."""
    return a == a @ b and a == b @ a


def _in_delta(t, j):
    return t @ t == t and t @ j == j @ t


def _expected_class(shape):
    """The down-set descriptor the paper's classification predicts."""
    factors = []
    for sizes in shape:
        t = len(sizes)
        entry = {"t": t, "sizes": list(sizes)}
        if t == 1:
            entry.update(kind="two_chain", rank_classes=[0, sizes[0]])
        elif t == 2:
            q, p = sizes
            ranks = {0, p, q, q + p}
            entry.update(kind="bounded_infinite_antichain", rank_classes=sorted(ranks))
        else:
            entry["kind"] = "non_lattice"
        factors.append(entry)
    boolean = all(len(s) == 1 for s in shape)
    return {
        "s": len(shape),
        "factors": factors,
        "is_lattice": all(len(s) <= 2 for s in shape),
        "is_distributive": boolean,
        "is_boolean": boolean,
        "boolean_center_size": 2 ** len(shape),
        "max_chain_length": sum(len(s) for s in shape) + 1,
    }


def _gaussian(rnd, rows, cols, lo=-2, hi=2):
    return Matrix.exact([[(rnd.randint(lo, hi), rnd.randint(lo, hi)) for _ in range(cols)]
                         for _ in range(rows)])


def _unimodular_pair(n, rnd):
    """(S, S^-1) for a product of 2n integer shears."""
    s = [[int(i == j) for j in range(n)] for i in range(n)]
    s_inv = [row[:] for row in s]
    for _ in range(2 * n):
        i, j = rnd.sample(range(n), 2)
        c = rnd.choice([-1, 1])
        s[i] = [a + c * b for a, b in zip(s[i], s[j])]
        for row in s_inv:
            row[j] -= c * row[i]
    return Matrix.exact(s), Matrix.exact(s_inv)


class ExactProjectors(Workload):
    trace_round_count = 2

    def __init__(self, seed):
        self.seed = seed
        rnd = random.Random(seed)
        self.cases = []
        for shape in SHAPES:
            pairs = list(zip(rnd.sample(EIGENVALUES, len(shape)), shape))
            self.cases.append((shape, so.make_spec(pairs), _jordan(pairs)))

    def _pair_op(self, spec, j, rnd):
        bits2 = [rnd.randint(0, 1) for _ in spec.block_sizes]
        bits1 = [b & rnd.randint(0, 1) for b in bits2]
        bits_mid = [b1 | (b2 & rnd.randint(0, 1)) for b1, b2 in zip(bits1, bits2)]
        seed = rnd.randrange(1 << 30)

        def run():
            # one sampling seed means one conjugator for all three projectors
            t1, t2, tm = (so.sample_delta_projector(spec, seed, block_choices=bits).expand()
                          for bits in (bits1, bits2, bits_mid))
            q = so.interval_iso_forward(tm - t1, t1, t2)
            return t1, t2, tm, so.proj_leq(t1, t2), q, so.interval_iso_backward(q, t1)

        def check(out):
            t1, t2, tm, leq, q, back = out
            return (leq and _leq(t1, t2) and _leq(tm, t2) and _leq(t1, tm)
                    and all(_in_delta(t, j) for t in (t1, t2, tm))
                    and q == tm and back == tm - t1)
        return Op("interval", run, check)

    def _witness_op(self, spec, j):
        def check(quad):
            t1, t2, t3, t4 = quad
            return (all(_in_delta(t, j) for t in quad)
                    and _leq(t1, t3) and _leq(t1, t4) and _leq(t2, t3) and _leq(t2, t4)
                    and not _leq(t1, t2) and not _leq(t2, t1)
                    and not _leq(t3, t4) and not _leq(t4, t3))
        return Op("witness", lambda: so.non_lattice_witness(spec), check)

    def _classify_op(self, shape, spec):
        expected = _expected_class(shape)
        return Op("classify", lambda: so.classify_downset(spec),
                  lambda d: d.to_obj() == expected)

    def _mp_op(self, n, rnd):
        k = n - n // 4
        a = _gaussian(rnd, n, k) @ _gaussian(rnd, k, n)

        def check(x):
            ax, xa = a @ x, x @ a
            return ax @ a == a and xa @ x == x and ax.H == ax and xa.H == xa
        return Op("moore_penrose", lambda: so.moore_penrose(a), check)

    def _group_op(self, n, rnd):
        s, s_inv = _unimodular_pair(n, rnd)
        d = [(rnd.randint(1, 3) * rnd.choice([-1, 1]), rnd.randint(-1, 1))
             if i % 3 else 0 for i in range(n)]
        a = s @ Matrix.diag(d, "exact") @ s_inv

        def check(g):
            return a @ g @ a == a and g @ a @ g == g and a @ g == g @ a
        return Op("group_inverse", lambda: so.group_inverse(a), check)

    def round(self, r):
        rnd = random.Random(self.seed * 1_000_003 + r)
        ops = []
        for shape, spec, j in self.cases:
            ops.append(self._pair_op(spec, j, rnd))
            if max(len(s) for s in shape) >= 3:
                ops.append(self._witness_op(spec, j))
            ops.append(self._classify_op(shape, spec))
        for n in INVERSE_SIZES:
            ops.append(self._mp_op(n, rnd))
            ops.append(self._group_op(n, rnd))
        return ops

    def warmup(self):
        return self.round(-1)[:4]
