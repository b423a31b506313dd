"""oracle-2x2: the exact 2x2 meet against the brute-force oracle.

Set-up enumerates the 246 index-<=1 matrices with entries in {-1, 0, 1, 2}
and their predecessor table.  One operation is one pair of the 17,955 pairs
of nonsingular members: the meet, the common lower bounds from the table,
``verify_glb``, and the meet with the arguments swapped.  Thousands of tiny
exact products, equality tests and index checks, no float code.
"""

import itertools
import random

import sharporder as so

from common import Op, Workload

GRID = [-1, 0, 1, 2]
ROUND = 500


class Oracle2x2(Workload):
    trace_round_count = 2

    def __init__(self, seed):
        self.uni = so.enumerate_index1(2, GRID)
        self.table = so.predecessor_table(self.uni)
        nonsingular = [i for i, m in enumerate(self.uni) if m.rank() == 2]
        self.pairs = list(itertools.combinations(nonsingular, 2))
        random.Random(seed).shuffle(self.pairs)

    def _op(self, i, j):
        uni, table = self.uni, self.table
        b1, b2 = uni[i], uni[j]

        def run():
            m = so.meet_in_c2(b1, b2)
            lbs = [uni[k] for k in table[i] & table[j]]
            return so.verify_glb(m, b1, b2, uni, lower_bounds=lbs), m == so.meet_in_c2(b2, b1)

        # the brute-force oracle and the symmetry both have to hold
        return Op("meet", run, lambda out: out == (True, True))

    def warmup(self):
        return [self._op(*p) for p in self.pairs[-20:]]

    def round(self, r):
        n = len(self.pairs)
        return [self._op(*self.pairs[(r * ROUND + k) % n]) for k in range(ROUND)]
