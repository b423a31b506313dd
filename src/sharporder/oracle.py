"""Brute-force ground truth at desk scale.

Exhaustive enumeration over small entry grids, in exact mode only, so the
clever algorithms elsewhere can be checked against something unambiguous.

The exhaustive sweeps (predecessor_table, brute_common_lower_bounds and
brute_commuting_idempotents) run on one integer-form kernel, _Sweep: it
puts every matrix of the sweep over one common denominator D once, keeps
each member's square, and decides A^2 = AB = BA by tuple equality of exact
integer products, with no Matrix made per pair.  Its order test, below_all,
serves a whole universe against one B: row 0 of AB is row 0 of A times B,
so it multiplies each distinct first row of the universe by B once, and
only the members whose looked-up row is their square's first row pay for
the rest of AB and for BA.  On the 246-member {-1, 0, 1, 2} grid, with 16
distinct first rows, the predecessor table of its 60,516 pairs takes about
0.024 s, against 0.12 s with a product per pair and 0.66 s through three
Matrix products and an approx_eq per pair (CPython 3.11, one core of an
Intel Xeon).  The kernel shares no code with the order layer (sharp_leq,
proj_leq, index_le_one), so it stays an independent check of it.
leq_unchecked and verify_glb keep the Matrix-level definition, which the
sweeps are tested against: they compare single pairs, for which a common
denominator would be made per call, and verify_glb runs inside the
benchmark's timed operation, where moving it onto the kernel grew the
harness's peak memory past its bound.
"""

from functools import cached_property
from itertools import product
from math import lcm

from .core import EXACT, Matrix, _cleared, _over, _rows_product, approx_eq
from .errors import BudgetExceeded, MalformedInput, NotSupported, ShapeMismatch
from .ginv import index_le_one

DEFAULT_CAP = 10 ** 7


def enumerate_index1(n: int, grid, cap=DEFAULT_CAP):
    """All n x n exact matrices with entries from grid having index <= 1,
    in lexicographic entry order, each once: a value the grid repeats (as
    1 and "2/2" are one value) is taken once, where it first appears, and
    cap bounds the number of distinct matrices.  MalformedInput unless n is
    a non-negative int."""
    # bool is an int subclass, so True must be ruled out by type
    if type(n) is not int or n < 0:
        raise MalformedInput(f"the size n must be a non-negative int, not {n!r}")
    d, grid = _cleared(grid)
    grid = list(dict.fromkeys(grid))
    if len(grid) ** (n * n) > cap:
        raise BudgetExceeded(f"grid^(n^2) exceeds cap {cap}")
    out = []
    for entries in product(grid, repeat=n * n):
        m = _over(n, n, tuple(entries[i * n:(i + 1) * n] for i in range(n)), (d, 0))
        if index_le_one(m):
            out.append(m)
    return out


def leq_unchecked(a: Matrix, b: Matrix) -> bool:
    """The order predicate A^2 = AB = BA without re-validating the index
    preconditions; for universes already filtered by enumerate_index1."""
    a2 = a @ a
    return approx_eq(a2, a @ b) and approx_eq(a2, b @ a)


class _Sweep:
    """The integer forms of a universe and of the fixed matrices bs it is
    compared with, all n x n and over one denominator d: rows[k] and bs[k]
    are the Gaussian-integer rows of d times the matrix, squares[k] those of
    the square of rows[k].  For a = A / d and b = B / d, a^2 = ab = ba iff
    A^2 = AB = BA, and a^2 = a iff A^2 = d A.  NotSupported for a float
    matrix, ShapeMismatch unless all are square of one size.

    A row of AB is that row of A times B, so below_all looks AB's first
    row up among the products of the universe's distinct first rows with
    B, made once per B."""

    def __init__(self, universe, bs=()):
        mats = [*universe, *bs]
        if any(m.mode != EXACT for m in mats):
            raise NotSupported("oracle checks run in exact mode only")
        n = mats[0].rows if mats else 0
        if any(m.rows != n or m.cols != n for m in mats):
            raise ShapeMismatch("the oracle compares square matrices of one size")
        d = lcm(*(m._intform[0] for m in mats))
        forms = [_times(rows, d // e) for e, rows in (m._intform for m in mats)]
        self.n, self.d = n, d
        self.rows, self.bs = forms[:len(universe)], forms[len(universe):]
        self.squares = [_rows_product(a, a, n) for a in self.rows]

    @cached_property
    def heads(self):
        """(firsts, head_of): the universe's distinct first rows, in
        first-seen order, and for each member the number of its first row
        among them.  Made by the first below_all, so that
        brute_commuting_idempotents, which looks no first row up, does not
        pay for it.  Only first rows are numbered: numbering every row and
        column as well costs the linear sweeps more than it saves them."""
        firsts = {}
        head_of = [firsts.setdefault(a[0], len(firsts)) for a in self.rows]
        return tuple(firsts), head_of

    def below_all(self, b):
        """The indices i, ascending, of the rows[i] below the rows b in the
        order, A^2 = AB = BA: a member pays for the rest of AB and for BA
        only when its first row times b is its square's first row."""
        n, rows, squares = self.n, self.rows, self.squares
        if not n:
            # every member is the 0 x 0 matrix, which is below itself
            return list(range(len(rows)))
        firsts, head_of = self.heads
        products = _rows_product(firsts, b, n)
        return [i for i, k in enumerate(head_of)
                if products[k] == squares[i][0]
                and _rows_product(rows[i][1:], b, n) == squares[i][1:]
                and _rows_product(b, rows[i], n) == squares[i]]


def _times(rows, k):
    """Gaussian-integer rows multiplied by the integer k."""
    if k == 1:
        return rows
    return tuple(tuple((xr * k, xi * k) for xr, xi in row) for row in rows)


def predecessor_table(universe):
    """For each universe index j, the frozenset of indices i with
    universe[i] below universe[j]: the quadratic sweep on _Sweep's integer
    forms, each member squared once."""
    sweep = _Sweep(universe)
    return [frozenset(sweep.below_all(b)) for b in sweep.rows]


def brute_common_lower_bounds(b1: Matrix, b2: Matrix, universe):
    """All universe members below both b1 and b2."""
    sweep = _Sweep(universe, (b1, b2))
    f1, f2 = sweep.bs
    below_f2 = set(sweep.below_all(f2))
    return [universe[i] for i in sweep.below_all(f1) if i in below_f2]


def verify_glb(candidate: Matrix, b1: Matrix, b2: Matrix, universe,
               lower_bounds=None) -> bool:
    """True iff candidate is a common lower bound of (b1, b2) dominating
    every common lower bound found in the universe.

    Pass lower_bounds to reuse a precomputed brute_common_lower_bounds
    result across many candidates.  NotSupported when any of candidate, b1
    and b2 is a float matrix, before any product.
    """
    if not candidate.mode == b1.mode == b2.mode == EXACT:
        raise NotSupported("oracle checks run in exact mode only")
    if not index_le_one(candidate):
        return False
    if not (leq_unchecked(candidate, b1) and leq_unchecked(candidate, b2)):
        return False
    if lower_bounds is None:
        lower_bounds = brute_common_lower_bounds(b1, b2, universe)
    return all(leq_unchecked(a, candidate) for a in lower_bounds)


def brute_commuting_idempotents(b: Matrix, universe):
    """All universe members S with SB = BS and S^2 = S."""
    sweep = _Sweep(universe, (b,))
    (f,), n, d = sweep.bs, sweep.n, sweep.d
    return [s for s, r, r2 in zip(universe, sweep.rows, sweep.squares)
            if r2 == _times(r, d) and _rows_product(r, f, n) == _rows_product(f, r, n)]
