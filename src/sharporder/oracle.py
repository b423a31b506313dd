"""Brute-force ground truth at desk scale.

Exhaustive enumeration over small entry grids, in exact mode only, so the
clever algorithms elsewhere can be checked against something unambiguous.
"""

from itertools import product

from .core import EXACT, Matrix, _cleared, _over, approx_eq
from .errors import BudgetExceeded, NotSupported
from .ginv import index_le_one

DEFAULT_CAP = 10 ** 7


def enumerate_index1(n: int, grid, cap=DEFAULT_CAP):
    """All n x n exact matrices with entries from grid having index <= 1,
    in lexicographic entry order."""
    d, grid = _cleared(grid)
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


def predecessor_table(universe):
    """For each universe index j, the set of indices i with
    universe[i] below universe[j]; caches the quadratic sweep (and each
    element's square) once so exhaustive pair studies stay affordable."""
    squares = [a @ a for a in universe]
    table = []
    for b in universe:
        preds = set()
        for i, a in enumerate(universe):
            a2 = squares[i]
            if approx_eq(a2, a @ b) and approx_eq(a2, b @ a):
                preds.add(i)
        table.append(frozenset(preds))
    return table


def brute_common_lower_bounds(b1: Matrix, b2: Matrix, universe):
    """All universe members below both b1 and b2."""
    return [a for a in universe
            if leq_unchecked(a, b1) and leq_unchecked(a, b2)]


def verify_glb(candidate: Matrix, b1: Matrix, b2: Matrix, universe,
               lower_bounds=None) -> bool:
    """True iff candidate is a common lower bound of (b1, b2) dominating
    every common lower bound found in the universe.

    Pass lower_bounds to reuse a precomputed brute_common_lower_bounds
    result across many candidates.
    """
    if candidate.mode != EXACT:
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
    out = []
    for s in universe:
        if approx_eq(s @ s, s) and approx_eq(s @ b, b @ s):
            out.append(s)
    return out
