"""Moore-Penrose inverse, matrix index test, group inverse, EP test."""

from .core import (
    DEFAULT_TOL,
    EXACT,
    Matrix,
    _bareiss,
    _int_product,
    approx_eq,
    exact_rref,
    numerical_rank,
    svd,
)
from .errors import IndexTooLarge, SingularK, SingularMatrix, ZeroMatrix


def moore_penrose(a: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """The Moore-Penrose inverse.

    Float mode inverts the singular values of the SVD that numerical_rank
    counts.  Exact mode takes the full-rank factorization a = F G from the
    RREF (F: the pivot columns of a, G: the nonzero rows of the RREF) and
    returns a+ = G* (F* a G*)^-1 F*.  The zero matrix maps to the zero
    transpose.
    """
    if a.mode == EXACT:
        f, g = _full_rank_factors(a)
        return g.H @ (f.H @ a @ g.H).inverse() @ f.H
    u, sigma, v = svd(a)
    r = numerical_rank(sigma, tol)
    if r == 0:
        return Matrix.zeros(a.cols, a.rows, a.mode)
    ur = u.block(0, a.rows, 0, r)
    vr = v.block(0, a.cols, 0, r)
    sinv = Matrix.diag([1.0 / s for s in sigma[:r]], a.mode)
    return vr @ sinv @ ur.H


def _full_rank_factors(a: Matrix):
    """(F, G) with a = F G: F holds the pivot columns of a, G the nonzero
    rows of its RREF (both empty for the zero matrix)."""
    rref, pivots = exact_rref(a)
    f = Matrix.exact([[a[i, j] for j in pivots] for i in range(a.rows)])
    return f, rref.block(0, len(pivots), 0, a.cols)


_INDEX_CACHE = {}
_INDEX_CACHE_CAP = 4096


def index_le_one(a: Matrix, tol=DEFAULT_TOL) -> bool:
    """True iff rank(a^2) = rank(a), i.e. the group inverse exists.  In
    exact mode, the rows of a^2 are eliminated as _int_product gives them."""
    a.require_square()
    if a.mode != EXACT:
        return (a @ a).rank(tol) == a.rank(tol)
    # exact ranks do not depend on the tolerance, so the answer is cacheable
    k = a.key()
    hit = _INDEX_CACHE.get(k)
    if hit is None:
        n = a.rows
        hit = len(_bareiss(_int_product(a, a)[1], n, n, False)[1]) == a.rank()
        if len(_INDEX_CACHE) >= _INDEX_CACHE_CAP:
            _INDEX_CACHE.clear()
        _INDEX_CACHE[k] = hit
    return hit


def group_inverse(a: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """The group inverse a# of an index <= 1 matrix.

    Exact mode uses Cline's formula a# = F (G F)^-2 G on the full-rank
    factorization a = F G (Cline 1965); G F is invertible iff the index is
    at most 1.  Float mode decomposes a = U [[SK, SL], [O, O]] U*
    (Hartwig-Spindelbock) and inverts that: the index is at most 1 iff SK
    is nonsingular.  Raises IndexTooLarge when the index exceeds 1.
    """
    a.require_square()
    if a.mode == EXACT:
        f, g = _full_rank_factors(a)
        try:
            m = (g @ f).inverse()
        except SingularMatrix:
            raise IndexTooLarge("matrix has index greater than 1") from None
        return f @ (m @ m) @ g
    from .hs import hs_decompose, predecessor_block_group_inverse

    try:
        d = hs_decompose(a, tol)
    except ZeroMatrix:
        return Matrix.zeros(a.rows, a.cols, a.mode)
    try:
        g = predecessor_block_group_inverse(d, Matrix.identity(d.r, a.mode), tol)
    except SingularK:
        raise IndexTooLarge("matrix has index greater than 1") from None
    # a matrix within the tolerance of O maps to O, once its index is known
    return Matrix.zeros(a.rows, a.cols, a.mode) if a.is_zero(tol) else g


def is_ep(b: Matrix, tol=DEFAULT_TOL) -> bool:
    """True iff b b+ = b+ b, i.e. range(b) = range(b*)."""
    b.require_square()
    bp = moore_penrose(b, tol)
    return approx_eq(b @ bp, bp @ b, tol)
