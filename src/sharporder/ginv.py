"""Moore-Penrose inverse, matrix index test, group inverse, EP test."""

from .core import (
    DEFAULT_TOL,
    EXACT,
    Matrix,
    _bareiss,
    _int_square,
    _over,
    _solve,
    approx_eq,
    exact_rref,
    numerical_rank,
    svd,
)
from .errors import IndexTooLarge, SingularK, SingularMatrix, ZeroMatrix


def moore_penrose(a: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """The Moore-Penrose inverse.

    Float mode inverts the singular values of the SVD that numerical_rank
    counts.  Exact mode returns a+ = G* (F* a G*)^-1 F* (Ben-Israel and
    Greville, Generalized Inverses) as G* Y, one _solve giving Y with
    (F* a G*) Y = F*, its divisions exact by Cramer's rule.  F is the pivot
    columns of a and G the nonzero rows of its forward-only Bareiss echelon
    form.  Any bases of a's column and row spaces serve: for a = F0 G0,
    F = F0 P and G = Q G0, the invertible P and Q cancel, so G need not be
    the RREF or give a = F G.  The zero matrix maps to the zero transpose.
    """
    if a.mode == EXACT:
        echelon, pivots, _ = _bareiss(a._intform[1], a.rows, a.cols, False)
        k, fh = len(pivots), _pivot_columns(a, pivots).H
        gh = _over(k, a.cols, tuple(map(tuple, echelon[:k])), (1, 0)).H
        dm, m = (fh @ a @ gh)._intform
        df, rf = fh.scale(dm)._intform  # (m / dm) Y = F* iff m Y = dm F*
        y, n = _solve(m, k, rf, a.rows)
        return gh @ _over(k, a.rows, y, (n * df, 0))
    u, sigma, v = svd(a)
    r = numerical_rank(sigma, tol)
    if r == 0:
        return Matrix.zeros(a.cols, a.rows, a.mode)
    ur = u.block(0, a.rows, 0, r)
    vr = v.block(0, a.cols, 0, r)
    sinv = Matrix.diag([1.0 / s for s in sigma[:r]], a.mode)
    return vr @ sinv @ ur.H


def _pivot_columns(a: Matrix, pivots) -> Matrix:
    """The columns of an exact a at the given pivot positions."""
    d, rows = a._intform
    return _over(a.rows, len(pivots), tuple(tuple(row[j] for j in pivots) for row in rows), (d, 0))


def index_le_one(a: Matrix, tol=DEFAULT_TOL) -> bool:
    """True iff rank(a^2) = rank(a), i.e. the group inverse exists.

    An exact verdict does not depend on the tolerance: it is decided once,
    by eliminating the rows of a's kept square (_int_square) and ranking a,
    and kept on a, so a checked matrix answers again with one attribute
    read.  A float verdict depends on tol and is decided on every call."""
    a.require_square()
    if a.mode != EXACT:
        return (a @ a).rank(tol) == a.rank(tol)
    kept = getattr(a, "_index1", None)
    if kept is None:
        n = a.rows
        kept = len(_bareiss(_int_square(a)[1], n, n, False)[1]) == a.rank()
        object.__setattr__(a, "_index1", kept)
    return kept


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
        # Cline's formula needs a = F G, so G is the RREF's nonzero rows
        rref, pivots = exact_rref(a)
        f, g = _pivot_columns(a, pivots), rref.block(0, len(pivots), 0, a.cols)
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
