"""Moore-Penrose inverse, matrix index test, group inverse, EP test."""

from .core import (
    DEFAULT_TOL,
    EXACT,
    Matrix,
    _adjoint,
    _bareiss,
    _kept,
    _over,
    _rows_product,
    _solve,
    _square,
    approx_eq,
    numerical_rank,
    svd,
)
from .errors import IndexTooLarge, SingularK, SingularMatrix, ZeroMatrix


def moore_penrose(a: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """The Moore-Penrose inverse.

    Float mode inverts the singular values of the SVD that numerical_rank
    counts.  Exact mode returns a+ = G* (F* a G*)^-1 F* (Ben-Israel and
    Greville, Generalized Inverses) through _through, with F and G the
    bases of _bases.  The zero matrix maps to the zero transpose.
    """
    if a.mode == EXACT:
        f, g = _bases(a)
        return _through(_adjoint(f, len(g)), a, _adjoint(g, a.cols))
    u, sigma, v = svd(a)
    r = numerical_rank(sigma, tol)
    if r == 0:
        return Matrix.zeros(a.cols, a.rows, a.mode)
    ur = u.block(0, a.rows, 0, r)
    vr = v.block(0, a.cols, 0, r)
    sinv = Matrix.diag([1.0 / s for s in sigma[:r]], a.mode)
    return vr @ sinv @ ur.H


def _bases(a: Matrix):
    """(F, G) for an exact a = rows / d, as Gaussian-integer rows: d times
    a's pivot columns and d times a's rows at the first k positions of
    _bareiss's row order, k = rank a.  They are bases of a's column and row
    spaces (see _bareiss for the rows), and their entries are a's own, not
    the minors of its echelon form.

    Both generalized inverses take any such bases: for a = F0 G0 of full
    rank, F = F0 P and G = Q G0 with P and Q nonsingular, and P and Q cancel
    from G* (F* a G*)^-1 F* and from F (G a F)^-1 G.  So the scale d drops
    out, and G need not be the RREF or give a = F G."""
    rows = a._intform[1]
    _, pivots, _, order = _bareiss(rows, a.rows, a.cols)
    return (tuple(tuple(row[j] for j in pivots) for row in rows),
            tuple(rows[i] for i in order[:len(pivots)]))


def _through(l, a: Matrix, r) -> Matrix:
    """r (l a r)^-1 l for an exact a and the Gaussian-integer rows of l
    (k x a.rows) and r (a.cols x k), the one exact generalized inverse.

    It runs on integer forms: for a = rows / d, l a r = M / d with M the
    two row products l rows r, so (l a r) Y = l iff M Y = d l.  One _solve
    gives Y = X / N, its divisions exact by Cramer's rule, and the one
    _over writes r Y = (r X) / N.  SingularMatrix when l a r is singular."""
    d, rows = a._intform
    k = len(l)
    m = _rows_product(_rows_product(l, rows, a.cols), r, k)
    x, n = _solve(m, k, tuple(tuple((d * xr, d * xi) for xr, xi in row) for row in l), a.rows)
    return _over(len(r), a.rows, _rows_product(r, x, a.rows), (n, 0))


def index_le_one(a: Matrix, tol=DEFAULT_TOL) -> bool:
    """True iff rank(a^2) = rank(a), i.e. the group inverse exists; a^2 is
    a's kept square (_square).

    An exact verdict does not depend on the tolerance: it is decided once,
    by eliminating the rows of the square and ranking a, and kept on a, so
    a checked matrix answers again with one attribute read.  A float
    verdict depends on tol and is decided on every call, by cutting the
    singular values that a and its square keep."""
    a.require_square()
    if a.mode != EXACT:
        return _square(a).rank(tol) == a.rank(tol)
    return _kept(a, "_index1", _exact_index_le_one)


def _exact_index_le_one(a: Matrix) -> bool:
    n = a.rows
    return len(_bareiss(_square(a)._intform[1], n, n)[1]) == a.rank()


def group_inverse(a: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """The group inverse a# of an index <= 1 matrix.

    Exact mode returns a# = F (G a F)^-1 G (Ben-Israel and Greville) through
    _through, with F and G the bases of _bases: a = F G0 for one row basis
    G0, and G = Q G0 with Q nonsingular, so G a F = Q (G0 F)^2 and this is
    Cline's F (G0 F)^-2 G0 (Cline 1965); G a F is nonsingular iff the index
    is at most 1.  Float mode decomposes a = U [[SK, SL], [O, O]] U*
    (Hartwig-Spindelbock) and inverts that: the index is at most 1 iff SK
    is nonsingular.  Raises IndexTooLarge when the index exceeds 1.
    """
    a.require_square()
    if a.mode == EXACT:
        f, g = _bases(a)
        try:
            return _through(g, a, f)
        except SingularMatrix:
            raise IndexTooLarge("matrix has index greater than 1") from None
    from .hs import _block_group_inverse, hs_decompose

    try:
        d = hs_decompose(a, tol)
    except ZeroMatrix:
        return Matrix.zeros(a.rows, a.cols, a.mode)
    # predecessor_block_group_inverse with T = I, without its tau test of I:
    # I is a projector commuting with SK by construction, and hs_decompose
    # has already rejected non-finite input, so the test cannot fail
    try:
        g = _block_group_inverse(d, Matrix.identity(d.r, a.mode), tol)
    except SingularK:
        raise IndexTooLarge("matrix has index greater than 1") from None
    # a matrix within the tolerance of O maps to O, once its index is known
    return Matrix.zeros(a.rows, a.cols, a.mode) if a.is_zero(tol) else g


def is_ep(b: Matrix, tol=DEFAULT_TOL) -> bool:
    """True iff b b+ = b+ b, i.e. range(b) = range(b*)."""
    b.require_square()
    bp = moore_penrose(b, tol)
    return approx_eq(b @ bp, bp @ b, tol)
