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
        return _through(f.H, a, g.H)
    u, sigma, v = svd(a)
    r = numerical_rank(sigma, tol)
    if r == 0:
        return Matrix.zeros(a.cols, a.rows, a.mode)
    ur = u.block(0, a.rows, 0, r)
    vr = v.block(0, a.cols, 0, r)
    sinv = Matrix.diag([1.0 / s for s in sigma[:r]], a.mode)
    return vr @ sinv @ ur.H


def _bases(a: Matrix):
    """(F, G) for an exact a: its pivot columns and the nonzero rows of its
    forward-only Bareiss echelon form, bases of its column and row spaces.

    Both generalized inverses take any such bases: for a = F0 G0 of full
    rank, F = F0 P and G = Q G0 with P and Q nonsingular, and P and Q cancel
    from G* (F* a G*)^-1 F* and from F (G a F)^-1 G.  So G need not be the
    RREF or give a = F G."""
    echelon, pivots, _ = _bareiss(a._intform[1], a.rows, a.cols)
    d, rows = a._intform
    k = len(pivots)
    return (_over(a.rows, k, tuple(tuple(row[j] for j in pivots) for row in rows), (d, 0)),
            _over(k, a.cols, tuple(map(tuple, echelon[:k])), (1, 0)))


def _through(l: Matrix, a: Matrix, r: Matrix) -> Matrix:
    """r (l a r)^-1 l for exact l, a and r, the one exact generalized
    inverse: r Y, with (l a r) Y = l solved by one _solve, its divisions
    exact by Cramer's rule.  SingularMatrix when l a r is singular."""
    dm, m = (l @ a @ r)._intform
    dl, rl = l.scale(dm)._intform  # (m / dm) Y = l iff m Y = dm l
    y, n = _solve(m, l.rows, rl, l.cols)
    return r @ _over(l.rows, l.cols, y, (n * dl, 0))


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
        kept = len(_bareiss(_int_square(a)[1], n, n)[1]) == a.rank()
        object.__setattr__(a, "_index1", kept)
    return kept


def group_inverse(a: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """The group inverse a# of an index <= 1 matrix.

    Exact mode returns a# = F (G a F)^-1 G (Ben-Israel and Greville) through
    _through, with F and G the bases of _bases: for a = F G0 with G0 the
    RREF's nonzero rows, G a F = Q (G0 F)^2 with Q nonsingular, so this is
    Cline's F (G0 F)^-2 G0 (Cline 1965), and G a F is nonsingular iff the
    index is at most 1.  Float mode decomposes a = U [[SK, SL], [O, O]] U*
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
