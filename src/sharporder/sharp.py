"""The sharp partial order, its projector isomorphisms, and the
predecessor/successor constructions.

For a fixed B with Hartwig-Spindelbock data (U, Sigma, K, L, r), every
A below B corresponds to a unique projector T commuting with Sigma K
(the map phi); conjugating by the Jordan similarity P moves between those
projectors and projectors commuting with the Jordan form itself (psi).
"""

from .core import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    Matrix,
    _int_product,
    _int_rep_eq,
    approx_eq,
    is_projector,
)
from .errors import (
    IndexTooLarge,
    MultiplicityExceedsOne,
    NotAPredecessor,
    NotInTau,
    ShapeMismatch,
    SingularK,
    SingularMatrix,
)
from .ginv import index_le_one
from .hs import (
    HSDecomposition,
    predecessor_block_group_inverse,
    predecessor_expand,
)
from .jordan import JordanSpec, block_diag, single_jordan_block


_SQUARE_CACHE = {}
_SQUARE_CACHE_CAP = 2048


def _square_rep(a: Matrix):
    """Cached integer form of a @ a (exact mode), reused across the many
    order checks a pairwise sweep makes against the same element."""
    k = a.key()
    rep = _SQUARE_CACHE.get(k)
    if rep is None:
        rep = _int_product(a, a)
        if len(_SQUARE_CACHE) >= _SQUARE_CACHE_CAP:
            _SQUARE_CACHE.clear()
        _SQUARE_CACHE[k] = rep
    return rep


def sharp_leq(a: Matrix, b: Matrix, tol=DEFAULT_TOL) -> bool:
    """A is below B in the sharp order: A^2 = AB = BA.

    Both arguments must have index <= 1 (the order is only defined there);
    raises IndexTooLarge otherwise.
    """
    a.require_square()
    b.require_square()
    if (a.rows, a.mode) != (b.rows, b.mode):
        raise ShapeMismatch("arguments must share shape and mode")
    if not index_le_one(a, tol):
        raise IndexTooLarge("first argument has index > 1")
    if not index_le_one(b, tol):
        raise IndexTooLarge("second argument has index > 1")
    if a.mode == EXACT:
        a2 = _square_rep(a)
        return (_int_rep_eq(a2, _int_product(a, b))
                and _int_rep_eq(a2, _int_product(b, a)))
    a2 = a @ a
    return approx_eq(a2, a @ b, tol) and approx_eq(a2, b @ a, tol)


def in_tau(t: Matrix, sk: Matrix, tol=DEFAULT_TOL) -> bool:
    """Membership in tau: T idempotent and commuting with Sigma K."""
    return is_projector(t, tol) and approx_eq(t @ sk, sk @ t, tol)


def phi(a: Matrix, hs: HSDecomposition, tol=DEFAULT_TOL) -> Matrix:
    """The projector T with A = U [[T SK, T SL], [O, O]] U*.

    Computed as the leading r x r block of U* A U times (SK)^-1, then
    validated by reconstruction; raises NotAPredecessor if A is not below
    the decomposed matrix.
    """
    sk = hs.sigma_k()
    try:
        sk_inv = sk.inverse()
    except SingularMatrix as exc:
        raise SingularK("SK singular: B has index greater than 1") from exc
    m = hs.U.H @ a @ hs.U
    t = m.block(0, hs.r, 0, hs.r) @ sk_inv
    if not in_tau(t, sk, tol):
        raise NotAPredecessor("extracted block is not a commuting projector")
    if not approx_eq(predecessor_expand(hs, t), a, tol):
        raise NotAPredecessor("reconstruction from T does not match A")
    return t


def phi_inv(t: Matrix, hs: HSDecomposition, tol=DEFAULT_TOL) -> Matrix:
    """The predecessor A determined by a projector T in tau."""
    if not in_tau(t, hs.sigma_k(), tol):
        raise NotInTau("T is not an idempotent commuting with SK")
    return predecessor_expand(hs, t)


def psi(t: Matrix, p: Matrix) -> Matrix:
    """delta -> tau conjugation: T maps to P T P^-1."""
    return p @ t @ p.inverse()


def psi_inv(t: Matrix, p: Matrix) -> Matrix:
    return p.inverse() @ t @ p


def proj_leq(t1: Matrix, t2: Matrix, tol=DEFAULT_TOL) -> bool:
    """Projector order: T1 = T1 T2 = T2 T1."""
    return approx_eq(t1, t1 @ t2, tol) and approx_eq(t1, t2 @ t1, tol)


def predecessor_group_inverse(t: Matrix, hs: HSDecomposition, tol=DEFAULT_TOL) -> Matrix:
    """Group inverse of phi_inv(t, hs), via (T SK)# = (SK)^-1 T."""
    return predecessor_block_group_inverse(hs, t, tol)


def jordan_predecessors(p: Matrix, spec: JordanSpec, n: int, tol=DEFAULT_TOL):
    """All 2^l predecessors of B = P diag(J_1..J_l, O) P^-1 when every
    eigenvalue has exactly one Jordan block: flip each block to O or keep it.
    """
    if any(e.t > 1 for e in spec.eigenvalues):
        raise MultiplicityExceedsOne("every eigenvalue must have one Jordan block")
    mode = spec.mode
    if p.rows != n or not p.is_square:
        raise ShapeMismatch("P must be n x n")
    r = spec.r
    if r > n:
        raise ShapeMismatch("spec dimension exceeds n")
    p_inv = p.inverse()
    blocks = [single_jordan_block(e.lam, e.sizes[0], mode) for e in spec.eigenvalues]
    out = []
    for mask in range(2 ** spec.s):
        chosen = [blk if (mask >> i) & 1 else Matrix.zeros(blk.rows, blk.cols, mode)
                  for i, blk in enumerate(blocks)]
        if n > r:
            chosen.append(Matrix.zeros(n - r, n - r, mode))
        out.append(p @ block_diag(chosen, mode) @ p_inv)
    return out


def conjecture_refutation():
    """The counterexample showing predecessors of B need not arise from B's
    own similarity matrix: B = I_3 yet A below B is not diagonal.

    Returns (B, A, report).
    """
    b = Matrix.identity(3, EXACT)
    a = Matrix.exact([[0, 1, 0], [0, 1, 0], [0, 0, 0]])
    leq = sharp_leq(a, b)
    diagonal = all(a[i, j].is_zero() for i in range(3) for j in range(3) if i != j)
    report = {
        "sharp_leq": leq,
        "diagonal_form": diagonal,
        "refutes_conjecture": leq and not diagonal,
    }
    return b, a, report


def successor_form(a: Matrix, p: Matrix, spec: JordanSpec, x: Matrix, tol=DEFAULT_TOL):
    """The necessary shape of any B above A = P diag(J_1..J_t, O) P^-1:
    B = P diag(J_1..J_t, X) P^-1.

    The shape is necessary but not sufficient; callers decide validity with
    sharp_leq (returned as the second element).
    """
    mode = spec.mode
    r = spec.r
    n = p.rows
    if x.rows != n - r or not x.is_square:
        raise ShapeMismatch(f"X must be {n - r} x {n - r}")
    blocks = [single_jordan_block(e.lam, k, mode)
              for e in spec.eigenvalues for k in e.sizes]
    if n > r:
        blocks.append(x)
    b = p @ block_diag(blocks, mode) @ p.inverse()
    try:
        leq = sharp_leq(a, b, tol)
    except IndexTooLarge:
        leq = False
    return b, leq


def extend_to_nonsingular(hs: HSDecomposition, tol=DEFAULT_TOL) -> Matrix:
    """A nonsingular C with B sharp-below C:
    C = U [[SK, (Sigma - K^-1) L], [O, I]] U*."""
    sk = hs.sigma_k()
    if sk.rank(tol) < hs.r:
        raise SingularK("K singular: B has index greater than 1")
    corner = (hs.sigma_matrix() - hs.K.inverse()) @ hs.L
    return hs.embed(sk, corner, Matrix.identity(hs.n - hs.r, FLOAT))
