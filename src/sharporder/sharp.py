"""The sharp partial order, its projector isomorphisms, and the
predecessor/successor constructions.

For a fixed B with Hartwig-Spindelbock data (U, Sigma, K, L, r), every
A below B corresponds to a unique projector T commuting with Sigma K
(the map phi); conjugating by the Jordan similarity P moves between those
projectors and projectors commuting with the Jordan form itself (psi).
"""

from itertools import chain

from .commutant import _block_diagonal, center_choices
from .core import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    Matrix,
    _check_operands,
    _int_product,
    _int_rep_eq,
    _int_square,
    approx_eq,
    in_tau,
    outside_tau,
)
from .errors import (
    IndexTooLarge,
    ModeMismatch,
    MultiplicityExceedsOne,
    NotAPredecessor,
    NotInTau,
    ShapeMismatch,
    SingularK,
)
from .ginv import index_le_one
from .hs import HSDecomposition, predecessor_expand
from .jordan import JordanSpec, jordan_entries


def sharp_leq(a: Matrix, b: Matrix, tol=DEFAULT_TOL) -> bool:
    """A is below B in the sharp order: A^2 = AB = BA.

    Both arguments must be square (NonSquare), then of one mode
    (ModeMismatch) and one size (ShapeMismatch), as for every product
    predicate, and have index <= 1 (the order is only defined there);
    raises IndexTooLarge otherwise, for the first argument first.  Exact
    mode compares integer forms: an exact matrix keeps its index verdict
    and its square once they are made, so a sweep that asks about one
    matrix again pays for neither twice.  Float mode forms A^2 once, for
    A's index (index_le_one's rule, rank(A^2) = rank(A) at tol) and for the
    order, and compares by approx_eq.
    """
    a.require_square()
    b.require_square()
    _check_operands(a, b)
    exact = a.mode == EXACT
    a2 = _int_square(a) if exact else a @ a
    if not (index_le_one(a, tol) if exact else a2.rank(tol) == a.rank(tol)):
        raise IndexTooLarge("first argument has index > 1")
    if not index_le_one(b, tol):
        raise IndexTooLarge("second argument has index > 1")
    if exact:
        return _int_rep_eq(a2, _int_product(a, b)) and _int_rep_eq(a2, _int_product(b, a))
    return approx_eq(a2, a @ b, tol) and approx_eq(a2, b @ a, tol)


def _require_index_le_one(hs: HSDecomposition, tol):
    """SingularK unless SK is nonsingular, that is B has index <= 1 (the rank
    cut of HSDecomposition.index_le_one)."""
    if not hs.index_le_one(tol):
        raise SingularK("SK singular: B has index greater than 1")


def phi(a: Matrix, hs: HSDecomposition, tol=DEFAULT_TOL) -> Matrix:
    """The projector T with A = U [[T SK, T SL], [O, O]] U*.

    Computed as the leading r x r block of U* A U times (SK)^-1, then
    validated by reconstruction; raises NotAPredecessor if A is not below
    the decomposed matrix, and SingularK if SK is singular.  The tau check
    and the reconstruction are 1-stacks of the kernels behind phi_inv_stack.
    """
    _require_index_le_one(hs, tol)
    sk = hs.sigma_k()
    m = hs.U.H @ a @ hs.U
    t = m.block(0, hs.r, 0, hs.r) @ sk.inverse()
    if not in_tau(t, sk, tol):
        raise NotAPredecessor("extracted block is not a commuting projector")
    if not approx_eq(Matrix.slices(predecessor_expand(hs, t.array[None]))[0], a, tol):
        raise NotAPredecessor("reconstruction from T does not match A")
    return t


def phi_inv(t: Matrix, hs: HSDecomposition, tol=DEFAULT_TOL) -> Matrix:
    """The predecessor A determined by a projector T in tau; raises SingularK,
    as phi does, when SK is singular, then NotInTau.  The 1-stack of
    phi_inv_stack."""
    _require_index_le_one(hs, tol)
    _check_operands(t, hs.sigma_k(), idempotent=True)
    return phi_inv_stack(t.array[None], hs, tol)[0]


def phi_inv_stack(ts, hs: HSDecomposition, tol=DEFAULT_TOL):
    """phi_inv of each slice T of a (k, r, r) complex stack, as k float
    matrices (views of one read-only array).  SingularK comes first; then
    every T is checked against tau, in order (outside_tau), and NotInTau is
    raised at the first that is not in it; then all are mapped in one
    batched product (predecessor_expand)."""
    _require_index_le_one(hs, tol)
    if ts.shape[1:] != (hs.r, hs.r):
        raise ShapeMismatch(f"{ts.shape[1]}x{ts.shape[2]} vs {hs.r}x{hs.r}")
    if outside_tau(ts, hs.sigma_k().array, tol) is not None:
        raise NotInTau("T is not an idempotent commuting with SK")
    return Matrix.slices(predecessor_expand(hs, ts))


def psi(t: Matrix, p: Matrix) -> Matrix:
    """delta -> tau conjugation: T maps to P T P^-1."""
    return p @ t @ p.inverse()


def psi_choices(spec: JordanSpec, choices):
    """psi of the 0/1 block-choice projectors E of choices (each a list of
    bits, one per Jordan block), as one (k, r, r) complex stack P E P^-1
    formed by one batched product.  P is the spec's similarity matrix, or
    the identity when the spec carries none."""
    import numpy as np

    r = spec.r
    p = spec.P if spec.P is not None else Matrix.identity(r, FLOAT)
    p_inv = p.inverse()
    keep = [_block_diagonal(spec, bits) for bits in choices]
    e = np.zeros((len(keep), r, r), dtype=complex)
    e[:, range(r), range(r)] = keep
    return p.array @ e @ p_inv.array


def psi_inv(t: Matrix, p: Matrix) -> Matrix:
    return p.inverse() @ t @ p


def proj_leq(t1: Matrix, t2: Matrix, tol=DEFAULT_TOL) -> bool:
    """Projector order: T1 = T1 T2 = T2 T1, decided on integer forms in
    exact mode and by approx_eq in float mode."""
    _check_operands(t1, t2)
    if t1.mode == EXACT:
        r1 = t1._intform
        return _int_rep_eq(r1, _int_product(t1, t2)) and _int_rep_eq(r1, _int_product(t2, t1))
    return approx_eq(t1, t1 @ t2, tol) and approx_eq(t1, t2 @ t1, tol)


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
    entries = list(jordan_entries((e.lam, e.dim) for e in spec.eigenvalues))
    out = []
    for bits in center_choices(spec):
        keep = _block_diagonal(spec, bits)
        j = Matrix.from_entries(n, n, [(i, k, v) for i, k, v in entries if keep[i]], mode)
        out.append(p @ j @ p_inv)
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
    if x.mode != mode:
        raise ModeMismatch(f"{x.mode} X for a {mode} spec")
    blocks = ((e.lam, k) for e in spec.eigenvalues for k in e.sizes)
    x_entries = ((r + i, r + j, x[i, j]) for i in range(n - r) for j in range(n - r))
    jx = Matrix.from_entries(n, n, chain(jordan_entries(blocks), x_entries), mode)
    b = p @ jx @ p.inverse()
    try:
        leq = sharp_leq(a, b, tol)
    except IndexTooLarge:
        leq = False
    return b, leq


def extend_to_nonsingular(hs: HSDecomposition, tol=DEFAULT_TOL) -> Matrix:
    """A nonsingular C with B sharp-below C:
    C = U [[SK, (Sigma - K^-1) L], [O, I]] U*."""
    if not hs.index_le_one(tol):
        raise SingularK("K singular: B has index greater than 1")
    corner = (hs.sigma_matrix() - hs.K.inverse()) @ hs.L
    return hs.embed(hs.sigma_k(), corner, Matrix.identity(hs.n - hs.r, FLOAT))
