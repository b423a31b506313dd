"""The sharp partial order, its projector isomorphisms, and the
predecessor/successor constructions.

For a fixed B = F (C E) (hs.HSDecomposition: F = U[:, :r], C = Sigma K),
every A below B is F T (C E) for a unique projector T commuting with C
(the map phi); conjugating by the Jordan similarity P moves between those
projectors and projectors commuting with the Jordan form itself (psi).

The order itself (sharp_leq, proj_leq) needs only core and ginv, which this
module imports at module level; an exact comparison loads nothing else.  The
float maps import the float backend where they run, and the Jordan
constructions commutant and jordan.  HSDecomposition (hs) and JordanSpec
(jordan) are named in quoted annotations only, so they import nothing.
"""

from itertools import chain

from .core import DEFAULT_TOL, EXACT, FLOAT, Matrix, _check_operands, _square, approx_eq, in_tau
from .errors import (
    IndexTooLarge,
    ModeMismatch,
    MultiplicityExceedsOne,
    NotAPredecessor,
    NotInTau,
    ShapeMismatch,
)
from .ginv import index_le_one


def sharp_leq(a: Matrix, b: Matrix, tol=DEFAULT_TOL) -> bool:
    """A is below B in the sharp order: A^2 = AB = BA.

    Both arguments must be square (NonSquare), then of one mode
    (ModeMismatch) and one size (ShapeMismatch), as for every product
    predicate, and have index <= 1 (the order is only defined there);
    raises IndexTooLarge otherwise, for the first argument first.  The
    class's _is_product decides A^2 = AB = BA.  An exact matrix keeps its
    index verdict and its square once they are made, so a sweep that asks
    about one matrix again pays for neither twice.  A float matrix keeps
    its square too (index_le_one's rule, rank(A^2) = rank(A), cuts their
    kept singular values at tol on every call), so a fixed B is squared and
    decomposed once over any number of calls.
    """
    a.require_square()
    b.require_square()
    _check_operands(a, b)
    a2 = _square(a)
    if not index_le_one(a, tol):
        raise IndexTooLarge("first argument has index > 1")
    if not index_le_one(b, tol):
        raise IndexTooLarge("second argument has index > 1")
    return a2._is_product(a, b, tol) and a2._is_product(b, a, tol)


def phi(a: Matrix, hs: "HSDecomposition", tol=DEFAULT_TOL) -> Matrix:
    """The projector T with A = F T (C E), C = SK.

    Computed as the leading r x r block F* A F of U* A U times (SK)^-1, then
    validated by reconstruction; raises NotAPredecessor if A is not below
    the decomposed matrix, and SingularK if SK is singular.  The tau check
    and the reconstruction are 1-stacks of the kernels behind phi_inv_stack.
    """
    from .floatmatrix import _wrap, slices

    hs.require_index_le_one(tol)
    sk, u, r = hs.sigma_k(), hs.U.array, hs.r
    _check_operands(a, hs.U)
    t = _wrap((u.conj().T @ a.array @ u)[:r, :r] @ sk.inverse().array)
    if not in_tau(t, sk, tol):
        raise NotAPredecessor("extracted block is not a commuting projector")
    if not approx_eq(slices(predecessor_expand(hs, t.array[None]))[0], a, tol):
        raise NotAPredecessor("reconstruction from T does not match A")
    return t


def phi_inv(t: Matrix, hs: "HSDecomposition", tol=DEFAULT_TOL) -> Matrix:
    """The predecessor A determined by a projector T in tau; raises SingularK,
    as phi does, when SK is singular, then NotInTau.  The 1-stack of
    phi_inv_stack."""
    hs.require_index_le_one(tol)
    _check_operands(t, hs.sigma_k(), idempotent=True)
    return phi_inv_stack(t.array[None], hs, tol)[0]


def phi_inv_stack(ts, hs: "HSDecomposition", tol=DEFAULT_TOL):
    """phi_inv of each slice T of a (k, r, r) complex stack, as k float
    matrices (views of one read-only array).  SingularK comes first; then
    every T is checked against tau, in order (outside_tau), and NotInTau is
    raised at the first that is not in it; then all are mapped in one
    batched product (predecessor_expand)."""
    from .floatmatrix import outside_tau, slices

    hs.require_index_le_one(tol)
    if ts.shape[1:] != (hs.r, hs.r):
        raise ShapeMismatch(f"{ts.shape[1]}x{ts.shape[2]} vs {hs.r}x{hs.r}")
    if outside_tau(ts, hs.sigma_k().array, tol) is not None:
        raise NotInTau("T is not an idempotent commuting with SK")
    return slices(predecessor_expand(hs, ts))


def predecessor_expand(hs: "HSDecomposition", ts):
    """A = F T (C E) for each projector T commuting with SK of a (k, r, r)
    complex stack, in one batched product: a (k, n, n) array."""
    return hs.U.array[:, :hs.r] @ ts @ hs.ce().array


def psi(t: Matrix, p: Matrix) -> Matrix:
    """delta -> tau conjugation: T maps to P T P^-1, the one conjugation by P
    of a single matrix (P keeps its inverse, so each P is inverted once)."""
    return p @ t @ p.inverse()


def psi_choices(spec: "JordanSpec", choices):
    """psi of the 0/1 block-choice projectors E of choices (each a list of
    bits, one per Jordan block), as one (k, r, r) complex stack P E P^-1
    formed by one batched product.  P is the spec's similarity matrix, or
    the identity when the spec carries none."""
    from .jordan import block_choice_stack

    p = spec.P if spec.P is not None else Matrix.identity(spec.r, FLOAT)
    p_inv = p.inverse()
    return p.array @ block_choice_stack(spec, choices) @ p_inv.array


def psi_inv(t: Matrix, p: Matrix) -> Matrix:
    return p.inverse() @ t @ p


def proj_leq(t1: Matrix, t2: Matrix, tol=DEFAULT_TOL) -> bool:
    """Projector order: T1 = T1 T2 = T2 T1, decided by the class's
    _is_product."""
    _check_operands(t1, t2)
    return t1._is_product(t1, t2, tol) and t1._is_product(t2, t1, tol)


def jordan_predecessors(p: Matrix, spec: "JordanSpec", n: int):
    """All 2^l predecessors of B = P diag(J_1..J_l, O) P^-1 when every
    eigenvalue has exactly one Jordan block: flip each block to O or keep it.
    """
    from .jordan import _block_diagonal, center_choices, jordan_entries

    if any(e.t > 1 for e in spec.eigenvalues):
        raise MultiplicityExceedsOne("every eigenvalue must have one Jordan block")
    mode = spec.mode
    if p.rows != n or not p.is_square:
        raise ShapeMismatch("P must be n x n")
    r = spec.r
    if r > n:
        raise ShapeMismatch("spec dimension exceeds n")
    entries = list(jordan_entries((e.lam, e.dim) for e in spec.eigenvalues))
    out = []
    for bits in center_choices(spec):
        keep = _block_diagonal(spec, bits)
        j = Matrix.from_entries(n, n, [(i, k, v) for i, k, v in entries if keep[i]], mode)
        out.append(psi(j, p))
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


def successor_form(a: Matrix, p: Matrix, spec: "JordanSpec", x: Matrix, tol=DEFAULT_TOL):
    """The necessary shape of any B above A = P diag(J_1..J_t, O) P^-1:
    B = P diag(J_1..J_t, X) P^-1.

    The shape is necessary but not sufficient; callers decide validity with
    sharp_leq (returned as the second element).
    """
    from .jordan import jordan_entries

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
    b = psi(jx, p)
    try:
        leq = sharp_leq(a, b, tol)
    except IndexTooLarge:
        leq = False
    return b, leq


def extend_to_nonsingular(hs: "HSDecomposition", tol=DEFAULT_TOL) -> Matrix:
    """A nonsingular matrix with B sharp-below it, Q diag(SK, I) Q^-1 =
    U [[SK, (Sigma - K^-1) L], [O, I]] U*; SingularK unless index <= 1."""
    from .floatmatrix import _wrap

    ident = Matrix.identity(hs.n - hs.r, FLOAT).array
    return _wrap(hs.conjugate_stack(hs.sigma_k().array, ident, tol))
