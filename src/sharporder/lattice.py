"""Meets, joins, and the structure of the down-set [O, B].

The down-set of B under the sharp order is isomorphic to the poset of
projectors commuting with the Jordan form J of the core block, which
factors across eigenvalues.  Each factor is a 2-chain (one Jordan block),
a bounded poset with an infinite mid-rank antichain (two blocks), or not
a lattice at all (three or more blocks).
"""

from dataclasses import dataclass, field

from .commutant import (
    CommutantProjector,
    admissible_ranks,
    block_choice_projector,
    center_choices,
)
from .core import DEFAULT_TOL, EXACT, FLOAT, Matrix, _over, approx_eq, in_tau, is_projector
from .errors import (
    IndexTooLarge,
    NoEligibleEigenvalue,
    NonCommuting,
    NonSquare,
    NotInTau,
    NotSupported,
    PrecondViolated,
    ShapeMismatch,
)
from .ginv import moore_penrose
from .hs import HSDecomposition, hs_reconstruct
from .jordan import JordanSpec, build_jordan_matrix
from .sharp import phi, phi_inv_stack, proj_leq, psi_choices, sharp_leq


def meet_commuting(t1: Matrix, t2: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """Infimum T1 T2 of two commuting projectors."""
    if not approx_eq(t1 @ t2, t2 @ t1, tol):
        raise NonCommuting("projectors do not commute")
    return t1 @ t2


def join_commuting(t1: Matrix, t2: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """Supremum T1 + T2 - T1 T2 of two commuting projectors."""
    if not approx_eq(t1 @ t2, t2 @ t1, tol):
        raise NonCommuting("projectors do not commute")
    return t1 + t2 - t1 @ t2


def matrix_meet(a1: Matrix, a2: Matrix, hs: HSDecomposition, tol=DEFAULT_TOL) -> Matrix:
    """The meet A1 B+ A2 of two predecessors of B whose projector images
    commute."""
    t1 = phi(a1, hs, tol)
    t2 = phi(a2, hs, tol)
    if not approx_eq(t1 @ t2, t2 @ t1, tol):
        raise NonCommuting("projector images do not commute")
    b = hs_reconstruct(hs)
    return a1 @ moore_penrose(b, tol) @ a2


def complement_in_downset(t: Matrix, r: int, tol=DEFAULT_TOL) -> Matrix:
    """The complement I_r - T of a projector in a down-set of height r."""
    if not t.is_square or t.rows != r:
        raise ShapeMismatch(f"expected a {r}x{r} matrix")
    if not is_projector(t, tol):
        raise NotInTau("T is not idempotent")
    return Matrix.identity(r, t.mode) - t


# ----------------------------------------------------------------------
# classification

TWO_CHAIN = "two_chain"
BOUNDED_INFINITE_ANTICHAIN = "bounded_infinite_antichain"
NON_LATTICE = "non_lattice"


@dataclass(frozen=True)
class DownsetDescriptor:
    """Symbolic shape of [O, B], factored per eigenvalue of the core block."""

    s: int
    factors: tuple = field(default=())
    is_lattice: bool = False
    is_distributive: bool = False
    is_boolean: bool = False
    boolean_center_size: int = 0
    max_chain_length: int = 0

    def to_obj(self):
        return {
            "s": self.s,
            "factors": [dict(f) for f in self.factors],
            "is_lattice": self.is_lattice,
            "is_distributive": self.is_distributive,
            "is_boolean": self.is_boolean,
            "boolean_center_size": self.boolean_center_size,
            "max_chain_length": self.max_chain_length,
        }


def classify_downset(spec: JordanSpec) -> DownsetDescriptor:
    """Classify [O, B] from the Jordan structure of the core block.

    Lattice iff every eigenvalue has at most two Jordan blocks; Boolean iff
    every eigenvalue has exactly one (then the whole down-set has 2^s
    elements); any eigenvalue with two blocks already breaks distributivity.
    """
    factors = []
    for e in spec.eigenvalues:
        if e.t == 1:
            kind = TWO_CHAIN
            ranks = sorted({0, e.sizes[0]})
        elif e.t == 2:
            kind = BOUNDED_INFINITE_ANTICHAIN
            ranks = sorted(admissible_ranks(e.sizes[0], e.sizes[1]))
        else:
            kind = NON_LATTICE
            ranks = None
        entry = {"t": e.t, "sizes": list(e.sizes), "kind": kind}
        if ranks is not None:
            entry["rank_classes"] = ranks
        factors.append(tuple(entry.items()))
    is_lattice = all(e.t <= 2 for e in spec.eigenvalues)
    is_boolean = all(e.t == 1 for e in spec.eigenvalues)
    is_distributive = is_boolean
    blocks = sum(e.t for e in spec.eigenvalues)
    return DownsetDescriptor(
        s=spec.s,
        factors=tuple(factors),
        is_lattice=is_lattice,
        is_distributive=is_distributive,
        is_boolean=is_boolean,
        boolean_center_size=2 ** spec.s,
        max_chain_length=blocks + 1,
    )


def boolean_center(spec: JordanSpec):
    """The 2^s central projectors: per eigenvalue, D_j is O or the full
    identity of that eigenvalue's slice."""
    return [CommutantProjector.read(spec, block_choice_projector(spec, bits))
            for bits in center_choices(spec)]


# ----------------------------------------------------------------------
# the non-lattice witness


def non_lattice_witness(spec: JordanSpec, tol=DEFAULT_TOL):
    """Four projectors (T1, T2, T3, T4) commuting with J such that T1 and T2
    have no join and T3 and T4 have no meet.

    Requires some eigenvalue with at least three Jordan blocks; the first
    such eigenvalue (in spec order) is used, and the construction lives in
    its three largest blocks.
    """
    off = 0
    for e in spec.eigenvalues:
        if e.t >= 3:
            break
        off += e.dim
    else:
        raise NoEligibleEigenvalue("no eigenvalue has three or more Jordan blocks")
    a, b, c = e.sizes[:3]

    def ones(i0, j0, k, v=1):
        """v on k diagonal places from (i0, j0) of the target's slice."""
        return [(off + i0 + x, off + j0 + x, v) for x in range(k)]

    # on the leading three blocks, as a 3 x 3 block grid, every T has the
    # block rows [O X O] and [O I_b O] with X = [I_b; O]; the third block
    # rows are T1 [O O O], T2 [O Y O], T3 [O O I_c] with Y = [O I_c], and
    # T4 [Z Y I_c] with Z = [O -I_c] when a = b, else [Z O I_c] with Z = -e_1 e_a^T
    shared = ones(0, a, b) + ones(a, a, b)
    y = ones(a + b, a + b - c, c)
    ic = ones(a + b, a + b, c)
    if a == b:
        t4 = ones(a + b, a - c, c, -1) + y + ic
    else:
        t4 = ones(a + b, a - 1, 1, -1) + ic
    quad = tuple(Matrix.from_entries(spec.r, spec.r, shared + third, spec.mode)
                 for third in ([], y, ic, t4))
    t1, t2, t3, t4 = quad
    j = build_jordan_matrix(spec)
    ok = (all(in_tau(t, j, tol) for t in quad)
          and proj_leq(t1, t3, tol) and proj_leq(t1, t4, tol)
          and proj_leq(t2, t3, tol) and proj_leq(t2, t4, tol)
          and not proj_leq(t1, t2, tol) and not proj_leq(t2, t1, tol)
          and not proj_leq(t3, t4, tol) and not proj_leq(t4, t3, tol))
    if not ok:
        raise PrecondViolated("witness construction failed validation")
    return quad


# ----------------------------------------------------------------------
# intervals and chains


def interval_iso_forward(pproj: Matrix, t1: Matrix, t2: Matrix = None,
                         tol=DEFAULT_TOL) -> Matrix:
    """Map [O, T2 - T1] onto [T1, T2] by P -> P + T1.

    When t2 is supplied, T1 <= T2 (the interval is not empty) and membership
    of pproj in [O, T2 - T1] are enforced.
    """
    if not is_projector(pproj, tol):
        raise PrecondViolated("interval element is not idempotent")
    if t2 is not None:
        if not proj_leq(t1, t2, tol):
            raise PrecondViolated("T1 does not lie below T2: the interval is empty")
        if not proj_leq(pproj, t2 - t1, tol):
            raise PrecondViolated("element does not lie below T2 - T1")
    return pproj + t1


def interval_iso_backward(q: Matrix, t1: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """Inverse map [T1, T2] -> [O, T2 - T1], Q -> Q - T1, for a projector Q
    above T1."""
    if not is_projector(q, tol):
        raise PrecondViolated("interval element is not idempotent")
    if not proj_leq(t1, q, tol):
        raise PrecondViolated("element does not lie above T1")
    return q - t1


def max_chain(hs: HSDecomposition, spec: JordanSpec, tol=DEFAULT_TOL):
    """A maximal chain O < A_1 < ... < A_l = B, one step per Jordan block.

    A_i is phi_inv of P E_i P^-1, with E_i the identity on the first i
    blocks of J and P the spec's similarity matrix (the identity if it has
    none).  The l steps are one stack: psi_choices conjugates them in one
    batched product and phi_inv_stack maps them in another.  Every step is
    still checked against tau, in order, with phi_inv's errors.
    """
    l = len(spec.block_sizes)
    steps = psi_choices(spec, ([1] * i + [0] * (l - i) for i in range(1, l + 1)))
    return [Matrix.zeros(hs.n, hs.n, FLOAT)] + phi_inv_stack(steps, hs, tol)


# ----------------------------------------------------------------------
# the global meet in dimension 2


_ZERO_2 = Matrix.zeros(2, 2, EXACT)


def meet_in_c2(b1: Matrix, b2: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """The infimum of two 2x2 index <= 1 matrices under the sharp order.

    Exact mode only.  A common lower bound A satisfies AD = DA = O for
    D = B1 - B2.  When D has rank 1, x spanning N(D) and y spanning N(D^T),
    that makes a nonzero A equal to c x y^T; A has index 1, so y^T x is not
    0, and A <= B1 fixes A = B1 x y^T / (y^T x).  So the meet is that one
    candidate when it lies below both arguments, and O otherwise: also when
    D is nonsingular, y^T x = 0 or the candidate has index 2.
    """
    if b1.mode != EXACT or b2.mode != EXACT:
        raise NotSupported("meet_in_c2 is exact-mode only")
    if b1.rows != 2 or b2.rows != 2 or not (b1.is_square and b2.is_square):
        raise NonSquare("arguments must be 2x2")
    # sharp_leq raises IndexTooLarge for b1, then for b2, and is True for b1 = b2
    if sharp_leq(b1, b2, tol):
        return b1
    if sharp_leq(b2, b1, tol):
        return b2
    d = b1 - b2
    if d.rank() == 2:
        return _ZERO_2

    def kernel(rows):
        """(-q, p) for the first nonzero row (p, q) of a rank-1 2x2 matrix:
        it spans the kernel, as every row is a multiple of (p, q)."""
        (pr, pi), (qr, qi) = next(row for row in rows if row != ((0, 0), (0, 0)))
        return (-qr, -qi), (pr, pi)

    rows = d._intform[1]
    x0, x1 = kernel(rows)
    x = _over(2, 1, ((x0,), (x1,)), (1, 0))
    y = _over(1, 2, (kernel(zip(*rows)),), (1, 0))
    ((sr, si),), = (y @ x)._intform[1]
    if not (sr or si):
        return _ZERO_2
    db, num = (b1 @ x @ y)._intform
    a = _over(2, 2, num, (db * sr, db * si))
    try:
        below = sharp_leq(a, b1, tol) and sharp_leq(a, b2, tol)
    except IndexTooLarge:  # a nonzero nilpotent candidate lies below nothing
        return _ZERO_2
    return a if below else _ZERO_2
