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
from .core import (DEFAULT_TOL, EXACT, FLOAT, Matrix, _over, approx_eq, exact_rref, in_tau,
                   is_projector)
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
from .ginv import index_le_one, moore_penrose
from .hs import HSDecomposition, hs_reconstruct
from .jordan import JordanSpec, build_jordan_matrix
from .sharp import phi, phi_inv_stack, proj_leq, psi_choices, sharp_leq, sharp_leq_unchecked


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
_E1 = Matrix.exact([[1], [0]])


def _kernel_vec_2(m: Matrix):
    """A nonzero kernel vector of an exact 2x2 rank-1 matrix, as a 2x1 Matrix."""
    red, pivots = exact_rref(m)
    if pivots == [0]:
        # the RREF's first row is [1 c] = [d c'] / d, so (-c, 1) = (-c', d) / d
        d, ((_, (cr, ci)), _) = red._intform
        return _over(2, 1, (((-cr, -ci),), ((d, 0),)), (d, 0))
    # pivot in column 1 (or no pivot): e1 is in the kernel
    return _E1


def meet_in_c2(b1: Matrix, b2: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """The infimum of two 2x2 index <= 1 matrices under the sharp order.

    Exact mode only.  Any nonzero common lower bound A satisfies
    A(B1-B2) = (B1-B2)A = O, which in dimension 2 pins A down to a single
    rank-1 candidate built from a shared eigenpair; otherwise the meet is O.
    """
    if b1.mode != EXACT or b2.mode != EXACT:
        raise NotSupported("meet_in_c2 is exact-mode only")
    if b1.rows != 2 or b2.rows != 2 or not (b1.is_square and b2.is_square):
        raise NonSquare("arguments must be 2x2")
    if not index_le_one(b1, tol):
        raise IndexTooLarge("first argument has index > 1")
    if not index_le_one(b2, tol):
        raise IndexTooLarge("second argument has index > 1")
    if b1 == b2:
        return b1
    # both arguments are validated above, so the unchecked predicate
    # suffices for the comparability shortcuts
    if sharp_leq_unchecked(b1, b2, tol):
        return b1
    if sharp_leq_unchecked(b2, b1, tol):
        return b2
    d = b1 - b2
    if d.rank() == 2:
        return _ZERO_2
    x0 = _kernel_vec_2(d)
    y0 = _kernel_vec_2(d.T)
    w = b1 @ x0
    # proportionality w = mu * x0
    if not (w[0, 0] * x0[1, 0] - w[1, 0] * x0[0, 0]).is_zero():
        return _ZERO_2
    mu = w[0, 0] / x0[0, 0] if not x0[0, 0].is_zero() else w[1, 0] / x0[1, 0]
    if mu.is_zero():
        return _ZERO_2
    v = b1.T @ y0
    if not approx_eq(v, y0.scale(mu)):
        return _ZERO_2
    inner = (y0.T @ x0)[0, 0]
    if inner.is_zero():
        return _ZERO_2
    a = (x0 @ y0.T).scale(mu / inner)
    if sharp_leq(a, b1, tol) and sharp_leq(a, b2, tol):
        return a
    return _ZERO_2
