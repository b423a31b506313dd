"""Solution families for the matrix-equation systems tied to the sharp order:
{BX = XB, X^2 = X} and {XBX = BX, X^2 = X}.

For an EP matrix B the commuting idempotents are exactly U diag(T, W) U*
with T a projector commuting with the core block and W any projector of
complementary size; for nonsingular B they are P T P^-1 with T in the
commutant-projector poset of the Jordan form.
"""

from dataclasses import dataclass

from .commutant import block_choice_projector, center_choices, delta_membership
from .core import DEFAULT_TOL, Matrix, approx_eq, is_projector
from .errors import (
    HypothesisViolated,
    NotEP,
    NotInTau,
    SingularityMismatch,
    WNotProjector,
)
from .hs import HSDecomposition
from .jordan import JordanSpec
from .sharp import in_tau


JORDAN_COMMUTE_IDEMPOTENT = "jordan_commute_idempotent"


@dataclass(frozen=True)
class SolutionFamily:
    """A parameterized family of solutions; members is only populated when
    the family is finite."""

    kind: str
    base: object
    free_part_shape: tuple
    finite_count: int = None
    members: tuple = None


def solve_ep_commute_idempotent(hs: HSDecomposition, t: Matrix, w: Matrix,
                                tol=DEFAULT_TOL) -> Matrix:
    """One solution S = U diag(T, W) U* of {BX = XB, X^2 = X} for EP B.

    B is EP exactly when its L block vanishes; T ranges over projectors
    commuting with the core block and W over projectors of size n - r.
    """
    if hs.L.cols and not hs.L.is_zero(tol):
        raise NotEP("B is not EP (its L block is nonzero)")
    if not in_tau(t, hs.sigma_k(), tol):
        raise NotInTau("T is not an idempotent commuting with the core block")
    if not w.is_square or w.rows != hs.n - hs.r:
        raise WNotProjector(f"W must be {hs.n - hs.r} square")
    if not is_projector(w, tol):
        raise WNotProjector("W is not idempotent")
    return hs.embed(t, z=w)


def split_ep_solution(hs: HSDecomposition, s: Matrix, tol=DEFAULT_TOL):
    """Decompose a claimed solution into its (T, W) parts, validating that
    the off-diagonal couplings vanish."""
    m = hs.U.H @ s @ hs.U
    r, n = hs.r, hs.n
    t = m.block(0, r, 0, r)
    w = m.block(r, n, r, n)
    off1 = m.block(0, r, r, n)
    off2 = m.block(r, n, 0, r)
    if not (off1.is_zero(tol) and off2.is_zero(tol)):
        raise NotInTau("solution couples the core and null slices")
    if not in_tau(t, hs.sigma_k(), tol):
        raise NotInTau("core part is not an idempotent commuting with the core block")
    if n > r and not is_projector(w, tol):
        raise WNotProjector("null-slice part is not idempotent")
    return t, w


def count_solutions(hs: HSDecomposition, spec: JordanSpec, tol=DEFAULT_TOL) -> int:
    """Number of solutions of {BX = XB, X^2 = X} in the finite cases.

    2^s when B is nonsingular with one Jordan block per eigenvalue;
    2^(s+1) when B is EP of rank n - 1 under the same block condition.
    """
    if any(e.t > 1 for e in spec.eigenvalues):
        raise HypothesisViolated("some eigenvalue has more than one Jordan block")
    if hs.r == hs.n:
        return 2 ** spec.s
    if hs.r == hs.n - 1:
        if hs.L.cols and not hs.L.is_zero(tol):
            raise HypothesisViolated("B is singular but not EP")
        return 2 ** (spec.s + 1)
    raise HypothesisViolated("rank deficit exceeds one")


def verify_power_commute(s: Matrix, b: Matrix, kmax: int, tol=DEFAULT_TOL) -> bool:
    """True iff S commutes with B^k for k = 1..kmax."""
    power = b
    for _ in range(kmax):
        if not approx_eq(s @ power, power @ s, tol):
            return False
        power = power @ b
    return True


def solve_xbx_family(hs: HSDecomposition, t: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """One solution S = U diag(T, O) U* of {XBX = BX, X^2 = X}."""
    if not in_tau(t, hs.sigma_k(), tol):
        raise NotInTau("T is not an idempotent commuting with the core block")
    return hs.embed(t)


def solve_jordan_commuting_projectors(p: Matrix, spec: JordanSpec,
                                      tol=DEFAULT_TOL) -> SolutionFamily:
    """The family {P T P^-1 : T idempotent, TJ = JT} of solutions of
    {BX = XB, X^2 = X} for nonsingular B = P J P^-1.

    Finite (2^s members, materialized) exactly when every eigenvalue has a
    single Jordan block.
    """
    if not p.is_square or p.rows != spec.r:
        raise SingularityMismatch("P must match the spec dimension")
    if p.rank(tol) < p.rows:
        raise SingularityMismatch("P is singular")
    mode = spec.mode
    if p.mode != mode:
        raise SingularityMismatch("P and spec modes differ")
    free_shape = (spec.r, spec.r)
    if all(e.t == 1 for e in spec.eigenvalues):
        p_inv = p.inverse()
        members = tuple(p @ block_choice_projector(spec, bits) @ p_inv
                        for bits in center_choices(spec))
        return SolutionFamily(JORDAN_COMMUTE_IDEMPOTENT, (p, spec), free_shape,
                              finite_count=2 ** spec.s, members=members)
    return SolutionFamily(JORDAN_COMMUTE_IDEMPOTENT, (p, spec), free_shape)


def jordan_family_member(family: SolutionFamily, t: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """Materialize P T P^-1 for a given commutant projector T."""
    p, spec = family.base
    if not delta_membership(t, spec, tol):
        raise NotInTau("T is not a commutant projector for the spec")
    return p @ t @ p.inverse()
