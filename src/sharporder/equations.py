"""Solution families for the matrix-equation systems tied to the sharp order:
{BX = XB, X^2 = X} and {XBX = BX, X^2 = X}.

For B = U [[SK, SL], [O, O]] U* of index <= 1, EP or not, the commuting
idempotents are exactly U [[T, TM - MW], [O, W]] U* with M = K^-1 L, T a
projector commuting with the core block and W any projector of size n - r:
Q diag(T, W) Q^-1 with Q = U [[I, -M], [O, I]], which carries B to
U diag(SK, O) U*.  For nonsingular B they are P T P^-1 with T in the
commutant-projector poset of the Jordan form.

The families but the Jordan one are built on a Hartwig-Spindelbock
decomposition, which is float only, so this module imports numpy and the
float backend at module level.
"""

import numpy as np

from .commutant import block_choice_projector, delta_membership
from .core import DEFAULT_TOL, Matrix, _Frozen, approx_eq, in_tau, is_projector
from .errors import (HypothesisViolated, NotInTau, PrecondViolated, SingularityMismatch,
                     WNotProjector)
from .floatmatrix import outside_tau, slices
from .hs import HSDecomposition
from .jordan import JordanSpec, center_choices
from .sharp import psi, psi_choices


class SolutionFamily(_Frozen):
    """The solutions P T P^-1 of {BX = XB, X^2 = X}: base is (P, spec);
    finite_count and members, the 2^s solutions, are None unless the family
    is finite."""

    __slots__ = _fields = ("base", "finite_count", "members")


def _core_finite_count(hs: HSDecomposition, spec: JordanSpec):
    """_finite_count for the B that hs decomposes, after PrecondViolated
    when the spec is not of the core block's size r: count_solutions and
    finite_solutions both make that check here."""
    if spec.r != hs.r:
        raise PrecondViolated("spec does not describe the core block of B")
    return _finite_count(hs.n, spec)


def _finite_count(n, spec: JordanSpec):
    """The number of solutions of {BX = XB, X^2 = X} for an n x n B whose
    core block spec describes, when it is finite, else None: 2^(s + n - r)
    when each eigenvalue has one Jordan block and r >= n - 1."""
    if all(e.t == 1 for e in spec.eigenvalues) and spec.r >= n - 1:
        return 2 ** (spec.s + n - spec.r)
    return None


def _members(hs: HSDecomposition, ts, ws, tol):
    """U [[T, TM - MW], [O, W]] U* with M = K^-1 L for each pair of slices of
    a (k, r, r) stack T and a (k, n - r, n - r) stack W, in one batched
    product: a (k, n, n) array.  SingularK when B has index greater than 1;
    K keeps its inverse, so a decomposition inverts it once."""
    hs.require_index_le_one(tol)
    m = (hs.K.inverse() @ hs.L).array
    return hs.embed_stack(ts, ts @ m - m @ ws, ws)


def solve_ep_commute_idempotent(hs: HSDecomposition, t: Matrix, w: Matrix,
                                tol=DEFAULT_TOL) -> Matrix:
    """One solution U [[T, TM - MW], [O, W]] U* of {BX = XB, X^2 = X}; B need
    not be EP (for EP B, M = O and the solution is U diag(T, W) U*).

    T ranges over projectors commuting with the core block and W over
    projectors of size n - r.  The 1-stack of finite_solutions' product.
    """
    if not in_tau(t, hs.sigma_k(), tol):
        raise NotInTau("T is not an idempotent commuting with the core block")
    if not w.is_square or w.rows != hs.n - hs.r:
        raise WNotProjector(f"W must be {hs.n - hs.r} square")
    if not is_projector(w, tol):
        raise WNotProjector("W is not idempotent")
    return slices(_members(hs, t.array[None], w.array[None], tol))[0]


def split_ep_solution(hs: HSDecomposition, s: Matrix, tol=DEFAULT_TOL):
    """Decompose a claimed solution S into its (T, W) parts, the diagonal
    blocks of U* S U: they are checked as solve_ep_commute_idempotent checks
    them, and S must be the solution they give.  B need not be EP."""
    m = hs.U.H @ s @ hs.U
    r, n = hs.r, hs.n
    t = m.block(0, r, 0, r)
    w = m.block(r, n, r, n)
    if not approx_eq(s, solve_ep_commute_idempotent(hs, t, w, tol), tol):
        raise NotInTau("solution is not U [[T, TM - MW], [O, W]] U* of its diagonal blocks")
    return t, w


def count_solutions(hs: HSDecomposition, spec: JordanSpec, tol=DEFAULT_TOL) -> int:
    """Number of solutions of {BX = XB, X^2 = X} in the finite cases, for a
    spec of the core block: 2^s when B is nonsingular with one Jordan block
    per eigenvalue, 2^(s+1) when B has rank n - 1 under the same block
    condition, EP or not.  SingularK when B has index greater than 1."""
    count = _core_finite_count(hs, spec)
    if count is None:
        raise HypothesisViolated("B needs one Jordan block per eigenvalue and rank >= n - 1")
    hs.require_index_le_one(tol)
    return count


def finite_solutions(hs: HSDecomposition, spec: JordanSpec, tol=DEFAULT_TOL):
    """The members U [[T, TM - MW], [O, W]] U* of a finite family, or None: T
    over psi of the Boolean center and, for each T, W = O then I of size
    n - r (one empty W when r = n), in one batched product.  NotInTau at
    the first T outside tau, as in solve_ep_commute_idempotent.
    """
    if _core_finite_count(hs, spec) is None:
        return None
    centers = psi_choices(spec, center_choices(spec))
    if outside_tau(centers, hs.sigma_k().array, tol) is not None:
        raise NotInTau("T is not an idempotent commuting with the core block")
    ws = np.array([[[0]], [[1]]] if hs.r < hs.n else [np.zeros((0, 0))], dtype=complex)
    x = np.repeat(centers, len(ws), axis=0)
    return slices(_members(hs, x, np.tile(ws, (len(centers), 1, 1)), tol))


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
    if p.mode != spec.mode:
        raise SingularityMismatch("P and spec modes differ")
    if all(e.t == 1 for e in spec.eigenvalues):
        members = tuple(psi(block_choice_projector(spec, bits), p)
                        for bits in center_choices(spec))
        return SolutionFamily(base=(p, spec), finite_count=2 ** spec.s, members=members)
    return SolutionFamily(base=(p, spec), finite_count=None, members=None)


def jordan_family_member(family: SolutionFamily, t: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """Materialize P T P^-1 for a given commutant projector T."""
    p, spec = family.base
    if not delta_membership(t, spec, tol):
        raise NotInTau("T is not a commutant projector for the spec")
    return psi(t, p)
