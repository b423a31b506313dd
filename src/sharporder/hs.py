"""Hartwig-Spindelbock decomposition B = U [[SK, SL], [O, O]] U*.

Float mode only: the singular values are algebraic irrationals in general,
so exact-mode pipelines enter through Jordan data instead.
"""

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, FLOAT, Matrix, approx_eq, matrix_from_obj, matrix_to_obj, svd
from .errors import MalformedInput, NotInTau, NotSupported, SingularK, ZeroMatrix


@dataclass(frozen=True)
class HSDecomposition:
    """(U, sigma, K, L, r) with U unitary, KK* + LL* = I_r, r = rank(B)."""

    U: Matrix
    sigma: tuple
    K: Matrix
    L: Matrix
    r: int

    @property
    def n(self):
        return self.U.rows

    def sigma_matrix(self) -> Matrix:
        return Matrix.diag(list(self.sigma), FLOAT)

    def sigma_k(self) -> Matrix:
        """The r x r core block; nonsingular iff B has index <= 1."""
        return self.sigma_matrix() @ self.K

    def sigma_l(self) -> Matrix:
        return self.sigma_matrix() @ self.L

    def embed(self, x: Matrix, y: Matrix = None, z: Matrix = None) -> Matrix:
        """U [[X, Y], [O, Z]] U* with X r x r, Y r x (n-r) and Z (n-r) x (n-r);
        None stands for a zero block."""
        r = self.r
        inner = np.zeros((self.n, self.n), dtype=complex)
        inner[:r, :r] = x.array
        if y is not None:
            inner[:r, r:] = y.array
        if z is not None:
            inner[r:, r:] = z.array
        u = self.U.array
        return Matrix.floating(u @ inner @ u.conj().T)

    def index_le_one(self, tol=DEFAULT_TOL) -> bool:
        return self.sigma_k().rank(tol) == self.r

    def validate(self, b: Matrix, tol=DEFAULT_TOL) -> bool:
        n, r = self.n, self.r
        ident = Matrix.identity(r, FLOAT)
        ok_u = approx_eq(self.U.H @ self.U, Matrix.identity(n, FLOAT), tol)
        ok_kl = approx_eq(self.K @ self.K.H + self.L @ self.L.H, ident, tol)
        ok_rec = approx_eq(hs_reconstruct(self), b, tol)
        return ok_u and ok_kl and ok_rec


def hs_decompose(b: Matrix, tol=DEFAULT_TOL) -> HSDecomposition:
    """Decompose a nonzero square float matrix.

    Construction: SVD b = W diag(sigma, 0) V*, then [K L] is the first r rows
    of V* W and U = W.
    """
    b.require_square()
    if b.mode != FLOAT:
        raise NotSupported("hs_decompose is float-mode only")
    n = b.rows
    w, sigma, v = svd(b)
    if not sigma or sigma[0] == 0.0:
        raise ZeroMatrix("the zero matrix has no Hartwig-Spindelbock decomposition")
    cut = tol.rank_threshold_factor * sigma[0]
    r = sum(1 for s in sigma if s > cut)
    kl = (v.H @ w).block(0, r, 0, n)
    return HSDecomposition(
        U=w,
        sigma=tuple(sigma[:r]),
        K=kl.block(0, r, 0, r),
        L=kl.block(0, r, r, n),
        r=r,
    )


def hs_reconstruct(d: HSDecomposition) -> Matrix:
    """B from its decomposition."""
    return d.embed(d.sigma_k(), d.sigma_l())


def predecessor_expand(d: HSDecomposition, t: Matrix) -> Matrix:
    """A = U [[T SK, T SL], [O, O]] U* for a projector T commuting with SK."""
    return d.embed(t @ d.sigma_k(), t @ d.sigma_l())


def predecessor_block_group_inverse(d: HSDecomposition, t: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """Group inverse of the predecessor with projector t.

    Uses (T SK)# = (SK)^-1 T, so the result is
    U [[(SK)^-1 T, (SK)^-1 T K^-1 L], [O, O]] U*.
    """
    from .core import is_projector

    if not is_projector(t, tol):
        raise NotInTau("T is not idempotent")
    sk = d.sigma_k()
    if sk.rank(tol) < d.r:
        raise SingularK("SK singular: B has index greater than 1")
    sk_inv = sk.inverse()
    if not approx_eq(t @ sk, sk @ t, tol):
        raise NotInTau("T does not commute with SK")
    head = sk_inv @ t
    return d.embed(head, head @ d.K.inverse() @ d.L)


# ----------------------------------------------------------------------
# JSON


def hs_to_obj(d: HSDecomposition):
    return {
        "U": matrix_to_obj(d.U),
        "sigma": [float(s) for s in d.sigma],
        "K": matrix_to_obj(d.K),
        "L": matrix_to_obj(d.L),
        "r": d.r,
    }


def hs_from_obj(obj) -> HSDecomposition:
    try:
        d = HSDecomposition(
            U=matrix_from_obj(obj["U"]),
            sigma=tuple(float(s) for s in obj["sigma"]),
            K=matrix_from_obj(obj["K"]),
            L=matrix_from_obj(obj["L"]),
            r=int(obj["r"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad HS decomposition object: {exc}") from exc
    n, r = d.U.rows, d.r
    if not (d.U.is_square and len(d.sigma) == r and (d.K.rows, d.K.cols) == (r, r)
            and (d.L.rows, d.L.cols) == (r, n - r)):
        raise MalformedInput("HS decomposition blocks do not fit U and r")
    return d
