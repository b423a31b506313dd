"""Hartwig-Spindelbock decomposition B = U [[SK, SL], [O, O]] U*.

Float mode only: the singular values are algebraic irrationals in general,
so exact-mode pipelines enter through Jordan data instead.  This module
therefore imports numpy and the float backend at module level, and the
modules that serve both modes import it only where a float path needs it.

B keeps its decomposition, as it keeps its SVD: the down-set [O, B] of one B
is studied through this one decomposition, so hs_decompose, the float group
inverse and every down-set query on B share one SVD, and the inverses and
singular values that SK and K keep.
"""

import sys

import numpy as np

from .core import (DEFAULT_TOL, FLOAT, Matrix, _Frozen, _kept, approx_eq, in_tau, matrix_from_obj,
                   matrix_to_obj, numerical_rank, singular_values, svd)
from .errors import MalformedInput, NotInTau, NotSupported, SingularK, ZeroMatrix
from .floatmatrix import _wrap, slices


class HSDecomposition(_Frozen):
    """(U, sigma, K, L, r) with U unitary, KK* + LL* = I_r, r = rank(B)."""

    _fields = ("U", "sigma", "K", "L", "r")
    __slots__ = _fields + ("_sk", "_sl")

    def __init__(self, U: Matrix, sigma: tuple, K: Matrix, L: Matrix, r: int):
        # Sigma K and Sigma L: the rows of K and L scaled by sigma
        s = np.array(sigma, dtype=float).reshape(-1, 1)
        super().__init__(U=U, sigma=sigma, K=K, L=L, r=r, _sk=_wrap(s * K.array),
                         _sl=_wrap(s * L.array))

    @property
    def n(self):
        return self.U.rows

    def sigma_matrix(self) -> Matrix:
        return Matrix.diag(list(self.sigma), FLOAT)

    def sigma_k(self) -> Matrix:
        """The r x r core block; nonsingular iff B has index <= 1."""
        return self._sk

    def sigma_l(self) -> Matrix:
        return self._sl

    def embed(self, x: Matrix, y: Matrix = None, z: Matrix = None) -> Matrix:
        """U [[X, Y], [O, Z]] U* with X r x r, Y r x (n-r) and Z (n-r) x (n-r);
        None stands for a zero block.  The 1-stack of embed_stack."""
        return slices(self.embed_stack(*(None if m is None else m.array[None]
                                         for m in (x, y, z))))[0]

    def embed_stack(self, x, y=None, z=None):
        """embed of each slice of (k, ., .) complex stacks X, Y and Z, in one
        batched product: a (k, n, n) array."""
        r = self.r
        inner = np.zeros((len(x), self.n, self.n), dtype=complex)
        inner[:, :r, :r] = x
        if y is not None:
            inner[:, :r, r:] = y
        if z is not None:
            inner[:, r:, r:] = z
        u = self.U.array
        return u @ inner @ u.conj().T

    def index_le_one(self, tol=DEFAULT_TOL) -> bool:
        """SK nonsingular, cut against sigma_1 of B: an SK of rounding noise
        is O however well conditioned it is on its own scale.  SK keeps its
        singular values, so each call after the first only cuts them."""
        top = max(self.sigma, default=0.0)
        return numerical_rank(singular_values(self._sk), tol, top) == self.r

    def require_index_le_one(self, tol=DEFAULT_TOL):
        """SingularK unless index_le_one: the one guard of every map that
        inverts SK (phi, phi_inv, extend_to_nonsingular, the group inverse)."""
        if not self.index_le_one(tol):
            raise SingularK("SK singular: B has index greater than 1")

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
    of V* W and U = W.  b keeps one decomposition per rank: a call returns
    the one of the r that its tolerance's rank cut gives, built and kept on
    the first call that gives that r.
    """
    b.require_square()
    if b.mode != FLOAT:
        raise NotSupported("hs_decompose is float-mode only")
    n = b.rows
    w, sigma, v = svd(b)
    r = numerical_rank(sigma, tol)
    if r == 0:
        raise ZeroMatrix("the zero matrix has no Hartwig-Spindelbock decomposition")
    kept = _kept(b, "_hs", lambda _: {})
    if r not in kept:
        kl = (v.H @ w).block(0, r, 0, n)
        kept[r] = HSDecomposition(
            U=w,
            sigma=tuple(sigma[:r]),
            K=kl.block(0, r, 0, r),
            L=kl.block(0, r, r, n),
            r=r,
        )
    return kept[r]


def hs_reconstruct(d: HSDecomposition) -> Matrix:
    """B from its decomposition."""
    return d.embed(d.sigma_k(), d.sigma_l())


def predecessor_block_group_inverse(d: HSDecomposition, t: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """Group inverse of the predecessor with projector t.

    Uses (T SK)# = (SK)^-1 T, so the result is
    U [[(SK)^-1 T, (SK)^-1 T K^-1 L], [O, O]] U*.
    """
    if not in_tau(t, d.sigma_k(), tol):
        raise NotInTau("T is not an idempotent commuting with SK")
    return _block_group_inverse(d, t, tol)


def _block_group_inverse(d: HSDecomposition, t: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """predecessor_block_group_inverse for a t already known to be in tau,
    unchecked: SingularK when SK is singular, else U [[H, H K^-1 L], [O, O]]
    U* with H = (SK)^-1 T.  SK and K keep their inverses, so a decomposition
    inverts each once."""
    d.require_index_le_one(tol)
    head = d.sigma_k().inverse() @ t
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
        u = matrix_from_obj(obj["U"])
        sigma = obj["sigma"]
        k = matrix_from_obj(obj["K"])
        l_ = matrix_from_obj(obj["L"])
        r = obj["r"]
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"bad HS decomposition object: {exc}") from exc
    # as in matrix_from_obj, JSON true is ruled out by type; the bound rules
    # out NaN, infinities and ints too large for a float
    if not (type(r) is int and r >= 0 and isinstance(sigma, list)
            and all(type(s) in (int, float) and 0 < s <= sys.float_info.max for s in sigma)):
        raise MalformedInput("r must be a non-negative integer and sigma finite positive numbers")
    sigma = tuple(float(s) for s in sigma)
    n = u.rows
    if not (u.is_square and len(sigma) == r and (k.rows, k.cols) == (r, r)
            and (l_.rows, l_.cols) == (r, n - r)
            and u.mode == k.mode == l_.mode == FLOAT):
        raise MalformedInput("HS decomposition blocks do not fit U and r")
    return HSDecomposition(U=u, sigma=sigma, K=k, L=l_, r=r)
