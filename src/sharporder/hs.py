"""Hartwig-Spindelbock decomposition B = U [[SK, SL], [O, O]] U*, and the
similarity Q = U [[I, -K^-1 L], [O, I]] with B = Q diag(SK, O) Q^-1.

Float mode only: the singular values are algebraic irrationals in general,
so exact-mode pipelines enter through Jordan data instead.  This module
therefore imports numpy and the float backend at module level, and the
modules that serve both modes import it only where a float path needs it.

B keeps its decomposition, as it keeps its SVD: the down-set [O, B] of one B
is studied through this one decomposition, so hs_decompose, the float group
inverse and every down-set query on B share one SVD, the inverses and
singular values that SK and K keep, and one Q.
"""

import sys

import numpy as np

from .core import (DEFAULT_TOL, FLOAT, Matrix, _Frozen, _kept, approx_eq, in_tau, matrix_from_obj,
                   matrix_to_obj, numerical_rank, singular_values, svd)
from .errors import MalformedInput, NotInTau, NotSupported, SingularK, ZeroMatrix
from .floatmatrix import _wrap


class HSDecomposition(_Frozen):
    """(U, sigma, K, L, r) with U unitary, KK* + LL* = I_r, r = rank(B).

    With F = U[:, :r], C = SK and M = K^-1 L, B = F (C E) for the rows
    C E = [SK, SL] U*, and B = Q diag(C, O) Q^-1 for the similarity
    Q = U [[I, -M], [O, I]], Q^-1 = [[I, M], [O, I]] U*: each float map on
    the down-set of B is F X (C E), F X F* or Q diag(X, Z) Q^-1."""

    _fields = ("U", "sigma", "K", "L", "r")
    # _q, the pair (Q, Q^-1), stays unset until similarity makes it
    __slots__ = _fields + ("_sk", "_ce", "_q")
    # unhashable, as its Matrix fields are
    __hash__ = None

    def __init__(self, U: Matrix, sigma: tuple, K: Matrix, L: Matrix, r: int):
        # SK and C E = Sigma [K, L] U*: rows scaled by sigma, with no K^-1
        s = np.array(sigma, dtype=float).reshape(-1, 1)
        super().__init__(U=U, sigma=sigma, K=K, L=L, r=r, _sk=_wrap(s * K.array),
                         _ce=_wrap(s * np.hstack((K.array, L.array)) @ U.array.conj().T))

    @property
    def n(self):
        return self.U.rows

    def sigma_k(self) -> Matrix:
        """The r x r core block C; nonsingular iff B has index <= 1."""
        return self._sk

    def ce(self) -> Matrix:
        """The r x n rows C E = [SK, SL] U*, with B = F (C E)."""
        return self._ce

    def similarity(self, tol=DEFAULT_TOL):
        """(Q, Q^-1), made on the first call and kept; SingularK unless
        index_le_one, as Q needs K^-1."""
        self.require_index_le_one(tol)
        return _kept(self, "_q", _similarity)

    def conjugate_stack(self, x, z=None, tol=DEFAULT_TOL):
        """Q diag(X, Z) Q^-1 for each slice of a (k, r, r) complex stack X
        and a (k, n - r, n - r) stack Z, None standing for O, in one batched
        product: a (k, n, n) array, or one n x n array for 2-d X and Z.
        SingularK unless index_le_one."""
        q, q_inv = (m.array for m in self.similarity(tol))
        out = q[:, :self.r] @ x @ q_inv[:self.r]
        return out if z is None else out + q[:, self.r:] @ z @ q_inv[self.r:]

    def index_le_one(self, tol=DEFAULT_TOL) -> bool:
        """SK nonsingular, cut against sigma_1 of B: an SK of rounding noise
        is O however well conditioned it is on its own scale.  SK keeps its
        singular values, so each call after the first only cuts them."""
        top = max(self.sigma, default=0.0)
        return numerical_rank(singular_values(self._sk), tol, top) == self.r

    def require_index_le_one(self, tol=DEFAULT_TOL):
        """SingularK unless index_le_one: the one guard of every map that
        inverts SK or K (phi, phi_inv, similarity, the group inverse)."""
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


def _similarity(d: HSDecomposition):
    """(Q, Q^-1) for HSDecomposition.similarity: with F = U[:, :r],
    G = U[:, r:] and M = K^-1 L, Q = [F, G - F M] and Q^-1 = [F* + M G*; G*].
    The one place K is inverted; K keeps its inverse."""
    f, g = d.U.array[:, :d.r], d.U.array[:, d.r:]
    m = (d.K.inverse() @ d.L).array
    return (_wrap(np.hstack((f, g - f @ m))),
            _wrap(np.vstack((f.conj().T + m @ g.conj().T, g.conj().T))))


def hs_reconstruct(d: HSDecomposition) -> Matrix:
    """B = F (C E) from its decomposition."""
    return _wrap(d.U.array[:, :d.r] @ d.ce().array)


def predecessor_block_group_inverse(d: HSDecomposition, t: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """Group inverse of the predecessor with projector t: since
    (T SK)# = (SK)^-1 T, it is Q diag((SK)^-1 T, O) Q^-1."""
    if not in_tau(t, d.sigma_k(), tol):
        raise NotInTau("T is not an idempotent commuting with SK")
    return _block_group_inverse(d, t, tol)


def _block_group_inverse(d: HSDecomposition, t: Matrix, tol=DEFAULT_TOL) -> Matrix:
    """predecessor_block_group_inverse for a t already known to be in tau,
    unchecked: SingularK when SK is singular.  SK keeps its inverse and the
    decomposition its Q, so a decomposition inverts SK and K once each."""
    d.require_index_le_one(tol)
    return _wrap(d.conjugate_stack((d.sigma_k().inverse() @ t).array, tol=tol))


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
