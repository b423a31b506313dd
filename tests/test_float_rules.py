"""The float rules' one-norm acceptance against the full rules it stands in
front of.

approx_eq, is_projector, in_tau and phi_inv_stack first try a sufficient
form of their rule that needs one norm fewer: ||x - y|| <= rel * max(1, ||x||)
for closeness and ||T T - T|| <= rel for idempotence.  Only a near miss or
a non-finite norm takes the full rule.  The reference below is the full
rule alone, as each predicate decided it before the acceptance was added:
three norms per closeness test and two per idempotence test, and where
||T|| overflows, the closeness rule between T T and T.  Every verdict
must agree, and every error must be of the same type.  Warnings are errors
here, as in the rest of the suite, and count as outcomes: an overflow or an
inf - inf that only the one-norm form meets fails the test."""

from math import inf, isfinite, sqrt

import numpy as np
import pytest

from sharporder import Matrix, approx_eq, hs_decompose, is_projector
from sharporder.core import DEFAULT_TOL, Tolerance, in_tau
from sharporder.errors import MalformedInput, NotInTau, SharpOrderError
from sharporder.sharp import phi_inv_stack

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TOLS = [DEFAULT_TOL, Tolerance(rel=1e-7)]


# ----------------------------------------------------------------------
# the full rules, three norms per closeness test


def ref_fro(a):
    x = a.ravel(order="K")
    try:
        return sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    except RuntimeWarning:
        return inf


def ref_close(x, y, tol):
    nx, ny = ref_fro(x), ref_fro(y)
    if not (isfinite(nx) and isfinite(ny)):
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise MalformedInput("approx_eq of a matrix with non-finite entries")
        s = max(float(abs(p).max()) for p in (x.real, x.imag, y.real, y.imag))
        x, y = x / s, y / s
        return ref_fro(x - y) <= tol.rel * max(1.0 / s, ref_fro(x), ref_fro(y))
    return ref_fro(x - y) <= tol.rel * max(1.0, nx, ny)


def ref_is_projector(t, tol):
    nt = ref_fro(t)
    if isfinite(nt) or not np.isfinite(t).all():
        return ref_fro(t @ t - t) <= tol.rel * max(1.0, nt ** 2)
    # ||T|| overflowed: approx_eq's rule between T T and T
    tt = t @ t
    return bool(np.isfinite(tt).all()) and ref_close(tt, t, tol)


def ref_in_tau(t, sk, tol):
    return ref_is_projector(t, tol) and ref_close(t @ sk, sk @ t, tol)


def outcome(f, *args):
    """f's verdict, or the type of the library error or numpy warning (an
    error here) that it raised."""
    try:
        return f(*args)
    except (SharpOrderError, RuntimeWarning) as exc:
        return type(exc)


# ----------------------------------------------------------------------
# inputs


def _unit(rng, shape):
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z / np.linalg.norm(z)


# sqrt of the largest float: a norm at or above it overflows
EDGE = 1.3407807929942596e154


def _norm(a):
    """||a||_F without overflow, through a copy scaled by its largest part."""
    m = float(abs(a).max()) or 1.0
    return m * float(np.linalg.norm(a / m))


def _pair_at(x, v, factor, tol):
    """y = x + delta v (v of unit norm), delta set so that ||x - y|| is
    factor times the full rule's bound rel * max(1, ||x||, ||y||)."""
    y = x
    for _ in range(3):  # the bound moves with y; three rounds settle it
        y = x + factor * tol.rel * max(1.0, _norm(x), _norm(y)) * v
    return y


def close_pairs():
    """Pairs just under and just over the closeness bound, both ways round,
    with ||x|| from 0 to 1e300: ||x|| < 1 < ||y|| and ||x|| > 1 > ||y|| occur
    just below and just above 1, one norm overflows and the other does not
    just below EDGE, both overflow with every part near 1e154, and at 1e300.
    Then inf and NaN in x, in y and in both."""
    rng = np.random.default_rng(41)
    pairs = []
    for tol in TOLS:
        for scale in (0.0, 1e-3, 1 - 0.5 * tol.rel, 1.0, 3.0, 1e5, 1e150,
                      EDGE * (1 - 2e-10), 3 * EDGE, 1e300):
            for factor in (0.5, 0.99, 1.01, 2.0):
                u = _unit(rng, (3, 3))
                # v leans along x, so that ||y|| grows past ||x||
                v = u + 0.5 * _unit(rng, (3, 3))
                y = _pair_at(scale * u, v / np.linalg.norm(v), factor, tol)
                pairs += [(scale * u, y, tol), (y, scale * u, tol)]
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        x = np.eye(2, dtype=complex)
        y = x.copy()
        y[0, 1] = bad
        pairs += [(x, y, DEFAULT_TOL), (y, x, DEFAULT_TOL), (y, y.copy(), DEFAULT_TOL)]
    return pairs


def _at_bound(f, residual):
    """The size eps at which residual(eps) = (res, bound) has res = f *
    bound, found by rescaling eps: res grows about linearly with eps."""
    eps = 1e-9
    for _ in range(4):
        res, bound = residual(eps)
        eps *= f * bound / res
    return eps


def near_projectors(rng, r, count):
    """Oblique projectors Q diag(bits) Q^-1 of size r, each perturbed by a
    random direction at a size from a grid across the idempotence bound."""
    out = []
    for k in range(count):
        q = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        t = q @ np.diag(rng.integers(0, 2, r).astype(complex)) @ np.linalg.inv(q)
        out.append(t + 10.0 ** (-12 + 6 * k / count) * _unit(rng, (r, r)))
    return out


# ----------------------------------------------------------------------
# the tests


def test_approx_eq_agrees_with_the_full_rule():
    seen = set()
    for x, y, tol in close_pairs():
        want = outcome(ref_close, x, y, tol)
        assert outcome(approx_eq, Matrix.floating(x), Matrix.floating(y), tol) == want
        seen.add(want)
    # the pairs straddle the bound and reach the error
    assert seen == {True, False, MalformedInput}


def test_is_projector_agrees_with_the_full_rule():
    rng = np.random.default_rng(43)
    ts = near_projectors(rng, 4, 60)
    # just under and just over the bound rel * max(1, ||T||^2), for T near O
    # (where the one-norm form and the full rule share the bound), near an
    # orthogonal projector and near oblique ones (where they do not)
    bases = (np.zeros((3, 3)), np.diag([1.0, 0, 0]), np.array([[1, 2, 0], [0, 0, 0], [0, 0, 1]]),
             np.array([[1, 0, 0], [1e4, 0, 0], [0, 0, 0]]))
    for tol in TOLS:
        for p in bases:
            n = _unit(rng, (3, 3))

            def residual(e):
                t = p + e * n
                return np.linalg.norm(t @ t - t), tol.rel * max(1.0, np.linalg.norm(t) ** 2)

            ts += [p + _at_bound(f, residual) * n for f in (0.99, 1.01)]
    for c in (1e150, 1e154, 1e160, 1e300):
        ts += [np.array([[1, c], [0, 0]], dtype=complex),
               np.array([[1, c], [0, 1e-3]], dtype=complex)]
    for bad in (np.nan, np.inf):
        ts.append(np.array([[1, bad], [0, 0]], dtype=complex))
    seen = set()
    for t in ts:
        for tol in TOLS:
            want = outcome(ref_is_projector, t, tol)
            assert outcome(is_projector, Matrix.floating(t), tol) == want
            seen.add(want)
    assert {True, False} <= seen


def _commuting_cases(rng, r, count):
    """(T, SK) pairs: SK = Q diag(lambda) Q^-1 and T = Q diag(bits) Q^-1,
    then T moved off the commutant and off idempotence by sizes from a grid
    across both bounds."""
    out = []
    for k in range(count):
        q = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        qi = np.linalg.inv(q)
        sk = q @ np.diag(rng.standard_normal(r) + 2.0) @ qi
        t = q @ np.diag(rng.integers(0, 2, r).astype(complex)) @ qi
        out.append((t + 10.0 ** (-13 + 6 * k / count) * _unit(rng, (r, r)), sk))
    return out


def test_in_tau_agrees_with_the_full_rule():
    rng = np.random.default_rng(47)
    seen = set()
    for t, sk in _commuting_cases(rng, 4, 80):
        for tol in TOLS:
            want = outcome(ref_in_tau, t, sk, tol)
            assert outcome(in_tau, Matrix.floating(t), Matrix.floating(sk), tol) == want
            seen.add(want)
    assert seen == {True, False}
    # T an exact projector and SK moved off its commutant, to just under and
    # just over the bound rel * max(1, ||T SK||, ||SK T||)
    for tol in TOLS:
        for t in (np.diag([1.0, 0, 0]), np.array([[1.0, 3, 0], [0, 0, 0], [0, 0, 1]])):
            t = t.astype(complex)
            base = np.diag([2.0, 3.0, 2.0]) @ t + (np.eye(3) - t)
            m = _unit(rng, (3, 3))

            def residual(e):
                x, y = t @ (base + e * m), (base + e * m) @ t
                return np.linalg.norm(x - y), tol.rel * max(1.0, np.linalg.norm(x),
                                                            np.linalg.norm(y))

            for f in (0.99, 1.01):
                sk = base + _at_bound(f, residual) * m
                want = outcome(ref_in_tau, t, sk, tol)
                assert outcome(in_tau, Matrix.floating(t), Matrix.floating(sk), tol) == want
                seen.add((f, want))
    assert {(0.99, True), (1.01, False)} <= seen
    sk = np.diag([2.0, 3.0]).astype(complex)
    for bad in (np.nan, np.inf):
        t = np.diag([1.0, 0.0]).astype(complex)
        t[1, 0] = bad
        want = outcome(ref_in_tau, t, sk, DEFAULT_TOL)
        assert outcome(in_tau, Matrix.floating(t), Matrix.floating(sk)) == want


def test_phi_inv_stack_agrees_with_the_full_rule():
    # B = diag(C, 0) with C diagonalizable: the projectors in tau(SK) are
    # SK's eigenprojector sums, and each stack holds four of them and one
    # moved off tau by a size from a grid across both bounds, in the middle
    rng = np.random.default_rng(53)
    r = 3
    q = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    b = np.zeros((r + 1, r + 1), dtype=complex)
    b[:r, :r] = q @ np.diag([1.0, 2.0, -3.0]) @ np.linalg.inv(q)
    hs = hs_decompose(Matrix.floating(b))
    sk = hs.sigma_k().array
    _, vecs = np.linalg.eig(sk)
    exact = [vecs @ np.diag(bits).astype(complex) @ np.linalg.inv(vecs)
             for bits in ([1, 0, 0], [1, 1, 0], [0, 1, 1], [1, 1, 1])]
    seen = set()
    for k in range(60):
        moved = exact[k % 4] + 10.0 ** (-13 + 6 * k / 60) * _unit(rng, (r, r))
        stack = np.array(exact[:2] + [moved] + exact[2:])
        for tol in TOLS:
            want = True if all(ref_in_tau(t, sk, tol) for t in stack) else NotInTau
            assert outcome(lambda: phi_inv_stack(stack, hs, tol) and True) == want
            seen.add(want)
    assert seen == {True, NotInTau}
