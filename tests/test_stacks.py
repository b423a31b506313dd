"""The stacked float down-set kernels against the per-element path they
replaced, bit for bit.

max_chain, the Boolean center of the CLI and phi_inv map their elements as
one (k, r, r) stack: psi_choices conjugates the block choices by one batched
P E P^-1, outside_tau checks every slice against tau, and predecessor_expand
forms F T (C E), with F = U[:, :r] and C E = [SK, SL] U*, for all slices at
once.  The reference below is the Matrix-level path that does this one
element at a time: each step's P @ E @ P^-1, the float in_tau rules
(is_projector's, then approx_eq's) on that step, and F @ T @ (C E).  Outputs must agree byte for
byte, and a failure must come at the same element with the same error."""

import random
from math import isfinite, sqrt

import numpy as np
import pytest

from sharporder import (
    FLOAT,
    Matrix,
    hs_decompose,
    make_spec,
    max_chain,
    phi,
    phi_inv,
    psi,
    sample_delta_projector,
)
from sharporder.core import in_tau
from sharporder.errors import MalformedInput, NotAPredecessor, NotInTau, SingularK
from sharporder.floatmatrix import outside_tau
from sharporder.jordan import _block_diagonal, center_choices
from sharporder.sharp import phi_inv_stack, psi_choices

from conftest import TOL7, float_context

# (Jordan block sizes per eigenvalue, extra zero dimensions), n = 3..16; a
# singular B needs a diagonalizable core
SHAPES = [
    (([2, 1], [1]), 0),
    (([1, 1], [1]), 1),
    (([2, 2], [2]), 0),
    (([1, 1, 1], [1, 1], [1]), 2),
    (([3, 2, 1], [2, 2]), 0),
    (([1] * 4, [1] * 3, [1, 1]), 3),
    (([3, 3, 2], [2, 2, 1], [1]), 0),
    (([4, 3, 2], [3, 2], [2]), 0),
    (([1] * 5, [1] * 4, [1] * 3), 4),
]
EIGENVALUES = [2.0, -1.0, 3.0, 1.5, -2.5, 1j, 0.5 + 1j, -1.0 - 1.0j, 4.0]
ERRORS = (SingularK, NotInTau, NotAPredecessor, MalformedInput)


# ----------------------------------------------------------------------
# the per-element reference


def _fro(a):
    x = a.ravel(order="K")
    return sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def ref_close(x, y, tol):
    nx, ny = _fro(x), _fro(y)
    if not (isfinite(nx) and isfinite(ny)) and not (np.isfinite(x).all()
                                                    and np.isfinite(y).all()):
        raise MalformedInput("approx_eq of a matrix with non-finite entries")
    return _fro(x - y) <= tol.rel * max(1.0, nx, ny)


def ref_in_tau(t, sk, tol):
    a = t.array
    if not _fro(a @ a - a) <= tol.rel * max(1.0, _fro(a) ** 2):
        return False
    return ref_close((t @ sk).array, (sk @ t).array, tol)


def ref_expand(hs, t):
    return Matrix.floating(hs.U.array[:, :hs.r] @ t.array @ hs.ce().array)


def ref_phi_inv(t, hs, tol):
    if not hs.index_le_one(tol):
        raise SingularK("SK singular")
    if not ref_in_tau(t, hs.sigma_k(), tol):
        raise NotInTau("T is not in tau")
    return ref_expand(hs, t)


def ref_conjugated(spec, bits):
    p = spec.P if spec.P is not None else Matrix.identity(spec.r, FLOAT)
    return p @ Matrix.diag([float(b) for b in _block_diagonal(spec, bits)], FLOAT) @ p.inverse()


def ref_max_chain(hs, spec, tol):
    l = len(spec.block_sizes)
    return [Matrix.zeros(hs.n, hs.n, FLOAT)] + [
        ref_phi_inv(ref_conjugated(spec, [1] * i + [0] * (l - i)), hs, tol)
        for i in range(1, l + 1)]


def ref_phi(a, hs, tol):
    if not hs.index_le_one(tol):
        raise SingularK("SK singular")
    sk = hs.sigma_k()
    t = (hs.U.H @ a @ hs.U).block(0, hs.r, 0, hs.r) @ sk.inverse()
    if not (ref_in_tau(t, sk, tol) and ref_close(ref_expand(hs, t).array, a.array, tol)):
        raise NotAPredecessor("A is not below B")
    return t


def outcome(f):
    """The bytes of f's matrix or matrices, or the class of its error."""
    try:
        out = f()
    except ERRORS as exc:
        return type(exc)
    return [m.array.tobytes() for m in out] if isinstance(out, list) else out.array.tobytes()


def _context(case, seed, coupling):
    sizes, extra = SHAPES[case]
    pairs = list(zip(random.Random(seed).sample(EIGENVALUES, len(sizes)), sizes))
    return float_context(pairs, extra, seed * 101 + case, coupling=coupling)


# ----------------------------------------------------------------------
# bit for bit on working input


@pytest.mark.parametrize("case", range(len(SHAPES)))
def test_stacks_match_the_per_element_path(case):
    for seed, coupling in ((1, 0.0), (2, 1.0), (3, 1.0)):
        b, hs, spec = _context(case, seed, coupling)
        assert (hs.n, hs.r) == (spec.r + SHAPES[case][1], spec.r)
        chain = outcome(lambda: max_chain(hs, spec, TOL7))
        assert chain == outcome(lambda: ref_max_chain(hs, spec, TOL7))
        assert len(chain) == len(spec.block_sizes) + 1
        choices = list(center_choices(spec))
        assert outcome(lambda: phi_inv_stack(psi_choices(spec, choices), hs, TOL7)) == outcome(
            lambda: [ref_phi_inv(ref_conjugated(spec, bits), hs, TOL7) for bits in choices])
        for k in range(4):
            t = psi(sample_delta_projector(spec, 10 * seed + k, tol=TOL7).expand(), spec.P)
            a = phi_inv(t, hs, TOL7)
            assert a.array.tobytes() == ref_phi_inv(t, hs, TOL7).array.tobytes()
            assert outcome(lambda: phi(a, hs, TOL7)) == outcome(lambda: ref_phi(a, hs, TOL7))
            # a non-predecessor: A moved off the down-set
            moved = a + Matrix.floating(np.eye(hs.n)).scale(1e-3)
            assert outcome(lambda: phi(moved, hs, TOL7)) == NotAPredecessor
            assert outcome(lambda: ref_phi(moved, hs, TOL7)) == NotAPredecessor


def test_every_slice_is_checked_in_order():
    # random stacks of tau elements, non-idempotent ones and projectors that
    # do not commute with SK: outside_tau names the first slice the
    # per-element check rejects
    b, hs, spec = _context(4, 5, 1.0)
    sk = hs.sigma_k()
    rng = random.Random(0)
    pool = []
    for k in range(6):
        t = psi(sample_delta_projector(spec, k, tol=TOL7).expand(), spec.P)
        pool += [t, t + Matrix.floating(np.eye(spec.r)).scale(1e-4),
                 psi(sample_delta_projector(spec, k, tol=TOL7).expand(),
                     spec.P + Matrix.floating(np.eye(spec.r)).scale(0.1))]
    kinds = set()
    for _ in range(60):
        stack = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        verdicts = [ref_in_tau(t, sk, TOL7) for t in stack]
        kinds |= set(verdicts)
        want = verdicts.index(False) if False in verdicts else None
        assert outside_tau(np.array([t.array for t in stack]), sk.array, TOL7) == want
        assert [in_tau(t, sk, TOL7) for t in stack] == verdicts
    assert kinds == {False, True}


# ----------------------------------------------------------------------
# failures


def test_a_p_off_at_one_block_fails_at_the_first_step_it_breaks():
    # one 1 x 1 block per column; column 3 (eigenvalue -2.5) gets a part of
    # column 1 (eigenvalue 1.5).  A step keeps the first i blocks: its range
    # and its kernel stay invariant while columns 1 and 3 are on one side,
    # so steps 1 and 4-6 pass and steps 2-3 (stack slices 1 and 2) fail
    pairs = [(1.5, [1, 1, 1]), (-2.5, [1, 1]), (1j, [1])]
    b, hs, spec = float_context(pairs, 2, seed=8)
    p = spec.P.array.copy()
    p[:, 3] += 0.3 * p[:, 1]
    off = make_spec(pairs, P=Matrix.floating(p), mode=FLOAT)
    steps = [ref_conjugated(off, [1] * i + [0] * (6 - i)) for i in range(1, 7)]
    assert [ref_in_tau(t, hs.sigma_k(), TOL7) for t in steps] == [True, False, False,
                                                                    True, True, True]
    stack = psi_choices(off, [[1] * i + [0] * (6 - i) for i in range(1, 7)])
    assert [s.tobytes() for s in stack] == [t.array.tobytes() for t in steps]
    assert outside_tau(stack, hs.sigma_k().array, TOL7) == 1
    assert outcome(lambda: max_chain(hs, off, TOL7)) == NotInTau
    assert outcome(lambda: ref_max_chain(hs, off, TOL7)) == NotInTau


def test_an_index_two_b_raises_singular_k_before_any_tau_check():
    # the index-2 B of test_phi_inv_rejects_singular_sigma_k; the T that is
    # not even idempotent is still reported as SingularK
    e12 = np.zeros((3, 3))
    e12[0, 1] = 3.0
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    hs = hs_decompose(Matrix.floating(q @ e12 @ q.conj().T))
    spec = make_spec([(1.0, [1])], mode=FLOAT)
    assert outcome(lambda: max_chain(hs, spec)) == SingularK
    assert outcome(lambda: ref_max_chain(hs, spec, TOL7)) == SingularK
    for t in ([[1.0]], [[0.0]], [[2.0]]):
        assert outcome(lambda: phi_inv(Matrix.floating(t), hs)) == SingularK
        assert outcome(lambda: phi_inv_stack(np.array([t], dtype=complex), hs)) == SingularK


def test_non_finite_entries_fail_as_in_the_per_element_path():
    # B = diag(2, 1, 0): T = [[0, 0], [c, 1]] is idempotent for every finite
    # c, so it passes the first rule, and with c = 1e308 one of T SK, SK T
    # overflows: approx_eq's rule raises MalformedInput.  A T holding NaN or
    # an infinity fails the idempotence rule first, so it is not in tau.
    hs = hs_decompose(Matrix.floating(np.diag([2.0, 1.0, 0.0])))
    good = Matrix.identity(2, FLOAT)
    half = Matrix.floating([[0.5, 0.0], [0.0, 0.0]])
    cases = [
        (Matrix.floating([[0.0, 0.0], [1e308, 1.0]]), MalformedInput),
        (Matrix.floating([[np.nan, 0.0], [0.0, 0.0]]), NotInTau),
        (Matrix.floating([[0.0, 0.0], [np.inf, 1.0]]), NotInTau),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for t, error in cases:
            assert outcome(lambda: ref_phi_inv(t, hs, TOL7)) == error
            assert outcome(lambda: phi_inv(t, hs, TOL7)) == error
            for before, want in ((good, error), (half, NotInTau)):
                stack = np.array([before.array, t.array])
                assert outcome(lambda: phi_inv_stack(stack, hs, TOL7)) == want
