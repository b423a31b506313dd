import random
from fractions import Fraction

import numpy as np
import pytest

from sharporder import (
    EXACT,
    FLOAT,
    Matrix,
    Tolerance,
    approx_eq,
    group_inverse,
    hs_decompose,
    index_le_one,
    is_ep,
    matrix_dumps,
    moore_penrose,
)
from sharporder.errors import IndexTooLarge
from sharporder.hs import predecessor_block_group_inverse
from sharporder.scalars import QQi

from conftest import TOL7, TOL8, float_context, rand_unimodular


def _penrose_ok(a, x, tol=TOL8):
    if a.mode == EXACT:
        return (a @ x @ a == a and x @ a @ x == x
                and (a @ x).H == a @ x and (x @ a).H == x @ a)
    return (approx_eq(a @ x @ a, a, tol) and approx_eq(x @ a @ x, x, tol)
            and approx_eq((a @ x).H, a @ x, tol)
            and approx_eq((x @ a).H, x @ a, tol))


def test_mp_identity_and_zero():
    i3 = Matrix.identity(3, EXACT)
    assert moore_penrose(i3) == i3
    z = Matrix.zeros(2, 3, EXACT)
    assert moore_penrose(z) == Matrix.zeros(3, 2, EXACT)
    zf = Matrix.zeros(2, 3, FLOAT)
    assert moore_penrose(zf).is_zero()
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        for mode in (EXACT, FLOAT):
            mp = moore_penrose(Matrix.zeros(rows, cols, mode))
            assert (mp.rows, mp.cols, mp.mode) == (cols, rows, mode)


def test_mp_rank_one_example():
    a = Matrix.exact([[1, 1], [0, 0]])
    expected = Matrix.exact([[(Fraction(1, 2), 0), 0], [(Fraction(1, 2), 0), 0]])
    assert moore_penrose(a) == expected
    assert _penrose_ok(a, expected)


def test_mp_random_exact():
    rnd = random.Random(5)
    for _ in range(60):
        nr, nc = rnd.randint(1, 4), rnd.randint(1, 4)
        a = Matrix.exact([[rnd.randint(-3, 3) for _ in range(nc)]
                          for _ in range(nr)])
        assert _penrose_ok(a, moore_penrose(a))


def test_mp_random_float():
    rng = np.random.default_rng(2)
    for _ in range(200):
        nr = int(rng.integers(1, 9))
        nc = int(rng.integers(1, 9))
        a = Matrix.floating(rng.standard_normal((nr, nc))
                            + 1j * rng.standard_normal((nr, nc)))
        assert _penrose_ok(a, moore_penrose(a))


def test_index_le_one_examples():
    assert not index_le_one(Matrix.exact([[0, 1], [0, 0]]))
    assert index_le_one(Matrix.exact([[0, 1], [0, 1]]))  # projector
    assert index_le_one(Matrix.exact([[1, 2], [3, 5]]))  # nonsingular


def test_index_verdict_kept_in_exact_mode_only():
    a = Matrix.exact([[0, 1], [0, 0]])
    assert not index_le_one(a)
    assert a._index1 is False and hasattr(a, "_sq")
    # eigenvalues 1e-6, 0 and 1 give index 1, but A^2 has a singular value
    # near 1e-6, which a rank cut at 1e-4 of the largest counts as zero: a
    # float verdict depends on the tolerance, so one instance gives both
    f = Matrix.floating([[1e-6, 1, 0], [0, 0, 0], [0, 0, 1]])
    loose = Tolerance(rank_threshold_factor=1e-4)
    assert index_le_one(f) and not index_le_one(f, loose) and index_le_one(f)
    # a float matrix keeps its square (a value, cut again at each call's
    # tolerance), never the verdict
    assert not hasattr(f, "_index1")


def test_group_inverse_nonsingular_is_inverse():
    a = Matrix.exact([[1, 2], [3, 5]])
    assert group_inverse(a) == a.inverse()


def test_group_inverse_of_projector_is_itself():
    p = Matrix.exact([[0, 1], [0, 1]])
    assert group_inverse(p) == p


def test_group_inverse_diagonal():
    a = Matrix.exact([[2, 0], [0, 0]])
    assert group_inverse(a) == Matrix.exact([[("1/2", "0"), 0], [0, 0]])


def test_group_inverse_index_too_large():
    with pytest.raises(IndexTooLarge):
        group_inverse(Matrix.exact([[0, 1], [0, 0]]))
    # float mode decides the index from Sigma K of the decomposition it
    # inverts; a singular Sigma K is reported as the index, never as SingularK.
    # Conjugated J_2(0) alone leaves a 1x1 Sigma K of pure rounding noise,
    # which only a cut against sigma_1 of B recognises as O
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    j2_plus_2 = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 2]], dtype=complex)
    j2 = np.array([[0, 3, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
    for a in (Matrix.floating([[0.0, 2.0], [0.0, 0.0]]),
              Matrix.floating(q @ j2_plus_2 @ q.conj().T),
              Matrix.floating(q @ j2 @ q.conj().T)):
        with pytest.raises(IndexTooLarge):
            group_inverse(a)


def test_group_inverse_zero():
    assert group_inverse(Matrix.zeros(2, 2, EXACT)).is_zero()
    assert group_inverse(Matrix.zeros(2, 2, FLOAT)).is_zero()


# (eigenvalue, Jordan block sizes) pairs and extra zero dimensions; a
# singular B needs a diagonalizable core
FLOAT_SHAPES = [
    ([(2.0, [2, 1]), (-1.0, [1])], 0),
    ([(1.5, [1, 1]), (1j, [1])], 1),
    ([(3.0, [1]), (-2.5, [1, 1]), (0.5 + 1j, [1])], 2),
    ([(4.0, [3, 2]), (-1.0 - 1j, [2, 2])], 0),
    ([(2.0, [1] * 4), (-1.0, [1] * 3)], 3),
]


@pytest.mark.parametrize("coupling", [0.0, 1.0], ids=["ep", "non-ep"])
def test_float_group_inverse_is_the_block_inverse_with_identity(coupling):
    # float group_inverse is predecessor_block_group_inverse with T = I
    # without its tau test of I, so its bytes are that function's
    for case, (pairs, extra) in enumerate(FLOAT_SHAPES):
        b, _, _ = float_context(pairs, extra, seed=50 + case, coupling=coupling)
        for tol in (TOL7, Tolerance()):
            d = hs_decompose(b, tol)
            want = predecessor_block_group_inverse(d, Matrix.identity(d.r, FLOAT), tol)
            assert matrix_dumps(group_inverse(b, tol)) == matrix_dumps(want)
    # index 2 still raises, and a matrix within tol.rel of O still maps to O
    with pytest.raises(IndexTooLarge):
        group_inverse(Matrix.floating([[0.0, 2.0], [0.0, 0.0]]))
    tiny = Matrix.floating(1e-10 * np.eye(2))
    assert tiny.rank() == 2 and group_inverse(tiny) == Matrix.zeros(2, 2, FLOAT)


def _group_ok(a, x, tol=TOL8):
    if a.mode == EXACT:
        return a @ x @ a == a and x @ a @ x == x and a @ x == x @ a
    return (approx_eq(a @ x @ a, a, tol) and approx_eq(x @ a @ x, x, tol)
            and approx_eq(a @ x, x @ a, tol))


def _rand_index1_exact(rnd, n):
    """P diag(nonzero..., 0...) P^-1 has index <= 1 by construction."""
    p = rand_unimodular(n, rnd)
    d = Matrix.diag([rnd.choice([0, 1, 2, -1, 3]) for _ in range(n)], EXACT)
    return p @ d @ p.inverse()


def test_group_inverse_axioms_and_involution():
    rnd = random.Random(9)
    for _ in range(40):
        a = _rand_index1_exact(rnd, rnd.randint(1, 4))
        g = group_inverse(a)
        assert _group_ok(a, g)
        assert group_inverse(g) == a


def test_group_inverse_modes_agree():
    rnd = random.Random(13)
    for _ in range(30):
        a = _rand_index1_exact(rnd, rnd.randint(1, 4))
        if a.is_zero():
            continue
        ge = group_inverse(a).to_float()
        gf = group_inverse(a.to_float())
        assert (ge - gf).fro() <= 1e-8 * max(1.0, ge.fro())


def test_is_ep_examples():
    assert is_ep(Matrix.exact([[1, 2], [3, 5]]))  # nonsingular
    assert not is_ep(Matrix.exact([[1, 1], [0, 0]]))
    h = Matrix.exact([[2, (0, 1)], [(0, -1), 3]])  # Hermitian
    assert h == h.H
    assert is_ep(h)
    assert is_ep(Matrix.floating([[2, 1j], [-1j, 3]]))
