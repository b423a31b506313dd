import random
import warnings

import numpy as np
import pytest

from sharporder import (
    EXACT,
    FLOAT,
    Matrix,
    approx_eq,
    conjecture_refutation,
    extend_to_nonsingular,
    group_inverse,
    hs_decompose,
    jordan_predecessors,
    make_spec,
    max_chain,
    phi,
    phi_inv,
    proj_leq,
    psi,
    psi_inv,
    sharp_leq,
    successor_form,
)
from sharporder.errors import (
    IndexTooLarge,
    ModeMismatch,
    MultiplicityExceedsOne,
    NonSquare,
    NotAPredecessor,
    NotInTau,
    ShapeMismatch,
    SingularK,
)
from sharporder.hs import predecessor_block_group_inverse
from sharporder.sharp import phi_inv_stack

from conftest import TOL7, float_context, rand_unimodular, sample_predecessor


def test_sharp_leq_least_and_reflexive():
    b = Matrix.exact([[1, 2], [0, 3]])
    assert sharp_leq(Matrix.zeros(2, 2, EXACT), b)
    assert sharp_leq(b, b)


def test_sharp_leq_nondiagonal_below_identity():
    a = Matrix.exact([[0, 1, 0], [0, 1, 0], [0, 0, 0]])
    assert sharp_leq(a, Matrix.identity(3, EXACT))


def test_kept_square_and_index_leave_equality_alone():
    # A keeps its square and index verdict from the first order test; a
    # fresh equal matrix keeps neither, and the two stay one value
    kept, fresh = Matrix.exact([[1, 1], [0, 0]]), Matrix.exact([[1, 1], [0, 0]])
    others = [Matrix.identity(2), Matrix.exact([[1, 0], [0, 0]]), Matrix.exact([[1, 1], [0, 2]]),
              Matrix.zeros(2, 2), Matrix.exact([[0, 1], [0, 0]])]
    assert sharp_leq(kept, others[0])
    assert kept._index1 is True and hasattr(kept, "_sq")
    assert not hasattr(fresh, "_index1") and not hasattr(fresh, "_sq")
    assert kept == fresh and kept.key() == fresh.key() and hash(kept.key()) == hash(fresh.key())

    def verdicts(a):
        out = []
        for b in others:
            for x, y in ((a, b), (b, a)):
                try:
                    out.append(sharp_leq(x, y))
                except IndexTooLarge as exc:
                    out.append(str(exc))
        return out

    assert verdicts(kept) == verdicts(fresh) == [
        True, False, False, False, False, False, False, True, "second argument has index > 1",
        "first argument has index > 1"]


def test_float_b_is_squared_and_decomposed_once(monkeypatch):
    # B keeps its square and the square its singular values: k order tests
    # against one B make one SVD of B^2, while each fresh A gets its own
    q = np.eye(4) + np.eye(4, k=1)
    qi = np.linalg.inv(q)
    b = Matrix.floating(q @ np.diag([2.0, 3.0, -1.0, 0.0]) @ qi)
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a) or real(a, **kw))
    below = [[2, 0, 0, 0], [0, 3, 0, 0], [2, 3, 0, 0], [0, 0, -1, 0], [2, 0, -1, 0]]
    for d in below:
        assert sharp_leq(Matrix.floating(q @ np.diag(np.array(d, dtype=float)) @ qi), b, TOL7)
    b2 = b.array @ b.array
    assert sum(np.array_equal(a, b2) for a in calls) == 1
    assert len(calls) == 2 * len(below) + 2  # A and A^2 each, B and B^2 once
    assert b._sq.array.tobytes() == b2.tobytes()


def test_sharp_leq_index_guard():
    with pytest.raises(IndexTooLarge):
        sharp_leq(Matrix.exact([[0, 1], [0, 0]]), Matrix.identity(2, EXACT))
    with pytest.raises(IndexTooLarge):
        sharp_leq(Matrix.zeros(2, 2, EXACT), Matrix.exact([[0, 1], [0, 0]]))


# sharp_leq checks both arguments square, then their mode and size as every
# product predicate does, before any index test
@pytest.mark.parametrize("a, b, exc", [
    (Matrix.identity(2), Matrix.identity(2, FLOAT), ModeMismatch),
    (Matrix.identity(2, FLOAT), Matrix.identity(2), ModeMismatch),
    # the index-2 first argument is never tested: the modes differ
    (Matrix.exact([[0, 1], [0, 0]]), Matrix.identity(2, FLOAT), ModeMismatch),
    (Matrix.identity(2, FLOAT), Matrix.identity(3), ModeMismatch),
    (Matrix.identity(2), Matrix.identity(3), ShapeMismatch),
    (Matrix.zeros(2, 3), Matrix.identity(2, FLOAT), NonSquare),
    (Matrix.identity(2), Matrix.zeros(3, 2), NonSquare),
], ids=["exact-float", "float-exact", "index-2-exact-float", "float-exact-sizes",
        "sizes", "wide-a", "tall-b"])
def test_sharp_leq_operand_errors(a, b, exc):
    with pytest.raises(exc):
        sharp_leq(a, b)


def _diag_context():
    b = Matrix.floating(np.diag([2.0, 1.0, 0.0]))
    return b, hs_decompose(b)


def test_phi_edges():
    b, d = _diag_context()
    assert phi(Matrix.zeros(3, 3, FLOAT), d).is_zero()
    assert approx_eq(phi(b, d), Matrix.identity(2, FLOAT), TOL7)


def test_phi_diagonal_predecessor():
    b, d = _diag_context()
    a = Matrix.floating(np.diag([2.0, 0.0, 0.0]))
    t = phi(a, d)
    # U may permute; T is a rank-1 diagonal projector either way
    assert t.rank() == 1
    assert approx_eq(phi_inv(t, d), a, TOL7)


def test_phi_rejects_non_predecessor():
    _, d = _diag_context()
    with pytest.raises(NotAPredecessor):
        phi(Matrix.floating(np.diag([1.0, 1.0, 1.0])), d)


def test_phi_rejects_noise_sigma_k():
    # B = Q (3 e1 e2^T) Q* has index 2, but rounding leaves its 1 x 1 Sigma K
    # at about 1e-16 rather than exactly 0, so inverting it succeeds; only
    # the rank cut against sigma_1 of B tells it from a nonsingular block
    e12 = np.zeros((3, 3))
    e12[0, 1] = 3.0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        b = Matrix.floating(q @ e12 @ q.conj().T)
        d = hs_decompose(b)
        assert d.r == 1 and d.sigma_k()[0, 0] != 0 and not d.index_le_one()
        for a in (b, Matrix.zeros(3, 3, FLOAT)):
            with pytest.raises(SingularK):
                phi(a, d)


def test_phi_inv_rejects_singular_sigma_k(monkeypatch):
    # the index-2 B of test_phi_rejects_noise_sigma_k: phi_inv and max_chain
    # raise SingularK as phi does, and the singular values of SK are computed
    # once for every index decision on the decomposition: one SVD in all
    e12 = np.zeros((3, 3))
    e12[0, 1] = 3.0
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    d = hs_decompose(Matrix.floating(q @ e12 @ q.conj().T))
    spec = make_spec([(1.0, [1])], mode=FLOAT)
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a) or real(a, **kw))
    for t in (Matrix.identity(1, FLOAT), Matrix.zeros(1, 1, FLOAT)):
        with pytest.raises(SingularK):
            phi_inv(t, d)
    with pytest.raises(SingularK):
        max_chain(d, spec)
    assert not d.index_le_one() and not d.index_le_one(TOL7)
    assert len(calls) == 1


def test_one_sigma_k_guard():
    # every map that inverts SK raises the one SingularK of the decomposition
    # on an index-2 B = diag(1) + [[0, 1], [0, 0]]
    d = hs_decompose(Matrix.floating([[1, 0, 0], [0, 0, 1], [0, 0, 0]]))
    assert d.r == 2 and not d.index_le_one()
    ident = Matrix.identity(2, FLOAT)
    calls = [lambda: phi(Matrix.zeros(3, 3, FLOAT), d),
             lambda: phi_inv(ident, d),
             lambda: phi_inv_stack(ident.array[None], d),
             lambda: max_chain(d, make_spec([(1.0, [1]), (2.0, [1])], mode=FLOAT)),
             lambda: extend_to_nonsingular(d),
             lambda: predecessor_block_group_inverse(d, ident)]
    messages = set()
    for call in calls:
        with pytest.raises(SingularK) as info:
            call()
        messages.add(str(info.value))
    assert messages == {"SK singular: B has index greater than 1"}


def test_phi_inv_edges():
    b, d = _diag_context()
    assert phi_inv(Matrix.zeros(2, 2, FLOAT), d).is_zero()
    assert approx_eq(phi_inv(Matrix.identity(2, FLOAT), d), b, TOL7)
    with pytest.raises(NotInTau):
        phi_inv(Matrix.floating([[0.5, 0], [0, 0]]), d)


def test_phi_inv_rejects_t_whose_norms_overflow():
    # T = [[1, c], [0, 0]] is idempotent for every c and commutes with SK
    # only for c = 0; at c = 1e300 the norms of T SK and SK T overflow, and
    # the tau check still tells them apart
    b, d = _diag_context()
    with np.errstate(over="ignore"), pytest.raises(NotInTau):
        phi_inv(Matrix.floating([[1, 1e300], [0, 0]]), d)


def test_phi_inv_rejects_overflowing_t_when_warnings_are_errors():
    # as above, with numpy's overflow warning raised as an error and no
    # errstate around the call
    b, d = _diag_context()
    with warnings.catch_warnings(), pytest.raises(NotInTau):
        warnings.simplefilter("error", RuntimeWarning)
        phi_inv(Matrix.floating([[1, 1e300], [0, 0]]), d)


def test_psi_round_trip():
    p = Matrix.floating([[1.0, 2.0], [0.5, 3.0]])
    t = Matrix.floating([[1.0, 0.0], [0.0, 0.0]])
    assert approx_eq(psi_inv(psi(t, p), p), t, TOL7)
    assert psi(Matrix.zeros(2, 2, FLOAT), p).is_zero()
    assert approx_eq(psi(t, Matrix.identity(2, FLOAT)), t, TOL7)


def test_predecessor_group_inverse_examples():
    b, d = _diag_context()
    g = predecessor_block_group_inverse(d, Matrix.identity(2, FLOAT))
    assert approx_eq(g, Matrix.floating(np.diag([0.5, 1.0, 0.0])), TOL7)
    assert predecessor_block_group_inverse(d, Matrix.zeros(2, 2, FLOAT)).is_zero()


def test_predecessor_group_inverse_cross_check():
    b, hs, spec = float_context([(2.0, [2, 1]), (-1.0, [1])], 0, seed=3)
    for seed in range(6):
        a, t = sample_predecessor(hs, spec, seed)
        lhs = predecessor_block_group_inverse(hs, t, TOL7)
        rhs = group_inverse(a, TOL7)
        assert approx_eq(lhs, rhs, TOL7)


def test_singular_k_on_index_two():
    d = hs_decompose(Matrix.floating([[0.0, 2.0], [0.0, 0.0]]))
    assert d.r == 1 and not d.index_le_one()
    for t in (Matrix.identity(1, FLOAT), Matrix.zeros(1, 1, FLOAT)):
        with pytest.raises(SingularK):
            predecessor_block_group_inverse(d, t)
    with pytest.raises(SingularK):
        extend_to_nonsingular(d)


def test_predecessor_group_inverse_checks_t_first():
    # B = J_3(0) has index 3, so its Sigma K is singular; a T outside tau is
    # reported as such before the index of B
    d = hs_decompose(Matrix.floating([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    assert d.r == 2 and not d.index_le_one()
    not_idempotent = Matrix.floating([[2.0, 0.0], [0.0, 0.0]])
    sk = d.sigma_k()
    rank_one = Matrix.floating([[1.0, 0.0], [0.0, 0.0]])
    assert not approx_eq(rank_one @ sk, sk @ rank_one)
    for t in (not_idempotent, rank_one):
        with pytest.raises(NotInTau):
            predecessor_block_group_inverse(d, t)


def test_jordan_predecessors_diag():
    spec = make_spec([(2, [1]), (1, [1])])
    preds = jordan_predecessors(Matrix.identity(3, EXACT), spec, 3)
    keys = {p.key() for p in preds}
    assert keys == {Matrix.diag(v, EXACT).key() for v in
                    ([0, 0, 0], [2, 0, 0], [0, 1, 0], [2, 1, 0])}


def test_jordan_predecessors_single_block():
    spec = make_spec([(5, [2])])
    preds = jordan_predecessors(Matrix.identity(2, EXACT), spec, 2)
    assert {p.key() for p in preds} == {
        Matrix.zeros(2, 2, EXACT).key(),
        Matrix.exact([[5, 1], [0, 5]]).key(),
    }


def test_jordan_predecessors_multiplicity_guard():
    spec = make_spec([(5, [1, 1])])
    with pytest.raises(MultiplicityExceedsOne):
        jordan_predecessors(Matrix.identity(2, EXACT), spec, 2)


def test_jordan_predecessors_are_predecessors():
    rnd = random.Random(31)
    spec = make_spec([(2, [2]), (3, [1])])
    p = rand_unimodular(4, rnd)
    b = p @ Matrix.exact([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0],
                          [0, 0, 0, 0]]) @ p.inverse()
    for a in jordan_predecessors(p, spec, 4):
        assert sharp_leq(a, b)


def test_conjecture_refutation():
    b, a, report = conjecture_refutation()
    assert b == Matrix.identity(3, EXACT)
    assert report["sharp_leq"] is True
    assert report["diagonal_form"] is False
    assert report["refutes_conjecture"] is True


def test_successor_form_examples():
    spec = make_spec([(2, [1])])
    a = Matrix.diag([2, 0], EXACT)
    b, ok = successor_form(a, Matrix.identity(2, EXACT), spec,
                           Matrix.exact([[5]]))
    assert b == Matrix.diag([2, 5], EXACT)
    assert ok

    # nonsingular A: X empty, B = A
    spec2 = make_spec([(2, [1]), (3, [1])])
    a2 = Matrix.diag([2, 3], EXACT)
    b2, ok2 = successor_form(a2, Matrix.identity(2, EXACT), spec2,
                             Matrix.zeros(0, 0, EXACT))
    assert b2 == a2 and ok2


def test_successor_form_x_mode_mismatch():
    a = Matrix.diag([2, 0], EXACT)
    with pytest.raises(ModeMismatch):
        successor_form(a, Matrix.identity(2, EXACT), make_spec([(2, [1])]),
                       Matrix.floating([[5]]))
    af = Matrix.diag([2.0, 0.0], FLOAT)
    with pytest.raises(ModeMismatch):
        successor_form(af, Matrix.identity(2, FLOAT), make_spec([(2, [1])], mode=FLOAT),
                       Matrix.exact([[5]]))


def test_successor_form_is_necessary_not_sufficient():
    # B shares A's Jordan blocks yet A is not below B
    p = Matrix.exact([[1, 1, 1], [0, 1, 3], [0, 0, 1]])
    spec = make_spec([(1, [2])])
    j_part = Matrix.exact([[1, 1, 0], [0, 1, 0], [0, 0, 0]])
    a = p @ j_part @ p.inverse()
    b = Matrix.exact([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert not sharp_leq(a, b)
    # and the constructor with the same X produces a different successor
    b_made, ok = successor_form(a, p, spec, Matrix.exact([[1]]))
    assert ok and sharp_leq(a, b_made)
    assert b_made != b


def test_extend_to_nonsingular():
    b = Matrix.floating(np.diag([2.0, 1.0, 0.0]))
    d = hs_decompose(b)
    c = extend_to_nonsingular(d)
    assert c.rank(TOL7) == 3
    assert approx_eq(c, Matrix.floating(np.diag([2.0, 1.0, 1.0])), TOL7)
    assert sharp_leq(b, c, TOL7)


def test_extend_to_nonsingular_random():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, n + 1))
        q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        vals = rng.integers(1, 4, size=r).astype(float)
        inner = np.zeros((n, n), dtype=complex)
        inner[:r, :r] = np.diag(vals)
        b = Matrix.floating(q @ inner @ q.conj().T)
        d = hs_decompose(b, TOL7)
        c = extend_to_nonsingular(d, TOL7)
        assert c.rank(TOL7) == n
        assert sharp_leq(b, c, TOL7)


def test_isomorphism_and_rank_preservation():
    b, hs, spec = float_context([(2.0, [2, 1]), (-1.0, [1])], 0, seed=5)
    preds = [sample_predecessor(hs, spec, seed) for seed in range(8)]
    for a1, t1 in preds:
        assert a1.rank(TOL7) == t1.rank(TOL7)
        assert sharp_leq(a1, b, TOL7)
        for a2, t2 in preds:
            assert sharp_leq(a1, a2, TOL7) == proj_leq(t1, t2, TOL7)


def test_difference_identity():
    b, hs, spec = float_context([(3.0, [1]), (1.0, [2])], 0, seed=6)
    bg = group_inverse(b, TOL7)
    for seed in range(8):
        a, _ = sample_predecessor(hs, spec, seed)
        lhs = group_inverse(b - a, TOL7)
        rhs = bg - group_inverse(a, TOL7)
        assert approx_eq(lhs, rhs, TOL7)


def test_order_axioms_on_samples():
    b, hs, spec = float_context([(2.0, [1]), (5.0, [1]), (-1.0, [1])], 0, seed=9)
    preds = [sample_predecessor(hs, spec, seed)[0] for seed in range(6)]
    for x in preds:
        for y in preds:
            le_xy = sharp_leq(x, y, TOL7)
            le_yx = sharp_leq(y, x, TOL7)
            # antisymmetry
            if le_xy and le_yx:
                assert approx_eq(x, y, TOL7)
            # equal-rank comparability collapse
            if le_xy and x.rank(TOL7) == y.rank(TOL7):
                assert approx_eq(x, y, TOL7)
            for z in preds:
                if le_xy and sharp_leq(y, z, TOL7):
                    assert sharp_leq(x, z, TOL7)
