import numpy as np
import pytest

from sharporder import (
    EXACT,
    FLOAT,
    Matrix,
    Tolerance,
    approx_eq,
    extend_to_nonsingular,
    group_inverse,
    hs_decompose,
    hs_from_obj,
    hs_reconstruct,
    hs_to_obj,
    index_le_one,
    moore_penrose,
    phi_inv,
    solve_ep_commute_idempotent,
    solve_xbx_family,
)
from sharporder.core import DEFAULT_TOL, matrix_to_obj, svd
from sharporder.errors import MalformedInput, NotSupported, ZeroMatrix
from sharporder.hs import predecessor_block_group_inverse

from conftest import TOL7, TOL8, dense_embedding, sample_tau
from test_stacks import SHAPES, _context


def test_diagonal_example():
    b = Matrix.floating(np.diag([2.0, 1.0, 0.0]))
    d = hs_decompose(b)
    assert d.r == 2
    assert list(d.sigma) == pytest.approx([2.0, 1.0])
    assert approx_eq(hs_reconstruct(d), b, TOL8)
    assert d.L.cols == 1 and d.L.is_zero(TOL8)
    sk = d.sigma_k()
    assert sk.rank() == 2  # index 1


def test_nonsingular_has_no_l_columns():
    b = Matrix.floating([[1.0, 2.0], [3.0, 5.0]])
    d = hs_decompose(b)
    assert d.r == 2
    assert d.L.cols == 0
    assert approx_eq(hs_reconstruct(d), b, TOL8)


def test_index_two_shift():
    b = Matrix.floating([[0.0, 2.0], [0.0, 0.0]])
    d = hs_decompose(b)
    assert d.r == 1
    assert list(d.sigma) == pytest.approx([2.0])
    kk = abs(complex(d.K[0, 0])) ** 2
    ll = abs(complex(d.L[0, 0])) ** 2
    assert kk + ll == pytest.approx(1.0)
    assert kk == pytest.approx(0.0, abs=1e-12)
    assert d.sigma_k().rank() == 0
    assert not d.index_le_one()


def test_zero_matrix_rejected():
    for n in (3, 0):
        with pytest.raises(ZeroMatrix):
            hs_decompose(Matrix.zeros(n, n, FLOAT))


def test_exact_mode_rejected():
    with pytest.raises(NotSupported):
        hs_decompose(Matrix.identity(2, EXACT))


def test_random_invariants():
    rng = np.random.default_rng(4)
    for _ in range(250):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if rng.random() < 0.4:
            # force rank deficiency
            k = int(rng.integers(0, n))
            a[:, :k] = a[:, k:k + 1] * rng.standard_normal(k) if k else a[:, :k]
        b = Matrix.floating(a)
        if b.is_zero(TOL8):
            continue
        d = hs_decompose(b, TOL8)
        assert d.validate(b, TOL8)
        assert d.r == b.rank(TOL8)
        assert index_le_one(b, TOL8) == d.index_le_one(TOL8)
        # Sigma K scales the rows of K: the product with diag(sigma), entry
        # for entry (a zero's sign may differ)
        assert d.sigma_k() == Matrix.diag(list(d.sigma), FLOAT) @ d.K


def test_json_round_trip():
    b = Matrix.floating([[1.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    d = hs_decompose(b)
    again = hs_from_obj(hs_to_obj(d))
    assert approx_eq(hs_reconstruct(again), b, TOL8)
    with pytest.raises(MalformedInput):
        hs_from_obj({"U": None})
    bad_rank = dict(hs_to_obj(d), r=1)
    with pytest.raises(MalformedInput):
        hs_from_obj(bad_rank)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hs_from_obj_rejects_inconsistent_blocks():
    # Sigma K and C E = Sigma [K, L] U* are formed when the decomposition is
    # built, so a misfit must be caught before that, as malformed input
    obj = hs_to_obj(hs_decompose(Matrix.floating([[1.0, 1.0, 0.0], [0.0, 2.0, 0.0],
                                                  [0.0, 0.0, 0.0]])))
    assert obj["r"] == 2
    exact_k = matrix_to_obj(Matrix.identity(2, EXACT))
    for bad in (dict(obj, sigma=obj["sigma"][:1]),
                dict(obj, sigma=obj["sigma"] + [0.5]),
                dict(obj, K=obj["L"]),
                dict(obj, L=obj["K"]),
                dict(obj, K=exact_k),
                dict(obj, r=3),
                # r must be a non-negative int, each sigma a finite
                # positive JSON number
                dict(obj, r=1.9),
                dict(obj, r=2.0),
                dict(obj, r=True),
                dict(obj, r="2"),
                dict(obj, r=-1),
                dict(obj, sigma=["nan", 1.0]),
                dict(obj, sigma=[float("nan"), 1.0]),
                dict(obj, sigma=[float("inf"), 1.0]),
                dict(obj, sigma=[-3.0, 1.0]),
                dict(obj, sigma=[0.0, 1.0]),
                dict(obj, sigma=[True, 1.0]),
                dict(obj, sigma=["2.5", 1.0]),
                dict(obj, sigma=[10 ** 400, 1.0]),
                dict(obj, sigma="ab")):
        with pytest.raises(MalformedInput):
            hs_from_obj(bad)


def test_index_le_one_runs_one_svd_of_sigma_k(monkeypatch):
    # SK keeps its singular values, so a second index decision only cuts them
    d = hs_decompose(Matrix.floating([[1.0, 2.0, 0], [0, 3.0, 1.0], [0, 0, 0]]))
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a) or real(a, **kw))
    assert d.index_le_one() and d.index_le_one(TOL8)
    assert len(calls) == 1 and np.array_equal(calls[0], d.sigma_k().array)


def _bytes(*ms):
    return [m.array.tobytes() for m in ms]


def _hs_bytes(d):
    return _bytes(d.U, d.K, d.L) + [np.array(d.sigma).tobytes(), d.r]


def test_float_matrix_keeps_its_svd_and_decomposition():
    # the kept facts are those of a fresh matrix over a copy of the array,
    # bit for bit, and so are the inverses built on them; later calls
    # return the kept U, V and decomposition
    rng = np.random.default_rng(31)
    for n, r in ((1, 1), (3, 2), (6, 4)):
        g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        h = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        b = Matrix.floating(g @ h)
        for _ in range(2):
            u, sigma, v = svd(b)
            d, gi, mp = hs_decompose(b, TOL8), group_inverse(b, TOL8), moore_penrose(b, TOL8)
        fresh = Matrix.floating(b.array.copy())
        fu, fsigma, fv = svd(fresh)
        assert _bytes(u, v) == _bytes(fu, fv)
        assert np.array(sigma).tobytes() == np.array(fsigma).tobytes()
        assert d.r == r and _hs_bytes(d) == _hs_bytes(hs_decompose(fresh, TOL8))
        assert _bytes(gi, mp) == _bytes(group_inverse(fresh, TOL8), moore_penrose(fresh, TOL8))
        assert svd(b)[0] is u and svd(b)[2] is v and hs_decompose(b, TOL8) is d
        # the caller owns the sigma list it was given
        sigma[0] = -1.0
        sigma.append(7.0)
        assert svd(b)[1] == fsigma and svd(b)[1] is not svd(b)[1]


COARSE = Tolerance(rank_threshold_factor=1e-4)


@pytest.mark.parametrize("order", [(DEFAULT_TOL, COARSE), (COARSE, DEFAULT_TOL)],
                         ids=["default-first", "coarse-first"])
def test_kept_decomposition_follows_each_calls_rank_cut(order):
    # sigma_2 = 1e-6 counts under the default cut (1e-10 sigma_1) but not
    # under a 1e-4 cut: each call gets the r of its own tolerance, whatever
    # was asked of B before, and the decomposition of a fresh matrix
    b = Matrix.floating(np.diag([1.0, 1e-6, 0.0]))
    want_r = {DEFAULT_TOL: 2, COARSE: 1}
    for tol in order + order:
        d = hs_decompose(b, tol)
        assert d.r == want_r[tol]
        assert _hs_bytes(d) == _hs_bytes(hs_decompose(Matrix.floating(b.array.copy()), tol))


def test_repeated_queries_on_one_b_run_no_svd(monkeypatch):
    # after one group inverse, B's SVD, its decomposition and the inverses
    # and singular values of SK and K are all kept: a further decomposition
    # and group inverse at the same tolerance run no LAPACK SVD
    b = Matrix.floating([[2.0, 1.0, 1.0], [0, 3.0, 1.0], [0, 0, 0]])
    first = group_inverse(b, TOL8)
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a) or real(a, **kw))
    assert hs_decompose(b, TOL8).r == 2
    assert _bytes(group_inverse(b, TOL8)) == _bytes(first)
    assert calls == []


# ----------------------------------------------------------------------
# the similarity Q = U [[I, -M], [O, I]], M = K^-1 L, on the down-set shapes

TOL12 = Tolerance(rel=1e-12)
COUPLINGS = pytest.mark.parametrize("coupling", [0.0, 1.0], ids=["ep", "non-ep"])


def _diag(x, z):
    """diag(X, Z) of two square matrices."""
    r, n = x.rows, x.rows + z.rows
    out = np.zeros((n, n), dtype=complex)
    out[:r, :r], out[r:, r:] = x.array, z.array
    return Matrix.floating(out)


@COUPLINGS
@pytest.mark.parametrize("case", range(len(SHAPES)))
def test_the_core_form_and_the_similarity_hold(case, coupling):
    b, d, _ = _context(case, 1, coupling)
    q, q_inv = d.similarity()
    n, r, c = d.n, d.r, d.sigma_k()
    f, e = d.U.block(0, n, 0, r), q_inv.block(0, r, 0, n)
    zero, ident = Matrix.zeros(n - r, n - r, FLOAT), Matrix.identity(n - r, FLOAT)
    assert approx_eq(q @ q_inv, Matrix.identity(n, FLOAT), TOL12)
    assert approx_eq(q_inv @ b @ q, _diag(c, zero), TOL12)
    assert approx_eq(f @ d.ce(), b, TOL12) and approx_eq(c @ e, d.ce(), TOL12)
    assert approx_eq(f @ c.inverse() @ e, group_inverse(b, TOL7), TOL12)
    assert approx_eq(q @ _diag(c, ident) @ q_inv, extend_to_nonsingular(d), TOL12)
    # Q's first r columns are F, bit for bit, and Q is kept
    assert q.block(0, n, 0, r) == f and d.similarity()[0] is q


@COUPLINGS
@pytest.mark.parametrize("case", range(len(SHAPES)))
def test_maps_through_q_match_the_dense_formula(case, coupling):
    # each map that goes through F, C E or Q, against U [[X, Y], [O, Z]] U*
    b, d, spec = _context(case, 2, coupling)
    s = np.array(d.sigma).reshape(-1, 1)
    sk, sl, k_inv = s * d.K.array, s * d.L.array, d.K.inverse().array
    m, sk_inv, s_minus_k_inv = k_inv @ d.L.array, np.linalg.inv(sk), np.diag(d.sigma) - k_inv
    rng = np.random.default_rng(case)
    pairs = [(hs_reconstruct(d), dense_embedding(d, sk, sl)),
             (group_inverse(b, TOL7), dense_embedding(d, sk_inv, sk_inv @ m)),
             (extend_to_nonsingular(d),
              dense_embedding(d, sk, s_minus_k_inv @ d.L.array, np.eye(d.n - d.r)))]
    for k in range(4):
        t = sample_tau(spec, 20 + k)
        # an oblique projector of size n - r, or O
        v, u = rng.standard_normal((2, d.n - d.r)) + 1j * rng.standard_normal((2, d.n - d.r))
        w = np.outer(v, u) / (u @ v) if d.n > d.r else np.zeros((0, 0))
        h, ta = sk_inv @ t.array, t.array
        pairs += [(phi_inv(t, d, TOL7), dense_embedding(d, ta @ sk, ta @ sl)),
                  (predecessor_block_group_inverse(d, t, TOL7), dense_embedding(d, h, h @ m)),
                  (solve_ep_commute_idempotent(d, t, Matrix.floating(w), TOL7),
                   dense_embedding(d, ta, ta @ m - m @ w, w)),
                  (solve_xbx_family(d, t, TOL7), dense_embedding(d, ta))]
    for got, want in pairs:
        assert approx_eq(got, want, TOL12)
