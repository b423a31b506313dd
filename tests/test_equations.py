import numpy as np
import pytest

from sharporder import (
    EXACT,
    FLOAT,
    Matrix,
    approx_eq,
    boolean_center,
    count_solutions,
    finite_solutions,
    group_inverse,
    hs_decompose,
    make_spec,
    psi,
    sample_delta_projector,
    solve_ep_commute_idempotent,
    solve_jordan_commuting_projectors,
    solve_xbx_family,
    split_ep_solution,
    verify_power_commute,
)
from sharporder.core import matrix_dumps
from sharporder.equations import jordan_family_member
from sharporder.errors import (HypothesisViolated, NotInTau, PrecondViolated, SingularityMismatch,
                               SingularK, WNotProjector)
from sharporder.floatmatrix import slices
from sharporder.jordan import center_choices
from sharporder.oracle import brute_commuting_idempotents, enumerate_index1
from sharporder.sharp import psi_choices

from conftest import TOL7, dense_embedding, float_context, sample_tau


def _non_ep_2x2(top):
    """B = [[top, 1], [0, 0]], index 1 and not EP, with the spec of its
    1 x 1 core block."""
    b = Matrix.floating([[top, 1.0], [0, 0]])
    return b, hs_decompose(b), make_spec([(top, [1])], P=Matrix.floating([[1]]), mode=FLOAT)


def _ep_context():
    b = Matrix.floating(np.diag([1.0, 2.0, 0.0]))
    d = hs_decompose(b)
    # core block is diag(2,1) after singular-value ordering
    spec = make_spec([(2.0, [1]), (1.0, [1])],
                     P=Matrix.identity(2, FLOAT), mode=FLOAT)
    return b, d, spec


def test_solve_ep_edges():
    b, d, _ = _ep_context()
    z = solve_ep_commute_idempotent(d, Matrix.zeros(2, 2, FLOAT),
                                    Matrix.zeros(1, 1, FLOAT))
    assert z.is_zero(TOL7)
    i = solve_ep_commute_idempotent(d, Matrix.identity(2, FLOAT),
                                    Matrix.identity(1, FLOAT))
    assert approx_eq(i, Matrix.identity(3, FLOAT), TOL7)


def test_solve_ep_solutions_satisfy_system():
    b, d, spec = _ep_context()
    sols = []
    for cp in boolean_center(spec):
        t = psi(cp.expand().to_float(), spec.P)
        for w_val in (0.0, 1.0):
            w = Matrix.floating([[w_val]])
            s = solve_ep_commute_idempotent(d, t, w)
            assert approx_eq(s @ b, b @ s, TOL7)
            assert approx_eq(s @ s, s, TOL7)
            t2, w2 = split_ep_solution(d, s)
            assert approx_eq(t2, t, TOL7)
            sols.append(s)
    assert len(sols) == 8


def test_solve_ep_guards():
    # B need not be EP: T = I and W = I give I for this B with L nonzero
    b = Matrix.floating([[1.0, 1.0, 0], [0, 0, 0], [0, 0, 0]])
    d = hs_decompose(b)
    assert not d.L.is_zero(TOL7)
    i = solve_ep_commute_idempotent(d, Matrix.identity(1, FLOAT), Matrix.identity(2, FLOAT))
    assert approx_eq(i, Matrix.identity(3, FLOAT), TOL7)
    _, dd, _ = _ep_context()
    with pytest.raises(NotInTau):
        solve_ep_commute_idempotent(dd, Matrix.floating([[0.5, 0], [0, 0]]),
                                    Matrix.zeros(1, 1, FLOAT))
    with pytest.raises(WNotProjector):
        solve_ep_commute_idempotent(dd, Matrix.identity(2, FLOAT),
                                    Matrix.floating([[0.5]]))


@pytest.mark.parametrize("pairs, extra_zeros", [
    ([(2.0, [1]), (-1.0, [1]), (3.0, [1])], 0),
    ([(2.0, [2]), (1j, [1])], 0),
    ([(2.0, [1]), (-1.0, [1]), (0.5 + 1j, [1])], 1),
    ([(1.5, [1])], 1),
])
def test_finite_solutions_match_one_by_one(pairs, extra_zeros):
    # the batched members are those of solve_ep_commute_idempotent, byte for
    # byte and in its order: T over the center, then W = O, I
    for seed in range(1, 6):
        _, d, spec = float_context(pairs, extra_zeros, seed)
        m = d.n - d.r
        ws = [Matrix.zeros(m, m, FLOAT), Matrix.identity(m, FLOAT)][:m + 1]
        centers = slices(psi_choices(spec, center_choices(spec)))
        expected = [solve_ep_commute_idempotent(d, t, w, TOL7) for t in centers for w in ws]
        got = finite_solutions(d, spec, TOL7)
        assert len(got) == 2 ** (spec.s + m) == count_solutions(d, spec, TOL7)
        assert [matrix_dumps(s) for s in got] == [matrix_dumps(s) for s in expected]


def test_finite_solutions_infinite_and_guards():
    _, d, _ = _ep_context()
    assert finite_solutions(d, make_spec([(2.0, [1, 1])], mode=FLOAT)) is None
    dd = hs_decompose(Matrix.floating(np.diag([1.0, 0.0, 0.0])))
    assert finite_solutions(dd, make_spec([(1.0, [1])], mode=FLOAT)) is None
    # a P that puts T outside tau: NotInTau, for EP B and for a B that is not
    spec = make_spec([(2.0, [1]), (1.0, [1])], P=Matrix.floating([[1, 1], [0, 1]]), mode=FLOAT)
    with pytest.raises(NotInTau):
        finite_solutions(d, spec)
    nep = hs_decompose(Matrix.floating([[1.0, 0, 0], [0, 2.0, 1.0], [0, 0, 0]]))
    with pytest.raises(NotInTau):
        finite_solutions(nep, spec)


@pytest.mark.parametrize("eigenvalues", [[1.0], [1.0, 2.0, 3.0]], ids=["r1", "r3"])
def test_spec_of_another_size_is_rejected(eigenvalues):
    # B = diag(1, 2, 0) has a 2 x 2 core block and 8 commuting idempotents;
    # a spec of one or three eigenvalues describes no core block of it, where
    # a count of 4 or 16 would be wrong
    d = hs_decompose(Matrix.floating(np.diag([1.0, 2.0, 0.0])))
    k = len(eigenvalues)
    spec = make_spec([(lam, [1]) for lam in eigenvalues], P=Matrix.identity(k, FLOAT),
                     mode=FLOAT)
    for call in (count_solutions, finite_solutions):
        with pytest.raises(PrecondViolated, match="core block"):
            call(d, spec)


@pytest.mark.parametrize("top", [1.0, 2.0])
def test_non_ep_2x2_family(top):
    # the members are O, I - BB#, BB# and I, in that order; for top = 1, B is
    # idempotent and BB# = B
    b, d, spec = _non_ep_2x2(top)
    assert not d.L.is_zero(TOL7)
    bb = b @ group_inverse(b, TOL7)
    ident = Matrix.identity(2, FLOAT)
    got = finite_solutions(d, spec, TOL7)
    assert count_solutions(d, spec, TOL7) == len(got) == 4
    for s, want in zip(got, [Matrix.zeros(2, 2, FLOAT), ident - bb, bb, ident]):
        assert approx_eq(s, want, TOL7)
    # every commuting idempotent on the grid {-1, 0, 1, 2} is a member
    found = brute_commuting_idempotents(Matrix.exact([[int(top), 1], [0, 0]]),
                                        enumerate_index1(2, [-1, 0, 1, 2]))
    assert len(found) == (4 if top == 1.0 else 2)
    for s in found:
        assert any(approx_eq(s.to_float(), m, TOL7) for m in got)


@pytest.mark.parametrize("seed", range(1, 7))
def test_non_ep_oblique_w(seed):
    # n - r = 2 or 3 and B not EP: T from tau, W an oblique projector
    pairs = [(2.0, [1]), (-1.0, [1]), (0.5 + 1j, [1])][:1 + seed % 3]
    b, d, spec = float_context(pairs, 2 + seed % 2, seed, coupling=1.0)
    assert not d.L.is_zero(TOL7)
    rng = np.random.default_rng(seed)
    m = d.n - d.r
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    w = Matrix.floating(np.outer(v, u) / (u @ v))
    assert not approx_eq(w, w.H, TOL7)
    t = sample_tau(spec, seed)
    x = solve_ep_commute_idempotent(d, t, w, TOL7)
    assert approx_eq(x @ b, b @ x, TOL7) and approx_eq(x @ x, x, TOL7)
    t2, w2 = split_ep_solution(d, x, TOL7)
    assert approx_eq(t2, t, TOL7) and approx_eq(w2, w, TOL7)
    # without the TM - MW corner, U diag(T, W) U* is no solution for this B
    with pytest.raises(NotInTau):
        split_ep_solution(d, dense_embedding(d, t.array, z=w.array), TOL7)


def test_finite_solutions_check_tau_at_full_rank():
    # a P that is not a similarity of the core block of a nonsingular B puts
    # T outside tau: NotInTau, where two of the four would not commute with B
    b = Matrix.floating(np.diag([1.0, 2.0]))
    spec = make_spec([(2.0, [1]), (1.0, [1])], P=Matrix.floating([[1, 1], [0, 1]]), mode=FLOAT)
    with pytest.raises(NotInTau):
        finite_solutions(hs_decompose(b), spec)


def test_index_two_b_has_no_family():
    # rank n - 1 and index 2 (not EP either): no count and no member, where a
    # count of 2^(s+1) would be wrong
    d = hs_decompose(Matrix.floating([[1.0, 0, 0], [0, 0, 1.0], [0, 0, 0]]))
    assert d.r == d.n - 1 and not d.index_le_one()
    spec = make_spec([(2.0, [1]), (1.0, [1])], P=Matrix.identity(2, FLOAT), mode=FLOAT)
    o1, o2 = Matrix.zeros(1, 1, FLOAT), Matrix.zeros(2, 2, FLOAT)
    for call in (lambda: count_solutions(d, spec), lambda: solve_ep_commute_idempotent(d, o2, o1),
                 lambda: split_ep_solution(d, Matrix.zeros(3, 3, FLOAT))):
        with pytest.raises(SingularK):
            call()


def test_count_solutions_cases():
    _, d, spec = _ep_context()
    assert count_solutions(d, spec) == 8

    b2 = Matrix.floating(np.diag([1.0, 2.0]))
    d2 = hs_decompose(b2)
    spec2 = make_spec([(2.0, [1]), (1.0, [1])],
                      P=Matrix.identity(2, FLOAT), mode=FLOAT)
    assert count_solutions(d2, spec2) == 4

    b3 = Matrix.floating([[5.0, 1.0], [0.0, 5.0]])
    d3 = hs_decompose(b3)
    spec3 = make_spec([(5.0, [2])], mode=FLOAT)
    assert count_solutions(d3, spec3) == 2


def test_count_solutions_guards():
    _, d, _ = _ep_context()
    with pytest.raises(HypothesisViolated):
        count_solutions(d, make_spec([(2.0, [1, 1])], mode=FLOAT))
    b = Matrix.floating(np.diag([1.0, 0.0, 0.0]))
    dd = hs_decompose(b)
    with pytest.raises(HypothesisViolated):
        count_solutions(dd, make_spec([(1.0, [1])], mode=FLOAT))


def test_verify_power_commute():
    b, d, spec = _ep_context()
    s = solve_ep_commute_idempotent(d, Matrix.identity(2, FLOAT),
                                    Matrix.zeros(1, 1, FLOAT))
    assert verify_power_commute(s, b, 6)
    assert verify_power_commute(Matrix.identity(3, FLOAT), b, 6)
    bad = Matrix.floating([[1.0, 0, 0], [1.0, 0, 0], [0, 0, 0]])
    assert approx_eq(bad @ bad, bad, TOL7)
    assert not verify_power_commute(bad, b, 6)


def test_xbx_family():
    b, d, spec = _ep_context()
    z = solve_xbx_family(d, Matrix.zeros(2, 2, FLOAT))
    assert z.is_zero(TOL7)
    s = solve_xbx_family(d, Matrix.identity(2, FLOAT))
    # T = I gives S = B B#
    bb = b @ group_inverse(b, TOL7)
    assert approx_eq(s, bb, TOL7)
    assert approx_eq(s @ b @ s, b @ s, TOL7)
    assert approx_eq(s @ s, s, TOL7)


def test_xbx_family_on_non_ep_and_sampled_t():
    # B need not be EP
    pairs = [(2.0, [2, 1]), (-1.0, [1])]
    b, d, spec = float_context(pairs, 0, seed=14)
    for seed in range(6):
        t = sample_tau(spec, seed)
        s = solve_xbx_family(d, t, TOL7)
        assert approx_eq(s @ b @ s, b @ s, TOL7)
        assert approx_eq(s @ s, s, TOL7)


def test_jordan_commuting_family_finite():
    spec = make_spec([(2, [1]), (3, [1])], P=Matrix.identity(2, EXACT))
    fam = solve_jordan_commuting_projectors(spec.P, spec)
    assert fam.finite_count == 4
    keys = {m.key() for m in fam.members}
    assert keys == {Matrix.diag(v, EXACT).key()
                    for v in ([0, 0], [1, 0], [0, 1], [1, 1])}
    b = Matrix.diag([2, 3], EXACT)
    for m in fam.members:
        assert m @ b == b @ m and m @ m == m


def test_jordan_commuting_family_single_block():
    spec = make_spec([(5, [2])], P=Matrix.identity(2, EXACT))
    fam = solve_jordan_commuting_projectors(spec.P, spec)
    assert fam.finite_count == 2
    assert {m.key() for m in fam.members} == {
        Matrix.zeros(2, 2, EXACT).key(), Matrix.identity(2, EXACT).key()}


def test_jordan_commuting_family_infinite_and_rank_classes():
    # eigenvalue with two blocks q > p: ranks limited to {0, p, q, n}
    spec = make_spec([(2, [2, 1])], P=Matrix.identity(3, EXACT))
    fam = solve_jordan_commuting_projectors(spec.P, spec)
    assert fam.finite_count is None and fam.members is None
    b = Matrix.exact([[2, 1, 0], [0, 2, 0], [0, 0, 2]])
    for seed in range(25):
        t = sample_delta_projector(spec, seed).expand()
        s = jordan_family_member(fam, t)
        assert s @ b == b @ s and s @ s == s
        assert s.rank() in {0, 1, 2, 3}


def test_jordan_commuting_guards():
    spec = make_spec([(2, [1])])
    with pytest.raises(SingularityMismatch):
        solve_jordan_commuting_projectors(Matrix.zeros(1, 1, EXACT), spec)
    with pytest.raises(SingularityMismatch):
        solve_jordan_commuting_projectors(Matrix.identity(2, EXACT), spec)


def test_completeness_against_oracle():
    # B = diag(1,2): all commuting idempotents over a small grid are exactly
    # the four family members
    b = Matrix.diag([1, 2], EXACT)
    spec = make_spec([(1, [1]), (2, [1])], P=Matrix.identity(2, EXACT))
    fam = solve_jordan_commuting_projectors(spec.P, spec)
    uni = enumerate_index1(2, [-1, 0, 1])
    found = {m.key() for m in brute_commuting_idempotents(b, uni)}
    assert found == {m.key() for m in fam.members}
