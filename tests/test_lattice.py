import random
from itertools import combinations

import numpy as np
import pytest

from sharporder import (
    EXACT,
    FLOAT,
    Matrix,
    approx_eq,
    boolean_center,
    classify_downset,
    complement_in_downset,
    delta_membership,
    hs_decompose,
    interval_iso_backward,
    interval_iso_forward,
    join_commuting,
    make_spec,
    matrix_meet,
    max_chain,
    meet_commuting,
    meet_in_c2,
    non_lattice_witness,
    proj_leq,
    sample_delta_projector,
    sharp_leq,
)
from sharporder.errors import (
    IndexTooLarge,
    NoEligibleEigenvalue,
    NonCommuting,
    NotInTau,
    NotSupported,
    PrecondViolated,
)
from sharporder.lattice import (
    BOUNDED_INFINITE_ANTICHAIN,
    NON_LATTICE,
    TWO_CHAIN,
)
from sharporder.oracle import (
    brute_common_lower_bounds,
    enumerate_index1,
    leq_unchecked,
    predecessor_table,
    verify_glb,
)

from conftest import TOL7, float_context, sample_predecessor, sample_tau


def test_meet_join_examples():
    d10 = Matrix.diag([1, 0], EXACT)
    d01 = Matrix.diag([0, 1], EXACT)
    assert meet_commuting(d10, d01).is_zero()
    assert join_commuting(d10, d01) == Matrix.identity(2, EXACT)
    t = Matrix.exact([[0, 1], [0, 1]])
    assert meet_commuting(t, Matrix.identity(2, EXACT)) == t
    assert join_commuting(t, Matrix.zeros(2, 2, EXACT)) == t
    a = Matrix.diag([1, 1, 0], EXACT)
    b = Matrix.diag([0, 1, 1], EXACT)
    assert meet_commuting(a, b) == Matrix.diag([0, 1, 0], EXACT)
    assert join_commuting(a, b) == Matrix.identity(3, EXACT)


def test_meet_noncommuting_rejected():
    t1 = Matrix.exact([[1, 0], [0, 0]])
    t2 = Matrix.exact([[0, 1], [0, 1]])
    with pytest.raises(NonCommuting):
        meet_commuting(t1, t2)


def test_matrix_meet_examples():
    b = Matrix.floating(np.diag([2.0, 1.0, 0.0]))
    d = hs_decompose(b)
    a = Matrix.floating(np.diag([2.0, 0.0, 0.0]))
    assert approx_eq(matrix_meet(a, b, d), a, TOL7)
    assert matrix_meet(Matrix.zeros(3, 3, FLOAT), b, d).is_zero(TOL7)
    a2 = Matrix.floating(np.diag([2.0, 1.0, 0.0]))
    assert approx_eq(matrix_meet(a, a2, d), a, TOL7)


def test_matrix_meet_equals_projector_meet():
    b, hs, spec = float_context([(2.0, [1]), (3.0, [1]), (-1.0, [1])], 0, seed=12)
    from sharporder.sharp import phi, phi_inv

    pairs = []
    for seed in range(8):
        pairs.append(sample_predecessor(hs, spec, seed))
    for a1, t1 in pairs:
        for a2, t2 in pairs:
            if not approx_eq(t1 @ t2, t2 @ t1, TOL7):
                continue
            got = matrix_meet(a1, a2, hs, TOL7)
            want = phi_inv(meet_commuting(t1, t2, TOL7), hs, TOL7)
            assert approx_eq(got, want, TOL7)
            j = join_commuting(t1, t2, TOL7)
            assert proj_leq(t1, j, TOL7) and proj_leq(t2, j, TOL7)


def test_complement_laws():
    assert complement_in_downset(Matrix.zeros(2, 2, EXACT), 2) == \
        Matrix.identity(2, EXACT)
    assert complement_in_downset(Matrix.diag([1, 0], EXACT), 2) == \
        Matrix.diag([0, 1], EXACT)
    spec = make_spec([(2, [2, 1])])
    for seed in range(10):
        t = sample_delta_projector(spec, seed).expand()
        c = complement_in_downset(t, 3)
        assert meet_commuting(t, c).is_zero()
        assert join_commuting(t, c) == Matrix.identity(3, EXACT)
    with pytest.raises(NotInTau):
        complement_in_downset(Matrix.exact([[2, 0], [0, 0]]), 2)


def test_classify_examples():
    d = classify_downset(make_spec([(2, [2, 1]), (3, [1])]))
    assert d.is_lattice and not d.is_distributive and not d.is_boolean
    kinds = [dict(f)["kind"] for f in d.factors]
    assert kinds == [BOUNDED_INFINITE_ANTICHAIN, TWO_CHAIN]

    d2 = classify_downset(make_spec([(2, [3]), (3, [1])]))
    assert d2.is_boolean and d2.is_distributive and d2.is_lattice
    assert d2.boolean_center_size == 4

    d3 = classify_downset(make_spec([(2, [1, 1, 1])]))
    assert not d3.is_lattice
    assert dict(d3.factors[0])["kind"] == NON_LATTICE


def test_classify_sweep_matches_block_counts():
    # small exhaustive sweep over multiplicity patterns
    import itertools

    lams = [1, 2, 3]
    for s in (1, 2, 3):
        for ts in itertools.product([1, 2, 3, 4], repeat=s):
            pairs = [(lams[j], [1] * ts[j]) for j in range(s)]
            d = classify_downset(make_spec(pairs))
            assert d.is_lattice == all(t <= 2 for t in ts)
            assert d.is_boolean == all(t == 1 for t in ts)
            if d.is_lattice and any(t == 2 for t in ts):
                assert not d.is_distributive
            assert d.max_chain_length == sum(ts) + 1


def test_boolean_center_counts_and_commutation():
    spec = make_spec([(2, [2, 1]), (3, [1])])
    center = boolean_center(spec)
    assert len(center) == 4
    mats = [cp.expand() for cp in center]
    assert sorted(m.rank() for m in mats) == [0, 1, 3, 4]
    # center elements commute with every sampled delta element
    for seed in range(10):
        t = sample_delta_projector(spec, seed).expand()
        for m in mats:
            assert m @ t == t @ m


def test_boolean_center_distributive():
    spec = make_spec([(2, [1]), (3, [2]), (5, [1])])
    mats = [cp.expand() for cp in boolean_center(spec)]
    for t1 in mats:
        for t2 in mats:
            for t3 in mats:
                lhs = meet_commuting(t1, join_commuting(t2, t3))
                rhs = join_commuting(meet_commuting(t1, t2),
                                     meet_commuting(t1, t3))
                assert lhs == rhs


def test_witness_111_instance():
    spec = make_spec([(1, [1, 1, 1])])
    t1, t2, t3, t4 = non_lattice_witness(spec)
    assert t1 == Matrix.exact([[0, 1, 0], [0, 1, 0], [0, 0, 0]])
    assert t2 == Matrix.exact([[0, 1, 0], [0, 1, 0], [0, 1, 0]])
    assert t3 == Matrix.exact([[0, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert t4 == Matrix.exact([[0, 1, 0], [0, 1, 0], [-1, 1, 1]])
    assert proj_leq(t1, t3) and proj_leq(t2, t4)


def test_witness_relations_various_sizes():
    for sizes in ([1, 1, 1], [2, 1, 1], [2, 2, 1], [3, 2, 1], [2, 2, 2],
                  [1, 1, 1, 1]):
        spec = make_spec([(2, sizes)])
        t1, t2, t3, t4 = non_lattice_witness(spec)
        for t in (t1, t2, t3, t4):
            assert delta_membership(t, spec)
        assert proj_leq(t1, t3) and proj_leq(t1, t4)
        assert proj_leq(t2, t3) and proj_leq(t2, t4)
        assert not proj_leq(t1, t2) and not proj_leq(t2, t1)
        assert not proj_leq(t3, t4) and not proj_leq(t4, t3)


def _dense_witness(a, b, c):
    """T1..T4 on the leading three blocks (sizes a >= b >= c), built densely:
    rows [O X O], [O I_b O] with X = [I_b; O], then third block rows
    [O O O], [O Y O], [O O I_c] and [Z Y' I_c], Y = [O I_c]."""
    n = a + b + c
    base = np.zeros((n, n))
    base[:a, a:a + b] = np.eye(a, b)
    base[a:a + b, a:a + b] = np.eye(b)
    y = np.zeros((n, n))
    y[a + b:, a:a + b] = np.eye(c, b, b - c)
    ic = np.zeros((n, n))
    ic[a + b:, a + b:] = np.eye(c)
    z = np.zeros((n, n))
    if a == b:
        z[a + b:, :a] = -np.eye(c, a, a - c)
        z += y
    else:
        z[a + b, a - 1] = -1
    return base, base + y, base + ic, base + ic + z


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("abc", [(1, 1, 1), (2, 2, 1), (2, 1, 1), (3, 2, 1)])
def test_witness_entries_match_dense_reference(abc, mode):
    # the target eigenvalue sits after a 2-block and has a fourth block, so
    # the witness lives at offset 2 with zero padding on both sides
    a, b, c = abc
    spec = make_spec([(3, [2]), (1, [a, b, c, 1]), (5, [1])], mode=mode)
    off, r = 2, spec.r
    for t, ref in zip(non_lattice_witness(spec), _dense_witness(a, b, c)):
        full = np.zeros((r, r))
        full[off:off + len(ref), off:off + len(ref)] = ref
        assert t.mode == mode
        if mode == FLOAT:
            assert np.array_equal(t.array, full)
        else:
            assert t == Matrix.exact(full.astype(int).tolist())


def test_witness_needs_three_blocks():
    with pytest.raises(NoEligibleEigenvalue):
        non_lattice_witness(make_spec([(2, [2, 1])]))


def test_witness_interval_screen_small():
    spec = make_spec([(1, [1, 1, 1])])
    _, t2, t3, _ = non_lattice_witness(spec)
    for seed in range(100):
        t = sample_delta_projector(spec, seed).expand()
        if proj_leq(t2, t) and proj_leq(t, t3):
            assert t == t2 or t == t3


def test_interval_iso_examples():
    t1 = Matrix.diag([1, 0, 0], EXACT)
    t2 = Matrix.identity(3, EXACT)
    p = Matrix.diag([0, 1, 0], EXACT)
    assert interval_iso_forward(p, t1, t2) == Matrix.diag([1, 1, 0], EXACT)
    assert interval_iso_forward(Matrix.zeros(3, 3, EXACT), t1, t2) == t1
    assert interval_iso_forward(t2 - t1, t1, t2) == t2
    assert interval_iso_backward(Matrix.diag([1, 1, 0], EXACT), t1) == p
    with pytest.raises(PrecondViolated):
        interval_iso_forward(t2, t1, t2)  # t2 is not below t2 - t1


def test_interval_iso_rejects_empty_interval_and_non_projector():
    o = Matrix.zeros(2, 2, EXACT)
    # T1 = diag(1, 0) is not below T2 = diag(0, 1), so [T1, T2] is empty even
    # though O lies below T2 - T1
    with pytest.raises(PrecondViolated):
        interval_iso_forward(o, Matrix.diag([1, 0], EXACT), Matrix.diag([0, 1], EXACT))
    # 2 I lies above O in the projector order's equations but is no projector
    with pytest.raises(PrecondViolated):
        interval_iso_backward(Matrix.identity(2, EXACT).scale(2), o)


def test_interval_iso_round_trip_random():
    spec = make_spec([(2, [1, 1]), (3, [1])])
    rnd = random.Random(2)
    done = 0
    for seed in range(60):
        if done >= 20:
            break
        bits_small = [rnd.randint(0, 1) for _ in range(3)]
        bits_big = [max(a, rnd.randint(0, 1)) for a in bits_small]
        t1 = sample_delta_projector(spec, seed, block_choices=bits_small).expand()
        s2 = sample_delta_projector(spec, seed, block_choices=bits_big).expand()
        if not proj_leq(t1, s2):
            continue
        done += 1
        diff = s2 - t1
        for inner_seed in range(5):
            bits_mid = [b & rnd.randint(0, 1) for b in
                        [y - x for x, y in zip(bits_small, bits_big)]]
            p = sample_delta_projector(spec, seed,
                                       block_choices=bits_mid).expand()
            if not proj_leq(p, diff):
                continue
            q = interval_iso_forward(p, t1, s2)
            assert proj_leq(t1, q) and proj_leq(q, s2)
            assert interval_iso_backward(q, t1) == p
    assert done >= 5


def test_max_chain_examples():
    b = Matrix.floating(np.diag([2.0, 1.0, 0.0]))
    d = hs_decompose(b)
    # core block of the decomposition is diag(2,1)
    spec = make_spec([(2.0, [1]), (1.0, [1])],
                     P=Matrix.identity(2, FLOAT), mode=FLOAT)
    chain = max_chain(d, spec)
    assert len(chain) == 3
    assert chain[0].is_zero(TOL7)
    assert approx_eq(chain[-1], b, TOL7)
    for x, y in zip(chain, chain[1:]):
        assert sharp_leq(x, y, TOL7)


def test_max_chain_single_block():
    b, hs, spec = float_context([(5.0, [2])], 0, seed=20)
    chain = max_chain(hs, spec, TOL7)
    assert len(chain) == 2
    assert chain[0].is_zero(TOL7) and approx_eq(chain[1], b, TOL7)


def test_meet_in_c2_examples():
    b = Matrix.exact([[1, 0], [0, 2]])
    assert meet_in_c2(b, b) == b
    assert meet_in_c2(b, Matrix.exact([[1, 0], [0, 3]])) == \
        Matrix.diag([1, 0], EXACT)
    got = meet_in_c2(b, Matrix.exact([[2, 1], [0, 1]]))
    uni = enumerate_index1(2, [-1, 0, 1, 2])
    assert verify_glb(got, b, Matrix.exact([[2, 1], [0, 1]]), uni)


def test_meet_in_c2_guards():
    with pytest.raises(NotSupported):
        meet_in_c2(Matrix.identity(2, FLOAT), Matrix.identity(2, FLOAT))
    with pytest.raises(IndexTooLarge):
        meet_in_c2(Matrix.exact([[0, 1], [0, 0]]), Matrix.identity(2, EXACT))


def test_meet_in_c2_argument_index_and_equal_arguments():
    # the index of b1 is checked before that of b2, and b1 = b2 meets in b1
    nil, p = Matrix.exact([[0, 1], [0, 0]]), Matrix.exact([[1, 1], [0, 0]])
    for b1, b2, which in ((nil, p, "first"), (p, nil, "second"), (nil, nil, "first")):
        with pytest.raises(IndexTooLarge, match=f"^{which} argument has index > 1$"):
            meet_in_c2(b1, b2)
    b = Matrix.exact([[2, 1], [0, 3]])
    assert meet_in_c2(b, b) is b
    assert meet_in_c2(b, Matrix.exact([[2, 1], [0, 3]])) is b


def test_meet_in_c2_comparable_arguments():
    b = Matrix.exact([[1, 0], [0, 2]])
    a = Matrix.exact([[1, 0], [0, 0]])
    assert meet_in_c2(a, b) == a
    assert meet_in_c2(b, a) == a


def test_meet_in_c2_on_the_gaussian_grid():
    # every pair of index <= 1 members of the grid, singular ones included;
    # B1 - B2 and its kernel vectors are Gaussian here, and criterion 9 sees
    # only nonsingular real pairs
    uni = enumerate_index1(2, [0, 1, -1, (0, 1)])
    table = predecessor_table(uni)
    assert len(uni) == 244
    pairs = 0
    for i, j in combinations(range(len(uni)), 2):
        b1, b2 = uni[i], uni[j]
        m = meet_in_c2(b1, b2)
        assert verify_glb(m, b1, b2, uni, lower_bounds=[uni[k] for k in table[i] & table[j]])
        assert meet_in_c2(b2, b1) == m
        pairs += 1
    assert pairs == 29646


def test_meet_in_c2_against_oracle_sample():
    uni = enumerate_index1(2, [-1, 0, 1, 2])
    nonsing = [m for m in uni if m.rank() == 2]
    rnd = random.Random(4)
    picks = rnd.sample(nonsing, 20)
    for b1 in picks[:10]:
        for b2 in picks[10:]:
            got = meet_in_c2(b1, b2)
            clbs = brute_common_lower_bounds(b1, b2, uni)
            assert verify_glb(got, b1, b2, uni, lower_bounds=clbs)
