import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from sharporder import (
    EXACT,
    FLOAT,
    Matrix,
    brute_common_lower_bounds,
    brute_commuting_idempotents,
    enumerate_index1,
    index_le_one,
    is_projector,
    meet_in_c2,
    sharp_leq,
    verify_glb,
)
from sharporder.errors import BudgetExceeded, NotSupported, ShapeMismatch
from sharporder.oracle import leq_unchecked, predecessor_table


def test_enumerate_n1():
    got = enumerate_index1(1, [0, 1])
    assert [m[0, 0] for m in got] == [0, 1]


def test_enumerate_matches_direct_filter():
    got = enumerate_index1(2, [-1, 0, 1])
    assert all(index_le_one(m) for m in got)
    # projector subset agrees with is_projector
    projectors = [m for m in got if is_projector(m)]
    assert all(m @ m == m for m in projectors)
    assert Matrix.zeros(2, 2, EXACT).key() in {m.key() for m in got}


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_index1(3, [0, 1, 2], cap=100)


def test_common_lower_bounds():
    uni = enumerate_index1(2, [0, 1, 2])
    b = Matrix.diag([1, 2], EXACT)
    clb = {m.key() for m in brute_common_lower_bounds(b, b, uni)}
    for v in ([0, 0], [1, 0], [0, 2], [1, 2]):
        assert Matrix.diag(v, EXACT).key() in clb
    # zero is always a common lower bound
    b2 = Matrix.exact([[2, 1], [0, 1]])
    clb2 = brute_common_lower_bounds(b, b2, uni)
    assert any(m.is_zero() for m in clb2)


def test_disjoint_spectrum_pair():
    uni = enumerate_index1(2, [-1, 0, 1, 2])
    b1 = Matrix.diag([1, 2], EXACT)
    b2 = Matrix.exact([[2, 1], [1, 1]])  # eigenvalues irrational
    clb = brute_common_lower_bounds(b1, b2, uni)
    assert [m for m in clb if not m.is_zero()] == []


def test_verify_glb():
    uni = enumerate_index1(2, [0, 1, 2])
    b1 = Matrix.diag([1, 2], EXACT)
    b2 = Matrix.diag([1, 0], EXACT)
    assert verify_glb(Matrix.diag([1, 0], EXACT), b1, b2, uni)
    assert not verify_glb(Matrix.zeros(2, 2, EXACT), b1, b2, uni)
    assert not verify_glb(Matrix.diag([0, 2], EXACT), b1, b2, uni)


@pytest.mark.parametrize("position", range(3), ids=["candidate", "b1", "b2"])
def test_verify_glb_refuses_a_float_matrix_in_any_position(position):
    # the same NotSupported whichever of candidate, b1 and b2 is float, not
    # a ModeMismatch from the first mixed product
    args = [Matrix.identity(2, EXACT)] * 3
    args[position] = Matrix.identity(2, FLOAT)
    with pytest.raises(NotSupported):
        verify_glb(*args, [])


def test_leq_unchecked_matches_sharp_leq():
    uni = enumerate_index1(2, [0, 1])
    for a in uni:
        for b in uni:
            assert leq_unchecked(a, b) == sharp_leq(a, b)


def test_predecessor_table():
    uni = enumerate_index1(2, [0, 1])
    table = predecessor_table(uni)
    zero_idx = next(i for i, m in enumerate(uni) if m.is_zero())
    for j, b in enumerate(uni):
        assert zero_idx in table[j]
        assert j in table[j]
        assert table[j] == {i for i, a in enumerate(uni) if leq_unchecked(a, b)}


# the universes the integer-form sweeps are checked on against the Matrix-level
# definitions: the benchmark grid, where every denominator is 1; a Gaussian
# grid whose members have denominators 1, 2, 3 and 6; and a seeded sample of
# the 3 x 3 index <= 1 matrices with entries in {-1, 0, 1}, biased to zeros
# so that its order has more than the trivial relations


def _sub_3x3(seed=36, size=160):
    rnd = random.Random(seed)
    seen, out = set(), []
    while len(out) < size:
        m = Matrix.exact([[rnd.choice((-1, 0, 0, 0, 1)) for _ in range(3)] for _ in range(3)])
        if m.key() not in seen and index_le_one(m):
            seen.add(m.key())
            out.append(m)
    return out


UNIVERSES = {
    "benchmark": lambda: enumerate_index1(2, [-1, 0, 1, 2]),
    "gaussian": lambda: enumerate_index1(2, [0, 1, Fraction(-1, 3), (0, Fraction(1, 2))]),
    "sub-3x3": _sub_3x3,
}


@pytest.fixture(scope="module", params=sorted(UNIVERSES))
def universe(request):
    """A universe and its predecessor table by the Matrix-level definition."""
    uni = UNIVERSES[request.param]()
    return uni, [frozenset(i for i, a in enumerate(uni) if leq_unchecked(a, b)) for b in uni]


def _fixed_matrices(uni, table, seed):
    """The four members with the most predecessors, two seeded members and,
    to move the common denominator, two seeded members scaled by
    (1 + 2i) / 5."""
    tops = sorted(range(len(uni)), key=lambda j: -len(table[j]))[:4]
    picks = random.Random(seed).sample(uni, 4)
    return ([uni[j] for j in tops] + picks[:2]
            + [m.scale((Fraction(1, 5), Fraction(2, 5))) for m in picks[2:]])


def test_predecessor_table_agrees_with_leq_unchecked(universe):
    uni, want = universe
    table = predecessor_table(uni)
    assert all(type(preds) is frozenset for preds in table)
    assert table == want
    # more than the reflexive relations are checked
    assert sum(map(len, table)) > 1.5 * len(uni)


def test_brute_common_lower_bounds_agree_with_leq_unchecked(universe):
    uni, table = universe
    sizes = []
    for b1, b2 in combinations_with_replacement(_fixed_matrices(uni, table, 1), 2):
        got = brute_common_lower_bounds(b1, b2, uni)
        want = [a for a in uni if leq_unchecked(a, b1) and leq_unchecked(a, b2)]
        assert len(got) == len(want) and all(x is y for x, y in zip(got, want))
        sizes.append(len(got))
    assert max(sizes) > 2


def test_brute_commuting_idempotents_agree_with_matrix_products(universe):
    uni, table = universe
    sizes = []
    for b in _fixed_matrices(uni, table, 2):
        got = brute_commuting_idempotents(b, uni)
        want = [s for s in uni if s @ s == s and s @ b == b @ s]
        assert len(got) == len(want) and all(x is y for x, y in zip(got, want))
        sizes.append(len(got))
    assert max(sizes) > 2


def test_sweeps_on_an_empty_universe():
    e = Matrix.identity(2)
    assert predecessor_table([]) == []
    assert brute_common_lower_bounds(e, e, []) == []
    assert brute_commuting_idempotents(e, []) == []


def test_sweeps_refuse_float_and_mixed_sizes():
    e2, e3 = Matrix.identity(2), Matrix.identity(3)
    f2 = Matrix.identity(2, FLOAT)
    for uni, b, exc in (([f2], e2, NotSupported), ([e2], f2, NotSupported),
                        ([e2, e3], e2, ShapeMismatch), ([e2], e3, ShapeMismatch),
                        ([Matrix.exact([[1, 0]])], e2, ShapeMismatch)):
        with pytest.raises(exc):
            brute_common_lower_bounds(b, b, uni)
        with pytest.raises(exc):
            brute_commuting_idempotents(b, uni)
    for uni, exc in (([f2], NotSupported), ([e2, e3], ShapeMismatch)):
        with pytest.raises(exc):
            predecessor_table(uni)


def test_verify_glb_finds_the_lower_bounds_itself():
    # on a sample of criterion 9's pairs, the meet and two candidates that
    # are no glb get one verdict with and without the bounds passed in
    uni = enumerate_index1(2, [-1, 0, 1, 2])
    ns = [m for m in uni if m.rank() == 2]
    rnd = random.Random(9)
    zero = Matrix.zeros(2, 2, EXACT)
    verdicts = []
    for _ in range(40):
        b1, b2 = rnd.sample(ns, 2)
        lbs = brute_common_lower_bounds(b1, b2, uni)
        for c in (meet_in_c2(b1, b2), zero, rnd.choice(uni)):
            verdict = verify_glb(c, b1, b2, uni)
            assert verdict == verify_glb(c, b1, b2, uni, lower_bounds=lbs)
            verdicts.append(verdict)
    assert verdicts[::3] == [True] * 40 and False in verdicts
