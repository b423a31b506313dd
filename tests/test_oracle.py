import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

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
from sharporder import oracle
from sharporder.errors import BudgetExceeded, MalformedInput, NotSupported, ShapeMismatch
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


def test_enumerate_takes_a_repeated_grid_value_once():
    # 1 and "2/2" are one value: 14 distinct members, not 77 with repeats,
    # and the cap counts the 3 distinct values, not the 4 given
    want = [m.key() for m in enumerate_index1(2, [0, 1, (1, 0)])]
    got = [m.key() for m in enumerate_index1(2, [0, 1, "2/2", Fraction(3, 3)], cap=3 ** 4)]
    assert got == want == [m.key() for m in enumerate_index1(2, [0, 1])]
    assert len(got) == len(set(got)) == 14
    # first-seen order of the values decides the lexicographic order
    assert [m[0, 0] for m in enumerate_index1(1, [1, 0, "1/1"])] == [1, 0]


@pytest.mark.parametrize("n", [-2, -1, 2.0, "2", True, None])
def test_enumerate_refuses_a_size_that_is_no_non_negative_int(n):
    with pytest.raises(MalformedInput):
        enumerate_index1(n, [0, 1, 2])


def test_enumerate_n0_is_the_empty_matrix():
    (m,) = enumerate_index1(0, [0, 1])
    assert (m.rows, m.cols) == (0, 0)
    assert predecessor_table([m, m]) == [frozenset({0, 1})] * 2
    assert brute_common_lower_bounds(m, m, [m]) == [m]


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
# grid whose members have denominators 1, 2, 3 and 6; a seeded sample of
# the 3 x 3 index <= 1 matrices with entries in {-1, 0, 1}, biased to zeros
# so that its order has more than the trivial relations; and seeded 3 x 3
# Gaussian-rational members, with decoys that pass the first-row lookup


def _sub_3x3(seed=36, size=160):
    rnd = random.Random(seed)
    seen, out = set(), []
    while len(out) < size:
        m = Matrix.exact([[rnd.choice((-1, 0, 0, 0, 1)) for _ in range(3)] for _ in range(3)])
        if m.key() not in seen and index_le_one(m):
            seen.add(m.key())
            out.append(m)
    return out


# the eigenvalues of _gaussian_3x3's members: on the first an idempotent
# chain up to I, on the others chains with distinct eigenvalues
LAMBDAS = ((1, 1, 1), (1, 1, 3), (1, (2, 1), Fraction(-1, 2)))


def _gaussian_3x3(seed=39, size=120):
    """size seeded 3 x 3 members with Gaussian-rational entries, whose first
    rows rarely repeat.  Five sixths are P D P^-1 for a seeded P and every
    D that keeps some of the diagonal of one of LAMBDAS and zeroes the rest,
    so members of one P are related.  The rest are decoys: A + u v for a
    related pair A <= B, with u = (0, a02, -a01)^T from A's first row a0 and
    a seeded row v, not below B.  A decoy keeps A's first row, and a0 u = 0,
    so the first rows of its square and of its product with B are both
    a0 A = a0 B: the first-row lookup lets it through, and the rest of the
    products must reject it."""
    rnd = random.Random(seed)

    def scalar():
        return (Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)),
                Fraction(rnd.randint(-2, 2), rnd.randint(1, 2)))

    seen, real, decoys = set(), [], []

    def add(m, into):
        if m.key() not in seen and index_le_one(m):
            seen.add(m.key())
            into.append(m)

    while len(real) < size - size // 6:
        p = Matrix.exact([[scalar() for _ in range(3)] for _ in range(3)])
        if p.rank() < 3:
            continue
        lam, q = rnd.choice(LAMBDAS), p.inverse()
        for keep in product((0, 1), repeat=3):
            add(p @ Matrix.diag([x if k else 0 for x, k in zip(lam, keep)]) @ q, real)
    del real[size - size // 6:]
    while len(decoys) < size // 6:
        a, b = rnd.sample(real, 2)
        if leq_unchecked(a, b):
            a0 = a.row(0)
            u = Matrix.exact([[0], [a0[2]], [-a0[1]]])
            m = a + u @ Matrix.exact([[scalar() for _ in range(3)]])
            if not leq_unchecked(m, b):
                add(m, decoys)
    return real + decoys


UNIVERSES = {
    "benchmark": lambda: enumerate_index1(2, [-1, 0, 1, 2]),
    "gaussian": lambda: enumerate_index1(2, [0, 1, Fraction(-1, 3), (0, Fraction(1, 2))]),
    "sub-3x3": _sub_3x3,
    "gaussian-3x3": _gaussian_3x3,
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


def test_gaussian_3x3_first_rows_are_rare_and_its_decoys_pass_the_lookup():
    uni = _gaussian_3x3()
    assert len({tuple(m.row(0)) for m in uni}) > 0.8 * len(uni)
    # each decoy A has a nonzero first row and a B in the universe with
    # AB and A^2 of one first row, though A is not below B
    for a in uni[-(len(uni) // 6):]:
        head = (a @ a).row(0)
        assert not a.block(0, 1, 0, 3).is_zero()
        assert any((a @ b).row(0) == head and not leq_unchecked(a, b) for b in uni)


def test_predecessor_table_makes_fewer_products_than_pairs(monkeypatch):
    # a cost guard: one product per pair (60,516 on the benchmark grid) is
    # the pairwise sweep the first-row lookup replaced
    uni, product_of, calls = UNIVERSES["benchmark"](), oracle._rows_product, []

    def counted(ra, rb, nc):
        calls.append(nc)
        return product_of(ra, rb, nc)

    monkeypatch.setattr(oracle, "_rows_product", counted)
    assert len(predecessor_table(uni)) == len(uni)
    assert 0 < len(calls) < len(uni) ** 2


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
