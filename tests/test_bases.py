"""The bases of the exact generalized inverses: F, a's pivot columns, and G,
a's own rows at the first rank-many positions of the forward elimination's
row order.

Each is checked against its definition: the rows span the row space, the
Moore-Penrose inverse satisfies the four Penrose equations, and the group
inverse the three group axioms, or index_le_one is False.  Both are also
checked against the formulas over the echelon-row basis that the row order
replaced, which give the same unique matrices.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharporder import EXACT, Matrix, group_inverse, index_le_one, moore_penrose
from sharporder.core import _bareiss
from sharporder.errors import IndexTooLarge, SingularMatrix
from sharporder.scalars import QQi

part = st.fractions(min_value=-3, max_value=3, max_denominator=4)
entry = st.one_of(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.tuples(part, part),
                  st.just(0))
# (re +- i) / q: a complex scalar whose imaginary part has denominator q,
# so a scaled matrix has complex pivots and a denominator other than 1
scalars = st.builds(lambda re, im, q: QQi(Fraction(re, q), Fraction(im, q)),
                    st.integers(-3, 3), st.sampled_from([-1, 1]), st.sampled_from([2, 3, 5]))


@st.composite
def matrices(draw, max_n=8, square=False):
    """Gaussian-rational matrices up to max_n x max_n of rank at most k >= 1,
    a product through a k-wide middle, scaled by one of scalars; about half
    of the square ones have a nilpotent Jordan block mixed in, so their
    index is 2 or more."""
    nr = draw(st.integers(1, max_n))
    nc = nr if square else draw(st.integers(1, max_n))

    def block(r, c):
        return Matrix.exact([[draw(entry) for _ in range(c)] for _ in range(r)])

    if square and nr >= 2 and draw(st.booleans()):
        # diag(core, J_m(0)) by a unit upper triangular similarity
        m = draw(st.integers(2, min(3, nr)))
        core = draw(matrices(max_n=nr - m, square=True)) if nr > m else Matrix.zeros(0, 0)
        c = core.rows
        b = Matrix.from_entries(nr, nr, [(i, j, core[i, j]) for i in range(c) for j in range(c)]
                                + [(c + i, c + i + 1, 1) for i in range(m - 1)], EXACT)
        s = Matrix.exact([[1 if i == j else (draw(st.integers(-2, 2)) if j > i else 0)
                           for j in range(nr)] for i in range(nr)])
        return s @ b @ s.inverse()
    k = draw(st.integers(1, min(nr, nc)))
    return (block(nr, k) @ block(k, nc)).scale(draw(scalars))


def rows_at(a, indices):
    """The rows of a at indices, as a Matrix with a's column count."""
    return Matrix.from_entries(len(indices), a.cols, [(i, j, x) for i, r in enumerate(indices)
                                                      for j, x in enumerate(a.row(r))], EXACT)


def echelon_bases(a):
    """(F, G) as the bases were first taken: a's pivot columns and the
    nonzero rows of its forward-only Bareiss echelon form."""
    echelon, pivots, _, _ = _bareiss(a._intform[1], a.rows, a.cols)
    k = len(pivots)
    f = Matrix.from_entries(a.rows, k, [(i, c, a[i, j]) for i in range(a.rows)
                                        for c, j in enumerate(pivots)], EXACT)
    g = Matrix.from_entries(k, a.cols, [(i, j, x) for i in range(k)
                                        for j, x in enumerate(echelon[i])], EXACT)
    return f, g


def reference_moore_penrose(a):
    """G* (F* a G*)^-1 F* on the echelon-row bases, by Matrix arithmetic."""
    f, g = echelon_bases(a)
    return g.H @ (f.H @ a @ g.H).inverse() @ f.H


def reference_group_inverse(a):
    """F (G a F)^-1 G on the echelon-row bases, by Matrix arithmetic."""
    f, g = echelon_bases(a)
    try:
        return f @ (g @ a @ f).inverse() @ g
    except SingularMatrix:
        raise IndexTooLarge("matrix has index greater than 1") from None


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_leading_rows_of_the_row_order_are_a_row_basis(a):
    echelon, pivots, _, order = _bareiss(a._intform[1], a.rows, a.cols)
    k = len(pivots)
    assert sorted(order) == list(range(a.rows))
    assert rows_at(a, order[:k]).rank() == k == a.rank()
    # the invariant behind it: echelon row i lies in the span of the input
    # rows at order positions 0..i
    for i in range(k):
        lead = rows_at(a, order[:i + 1])
        row = Matrix.from_entries(1, a.cols, [(0, j, x) for j, x in enumerate(echelon[i])],
                                  EXACT)
        stacked = Matrix.from_entries(i + 2, a.cols, [(r, j, lead[r, j]) for r in range(i + 1)
                                                      for j in range(a.cols)]
                                      + [(i + 1, j, row[0, j]) for j in range(a.cols)], EXACT)
        assert stacked.rank() == i + 1


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_moore_penrose_satisfies_the_penrose_equations(a):
    x = moore_penrose(a)
    assert (x.rows, x.cols) == (a.cols, a.rows)
    ax, xa = a @ x, x @ a
    assert ax @ a == a and xa @ x == x
    assert ax.H == ax and xa.H == xa


@settings(max_examples=120, deadline=None)
@given(matrices(square=True))
def test_group_inverse_satisfies_the_axioms_or_the_index_exceeds_one(a):
    if not index_le_one(a):
        with pytest.raises(IndexTooLarge):
            group_inverse(a)
        return
    g = group_inverse(a)
    assert a @ g @ a == a and g @ a @ g == g and a @ g == g @ a


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices(max_n=12), matrices(max_n=12, square=True)))
def test_both_inverses_equal_the_echelon_row_reference(a):
    assert moore_penrose(a).key() == reference_moore_penrose(a).key()
    if not a.is_square:
        return
    try:
        ref = reference_group_inverse(a)
    except IndexTooLarge:
        with pytest.raises(IndexTooLarge):
            group_inverse(a)
        return
    assert group_inverse(a).key() == ref.key()


def test_moore_penrose_at_n_48():
    # the exact-projectors workload's shape at n = 48: Gaussian integers in
    # [-2, 2] through a 36-wide middle, so rank 36 (2.8 s with the echelon
    # rows as G on a 2-core host, 0.36 s with the input rows)
    rnd = random.Random(48)

    def gaussian(rows, cols):
        return Matrix.exact([[(rnd.randint(-2, 2), rnd.randint(-2, 2)) for _ in range(cols)]
                             for _ in range(rows)])

    a = gaussian(48, 36) @ gaussian(36, 48)
    assert a.rank() == 36
    start = time.perf_counter()
    x = moore_penrose(a)
    assert time.perf_counter() - start < 1.2
    ax, xa = a @ x, x @ a
    assert ax @ a == a and xa @ x == x
    assert ax.H == ax and xa.H == xa
