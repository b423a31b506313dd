"""Differential tests of the exact kernel: sums, products, rank, RREF,
inverse, the index test and the generalized inverses built on them, and the
integer form the writer keeps on each result.

The reference RREF is plain Gauss-Jordan on QQi scalars, one division per
entry operation; sympy's Gaussian-rational domain QQ_I is a second,
independent reference where it is installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharporder import EXACT, Matrix, group_inverse, moore_penrose
from sharporder.core import _int_form, exact_rref
from sharporder.errors import IndexTooLarge, SingularMatrix
from sharporder.ginv import _INDEX_CACHE, index_le_one
from sharporder.scalars import QQi

part = st.fractions(min_value=-3, max_value=3, max_denominator=4)
entry = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.tuples(part, part),
)


@st.composite
def matrices(draw, square=False, nr=None):
    """Gaussian-rational matrices up to 7x8 (nr rows when given), empty
    shapes included; half of them are products through a narrower middle,
    so rank deficiency is common."""
    nr = draw(st.integers(0, 7)) if nr is None else nr
    nc = nr if square else draw(st.integers(0, 8))

    def block(r, c):
        return Matrix.exact([[draw(entry) for _ in range(c)] for _ in range(r)])

    if nr and nc and draw(st.booleans()):
        k = draw(st.integers(0, min(nr, nc) - 1))
        return block(nr, k) @ block(k, nc) if k else Matrix.zeros(nr, nc)
    return block(nr, nc) if nr else Matrix.zeros(0, nc)


def reference_rref(m):
    """Gauss-Jordan on QQi scalars: (rows, pivots)."""
    a = [m.row(i) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        k = next((k for k in range(r, m.rows) if not a[k][c].is_zero()), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(m.rows):
            if i != r and not a[i][c].is_zero():
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def rows(m):
    return [m.row(i) for i in range(m.rows)]


def identity_like(m):
    return m == Matrix.identity(m.rows)


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rref_and_rank_match_reference(m):
    red, pivots = exact_rref(m)
    ref, ref_pivots = reference_rref(m)
    assert (red.rows, red.cols) == (m.rows, m.cols)
    assert pivots == ref_pivots
    assert rows(red) == ref
    assert m.rank() == len(pivots)
    assert m.H.rank() == len(pivots)


@settings(max_examples=60, deadline=None)
@given(matrices(square=True))
def test_inverse_or_singular(m):
    n = m.rows
    if m.rank() < n:
        with pytest.raises(SingularMatrix):
            m.inverse()
        return
    inv = m.inverse()
    assert identity_like(m @ inv) and identity_like(inv @ m)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_moore_penrose_axioms(a):
    x = moore_penrose(a)
    assert (x.rows, x.cols) == (a.cols, a.rows)
    ax, xa = a @ x, x @ a
    assert ax @ a == a and xa @ x == x
    assert ax.H == ax and xa.H == xa


@settings(max_examples=60, deadline=None)
@given(matrices(square=True))
def test_group_inverse_axioms(a):
    if (a @ a).rank() < a.rank():
        with pytest.raises(IndexTooLarge):
            group_inverse(a)
        return
    g = group_inverse(a)
    assert a @ g @ a == a and g @ a @ g == g and a @ g == g @ a
    # the product formula a (a^3)+ a gives the same (unique) matrix
    assert g == a @ moore_penrose(a @ a @ a) @ a


@st.composite
def index_two_or_more(draw):
    """diag(core, J) with J a nilpotent Jordan block of size 2..4, mixed by a
    unit upper triangular similarity: its index is the size of J, >= 2."""
    core = draw(matrices(square=True))
    m, k = core.rows, draw(st.integers(2, 4))
    n = m + k
    b = Matrix.from_entries(n, n, [(i, j, core[i, j]) for i in range(m) for j in range(m)]
                            + [(m + i, m + i + 1, 1) for i in range(k - 1)], EXACT)
    s = Matrix.exact([[1 if i == j else (draw(st.integers(-2, 2)) if j > i else 0)
                       for j in range(n)] for i in range(n)])
    return s @ b @ s.inverse()


@settings(max_examples=30, deadline=None)
@given(index_two_or_more())
def test_index_two_raises(a):
    with pytest.raises(IndexTooLarge):
        group_inverse(a)


@pytest.mark.parametrize("a", [
    [[0, 1], [0, 0]],
    [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    [[2, 0, 0], [0, 0, 1], [0, 0, 0]],
    [[1, 1, 0], [-1, -1, 0], [1, 1, 0]],  # rank 1, square zero
    [[(0, 1), 1], [1, (0, -1)]],  # nilpotent with complex entries
], ids=["J2", "J3", "diag-2-J2", "rank1-square-zero", "complex-nilpotent"])
def test_group_inverse_index_too_large(a):
    with pytest.raises(IndexTooLarge):
        group_inverse(Matrix.exact(a))


# a fraction-free kernel may skip dividing by the previous pivot only when
# that pivot is exactly 1: a unit pivot -1, i or -i must still be divided out
@pytest.mark.parametrize("unit", [(-1, 0), (0, 1), (0, -1)], ids=["-1", "i", "-i"])
@pytest.mark.parametrize("size", [2, 3])
def test_unit_pivots(unit, size):
    u = QQi(*unit)
    d = Matrix.diag([u] + [1] * (size - 1), EXACT)
    red, pivots = exact_rref(d)
    assert identity_like(red) and pivots == list(range(size))
    assert d.inverse() == Matrix.diag([1 / u] + [1] * (size - 1), EXACT)
    # unit pivots inside a coupled matrix, with a free column
    m = Matrix.exact([[unit, 1, 0, 2], [1, 0, unit, 1], [0, unit, 1, 0]][:size])
    ref, ref_pivots = reference_rref(m)
    red, pivots = exact_rref(m)
    assert rows(red) == ref and pivots == ref_pivots
    sq = m.block(0, size, 0, size)
    if sq.rank() == size:
        assert identity_like(sq @ sq.inverse())


def test_rref_empty_shapes():
    for r, c in [(0, 0), (0, 4), (3, 0)]:
        red, pivots = exact_rref(Matrix.zeros(r, c))
        assert (red.rows, red.cols, pivots) == (r, c, [])
    assert Matrix.zeros(0, 0).inverse() == Matrix.zeros(0, 0)
    assert moore_penrose(Matrix.zeros(3, 0)) == Matrix.zeros(0, 3)
    assert group_inverse(Matrix.zeros(2, 2)) == Matrix.zeros(2, 2)


# ----------------------------------------------------------------------
# sympy's QQ_I domain as an independent reference


def _to_sympy(m):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    qq = sympy.QQ
    data = [[sympy.QQ_I(qq(x.re.numerator, x.re.denominator), qq(x.im.numerator, x.im.denominator))
             for x in m.row(i)] for i in range(m.rows)]
    return DomainMatrix(data, (m.rows, m.cols), sympy.QQ_I)


def _from_sympy(dm):
    def frac(q):
        return Fraction(int(q.numerator), int(q.denominator))

    return [[QQi(frac(x.x), frac(x.y)) for x in row] for row in dm.to_list()]


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_and_rref_match_sympy(m):
    dm = _to_sympy(m)
    red, pivots = exact_rref(m)
    sred, spivots = dm.rref()
    assert m.rank() == dm.rank()
    assert pivots == list(spivots)
    assert rows(red) == _from_sympy(sred)


@settings(max_examples=50, deadline=None)
@given(matrices(square=True))
def test_inverse_matches_sympy(m):
    dm = _to_sympy(m)
    from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

    if m.rows == 0:
        assert m.inverse() == m
        return
    try:
        expected = _from_sympy(dm.inv())
    except DMNonInvertibleMatrixError:
        with pytest.raises(SingularMatrix):
            m.inverse()
        return
    assert rows(m.inverse()) == expected


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_matches_sympy(data):
    a = data.draw(matrices())
    b = data.draw(matrices(nr=a.cols))
    assert rows(a @ b) == _from_sympy(_to_sympy(a).matmul(_to_sympy(b)))


def test_product_without_inner_dimension_matches_sympy():
    a, b = Matrix.zeros(2, 0), Matrix.zeros(0, 3)
    assert a @ b == Matrix.zeros(2, 3)
    assert rows(a @ b) == _from_sympy(_to_sympy(a).matmul(_to_sympy(b)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(matrices(square=True), index_two_or_more()))
def test_index_le_one_matches_sympy(m):
    dm = _to_sympy(m)
    # an empty cache makes this call a miss, decided by elimination
    _INDEX_CACHE.clear()
    assert index_le_one(m) == (dm.matmul(dm).rank() == dm.rank())


# ----------------------------------------------------------------------
# the writer: every exact result is written from an integer form, and the
# form it keeps must be the one _int_form reads from the written entries


@st.composite
def kernel_matrices(draw, nr, nc):
    """nr x nc operands of one of four kinds: zero-heavy (about one entry in
    four nonzero), real, purely imaginary, or Gaussian with a (0, 0) entry
    off the real axis, so elimination can start on a Gaussian pivot."""
    kind = draw(st.sampled_from(["zero-heavy", "real", "imaginary", "gaussian-pivot"]))
    ent = {"real": part, "imaginary": st.tuples(st.just(0), part)}.get(kind, entry)
    cells = [[draw(ent) if kind != "zero-heavy" or draw(st.integers(0, 3)) == 0 else 0
              for _ in range(nc)] for _ in range(nr)]
    if kind == "gaussian-pivot" and nr and nc:
        cells[0][0] = draw(st.tuples(part, part.filter(bool)))
    return Matrix.exact(cells) if nr else Matrix.zeros(0, nc)


def assert_written(m, expected):
    """m holds the expected QQi entries, and the integer form kept on it is
    the canonical one of a matrix built from those entries."""
    assert rows(m) == expected
    assert m._intform == _int_form(Matrix.exact(expected))


def scalar_product(a, b):
    return [[sum((a[i, t] * b[t, j] for t in range(a.cols)), QQi(0)) for j in range(b.cols)]
            for i in range(a.rows)]


def scalar_inverse(m):
    """The right half of the QQi Gauss-Jordan RREF of [m | I]; None when m
    is singular."""
    n = m.rows
    aug = Matrix.exact([m.row(i) + [int(i == j) for j in range(n)] for i in range(n)])
    red, pivots = reference_rref(aug)
    return [row[n:] for row in red] if pivots[:n] == list(range(n)) else None


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_writer_matches_scalar_reference(data):
    nr, k, nc = (data.draw(st.integers(0, 5)) for _ in range(3))
    a, b = data.draw(kernel_matrices(nr, k)), data.draw(kernel_matrices(nr, k))
    c = data.draw(kernel_matrices(k, nc))
    ra, rb = rows(a), rows(b)
    assert_written(a + b, [[x + y for x, y in zip(p, q)] for p, q in zip(ra, rb)])
    assert_written(a - b, [[x - y for x, y in zip(p, q)] for p, q in zip(ra, rb)])
    assert_written(-a, [[-x for x in p] for p in ra])
    assert_written(a @ c, scalar_product(a, c))
    # a has an integer form now, and H and T carry it over
    assert_written(a.T, [[ra[i][j] for i in range(nr)] for j in range(k)])
    assert_written(a.H, [[ra[i][j].conjugate() for i in range(nr)] for j in range(k)])
    red, pivots = exact_rref(a)
    ref, ref_pivots = reference_rref(a)
    assert pivots == ref_pivots
    assert_written(red, ref)
    sq = data.draw(kernel_matrices(nr, nr))
    expected = scalar_inverse(sq)
    if expected is None:
        with pytest.raises(SingularMatrix):
            sq.inverse()
    else:
        assert_written(sq.inverse(), expected)


# zero rows and columns on either side, real and imaginary parts meeting
@pytest.mark.parametrize("a, b", [
    ([[0, 0], [1, 2]], [[1, (0, 1)], [3, 4]]),
    ([[1, 0], [(0, 2), 0]], [[1, 2], [(0, 1), 5]]),
    ([[1, 2], [3, (0, 4)]], [[0, 1], [0, (0, 2)]]),
    ([[1, 2], [3, 4]], [[0, 0], [(0, 1), 1]]),
    ([[0, 0], [0, 0]], [[1, 2], [3, 4]]),
    ([[(0, 2)]], [[3]]),
    ([[3]], [[(0, 2)]]),
    ([[(0, 1), 2]], [[(0, 1)], [(0, -1)]]),
    ([[(1, 1), Fraction(1, 2)]], [[(1, -1), 0], [0, (0, Fraction(2, 3))]]),
], ids=["zero-row-a", "zero-column-a", "zero-column-b", "zero-row-b", "zero-a",
        "imaginary-real", "real-imaginary", "imaginary-cancels", "gaussian-rational"])
def test_zero_skipping_product(a, b):
    a, b = Matrix.exact(a), Matrix.exact(b)
    assert_written(a @ b, scalar_product(a, b))


@pytest.mark.parametrize("r, k, c", [(0, 3, 0), (3, 0, 3), (0, 0, 2), (2, 0, 0)])
def test_product_empty_shapes(r, k, c):
    m = Matrix.zeros(r, k) @ Matrix.zeros(k, c)
    assert (m.rows, m.cols) == (r, c)
    assert m == Matrix.zeros(r, c)
    assert m._intform == (1, tuple(((0, 0),) * c for _ in range(r)))
