"""Differential tests of the exact kernel: sums, products, the forward
elimination with its rank and pivot columns, inverse, the index test and the
generalized inverses built on them, and the reduced integer form that every
exact constructor stores.

The reference RREF is plain Gauss-Jordan on QQi scalars, one division per
entry operation; sympy's Gaussian-rational domain QQ_I is a second,
independent reference where it is installed.
"""

import random
from fractions import Fraction
from itertools import chain, combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharporder import (
    EXACT,
    CommutantProjector,
    Matrix,
    group_inverse,
    make_spec,
    matrix_from_obj,
    matrix_to_obj,
    moore_penrose,
)
from sharporder.core import ExactMatrix, _bareiss, _solve
from sharporder.errors import IndexTooLarge, SingularMatrix
from sharporder.ginv import index_le_one
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


def echelon(m):
    """(G, pivots): the nonzero rows of m's forward-only Bareiss echelon form,
    as a Matrix, and its pivot columns."""
    a, pivots, _, _ = _bareiss(m._intform[1], m.rows, m.cols)
    k = len(pivots)
    return (Matrix.exact(a[:k]) if k else Matrix.zeros(0, m.cols)), pivots


def identity_like(m):
    return m == Matrix.identity(m.rows)


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rref_and_rank_match_reference(m):
    g, pivots = echelon(m)
    ref, ref_pivots = reference_rref(m)
    assert pivots == ref_pivots
    # the echelon rows span m's row space: they have m's RREF
    assert reference_rref(g)[0] == ref[:len(pivots)]
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
    _, pivots, last, _ = _bareiss(d._intform[1], size, size)
    # the last pivot is det d = u; at size 3 the unit is left in it, u^2,
    # unless it is divided out
    assert pivots == list(range(size)) and last == unit and d.rank() == size
    assert d.inverse() == Matrix.diag([1 / u] + [1] * (size - 1), EXACT)
    # unit pivots inside a coupled matrix, with a free column
    m = Matrix.exact([[unit, 1, 0, 2], [1, 0, unit, 1], [0, unit, 1, 0]][:size])
    ref, ref_pivots = reference_rref(m)
    g, pivots = echelon(m)
    assert reference_rref(g)[0] == ref and pivots == ref_pivots
    assert m.rank() == len(ref_pivots)
    sq = m.block(0, size, 0, size)
    if sq.rank() == size:
        assert identity_like(sq @ sq.inverse())


def test_rref_empty_shapes():
    for r, c in [(0, 0), (0, 4), (3, 0)]:
        z = Matrix.zeros(r, c)
        a, pivots, last, _ = _bareiss(z._intform[1], r, c)
        assert (len(a), pivots, last, z.rank()) == (r, [], (1, 0), 0)
    assert Matrix.zeros(0, 0).inverse() == Matrix.zeros(0, 0)
    assert moore_penrose(Matrix.zeros(3, 0)) == Matrix.zeros(0, 3)
    assert group_inverse(Matrix.zeros(2, 2)) == Matrix.zeros(2, 2)


# ----------------------------------------------------------------------
# _solve: forward Bareiss on [A | B], then fraction-free back substitution

gaussian = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def systems(draw):
    """(A rows, B rows, n, k): Gaussian-integer A (n x n, n = 0..8) and B
    (n x k, k = 0..4); half of the A are products through a narrower
    middle, so singular ones are common."""
    n, k = draw(st.integers(0, 8)), draw(st.integers(0, 4))

    def block(r, c):
        return tuple(tuple(draw(gaussian) for _ in range(c)) for _ in range(r))

    a = block(n, n)
    if n and draw(st.booleans()):
        m = draw(st.integers(0, n - 1))
        a = (Matrix.exact(block(n, m)) @ Matrix.exact(block(m, n)) if m
             else Matrix.zeros(n, n))._intform[1]
    return a, block(n, k), n, k


def reference_solve(a, b, n):
    """X of A X = B by Gauss-Jordan on QQi scalars, or None when A is
    singular."""
    aug = Matrix.exact([p + q for p, q in zip(a, b)]) if n else Matrix.zeros(0, 0)
    ref, pivots = reference_rref(aug)
    if [p for p in pivots if p < n] != list(range(n)):
        return None
    return [row[n:] for row in ref]


def check_solve(a, b, n, k):
    want = reference_solve(a, b, n)
    if want is None:
        with pytest.raises(SingularMatrix):
            _solve(a, n, b, k)
        return
    x, d = _solve(a, n, b, k)
    assert type(d) is int and d > 0
    assert len(x) == n and all(len(row) == k for row in x)
    assert [[QQi(*p) for p in row] for row in x] == [[d * y for y in row] for row in want]


@settings(max_examples=80, deadline=None)
@given(systems())
def test_solve_matches_reference(system):
    check_solve(*system)


@pytest.mark.parametrize("unit", [(-1, 0), (0, 1), (0, -1)])
def test_solve_unit_pivots_and_row_swap(unit):
    # A[0][0] = 0 forces a row swap; the first two pivots are unit and
    # unit^2, so step two divides by the unit and step three by unit^2,
    # which is -1 for i and -i
    a = (((0, 0), unit, (1, 0)), (unit, (1, 0), (0, 0)), ((2, 0), (0, 0), unit))
    b = (((1, 0), (0, 2)), ((0, 0), (-1, 1)), ((3, 0), (0, 0)))
    forward, (ur, ui) = _bareiss([p + q for p, q in zip(a, b)], 3, 5)[0], unit
    assert forward[0][0] == unit and forward[1][1] == (ur * ur - ui * ui, 2 * ur * ui)
    check_solve(a, b, 3, 2)
    m = Matrix.exact(a)
    assert identity_like(m @ m.inverse()) and identity_like(m.inverse() @ m)
    check_solve(a[:2] + (((0, 0),) * 3,), b, 3, 2)  # a zero row: singular


def test_solve_empty_shapes():
    assert _solve((), 0, (), 3) == ((), 1)
    assert _solve((((2, 0),),), 1, ((),), 0) == (((),), 2)
    assert Matrix.zeros(0, 0).inverse() == Matrix.zeros(0, 0)
    with pytest.raises(SingularMatrix):
        _solve((((0, 0),),), 1, (((1, 0),),), 1)


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
    _, pivots = echelon(m)
    _, spivots = dm.rref()
    assert m.rank() == dm.rank()
    assert pivots == list(spivots)


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


@pytest.mark.parametrize("nr,nc,k", [
    (3, 4, 0),                        # the zero matrix
    (4, 3, 1), (3, 5, 2), (5, 4, 2),  # rank-deficient, wide and tall
    (4, 4, 3),                        # rank-deficient square
    (4, 2, 2), (2, 4, 2), (3, 3, 3),  # full column, full row and full rank
])
def test_moore_penrose_matches_sympy_pinv(nr, nc, k):
    # a = B C through a k-wide middle with Gaussian-rational factors, so its
    # rank is k; when k < nc, C's first column is zero, so a's pivot columns
    # do not start at column 0
    sympy = pytest.importorskip("sympy")
    rnd = random.Random(nr * 100 + nc * 10 + k)

    def factor(r, c, skip=0):
        return Matrix.exact([[0 if j < skip else (Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)),
                                                  rnd.randint(-2, 2))
                              for j in range(c)] for _ in range(r)])

    a = factor(nr, k) @ factor(k, nc, int(k < nc)) if k else Matrix.zeros(nr, nc)
    assert a.rank() == k
    sa = sympy.Matrix(nr, nc, [sympy.Rational(x.re.numerator, x.re.denominator)
                               + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator)
                               for x in chain.from_iterable(rows(a))])

    def qqi(x):
        re, im = sympy.expand(x).as_real_imag()
        return QQi(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))

    want = sa.pinv()
    assert rows(moore_penrose(a)) == [[qqi(want[i, j]) for j in range(nr)] for i in range(nc)]


@settings(max_examples=80, deadline=None)
@given(st.one_of(matrices(square=True), index_two_or_more()))
def test_index_le_one_matches_sympy(m):
    dm = _to_sympy(m)
    # a fresh copy keeps no verdict yet, so this call decides by elimination
    fresh = ExactMatrix(m.rows, m.cols, m._intform)
    assert not hasattr(fresh, "_index1")
    assert index_le_one(fresh) == (dm.matmul(dm).rank() == dm.rank())


# ----------------------------------------------------------------------
# the writer: every exact matrix stores one integer form, and it must be the
# reduced one of the entries it reads back


@st.composite
def kernel_cells(draw, nr, nc):
    """nr x nc entries of one of four kinds: zero-heavy (about one entry in
    four nonzero), real, purely imaginary, or Gaussian with a (0, 0) entry
    off the real axis, so elimination can start on a Gaussian pivot."""
    kind = draw(st.sampled_from(["zero-heavy", "real", "imaginary", "gaussian-pivot"]))
    ent = {"real": part, "imaginary": st.tuples(st.just(0), part)}.get(kind, entry)
    cells = [[draw(ent) if kind != "zero-heavy" or draw(st.integers(0, 3)) == 0 else 0
              for _ in range(nc)] for _ in range(nr)]
    if kind == "gaussian-pivot" and nr and nc:
        cells[0][0] = draw(st.tuples(part, part.filter(bool)))
    return cells


@st.composite
def kernel_matrices(draw, nr, nc):
    cells = draw(kernel_cells(nr, nc))
    return Matrix.exact(cells) if nr else Matrix.zeros(0, nc)


def reduced_form(entries):
    """The canonical (d, rows) of nested QQi entries, computed on Fractions:
    d is the lcm of the entries' denominators."""
    d = lcm(1, *(f.denominator for row in entries for x in row for f in (x.re, x.im)))
    return d, tuple(tuple((int(x.re * d), int(x.im * d)) for x in row) for row in entries)


def assert_written(m, expected):
    """m reads back the expected QQi entries, and the integer form it stores
    is the reduced one of those entries."""
    assert rows(m) == expected
    assert m._intform == reduced_form(expected)


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
    assert_written(a.T, [[ra[i][j] for i in range(nr)] for j in range(k)])
    assert_written(a.H, [[ra[i][j].conjugate() for i in range(nr)] for j in range(k)])
    assert echelon(a)[1] == reference_rref(a)[1]
    sq = data.draw(kernel_matrices(nr, nr))
    expected = scalar_inverse(sq)
    if expected is None:
        with pytest.raises(SingularMatrix):
            sq.inverse()
    else:
        assert_written(sq.inverse(), expected)


# Jordan data whose commutant grids have one, two and three cells a side
EXPAND_SPECS = [[(1, [2]), (2, [1])], [(1, [2, 1])], [((0, 1), [1, 1, 1])], [(-1, [3, 2])]]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_every_constructor_writes_the_canonical_form(data):
    nr, nc = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    cells = data.draw(kernel_cells(nr, nc))
    ref = [[QQi.coerce(x) for x in row] for row in cells]
    zero = [[QQi(0)] * nc for _ in range(nr)]
    a = Matrix.exact(cells) if nr else Matrix.zeros(0, nc)
    s = data.draw(entry)
    values = data.draw(st.lists(entry, max_size=5))
    i0, i1 = sorted(data.draw(st.integers(0, nr)) for _ in range(2))
    j0, j1 = sorted(data.draw(st.integers(0, nc)) for _ in range(2))
    made = [
        (a, ref),
        (Matrix.from_entries(nr, nc, [(i, j, x) for i, row in enumerate(cells)
                                      for j, x in enumerate(row) if x != 0], EXACT), ref),
        (matrix_from_obj(matrix_to_obj(a)), ref),
        (Matrix.zeros(nr, nc), zero),
        (Matrix.identity(nr), [[QQi(int(i == j)) for j in range(nr)] for i in range(nr)]),
        (Matrix.diag(values, EXACT),
         [[QQi.coerce(v) if i == j else QQi(0) for j in range(len(values))]
          for i, v in enumerate(values)]),
        (a.block(i0, i1, j0, j1), [row[j0:j1] for row in ref[i0:i1]]),
        (a.scale(s), [[QQi.coerce(s) * x for x in row] for row in ref]),
        (a.T, [[ref[i][j] for i in range(nr)] for j in range(nc)]),
        (a.H, [[ref[i][j].conjugate() for i in range(nr)] for j in range(nc)]),
        (a.T.T, ref),
        (a @ Matrix.identity(nc), ref),
        (a + Matrix.zeros(nr, nc), ref),
        (a - a, zero),
        (-a, [[-x for x in row] for row in ref]),
    ]
    sq = data.draw(kernel_matrices(nr, nr))
    inv = scalar_inverse(sq)
    if inv is not None:
        made.append((sq.inverse(), inv))
    spec = make_spec(data.draw(st.sampled_from(EXPAND_SPECS)))
    t = data.draw(kernel_matrices(spec.r, spec.r))
    grid = CommutantProjector.read(spec, t)
    expanded = grid.expand()
    assert CommutantProjector.read(spec, expanded) == grid
    made.append((expanded, rows(expanded)))
    for m, expected in made:
        assert_written(m, expected)
    # one stored form per matrix: ==, key() and the entries agree
    for (x, ex), (y, ey) in combinations(made, 2):
        if (x.rows, x.cols) == (y.rows, y.cols):
            assert (x == y) == (x.key() == y.key()) == (ex == ey)


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
    assert_written(m, [[QQi(0)] * c for _ in range(r)])
