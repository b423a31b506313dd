"""Dense complex matrices in two backends, one class each, never mixed.

ExactMatrix (mode ``exact``) stores Gaussian rationals as one reduced integer
form, Gaussian integers over their least positive common denominator; every
exact operation runs on that form, an entry is read as a
:class:`~sharporder.scalars.QQi`, and every predicate is decided exactly.
FloatMatrix (mode ``float``) holds a complex128 numpy array, and its
predicates are tolerance-aware.  Their base, Matrix, holds the constructors
and the one operand check; no method tests the mode.

This module holds Matrix, ExactMatrix with the exact kernel, the predicates'
operand checks, the SVD and the JSON codec.  FloatMatrix and its tolerance
rules live in sharporder.floatmatrix, which this module imports on first
float use (a float constructor, the mode lookup of a float mode string, an
SVD), as it imports numpy: exact-only callers compile neither.

Values are immutable and operations pure, so matrices can be shared across
threads.  A fact derived from a value (its square and inverse; an exact
matrix's index verdict; a float matrix's singular values, SVD and
Hartwig-Spindelbock decompositions) is kept once made, by _kept: each is a
function of the value alone, so two threads that race on one only make it
twice, and none is read by ``==``, ``key()`` or hashing.  A float matrix
keeps no verdict: every rank cut and comparison is made again at the
tolerance of each call.
"""

import cmath
import json
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import (
    MalformedInput,
    ModeMismatch,
    NonSquare,
    NotSupported,
    ShapeMismatch,
    SingularMatrix,
)
from .scalars import QQi, frac_str

EXACT = "exact"
FLOAT = "float"


class _Frozen:
    """Base of the immutable value classes.  eq, hash and repr read the
    attributes named in _fields, in order, and == compares values of one
    class only.  __init__ sets the slots it is given; after it no attribute
    is set but by _kept, and none is deleted.  A subclass lists its fields
    and the facts it keeps in __slots__, and validates in its __init__."""

    __slots__ = ()
    _fields = ()

    def __init__(self, **slots):
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Tolerance(_Frozen):
    """Relative comparison tolerance and rank-decision threshold."""

    __slots__ = _fields = ("rel", "rank_threshold_factor")

    def __init__(self, rel: float = 1e-9, rank_threshold_factor: float = 1e-10):
        # rel >= 1 makes every matrix approx_eq to O, a factor >= 1 makes
        # every rank 0; a NaN fails both comparisons
        if not (0 < rel < 1 and 0 < rank_threshold_factor < 1):
            raise MalformedInput("tolerances must be finite and in (0, 1)")
        super().__init__(rel=rel, rank_threshold_factor=rank_threshold_factor)


DEFAULT_TOL = Tolerance()


def _kept(obj, name, make):
    """obj.<name>, set to make(obj) first if it is unset or None: the one
    writer of a fact an immutable value keeps.  The hot callers pass a
    module-level function, so they build no closure per call."""
    value = getattr(obj, name, None)
    if value is None:
        value = make(obj)
        object.__setattr__(obj, name, value)
    return value


class Matrix(_Frozen):
    """Immutable dense complex matrix: an ExactMatrix or a FloatMatrix.
    +, @, ==, key, rank and inverse make the shared checks here and call
    their class's kernel; perfbench/tracer.py wraps @, ==, key, rank and
    inverse by name on this class, so they are not defined on a subclass."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows, cols, rep):
        """rep: the value of the class's one representation slot, _rep, which
        no one else can write to."""
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, self._rep, rep)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def exact(cls, rows):
        """Exact matrix from nested ints, Fractions, (re, im) pairs, QQi or "p/q" strings."""
        rows = list(rows)
        if not all(isinstance(row, (list, tuple)) for row in rows):
            raise ShapeMismatch("every row must be a list or tuple")
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ShapeMismatch("ragged rows")
        return cls.from_entries(len(rows), c, ((i, j, x) for i, row in enumerate(rows)
                                               for j, x in enumerate(row)), EXACT)

    @staticmethod
    def floating(rows):
        """Float matrix from anything numpy can turn into a complex array
        (always a copy, so later writes to the input cannot reach it)."""
        import numpy as np

        from .floatmatrix import _wrap

        if isinstance(rows, (list, tuple)) and len(
                {len(r) if isinstance(r, (list, tuple, np.ndarray)) else None for r in rows}) > 1:
            raise ShapeMismatch("ragged rows")
        a = np.array(rows, dtype=complex)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.ndim != 2:
            raise ShapeMismatch("expected a 2-d array")
        return _wrap(a)

    @staticmethod
    def from_entries(rows, cols, entries, mode):
        """A rows x cols matrix of the class of mode, zero except for the
        (i, j, value) entries; the one place a zero matrix is filled, and
        so the one size check: MalformedInput for a negative size, in both
        modes."""
        if rows < 0 or cols < 0:
            raise MalformedInput(f"a matrix cannot be {rows}x{cols}")
        return _backend(mode)._filled(rows, cols, entries)

    @classmethod
    def zeros(cls, rows, cols, mode=EXACT):
        return cls.from_entries(rows, cols, (), mode)

    @classmethod
    def identity(cls, n, mode=EXACT):
        return cls.from_entries(n, n, ((i, i, 1) for i in range(n)), mode)

    @classmethod
    def diag(cls, values, mode=EXACT):
        values = list(values)
        n = len(values)
        return cls.from_entries(n, n, ((i, i, v) for i, v in enumerate(values)), mode)

    # ------------------------------------------------------------------
    # the shared interface

    @property
    def is_square(self):
        return self.rows == self.cols

    def require_square(self):
        if not self.is_square:
            raise NonSquare(f"{self.rows}x{self.cols} matrix is not square")

    def _check(self, other, fits):
        """The one operand check, made before any entry is read: ModeMismatch
        unless other is of self's class, then ShapeMismatch unless fits."""
        if other.__class__ is not self.__class__:
            raise ModeMismatch(f"{self.mode} vs {other.mode}")
        if not fits:
            raise ShapeMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __getitem__(self, ij):
        i, j = ij
        return self.row(i)[j]

    def __add__(self, other):
        self._check(other, self.rows == other.rows and self.cols == other.cols)
        return self._sum(other, 1)

    def __sub__(self, other):
        self._check(other, self.rows == other.rows and self.cols == other.cols)
        return self._sum(other, -1)

    def __matmul__(self, other):
        self._check(other, self.cols == other.rows)
        return self._matmul(other)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (other.__class__ is self.__class__ and self.rows == other.rows
                and self.cols == other.cols and self._same(other))

    def key(self):
        """Hashable identity key (exact mode only), for dedup in tests and
        oracles: the shape and the canonical integer form, all plain ints."""
        return self._key()

    def rank(self, tol=DEFAULT_TOL):
        """Exact mode: the number of pivots of the forward elimination.
        Float mode: numerical_rank of the kept singular values at tol."""
        return self._rank(tol)

    def inverse(self):
        """Matrix inverse, kept on self once made; SingularMatrix, on every
        call, when not invertible.  Exact mode solves rows X = d I for self =
        rows / d with _solve (every division exact by Cramer's rule)."""
        self.require_square()
        return _kept(self, "_inv", self.__class__._invert)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.mode})"


class ExactMatrix(Matrix):
    """A Gaussian-rational matrix, stored as its reduced integer form."""

    mode = EXACT
    # _intform is the reduced integer form (d, rows) that _over writes; _sq
    # stays unset until _square makes it, _index1 until ginv.index_le_one
    # does, and _inv until inverse does
    _rep = "_intform"
    __slots__ = ("_intform", "_sq", "_index1", "_inv")

    @staticmethod
    def _filled(rows, cols, entries):
        entries = list(entries)
        d, values = _cleared(v for _, _, v in entries)
        data = [[(0, 0)] * cols for _ in range(rows)]
        for (i, j, _), p in zip(entries, values):
            data[i][j] = p
        return _over(rows, cols, tuple(map(tuple, data)), (d, 0))

    def row(self, i):
        d, rows = self._intform
        return list(map(_scalar_over(d), rows[i]))

    def block(self, i0, i1, j0, j1):
        """Submatrix with rows [i0, i1) and columns [j0, j1)."""
        d, rows = self._intform
        return _over(i1 - i0, j1 - j0, tuple(rows[i][j0:j1] for i in range(i0, i1)), (d, 0))

    @property
    def array(self):
        """The underlying complex128 array: float mode only."""
        raise ModeMismatch("no array backing in exact mode")

    def _sum(self, other, sign):
        """self + sign * other, over the lcm of the two denominators."""
        d1, ra = self._intform
        d2, rb = other._intform
        d = lcm(d1, d2)
        m1, m2 = d // d1, sign * (d // d2)
        rows = tuple(tuple((xr * m1 + yr * m2, xi * m1 + yi * m2)
                           for (xr, xi), (yr, yi) in zip(p, q)) for p, q in zip(ra, rb))
        return _over(self.rows, self.cols, rows, (d, 0))

    def __neg__(self):
        # rows / -d: the writer moves the sign onto the rows
        d, rows = self._intform
        return _over(self.rows, self.cols, rows, (-d, 0))

    def scale(self, s):
        e, ((sr, si),) = _cleared([s])
        d, rows = self._intform
        return _over(self.rows, self.cols,
                     tuple(tuple((xr * sr - xi * si, xr * si + xi * sr) for xr, xi in row)
                           for row in rows), (d * e, 0))

    def _matmul(self, other):
        d, rows = _int_product(self, other)
        return _over(self.rows, other.cols, rows, (d, 0))

    @property
    def H(self):
        """Conjugate transpose."""
        d, rows = self._intform
        return ExactMatrix(self.cols, self.rows, (d, _adjoint(rows, self.cols)))

    @property
    def T(self):
        d, rows = self._intform
        return ExactMatrix(self.cols, self.rows, (d, _transpose(rows, self.cols)))

    def trace(self):
        self.require_square()
        d, rows = self._intform
        re, im = map(sum, zip((0, 0), *(rows[i][i] for i in range(self.rows))))
        return QQi(Fraction(re, d), Fraction(im, d))

    def fro(self):
        """Frobenius norm as a float (both modes)."""
        d, rows = self._intform
        # int / int is correctly rounded: the exact sum of squares, rounded once
        return (sum(xr * xr + xi * xi for row in rows for xr, xi in row) / (d * d)) ** 0.5

    def is_zero(self, tol=DEFAULT_TOL):
        return not any(chain.from_iterable(chain.from_iterable(self._intform[1])))

    def to_float(self):
        d, rows = self._intform
        return Matrix.floating([[complex(xr / d, xi / d) for xr, xi in row] for row in rows])

    # kernels, on operands already checked; the tolerance is unused

    def _same(self, other, tol=None):
        return self._intform == other._intform

    _near = _same

    def _key(self):
        return (self.rows, self.cols, *self._intform)

    def _rank(self, tol):
        return len(_bareiss(self._intform[1], self.rows, self.cols)[1])

    def _invert(self):
        n = self.rows
        d, rows = self._intform
        x, big_n = _solve(rows, n, tuple(tuple((d, 0) if j == i else (0, 0)
                                               for j in range(n)) for i in range(n)), n)
        return _over(n, n, x, (big_n, 0))

    def _squared(self):
        return self._matmul(self)

    def _is_product(self, y, z, tol):
        """self = y z, on integer forms."""
        return _int_rep_eq(self._intform, _int_product(y, z))

    def _is_projector(self, tol):
        # both forms are canonical, so equal matrices hold equal forms
        return self._intform == _square(self)._intform

    def _in_tau(self, sk, tol):
        return (self._is_projector(tol)
                and _int_rep_eq(_int_product(self, sk), _int_product(sk, self)))


def _backend(mode):
    """The class of a mode string: the one place a mode string picks one,
    and so where a float one first imports the float backend.  MalformedInput
    for a string that is neither mode."""
    if mode == EXACT:
        return ExactMatrix
    if mode == FLOAT:
        from .floatmatrix import FloatMatrix

        return FloatMatrix
    raise MalformedInput(f"unknown mode {mode!r}")


def _scalar_over(d):
    """The one maker of QQi entries: the function from an (re, im) int pair
    to the QQi (re + im i) / d.  Equal pairs share one QQi."""
    made = {}
    return lambda p: made.get(p) or made.setdefault(p, QQi(Fraction(p[0], d), Fraction(p[1], d)))


# ----------------------------------------------------------------------
# the exact kernel: every exact result is computed on integer forms (d,
# rows), Gaussian integers over one denominator, and written by _over


def _parts(x):
    """An exact scalar as an (re, im) pair of ints or Fractions."""
    if type(x) is int:
        return x, 0
    if type(x) is tuple and len(x) == 2 and type(x[0]) is type(x[1]) is int:
        return x
    x = QQi.coerce(x)
    return x.re, x.im


def _cleared(values):
    """(d, pairs): exact scalars as (re, im) integer pairs over d, the lcm
    of their denominators."""
    parts = [(re.as_integer_ratio(), im.as_integer_ratio()) for re, im in map(_parts, values)]
    d = lcm(*(q for pair in parts for _, q in pair))
    return d, [(a * (d // b), c * (d // e)) for (a, b), (c, e) in parts]


def _int_product(a: Matrix, b: Matrix):
    """Integer form (d, rows) of a @ b: @ writes it with _over, and the
    product predicates compare it as it is."""
    d1, ra = a._intform
    d2, rb = b._intform
    return d1 * d2, _rows_product(ra, rb, b.cols)


def _rows_product(ra, rb, nc):
    """The Gaussian-integer rows of ra @ rb, for rb with nc columns: the one
    exact product.

    Row i of the product is the sum of rb's rows scaled by row i of ra, so
    a zero entry of ra skips a whole row of rb, and a real one skips the
    imaginary cross terms.  Zero entries of rb are multiplied as they come:
    listing each row's nonzero entries first costs more than it saves on
    the small matrices most products are made of."""
    rows = []
    for arow in ra:
        sre = [0] * nc
        sim = [0] * nc
        for (xr, xi), brow in zip(arow, rb):
            if xi:
                for j, (yr, yi) in enumerate(brow):
                    sre[j] += xr * yr - xi * yi
                    sim[j] += xr * yi + xi * yr
            elif xr:
                for j, (yr, yi) in enumerate(brow):
                    sre[j] += xr * yr
                    sim[j] += xr * yi
        rows.append(tuple(zip(sre, sim)))
    return tuple(rows)


def _square(a: Matrix):
    """a @ a, made on first use and kept on a: the index test and every
    predicate that squares an operand start from it, so a fixed B is
    squared once however often it is compared."""
    return _kept(a, "_sq", a.__class__._squared)


def _transpose(rows, nc):
    """The nc rows of the transpose of nested rows with nc columns."""
    return tuple(tuple(row[j] for row in rows) for j in range(nc))


def _adjoint(rows, nc):
    """The nc rows of the conjugate transpose of Gaussian-integer rows with
    nc columns."""
    return tuple(tuple((xr, -xi) for xr, xi in row) for row in _transpose(rows, nc))


def _int_rep_eq(p, q) -> bool:
    """Equality of two (d, rows) integer forms as matrices of rationals."""
    dp, rp = p
    dq, rq = q
    if dp == dq:
        return rp == rq
    for rowp, rowq in zip(rp, rq):
        for (xr, xi), (yr, yi) in zip(rowp, rowq):
            if xr * dq != yr * dp or xi * dq != yi * dp:
                return False
    return True


def _bareiss(rows, nr, nc):
    """Fraction-free forward elimination (Bareiss 1968) of Gaussian-integer
    rows, the one exact elimination: rank, _solve and both generalized
    inverses start from it.

    Each step sets every entry below the pivot row to (p y - x z) / p_prev:
    p is the new pivot, x the row's entry in the pivot column, z the pivot
    row's entry in the entry's column, p_prev the previous pivot.  Every
    entry is then a minor of the input, so each division is exact and the
    loops stay on ints.  The result is a row echelon form, never reduced:
    its nonzero rows are a basis of the row space, the pivot columns of the
    input one of the column space, and the last pivot D is, up to sign, a
    minor of the input on its pivot columns (+-det A for a nonsingular A).

    The row order lists the input index of each row as the swaps leave
    them.  Row i of the result is a combination of the input rows at order
    positions 0..i, with a nonzero coefficient on the one at position i:
    a step scales each row below the pivot by p / p_prev and subtracts a
    multiple of the pivot row, and a swap moves a row with its index.  So
    the k nonzero rows and the input rows at the first k positions span one
    space, and those input rows are a row basis of input size.

    Returns (rows, pivot columns, D, row order); D is (1, 0) when there is
    no pivot.
    """
    a = [list(row) for row in rows]
    order = list(range(nr))
    pivots = []
    pr, pi = 1, 0
    r = 0
    for c in range(nc):
        if r == nr:
            break
        for k in range(r, nr):
            if a[k][c] != (0, 0):
                break
        else:
            continue
        a[r], a[k] = a[k], a[r]
        order[r], order[k] = order[k], order[r]
        row_r = a[r]
        qr, qi = row_r[c]
        # a unit p_prev other than 1 (-1, i, -i) still has to be divided out
        divide = (pr, pi) != (1, 0)
        pn = pr * pr + pi * pi
        for i in range(r + 1, nr):
            row_i = a[i]
            xr, xi = row_i[c]
            # the columns up to c are already zero below the pivot row
            new = [(0, 0)] * nc
            for j in range(c + 1, nc):
                yr, yi = row_i[j]
                zr, zi = row_r[j]
                tr = qr * yr - qi * yi - (xr * zr - xi * zi)
                ti = qr * yi + qi * yr - (xr * zi + xi * zr)
                if divide:
                    tr, ti = ((tr * pr + ti * pi) // pn, (ti * pr - tr * pi) // pn)
                new[j] = (tr, ti)
            a[i] = new
        pivots.append(c)
        pr, pi = qr, qi
        r += 1
    return a, pivots, (pr, pi), order


def _solve(rows, n, rhs, k):
    """(X rows, N), N a positive int, with A X / N = B for the n x n and
    n x k Gaussian-integer rows of A and B; SingularMatrix if A is singular.

    The forward-only _bareiss of [A | B] leaves [U | B'], and its last pivot
    D is +-det A, so D A^-1 = +-adj A is integral (Cramer's rule).  N is D
    when D > 0, else |D|^2, so N X is integral too: back substitution
    N x_i = (N b'_i - sum over j > i of u_ij N x_j) / u_ii divides exactly."""
    a, pivots, (dr, di), _ = _bareiss([p + q for p, q in zip(rows, rhs)], n, n + k)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("exact matrix is singular")
    big_n = dr if dr > 0 and not di else dr * dr + di * di
    x = [()] * n
    for i, row in zip(range(n - 1, -1, -1), reversed(a)):
        sre, sim = [big_n * br for br, _ in row[n:]], [big_n * bi for _, bi in row[n:]]
        for (ur, ui), xj in zip(row[i + 1:n], x[i + 1:]):
            if ur or ui:
                for c, (yr, yi) in enumerate(xj):
                    sre[c] -= ur * yr - ui * yi
                    sim[c] -= ur * yi + ui * yr
        ur, ui = row[i]
        pn = ur * ur + ui * ui
        x[i] = tuple(((tr * ur + ti * ui) // pn, (ti * ur - tr * ui) // pn)
                     for tr, ti in zip(sre, sim))
    return tuple(x), big_n


def _over(nr, nc, rows, d):
    """The one exact writer: the nr x nc Matrix equal to the Gaussian-integer
    rows / d, for a nonzero Gaussian integer d = (re, im).

    A d off the real axis moves to the real denominator |d|^2 (the rows are
    multiplied by its conjugate), and a negative real d to -d (the rows are
    negated).  One gcd over d and every part then reduces the pair, so d
    ends as the lcm of the entries' denominators.  That reduced pair is
    canonical, and it is all the Matrix stores: equal matrices hold equal
    forms.  The rows must be tuples of (re, im) tuples."""
    dr, di = d
    if di:
        rows = tuple(tuple((tr * dr + ti * di, ti * dr - tr * di) for tr, ti in row)
                     for row in rows)
        dr = dr * dr + di * di
    elif dr < 0:
        rows = tuple(tuple((-tr, -ti) for tr, ti in row) for row in rows)
        dr = -dr
    if dr > 1:
        g = gcd(dr, *chain.from_iterable(chain.from_iterable(rows)))
        if g > 1:
            dr //= g
            rows = tuple(tuple((tr // g, ti // g) for tr, ti in row) for row in rows)
    return ExactMatrix(nr, nc, (dr, rows))


# ----------------------------------------------------------------------
# tolerance-aware predicates


def approx_eq(x: Matrix, y: Matrix, tol=DEFAULT_TOL) -> bool:
    """Entrywise equality (exact) or relative Frobenius closeness (float)."""
    x._check(y, x.rows == y.rows and x.cols == y.cols)
    return x._near(y, tol)


def _check_operands(x: Matrix, y: Matrix, idempotent=False):
    """A product predicate's operand check: NonSquare when x is to be
    idempotent and is not square, then Matrix._check, with x and y square
    of one size."""
    if idempotent:
        x.require_square()
    x._check(y, x.rows == x.cols == y.rows == y.cols)


def is_projector(m: Matrix, tol=DEFAULT_TOL) -> bool:
    """True iff m^2 = m.  Exact mode compares the integer forms of m and its
    kept square; float mode is the 1-stack of _projector_flags."""
    _check_operands(m, m, idempotent=True)
    return m._is_projector(tol)


def in_tau(t: Matrix, sk: Matrix, tol=DEFAULT_TOL) -> bool:
    """T idempotent and commuting with SK: membership in the projector set
    tau of a Sigma K block (delta, when SK is a Jordan matrix).  Exact mode
    decides both on integer forms, a T that is not idempotent before SK is
    looked at; float mode is the 1-stack of outside_tau."""
    _check_operands(t, sk, idempotent=True)
    return t._in_tau(sk, tol)


# ----------------------------------------------------------------------
# SVD, float mode only

# singular values at or below this fraction of sigma_1 are reported as 0.0
_SVD_ZERO = 1e-14


def svd(m: Matrix):
    """LAPACK SVD of a float matrix.

    Returns (U, sigma, V) with U (rows x rows) and V (cols x cols) unitary,
    sigma descending of length min(rows, cols), and m = U diag(sigma) V^H.
    Right singular vectors are phased so their first significant component
    is real positive; U is phased to match wherever sigma > 0.  Computed on
    first use and kept on m, like _sigma: later calls return the same
    read-only U and V and a fresh copy of sigma.
    """
    u, sigma, v = _kept(m, "_svd", _svd)
    return u, list(sigma), v


def _svd(m: Matrix):
    nr, nc = m.rows, m.cols
    if _empty_svd_input(m, "svd"):
        return Matrix.identity(nr, FLOAT), [], Matrix.identity(nc, FLOAT)
    import numpy as np

    from .floatmatrix import _wrap

    u, s, vh = np.linalg.svd(m._a, full_matrices=True)
    s = np.where(s > _SVD_ZERO * s[0], s, 0.0)
    v = vh.conj().T
    # columns of V are unit vectors, so each has an entry above 1e-12
    first = np.argmax(np.abs(v) > 1e-12, axis=0)
    ph = v[first, np.arange(nc)]
    ph = ph / np.abs(ph)
    v = v * ph.conj()
    k = len(s)
    u[:, :k] = u[:, :k] * np.where(s > 0.0, ph[:k].conj(), 1.0)
    return _wrap(u), [float(x) for x in s], _wrap(v)


def singular_values(m: Matrix):
    """The sigma of svd(m), from LAPACK's values-only driver: what a rank
    cut needs, without the singular vectors.  A fresh list on every call."""
    return list(_kept(m, "_sv", _sigma))


def _sigma(m: Matrix):
    """The list singular_values(m) copies, kept on m in _sv, so it is never
    handed out: a function of the value alone, since only the fixed
    _SVD_ZERO cut is applied here and every tolerance cut is made by the
    caller."""
    if _empty_svd_input(m, "singular_values"):
        return []
    import numpy as np

    s = np.linalg.svd(m._a, compute_uv=False).tolist()
    cut = _SVD_ZERO * s[0]
    return [x if x > cut else 0.0 for x in s]


def _empty_svd_input(m: Matrix, what) -> bool:
    """Check the input of an SVD: float mode (NotSupported) and finite
    (MalformedInput); True when it has no rows or no columns."""
    if m.mode != FLOAT:
        raise NotSupported(f"{what} is float-mode only; exact pipelines use Jordan data")
    if m.rows == 0 or m.cols == 0:
        return True
    from .floatmatrix import _require_finite

    _require_finite(m._a, what)
    return False


def numerical_rank(sigma, tol=DEFAULT_TOL, top=None) -> int:
    """How many singular values exceed rank_threshold_factor * top.  top is
    sigma_1 of the list (descending) by default; pass sigma_1 of the whole
    matrix when sigma is of a block of it.  0 for an empty list or top = 0."""
    if top is None:
        top = sigma[0] if sigma else 0.0
    return sum(1 for s in sigma if s > tol.rank_threshold_factor * top)


# ----------------------------------------------------------------------
# JSON wire format


def scalar_to_obj(x):
    """A scalar as [re, im]: "p/q" strings when exact, numbers when float."""
    if isinstance(x, QQi):
        return [frac_str(x.re), frac_str(x.im)]
    return [float(x.real), float(x.imag)]


def scalar_from_obj(obj, mode=None):
    """The scalar of an [re, im] pair, the one parser of the matrix, spec
    and projector codecs.  Exact parts are ints or "p/q" strings (QQi parses
    them), float parts are JSON numbers that make a finite complex; with no
    mode given, a float part makes the scalar float."""
    if not (isinstance(obj, list) and len(obj) == 2):
        raise MalformedInput(f"a scalar must be an [re, im] pair, not {obj!r}")
    re, im = obj
    # bool is an int subclass, so JSON true must be ruled out by type
    kinds = {type(re), type(im)}
    if mode is None:
        mode = FLOAT if float in kinds else EXACT
    if not kinds <= ({int, float} if mode == FLOAT else {int, str}):
        raise MalformedInput(f"bad {mode} scalar {obj!r}")
    if mode == EXACT:
        return QQi(re, im)
    try:
        x = complex(re, im)
    except OverflowError as exc:
        raise MalformedInput(f"bad float scalar: {exc}") from exc
    if not cmath.isfinite(x):
        raise MalformedInput("non-finite float scalar")
    return x


def matrix_to_obj(m: Matrix):
    return {"mode": m.mode, "rows": m.rows, "cols": m.cols,
            "entries": [scalar_to_obj(x) for i in range(m.rows) for x in m.row(i)]}


def matrix_from_obj(obj) -> Matrix:
    try:
        mode, rows, cols, entries = obj["mode"], obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"bad matrix object: {exc}") from exc
    backend = _backend(mode)
    # bool is an int subclass, so JSON true must be ruled out by type
    if not all(type(n) is int and n >= 0 for n in (rows, cols)):
        raise MalformedInput("rows and cols must be non-negative integers")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise MalformedInput("entries length does not match rows*cols")
    flat = [scalar_from_obj(e, mode) for e in entries]
    return backend._filled(rows, cols, ((k // cols, k % cols, x) for k, x in enumerate(flat)))


def matrix_dumps(m: Matrix) -> str:
    return json.dumps(matrix_to_obj(m), sort_keys=True)


def matrix_loads(s: str) -> Matrix:
    try:
        obj = json.loads(s)
    except ValueError as exc:  # JSONDecodeError, or an int too long to parse
        raise MalformedInput(f"bad JSON: {exc}") from exc
    return matrix_from_obj(obj)
