"""Dual-mode dense complex matrices.

Two storage modes, never mixed inside one matrix:

* ``exact``  -- Gaussian rationals, stored as one reduced integer form: Gaussian
  integers over their least positive common denominator.  Every exact
  operation runs on that form; an entry is read as a
  :class:`~sharporder.scalars.QQi`, built on the first read.  All predicates
  are decided exactly.
* ``float``  -- entries are complex128 in a numpy array; predicates are
  tolerance-aware.  numpy is imported on first float use, so exact-only
  callers never load it.

Values are immutable after construction and all operations are pure, so
matrices can be shared freely across threads.  An exact matrix keeps facts
derived from its value once they are first asked for (its QQi entries, the
integer form of its square, its index verdict); each is a function of the
value alone, so two threads that race on one only compute it twice, and
none is read by ``==``, ``key()`` or hashing.  A float matrix likewise keeps
its inverse and its singular values once they are first computed, but no
verdict: every rank cut and comparison is made again at the tolerance of
each call.
"""

import cmath
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, inf, isfinite, lcm, sqrt

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

@dataclass(frozen=True)
class Tolerance:
    """Relative comparison tolerance and rank-decision threshold."""

    rel: float = 1e-9
    rank_threshold_factor: float = 1e-10

    def __post_init__(self):
        # rel >= 1 makes every matrix approx_eq to O, a factor >= 1 makes
        # every rank 0; a NaN fails both comparisons
        if not (0 < self.rel < 1 and 0 < self.rank_threshold_factor < 1):
            raise MalformedInput("tolerances must be finite and in (0, 1)")


DEFAULT_TOL = Tolerance()


class Matrix:
    """Immutable dense complex matrix in exact or float mode."""

    # _sq and _index1 (exact only) stay unset until _int_square and
    # ginv.index_le_one make them, _inv and _sv (float only) until inverse
    # and _kept_sigma do, so building a matrix does not pay for them
    __slots__ = ("rows", "cols", "mode", "_a", "_intform", "_qqi", "_sq", "_index1",
                 "_inv", "_sv")

    def __init__(self, rows, cols, mode, data):
        """data: a complex128 array no one else can write to (float mode), or
        the reduced integer form (d, rows) that _over writes (exact mode)."""
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_a", data if mode == FLOAT else None)
        object.__setattr__(self, "_intform", None if mode == FLOAT else data)
        object.__setattr__(self, "_qqi", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

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

    @classmethod
    def floating(cls, rows):
        """Float matrix from anything numpy can turn into a complex array
        (always a copy, so later writes to the input cannot reach it)."""
        import numpy as np

        if isinstance(rows, (list, tuple)) and len(
                {len(r) if isinstance(r, (list, tuple, np.ndarray)) else None for r in rows}) > 1:
            raise ShapeMismatch("ragged rows")
        a = np.array(rows, dtype=complex)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.ndim != 2:
            raise ShapeMismatch("expected a 2-d array")
        return cls._wrap(a)

    @classmethod
    def _wrap(cls, a):
        """Float matrix around a complex128 2-d array that no one else can
        write to (a fresh result, or a view of a read-only one); no copy."""
        a.setflags(write=False)
        return cls(a.shape[0], a.shape[1], FLOAT, a)

    @classmethod
    def slices(cls, stack):
        """The float matrices of the slices of a (k, rows, cols) complex128
        stack that no one else can write to: views of the stack, which is
        made read-only, not copied."""
        stack.setflags(write=False)
        return [cls(stack.shape[1], stack.shape[2], FLOAT, a) for a in stack]

    @classmethod
    def from_entries(cls, rows, cols, entries, mode):
        """A rows x cols matrix, zero except for the (i, j, value) entries;
        the one place a zero matrix is filled."""
        if mode == FLOAT:
            import numpy as np

            a = np.zeros((rows, cols), dtype=complex)
            for i, j, v in entries:
                a[i, j] = complex(v)
            return cls._wrap(a)
        entries = list(entries)
        d, values = _cleared(v for _, _, v in entries)
        data = [[(0, 0)] * cols for _ in range(rows)]
        for (i, j, _), p in zip(entries, values):
            data[i][j] = p
        return _over(rows, cols, tuple(map(tuple, data)), (d, 0))

    @classmethod
    def zeros(cls, rows, cols, mode=EXACT):
        return cls.from_entries(rows, cols, (), mode)

    @classmethod
    def identity(cls, n, mode=EXACT):
        return cls.diag([1] * n, mode)

    @classmethod
    def diag(cls, values, mode=None):
        values = list(values)
        if mode is None:
            mode = FLOAT if any(isinstance(v, (float, complex)) for v in values) else EXACT
        n = len(values)
        if mode == FLOAT:
            import numpy as np

            return cls._wrap(np.diag(np.array([complex(v) for v in values], dtype=complex)))
        return cls.from_entries(n, n, ((i, i, v) for i, v in enumerate(values)), mode)

    # ------------------------------------------------------------------
    # element access

    def __getitem__(self, ij):
        i, j = ij
        if self.mode == FLOAT:
            return complex(self._a[i, j])
        return self._entries()[i][j]

    def row(self, i):
        if self.mode == FLOAT:
            return [complex(x) for x in self._a[i]]
        return list(self._entries()[i])

    def _entries(self):
        """The QQi rows of an exact matrix: built from the integer form when
        an entry is first read, and kept."""
        if self._qqi is None:
            d, rows = self._intform
            scalar = _scalar_over(d)
            object.__setattr__(self, "_qqi", tuple(tuple(map(scalar, row)) for row in rows))
        return self._qqi

    def block(self, i0, i1, j0, j1):
        """Submatrix with rows [i0, i1) and columns [j0, j1)."""
        if self.mode == FLOAT:
            return Matrix._wrap(self._a[i0:i1, j0:j1])
        d, rows = self._intform
        return _over(i1 - i0, j1 - j0, tuple(rows[i][j0:j1] for i in range(i0, i1)), (d, 0))

    @property
    def array(self):
        """The underlying complex128 array (float mode only, read-only)."""
        if self.mode != FLOAT:
            raise ModeMismatch("no array backing in exact mode")
        return self._a

    @property
    def is_square(self):
        return self.rows == self.cols

    def require_square(self):
        if not self.is_square:
            raise NonSquare(f"{self.rows}x{self.cols} matrix is not square")

    # ------------------------------------------------------------------
    # arithmetic

    def _check_same(self, other):
        if self.mode != other.mode:
            raise ModeMismatch(f"{self.mode} vs {other.mode}")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other):
        self._check_same(other)
        if self.mode == FLOAT:
            return Matrix._wrap(self._a + other._a)
        return _int_sum(self, other, 1)

    def __sub__(self, other):
        self._check_same(other)
        if self.mode == FLOAT:
            return Matrix._wrap(self._a - other._a)
        return _int_sum(self, other, -1)

    def __neg__(self):
        if self.mode == FLOAT:
            return Matrix._wrap(-self._a)
        # rows / -d: the writer moves the sign onto the rows
        d, rows = self._intform
        return _over(self.rows, self.cols, rows, (-d, 0))

    def scale(self, s):
        if self.mode == FLOAT:
            return Matrix._wrap(complex(s) * self._a)
        e, ((sr, si),) = _cleared([s])
        d, rows = self._intform
        return _over(self.rows, self.cols,
                     tuple(tuple((xr * sr - xi * si, xr * si + xi * sr) for xr, xi in row)
                           for row in rows), (d * e, 0))

    def __matmul__(self, other):
        if self.mode != other.mode:
            raise ModeMismatch(f"{self.mode} vs {other.mode}")
        if self.cols != other.rows:
            raise ShapeMismatch(f"inner dims {self.cols} vs {other.rows}")
        if self.mode == FLOAT:
            return Matrix._wrap(self._a @ other._a)
        d, rows = _int_product(self, other)
        return _over(self.rows, other.cols, rows, (d, 0))

    @property
    def H(self):
        """Conjugate transpose."""
        if self.mode == FLOAT:
            return Matrix._wrap(self._a.conj().T)
        d, rows = self._intform
        return Matrix(self.cols, self.rows, EXACT,
                      (d, tuple(tuple((xr, -xi) for xr, xi in row)
                                for row in _transpose(rows, self.cols))))

    @property
    def T(self):
        if self.mode == FLOAT:
            return Matrix._wrap(self._a.T)
        d, rows = self._intform
        return Matrix(self.cols, self.rows, EXACT, (d, _transpose(rows, self.cols)))

    def trace(self):
        self.require_square()
        if self.mode == FLOAT:
            return complex(self._a.trace())
        d, rows = self._intform
        re, im = map(sum, zip((0, 0), *(rows[i][i] for i in range(self.rows))))
        return QQi(Fraction(re, d), Fraction(im, d))

    def fro(self):
        """Frobenius norm as a float (both modes)."""
        if self.mode == FLOAT:
            return _fro(self._a)
        d, rows = self._intform
        # int / int rounds once, as float() of the exact Fraction sum did
        return (sum(xr * xr + xi * xi for row in rows for xr, xi in row) / (d * d)) ** 0.5

    def is_zero(self, tol=DEFAULT_TOL):
        if self.mode == EXACT:
            return not any(chain.from_iterable(chain.from_iterable(self._intform[1])))
        norm = self.fro()
        if not isfinite(norm):
            _require_finite(self._a, "is_zero")
        return norm <= tol.rel

    def to_float(self):
        if self.mode == FLOAT:
            return self
        d, rows = self._intform
        return Matrix.floating([[complex(xr / d, xi / d) for xr, xi in row] for row in rows])

    # ------------------------------------------------------------------
    # comparisons / hashing helpers

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.mode, self.rows, self.cols) != (other.mode, other.rows, other.cols):
            return False
        if self.mode == FLOAT:
            return bool((self._a == other._a).all())
        return self._intform == other._intform

    def key(self):
        """Hashable identity key (exact mode only), for dedup in tests/oracles:
        the shape and the integer form, which is canonical, so hashing stays
        on plain ints."""
        if self.mode != EXACT:
            raise ModeMismatch("key() is exact-mode only")
        return (self.rows, self.cols, *self._intform)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.mode})"

    # ------------------------------------------------------------------
    # linear algebra

    def rank(self, tol=DEFAULT_TOL):
        """Exact mode: row-reduction rank. Float mode: numerical_rank of the
        singular values."""
        if self.mode == EXACT:
            return len(_bareiss(self._intform[1], self.rows, self.cols)[1])
        return numerical_rank(_kept_sigma(self), tol)

    def inverse(self):
        """Matrix inverse; raises SingularMatrix when not invertible.  Exact
        mode solves rows X = d I for self = rows / d with _solve (every
        division exact by Cramer's rule).  A float inverse is kept on self
        once made; a singular matrix raises on every call."""
        self.require_square()
        n = self.rows
        if self.mode == EXACT:
            d, rows = self._intform
            x, big_n = _solve(rows, n, tuple(tuple((d, 0) if j == i else (0, 0) for j in range(n))
                                             for i in range(n)), n)
            return _over(n, n, x, (big_n, 0))
        if n == 0:
            return self
        kept = getattr(self, "_inv", None)
        if kept is None:
            import numpy as np

            _require_finite(self._a, "inverse")
            try:
                inv = np.linalg.inv(self._a)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrix(str(exc)) from exc
            if not np.all(np.isfinite(inv)):
                raise SingularMatrix("non-finite inverse")
            kept = Matrix._wrap(inv)
            object.__setattr__(self, "_inv", kept)
        return kept


def _scalar_over(d):
    """The one maker of QQi entries: the function from an (re, im) int pair
    to the QQi (re + im i) / d.  Equal pairs share one QQi."""
    made = {}
    return lambda p: made.get(p) or made.setdefault(p, QQi(Fraction(p[0], d), Fraction(p[1], d)))


def _require_finite(a, what):
    """Reject a complex array holding NaN or an infinity."""
    import numpy as np

    if not np.isfinite(a).all():
        raise MalformedInput(f"{what} of a matrix with non-finite entries")


def _fro(a):
    """Frobenius norm of a complex array, summed term for term as
    numpy.linalg.norm sums it, so the two agree bit for bit; inf when the
    sums overflow, also where numpy's overflow warning is an error."""
    x = a.ravel(order="K")
    xr, xi = x.real, x.imag
    try:
        return sqrt(xr.dot(xr) + xi.dot(xi))
    except RuntimeWarning:
        return inf


# ----------------------------------------------------------------------
# the exact kernel: an exact matrix is stored as Gaussian integers over one
# denominator, and every exact result is computed in that form.
# _int_product multiplies (row by row, skipping zero entries of the left
# factor), _int_square keeps a square, _int_sum adds and subtracts, _bareiss
# eliminates (forward only: the one elimination, whose echelon form gives
# the rank and the bases behind both generalized inverses), _solve solves,
# _int_rep_eq compares, _cleared turns entries given as scalars into
# integers, and _over, the one writer, reduces a form to the canonical one


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
    """Integer form (d, rows) of a @ b, the one exact product: @ writes it
    with _over, and the product predicates compare it as it is.

    Row i of the product is the sum of b's rows scaled by row i of a, so a
    zero entry of a skips a whole row of b, and a real one skips the
    imaginary cross terms.  Zero entries of b are multiplied as they come:
    listing each row's nonzero entries first costs more than it saves on
    the small matrices most products are made of."""
    d1, ra = a._intform
    d2, rb = b._intform
    nc = b.cols
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
    return d1 * d2, tuple(rows)


def _int_square(a: Matrix):
    """Integer form of a @ a for an exact a, made by _int_product on first
    use and kept on a: the index test and every predicate that squares an
    operand start from it."""
    sq = getattr(a, "_sq", None)
    if sq is None:
        sq = _int_product(a, a)
        object.__setattr__(a, "_sq", sq)
    return sq


def _int_sum(a: Matrix, b: Matrix, sign):
    """a + b (sign 1) or a - b (sign -1), over the lcm of the two
    denominators."""
    d1, ra = a._intform
    d2, rb = b._intform
    d = lcm(d1, d2)
    m1, m2 = d // d1, sign * (d // d2)
    rows = tuple(tuple((xr * m1 + yr * m2, xi * m1 + yi * m2) for (xr, xi), (yr, yi) in zip(p, q))
                 for p, q in zip(ra, rb))
    return _over(a.rows, a.cols, rows, (d, 0))


def _transpose(rows, nc):
    """The nc rows of the transpose of nested rows with nc columns."""
    return tuple(tuple(row[j] for row in rows) for j in range(nc))


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

    Returns (rows, pivot columns, D); D is (1, 0) when there is no pivot.
    """
    a = [list(row) for row in rows]
    pivots = []
    pr, pi = 1, 0
    r = 0
    for c in range(nc):
        if r == nr:
            break
        k = next((k for k in range(r, nr) if a[k][c] != (0, 0)), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
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
    return a, pivots, (pr, pi)


def _solve(rows, n, rhs, k):
    """(X rows, N), N a positive int, with A X / N = B for the n x n and
    n x k Gaussian-integer rows of A and B; SingularMatrix if A is singular.

    The forward-only _bareiss of [A | B] leaves [U | B'], and its last pivot
    D is +-det A, so D A^-1 = +-adj A is integral (Cramer's rule).  N is D
    when D > 0, else |D|^2, so N X is integral too: back substitution
    N x_i = (N b'_i - sum over j > i of u_ij N x_j) / u_ii divides exactly."""
    a, pivots, (dr, di) = _bareiss([p + q for p, q in zip(rows, rhs)], n, n + k)
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
    return Matrix(nr, nc, EXACT, (dr, rows))


# ----------------------------------------------------------------------
# tolerance-aware predicates


def approx_eq(x: Matrix, y: Matrix, tol=DEFAULT_TOL) -> bool:
    """Entrywise equality (exact) or relative Frobenius closeness (float)."""
    if x.mode != y.mode:
        raise ModeMismatch(f"{x.mode} vs {y.mode}")
    if (x.rows, x.cols) != (y.rows, y.cols):
        raise ShapeMismatch(f"{x.rows}x{x.cols} vs {y.rows}x{y.cols}")
    if x.mode == EXACT:
        return x._intform == y._intform
    return _close(x._a, y._a, tol)


def _close(x, y, tol):
    """approx_eq's float rule on two complex arrays: ||x - y||_F <= rel *
    max(1, ||x||_F, ||y||_F), decided on scaled copies when a norm
    overflows; MalformedInput if either holds NaN or an infinity."""
    nx, ny = _fro(x), _fro(y)
    if not (isfinite(nx) and isfinite(ny)):
        _require_finite(x, "approx_eq")
        _require_finite(y, "approx_eq")
        # a norm overflowed: the same rule on copies scaled by the largest
        # part of an entry, ||x/s - y/s|| <= rel * max(1/s, ||x/s||, ||y/s||)
        s = max(float(abs(p).max()) for p in (x.real, x.imag, y.real, y.imag))
        x, y = x / s, y / s
        return _fro(x - y) <= tol.rel * max(1.0 / s, _fro(x), _fro(y))
    return _fro(x - y) <= tol.rel * max(1.0, nx, ny)


def _check_operands(x: Matrix, y: Matrix, idempotent=False):
    """The one check of a product predicate's operands, made before any
    entry is read: NonSquare when x is to be idempotent and is not square,
    then ModeMismatch, then ShapeMismatch unless x and y are square of one
    size."""
    if idempotent:
        x.require_square()
    if x.mode != y.mode:
        raise ModeMismatch(f"{x.mode} vs {y.mode}")
    if not x.rows == x.cols == y.rows == y.cols:
        raise ShapeMismatch(f"{x.rows}x{x.cols} vs {y.rows}x{y.cols}")


def is_projector(m: Matrix, tol=DEFAULT_TOL) -> bool:
    """True iff m^2 = m.  Exact mode compares the integer forms of m m and
    m; float mode is the 1-stack of _projector_flags."""
    _check_operands(m, m, idempotent=True)
    if m.mode == EXACT:
        return _int_rep_eq(m._intform, _int_square(m))
    return _projector_flags(m._a[None], tol)[0]


def in_tau(t: Matrix, sk: Matrix, tol=DEFAULT_TOL) -> bool:
    """T idempotent and commuting with SK: membership in the projector set
    tau of a Sigma K block (delta, when SK is a Jordan matrix).  Exact mode
    decides both on integer forms, a T that is not idempotent before SK is
    looked at; float mode is the 1-stack of outside_tau."""
    _check_operands(t, sk, idempotent=True)
    if t.mode == FLOAT:
        return outside_tau(t._a[None], sk._a, tol) is None
    return (_int_rep_eq(t._intform, _int_square(t))
            and _int_rep_eq(_int_product(t, sk), _int_product(sk, t)))


def _projector_flags(ts, tol):
    """Whether each slice T of a (k, r, r) complex stack is a projector, by
    is_projector's float rule ||T T - T||_F <= rel * max(1, ||T||_F^2); the
    products T T in one batched product."""
    return [_fro(d) <= tol.rel * max(1.0, _fro(t) ** 2) for t, d in zip(ts, ts @ ts - ts)]


def outside_tau(ts, sk, tol=DEFAULT_TOL):
    """The index of the first slice T of a (k, r, r) complex stack that is not
    in tau(SK), for an r x r complex array SK, or None if every slice is.

    in_tau's float rules, unchanged, on every slice: T is a projector
    (_projector_flags), then T SK and SK T are close (_close, which raises
    MalformedInput for non-finite entries).  The products are batched, those
    with SK only for the slices before the first that is not a projector, and
    the first slice to fail either rule decides: the result and the error are
    those of in_tau called on each slice in turn."""
    idem = _projector_flags(ts, tol)
    first = idem.index(False) if not all(idem) else len(ts)
    head = ts[:first]
    for i, (x, y) in enumerate(zip(head @ sk, sk @ head)):
        if not _close(x, y, tol):
            return i
    return None if first == len(ts) else first


# ----------------------------------------------------------------------
# SVD, float mode only

# singular values at or below this fraction of sigma_1 are reported as 0.0
_SVD_ZERO = 1e-14


def svd(m: Matrix):
    """LAPACK SVD of a float matrix.

    Returns (U, sigma, V) with U (rows x rows) and V (cols x cols) unitary,
    sigma descending of length min(rows, cols), and m = U diag(sigma) V^H.
    Right singular vectors are phased so their first significant component
    is real positive; U is phased to match wherever sigma > 0.
    """
    nr, nc = m.rows, m.cols
    if _empty_svd_input(m, "svd"):
        return Matrix.identity(nr, FLOAT), [], Matrix.identity(nc, FLOAT)
    import numpy as np

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
    return Matrix._wrap(u), [float(x) for x in s], Matrix._wrap(v)


def singular_values(m: Matrix):
    """The sigma of svd(m), from LAPACK's values-only driver: what a rank
    cut needs, without the singular vectors.  A fresh list on every call."""
    return list(_kept_sigma(m))


def _kept_sigma(m: Matrix):
    """The list singular_values(m) copies, computed on first use and kept
    on m, so it is never handed out: a function of the value alone, since
    only the fixed _SVD_ZERO cut is applied here and every tolerance cut is
    made by the caller."""
    kept = getattr(m, "_sv", None)
    if kept is None:
        if _empty_svd_input(m, "singular_values"):
            kept = []
        else:
            import numpy as np

            s = np.linalg.svd(m._a, compute_uv=False).tolist()
            cut = _SVD_ZERO * s[0]
            kept = [x if x > cut else 0.0 for x in s]
        object.__setattr__(m, "_sv", kept)
    return kept


def _empty_svd_input(m: Matrix, what) -> bool:
    """Check the input of an SVD: float mode (NotSupported) and finite
    (MalformedInput); True when it has no rows or no columns."""
    if m.mode != FLOAT:
        raise NotSupported(f"{what} is float-mode only; exact pipelines use Jordan data")
    if m.rows == 0 or m.cols == 0:
        return True
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
    flat = m._a.ravel().tolist() if m.mode == FLOAT else [x for row in m._entries() for x in row]
    return {"mode": m.mode, "rows": m.rows, "cols": m.cols,
            "entries": [scalar_to_obj(x) for x in flat]}


def matrix_from_obj(obj) -> Matrix:
    try:
        mode, rows, cols, entries = obj["mode"], obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"bad matrix object: {exc}") from exc
    if mode not in (EXACT, FLOAT):
        raise MalformedInput(f"unknown mode {mode!r}")
    # bool is an int subclass, so JSON true must be ruled out by type
    if not all(type(n) is int and n >= 0 for n in (rows, cols)):
        raise MalformedInput("rows and cols must be non-negative integers")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise MalformedInput("entries length does not match rows*cols")
    flat = [scalar_from_obj(e, mode) for e in entries]
    return Matrix.from_entries(rows, cols, ((k // cols, k % cols, x) for k, x in enumerate(flat)),
                               mode)


def matrix_dumps(m: Matrix) -> str:
    return json.dumps(matrix_to_obj(m), sort_keys=True)


def matrix_loads(s: str) -> Matrix:
    try:
        obj = json.loads(s)
    except ValueError as exc:  # JSONDecodeError, or an int too long to parse
        raise MalformedInput(f"bad JSON: {exc}") from exc
    return matrix_from_obj(obj)
