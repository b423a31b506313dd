"""Dual-mode dense complex matrices.

Two storage modes, never mixed inside one matrix:

* ``exact``  -- entries are Gaussian rationals (:class:`~sharporder.scalars.QQi`);
  all predicates are decided exactly.
* ``float``  -- entries are complex128 in a numpy array; predicates are
  tolerance-aware.  numpy is imported on first float use, so exact-only
  callers never load it.

Values are immutable after construction and all operations are pure, so
matrices can be shared freely across threads.
"""

import cmath
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, isfinite, lcm, sqrt

from .errors import (
    MalformedInput,
    ModeMismatch,
    NonSquare,
    NotSupported,
    ShapeMismatch,
    SingularMatrix,
)
from .scalars import QQI_ZERO, QQi, frac_str

EXACT = "exact"
FLOAT = "float"

_FRACTION_ZERO = Fraction(0)


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

    __slots__ = ("rows", "cols", "mode", "_a", "_intform", "_key")

    def __init__(self, rows, cols, mode, data, intform=None):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_a", data)
        object.__setattr__(self, "_intform", intform)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def exact(cls, rows):
        """Exact matrix from nested entries (ints, Fractions, (re, im) pairs, QQi)."""
        rows = list(rows)
        if not all(isinstance(row, (list, tuple)) for row in rows):
            raise ShapeMismatch("every row must be a list or tuple")
        data = tuple(tuple(QQi.coerce(x) for x in row) for row in rows)
        r = len(data)
        c = len(data[0]) if r else 0
        if any(len(row) != c for row in data):
            raise ShapeMismatch("ragged rows")
        return cls(r, c, EXACT, data)

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
    def from_entries(cls, rows, cols, entries, mode):
        """A rows x cols matrix, zero except for the (i, j, value) entries;
        the one place a zero matrix is filled."""
        if mode == FLOAT:
            import numpy as np

            a = np.zeros((rows, cols), dtype=complex)
            for i, j, v in entries:
                a[i, j] = complex(v)
            return cls._wrap(a)
        data = [[QQI_ZERO] * cols for _ in range(rows)]
        for i, j, v in entries:
            data[i][j] = QQi.coerce(v)
        return cls(rows, cols, EXACT, tuple(map(tuple, data)))

    @classmethod
    def zeros(cls, rows, cols, mode=EXACT):
        return cls.from_entries(rows, cols, (), mode)

    @classmethod
    def identity(cls, n, mode=EXACT):
        return cls.from_entries(n, n, ((i, i, 1) for i in range(n)), mode)

    @classmethod
    def diag(cls, values, mode=None):
        values = list(values)
        if mode is None:
            mode = FLOAT if any(isinstance(v, (float, complex)) for v in values) else EXACT
        n = len(values)
        return cls.from_entries(n, n, ((i, i, v) for i, v in enumerate(values)), mode)

    # ------------------------------------------------------------------
    # element access

    def __getitem__(self, ij):
        i, j = ij
        if self.mode == FLOAT:
            return complex(self._a[i, j])
        return self._a[i][j]

    def row(self, i):
        if self.mode == FLOAT:
            return [complex(x) for x in self._a[i]]
        return list(self._a[i])

    def block(self, i0, i1, j0, j1):
        """Submatrix with rows [i0, i1) and columns [j0, j1)."""
        if self.mode == FLOAT:
            return Matrix._wrap(self._a[i0:i1, j0:j1])
        data = tuple(tuple(self._a[i][j0:j1]) for i in range(i0, i1))
        return Matrix(i1 - i0, j1 - j0, EXACT, data)

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
        d, rows = _int_form(self)
        return _over(self.rows, self.cols, rows, (-d, 0))

    def scale(self, s):
        if self.mode == FLOAT:
            return Matrix._wrap(complex(s) * self._a)
        s = QQi.coerce(s)
        return Matrix(self.rows, self.cols, EXACT,
                      tuple(tuple(s * x for x in row) for row in self._a))

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
        form = self._intform
        if form is not None:
            form = (form[0], tuple(tuple((xr, -xi) for xr, xi in row)
                                   for row in _transpose(form[1], self.cols)))
        return Matrix(self.cols, self.rows, EXACT,
                      tuple(tuple(x.conjugate() for x in row)
                            for row in _transpose(self._a, self.cols)), form)

    @property
    def T(self):
        if self.mode == FLOAT:
            return Matrix._wrap(self._a.T)
        form = self._intform
        if form is not None:
            form = (form[0], _transpose(form[1], self.cols))
        return Matrix(self.cols, self.rows, EXACT, _transpose(self._a, self.cols), form)

    def trace(self):
        self.require_square()
        if self.mode == FLOAT:
            return complex(self._a.trace())
        t = QQI_ZERO
        for i in range(self.rows):
            t = t + self._a[i][i]
        return t

    def fro(self):
        """Frobenius norm as a float (both modes)."""
        if self.mode == FLOAT:
            return _fro(self._a)
        s = Fraction(0)
        for row in self._a:
            for x in row:
                s += x.abs2()
        return float(s) ** 0.5

    def is_zero(self, tol=DEFAULT_TOL):
        if self.mode == EXACT:
            return all(x.is_zero() for row in self._a for x in row)
        norm = self.fro()
        if not isfinite(norm):
            _require_finite(self, "is_zero")
        return norm <= tol.rel

    def to_float(self):
        if self.mode == FLOAT:
            return self
        return Matrix.floating([[complex(x) for x in row] for row in self._a])

    # ------------------------------------------------------------------
    # comparisons / hashing helpers

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.mode, self.rows, self.cols) != (other.mode, other.rows, other.cols):
            return False
        if self.mode == FLOAT:
            return bool((self._a == other._a).all())
        return self._a == other._a

    def key(self):
        """Hashable identity key (exact mode only), for dedup in tests/oracles.

        Built from the cleared-denominator integer form, which is canonical,
        so hashing stays on plain ints.
        """
        if self.mode != EXACT:
            raise ModeMismatch("key() is exact-mode only")
        if self._key is None:
            d, rows = _int_form(self)
            object.__setattr__(self, "_key", (self.rows, self.cols, d, rows))
        return self._key

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.mode})"

    # ------------------------------------------------------------------
    # linear algebra

    def rank(self, tol=DEFAULT_TOL):
        """Exact mode: row-reduction rank. Float mode: numerical_rank of the
        singular values."""
        if self.mode == EXACT:
            return len(_bareiss(_int_form(self)[1], self.rows, self.cols, False)[1])
        return numerical_rank(singular_values(self), tol)

    def inverse(self):
        """Matrix inverse; raises SingularMatrix when not invertible."""
        self.require_square()
        n = self.rows
        if self.mode == EXACT:
            # self = rows / d, so the RREF of [rows | d I] is [I | self^-1]
            d, rows = _int_form(self)
            aug = [list(row) + [(d, 0) if j == i else (0, 0) for j in range(n)]
                   for i, row in enumerate(rows)]
            a, pivots, big_d = _bareiss(aug, n, 2 * n, True)
            if pivots[:n] != list(range(n)):
                raise SingularMatrix("exact matrix is singular")
            return _over(n, n, tuple(tuple(row[n:]) for row in a), big_d)
        if n == 0:
            return self
        import numpy as np

        _require_finite(self, "inverse")
        try:
            inv = np.linalg.inv(self._a)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(str(exc)) from exc
        if not np.all(np.isfinite(inv)):
            raise SingularMatrix("non-finite inverse")
        return Matrix._wrap(inv)


def _require_finite(m: Matrix, what):
    """Reject a float matrix holding NaN or an infinity."""
    import numpy as np

    if not np.isfinite(m._a).all():
        raise MalformedInput(f"{what} of a matrix with non-finite entries")


def _fro(a):
    """Frobenius norm of a complex array, summed term for term as
    numpy.linalg.norm sums it, so the two agree bit for bit."""
    x = a.ravel(order="K")
    xr, xi = x.real, x.imag
    return sqrt(xr.dot(xr) + xi.dot(xi))


# ----------------------------------------------------------------------
# the exact kernel: every exact result is computed on Gaussian integers over
# one denominator.  _int_form reads a matrix in that form, _int_product
# multiplies (row by row, skipping zero entries of the left factor),
# _int_sum adds and subtracts, _bareiss eliminates, _int_rep_eq compares,
# and _over, the one writer, reduces the form it is given, writes the QQi
# entries and keeps the form on the result, so the next operation reads it
# instead of rebuilding it from QQi


def _int_form(m: Matrix):
    """Clear denominators: (d, rows) with rows of (re, im) integer pairs so
    that m = rows / d entrywise, d the lcm of the entries' denominators.
    Cached on the (immutable) matrix; callers that mutate rows must copy
    first."""
    if m._intform is None:
        d = 1
        for row in m._a:
            for x in row:
                d = lcm(d, x.re.denominator, x.im.denominator)
        rows = tuple(tuple((x.re.numerator * (d // x.re.denominator),
                            x.im.numerator * (d // x.im.denominator)) for x in row)
                     for row in m._a)
        object.__setattr__(m, "_intform", (d, rows))
    return m._intform


def _int_product(a: Matrix, b: Matrix):
    """Integer form (d, rows) of a @ b, the one exact product: @ writes it
    with _over, and the product predicates compare it as it is.

    Row i of the product is the sum of b's rows scaled by row i of a, so a
    zero entry of a skips a whole row of b, and a real one skips the
    imaginary cross terms.  Zero entries of b are multiplied as they come:
    listing each row's nonzero entries first costs more than it saves on
    the small matrices most products are made of."""
    d1, ra = _int_form(a)
    d2, rb = _int_form(b)
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


def _int_sum(a: Matrix, b: Matrix, sign):
    """a + b (sign 1) or a - b (sign -1), over the lcm of the two
    denominators."""
    d1, ra = _int_form(a)
    d2, rb = _int_form(b)
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


def _bareiss(rows, nr, nc, reduce):
    """Fraction-free elimination (Bareiss 1968) of Gaussian-integer rows.

    Each step sets every entry it touches to (p y - x z) / p_prev: p is the
    new pivot, x the row's entry in the pivot column, z the pivot row's
    entry in the entry's column, p_prev the previous pivot.  Every entry is
    then a minor of the input, so each division is exact and the loops stay
    on ints.  Forward only (reduce=False) leaves a row echelon form; with
    reduce=True the rows above each pivot are eliminated too, every pivot
    ends equal to the last one, D, and the RREF is rows / D.

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
        for i in range(0 if reduce else r + 1, nr):
            if i == r:
                continue
            row_i = a[i]
            xr, xi = row_i[c]
            # below the pivot row, the columns up to c are already zero
            j0 = 0 if i < r else c + 1
            new = [(0, 0)] * nc
            for j in range(j0, nc):
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


def _over(nr, nc, rows, d):
    """The one exact writer: the nr x nc Matrix equal to the Gaussian-integer
    rows / d, for a nonzero Gaussian integer d = (re, im).

    A d off the real axis moves to the real denominator |d|^2 (the rows are
    multiplied by its conjugate), and a negative real d to -d (the rows are
    negated).  One gcd over d and every part then reduces the pair, so d
    ends as the lcm of the entries' denominators: the pair is the one
    _int_form would read, and it is kept on the result as its integer form.
    The rows must be tuples of (re, im) tuples, as the form keeps them.
    Zero entries share QQI_ZERO, and equal entries share one QQi."""
    dr, di = d
    if di:
        rows = tuple(tuple((tr * dr + ti * di, ti * dr - tr * di) for tr, ti in row)
                     for row in rows)
        dr = dr * dr + di * di
    elif dr < 0:
        rows = tuple(tuple((-tr, -ti) for tr, ti in row) for row in rows)
        dr = -dr
    g = gcd(dr, *chain.from_iterable(chain.from_iterable(rows)))
    if g > 1:
        dr //= g
        rows = tuple(tuple((tr // g, ti // g) for tr, ti in row) for row in rows)
    made = {(0, 0): QQI_ZERO}
    data = []
    for row in rows:
        out = []
        for p in row:
            x = made.get(p)
            if x is None:
                tr, ti = p
                x = made[p] = QQi(Fraction(tr, dr) if tr else _FRACTION_ZERO,
                                  Fraction(ti, dr) if ti else _FRACTION_ZERO)
            out.append(x)
        data.append(tuple(out))
    return Matrix(nr, nc, EXACT, tuple(data), (dr, rows))


def exact_rref(m: Matrix):
    """RREF as (Matrix, pivot column list); exact mode only."""
    if m.mode != EXACT:
        raise ModeMismatch("rref is exact-mode only")
    a, pivots, d = _bareiss(_int_form(m)[1], m.rows, m.cols, True)
    return _over(m.rows, m.cols, tuple(map(tuple, a)), d), pivots


# ----------------------------------------------------------------------
# tolerance-aware predicates


def approx_eq(x: Matrix, y: Matrix, tol=DEFAULT_TOL) -> bool:
    """Entrywise equality (exact) or relative Frobenius closeness (float)."""
    if x.mode != y.mode:
        raise ModeMismatch(f"{x.mode} vs {y.mode}")
    if (x.rows, x.cols) != (y.rows, y.cols):
        raise ShapeMismatch(f"{x.rows}x{x.cols} vs {y.rows}x{y.cols}")
    if x.mode == EXACT:
        return x._a == y._a
    nx, ny = _fro(x._a), _fro(y._a)
    if not (isfinite(nx) and isfinite(ny)):
        _require_finite(x, "approx_eq")
        _require_finite(y, "approx_eq")
    return _fro(x._a - y._a) <= tol.rel * max(1.0, nx, ny)


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
    m; float mode asks ||m m - m||_F <= rel * max(1, ||m||_F^2)."""
    _check_operands(m, m, idempotent=True)
    if m.mode == EXACT:
        return _int_rep_eq(_int_form(m), _int_product(m, m))
    a = m._a
    return _fro(a @ a - a) <= tol.rel * max(1.0, _fro(a) ** 2)


def in_tau(t: Matrix, sk: Matrix, tol=DEFAULT_TOL) -> bool:
    """T idempotent and commuting with SK: membership in the projector set
    tau of a Sigma K block (delta, when SK is a Jordan matrix).  T SK = SK T
    is decided on integer forms in exact mode and by approx_eq in float
    mode; a T that is not idempotent is rejected before SK is looked at."""
    _check_operands(t, sk, idempotent=True)
    if not is_projector(t, tol):
        return False
    if t.mode == EXACT:
        return _int_rep_eq(_int_product(t, sk), _int_product(sk, t))
    return approx_eq(t @ sk, sk @ t, tol)


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
    cut needs, without the singular vectors."""
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
    _require_finite(m, what)
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
    flat = m._a.ravel().tolist() if m.mode == FLOAT else [x for row in m._a for x in row]
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
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"bad JSON: {exc}") from exc
    return matrix_from_obj(obj)
