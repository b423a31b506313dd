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
from math import isfinite, lcm, sqrt

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

    def __init__(self, rows, cols, mode, data):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_a", data)
        object.__setattr__(self, "_intform", None)
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
        data = tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self._a, other._a))
        return Matrix(self.rows, self.cols, EXACT, data)

    def __sub__(self, other):
        self._check_same(other)
        if self.mode == FLOAT:
            return Matrix._wrap(self._a - other._a)
        data = tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self._a, other._a))
        return Matrix(self.rows, self.cols, EXACT, data)

    def __neg__(self):
        if self.mode == FLOAT:
            return Matrix._wrap(-self._a)
        return Matrix(self.rows, self.cols, EXACT,
                      tuple(tuple(-x for x in row) for row in self._a))

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
        n, k, m = self.rows, self.cols, other.cols
        # work over a common denominator so the inner loops run on plain
        # integers instead of Fractions
        d1, a = _int_form(self)
        d2, b = _int_form(other)
        d = d1 * d2
        bt = list(zip(*b)) if k else [()] * m
        data = []
        for i in range(n):
            ai = a[i]
            row = []
            for j in range(m):
                bj = bt[j] if k else ()
                sre = sim = 0
                for t in range(k):
                    xr, xi = ai[t]
                    yr, yi = bj[t]
                    sre += xr * yr - xi * yi
                    sim += xr * yi + xi * yr
                row.append(QQi(Fraction(sre, d), Fraction(sim, d)))
            data.append(tuple(row))
        return Matrix(n, m, EXACT, tuple(data))

    @property
    def H(self):
        """Conjugate transpose."""
        if self.mode == FLOAT:
            return Matrix._wrap(self._a.conj().T)
        data = tuple(tuple(self._a[i][j].conjugate() for i in range(self.rows))
                     for j in range(self.cols))
        return Matrix(self.cols, self.rows, EXACT, data)

    @property
    def T(self):
        if self.mode == FLOAT:
            return Matrix._wrap(self._a.T)
        data = tuple(tuple(self._a[i][j] for i in range(self.rows)) for j in range(self.cols))
        return Matrix(self.cols, self.rows, EXACT, data)

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
            return Matrix(n, n, EXACT, _over([row[n:] for row in a], big_d))
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
# exact elimination helpers


def _int_form(m: Matrix):
    """Clear denominators: (d, rows) with rows of (re, im) integer pairs so
    that m = rows / d entrywise.  Cached on the (immutable) matrix; callers
    that mutate rows must copy first."""
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
    """Integer form (d, rows) of a @ b, skipping Fraction construction; for
    predicates that only compare products."""
    d1, ra = _int_form(a)
    d2, rb = _int_form(b)
    if a.cols == 0:
        return 1, tuple(((0, 0),) * b.cols for _ in range(a.rows))
    bt = list(zip(*rb))
    rows = []
    for arow in ra:
        out = []
        for bj in bt:
            sre = sim = 0
            for (xr, xi), (yr, yi) in zip(arow, bj):
                sre += xr * yr - xi * yi
                sim += xr * yi + xi * yr
            out.append((sre, sim))
        rows.append(tuple(out))
    return d1 * d2, tuple(rows)


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


def _over(rows, d):
    """Exact rows of QQi equal to the Gaussian-integer rows / d."""
    dr, di = d
    dn = dr * dr + di * di
    return tuple(tuple(QQi(Fraction(tr * dr + ti * di, dn), Fraction(ti * dr - tr * di, dn))
                       if tr or ti else QQI_ZERO for tr, ti in row) for row in rows)


def exact_rref(m: Matrix):
    """RREF as (Matrix, pivot column list); exact mode only."""
    if m.mode != EXACT:
        raise ModeMismatch("rref is exact-mode only")
    a, pivots, d = _bareiss(_int_form(m)[1], m.rows, m.cols, True)
    return Matrix(m.rows, m.cols, EXACT, _over(a, d)), pivots


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


def _operand_shape(x):
    """(mode, rows, cols) of a Matrix, or of a @ b for an (a, b) pair,
    raising as a @ b would: ModeMismatch, then ShapeMismatch."""
    if isinstance(x, Matrix):
        return x.mode, x.rows, x.cols
    a, b = x
    if a.mode != b.mode:
        raise ModeMismatch(f"{a.mode} vs {b.mode}")
    if a.cols != b.rows:
        raise ShapeMismatch(f"inner dims {a.cols} vs {b.rows}")
    return a.mode, a.rows, b.cols


def _int_operand(x):
    return _int_form(x) if isinstance(x, Matrix) else _int_product(*x)


def _float_operand(x):
    return x if isinstance(x, Matrix) else x[0] @ x[1]


def _equal_products(x, ys, tol=DEFAULT_TOL, x_int=None) -> bool:
    """x = y for every y in ys, taken in order and stopping at the first
    that differs.  Each side is a Matrix or an (a, b) pair standing for
    a @ b.

    Exact mode compares integer forms (_int_form of a matrix, _int_product
    of a pair), so no QQi product is built; x_int, when given, returns the
    integer form of x in place of its product (a caller's cache).  Float
    mode forms each product once with @ and compares by approx_eq.  Either
    way each comparison raises as approx_eq(x, a @ b) would, before any
    integer form is taken.
    """
    sx = _operand_shape(x)
    if sx[0] == FLOAT:
        x = _float_operand(x)
        return all(approx_eq(x, _float_operand(y), tol) for y in ys)
    rx = None
    for y in ys:
        sy = _operand_shape(y)
        if sy[0] != sx[0]:
            raise ModeMismatch(f"{sx[0]} vs {sy[0]}")
        if sy != sx:
            raise ShapeMismatch(f"{sx[1]}x{sx[2]} vs {sy[1]}x{sy[2]}")
        if rx is None:
            rx = _int_operand(x) if x_int is None else x_int()
        if not _int_rep_eq(rx, _int_operand(y)):
            return False
    return True


def is_projector(m: Matrix, tol=DEFAULT_TOL) -> bool:
    """True iff m^2 = m.  Exact mode compares the integer forms of m m and
    m; float mode asks ||m m - m||_F <= rel * max(1, ||m||_F^2)."""
    m.require_square()
    if m.mode == EXACT:
        return _equal_products((m, m), (m,), tol)
    a = m._a
    return _fro(a @ a - a) <= tol.rel * max(1.0, _fro(a) ** 2)


def in_tau(t: Matrix, sk: Matrix, tol=DEFAULT_TOL) -> bool:
    """T idempotent and commuting with SK: membership in the projector set
    tau of a Sigma K block (delta, when SK is a Jordan matrix).  T SK = SK T
    is decided on integer forms in exact mode and by approx_eq in float
    mode; a T that is not idempotent is rejected before SK is looked at."""
    return is_projector(t, tol) and _equal_products((t, sk), ((sk, t),), tol)


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


def matrix_to_obj(m: Matrix):
    if m.mode == FLOAT:
        entries = [[x.real, x.imag] for x in m._a.ravel().tolist()]
    else:
        entries = [[frac_str(x.re), frac_str(x.im)] for row in m._a for x in row]
    return {"mode": m.mode, "rows": m.rows, "cols": m.cols, "entries": entries}


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
    # exact parts are ints or "p/q" strings (QQi parses them), float parts
    # are JSON numbers
    parts = (int, float) if mode == FLOAT else (int, str)
    if not all(isinstance(e, list) and len(e) == 2 and type(e[0]) in parts
               and type(e[1]) in parts for e in entries):
        raise MalformedInput(f"{mode} entries must be [re, im] pairs")
    if mode == FLOAT:
        try:
            flat = [complex(re, im) for re, im in entries]
        except OverflowError as exc:
            raise MalformedInput(f"bad float entry: {exc}") from exc
        if not all(cmath.isfinite(x) for x in flat):
            raise MalformedInput("non-finite float entry")
    else:
        flat = [QQi(re, im) for re, im in entries]
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
