"""Dual-mode dense complex matrices.

Two storage modes, never mixed inside one matrix:

* ``exact``  -- entries are Gaussian rationals (:class:`~sharporder.scalars.QQi`);
  all predicates are decided exactly.
* ``float``  -- entries are complex128 in a numpy array; predicates are
  tolerance-aware.

Values are immutable after construction and all operations are pure, so
matrices can be shared freely across threads.
"""

import cmath
import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import (
    MalformedInput,
    ModeMismatch,
    NonSquare,
    NotSupported,
    ShapeMismatch,
    SingularMatrix,
)
from .scalars import QQI_ONE, QQI_ZERO, QQi, frac_str

EXACT = "exact"
FLOAT = "float"


@dataclass(frozen=True)
class Tolerance:
    """Relative comparison tolerance and rank-decision threshold."""

    rel: float = 1e-9
    rank_threshold_factor: float = 1e-10

    def __post_init__(self):
        if not (self.rel > 0 and self.rank_threshold_factor > 0):
            raise MalformedInput("tolerances must be positive")


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
        data = tuple(tuple(QQi.coerce(x) for x in row) for row in rows)
        r = len(data)
        c = len(data[0]) if r else 0
        if any(len(row) != c for row in data):
            raise ShapeMismatch("ragged rows")
        return cls(r, c, EXACT, data)

    @classmethod
    def floating(cls, rows):
        """Float matrix from anything numpy can turn into a complex array."""
        a = np.array(rows, dtype=complex)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.ndim != 2:
            raise ShapeMismatch("expected a 2-d array")
        a.setflags(write=False)
        return cls(a.shape[0], a.shape[1], FLOAT, a)

    @classmethod
    def zeros(cls, rows, cols, mode=EXACT):
        if mode == FLOAT:
            return cls.floating(np.zeros((rows, cols), dtype=complex))
        return cls(rows, cols, EXACT, tuple(tuple(QQI_ZERO for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def identity(cls, n, mode=EXACT):
        if mode == FLOAT:
            return cls.floating(np.eye(n, dtype=complex))
        return cls(n, n, EXACT, tuple(
            tuple(QQI_ONE if i == j else QQI_ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def diag(cls, values, mode=None):
        values = list(values)
        if mode is None:
            mode = FLOAT if any(isinstance(v, (float, complex)) for v in values) else EXACT
        n = len(values)
        if mode == FLOAT:
            return cls.floating(np.diag(np.array(values, dtype=complex)))
        vals = [QQi.coerce(v) for v in values]
        return cls(n, n, EXACT, tuple(
            tuple(vals[i] if i == j else QQI_ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def from_blocks(cls, grid):
        """Assemble a block matrix; zero-width/height blocks are allowed."""
        if not grid:
            raise ShapeMismatch("empty block grid")
        mode = grid[0][0].mode
        rows = []
        for block_row in grid:
            if any(b.mode != mode for b in block_row):
                raise ModeMismatch("mixed modes in block grid")
            h = block_row[0].rows
            if any(b.rows != h for b in block_row):
                raise ShapeMismatch("inconsistent block heights")
            for i in range(h):
                row = []
                for b in block_row:
                    row.extend(b.row(i))
                rows.append(row)
        if mode == FLOAT:
            width = sum(b.cols for b in grid[0])
            if not rows:
                return cls.zeros(0, width, FLOAT)
            return cls.floating(rows)
        width = sum(b.cols for b in grid[0])
        if any(len(r) != width for r in rows):
            raise ShapeMismatch("inconsistent block widths")
        return cls(len(rows), width, EXACT, tuple(tuple(r) for r in rows))

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
            a = self._a[i0:i1, j0:j1].copy()
            a.setflags(write=False)
            return Matrix(i1 - i0, j1 - j0, FLOAT, a)
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
            return Matrix.floating(self._a + other._a)
        data = tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self._a, other._a))
        return Matrix(self.rows, self.cols, EXACT, data)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if self.mode == FLOAT:
            return Matrix.floating(-self._a)
        return Matrix(self.rows, self.cols, EXACT,
                      tuple(tuple(-x for x in row) for row in self._a))

    def scale(self, s):
        if self.mode == FLOAT:
            return Matrix.floating(complex(s) * self._a)
        s = QQi.coerce(s)
        return Matrix(self.rows, self.cols, EXACT,
                      tuple(tuple(s * x for x in row) for row in self._a))

    def __matmul__(self, other):
        if self.mode != other.mode:
            raise ModeMismatch(f"{self.mode} vs {other.mode}")
        if self.cols != other.rows:
            raise ShapeMismatch(f"inner dims {self.cols} vs {other.rows}")
        if self.mode == FLOAT:
            return Matrix.floating(self._a @ other._a)
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
            return Matrix.floating(self._a.conj().T)
        data = tuple(tuple(self._a[i][j].conjugate() for i in range(self.rows))
                     for j in range(self.cols))
        return Matrix(self.cols, self.rows, EXACT, data)

    @property
    def T(self):
        if self.mode == FLOAT:
            return Matrix.floating(self._a.T)
        data = tuple(tuple(self._a[i][j] for i in range(self.rows)) for j in range(self.cols))
        return Matrix(self.cols, self.rows, EXACT, data)

    def trace(self):
        self.require_square()
        if self.mode == FLOAT:
            return complex(np.trace(self._a))
        t = QQI_ZERO
        for i in range(self.rows):
            t = t + self._a[i][i]
        return t

    def fro(self):
        """Frobenius norm as a float (both modes)."""
        if self.mode == FLOAT:
            return float(np.linalg.norm(self._a))
        s = Fraction(0)
        for row in self._a:
            for x in row:
                s += x.abs2()
        return float(s) ** 0.5

    def is_zero(self, tol=DEFAULT_TOL):
        if self.mode == EXACT:
            return all(x.is_zero() for row in self._a for x in row)
        return self.fro() <= tol.rel

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
            return bool(np.array_equal(self._a, other._a))
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
        """Exact mode: row-reduction rank. Float mode: singular values above
        rank_threshold_factor * sigma_1."""
        if self.mode == EXACT:
            return _exact_rank(self)
        if self.rows == 0 or self.cols == 0:
            return 0
        sigma = singular_values(self)
        if not sigma or sigma[0] == 0.0:
            return 0
        cut = tol.rank_threshold_factor * sigma[0]
        return sum(1 for s in sigma if s > cut)

    def inverse(self):
        """Matrix inverse; raises SingularMatrix when not invertible."""
        self.require_square()
        if self.mode == EXACT:
            return _exact_inverse(self)
        if self.rows == 0:
            return self
        try:
            inv = np.linalg.inv(self._a)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(str(exc)) from exc
        if not np.all(np.isfinite(inv)):
            raise SingularMatrix("non-finite inverse")
        return Matrix.floating(inv)


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
        rows = tuple(tuple((int(x.re * d), int(x.im * d)) for x in row)
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


def _exact_rank(m: Matrix) -> int:
    """Rank by fraction-free (Bareiss) elimination over Gaussian integers;
    every interior division is exact, so the inner loops stay on ints."""
    if m.rows == 0 or m.cols == 0:
        return 0
    _, rows = _int_form(m)
    a = [list(r) for r in rows]
    nr, nc = m.rows, m.cols
    r = 0
    prev_r, prev_i, prev_n = 1, 0, 1
    for c in range(nc):
        pivot = None
        for i in range(r, nr):
            if a[i][c] != (0, 0):
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pr, pi = a[r][c]
        for i in range(r + 1, nr):
            xr, xi = a[i][c]
            row_i = a[i]
            row_r = a[r]
            new = [(0, 0)] * nc
            for j in range(c + 1, nc):
                yr, yi = row_i[j]
                zr, zi = row_r[j]
                tr = pr * yr - pi * yi - (xr * zr - xi * zi)
                ti = pr * yi + pi * yr - (xr * zi + xi * zr)
                if prev_n != 1:
                    tr, ti = ((tr * prev_r + ti * prev_i) // prev_n,
                              (ti * prev_r - tr * prev_i) // prev_n)
                new[j] = (tr, ti)
            a[i] = new
        prev_r, prev_i = pr, pi
        prev_n = pr * pr + pi * pi
        r += 1
        if r == nr:
            break
    return r


def _exact_rref(m: Matrix):
    """Reduced row echelon form of an exact matrix.

    Returns (rows, pivots) where rows is a mutable list-of-lists of QQi.
    """
    a = [list(row) for row in m._a]
    nr, nc = m.rows, m.cols
    pivots = []
    pr = 0
    for pc in range(nc):
        pivot_row = None
        for i in range(pr, nr):
            if not a[i][pc].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[pr], a[pivot_row] = a[pivot_row], a[pr]
        piv = a[pr][pc]
        a[pr] = [x / piv for x in a[pr]]
        for i in range(nr):
            if i != pr and not a[i][pc].is_zero():
                f = a[i][pc]
                a[i] = [x - f * y for x, y in zip(a[i], a[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    return a, pivots


def exact_rref(m: Matrix):
    """RREF as (Matrix, pivot column list); exact mode only."""
    if m.mode != EXACT:
        raise ModeMismatch("rref is exact-mode only")
    a, pivots = _exact_rref(m)
    return Matrix(m.rows, m.cols, EXACT, tuple(tuple(r) for r in a)), pivots


def _exact_inverse(m: Matrix) -> Matrix:
    n = m.rows
    aug = Matrix.from_blocks([[m, Matrix.identity(n, EXACT)]])
    red, pivots = _exact_rref(aug)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        raise SingularMatrix("exact matrix is singular")
    data = tuple(tuple(red[i][n:]) for i in range(n))
    return Matrix(n, n, EXACT, data)


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
    return (x - y).fro() <= tol.rel * max(1.0, x.fro(), y.fro())


def is_projector(m: Matrix, tol=DEFAULT_TOL) -> bool:
    """True iff m^2 = m (exactly, or within rel * max(1, ||m||_F^2))."""
    m.require_square()
    d = m @ m - m
    if m.mode == EXACT:
        return d.is_zero()
    return d.fro() <= tol.rel * max(1.0, m.fro() ** 2)


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
    if m.mode != FLOAT:
        raise NotSupported("svd is float-mode only; exact pipelines use Jordan data")
    nr, nc = m.rows, m.cols
    if nr == 0 or nc == 0:
        return Matrix.identity(nr, FLOAT), [], Matrix.identity(nc, FLOAT)
    if not np.isfinite(m._a).all():
        raise MalformedInput("svd of a matrix with non-finite entries")
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
    return Matrix.floating(u), [float(x) for x in s], Matrix.floating(v)


def singular_values(m: Matrix):
    _, sigma, _ = svd(m)
    return sigma


# ----------------------------------------------------------------------
# JSON wire format


def matrix_to_obj(m: Matrix):
    if m.mode == FLOAT:
        entries = [[float(np.real(x)), float(np.imag(x))] for row in m._a for x in row]
    else:
        entries = [[frac_str(x.re), frac_str(x.im)] for row in m._a for x in row]
    return {"mode": m.mode, "rows": m.rows, "cols": m.cols, "entries": entries}


def matrix_from_obj(obj) -> Matrix:
    try:
        mode = obj["mode"]
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad matrix object: {exc}") from exc
    if mode not in (EXACT, FLOAT):
        raise MalformedInput(f"unknown mode {mode!r}")
    if len(entries) != rows * cols:
        raise MalformedInput("entries length does not match rows*cols")
    if mode == FLOAT:
        try:
            flat = [complex(float(re), float(im)) for re, im in entries]
        except (TypeError, ValueError) as exc:
            raise MalformedInput(f"bad float entry: {exc}") from exc
        if not all(cmath.isfinite(x) for x in flat):
            raise MalformedInput("non-finite float entry")
        if rows == 0 or cols == 0:
            return Matrix.zeros(rows, cols, FLOAT)
        return Matrix.floating(np.array(flat, dtype=complex).reshape(rows, cols))
    flat = [QQi(re, im) for re, im in entries]
    data = tuple(tuple(flat[i * cols + j] for j in range(cols)) for i in range(rows))
    return Matrix(rows, cols, EXACT, data)


def matrix_dumps(m: Matrix) -> str:
    return json.dumps(matrix_to_obj(m), sort_keys=True)


def matrix_loads(s: str) -> Matrix:
    try:
        obj = json.loads(s)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"bad JSON: {exc}") from exc
    return matrix_from_obj(obj)
