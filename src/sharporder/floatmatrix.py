"""The float backend: FloatMatrix, a complex128 matrix over a read-only numpy
array, and the tolerance rules its predicates decide by.

This module is imported on first float use, as numpy is: by core's float
constructors and its mode lookup, and by the float branch of a module that
serves both modes, so a process that only ever holds exact matrices neither
compiles it nor loads numpy.  Modules that are float-only (hs, equations)
import it at module level.

Every comparison is made at the tolerance of its call: approx_eq's rule
||x - y||_F <= rel * max(1, ||x||_F, ||y||_F) (_close), is_projector's rule
||T T - T||_F <= rel * max(1, ||T||_F^2) (_projector_flags), and in_tau's,
which is both (outside_tau).  The stacked forms decide a (k, r, r) stack in
batched products, slice for slice as the single-matrix rules would.
"""

import warnings
from math import inf, isfinite, sqrt

import numpy as np

from .core import DEFAULT_TOL, FLOAT, Matrix, _kept, _sigma, numerical_rank
from .errors import MalformedInput, ModeMismatch, SingularMatrix


class FloatMatrix(Matrix):
    """A complex128 matrix over a read-only numpy array, with the interface
    of ExactMatrix; comparisons and rank cuts are made at a tolerance."""

    mode = FLOAT
    # _a is the complex128 array; _sq stays unset until _square makes it,
    # _inv until inverse does, and _sv, _svd and _hs until _sigma, svd and
    # hs.hs_decompose do
    _rep = "_a"
    __slots__ = ("_a", "_sq", "_inv", "_sv", "_svd", "_hs")

    @staticmethod
    def _filled(rows, cols, entries):
        a = np.zeros((rows, cols), dtype=complex)
        for i, j, v in entries:
            a[i, j] = complex(v)
        return _wrap(a)

    def row(self, i):
        return [complex(x) for x in self._a[i]]

    def block(self, i0, i1, j0, j1):
        return _wrap(self._a[i0:i1, j0:j1])

    @property
    def array(self):
        """The underlying complex128 array, read-only."""
        return self._a

    def _sum(self, other, sign):
        return _wrap(self._a + other._a if sign > 0 else self._a - other._a)

    def __neg__(self):
        return _wrap(-self._a)

    def scale(self, s):
        return _wrap(complex(s) * self._a)

    def _matmul(self, other):
        return _wrap(self._a @ other._a)

    @property
    def H(self):
        return _wrap(self._a.conj().T)

    @property
    def T(self):
        return _wrap(self._a.T)

    def trace(self):
        self.require_square()
        return complex(self._a.trace())

    def fro(self):
        return _fro(self._a)

    def is_zero(self, tol=DEFAULT_TOL):
        norm = self.fro()
        if not isfinite(norm):
            _require_finite(self._a, "is_zero")
        return norm <= tol.rel

    def to_float(self):
        return self

    # kernels, on operands already checked

    def _same(self, other):
        return bool((self._a == other._a).all())

    def _near(self, other, tol):
        return _close(self._a, other._a, tol)

    def _key(self):
        raise ModeMismatch("key() is exact-mode only")

    def _rank(self, tol):
        return numerical_rank(_kept(self, "_sv", _sigma), tol)

    def _invert(self):
        if not self.rows:
            return self
        _require_finite(self._a, "inverse")
        try:
            inv = np.linalg.inv(self._a)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(str(exc)) from exc
        if not np.all(np.isfinite(inv)):
            raise SingularMatrix("non-finite inverse")
        return _wrap(inv)

    def _squared(self):
        return self @ self

    def _is_product(self, y, z, tol):
        """self = y z, by approx_eq's rule."""
        return _close(self._a, (y @ z)._a, tol)

    def _is_projector(self, tol):
        return _projector_flags(self._a[None], tol)[0]

    def _in_tau(self, sk, tol):
        return outside_tau(self._a[None], sk._a, tol) is None


def _wrap(a):
    """Float matrix around a complex128 2-d array that no one else can write
    to (a fresh result, or a view of a read-only one); no copy."""
    a.setflags(write=False)
    return FloatMatrix(a.shape[0], a.shape[1], a)


def slices(stack):
    """The float matrices of the slices of a (k, rows, cols) complex128 stack
    that no one else can write to: views of the stack, which is made
    read-only, not copied."""
    stack.setflags(write=False)
    return [FloatMatrix(stack.shape[1], stack.shape[2], a) for a in stack]


def _require_finite(a, what):
    """Reject a complex array holding NaN or an infinity."""
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


# the overflow _fro reads as inf is decided, and so is the square of a
# finite T that overflows in _projector_flags, so numpy's warnings of them
# are noise on stderr: ignored when they come from this module, whose only
# dot is _fro's (the matmul filter quiets this module's other float products
# too).  The filters go last, so a caller's own filter, "error" among them,
# still wins; filtering costs the finite path nothing, where an errstate
# block would double _fro's time
warnings.filterwarnings("ignore", "overflow encountered in dot", RuntimeWarning,
                        rf"{__name__}\Z", append=True)
warnings.filterwarnings("ignore", "(overflow|invalid value) encountered in matmul",
                        RuntimeWarning, rf"{__name__}\Z", append=True)


def _close(x, y, tol, nx=None, d=None):
    """approx_eq's float rule on two complex arrays: ||x - y||_F <= rel *
    max(1, ||x||_F, ||y||_F), decided on scaled copies when a norm
    overflows; MalformedInput if either holds NaN or an infinity.

    Its sufficient form ||x - y||_F <= rel * max(1, ||x||_F) accepts first,
    on nx = ||x||_F and d = ||x - y||_F (taken here unless the caller has
    them), so ||y||_F is taken only on a near miss.  A finite ||x||_F bounds
    every part of x below 2^512, so x - y cannot overflow, and a non-finite
    y makes d non-finite and takes the full rule."""
    if nx is None:
        nx = _fro(x)
    if isfinite(nx):
        if d is None:
            d = _fro(x - y)
        if d <= tol.rel * max(1.0, nx):
            return True
    ny = _fro(y)
    if not (isfinite(nx) and isfinite(ny)):
        _require_finite(x, "approx_eq")
        _require_finite(y, "approx_eq")
        # a norm overflowed: the same rule on copies scaled by the largest
        # part of an entry, ||x/s - y/s|| <= rel * max(1/s, ||x/s||, ||y/s||)
        s = max(float(abs(p).max()) for p in (x.real, x.imag, y.real, y.imag))
        x, y = x / s, y / s
        return _fro(x - y) <= tol.rel * max(1.0 / s, _fro(x), _fro(y))
    return d <= tol.rel * max(1.0, nx, ny)


def _fros(xs):
    """[_fro(x) for x in xs], bit for bit, for a (k, ., .) complex stack of
    C-contiguous slices: one batched dot product per part, which numpy's
    matmul runs as _fro's dot (a one-slice stack takes _fro itself, which
    is faster there).  An overflowed norm reads inf, as in _fro."""
    if len(xs) == 1:
        return [_fro(xs[0])]
    x = xs.reshape(len(xs), 1, xs.shape[1] * xs.shape[2])
    xr, xi = x.real, x.imag
    with np.errstate(over="ignore"):
        return np.sqrt(xr @ xr.transpose(0, 2, 1) + xi @ xi.transpose(0, 2, 1)).ravel().tolist()


def _projector_flags(ts, tol):
    """Whether each slice T of a (k, r, r) complex stack is a projector, by
    is_projector's float rule ||T T - T||_F <= rel * max(1, ||T||_F^2),
    accepted on ||T T - T||_F <= rel before ||T||_F is taken; the products
    T T in one batched product, their norms by one _fros.  Where a finite
    T T overflows, it holds an infinity or NaN, which _near_projector
    rejects, so numpy's warning of it is not raised where warnings are
    errors (and the module's filter ignores it elsewhere)."""
    try:
        tts = ts @ ts
    except RuntimeWarning:
        if not np.isfinite(ts).all():
            raise
        with np.errstate(over="ignore", invalid="ignore"):
            tts = ts @ ts
    return [d <= tol.rel or _near_projector(t, tt, d, tol)
            for t, tt, d in zip(ts, tts, _fros(tts - ts))]


def _near_projector(t, tt, d, tol):
    """The full rule for one slice T, with tt = T T and d = ||T T - T||_F.
    Where ||T||_F overflows, rel * ||T||_F^2 would pass every finite d, so a
    finite T is decided there by approx_eq's rule between T T and T (an
    infinite T T is not T)."""
    norm = _fro(t)
    if isfinite(norm) or not np.isfinite(t).all():
        return d <= tol.rel * max(1.0, norm ** 2)
    return bool(np.isfinite(tt).all()) and _close(tt, t, tol)


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
    xs, ys = head @ sk, sk @ head
    nx = _fros(xs)
    # x - y cannot overflow where every ||x|| is finite (see _close)
    ds = _fros(xs - ys) if all(map(isfinite, nx)) else [None] * len(nx)
    for i, (x, y, n, d) in enumerate(zip(xs, ys, nx, ds)):
        if not _close(x, y, tol, n, d):
            return i
    return None if first == len(ts) else first
