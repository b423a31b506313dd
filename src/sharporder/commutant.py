"""The algebra of matrices commuting with a Jordan matrix J, and the poset
of projectors inside it, used to describe down-sets under the sharp order.

A matrix commutes with J iff it is block diagonal across eigenvalues, each
diagonal block a grid of upper-triangular Toeplitz cores padded per the
Cullen shape rules (Gantmacher, The Theory of Matrices, ch. VIII).  A grid
holds only its cores' coefficients: the cell shapes depend on the block
sizes alone, so a spec's layout is made once, by _layout, and kept on it.
Exact mode fills and checks grids on integer rows, float mode with numpy
index arrays made on the spec's first float use."""

import random
from contextlib import suppress
from itertools import count, islice
from math import lcm

from .core import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    Matrix,
    _int_product,
    _int_rep_eq,
    _over,
    _scalar_over,
    _solve,
    approx_eq,
    in_tau,
    is_projector,
    scalar_from_obj,
    scalar_to_obj,
)
from .errors import (InvalidSpec, MalformedInput, ModeMismatch, NotInDelta, ShapeMismatch,
                     SingularMatrix)
from .jordan import JordanSpec, build_jordan_matrix, spec_from_obj, spec_to_obj
from .scalars import QQi


def _cell_entries(cells):
    """The (i, j, value) entries of Toeplitz cores: each cell (i0, j0, coeffs)
    puts coeffs[d] on the d-th superdiagonal of a len(coeffs)-square core
    whose top-left entry is (i0, j0)."""
    return ((i0 + x, j0 + x + d, c) for i0, j0, coeffs in cells
            for d, c in enumerate(coeffs) for x in range(len(coeffs) - d))


def _int_rows(r, cells):
    """The r x r integer rows that hold the Toeplitz cores of cells, whose
    coefficients are (re, im) int pairs, and zeros elsewhere."""
    rows = [[(0, 0)] * r for _ in range(r)]
    for i, j, c in _cell_entries(cells):
        rows[i][j] = c
    return tuple(map(tuple, rows))


def _layout(spec: JordanSpec):
    """Per eigenvalue, the t x t grid of (rows, cols, i0, j0) of its Cullen
    cells: the cell shape and the top-left entry of its Toeplitz core X in the
    r x r matrix, at the top of a tall cell ([X; O]) and the right of a wide
    one ([O X]).  Kept on the spec, as a float spec's P is unhashable."""
    out = vars(spec).get("_cullen")
    if out is None:
        out, off = [], 0
        for e in spec.eigenvalues:
            starts = [off + sum(e.sizes[:i]) for i in range(e.t)]
            out.append([[(e.sizes[i], e.sizes[k], starts[i],
                          starts[k] + e.sizes[k] - min(e.sizes[i], e.sizes[k]))
                         for k in range(e.t)] for i in range(e.t)])
            off += e.dim
        object.__setattr__(spec, "_cullen", out)
    return out


def _fits(spec: JordanSpec, blocks):
    """Whether blocks has the spec's grids, each cell with as many
    coefficients as its core's size."""
    return [[list(map(len, row)) for row in grid] for grid in blocks] == [
        [[min(nr, nc) for nr, nc, _, _ in row] for row in grid] for grid in _layout(spec)]


def _places(spec: JordanSpec):
    """The (rows, cols, i0, j0) of every Cullen cell, in layout order."""
    return [place for grid in _layout(spec) for row in grid for place in row]


def _scattered(spec: JordanSpec, values, first=False):
    """The float matrix of the Toeplitz cores whose coefficients are values, in
    layout order, or with first, the first rows of the cells of values, a
    flattened r x r matrix.  One scatter over index arrays kept on the spec."""
    import numpy as np

    ix = vars(spec).get("_cullen_index")
    if ix is None:
        r, k = spec.r, count()
        cells = [(i0, j0, [(next(k), i0 * r + j0 + d) for d in range(min(nr, nc))])
                 for nr, nc, i0, j0 in _places(spec)]
        ix = tuple(map(np.array, zip(*((c, x, i * r + j)
                                       for i, j, (c, x) in _cell_entries(cells)))))
        object.__setattr__(spec, "_cullen_index", ix)
    a = np.zeros(spec.r ** 2, dtype=complex)
    a[ix[2]] = np.asarray(values)[ix[1 if first else 0]]
    return Matrix._wrap(a.reshape(spec.r, spec.r))


class CommutantProjector:
    """A projector commuting with J, stored per eigenvalue as a t_j x t_j
    grid of its cells' core coefficients (see blocks).  One made by
    from_matrix keeps the matrix it checked and reads `blocks` when first
    asked; one made from blocks expands them on first use, and raises
    ShapeMismatch there if they do not fit the spec.  eq, hash and repr see
    (spec, blocks)."""

    __slots__ = ("spec", "_blocks", "_matrix")

    def __init__(self, spec: JordanSpec, blocks, _matrix=None):
        for name, value in (("spec", spec), ("_blocks", blocks), ("_matrix", _matrix)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("CommutantProjector is immutable")

    @property
    def blocks(self):
        """Per eigenvalue, a t x t tuple of tuples of coefficient tuples:
        cell (i, k), sizes[i] x sizes[k], lists the min(sizes[i], sizes[k])
        coefficients of its Toeplitz core, the core's first row.  The core
        is on top of a tall cell and on the right of a wide one."""
        if self._blocks is None:
            object.__setattr__(self, "_blocks", self.read(self.spec, self._matrix)._blocks)
        return self._blocks

    def __eq__(self, other):
        return ((self.spec, self.blocks) == (other.spec, other.blocks)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.spec, self.blocks))

    def __repr__(self):
        return f"CommutantProjector(spec={self.spec!r}, blocks={self.blocks!r})"

    def expand(self) -> Matrix:
        if self._matrix is None:
            spec = self.spec
            if not _fits(spec, self.blocks):
                raise ShapeMismatch("grid shape does not match the spec's block sizes")
            cells = zip((c for grid in self.blocks for row in grid for c in row), _places(spec))
            entries = _cell_entries((i0, j0, c) for c, (_, _, i0, j0) in cells)
            object.__setattr__(self, "_matrix",
                               Matrix.from_entries(spec.r, spec.r, entries, spec.mode))
        return self._matrix

    @classmethod
    def from_matrix(cls, spec: JordanSpec, t: Matrix, tol=DEFAULT_TOL):
        """Keep t if it is an idempotent in the commutant of J, else raise
        NotInDelta; its Cullen grid is read only when asked for.

        t must equal the grid its cores' first rows span (Toeplitz cores,
        zero padding on the right side, nothing coupling distinct
        eigenvalues).  Exact mode spans it on t's integer rows and compares
        int tuples; float mode spans it with _scattered, the bits of
        read(spec, t).expand(), compares that with t by approx_eq, and keeps it."""
        if not t.is_square or t.rows != spec.r:
            raise ShapeMismatch(f"expected a {spec.r}x{spec.r} matrix")
        if t.mode != spec.mode:
            raise ModeMismatch(f"{t.mode} matrix for a {spec.mode} spec")
        if not is_projector(t, tol):
            raise NotInDelta("matrix is not idempotent")
        if t.mode == EXACT:
            rows = t._intform[1]
            ok = rows == _int_rows(spec.r, [(i0, j0, rows[i0][j0:j0 + min(nr, nc)])
                                            for nr, nc, i0, j0 in _places(spec)])
        else:
            t, noisy = _scattered(spec, t.array.ravel(), first=True), t
            ok = approx_eq(t, noisy, tol)
        if not ok:
            raise NotInDelta("matrix is not in the commutant (Cullen shape per eigenvalue)")
        return cls(spec, None, t)

    @classmethod
    def read(cls, spec: JordanSpec, t: Matrix):
        """The Cullen grid of an r x r matrix t, unchecked: each cell's core
        coefficients sliced from the cell's first row, in a projector that
        holds only the grid.  Of an exact t, only those coefficients are
        made into QQi."""
        if t.mode == EXACT:
            d, rows = t._intform
            scalar = _scalar_over(d)
        else:
            rows, scalar = t.array, complex

        def cell(nr, nc, i0, j0):
            return tuple(map(scalar, rows[i0][j0:j0 + min(nr, nc)]))

        return cls(spec, tuple(tuple(tuple(cell(*place) for place in place_row)
                                     for place_row in places) for places in _layout(spec)))


def admissible_ranks(q: int, p: int):
    """Possible projector ranks for one eigenvalue with two Jordan blocks of
    sizes q >= p >= 1."""
    if not (q >= p >= 1):
        raise InvalidSpec("need q >= p >= 1")
    if q > p:
        return {0, p, q, q + p}
    return {0, q, 2 * q}


def delta_membership(t: Matrix, spec: JordanSpec, tol=DEFAULT_TOL) -> bool:
    """True iff t is idempotent and commutes with the Jordan matrix of spec."""
    if not t.is_square or t.rows != spec.r:
        raise ShapeMismatch(f"expected a {spec.r}x{spec.r} matrix")
    j = build_jordan_matrix(spec)
    if t.mode == EXACT and j.mode == FLOAT:
        raise MalformedInput("cannot compare an exact projector against a float spec")
    return in_tau(t, j.to_float() if t.mode == FLOAT else j, tol)


# ----------------------------------------------------------------------
# sampling


def _draws(rng: random.Random, count):
    """count values of rng.randint(-2, 2), leaving rng in the same state.
    CPython's randint(-2, 2) is 2 less than its _randbelow(5): getrandbits(3),
    drawn again while it is 5 or more.  That loop, copied, skips randint's
    argument checks, which cost more than the draw."""
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        x = bits(3)
        while x > 4:
            x = bits(3)
        out.append(x - 2)
    return out


def random_commutant_element(spec: JordanSpec, rng: random.Random) -> Matrix:
    """A random element of the commutant algebra of J, with Gaussian-integer
    core coefficients drawn from [-2, 2] (_draws) in layout order, real part
    first.  Exact mode writes them as integer rows; float mode scatters them,
    with the bits of the exact element's to_float()."""
    places = _places(spec)
    sizes = [min(nr, nc) for nr, nc, _, _ in places]
    parts = _draws(rng, 2 * sum(sizes))
    if spec.mode == FLOAT:
        import numpy as np

        # (re, im) float pairs read as complex128: complex(re, im), bit for bit
        return _scattered(spec, np.array(parts, dtype=float).view(complex))
    pairs = zip(parts[::2], parts[1::2])
    return _over(spec.r, spec.r, _int_rows(spec.r, [
        (i0, j0, list(islice(pairs, k))) for (_, _, i0, j0), k in zip(places, sizes)]), (1, 0))


def _block_diagonal(spec: JordanSpec, bits):
    """The 0/1 diagonal of the block-choice projector: each block's bit,
    repeated over the block's rows."""
    sizes = spec.block_sizes
    if len(bits) != len(sizes):
        raise ShapeMismatch("one bit per Jordan block required")
    return [1 if b else 0 for b, s in zip(bits, sizes) for _ in range(s)]


def block_choice_projector(spec: JordanSpec, bits) -> Matrix:
    """The diagonal idempotent with one 0/1 choice per Jordan block."""
    return Matrix.diag(_block_diagonal(spec, bits), spec.mode)


def center_choices(spec: JordanSpec):
    """The block choices of the 2^s central projectors, one bit per Jordan
    block: bit j of the mask keeps or drops every block of eigenvalue j."""
    for mask in range(2 ** spec.s):
        yield [(mask >> j) & 1 for j, e in enumerate(spec.eigenvalues) for _ in e.sizes]


def _idempotent_on_heads(spec: JordanSpec, t: Matrix) -> bool:
    """T^2 = T for an exact T in the commutant of J, decided on its rows I
    (the first row of each Jordan block): T[I, :] T = T[I, :].  T^2 is in
    the commutant too, and the rows I fix a commutant element."""
    d, rows = t._intform
    top = tuple(rows[row[0][2]] for grid in _layout(spec) for row in grid)
    heads = Matrix(len(top), spec.r, EXACT, (d, top))
    return _int_rep_eq(heads._intform, _int_product(heads, t))


def _delta_rows(spec: JordanSpec, s: Matrix, keep) -> Matrix:
    """T = (S E) S^-1, written from its Cullen grid, for an exact commutant
    element S (its denominator does not change T) and the 0/1 diagonal keep
    of E.  Per eigenvalue block, the rows I of T, which hold the grid, solve
    T[I, :] S = (S E)[I, :] by one _solve of S^T: SingularMatrix if S is."""
    rows, cells, o = s._intform[1], [], 0
    for e, grid in zip(spec.eigenvalues, _layout(spec)):
        span = range(o, o + e.dim)
        x, n = _solve(tuple(tuple(rows[i][j] for i in span) for j in span), e.dim,
                      tuple(tuple(rows[row[0][2]][j] if keep[j] else (0, 0) for row in grid)
                            for j in span), e.t)
        cells += [(n, i0, j0, [x[j - o][q] for j in range(j0, j0 + min(nr, nc))])
                  for q, row in enumerate(grid) for nr, nc, i0, j0 in row]
        o += e.dim
    d = lcm(*(n for n, _, _, _ in cells))
    return _over(spec.r, spec.r, _int_rows(spec.r, [
        (i0, j0, [(xr * (d // n), xi * (d // n)) for xr, xi in c]) for n, i0, j0, c in cells]),
        (d, 0))


def sample_delta_projector(spec: JordanSpec, seed: int,
                           block_choices=None, tol=DEFAULT_TOL) -> CommutantProjector:
    """A random projector commuting with J: conjugate a 0/1 block-diagonal
    idempotent E by a random invertible commutant element S.  Deterministic
    for a fixed seed; may not reach every projector (the sets are infinite).

    Exact mode solves for the rows of T = (S E) S^-1 that hold its Cullen
    grid (_delta_rows) and writes T from the grid, so T and T^2 are in the
    commutant: T^2 = T is checked on those rows alone.  Float mode forms T
    by products and checks it with from_matrix: BLAS gives some zeros of
    S E a sign that a column mask would not, and those signs reach T.  A
    singular S, found by a block's elimination or by the float rank cut
    (np.linalg.inv can succeed where the cut fails), is drawn again whole."""
    rng = random.Random(seed)
    keep = _block_diagonal(spec, [rng.randint(0, 1) for _ in spec.block_sizes]
                           if block_choices is None else list(block_choices))
    ident = Matrix.identity(spec.r, spec.mode)
    while True:
        s = ident + random_commutant_element(spec, rng)
        if s.mode == EXACT:
            with suppress(SingularMatrix):
                t = _delta_rows(spec, s, keep)
                break
        elif s.rank(tol) == spec.r:
            return CommutantProjector.from_matrix(
                spec, s @ Matrix.diag(keep, FLOAT) @ s.inverse(), tol)
    if not _idempotent_on_heads(spec, t):
        raise NotInDelta("matrix is not idempotent")
    return CommutantProjector(spec, None, t)


# ----------------------------------------------------------------------
# JSON


def projector_to_obj(cp: CommutantProjector):
    return {
        "spec": spec_to_obj(cp.spec),
        "blocks": [
            [[[scalar_to_obj(c) for c in cell] for cell in row]
             for row in grid]
            for grid in cp.blocks
        ],
    }


def projector_from_obj(obj) -> CommutantProjector:
    """The projector of projector JSON: MalformedInput for a grid that does
    not fit the spec or its mode, NotInDelta for one whose matrix is not
    idempotent (exact mode: _idempotent_on_heads; float mode: is_projector
    at DEFAULT_TOL).  The matrix is expanded here and kept."""
    try:
        spec = spec_from_obj(obj["spec"])
        blocks = tuple(tuple(tuple(tuple(map(scalar_from_obj, cell)) for cell in row)
                             for row in grid) for grid in obj["blocks"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise MalformedInput(f"bad CommutantProjector object: {exc}") from exc
    exact = spec.mode == EXACT
    if not _fits(spec, blocks) or any(isinstance(c, QQi) != exact for grid in blocks
                                      for row in grid for cell in row for c in cell):
        raise MalformedInput(f"the grid does not fit the spec's block sizes and {spec.mode} mode")
    cp = CommutantProjector(spec, blocks)
    t = cp.expand()
    if not (_idempotent_on_heads(spec, t) if exact else is_projector(t)):
        raise NotInDelta("the grid's matrix is not idempotent")
    return cp
