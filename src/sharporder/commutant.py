"""The algebra of matrices commuting with a Jordan matrix J, and the poset
of projectors inside it.

A matrix commutes with J iff it is block diagonal across eigenvalues, each
diagonal block being a grid of upper-triangular-Toeplitz (RUTM) pieces padded
per the Cullen shape rules.  Projectors in that algebra form the poset used
to describe down-sets under the sharp order.
"""

import random
from contextlib import suppress
from dataclasses import dataclass, field
from math import lcm

from .core import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    Matrix,
    _over,
    _scalar_over,
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
    """The (i, j, value) entries of RUTM cores: each cell (i0, j0, coeffs)
    puts coeffs[d] on the d-th superdiagonal of a len(coeffs)-square core
    whose top-left entry is (i0, j0)."""
    return ((i0 + x, j0 + x + d, c) for i0, j0, coeffs in cells
            for d, c in enumerate(coeffs) for x in range(len(coeffs) - d))


def _int_rows(r, cells):
    """The r x r integer rows that hold the RUTM cores of cells, whose
    coefficients are (re, im) int pairs, and zeros elsewhere."""
    rows = [[(0, 0)] * r for _ in range(r)]
    for i, j, c in _cell_entries(cells):
        rows[i][j] = c
    return tuple(map(tuple, rows))


def _layout(spec: JordanSpec):
    """Per eigenvalue, the t x t grid of (rows, cols, i0, j0) of its Cullen
    cells: the cell shape and the top-left entry of its RUTM core X in the
    r x r matrix.  X sits at the top of a tall cell ([X; O]) and at the right
    of a wide one ([O X])."""
    out = []
    off = 0
    for e in spec.eigenvalues:
        starts = [off + sum(e.sizes[:i]) for i in range(e.t)]
        out.append([[(e.sizes[i], e.sizes[k], starts[i],
                      starts[k] + e.sizes[k] - min(e.sizes[i], e.sizes[k]))
                     for k in range(e.t)] for i in range(e.t)])
        off += e.dim
    return out


@dataclass(frozen=True)
class RUTM:
    """Regular upper triangular (Toeplitz) matrix a1 I + a2 N + ... + am N^(m-1)."""

    size: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.size or self.size < 0:
            raise InvalidSpec("RUTM needs exactly `size` coefficients")

    @property
    def mode(self):
        return EXACT if all(isinstance(c, QQi) for c in self.coeffs) else FLOAT

    def expand(self) -> Matrix:
        m = self.size
        return Matrix.from_entries(m, m, _cell_entries([(0, 0, self.coeffs)]), self.mode)

    @staticmethod
    def zero(size, mode=EXACT):
        c = QQi(0) if mode == EXACT else 0.0
        return RUTM(size, tuple(c for _ in range(size)))

    @staticmethod
    def identity(size, mode=EXACT):
        one = QQi(1) if mode == EXACT else 1.0
        zero = QQi(0) if mode == EXACT else 0.0
        return RUTM(size, tuple(one if i == 0 else zero for i in range(size)))


def rutm_idempotents(size: int):
    """All idempotent RUTMs of a given size: exactly the zero and identity."""
    if size < 1:
        raise InvalidSpec("size must be >= 1")
    return {RUTM.zero(size), RUTM.identity(size)}


@dataclass(frozen=True)
class CullenBlock:
    """One (i, k) cell of a commutant grid: an RUTM padded to rows x cols.

    Expands to [X; O] when rows > cols, [O X] when rows < cols, X when equal.
    """

    rows: int
    cols: int
    core: RUTM

    def __post_init__(self):
        if self.core.size != min(self.rows, self.cols):
            raise InvalidSpec("core RUTM size must be min(rows, cols)")

    def expand(self, mode) -> Matrix:
        cells = [(0, self.cols - self.core.size, self.core.coeffs)]
        return Matrix.from_entries(self.rows, self.cols, _cell_entries(cells), mode)


@dataclass(frozen=True)
class CommutantProjector:
    """A projector commuting with J, stored per eigenvalue as a t_j x t_j
    grid of Cullen blocks."""

    spec: JordanSpec
    blocks: tuple  # per eigenvalue: tuple of tuples of CullenBlock
    # the grid's expansion that from_matrix validated; not compared, hashed or shown
    _matrix: Matrix = field(default=None, compare=False, repr=False)

    def expand(self) -> Matrix:
        if self._matrix is not None:
            return self._matrix
        if len(self.blocks) != self.spec.s:
            raise ShapeMismatch("one grid per eigenvalue required")
        cells = []
        for e, grid, places in zip(self.spec.eigenvalues, self.blocks, _layout(self.spec)):
            if len(grid) != e.t or any(len(row) != e.t for row in grid):
                raise ShapeMismatch("grid shape does not match multiplicities")
            for row, place_row in zip(grid, places):
                for cell, (rows, cols, i0, j0) in zip(row, place_row):
                    if (cell.rows, cell.cols) != (rows, cols):
                        raise ShapeMismatch("cell shape does not match block sizes")
                    cells.append((i0, j0, cell.core.coeffs))
        r = self.spec.r
        return Matrix.from_entries(r, r, _cell_entries(cells), self.spec.mode)

    def rank(self, tol=DEFAULT_TOL) -> int:
        return self.expand().rank(tol)

    @classmethod
    def from_matrix(cls, spec: JordanSpec, t: Matrix, tol=DEFAULT_TOL):
        """Validate that t is an idempotent in the commutant of J and capture
        its Cullen grid.  Raises NotInDelta otherwise.

        t must equal the grid its cores' first rows span (Toeplitz cores,
        zero padding on the right side, nothing coupling distinct
        eigenvalues).  Exact mode spans it on t's integer rows, over t's
        denominator, and compares int tuples; float mode compares the grid's
        expansion with t by approx_eq, and keeps that cleaned expansion."""
        if not t.is_square or t.rows != spec.r:
            raise ShapeMismatch(f"expected a {spec.r}x{spec.r} matrix")
        if t.mode != spec.mode:
            raise ModeMismatch(f"{t.mode} matrix for a {spec.mode} spec")
        if not is_projector(t, tol):
            raise NotInDelta("matrix is not idempotent")
        cp = cls.read(spec, t)
        if t.mode == EXACT:
            rows = t._intform[1]
            m, ok = t, rows == _int_rows(spec.r, [
                (i0, j0, rows[i0][j0:j0 + min(nr, nc)])
                for grid in _layout(spec) for row in grid for nr, nc, i0, j0 in row])
        else:
            m = cp.expand()
            ok = approx_eq(m, t, tol)
        if not ok:
            raise NotInDelta("matrix is not in the commutant (Cullen shape per eigenvalue)")
        return cls(spec, cp.blocks, m)

    @classmethod
    def read(cls, spec: JordanSpec, t: Matrix):
        """The Cullen grid of an r x r matrix t, unchecked: each RUTM core
        read off the first row of its cell.  Of an exact t, only those
        coefficients are made into QQi."""
        if t.mode == EXACT:
            d, rows = t._intform
            scalar = _scalar_over(d)
        else:
            rows, scalar = t.array, complex

        def cell(nr, nc, i0, j0):
            m = min(nr, nc)
            return CullenBlock(nr, nc, RUTM(m, tuple(map(scalar, rows[i0][j0:j0 + m]))))

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


def random_commutant_element(spec: JordanSpec, rng: random.Random) -> Matrix:
    """A random element of the commutant algebra of J, with Gaussian-integer
    RUTM coefficients drawn from [-2, 2], written as integer rows."""

    def coeff():
        return rng.randint(-2, 2), rng.randint(-2, 2)

    cells = [(i0, j0, tuple(coeff() for _ in range(min(rows, cols))))
             for places in _layout(spec) for place_row in places
             for rows, cols, i0, j0 in place_row]
    m = _over(spec.r, spec.r, _int_rows(spec.r, cells), (1, 0))
    return m if spec.mode == EXACT else m.to_float()


def _block_inverse(spec: JordanSpec, s: Matrix) -> Matrix:
    """The inverse of an exact commutant element S, which is block diagonal
    across eigenvalues: each eigenvalue's block is inverted alone, and the
    inverses are written over the lcm of their denominators.  Raises
    SingularMatrix when any block is singular."""
    parts, o = [], 0
    for e in spec.eigenvalues:
        parts.append((o, s.block(o, o + e.dim, o, o + e.dim).inverse()._intform))
        o += e.dim
    d, r = lcm(*(dk for _, (dk, _) in parts)), spec.r
    return _over(r, r, tuple(
        ((0, 0),) * o + tuple((xr * (d // dk), xi * (d // dk)) for xr, xi in row)
        + ((0, 0),) * (r - o - len(row)) for o, (dk, rk) in parts for row in rk), (d, 0))


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


def sample_delta_projector(spec: JordanSpec, seed: int,
                           block_choices=None, tol=DEFAULT_TOL) -> CommutantProjector:
    """A random projector commuting with J: conjugate a 0/1 block-diagonal
    idempotent by a random invertible commutant element.  Deterministic for a
    fixed seed; may not reach every projector (the sets are infinite).

    The idempotent E is a 0/1 diagonal, so in exact mode S E is S with the
    dropped blocks' columns set to zero and T = (S E) S^-1 takes one
    product.  Float mode forms S E as a product: BLAS gives some of its
    zeros a sign that a column mask would not, and those signs reach T.
    Exact mode inverts S one eigenvalue's block at a time.  A singular S,
    found by any block's elimination or by the float rank cut
    (np.linalg.inv can succeed where the cut fails), is drawn again whole."""
    rng = random.Random(seed)
    sizes = spec.block_sizes
    if block_choices is None:
        bits = [rng.randint(0, 1) for _ in sizes]
    else:
        bits = list(block_choices)
    keep = _block_diagonal(spec, bits)
    ident = Matrix.identity(spec.r, spec.mode)
    s_inv = None
    while s_inv is None:
        s = ident + random_commutant_element(spec, rng)
        if s.mode == EXACT:
            with suppress(SingularMatrix):
                s_inv = _block_inverse(spec, s)
        elif s.rank(tol) == spec.r:
            s_inv = s.inverse()
    if s.mode == FLOAT:
        se = s @ Matrix.diag(keep, FLOAT)
    else:
        d, rows = s._intform
        se = _over(s.rows, s.cols,
                   tuple(tuple(x if k else (0, 0) for x, k in zip(row, keep)) for row in rows),
                   (d, 0))
    return CommutantProjector.from_matrix(spec, se @ s_inv, tol)


# ----------------------------------------------------------------------
# JSON


def projector_to_obj(cp: CommutantProjector):
    return {
        "spec": spec_to_obj(cp.spec),
        "blocks": [
            [[[scalar_to_obj(c) for c in cell.core.coeffs] for cell in row]
             for row in grid]
            for grid in cp.blocks
        ],
    }


def projector_from_obj(obj) -> CommutantProjector:
    try:
        spec = spec_from_obj(obj["spec"])
        exact = spec.mode == EXACT
        blocks = []
        for e, grid in zip(spec.eigenvalues, obj["blocks"]):
            rows = []
            for i, row in enumerate(grid):
                cells = []
                for k, coeffs in enumerate(row):
                    m = min(e.sizes[i], e.sizes[k])
                    core = tuple(scalar_from_obj(c) for c in coeffs)
                    if any(isinstance(c, QQi) != exact for c in core):
                        raise MalformedInput(f"coefficient mode differs from the {spec.mode} spec")
                    cells.append(CullenBlock(e.sizes[i], e.sizes[k], RUTM(m, core)))
                rows.append(tuple(cells))
            blocks.append(tuple(rows))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise MalformedInput(f"bad CommutantProjector object: {exc}") from exc
    return CommutantProjector(spec, tuple(blocks))
