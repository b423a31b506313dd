"""The algebra of matrices commuting with a Jordan matrix J, and the poset
of projectors inside it.

A matrix commutes with J iff it is block diagonal across eigenvalues, each
diagonal block being a grid of upper-triangular-Toeplitz (RUTM) pieces padded
per the Cullen shape rules.  Projectors in that algebra form the poset used
to describe down-sets under the sharp order.
"""

import random
from dataclasses import dataclass

from .core import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    Matrix,
    _int_form,
    _over,
    approx_eq,
    in_tau,
    is_projector,
    scalar_from_obj,
    scalar_to_obj,
)
from .errors import InvalidSpec, MalformedInput, ModeMismatch, NotInDelta, ShapeMismatch
from .jordan import JordanSpec, build_jordan_matrix, spec_from_obj, spec_to_obj
from .scalars import QQi


def _cell_entries(cells):
    """The (i, j, value) entries of RUTM cores: each cell (i0, j0, coeffs)
    puts coeffs[d] on the d-th superdiagonal of a len(coeffs)-square core
    whose top-left entry is (i0, j0)."""
    return ((i0 + x, j0 + x + d, c) for i0, j0, coeffs in cells
            for d, c in enumerate(coeffs) for x in range(len(coeffs) - d))


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

    def expand(self) -> Matrix:
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
        its Cullen grid.  Raises NotInDelta otherwise."""
        if not t.is_square or t.rows != spec.r:
            raise ShapeMismatch(f"expected a {spec.r}x{spec.r} matrix")
        if t.mode != spec.mode:
            raise ModeMismatch(f"{t.mode} matrix for a {spec.mode} spec")
        if not is_projector(t, tol):
            raise NotInDelta("matrix is not idempotent")
        # t must match the grid its cores span: Toeplitz cores, zero padding
        # on the right side, nothing coupling distinct eigenvalues
        cp = cls.read(spec, t)
        if not approx_eq(cp.expand(), t, tol):
            raise NotInDelta("matrix is not in the commutant (Cullen shape per eigenvalue)")
        return cp

    @classmethod
    def read(cls, spec: JordanSpec, t: Matrix):
        """The Cullen grid of an r x r matrix t, unchecked: each RUTM core
        read off the first row of its cell."""

        def cell(rows, cols, i0, j0):
            m = min(rows, cols)
            return CullenBlock(rows, cols, RUTM(m, tuple(t[i0, j0 + x] for x in range(m))))

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
    RUTM coefficients drawn from [-2, 2]."""
    mode = spec.mode

    def coeff():
        re = rng.randint(-2, 2)
        im = rng.randint(-2, 2)
        return QQi(re, im) if mode == EXACT else complex(re, im)

    cells = [(i0, j0, tuple(coeff() for _ in range(min(rows, cols))))
             for places in _layout(spec) for place_row in places
             for rows, cols, i0, j0 in place_row]
    return Matrix.from_entries(spec.r, spec.r, _cell_entries(cells), mode)


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
    zeros a sign that a column mask would not, and those signs reach T."""
    rng = random.Random(seed)
    sizes = spec.block_sizes
    if block_choices is None:
        bits = [rng.randint(0, 1) for _ in sizes]
    else:
        bits = list(block_choices)
    keep = _block_diagonal(spec, bits)
    ident = Matrix.identity(spec.r, spec.mode)
    while True:
        s = ident + random_commutant_element(spec, rng)
        if s.rank(tol) == spec.r:
            break
    if s.mode == FLOAT:
        se = s @ Matrix.diag(keep, FLOAT)
    else:
        d, rows = _int_form(s)
        se = _over(s.rows, s.cols,
                   tuple(tuple(x if k else (0, 0) for x, k in zip(row, keep)) for row in rows),
                   (d, 0))
    return CommutantProjector.from_matrix(spec, se @ s.inverse(), tol)


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
