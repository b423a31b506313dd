"""The algebra of matrices commuting with a Jordan matrix J, and the poset
of projectors inside it.

A matrix commutes with J iff it is block diagonal across eigenvalues, each
diagonal block being a grid of upper-triangular-Toeplitz (RUTM) pieces padded
per the Cullen shape rules.  Projectors in that algebra form the poset used
to describe down-sets under the sharp order.
"""

import random
from dataclasses import dataclass

from .core import DEFAULT_TOL, EXACT, FLOAT, Matrix, approx_eq, is_projector
from .errors import InvalidSpec, MalformedInput, NotInDelta, ShapeMismatch
from .jordan import JordanSpec, block_diag, build_jordan_matrix, spec_from_obj, spec_to_obj
from .scalars import QQi, frac_str


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
        mode = self.mode if m else EXACT
        if mode == FLOAT:
            rows = [[complex(self.coeffs[j - i]) if j >= i else 0.0
                     for j in range(m)] for i in range(m)]
            return Matrix.floating(rows) if m else Matrix.zeros(0, 0, FLOAT)
        rows = [[self.coeffs[j - i] if j >= i else QQi(0) for j in range(m)]
                for i in range(m)]
        return Matrix(m, m, EXACT, tuple(tuple(r) for r in rows))

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
        x = self.core.expand()
        if x.rows and x.mode != mode:
            x = x.to_float() if mode == FLOAT else x
        m = min(self.rows, self.cols)
        if self.rows == self.cols:
            return x if m else Matrix.zeros(0, 0, mode)
        if self.rows > self.cols:
            return Matrix.from_blocks([[x], [Matrix.zeros(self.rows - m, m, mode)]])
        return Matrix.from_blocks([[Matrix.zeros(m, self.cols - m, mode), x]])


def _extract_cullen(sub: Matrix, rows, cols, tol, mode):
    """Read the RUTM coefficients out of a candidate commutant cell and verify
    the cell actually has the Cullen shape."""
    m = min(rows, cols)
    if rows >= cols:
        x0, y0 = 0, 0
    else:
        x0, y0 = 0, cols - m
    coeffs = tuple(sub[x0, y0 + l] for l in range(m))
    block = CullenBlock(rows, cols, RUTM(m, coeffs if mode == EXACT else tuple(
        complex(c) for c in coeffs)))
    if not approx_eq(block.expand(mode), sub, tol):
        raise NotInDelta("block does not have the commutant (Cullen) shape")
    return block


@dataclass(frozen=True)
class CommutantProjector:
    """A projector commuting with J, stored per eigenvalue as a t_j x t_j
    grid of Cullen blocks."""

    spec: JordanSpec
    blocks: tuple  # per eigenvalue: tuple of tuples of CullenBlock

    def expand(self) -> Matrix:
        mode = self.spec.mode
        diag = []
        for e, grid in zip(self.spec.eigenvalues, self.blocks):
            if len(grid) != e.t or any(len(row) != e.t for row in grid):
                raise ShapeMismatch("grid shape does not match multiplicities")
            rows = []
            for i in range(e.t):
                cells = []
                for k in range(e.t):
                    cell = grid[i][k]
                    if (cell.rows, cell.cols) != (e.sizes[i], e.sizes[k]):
                        raise ShapeMismatch("cell shape does not match block sizes")
                    cells.append(cell.expand(mode))
                rows.append(cells)
            diag.append(Matrix.from_blocks(rows))
        return block_diag(diag, mode)

    def rank(self, tol=DEFAULT_TOL) -> int:
        return self.expand().rank(tol)

    @classmethod
    def from_matrix(cls, spec: JordanSpec, t: Matrix, tol=DEFAULT_TOL):
        """Validate that t is an idempotent in the commutant of J and capture
        its Cullen grid.  Raises NotInDelta otherwise."""
        if not t.is_square or t.rows != spec.r:
            raise ShapeMismatch(f"expected a {spec.r}x{spec.r} matrix")
        mode = t.mode
        if not is_projector(t, tol):
            raise NotInDelta("matrix is not idempotent")
        blocks = []
        off_j = 0
        for e in spec.eigenvalues:
            offs = [0]
            for s in e.sizes:
                offs.append(offs[-1] + s)
            grid = []
            for i in range(e.t):
                row = []
                for k in range(e.t):
                    sub = t.block(off_j + offs[i], off_j + offs[i + 1],
                                  off_j + offs[k], off_j + offs[k + 1])
                    row.append(_extract_cullen(sub, e.sizes[i], e.sizes[k], tol, mode))
                grid.append(row)
            blocks.append(tuple(tuple(r) for r in grid))
            off_j += e.dim
        # off-diagonal (cross-eigenvalue) parts must vanish
        full = block_diag([_grid_matrix(e, g, mode) for e, g in
                           zip(spec.eigenvalues, blocks)], mode)
        if not approx_eq(full, t, tol):
            raise NotInDelta("matrix couples distinct eigenvalues")
        return cls(spec, tuple(blocks))


def _grid_matrix(e, grid, mode):
    return Matrix.from_blocks([[grid[i][k].expand(mode) for k in range(e.t)]
                               for i in range(e.t)])


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
    if j.mode != t.mode:
        j = j.to_float() if t.mode == FLOAT else _exactify(j)
    return is_projector(t, tol) and approx_eq(t @ j, j @ t, tol)


def _exactify(m):
    raise MalformedInput("cannot compare an exact projector against a float spec")


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

    diag = []
    for e in spec.eigenvalues:
        rows = []
        for i in range(e.t):
            cells = []
            for k in range(e.t):
                m = min(e.sizes[i], e.sizes[k])
                cells.append(CullenBlock(e.sizes[i], e.sizes[k],
                                         RUTM(m, tuple(coeff() for _ in range(m)))).expand(mode))
            rows.append(cells)
        diag.append(Matrix.from_blocks(rows))
    return block_diag(diag, mode)


def block_choice_projector(spec: JordanSpec, bits) -> Matrix:
    """The diagonal idempotent with one 0/1 choice per Jordan block."""
    sizes = spec.block_sizes
    if len(bits) != len(sizes):
        raise ShapeMismatch("one bit per Jordan block required")
    mode = spec.mode
    blocks = [Matrix.identity(s, mode) if b else Matrix.zeros(s, s, mode)
              for b, s in zip(bits, sizes)]
    return block_diag(blocks, mode)


def sample_delta_projector(spec: JordanSpec, seed: int,
                           block_choices=None, tol=DEFAULT_TOL) -> CommutantProjector:
    """A random projector commuting with J: conjugate a 0/1 block-diagonal
    idempotent by a random invertible commutant element.  Deterministic for a
    fixed seed; may not reach every projector (the sets are infinite)."""
    rng = random.Random(seed)
    sizes = spec.block_sizes
    if block_choices is None:
        bits = [rng.randint(0, 1) for _ in sizes]
    else:
        bits = list(block_choices)
    e = block_choice_projector(spec, bits)
    ident = Matrix.identity(spec.r, spec.mode)
    while True:
        s = ident + random_commutant_element(spec, rng)
        if s.rank(tol) == spec.r:
            break
    t = s @ e @ s.inverse()
    return CommutantProjector.from_matrix(spec, t, tol)


# ----------------------------------------------------------------------
# JSON


def _coeff_to_obj(c):
    if isinstance(c, QQi):
        return [frac_str(c.re), frac_str(c.im)]
    return [float(c.real), float(c.imag)]


def _coeff_from_obj(obj):
    re, im = obj
    if isinstance(re, str) or isinstance(im, str):
        return QQi(re, im)
    return complex(float(re), float(im))


def projector_to_obj(cp: CommutantProjector):
    return {
        "spec": spec_to_obj(cp.spec),
        "blocks": [
            [[[_coeff_to_obj(c) for c in cell.core.coeffs] for cell in row]
             for row in grid]
            for grid in cp.blocks
        ],
    }


def projector_from_obj(obj) -> CommutantProjector:
    try:
        spec = spec_from_obj(obj["spec"])
        blocks = []
        for e, grid in zip(spec.eigenvalues, obj["blocks"]):
            rows = []
            for i, row in enumerate(grid):
                cells = []
                for k, coeffs in enumerate(row):
                    m = min(e.sizes[i], e.sizes[k])
                    cells.append(CullenBlock(
                        e.sizes[i], e.sizes[k],
                        RUTM(m, tuple(_coeff_from_obj(c) for c in coeffs))))
                rows.append(tuple(cells))
            blocks.append(tuple(rows))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise MalformedInput(f"bad CommutantProjector object: {exc}") from exc
    return CommutantProjector(spec, tuple(blocks))
