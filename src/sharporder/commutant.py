"""The algebra of matrices commuting with a Jordan matrix J, and the poset
of projectors inside it, used to describe down-sets under the sharp order.

A matrix commutes with J iff it is block diagonal across eigenvalues, each
diagonal block a grid of upper-triangular Toeplitz cores padded per the
Cullen shape rules (Gantmacher, The Theory of Matrices, ch. VIII).  A grid
holds only its cores' coefficients: the cell shapes depend on the block
sizes alone, so a spec's layout is made once, by _layout, and kept on it.
So is its chart (_chart), which maps the coefficients to the matrix
entries, in both modes: _spread writes every commutant element from its
coefficients, and _gather reads every grid off its cells' first rows."""

import random
from contextlib import suppress
from itertools import chain, islice
from math import lcm

from .core import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    ExactMatrix,
    Matrix,
    _Frozen,
    _cleared,
    _int_product,
    _int_rep_eq,
    _kept,
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


def _layout(spec: JordanSpec):
    """Per eigenvalue, the t x t grid of (rows, cols, i0, j0) of its Cullen
    cells: the cell shape and the top-left entry of its Toeplitz core X in the
    r x r matrix, at the top of a tall cell ([X; O]) and the right of a wide
    one ([O X]).  Kept on the spec, as a float spec's P is unhashable."""
    return _kept(spec, "_cullen", _cullen_layout)


def _cullen_layout(spec: JordanSpec):
    out, off = [], 0
    for e in spec.eigenvalues:
        starts = [off + sum(e.sizes[:i]) for i in range(e.t)]
        out.append([[(e.sizes[i], e.sizes[k], starts[i],
                      starts[k] + e.sizes[k] - min(e.sizes[i], e.sizes[k]))
                     for k in range(e.t)] for i in range(e.t)])
        off += e.dim
    return out


def _fits(spec: JordanSpec, blocks):
    """Whether blocks has the spec's grids, each cell with as many
    coefficients as its core's size."""
    return [[list(map(len, row)) for row in grid] for grid in blocks] == [
        [[min(nr, nc) for nr, nc, _, _ in row] for row in grid] for grid in _layout(spec)]


def _chart(spec: JordanSpec):
    """The Cullen chart (coef, dst, head), kept on the spec: with the core
    coefficients numbered in layout order, the entry at flat index dst[e]
    holds coefficient coef[e], and coefficient c is the entry at flat index
    head[c], in its cell's first row.  Lists for an exact spec, so exact
    code loads no numpy; numpy index arrays for a float one."""
    return _kept(spec, "_cullen_index", _cullen_chart)


def _cullen_chart(spec: JordanSpec):
    r, coef, dst, head = spec.r, [], [], []
    for nr, nc, i0, j0 in (place for grid in _layout(spec) for row in grid for place in row):
        k = min(nr, nc)
        # coefficient c of the cell fills the core's c-th superdiagonal
        for c in range(k):
            for x in range(k - c):
                coef.append(len(head) + c)
                dst.append((i0 + x) * r + j0 + x + c)
        head += range(i0 * r + j0, i0 * r + j0 + k)
    if spec.mode == EXACT:
        return coef, dst, head
    import numpy as np

    return tuple(map(np.array, (coef, dst, head)))


def _spread(spec: JordanSpec, values, d=1):
    """The commutant element whose core coefficients, in layout order, are
    values: (re, im) int pairs over the denominator d for an exact spec,
    complex numbers for a float one.  The one writer of a commutant element."""
    coef, dst, _ = _chart(spec)
    r = spec.r
    if spec.mode == EXACT:
        flat = [(0, 0)] * (r * r)
        for c, k in zip(coef, dst):
            flat[k] = values[c]
        return _over(r, r, tuple(tuple(flat[i:i + r]) for i in range(0, r * r, r)), (d, 0))
    import numpy as np

    from .floatmatrix import _wrap

    a = np.zeros(r * r, dtype=complex)
    a[dst] = np.asarray(values)[coef]
    return _wrap(a.reshape(r, r))


def _gather(spec: JordanSpec, t: Matrix):
    """(values, d): the core coefficients of the r x r matrix t in layout
    order, read off its cells' first rows, as (re, im) int pairs over t's
    denominator d, or a complex array and d = 1.  The one reader of a grid:
    _spread(spec, *_gather(spec, t)) is the element t's first rows span."""
    head = _chart(spec)[2]
    if t.mode == EXACT:
        flat = list(chain.from_iterable(t._intform[1]))
        return [flat[k] for k in head], t._intform[0]
    return t.array.ravel()[head], 1


class CommutantProjector(_Frozen):
    """A projector commuting with J, stored per eigenvalue as a t_j x t_j
    grid of its cells' core coefficients (see blocks).  One made by
    from_matrix keeps the matrix it checked and reads `blocks` when first
    asked; one made from blocks expands them on first use, and raises
    ShapeMismatch there if they do not fit the spec.  eq, hash and repr see
    (spec, blocks)."""

    __slots__ = ("spec", "_blocks", "_matrix")
    _fields = ("spec", "blocks")

    def __init__(self, spec: JordanSpec, blocks, _matrix=None):
        super().__init__(spec=spec, _blocks=blocks, _matrix=_matrix)

    @property
    def blocks(self):
        """Per eigenvalue, a t x t tuple of tuples of coefficient tuples:
        cell (i, k), sizes[i] x sizes[k], lists the min(sizes[i], sizes[k])
        coefficients of its Toeplitz core, the core's first row.  The core
        is on top of a tall cell and on the right of a wide one."""
        return _kept(self, "_blocks", _read_blocks)

    def expand(self) -> Matrix:
        return _kept(self, "_matrix", _expand)

    @classmethod
    def from_matrix(cls, spec: JordanSpec, t: Matrix, tol=DEFAULT_TOL):
        """Keep t if it is an idempotent in the commutant of J, else raise
        NotInDelta; its Cullen grid is read only when asked for.

        t must equal the element its cores' first rows span (Toeplitz cores,
        zero padding on the right side, nothing coupling distinct
        eigenvalues): _spread(spec, *_gather(spec, t)), the bits of
        read(spec, t).expand(), compared with t by approx_eq.  Exact mode
        keeps t itself, float mode the span, which drops t's noise."""
        if not t.is_square or t.rows != spec.r:
            raise ShapeMismatch(f"expected a {spec.r}x{spec.r} matrix")
        if t.mode != spec.mode:
            raise ModeMismatch(f"{t.mode} matrix for a {spec.mode} spec")
        if not is_projector(t, tol):
            raise NotInDelta("matrix is not idempotent")
        span = _spread(spec, *_gather(spec, t))
        if not approx_eq(span, t, tol):
            raise NotInDelta("matrix is not in the commutant (Cullen shape per eigenvalue)")
        return cls(spec, None, t if t.mode == EXACT else span)

    @classmethod
    def read(cls, spec: JordanSpec, t: Matrix):
        """The Cullen grid of an r x r matrix t, unchecked: the core
        coefficients that _gather reads off each cell's first row, in a
        projector that holds only the grid.  Of an exact t, only those
        coefficients are made into QQi."""
        values, d = _gather(spec, t)
        it = iter(map(_scalar_over(d), values) if t.mode == EXACT else values.tolist())
        return cls(spec, tuple(tuple(tuple(tuple(islice(it, min(nr, nc))) for nr, nc, _, _ in row)
                                     for row in grid) for grid in _layout(spec)))


def _read_blocks(cp: CommutantProjector):
    return cp.read(cp.spec, cp._matrix)._blocks


def _expand(cp: CommutantProjector) -> Matrix:
    spec = cp.spec
    if not _fits(spec, cp.blocks):
        raise ShapeMismatch("grid shape does not match the spec's block sizes")
    values = [c for grid in cp.blocks for row in grid for cell in row for c in cell]
    d = 1
    if spec.mode == EXACT:
        d, values = _cleared(values)
    return _spread(spec, values, d)


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
    first, and written by _spread: in float mode with the bits of the exact
    element's to_float()."""
    parts = _draws(rng, 2 * len(_chart(spec)[2]))
    if spec.mode == FLOAT:
        import numpy as np

        # (re, im) float pairs read as complex128: complex(re, im), bit for bit
        return _spread(spec, np.array(parts, dtype=float).view(complex))
    return _spread(spec, list(zip(parts[::2], parts[1::2])))


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


def block_choice_stack(spec: JordanSpec, choices):
    """The block-choice projectors of choices (each a list of bits, one per
    Jordan block) as one (k, r, r) complex stack."""
    import numpy as np

    r = spec.r
    keep = [_block_diagonal(spec, bits) for bits in choices]
    e = np.zeros((len(keep), r, r), dtype=complex)
    e.reshape(len(keep), r * r)[:, ::r + 1] = keep
    return e


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
    heads = ExactMatrix(len(top), spec.r, (d, top))
    return _int_rep_eq(heads._intform, _int_product(heads, t))


def _delta_rows(spec: JordanSpec, s: Matrix, keep) -> Matrix:
    """T = (S E) S^-1, written from its Cullen grid, for an exact commutant
    element S (its denominator does not change T) and the 0/1 diagonal keep
    of E.  Per eigenvalue block, the rows I of T, which hold the grid, solve
    T[I, :] S = (S E)[I, :] by one _solve of S^T: SingularMatrix if S is."""
    rows, coeffs, o = s._intform[1], [], 0
    for e, grid in zip(spec.eigenvalues, _layout(spec)):
        span = range(o, o + e.dim)
        x, n = _solve(tuple(tuple(rows[i][j] for i in span) for j in span), e.dim,
                      tuple(tuple(rows[row[0][2]][j] if keep[j] else (0, 0) for row in grid)
                            for j in span), e.t)
        coeffs += [(n, x[j - o][q]) for q, row in enumerate(grid)
                   for nr, nc, _, j0 in row for j in range(j0, j0 + min(nr, nc))]
        o += e.dim
    d = lcm(*(n for n, _ in coeffs))
    return _spread(spec, [(xr * (d // n), xi * (d // n)) for n, (xr, xi) in coeffs], d)


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
            from .floatmatrix import _wrap

            # E = diag(keep): the columns of I that keep keeps
            e = ident.array * keep
            return CommutantProjector.from_matrix(spec, _wrap(s.array @ e @ s.inverse().array), tol)
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
