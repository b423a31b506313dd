"""The algebra of matrices commuting with a Jordan matrix J, and the poset
of projectors inside it, used to describe down-sets under the sharp order.

A matrix commutes with J iff it is block diagonal across eigenvalues, each
diagonal block a grid of upper-triangular Toeplitz cores padded per the
Cullen shape rules (Gantmacher, The Theory of Matrices, ch. VIII).  A grid
holds only its cores' coefficients: the cell shapes depend on the block
sizes alone, so a spec's layout is made once, by _layout, and kept on it.
So is its chart (_chart), which maps the coefficients to the matrix
entries, in both modes: _spread writes every commutant element from its
coefficients, and _gather reads every grid off its cells' first rows.

Exact work is done per eigenvalue block, on the first rows I of the Jordan
blocks, which fix a commutant element: the sampler solves only where its
block choice is mixed (_conjugated), and T^2 = T and the projector order
are decided on T[I, :] (_idempotent_on_heads, _below_on_heads)."""

import random
from contextlib import suppress
from itertools import accumulate, chain, groupby, islice
from math import lcm

from .core import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    ExactMatrix,
    Matrix,
    _Frozen,
    _bareiss,
    _cleared,
    _int_product,
    _int_rep_eq,
    _kept,
    _over,
    _scalar_over,
    _solve,
    _transpose,
    approx_eq,
    in_tau,
    is_projector,
    scalar_from_obj,
    scalar_to_obj,
)
from .errors import (InvalidSpec, MalformedInput, ModeMismatch, NotInDelta, ShapeMismatch,
                     SingularMatrix)
from .jordan import (JordanSpec, _block_diagonal, build_jordan_matrix, spec_from_obj,
                     spec_to_obj)
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
    lists = _chart_lists((place for grid in _layout(spec) for row in grid for place in row),
                         spec.r)
    if spec.mode == EXACT:
        return lists
    import numpy as np

    return tuple(map(np.array, lists))


def _chart_lists(places, n, o=0):
    """(coef, dst, head) of the Cullen cells at places, as _chart has them,
    with flat indices into the n x n matrix whose top-left entry is the
    layout's (o, o), and the cells' coefficients numbered from 0."""
    coef, dst, head = [], [], []
    for nr, nc, i0, j0 in places:
        i0, j0, k = i0 - o, j0 - o, min(nr, nc)
        # coefficient c of the cell fills the core's c-th superdiagonal
        for c in range(k):
            for x in range(k - c):
                coef.append(len(head) + c)
                dst.append((i0 + x) * n + j0 + x + c)
        head += range(i0 * n + j0, i0 * n + j0 + k)
    return coef, dst, head


def _chart_rows(n, coef, dst, values):
    """The n x n rows, as tuples of (re, im) int pairs, that hold values[coef[e]]
    at flat index dst[e] and zeros elsewhere."""
    flat = [(0, 0)] * (n * n)
    for c, k in zip(coef, dst):
        flat[k] = values[c]
    return tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n))


def _spread(spec: JordanSpec, values, d=1):
    """The commutant element whose core coefficients, in layout order, are
    values: (re, im) int pairs over the denominator d for an exact spec,
    complex numbers for a float one.  The one writer of a commutant element."""
    coef, dst, _ = _chart(spec)
    r = spec.r
    if spec.mode == EXACT:
        return _over(r, r, _chart_rows(r, coef, dst, values), (d, 0))
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


def block_choice_projector(spec: JordanSpec, bits) -> Matrix:
    """The diagonal idempotent with one 0/1 choice per Jordan block."""
    return Matrix.diag(_block_diagonal(spec, bits), spec.mode)


def _heads(spec: JordanSpec, t: Matrix) -> ExactMatrix:
    """The rows I of an exact T, the first row of each Jordan block, over
    T's denominator.  They fix a commutant element: they hold its grid."""
    d, rows = t._intform
    top = tuple(rows[row[0][2]] for grid in _layout(spec) for row in grid)
    return ExactMatrix(len(top), spec.r, (d, top))


def _idempotent_on_heads(spec: JordanSpec, t: Matrix, heads=None) -> bool:
    """T^2 = T for an exact T in the commutant of J, decided on its rows I:
    T[I, :] T = T[I, :].  T^2 is in the commutant too, and the rows I fix a
    commutant element.  heads: T's _heads, made here unless given."""
    if heads is None:
        heads = _heads(spec, t)
    return _int_rep_eq(heads._intform, _int_product(heads, t))


def _below_on_heads(spec: JordanSpec, a: Matrix, b: Matrix, ha=None, hb=None) -> bool:
    """The projector order A = A B = B A for exact A and B in the commutant
    of J, decided on the rows I: A[I, :] B = A[I, :] = B[I, :] A, as A B and
    B A are in the commutant too.  ha, hb: the _heads of A and B, made here
    unless given (B's only when A[I, :] B = A[I, :])."""
    if ha is None:
        ha = _heads(spec, a)
    if not _int_rep_eq(ha._intform, _int_product(ha, b)):
        return False
    if hb is None:
        hb = _heads(spec, b)
    return _int_rep_eq(ha._intform, _int_product(hb, a))


def _eigen_charts(spec: JordanSpec):
    """Per eigenvalue, kept on the spec, the part of the chart that exact
    sampling works on, as a tuple (o, dim, c0, c1, coef, dst, tops, heads,
    diag, classes):

    - the eigenvalue's dim x dim block starts at (o, o), and its core
      coefficients are c0 .. c1 - 1 in layout order;
    - (coef, dst) is the eigenvalue's chart on its dim x dim block, with its
      coefficients numbered from 0 (_chart_lists);
    - its coefficient c0 + c is entry (heads[q], j) for (j, q) = tops[c]:
      heads are its first rows I, and q the block whose first row holds it;
    - diag lists the leading coefficient of each diagonal cell, and classes,
      per distinct block size p, the m_p x m_p leading coefficients of the
      cells between the blocks of size p (_size_classes_invertible)."""
    return _kept(spec, "_cullen_parts", _cullen_parts)


def _cullen_parts(spec: JordanSpec):
    out, o, c0 = [], 0, 0
    for e, grid in zip(spec.eigenvalues, _layout(spec)):
        places = [place for row in grid for place in row]
        coef, dst, head = _chart_lists(places, e.dim, o)
        # cell (i, k)'s leading coefficient is lead[i * t + k], and c1 = lead[-1]
        lead = list(accumulate((min(nr, nc) for nr, nc, _, _ in places), initial=c0))
        heads = [row[0][2] - o for row in grid]
        block = {h: q for q, h in enumerate(heads)}
        classes = [[[lead[i * e.t + k] for k in same] for i in same]
                   for same in (list(g) for _, g in groupby(range(e.t), e.sizes.__getitem__))]
        out.append((o, e.dim, c0, lead[-1], coef, dst,
                    [(h % e.dim, block[h // e.dim]) for h in head], heads,
                    [lead[i * (e.t + 1)] for i in range(e.t)], classes))
        o, c0 = o + e.dim, lead[-1]
    return out


def _size_classes_invertible(s, classes) -> bool:
    """Whether an exact commutant element with core coefficients s is
    invertible on one eigenvalue, from its classes (_eigen_charts): iff
    each size class's matrix of leading coefficients is nonsingular.

    Modulo its radical, the commutant of one eigenvalue's blocks is the sum
    over the distinct block sizes p of the full matrix algebras M_{m_p}, m_p
    blocks having size p (Gantmacher, The Theory of Matrices, Vol. 1, ch.
    VIII 2).  The map from an element to its matrices of leading
    coefficients of same-size cells is multiplicative, since a product of
    cells through a block of another size is zero or a strictly triangular
    core; its kernel is an ideal of nilpotent elements.  So an element is a
    unit iff its image is."""
    return all(len(_bareiss([[s[c] for c in row] for row in cls], len(cls), len(cls))[1])
               == len(cls) for cls in classes)


def _delta_rows(s, keep, o, dim, c0, c1, coef, dst, tops, heads, *_):
    """(n, values): the core coefficients c0 .. c1 - 1 of T = (S E) S^-1 on
    one eigenvalue (_eigen_charts' part o ..), as (re, im) ints over n, for
    the exact commutant element S with core coefficients s and the 0/1
    diagonal keep of E.  The rows I of T, which hold its grid, solve
    T[I, :] S = (S E)[I, :] by one _solve of the block's S^T: SingularMatrix
    if it is singular.  T^2 = T is then checked on those rows: NotInDelta if
    it fails."""
    st = _transpose(_chart_rows(dim, coef, dst, s[c0:c1]), dim)
    x, n = _solve(st, dim, tuple(tuple(row[h] for h in heads) if keep[o + j] else
                                 ((0, 0),) * len(heads) for j, row in enumerate(st)),
                  len(heads))
    values = [x[j][q] for j, q in tops]
    rows = _chart_rows(dim, coef, dst, values)
    top = ExactMatrix(len(heads), dim, (n, tuple(rows[h] for h in heads)))
    if not _int_rep_eq(top._intform, _int_product(top, ExactMatrix(dim, dim, (n, rows)))):
        raise NotInDelta("matrix is not idempotent")
    return n, values


def _conjugated(spec: JordanSpec, c, keep) -> Matrix:
    """T = S E S^-1 for S = I + C, C the exact commutant element with core
    coefficients c (layout order, (re, im) ints), and the 0/1 diagonal keep
    of E; SingularMatrix if S is singular.  T is block diagonal like S:
    where E is O or I on an eigenvalue, so is T, and only whether S is
    invertible there is decided (_size_classes_invertible); the other
    eigenvalues are solved by _delta_rows.  T is written by _spread."""
    s, mixed, ones = list(c), [], []
    for part in _eigen_charts(spec):
        o, dim, *_, diag, classes = part
        for i in diag:
            s[i] = (s[i][0] + 1, s[i][1])
        kept = keep[o:o + dim]
        if min(kept) != max(kept):
            mixed.append(part)
        elif not _size_classes_invertible(s, classes):
            raise SingularMatrix("exact matrix is singular")
        elif kept[0]:
            ones += diag
    solved = [_delta_rows(s, keep, *part) for part in mixed]
    d = lcm(*(n for n, _ in solved))
    values = [(0, 0)] * len(s)
    for i in ones:
        values[i] = (d, 0)
    for (_, _, c0, c1, *_), (n, part) in zip(mixed, solved):
        values[c0:c1] = [(xr * (d // n), xi * (d // n)) for xr, xi in part]
    return _spread(spec, values, d)


def sample_delta_projector(spec: JordanSpec, seed: int,
                           block_choices=None, tol=DEFAULT_TOL) -> CommutantProjector:
    """A random projector commuting with J: conjugate a 0/1 block-diagonal
    idempotent E by a random invertible commutant element S = I + C, C from
    random_commutant_element.  Deterministic for a fixed seed; may not reach
    every projector (the sets are infinite).

    Exact mode draws C's core coefficients as random_commutant_element does
    and adds 1 to the leading one of each diagonal cell, so the r x r S is
    never formed; it works one eigenvalue at a time (_conjugated).  Where E
    is O or I on an eigenvalue, as it always is on one with a single block,
    that part of T is O or I and nothing is solved; elsewhere the rows of T
    that hold its grid are solved for and T^2 = T is checked on them.  Float
    mode forms T by products and checks it with from_matrix: BLAS gives some
    zeros of S E a sign that a column mask would not, and those signs reach
    T.  A singular S, found on any eigenvalue or by the float rank cut
    (np.linalg.inv can succeed where the cut fails), is drawn again whole."""
    rng = random.Random(seed)
    keep = _block_diagonal(spec, [rng.randint(0, 1) for _ in spec.block_sizes]
                           if block_choices is None else list(block_choices))
    if spec.mode == EXACT:
        count = len(_chart(spec)[2])
        while True:
            parts = _draws(rng, 2 * count)
            with suppress(SingularMatrix):
                return CommutantProjector(
                    spec, None, _conjugated(spec, list(zip(parts[::2], parts[1::2])), keep))
    from .floatmatrix import _wrap

    ident = Matrix.identity(spec.r, FLOAT)
    while True:
        s = ident + random_commutant_element(spec, rng)
        if s.rank(tol) == spec.r:
            # E = diag(keep): the columns of I that keep keeps
            e = ident.array * keep
            return CommutantProjector.from_matrix(spec, _wrap(s.array @ e @ s.inverse().array), tol)


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
