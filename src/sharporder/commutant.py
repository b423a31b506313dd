"""The algebra of matrices commuting with a Jordan matrix J, and its poset
Delta(J) of projectors, used to describe down-sets under the sharp order.

A matrix commutes with J iff it is block diagonal across eigenvalues, each
diagonal block a grid of upper-triangular Toeplitz cores padded per the
Cullen shape rules (Gantmacher, The Theory of Matrices, ch. VIII).  A grid
holds only its cores' coefficients; the cell shapes depend on the block
sizes alone, so each spec keeps one chart of them (_chart), global and per
eigenvalue: _spread writes every commutant element from its coefficients,
and _gather reads every grid off its cells' first rows.

Work is done per eigenvalue block, on the first rows I of the Jordan
blocks, which fix a commutant element: in both modes the sampler solves
only where its block choice is mixed (_conjugated), and exact Delta(J)
membership (_delta_span, its one check) and the order use T[I, :]."""

import random
from collections import namedtuple
from contextlib import suppress
from itertools import accumulate, chain, groupby, islice, product
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

_Chart = namedtuple("_Chart", "coef dst head parts")
_Part = namedtuple("_Part", "o dim c0 c1 coef dst head cores heads tops diag classes")

# the most S whose T the float sampler checks: a tol that no T meets ends in NotInDelta
_FLOAT_DRAWS = 64


def _chart(spec: JordanSpec) -> _Chart:
    """The Cullen chart (coef, dst, head, parts), made in one walk over the
    block sizes and kept on the spec (a float spec's P is unhashable, so no
    cache could key on it).  With the core coefficients numbered in layout
    order, the entry at flat index dst[e] holds coefficient coef[e], and
    coefficient c is the entry at flat index head[c], in its cell's first
    row: lists for an exact spec (exact code loads no numpy), index arrays
    for a float one, as are its parts' coef, dst and tops.  parts has a
    _Part per eigenvalue: its dim x dim block starts at (o, o), and its
    coefficients c0 .. c1 - 1 are numbered from 0 in its (coef, dst, head);
    cores[i][k] = min(sizes[i], sizes[k]); heads are its block starts, the
    rows I that hold its grid; coefficient c0 + c is entry (heads[q], j) for
    (j, q) = tops[c]; diag is each diagonal cell's leading coefficient, and
    classes, per block size p, those of the cells between blocks of size p
    (_size_classes_invertible)."""
    return _kept(spec, "_cullen", _make_chart)


def _make_chart(spec: JordanSpec) -> _Chart:
    r, o, c0, index = spec.r, 0, 0, list
    if spec.mode == FLOAT:
        from numpy import array as index
    coef, dst, head, parts = [], [], [], []
    for e in spec.eigenvalues:
        n, t, starts = e.dim, e.t, list(accumulate(e.sizes, initial=0))
        cores = [[min(p, q) for q in e.sizes] for p in e.sizes]
        pc, pd, ph, tops = [], [], [], []
        for i, k in product(range(t), repeat=2):
            # the core's top-left entry is at the top of a tall cell and the
            # right of a wide one; its coefficient c fills its c-th superdiagonal
            m = cores[i][k]
            i0, j0 = starts[i], starts[k + 1] - m
            for c in range(m):
                for x in range(m - c):
                    pc.append(len(ph) + c)
                    pd.append((i0 + x) * n + j0 + x + c)
            ph += range(i0 * n + j0, i0 * n + j0 + m)
            tops += ((j, i) for j in range(j0, j0 + m))
        # cell (i, k)'s leading coefficient is lead[i * t + k], and c1 = lead[-1]
        lead = list(accumulate(chain.from_iterable(cores), initial=c0))
        classes = [[[lead[i * t + k] for k in same] for i in same]
                   for same in (list(g) for _, g in groupby(range(t), e.sizes.__getitem__))]
        parts.append(_Part(o, n, c0, lead[-1], index(pc), index(pd), ph, cores, starts[:-1],
                           index(tops), lead[:-1:t + 1], classes))
        # local flat index i n + j is global (o + i) r + o + j
        coef += (c0 + c for c in pc)
        dst += (o * (r + 1) + x + (r - n) * (x // n) for x in pd)
        head += (o * (r + 1) + x + (r - n) * (x // n) for x in ph)
        o, c0 = o + n, lead[-1]
    return _Chart(index(coef), index(dst), index(head), parts)


def _fits(spec: JordanSpec, blocks):
    """Whether blocks has the spec's grids, each cell with as many
    coefficients as its core's size."""
    return ([[list(map(len, row)) for row in grid] for grid in blocks]
            == [p.cores for p in _chart(spec).parts])


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
    coef, dst, _, _ = _chart(spec)
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
    head = _chart(spec).head
    if t.mode == EXACT:
        flat = list(chain.from_iterable(t._intform[1]))
        return [flat[k] for k in head], t._intform[0]
    return t.array.ravel()[head], 1


def _delta_span(spec: JordanSpec, t: Matrix, tol=DEFAULT_TOL, heads=None):
    """The one Delta(J) check of an r x r t of the spec's mode (the dense
    delta_membership is its reference): t must be the element its grid spans
    (approx_eq at tol), then T^2 = T, in exact mode on the rows I as
    T[I, :] T = T[I, :] (T^2 is in the commutant too, and the rows I fix a
    commutant element; heads: t's _heads, made unless given), in float mode
    by is_projector at tol.  The matrix a projector keeps (t, or in float
    mode the span) if t passes, else None."""
    span = _spread(spec, *_gather(spec, t))
    if not approx_eq(span, t, tol):
        return None
    if t.mode == FLOAT:
        return span if is_projector(t, tol) else None
    if heads is None:
        heads = _heads(spec, t)
    return t if _int_rep_eq(heads._intform, _int_product(heads, t)) else None


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
        """Keep t if it is in Delta(J), an idempotent in the commutant of J,
        by _delta_span at tol, else raise NotInDelta; its Cullen grid is read
        only when asked for.  Exact mode keeps t itself, float mode the
        span of its grid, which drops t's noise."""
        if not t.is_square or t.rows != spec.r:
            raise ShapeMismatch(f"expected a {spec.r}x{spec.r} matrix")
        if t.mode != spec.mode:
            raise ModeMismatch(f"{t.mode} matrix for a {spec.mode} spec")
        kept = _delta_span(spec, t, tol)
        if kept is None:
            raise NotInDelta("matrix is not an idempotent in the commutant of J")
        return cls(spec, None, kept)

    @classmethod
    def read(cls, spec: JordanSpec, t: Matrix):
        """The Cullen grid of an r x r matrix t, unchecked: the core
        coefficients that _gather reads off each cell's first row, in a
        projector that holds only the grid.  Of an exact t, only those
        coefficients are made into QQi."""
        values, d = _gather(spec, t)
        it = iter(map(_scalar_over(d), values) if t.mode == EXACT else values.tolist())
        return cls(spec, tuple(tuple(tuple(tuple(islice(it, m)) for m in row) for row in p.cores)
                               for p in _chart(spec).parts))


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
    parts = _draws(rng, 2 * len(_chart(spec).head))
    c = list(zip(parts[::2], parts[1::2]))
    return _spread(spec, c if spec.mode == EXACT else [complex(*v) for v in c])


def block_choice_projector(spec: JordanSpec, bits) -> Matrix:
    """The diagonal idempotent with one 0/1 choice per Jordan block."""
    return Matrix.diag(_block_diagonal(spec, bits), spec.mode)


def _heads(spec: JordanSpec, t: Matrix) -> ExactMatrix:
    """The rows I of an exact T, the first row of each Jordan block, over
    T's denominator.  They fix a commutant element: they hold its grid."""
    d, rows = t._intform
    top = tuple(rows[p.o + h] for p in _chart(spec).parts for h in p.heads)
    return ExactMatrix(len(top), spec.r, (d, top))


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


def _size_classes_invertible(s, classes) -> bool:
    """Whether an exact commutant element with core coefficients s is
    invertible on one eigenvalue, from its classes (_chart): iff
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


def _delta_rows(s, keep, p, mode):
    """(n, values): the core coefficients c0 .. c1 - 1 of T = (S E) S^-1 on
    one eigenvalue (its chart part p), as (re, im) ints over n, for the
    exact commutant element S, invertible there, with core coefficients s
    and the 0/1 diagonal keep of E.  T's rows I, which hold its grid, solve
    T[I, :] S = (S E)[I, :] by one _solve of the block's S^T; T^2 = T is
    checked on them (NotInDelta).  Float mode: one np.linalg.solve
    (SingularMatrix on a zero pivot), complex values, n = 1."""
    dim, heads = p.dim, p.heads
    if mode == FLOAT:
        import numpy as np

        a = np.zeros(dim * dim, dtype=complex)
        a[p.dst] = np.fromiter(chain.from_iterable(s[p.c0:p.c1]), float).view(complex)[p.coef]
        a = a.reshape(dim, dim)
        try:
            x = np.linalg.solve(a.T, a[heads].T * np.array(keep[p.o:p.o + dim])[:, None])
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(str(exc)) from exc
        return 1, x[p.tops[:, 0], p.tops[:, 1]]
    st = _transpose(_chart_rows(dim, p.coef, p.dst, s[p.c0:p.c1]), dim)
    x, n = _solve(st, dim, tuple(tuple(row[h] for h in heads) if keep[p.o + j] else
                                 ((0, 0),) * len(heads) for j, row in enumerate(st)), len(heads))
    values = [x[j][q] for j, q in p.tops]
    rows = _chart_rows(dim, p.coef, p.dst, values)
    top = ExactMatrix(len(heads), dim, (n, tuple(rows[h] for h in heads)))
    if not _int_rep_eq(top._intform, _int_product(top, ExactMatrix(dim, dim, (n, rows)))):
        raise NotInDelta("matrix is not idempotent")
    return n, values


def _conjugated(spec: JordanSpec, c, keep) -> Matrix:
    """T = S E S^-1 in the spec's mode, for S = I + C, C the commutant
    element with core coefficients c (layout order, (re, im) ints), and the
    0/1 diagonal keep of E; SingularMatrix if S is singular, which both
    modes decide exactly per eigenvalue (_size_classes_invertible), as a
    float solve cannot tell a singular S from a near one.  T is block
    diagonal like S, O or I where E is, solved by _delta_rows elsewhere,
    and written by _spread."""
    exact = spec.mode == EXACT
    s, mixed, ones = list(c), [], []
    for p in _chart(spec).parts:
        for i in p.diag:
            s[i] = (s[i][0] + 1, s[i][1])
        if not _size_classes_invertible(s, p.classes):
            raise SingularMatrix("exact matrix is singular")
        kept = keep[p.o:p.o + p.dim]
        if min(kept) != max(kept):
            mixed.append(p)
        elif kept[0]:
            ones += p.diag
    solved = [_delta_rows(s, keep, p, spec.mode) for p in mixed]
    d = lcm(*(n for n, _ in solved))
    one, values = ((d, 0), [(0, 0)] * len(s)) if exact else (1, [0j] * len(s))
    for i in ones:
        values[i] = one
    for p, (n, part) in zip(mixed, solved):
        values[p.c0:p.c1] = [(xr * (d // n), xi * (d // n)) for xr, xi in part] if exact else part
    return _spread(spec, values, d)


def sample_delta_projector(spec: JordanSpec, seed: int,
                           block_choices=None, tol=DEFAULT_TOL) -> CommutantProjector:
    """A random projector commuting with J: conjugate a 0/1 block-diagonal
    idempotent E by a random invertible commutant element S = I + C, C from
    random_commutant_element.  Deterministic for a fixed seed, which must
    not be negative (MalformedInput: random.Random seeds with |seed|); may
    not reach every projector (the sets are infinite).

    Both modes draw C's core coefficients as random_commutant_element does
    and add 1 to the leading one of each diagonal cell, so the r x r S is
    never formed; they work one eigenvalue at a time (_conjugated), and draw
    a singular S again whole.  Exact mode checks T^2 = T on the rows it
    solves and counts no checks; float mode checks T with _delta_span at tol
    and draws S again when T fails, up to _FLOAT_DRAWS times before
    NotInDelta.  So a float sample whose first T passes is its exact twin's
    (the same block sizes and seed), up to rounding that grows with the
    condition number of S."""
    if seed < 0:
        raise MalformedInput("the seed must not be negative")
    rng = random.Random(seed)
    keep = _block_diagonal(spec, [rng.randint(0, 1) for _ in spec.block_sizes]
                           if block_choices is None else list(block_choices))
    count, checks = len(_chart(spec).head), _FLOAT_DRAWS
    while checks:
        parts = _draws(rng, 2 * count)
        with suppress(SingularMatrix):
            t = _conjugated(spec, list(zip(parts[::2], parts[1::2])), keep)
            if spec.mode == FLOAT:
                checks -= 1
                t = _delta_span(spec, t, tol)
            if t is not None:
                return CommutantProjector(spec, None, t)
    raise NotInDelta(f"no T of {_FLOAT_DRAWS} nonsingular draws of S passed the check at tol")


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
    not fit the spec or its mode, NotInDelta for one whose matrix fails
    _delta_span at DEFAULT_TOL (the span check holds, as the grid spans the
    matrix, so this is T^2 = T: on the rows I in exact mode, by is_projector
    in float mode).  The matrix is expanded here and kept."""
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
    if _delta_span(spec, cp.expand()) is None:
        raise NotInDelta("the grid's matrix is not idempotent")
    return cp
