"""Jordan canonical form data: build, validate, and exact recovery.

No floating eigenvalue solver lives here on purpose.  Exact callers supply
candidate eigenvalues and the block sizes are recovered from rank sequences
(the Weyr characteristic); float callers supply (P, spec) directly and
``validate_similarity`` gates all downstream use.
"""

import operator

from .core import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    Matrix,
    _Frozen,
    _kept,
    approx_eq,
    matrix_from_obj,
    matrix_to_obj,
    scalar_from_obj,
    scalar_to_obj,
)
from .errors import (
    IncompleteSpectrum,
    InvalidSpec,
    MalformedInput,
    ModeMismatch,
    NotSupported,
    ShapeMismatch,
    SingularMatrix,
    ZeroEigenvalue,
)
from .scalars import QQi


class EigenBlocks(_Frozen):
    """One distinct eigenvalue with its descending Jordan block sizes."""

    __slots__ = _fields = ("lam", "sizes")  # lam: QQi (exact) or complex (float)

    def __init__(self, lam, sizes: tuple):
        # operator.index takes ints (numpy's too) and refuses 2.5 or "2"
        # rather than truncating them; bool, an int subclass, is ruled out
        if any(isinstance(s, bool) for s in sizes):
            raise InvalidSpec("block sizes must be integers, not booleans")
        try:
            sizes = tuple(map(operator.index, sizes))
        except TypeError as exc:
            raise InvalidSpec(f"block sizes must be integers: {exc}") from None
        super().__init__(lam=lam, sizes=sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise InvalidSpec("block sizes must be positive")
        if list(sizes) != sorted(sizes, reverse=True):
            raise InvalidSpec("block sizes must be descending")
        if self.lam == 0:
            raise InvalidSpec("eigenvalues must be nonzero")

    @property
    def mode(self):
        return EXACT if isinstance(self.lam, QQi) else FLOAT

    @property
    def t(self):
        """Geometric multiplicity: the number of Jordan blocks."""
        return len(self.sizes)

    @property
    def dim(self):
        return sum(self.sizes)


class JordanSpec(_Frozen):
    """Distinct nonzero eigenvalues with block sizes, plus an optional
    similarity matrix P mapping J to the target (target = P J P^-1), of the
    eigenvalues' mode (ModeMismatch otherwise, as for mixed eigenvalues)."""

    # _r is kept by r; _cullen, the one Cullen chart, by commutant._chart
    _fields = ("eigenvalues", "P")
    __slots__ = _fields + ("_r", "_cullen")

    def __init__(self, eigenvalues: tuple, P: Matrix = None):
        eigs = tuple(eigenvalues)
        super().__init__(eigenvalues=eigs, P=P)
        if not eigs:
            raise InvalidSpec("at least one eigenvalue required")
        modes = {e.mode for e in eigs}
        if len(modes) > 1:
            raise ModeMismatch("mixed eigenvalue modes")
        if len({e.lam for e in eigs}) != len(eigs):
            raise InvalidSpec("eigenvalues must be distinct")
        if self.P is not None:
            if self.P.mode != self.mode:
                raise ModeMismatch(f"{self.P.mode} P for {self.mode} eigenvalues")
            if not self.P.is_square or self.P.rows != self.r:
                raise InvalidSpec("P has the wrong shape")

    def __hash__(self):
        # over the eigenvalues only, as a Matrix P is unhashable; equal
        # specs have equal eigenvalues
        return hash(self.eigenvalues)

    @property
    def mode(self):
        return self.eigenvalues[0].mode

    @property
    def s(self):
        return len(self.eigenvalues)

    @property
    def r(self):
        """The size of J, summed on first read and kept."""
        return _kept(self, "_r", _size)

    @property
    def block_sizes(self):
        """All Jordan block sizes in global (eigenvalue-major) order."""
        return [k for e in self.eigenvalues for k in e.sizes]


def _size(spec: JordanSpec):
    return sum(e.dim for e in spec.eigenvalues)


def make_spec(pairs, P=None, mode=EXACT) -> JordanSpec:
    """Convenience builder: pairs of (eigenvalue, sizes)."""
    scalar = QQi.coerce if mode == EXACT else complex
    return JordanSpec(tuple(EigenBlocks(scalar(lam), tuple(sizes)) for lam, sizes in pairs), P)


def jordan_entries(blocks, off=0):
    """The (i, j, value) entries of diag(J_k1(lam1), J_k2(lam2), ...) for the
    (lam, k) pairs in blocks, its top-left corner at (off, off)."""
    for lam, k in blocks:
        for i in range(off, off + k):
            yield i, i, lam
            if i + 1 < off + k:
                yield i, i + 1, 1
        off += k


def build_jordan_matrix(spec: JordanSpec) -> Matrix:
    """The block-diagonal Jordan matrix J described by the spec."""
    blocks = ((e.lam, k) for e in spec.eigenvalues for k in e.sizes)
    return Matrix.from_entries(spec.r, spec.r, jordan_entries(blocks), spec.mode)


# ----------------------------------------------------------------------
# block choices: one 0/1 bit per Jordan block, the diagonal idempotents E
# that commute with J


def _block_diagonal(spec: JordanSpec, bits):
    """The 0/1 diagonal of the block-choice projector: each block's bit,
    repeated over the block's rows."""
    sizes = spec.block_sizes
    if len(bits) != len(sizes):
        raise ShapeMismatch("one bit per Jordan block required")
    return [1 if b else 0 for b, s in zip(bits, sizes) for _ in range(s)]


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


def weyr_structure(m: Matrix, candidate_eigenvalues) -> JordanSpec:
    """Recover Jordan block sizes of an exact nonsingular matrix from the
    rank sequence of (m - lam I)^k per candidate eigenvalue.

    Each distinct candidate is taken once (by QQi equality, so 3 and "6/2"
    are one).  Raises IncompleteSpectrum when the multiplicities do not sum
    to the dimension (wrong or missing candidates) and ZeroEigenvalue for a
    zero candidate.
    """
    if m.mode != EXACT:
        raise NotSupported("weyr_structure is exact-mode only")
    m.require_square()
    n = m.rows
    eigs = []
    total = 0
    for lam in dict.fromkeys(map(QQi.coerce, candidate_eigenvalues)):
        if lam.is_zero():
            raise ZeroEigenvalue("candidate eigenvalue 0 is not allowed")
        shifted = m - Matrix.identity(n, EXACT).scale(lam)
        ranks = [n]
        power = Matrix.identity(n, EXACT)
        while True:
            power = power @ shifted
            rk = power.rank()
            ranks.append(rk)
            if rk == ranks[-2]:
                break
        mult = n - ranks[-1]
        if mult == 0:
            continue
        # number of blocks of size >= k is ranks[k-1] - ranks[k]
        geq = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
        sizes = []
        for k in range(len(geq), 0, -1):
            exactly = geq[k - 1] - (geq[k] if k < len(geq) else 0)
            sizes.extend([k] * exactly)
        eigs.append(EigenBlocks(lam, tuple(sizes)))
        total += mult
    if total != n:
        raise IncompleteSpectrum(
            f"multiplicities sum to {total}, dimension is {n}")
    return JordanSpec(tuple(eigs), None)


def validate_similarity(p: Matrix, spec: JordanSpec, m: Matrix, tol=DEFAULT_TOL) -> bool:
    """True iff p is nonsingular and p J p^-1 matches m."""
    if not p.is_square or p.rows != spec.r or m.rows != spec.r or not m.is_square:
        return False
    if p.rank(tol) < p.rows:
        return False
    j = build_jordan_matrix(spec)
    try:
        return approx_eq(p @ j @ p.inverse(), m, tol)
    except SingularMatrix:
        return False


# ----------------------------------------------------------------------
# JSON


def spec_to_obj(spec: JordanSpec):
    return {
        "eigenvalues": [
            {"lambda": scalar_to_obj(e.lam), "sizes": list(e.sizes)}
            for e in spec.eigenvalues
        ],
        "P": matrix_to_obj(spec.P) if spec.P is not None else None,
    }


def spec_from_obj(obj) -> JordanSpec:
    try:
        eigs = []
        for e in obj["eigenvalues"]:
            sizes = e["sizes"]
            if not (isinstance(sizes, list) and all(type(k) is int and k >= 1 for k in sizes)):
                raise MalformedInput(f"sizes must be a list of positive integers, not {sizes!r}")
            eigs.append(EigenBlocks(scalar_from_obj(e["lambda"]), tuple(sizes)))
        p = matrix_from_obj(obj["P"]) if obj.get("P") is not None else None
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise MalformedInput(f"bad JordanSpec object: {exc}") from exc
    if len({e.mode for e in eigs} | ({p.mode} if p is not None else set())) > 1:
        raise MalformedInput("eigenvalues and P mix exact and float modes")
    return JordanSpec(eigs, p)
