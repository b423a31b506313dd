"""Jordan canonical form data: build, validate, and exact recovery.

No floating eigenvalue solver lives here on purpose.  Exact callers supply
candidate eigenvalues and the block sizes are recovered from rank sequences
(the Weyr characteristic); float callers supply (P, spec) directly and
``validate_similarity`` gates all downstream use.
"""

import operator
from dataclasses import dataclass
from functools import cached_property

from .core import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    Matrix,
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
    SingularMatrix,
    ZeroEigenvalue,
)
from .scalars import QQi


@dataclass(frozen=True)
class EigenBlocks:
    """One distinct eigenvalue with its descending Jordan block sizes."""

    lam: object  # QQi (exact) or complex (float)
    sizes: tuple

    def __post_init__(self):
        # operator.index takes ints (numpy's too) and refuses 2.5 or "2"
        # rather than truncating them; bool, an int subclass, is ruled out
        if any(isinstance(s, bool) for s in self.sizes):
            raise InvalidSpec("block sizes must be integers, not booleans")
        try:
            sizes = tuple(map(operator.index, self.sizes))
        except TypeError as exc:
            raise InvalidSpec(f"block sizes must be integers: {exc}") from None
        object.__setattr__(self, "sizes", sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise InvalidSpec("block sizes must be positive")
        if list(sizes) != sorted(sizes, reverse=True):
            raise InvalidSpec("block sizes must be descending")
        if self.mode == EXACT:
            if self.lam.is_zero():
                raise InvalidSpec("eigenvalues must be nonzero")
        elif self.lam == 0:
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


@dataclass(frozen=True)
class JordanSpec:
    """Distinct nonzero eigenvalues with block sizes, plus an optional
    similarity matrix P mapping J to the target (target = P J P^-1)."""

    eigenvalues: tuple
    P: Matrix = None

    def __post_init__(self):
        eigs = tuple(self.eigenvalues)
        object.__setattr__(self, "eigenvalues", eigs)
        if not eigs:
            raise InvalidSpec("at least one eigenvalue required")
        modes = {e.mode for e in eigs}
        if len(modes) > 1:
            raise ModeMismatch("mixed eigenvalue modes")
        lams = [e.lam for e in eigs]
        if len({_lam_key(x) for x in lams}) != len(lams):
            raise InvalidSpec("eigenvalues must be distinct")
        if self.P is not None:
            if not self.P.is_square or self.P.rows != self.r:
                raise InvalidSpec("P has the wrong shape")

    @property
    def mode(self):
        return self.eigenvalues[0].mode

    @property
    def s(self):
        return len(self.eigenvalues)

    @cached_property
    def r(self):
        """The size of J, summed on first read and kept."""
        return sum(e.dim for e in self.eigenvalues)

    @property
    def block_sizes(self):
        """All Jordan block sizes in global (eigenvalue-major) order."""
        return [k for e in self.eigenvalues for k in e.sizes]

    @property
    def multiplicities(self):
        return [e.t for e in self.eigenvalues]


def _lam_key(lam):
    if isinstance(lam, QQi):
        return (lam.re, lam.im)
    return complex(lam)


def make_spec(pairs, P=None, mode=EXACT) -> JordanSpec:
    """Convenience builder: pairs of (eigenvalue, sizes)."""
    eigs = []
    for lam, sizes in pairs:
        if mode == EXACT:
            lam = QQi.coerce(lam)
        else:
            lam = complex(lam)
        eigs.append(EigenBlocks(lam, tuple(sizes)))
    return JordanSpec(tuple(eigs), P)


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


def weyr_structure(m: Matrix, candidate_eigenvalues) -> JordanSpec:
    """Recover Jordan block sizes of an exact nonsingular matrix from the
    rank sequence of (m - lam I)^k per candidate eigenvalue.

    Raises IncompleteSpectrum when the multiplicities do not sum to the
    dimension (wrong or missing candidates) and ZeroEigenvalue for a zero
    candidate.
    """
    if m.mode != EXACT:
        raise NotSupported("weyr_structure is exact-mode only")
    m.require_square()
    n = m.rows
    eigs = []
    total = 0
    for lam in candidate_eigenvalues:
        lam = QQi.coerce(lam)
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
