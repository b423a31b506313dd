import random
import time
from collections.abc import Hashable
from itertools import count
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharporder import (
    EXACT,
    FLOAT,
    Matrix,
    QQi,
    Tolerance,
    approx_eq,
    is_projector,
    admissible_ranks,
    build_jordan_matrix,
    delta_membership,
    hs_decompose,
    make_spec,
    projector_from_obj,
    projector_to_obj,
    sample_delta_projector,
    solve_jordan_commuting_projectors,
)
from sharporder import commutant
from sharporder.commutant import (
    CommutantProjector,
    block_choice_projector,
    random_commutant_element,
)
from sharporder.core import DEFAULT_TOL, _bareiss, in_tau, scalar_from_obj, scalar_to_obj
from sharporder.errors import (InvalidSpec, MalformedInput, ModeMismatch, NotInDelta,
                               ShapeMismatch)
from sharporder.sharp import proj_leq


def test_rutm_expand():
    # one 3x3 Jordan block: its single cell is the Toeplitz core a1 I + a2 N + a3 N^2
    cp = CommutantProjector(make_spec([(5, [3])]), ((((QQi(1), QQi(2), QQi(3)),),),))
    assert cp.expand() == Matrix.exact([[1, 2, 3], [0, 1, 2], [0, 0, 1]])


def test_expand_identity_and_zero():
    spec = make_spec([(2, [2, 1]), (3, [1])])
    from sharporder.lattice import boolean_center

    center = boolean_center(spec)
    mats = sorted((cp.expand().rank() for cp in center))
    assert mats == [0, 1, 3, 4]
    assert any(cp.expand() == Matrix.zeros(4, 4, EXACT) for cp in center)
    assert any(cp.expand() == Matrix.identity(4, EXACT) for cp in center)


def test_expand_partial_identity():
    # single eigenvalue, sizes [2,1]: identity core in the top-left cell only
    spec = make_spec([(7, [2, 1])])
    o, i = QQi(0), QQi(1)
    grid = (((i, o), (o,)),
            ((o,), (o,)))
    cp = CommutantProjector(spec, (grid,))
    assert cp.expand() == Matrix.diag([1, 1, 0], EXACT)


def test_admissible_ranks_examples():
    assert admissible_ranks(3, 2) == {0, 2, 3, 5}
    assert admissible_ranks(2, 2) == {0, 2, 4}
    assert admissible_ranks(1, 1) == {0, 1, 2}
    with pytest.raises(InvalidSpec):
        admissible_ranks(1, 2)


def test_delta_membership_examples():
    spec = make_spec([(5, [2, 1])])
    assert delta_membership(Matrix.zeros(3, 3, EXACT), spec)
    assert delta_membership(Matrix.identity(3, EXACT), spec)
    # diag(1,0) does not commute with a 2-block
    spec2 = make_spec([(5, [2])])
    assert not delta_membership(Matrix.diag([1, 0], EXACT), spec2)
    assert delta_membership(Matrix.diag([1, 1, 0], EXACT), spec)
    # a float T is tested against the float image of an exact spec's J
    assert delta_membership(Matrix.identity(3, FLOAT), spec)


def test_structural_commutation():
    rnd = random.Random(21)
    spec = make_spec([(2, [2, 1]), (3, [2])])
    j = build_jordan_matrix(spec)
    for _ in range(20):
        c = random_commutant_element(spec, rnd)
        assert c @ j == j @ c


def test_sampler_membership_and_rank_classes():
    spec = make_spec([(2, [2, 1])])
    ranks = set()
    for seed in range(40):
        cp = sample_delta_projector(spec, seed)
        t = cp.expand()
        assert delta_membership(t, spec)
        ranks.add(t.rank())
    assert ranks <= admissible_ranks(2, 1)
    assert {0, 3} <= ranks  # extremes show up


def test_sampler_block_choices():
    spec = make_spec([(2, [2, 1])])
    z = sample_delta_projector(spec, 0, block_choices=[0, 0]).expand()
    assert z.is_zero()
    i = sample_delta_projector(spec, 0, block_choices=[1, 1]).expand()
    assert i == Matrix.identity(3, EXACT)


def test_single_block_delta_is_two_elements():
    # one eigenvalue, one block: only O and I commute idempotently
    spec = make_spec([(4, [3])])
    seen = set()
    for seed in range(30):
        t = sample_delta_projector(spec, seed).expand()
        seen.add(t.key())
    assert seen == {Matrix.zeros(3, 3, EXACT).key(),
                    Matrix.identity(3, EXACT).key()}


def test_equal_rank_samples_incomparable():
    spec = make_spec([(2, [2, 2])])
    mids = []
    for seed in range(60):
        t = sample_delta_projector(spec, seed).expand()
        if t.rank() == 2:
            mids.append(t)
    assert len(mids) >= 2
    for i in range(len(mids)):
        for k in range(len(mids)):
            if mids[i] == mids[k]:
                continue
            assert not proj_leq(mids[i], mids[k])


def test_from_matrix_rejects_non_commutant():
    spec = make_spec([(5, [2])])
    with pytest.raises(NotInDelta):
        CommutantProjector.from_matrix(spec, Matrix.diag([1, 0], EXACT))
    with pytest.raises(NotInDelta):
        CommutantProjector.from_matrix(spec, Matrix.exact([[2, 0], [0, 2]]))
    with pytest.raises(ModeMismatch):
        CommutantProjector.from_matrix(spec, Matrix.identity(2, FLOAT))


def test_projector_json_round_trip():
    spec = make_spec([(2, [2, 1])])
    cp = sample_delta_projector(spec, 7)
    again = projector_from_obj(projector_to_obj(cp))
    assert again.expand() == cp.expand()
    with pytest.raises(MalformedInput):
        projector_from_obj({"spec": None, "blocks": []})
    # coefficients follow the spec's scalar rule and must share its mode
    exact_spec = {"eigenvalues": [{"lambda": [2, 0], "sizes": [1]}]}
    float_spec = {"eigenvalues": [{"lambda": [2.0, 0.0], "sizes": [1]}]}
    one = projector_from_obj({"spec": exact_spec, "blocks": [[[[[1, 0]]]]]})
    assert one.expand() == Matrix.identity(1, EXACT)
    for spec_obj, coeff in ((exact_spec, [1.0, 0.0]), (float_spec, ["1", "0"]),
                            (float_spec, [1, 0])):
        with pytest.raises(MalformedInput):
            projector_from_obj({"spec": spec_obj, "blocks": [[[[coeff]]]]})


def _reference_expand(spec, grids, mode):
    """The commutant matrix built entry by entry from the Cullen rules: cell
    (i, k) of an eigenvalue is its Toeplitz core X, on top of zeros when tall
    ([X; O]) and right of zeros when wide ([O X])."""
    r = spec.r
    a = [[0] * r for _ in range(r)]
    off = 0
    for e, grid in zip(spec.eigenvalues, grids):
        starts = [off + sum(e.sizes[:i]) for i in range(e.t)]
        for i in range(e.t):
            for k in range(e.t):
                rows, cols = e.sizes[i], e.sizes[k]
                m = min(rows, cols)
                shift = cols - m if rows < cols else 0
                for x in range(m):
                    for y in range(x, m):
                        a[starts[i] + x][starts[k] + shift + y] = grid[i][k][y - x]
        off += e.dim
    if mode == FLOAT:
        return Matrix.floating(np.array(a, dtype=complex))
    return Matrix.exact(a)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("pairs", [[(2, [3, 2, 1]), (-1, [2, 2])],
                                   [(4, [2, 2])],
                                   [(3, [3, 1]), (1, [1]), (2, [2, 1, 1])]])
def test_expand_matches_reference(mode, pairs):
    rnd = random.Random(5)
    spec = make_spec(pairs, mode=mode)
    for _ in range(3):
        grids = []
        for e in spec.eigenvalues:
            grid = []
            for si in e.sizes:
                row = []
                for sk in e.sizes:
                    m = min(si, sk)
                    coeffs = [complex(rnd.randint(-3, 3), rnd.randint(-3, 3)) for _ in range(m)]
                    if mode == EXACT:
                        coeffs = [QQi(int(c.real), int(c.imag)) for c in coeffs]
                    row.append(coeffs)
                grid.append(row)
            grids.append(grid)
        cp = CommutantProjector(spec, tuple(tuple(tuple(map(tuple, row)) for row in grid)
                                            for grid in grids))
        got = cp.expand()
        assert got.mode == mode
        assert got == _reference_expand(spec, grids, mode)
        # and the grid read back off the matrix is the one it was built from
        assert CommutantProjector.read(spec, got).blocks == cp.blocks


def test_cullen_cell_expand_sides():
    # blocks 3 and 2: cell (0, 1) is tall, [X; O], and cell (1, 0) wide, [O X]
    for mode, o, x, make in ((EXACT, QQi(0), (QQi(1), QQi(2)), Matrix.exact),
                             (FLOAT, 0j, (1 + 0j, 2 + 0j), Matrix.floating)):
        spec = make_spec([(5, [3, 2])], mode=mode)
        got = CommutantProjector(spec, ((((o, o, o), x), (x, (o, o))),)).expand()
        assert got.block(0, 3, 3, 5) == make([[1, 2], [0, 1], [0, 0]])
        assert got.block(3, 5, 0, 3) == make([[0, 1, 2], [0, 0, 1]])
        assert got.block(0, 3, 0, 3).is_zero() and got.block(3, 5, 3, 5).is_zero()


def test_from_matrix_float_accepts_cullen_shapes():
    spec = make_spec([(5, [2, 1])], mode=FLOAT)
    for t in ([[1, 0, 0.5], [0, 1, 0], [0, 0, 0]],    # tall cell, core on top
              [[0, 0, 0], [0, 0, 0], [0, 0.5, 1]]):   # wide cell, core on the right
        cp = CommutantProjector.from_matrix(spec, Matrix.floating(t))
        assert cp.expand() == Matrix.floating(t)


@pytest.mark.parametrize("pairs,t", [
    # non-Toeplitz cell: diag(1, 0) inside one Jordan block
    ([(5, [2])], [[1, 0], [0, 0]]),
    # tall cell with its core at the bottom instead of the top
    ([(5, [2, 1])], [[1, 0, 0], [0, 1, 0.5], [0, 0, 0]]),
    # wide cell with its core on the left instead of the right
    ([(5, [2, 1])], [[1, 0, 0], [0, 1, 0], [0.5, 0, 0]]),
    # an entry coupling two distinct eigenvalues
    ([(5, [1]), (3, [1])], [[1, 0.5], [0, 0]]),
])
def test_from_matrix_float_rejects_non_commutant(pairs, t):
    spec = make_spec(pairs, mode=FLOAT)
    t = Matrix.floating(t)
    assert is_projector(t)
    assert not delta_membership(t, spec)
    with pytest.raises(NotInDelta):
        CommutantProjector.from_matrix(spec, t)


# one eigenvalue with blocks 2, 2, 1 (rows 0-1, 2-3, 4) and one with a
# single block (row 5); E keeps the first and the last block
REGION_SPEC = [(2, [2, 2, 1]), (3, [1])]
REGION_BITS = [1, 0, 0, 1]


@pytest.mark.parametrize("i,j", [
    (1, 3),   # the 2x2 core of cell (0, 1), below its first row
    (1, 4),   # the padding row under the core of the tall 2x1 cell (0, 2)
    (4, 0),   # the padding left of the core of the wide 1x2 cell (2, 0)
    (5, 2),   # coupling the two eigenvalues
])
def test_from_matrix_exact_rejects_one_entry_off_the_grid(i, j):
    # E is a 0/1 diagonal with E[i, i] != E[j, j], so E + c e_i e_j^T is
    # still idempotent; it leaves the commutant only through entry (i, j).
    # Conjugating by an invertible commutant element keeps both facts.
    spec = make_spec(REGION_SPEC)
    e = block_choice_projector(spec, REGION_BITS)
    bad = e + Matrix.from_entries(spec.r, spec.r, [(i, j, (1, -2))], EXACT)
    s = Matrix.identity(spec.r) + random_commutant_element(spec, random.Random(5))
    for t in (bad, s @ bad @ s.inverse()):
        assert is_projector(t)
        assert not delta_membership(t, spec)
        with pytest.raises(NotInDelta):
            CommutantProjector.from_matrix(spec, t)
    # the unperturbed E and its conjugate are accepted
    for t in (e, s @ e @ s.inverse()):
        assert CommutantProjector.from_matrix(spec, t).expand() == t


@pytest.mark.parametrize("pairs", [REGION_SPEC, [(1, [3, 1]), (-1, [2, 2])]])
def test_from_matrix_exact_keeps_the_validated_matrix(pairs):
    spec = make_spec(pairs)
    for seed in range(8):
        t = sample_delta_projector(spec, seed).expand()
        t = Matrix.exact([t.row(i) for i in range(t.rows)])
        cp = CommutantProjector.from_matrix(spec, t)
        assert cp.expand() is t
        read = CommutantProjector.read(spec, t)
        assert cp.blocks == read.blocks
        assert cp == read and hash(cp) == hash(read)
        assert read.expand() == t


def test_from_matrix_float_expands_to_the_cleaned_grid():
    spec = make_spec([(5, [2, 1])], mode=FLOAT)
    grid = Matrix.floating([[1, 0, 0.5], [0, 1, 0], [0, 0, 0]])
    # noise below the tolerance: in the core below its first row, and in
    # the padding of the tall cell
    noisy = grid + Matrix.floating([[0, 0, 0], [0, 1e-13, 1e-13], [0, 0, 0]])
    cp = CommutantProjector.from_matrix(spec, noisy)
    assert cp.expand() == grid
    assert cp.expand() == CommutantProjector.read(spec, noisy).expand()
    assert cp.expand() != noisy


# a (case, seed) pair whose first float S is exactly singular (its exact twin
# has rank r - 1), yet np.linalg.inv returns a finite inverse of it (largest
# entry about 1.8e16 with the LAPACK these tests were written on): the float
# sampler draws again because it decides singularity on the integer draws
SINGULAR_S = (1, 59)
# (block sizes per eigenvalue, seeds): two of the float benchmark's shapes,
# one with 1x1 cells only and one with tall and wide cells, and two small ones
FLOAT_CASES = [([[1] * 5, [1] * 4, [1] * 3], range(6)),
               ([[4, 3, 2], [3, 2], [2]], [*range(6), SINGULAR_S[1]]),
               ([[2, 1], [1]], range(6)), ([[2], [1]], range(12, 18))]
# the (case, seed) pairs whose first S is exactly singular, so that both
# modes draw it again
SINGULAR_FIRST_FLOAT_S = {(1, 1), (2, 0), SINGULAR_S}
# a (case, seed) pair whose T has a zero with its sign bit set in a cell's
# first row, which the scatter must keep
NEGATIVE_ZERO = (3, 15)


def _same_bits(x, y):
    """Equal values and equal signs of zero, real and imaginary parts."""
    return (np.array_equal(x, y) and np.array_equal(np.signbit(x.real), np.signbit(y.real))
            and np.array_equal(np.signbit(x.imag), np.signbit(y.imag)))


def _replayed_t(spec, seed):
    """A dense float T = (S E) S^-1, by BLAS products, from the draws of
    sample_delta_projector(spec, seed), and whether its first S was drawn
    again: S's entries are Gaussian integers, and an S that is exactly
    singular is drawn again."""
    rng = random.Random(seed)
    bits = [rng.randint(0, 1) for _ in spec.block_sizes]
    for draws in count(1):
        s = Matrix.identity(spec.r, FLOAT) + random_commutant_element(spec, rng)
        exact = Matrix.exact([[(int(z.real), int(z.imag)) for z in row] for row in s.array])
        if exact.rank() == spec.r:
            return s @ block_choice_projector(spec, bits) @ s.inverse(), draws > 1


def test_the_redrawn_float_s_is_exactly_singular():
    # SINGULAR_S's first S, drawn in both modes from one seed: the float one
    # is the exact one's to_float(), and the exact one has rank r - 1 (the
    # redraw and the sampled bits are checked by the grid-reference test)
    case, seed = SINGULAR_S
    sizes = FLOAT_CASES[case][0]
    firsts = []
    for spec in (make_spec(list(zip((2, -1, 3), sizes))),
                 make_spec(list(zip((2.0, -1.0, 3.0), sizes)), mode=FLOAT)):
        rng = random.Random(seed)
        [rng.randint(0, 1) for _ in spec.block_sizes]
        firsts.append(Matrix.identity(spec.r, spec.mode) + random_commutant_element(spec, rng))
    exact_s, float_s = firsts
    assert exact_s.to_float() == float_s and exact_s.rank() == spec.r - 1


def test_draws_match_randint():
    # the sampler's copy of CPython's randint(-2, 2) gives the same values and
    # leaves the rng in the same state, so every sample stays the same; a
    # Python whose randint draws otherwise fails here
    for seed in range(400):
        fast, ref = random.Random(seed), random.Random(seed)
        k = seed % 37
        assert commutant._draws(fast, k) == [ref.randint(-2, 2) for _ in range(k)]
        assert fast.getstate() == ref.getstate()
        assert fast.random() == ref.random()


@pytest.mark.parametrize("case", range(len(FLOAT_CASES)))
def test_float_sampling_bits_match_the_grid_reference(case):
    sizes, seeds = FLOAT_CASES[case]
    exact = make_spec(list(zip((2, -1, 3), sizes)))
    spec = make_spec(list(zip((2.0, -1.0, 3.0), sizes)), mode=FLOAT)
    tol = Tolerance(rel=1e-7)
    for seed in seeds:
        rf, rx = random.Random(seed), random.Random(seed)
        got = random_commutant_element(spec, rf).array
        assert _same_bits(got, random_commutant_element(exact, rx).to_float().array)
        assert rf.getstate() == rx.getstate()
        t, redrawn = _replayed_t(spec, seed)
        assert redrawn == ((case, seed) in SINGULAR_FIRST_FLOAT_S)
        cp, ref = CommutantProjector.from_matrix(spec, t, tol), CommutantProjector.read(spec, t)
        assert _same_bits(cp.expand().array, ref.expand().array)
        # the sampler solves per eigenvalue, not by the dense products: its T
        # is the same up to rounding
        sampled = sample_delta_projector(spec, seed, tol=tol).expand()
        assert approx_eq(sampled, ref.expand(), Tolerance(rel=1e-13))
        assert cp.blocks == ref.blocks and hash(cp) == hash(ref)
        if (case, seed) == NEGATIVE_ZERO:
            a = ref.expand().array
            assert np.signbit(a.real[a.real == 0]).any() or np.signbit(a.imag[a.imag == 0]).any()


# the six shapes of the exact-projectors benchmark, with the eigenvalues its
# seed 3 gives them
EXACT_CASES = [[(-1, [1, 1]), (-2, [1, 1])], [(3, [2, 2, 1])], [((1, 1), [1] * 6)],
               [((2, -1), [2, 1]), ((1, 1), [2, 1, 1])], [(2, [3, 2]), (-2, [2, 1])],
               [(1, [3, 3, 2])]]
# two (case, seed) pairs whose first exact S is singular when the bits are drawn
SINGULAR_FIRST_S = {(1, 10), (4, 2)}


def _replayed_exact_t(spec, seed, bits):
    """S E S^-1 from the draws of sample_delta_projector(spec, seed, bits),
    by the full inverse and two products; the rng state after the draws; and
    whether the first S was singular."""
    rng = random.Random(seed)
    if bits is None:
        bits = [rng.randint(0, 1) for _ in spec.block_sizes]
    for draws in count(1):
        s = Matrix.identity(spec.r) + random_commutant_element(spec, rng)
        if s.rank() == spec.r:
            return s @ block_choice_projector(spec, bits) @ s.inverse(), rng.getstate(), draws > 1


@pytest.mark.parametrize("case", range(len(EXACT_CASES)))
def test_exact_sampling_matches_the_full_conjugation(case, monkeypatch):
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(commutant, "random", SimpleNamespace(Random=Recorded))
    spec, bit_rng = make_spec(EXACT_CASES[case]), random.Random(case)
    for seed in range(60):
        for bits in (None, [bit_rng.randint(0, 1) for _ in spec.block_sizes]):
            t, state, redrawn = _replayed_exact_t(spec, seed, bits)
            if bits is None and (case, seed) in SINGULAR_FIRST_S:
                assert redrawn
            cp = sample_delta_projector(spec, seed, block_choices=bits)
            assert made.pop().getstate() == state
            assert cp.expand().key() == t.key()
            assert projector_to_obj(cp) == projector_to_obj(CommutantProjector.read(spec, t))
            # the sampler checks T^2 = T on the determining rows only; the
            # public checks must pass on every sample it returns
            assert CommutantProjector.from_matrix(spec, cp.expand()) == cp
            assert delta_membership(cp.expand(), spec)


def _perturbed(cp, rng):
    """cp with one core coefficient of its grid moved by 1 or -i."""
    blocks = [[list(map(list, row)) for row in grid] for grid in cp.blocks]
    coeffs = rng.choice([c for grid in blocks for row in grid for c in row])
    x = rng.randrange(len(coeffs))
    coeffs[x] += rng.choice([1, -1j]) if cp.spec.mode == FLOAT else QQi(*rng.choice([(1, 0),
                                                                                      (0, -1)]))
    return CommutantProjector(cp.spec, tuple(tuple(tuple(map(tuple, row)) for row in grid)
                                             for grid in blocks))


@pytest.mark.parametrize("case", range(len(EXACT_CASES)))
def test_row_idempotence_agrees_with_is_projector(case):
    spec, rng = make_spec(EXACT_CASES[case]), random.Random(case)
    seen = set()
    for seed in range(20):
        cp = sample_delta_projector(spec, seed)
        perturbed = _perturbed(cp, rng)
        element = random_commutant_element(spec, rng)
        bits = [rng.randint(0, 1) for _ in spec.block_sizes]
        for m in (element, Matrix.identity(spec.r) + element, cp.expand(),
                  perturbed.expand(), block_choice_projector(spec, bits)):
            seen.add(is_projector(m))
            assert (commutant._delta_span(spec, m) is not None) == is_projector(m)
    assert seen == {False, True}


def test_projector_keeps_one_form_and_makes_the_other_once():
    spec = make_spec([(2, [2, 1]), (3, [1])])
    t = sample_delta_projector(spec, 4).expand()
    cp = CommutantProjector.from_matrix(spec, t)
    assert cp._blocks is None and cp.blocks is cp.blocks
    assert cp.expand() is t
    built = CommutantProjector(spec, cp.blocks)
    assert built._matrix is None and built.expand() is built.expand()
    assert built.expand() == t and built == cp and repr(built) == repr(cp)
    with pytest.raises(AttributeError):
        cp.spec = spec


@pytest.mark.parametrize("cut", [
    lambda blocks: blocks[:1],                               # one eigenvalue's grid
    lambda blocks: [blocks[0][:1], blocks[1]],               # one row of a grid
    lambda blocks: [[[blocks[0][0][0][:1]] + blocks[0][0][1:], blocks[0][1]],
                    blocks[1]],                              # a 2x2 core's coefficient
], ids=["missing-grid", "missing-row", "short-core"])
def test_projector_json_rejects_a_malformed_grid(cut):
    spec = make_spec([(2, [2, 1]), (3, [1])])
    obj = projector_to_obj(sample_delta_projector(spec, 3))
    assert projector_from_obj(obj).expand() == sample_delta_projector(spec, 3).expand()
    with pytest.raises(MalformedInput):
        projector_from_obj({"spec": obj["spec"], "blocks": cut(obj["blocks"])})


@pytest.mark.parametrize("cut", [
    lambda g: (((g[0][0][0][:1],) + g[0][0][1:], g[0][1]), g[1]),         # a coefficient short
    lambda g: (((g[0][0][0] + g[0][0][0][:1],) + g[0][0][1:], g[0][1]), g[1]),  # one too many
    lambda g: ((g[0][0],), g[1]),                                          # one row of a grid
    lambda g: g[:1],                                                       # one eigenvalue's grid
], ids=["short-cell", "long-cell", "missing-row", "missing-grid"])
def test_constructor_rejects_a_malformed_grid_at_expand(cut):
    spec = make_spec([(2, [2, 1]), (3, [1])])
    cp = sample_delta_projector(spec, 3)
    assert CommutantProjector(spec, cp.blocks).expand() == cp.expand()
    bad = CommutantProjector(spec, cut(cp.blocks))
    with pytest.raises(ShapeMismatch):
        bad.expand()


@st.composite
def _grids(draw):
    """A projector-shaped grid, not necessarily idempotent: an exact or float
    spec of 1-3 eigenvalues with 1-3 blocks of size <= 3 each, and
    Gaussian-integer core coefficients."""
    mode = draw(st.sampled_from([EXACT, FLOAT]))
    lams = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=3, unique=True))
    sizes = [sorted(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)), reverse=True)
             for _ in lams]
    scalar, part = (QQi if mode == EXACT else complex), st.integers(-3, 3)
    return CommutantProjector(make_spec(list(zip(lams, sizes)), mode=mode), tuple(
        tuple(tuple(tuple(scalar(draw(part), draw(part)) for _ in range(min(si, sk)))
                    for sk in s) for si in s) for s in sizes))


@given(_grids())
def test_grid_round_trips_through_its_matrix_and_json(cp):
    # the JSON reader returns the grid, or raises NotInDelta exactly when the
    # grid's matrix is not idempotent (Gaussian-integer grids: float
    # arithmetic is exact on them, so is_projector decides both modes)
    assert CommutantProjector.read(cp.spec, cp.expand()).blocks == cp.blocks
    obj = projector_to_obj(cp)
    if is_projector(cp.expand()):
        assert projector_from_obj(obj) == cp
    else:
        with pytest.raises(NotInDelta):
            projector_from_obj(obj)


@given(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3), min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_chart_spreads_and_gathers_both_modes_alike(sizes, rnd):
    # one chart in both modes: the gather reads back the coefficients that
    # the scatter wrote, and the exact and float scatters agree bit for bit
    pairs = [(lam, sorted(k, reverse=True)) for lam, k in zip((1, 2, 3), sizes)]
    exact, fl = make_spec(pairs), make_spec(pairs, mode=FLOAT)
    v = [(rnd.randint(-3, 3), rnd.randint(-3, 3))
         for _ in range(sum(min(i, k) for s in sizes for i in s for k in s))]
    assert commutant._gather(exact, commutant._spread(exact, v)) == (v, 1)
    vf = np.array([complex(*p) for p in v])
    got, d = commutant._gather(fl, commutant._spread(fl, vf))
    assert d == 1 and got.tobytes() == vf.tobytes()
    assert (commutant._spread(exact, v).to_float().array.tobytes()
            == commutant._spread(fl, vf).array.tobytes())


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_projector_json_rejects_a_non_idempotent_grid(mode):
    spec = make_spec([(2, [2, 1]), (3, [1])], mode=mode)
    rng, rejected = random.Random(0), 0
    for seed in range(12):
        cp = sample_delta_projector(spec, seed)
        assert projector_from_obj(projector_to_obj(cp)) == cp
        moved = _perturbed(cp, rng)
        if is_projector(moved.expand()):
            assert projector_from_obj(projector_to_obj(moved)) == moved
        else:
            rejected += 1
            with pytest.raises(NotInDelta):
                projector_from_obj(projector_to_obj(moved))
    assert rejected >= 6
    # a wrong shape is still malformed input, reported before idempotence
    with pytest.raises(MalformedInput):
        projector_from_obj({"spec": projector_to_obj(cp)["spec"], "blocks": []})


@pytest.mark.parametrize("rows, idempotent", [
    ([[2, 1e200], [0, 0]], False),
    ([[1, 1e160], [0, 1e-3]], False),
    ([[1, 1e200], [0, 0]], True),
    ([[1e160, 0], [0, 0]], False),
])
def test_projectors_whose_norm_overflows(rows, idempotent):
    # ||T||_F overflows, so the bound rel * ||T||_F^2 would pass every finite
    # ||T T - T||_F; every float projector check decides by approx_eq's rule
    # between T T and T there.  For diag(1e160, 0), T T itself overflows,
    # which numpy must not warn of.  J = I for two 1x1 blocks of one
    # eigenvalue, so every 2x2 matrix is in its commutant
    t = Matrix.floating(rows)
    spec = make_spec([(1, [1, 1])], mode=FLOAT)
    assert is_projector(t) == idempotent
    assert in_tau(t, Matrix.identity(2, FLOAT)) == idempotent
    assert delta_membership(t, spec) == idempotent
    obj = projector_to_obj(CommutantProjector.read(spec, t))
    if idempotent:
        assert projector_from_obj(obj).expand() == t
    else:
        with pytest.raises(NotInDelta):
            projector_from_obj(obj)


@pytest.fixture
def made_rngs(monkeypatch):
    """The random.Random instances that the commutant module makes, in order."""
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(commutant, "random", SimpleNamespace(Random=Recorded))
    return made


def _sampled_as_replayed(spec, seed, bits, made):
    """Whether the first S of sample_delta_projector(spec, seed, bits) was
    drawn again, once its T and rng state are checked against the replay."""
    t, state, redrawn = _replayed_exact_t(spec, seed, bits)
    cp = sample_delta_projector(spec, seed, block_choices=bits)
    assert made.pop().getstate() == state
    assert cp.expand().key() == t.key()
    return redrawn


@pytest.mark.parametrize("case", range(len(EXACT_CASES)))
def test_exact_sampling_with_uniform_eigenvalues_matches_the_full_conjugation(case, made_rngs):
    # an eigenvalue whose blocks are all kept or all dropped gets T = I or O
    # there with no solve; the others are solved.  Each mix of the two, and
    # the all-zero and all-one choices, give the full conjugation's T and
    # leave the rng where its draws do
    spec, rng = make_spec(EXACT_CASES[case]), random.Random(100 + case)
    l = len(spec.block_sizes)
    for seed in range(40):
        mixed = [b for e in spec.eigenvalues
                 for b in ([rng.randint(0, 1)] * e.t if rng.random() < 0.5
                           else [rng.randint(0, 1) for _ in e.sizes])]
        for bits in (mixed, [0] * l, [1] * l):
            _sampled_as_replayed(spec, seed, bits, made_rngs)
        assert sample_delta_projector(spec, seed, block_choices=[0] * l).expand().is_zero()
        assert (sample_delta_projector(spec, seed, block_choices=[1] * l).expand()
                == Matrix.identity(spec.r))


# the first S of this (spec, seed) is singular on the first eigenvalue's
# block only, and the second eigenvalue's block of it is nonsingular
UNIFORM_SINGULAR = ([(2, [3, 2]), (-2, [2, 1])], 8)


@pytest.mark.parametrize("bits", [[1, 1, 1, 0], [0, 0, 0, 1]])
def test_a_singular_uniform_block_draws_the_whole_s_again(bits, made_rngs):
    # the first eigenvalue's choice is uniform, so its T is I or O whatever
    # S is; S is still drawn again whole, and the mixed second eigenvalue is
    # solved from the second S
    pairs, seed = UNIFORM_SINGULAR
    spec = make_spec(pairs)
    rng, k = random.Random(seed), spec.eigenvalues[0].dim
    first = Matrix.identity(spec.r) + random_commutant_element(spec, rng)
    assert first.block(0, k, 0, k).rank() < k
    assert first.block(k, spec.r, k, spec.r).rank() == spec.r - k
    assert _sampled_as_replayed(spec, seed, bits, made_rngs)


_COEFFICIENT = st.tuples(st.integers(-1, 1), st.integers(0, 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4), st.data())
def test_size_classes_decide_invertibility(sizes, data):
    # one eigenvalue's commutant element is invertible iff, per distinct
    # block size, the leading coefficients of the cells between blocks of
    # that size form a nonsingular matrix.  Coefficients in {-1, 0, 1} +
    # {0, 1}i make about a quarter of the elements singular
    spec = make_spec([(1, sorted(sizes, reverse=True))])
    count = len(commutant._chart(spec)[2])
    s = data.draw(st.lists(_COEFFICIENT, min_size=count, max_size=count))
    (*_, classes), = commutant._chart(spec).parts
    dense = commutant._spread(spec, s)._intform[1]
    assert (commutant._size_classes_invertible(s, classes)
            == (len(_bareiss(dense, spec.r, spec.r)[1]) == spec.r))


@pytest.mark.parametrize("case", range(len(EXACT_CASES)))
def test_order_on_head_rows_agrees_with_proj_leq(case):
    # nested block choices under one seed give comparable projectors, and
    # two seeds mostly incomparable ones
    spec, rng = make_spec(EXACT_CASES[case]), random.Random(case)
    seen = set()
    for seed in range(10):
        hi = [rng.randint(0, 1) for _ in spec.block_sizes]
        lo = [b & rng.randint(0, 1) for b in hi]
        ts = [sample_delta_projector(spec, s, block_choices=bits).expand()
              for s, bits in ((seed, lo), (seed, hi), (seed + 1, hi))]
        for a in ts:
            for b in ts:
                seen.add(proj_leq(a, b))
                assert commutant._below_on_heads(spec, a, b) == proj_leq(a, b)
    assert seen == {False, True}


def test_sampling_one_large_block_solves_nothing():
    # one eigenvalue with one block of 127 and one of size 1: every block
    # choice is O or I per eigenvalue, so a sample costs its draws and the
    # writing of T, not a 127 x 127 elimination
    spec = make_spec([(1, [127]), (3, [1])])
    for seed in range(4):
        start = time.perf_counter()
        t = sample_delta_projector(spec, seed).expand()
        assert time.perf_counter() - start < 0.1
        kept = [not t.block(0, 127, 0, 127).is_zero(), not t.block(127, 128, 127, 128).is_zero()]
        assert t == block_choice_projector(spec, kept)
        assert commutant._delta_span(spec, t) is t


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([EXACT, FLOAT]),
       st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=4), min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_one_chart_holds_each_eigenvalue_part(mode, sizes, rnd):
    # each eigenvalue's part is the global chart on its block: its local
    # entries and heads moved by (o, o), its coefficients numbered from c0;
    # its core sizes are min(s_i, s_k) and its head rows the block starts
    sizes = [sorted(s, reverse=True) for s in sizes]
    spec = make_spec(list(zip((1, 2, 3), sizes)), mode=mode)
    chart, r = commutant._chart(spec), spec.r
    assert commutant._chart(spec) is chart
    coef, dst, head = (list(map(int, a)) for a in chart[:3])
    placed, v = 0, [(rnd.randint(-3, 3), rnd.randint(-3, 3)) for _ in head]
    assembled = [[(0, 0)] * r for _ in range(r)]
    o = c0 = 0
    for p, s in zip(chart.parts, sizes):
        def at(x):
            i, j = divmod(x, p.dim)
            return (p.o + i) * r + p.o + j

        assert (p.o, p.dim, p.c0) == (o, sum(s), c0)
        assert p.cores == [[min(a, b) for b in s] for a in s]
        assert p.heads == [sum(s[:i]) for i in range(len(s))]
        assert p.c1 - p.c0 == len(p.head) == sum(map(sum, p.cores))
        assert head[p.c0:p.c1] == list(map(at, p.head))
        assert dst[placed:placed + len(p.dst)] == list(map(at, p.dst))
        assert coef[placed:placed + len(p.coef)] == [c + p.c0 for c in p.coef]
        for i, row in enumerate(commutant._chart_rows(p.dim, p.coef, p.dst, v[p.c0:p.c1])):
            assembled[p.o + i][p.o:p.o + p.dim] = row
        placed, o, c0 = placed + len(p.dst), o + p.dim, p.c1
    assert (placed, o, c0) == (len(dst), r, len(head))
    # the exact scatter is the block-diagonal assembly of the parts' rows
    exact = make_spec(list(zip((1, 2, 3), sizes)))
    assert commutant._spread(exact, v) == Matrix.exact(assembled)


def _delta_inputs(pairs, rng):
    """Exact r x r matrices around Delta(J) of the spec of pairs: sampled
    projectors, their perturbed grids, random commutant elements (mostly
    not idempotent) and, for REGION_SPEC, idempotents one entry off the
    grid, with their conjugates by a commutant unit."""
    spec = make_spec(pairs)
    for seed in range(8):
        cp = sample_delta_projector(spec, seed)
        element = random_commutant_element(spec, rng)
        yield from (cp.expand(), _perturbed(cp, rng).expand(), element,
                    Matrix.identity(spec.r) + element)
    if pairs == REGION_SPEC:
        e = block_choice_projector(spec, REGION_BITS)
        s = Matrix.identity(spec.r) + random_commutant_element(spec, random.Random(5))
        for i, j in ((1, 3), (1, 4), (4, 0), (5, 2)):
            bad = e + Matrix.from_entries(spec.r, spec.r, [(i, j, (1, -2))], EXACT)
            yield from (bad, s @ bad @ s.inverse())


@pytest.mark.parametrize("pairs", [REGION_SPEC, *EXACT_CASES])
def test_one_delta_check_agrees_with_the_dense_rules(pairs):
    # _delta_span against delta_membership (T idempotent and T J = J T) and
    # against the rule it replaced (is_projector and the grid's span), on
    # exact inputs and their to_float()
    exact, seen = make_spec(pairs), set()
    twin = make_spec([(complex(e.lam), e.sizes) for e in exact.eigenvalues], mode=FLOAT)
    for t in _delta_inputs(pairs, random.Random(len(pairs))):
        for spec, m in ((exact, t), (twin, t.to_float())):
            mode = spec.mode
            member = delta_membership(m, spec)
            span = commutant._spread(spec, *commutant._gather(spec, m))
            assert member == (is_projector(m) and approx_eq(span, m))
            kept = commutant._delta_span(spec, m)
            assert (kept is not None) == member
            if member:
                assert kept is m if mode == EXACT else kept.array.tobytes() == span.array.tobytes()
            seen.add((mode, member))
    assert seen == {(EXACT, False), (EXACT, True), (FLOAT, False), (FLOAT, True)}


def test_exact_from_matrix_does_not_square_t():
    # T^2 = T is decided on the head rows: no r x r square is made or kept
    spec = make_spec(REGION_SPEC)
    t = sample_delta_projector(spec, 3).expand()
    t = Matrix.exact([t.row(i) for i in range(t.rows)])
    assert CommutantProjector.from_matrix(spec, t).expand() is t
    assert getattr(t, "_sq", None) is None


# float specs and seeds whose first nonsingular S is ill-conditioned: a T
# formed densely from S's inverse missed is_projector at the default
# tolerance there (with the LAPACK and BLAS these tests were written on), so
# they are kept to pin down the T that the per-eigenvalue solve gives
ILL_CONDITIONED_S = [([(1, [12, 12]), (3, [1])], 12), ([(1, [32]), (3, [1])], 52),
                     *(([(1, [48]), (3, [1])], seed) for seed in (17, 34, 40, 41))]


def _exact_ts(spec, seed):
    """S E S^-1 for each nonsingular S that sample_delta_projector(spec,
    seed) draws, in turn, by the full inverse and two products."""
    rng = random.Random(seed)
    e = block_choice_projector(spec, [rng.randint(0, 1) for _ in spec.block_sizes])
    while True:
        s = Matrix.identity(spec.r) + random_commutant_element(spec, rng)
        if s.rank() == spec.r:
            yield s @ e @ s.inverse()


@pytest.mark.parametrize("pairs, seed", ILL_CONDITIONED_S)
def test_float_sampler_draws_s_again_when_t_fails_the_check(pairs, seed, monkeypatch):
    # the exact sample is the first nonsingular S's T; the float T, solved
    # per eigenvalue, passes the check there too and is the same up to rounding
    spec, twin = make_spec(pairs, mode=FLOAT), make_spec(pairs)
    ts = _exact_ts(twin, seed)
    first = next(ts)
    assert sample_delta_projector(twin, seed).expand() == first
    t = sample_delta_projector(spec, seed).expand()
    assert delta_membership(t, spec)
    assert CommutantProjector.from_matrix(spec, t).expand() == t
    assert approx_eq(t, first.to_float())
    # a T that fails the check is drawn again: the next nonsingular S's T
    checked, check = [], commutant._delta_span

    def fails_first(spec, t, tol, heads=None):
        checked.append(t)
        return check(spec, t, tol) if len(checked) > 1 else None

    monkeypatch.setattr(commutant, "_delta_span", fails_first)
    again = sample_delta_projector(spec, seed).expand()
    assert len(checked) == 2 and approx_eq(checked[0], t)
    assert approx_eq(again, next(ts).to_float())


_SIZES = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(
    lambda sizes: sorted(sizes, reverse=True))


@settings(max_examples=60, deadline=None)
@given(st.lists(_SIZES, min_size=1, max_size=3), st.integers(0, 10 ** 6))
def test_float_samples_are_their_exact_twins(sizes, seed):
    # both modes make the same draws and decide singularity on them exactly,
    # so a float sample is its exact twin's written as floats, up to rounding
    pairs = list(zip(range(1, 4), sizes))
    spec, twin = make_spec(pairs, mode=FLOAT), make_spec(pairs)
    for k in range(seed, seed + 5):
        assert approx_eq(sample_delta_projector(spec, k).expand(),
                         sample_delta_projector(twin, k).expand().to_float(), DEFAULT_TOL)


@pytest.mark.parametrize("pairs, bits", [
    ([(1.0, [127]), (3.0, [1])], None),
    ([(float(k), [1]) for k in range(1, 129)], None),
    ([(1.0, [2, 1]), (2.0, [1])], [1, 0, 1]),
    ([(1.0, [2, 2]), (2.0, [3, 1]), (3.0, [1])], [0, 1, 1, 0, 1]),
    ([(1.0, [2] * 8)], [k % 2 for k in range(8)]),
])
def test_float_sampling_solves_only_mixed_eigenvalues(pairs, bits, monkeypatch):
    # no SVD and no dense inverse: one np.linalg.solve per eigenvalue whose
    # block choice is mixed, for each T checked (one per nonsingular S)
    calls = {}

    def counting(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((np.linalg, "svd"), (np.linalg, "solve"), (np.linalg, "inv"),
                        (commutant, "_delta_span")):
        counting(owner, name)
    spec = make_spec(pairs, mode=FLOAT)
    keep = commutant._block_diagonal(spec, bits or [0] * len(spec.block_sizes))
    mixed = sum(min(keep[p.o:p.o + p.dim]) != max(keep[p.o:p.o + p.dim])
                for p in commutant._chart(spec).parts)
    for seed in range(3):
        calls.update(svd=0, solve=0, inv=0, _delta_span=0)
        sample_delta_projector(spec, seed, block_choices=bits)
        assert calls == {"svd": 0, "solve": mixed, "inv": 0, "_delta_span": 1}


def test_float_sampler_draws_s_again_when_lapack_refuses_it(monkeypatch):
    # np.linalg.solve raises on an exactly zero pivot, which an S that is
    # exactly invertible can still meet in rounding: S is drawn again
    calls, solve = [], np.linalg.solve

    def refuses_first(a, b):
        calls.append(a)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", refuses_first)
    spec = make_spec([(1.0, [2, 1]), (2.0, [1])], mode=FLOAT)
    t = sample_delta_projector(spec, 0, block_choices=[1, 0, 1]).expand()
    assert len(calls) == 2 and delta_membership(t, spec)


def test_float_sampler_caps_the_t_checks(monkeypatch):
    # a tolerance that no float T meets ends in NotInDelta after
    # _FLOAT_DRAWS checks, not in an endless loop: here every check fails
    checked = []

    def failing(spec, t, tol, heads=None):
        checked.append(tol)

    monkeypatch.setattr(commutant, "_delta_span", failing)
    spec, tol = make_spec([(2.0, [2, 1]), (3.0, [1])], mode=FLOAT), Tolerance(rel=1e-300)
    with pytest.raises(NotInDelta):
        sample_delta_projector(spec, 0, block_choices=[1, 0, 1], tol=tol)
    assert checked == [tol] * commutant._FLOAT_DRAWS


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_specs_with_p_and_their_projectors_hash(mode):
    # a spec hashes on its eigenvalues, as its Matrix P is unhashable; a
    # projector hashes on (spec, blocks), also once read back from JSON
    rows = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    p = Matrix.exact(rows) if mode == EXACT else Matrix.floating(np.array(rows, dtype=complex))
    pairs = [(2, [2]), (3, [1])] if mode == EXACT else [(2.0, [2]), (3.0, [1])]
    spec = make_spec(pairs, P=p, mode=mode)
    twin = make_spec(pairs, P=p, mode=mode)
    assert spec == twin and hash(spec) == hash(twin)
    cp = sample_delta_projector(spec, 3)
    again = projector_from_obj(projector_to_obj(cp))
    assert again.spec.P is not None
    assert again == cp and hash(again) == hash(cp)
    assert {cp, sample_delta_projector(twin, 3), again} == {cp}


def test_values_holding_a_matrix_are_unhashable():
    # a decomposition and a solution family hold Matrix fields, which are
    # unhashable, so they declare themselves unhashable too; a spec and a
    # projector hash on their hashable fields
    spec = make_spec([(2, [1]), (3, [1])])
    for value in (hs_decompose(Matrix.identity(2, FLOAT)),
                  solve_jordan_commuting_projectors(Matrix.identity(2), spec)):
        assert not isinstance(value, Hashable)
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)
    cp = sample_delta_projector(spec, 1)
    assert isinstance(spec, Hashable) and isinstance(cp, Hashable)
    assert {spec: 1, cp: 2}[cp] == 2
