import random

import numpy as np
import pytest

from sharporder import (
    EXACT,
    FLOAT,
    Matrix,
    QQi,
    is_projector,
    admissible_ranks,
    build_jordan_matrix,
    delta_membership,
    make_spec,
    projector_from_obj,
    projector_to_obj,
    rutm_idempotents,
    sample_delta_projector,
)
from sharporder.commutant import (
    CommutantProjector,
    CullenBlock,
    RUTM,
    block_choice_projector,
    random_commutant_element,
)
from sharporder.errors import InvalidSpec, MalformedInput, ModeMismatch, NotInDelta
from sharporder.sharp import proj_leq


def test_rutm_idempotents_sizes():
    for size in (1, 2, 3):
        got = rutm_idempotents(size)
        assert got == {RUTM.zero(size), RUTM.identity(size)}
    with pytest.raises(InvalidSpec):
        rutm_idempotents(0)


def test_rutm_expand():
    from sharporder import QQi

    r = RUTM(3, (QQi(1), QQi(2), QQi(3)))
    assert r.expand() == Matrix.exact([[1, 2, 3], [0, 1, 2], [0, 0, 1]])


def test_expand_identity_and_zero():
    spec = make_spec([(2, [2, 1]), (3, [1])])
    from sharporder.lattice import boolean_center

    center = boolean_center(spec)
    mats = sorted((cp.expand().rank() for cp in center))
    assert mats == [0, 1, 3, 4]
    assert any(cp.expand() == Matrix.zeros(4, 4, EXACT) for cp in center)
    assert any(cp.expand() == Matrix.identity(4, EXACT) for cp in center)


def test_expand_partial_identity():
    # single eigenvalue, sizes [2,1]: identity RUTM in the top-left cell only
    spec = make_spec([(7, [2, 1])])
    grid = ((CullenBlock(2, 2, RUTM.identity(2)), CullenBlock(2, 1, RUTM.zero(1))),
            (CullenBlock(1, 2, RUTM.zero(1)), CullenBlock(1, 1, RUTM.zero(1))))
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
    # and structurally: RUTM idempotents are only O and I
    assert len(rutm_idempotents(3)) == 2


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
    (i, k) of an eigenvalue is its RUTM core X, on top of zeros when tall
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
        cp = CommutantProjector(spec, tuple(
            tuple(tuple(CullenBlock(si, sk, RUTM(min(si, sk), tuple(c)))
                        for sk, c in zip(e.sizes, row))
                  for si, row in zip(e.sizes, grid))
            for e, grid in zip(spec.eigenvalues, grids)))
        got = cp.expand()
        assert got.mode == mode
        assert got == _reference_expand(spec, grids, mode)
        # and every cell, expanded alone, is the matching slice
        off = 0
        for e, cgrid in zip(spec.eigenvalues, cp.blocks):
            starts = [off + sum(e.sizes[:i]) for i in range(e.t)]
            for i in range(e.t):
                for k in range(e.t):
                    assert cgrid[i][k].expand(mode) == got.block(
                        starts[i], starts[i] + e.sizes[i], starts[k], starts[k] + e.sizes[k])
            off += e.dim


def test_cullen_cell_expand_sides():
    core = RUTM(2, (QQi(1), QQi(2)))
    assert CullenBlock(3, 2, core).expand(EXACT) == Matrix.exact([[1, 2], [0, 1], [0, 0]])
    assert CullenBlock(2, 3, core).expand(EXACT) == Matrix.exact([[0, 1, 2], [0, 0, 1]])
    assert CullenBlock(2, 3, core).expand(FLOAT) == Matrix.floating([[0, 1, 2], [0, 0, 1]])
    assert RUTM(0, ()).expand() == Matrix.zeros(0, 0, EXACT)


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
