"""Exact product predicates against their definitions, their error
precedence, and the sampler's one-product S E S^-1.

The reference for each predicate multiplies QQi scalars entry by entry, so
it shares nothing with the integer forms the library compares.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharporder import EXACT, FLOAT, Matrix, delta_membership, hs_decompose, make_spec
from sharporder.commutant import (
    CommutantProjector,
    block_choice_projector,
    projector_from_obj,
    projector_to_obj,
    random_commutant_element,
    sample_delta_projector,
)
from sharporder.core import in_tau, is_projector
from sharporder.equations import (
    jordan_family_member,
    solve_ep_commute_idempotent,
    solve_jordan_commuting_projectors,
    solve_xbx_family,
)
from sharporder.errors import (
    IndexTooLarge,
    MalformedInput,
    ModeMismatch,
    NonSquare,
    NotAPredecessor,
    NotInTau,
    NotSupported,
    PrecondViolated,
    ShapeMismatch,
    SingularityMismatch,
    WNotProjector,
)
from sharporder.ginv import index_le_one
from sharporder.hs import hs_from_obj
from sharporder.lattice import (
    complement_in_downset,
    interval_iso_backward,
    interval_iso_forward,
    meet_in_c2,
)
from sharporder.oracle import verify_glb
from sharporder.scalars import QQI_ZERO
from sharporder.sharp import (
    jordan_predecessors,
    phi,
    phi_inv_stack,
    proj_leq,
    sharp_leq,
    successor_form,
)

part = st.fractions(min_value=-3, max_value=3, max_denominator=4)
entry = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.tuples(part, part),
)
# a nonzero nudge that turns an identity into a near miss
nudge = st.one_of(st.sampled_from([1, -1, (0, 1)]), st.tuples(part, part)).filter(
    lambda x: x not in (0, (0, 0)))


def ref_mul(a, b):
    """a @ b as rows of QQi, one QQi product per term."""
    return [[sum((a[i, k] * b[k, j] for k in range(a.cols)), QQI_ZERO) for j in range(b.cols)]
            for i in range(a.rows)]


def rows(m):
    return [m.row(i) for i in range(m.rows)]


def ref_idempotent(m):
    return ref_mul(m, m) == rows(m)


def ref_proj_leq(t1, t2):
    return rows(t1) == ref_mul(t1, t2) == ref_mul(t2, t1)


def ref_sharp_leq(a, b):
    return ref_mul(a, a) == ref_mul(a, b) == ref_mul(b, a)


def block(draw, r, c):
    return Matrix.exact([[draw(entry) for _ in range(c)] for _ in range(r)]) if r \
        else Matrix.zeros(0, c)


@st.composite
def conjugator(draw, n):
    """(S, S^-1) for S = L U with unit triangular L and U: always invertible."""
    def unit(lower):
        return Matrix.exact([[1 if i == j else draw(entry) if (i > j) == lower else 0
                              for j in range(n)] for i in range(n)])
    s = unit(True) @ unit(False)
    return s, s.inverse()


def conjugate(s, s_inv, diag):
    return s @ Matrix.diag(diag, EXACT) @ s_inv


def perturb(draw, m):
    """m with one entry moved by a nonzero amount; nothing to move in 0x0."""
    if m.rows == 0:
        return m
    i = draw(st.integers(0, m.rows - 1))
    j = draw(st.integers(0, m.cols - 1))
    return m + Matrix.from_entries(m.rows, m.cols, [(i, j, draw(nudge))], EXACT)


@st.composite
def idempotent_pairs(draw):
    """(T1, T2): two idempotents S E S^-1 from one conjugator, with E1 <= E2
    half of the time, either of them nudged into a near miss, a plain
    random matrix, or M T2 (T2 M), for which T1 = T1 T2 (T1 = T2 T1) holds
    and the other equation as a rule does not; sizes 0..5."""
    n = draw(st.integers(0, 5))
    s, s_inv = draw(conjugator(n))
    bits2 = [draw(st.integers(0, 1)) for _ in range(n)]
    nested = draw(st.booleans())
    bits1 = [b & draw(st.integers(0, 1)) if nested else draw(st.integers(0, 1)) for b in bits2]
    t1, t2 = conjugate(s, s_inv, bits1), conjugate(s, s_inv, bits2)
    kind = draw(st.sampled_from(["exact", "miss1", "miss2", "random", "rows", "cols"]))
    if kind == "miss1":
        t1 = perturb(draw, t1)
    elif kind == "miss2":
        t2 = perturb(draw, t2)
    elif kind == "random":
        t1 = block(draw, n, n)
    elif kind == "rows":
        t1 = block(draw, n, n) @ t2
    elif kind == "cols":
        t1 = t2 @ block(draw, n, n)
    return t1, t2


@st.composite
def sharp_pairs(draw):
    """(A, B) = (S D1 S^-1, S D2 S^-1) with D1 keeping some of D2's entries
    (so A is below B) or its own, possibly nudged, or random."""
    n = draw(st.integers(0, 5))
    s, s_inv = draw(conjugator(n))
    d2 = [draw(entry) for _ in range(n)]
    if draw(st.booleans()):
        d1 = [x if draw(st.booleans()) else 0 for x in d2]
    else:
        d1 = [draw(entry) for _ in range(n)]
    a, b = conjugate(s, s_inv, d1), conjugate(s, s_inv, d2)
    kind = draw(st.sampled_from(["exact", "miss", "random"]))
    if kind == "miss":
        a = perturb(draw, a)
    elif kind == "random":
        a, b = block(draw, n, n), block(draw, n, n)
    return a, b


@settings(max_examples=80, deadline=None)
@given(idempotent_pairs())
def test_is_projector_and_proj_leq_match_definitions(pair):
    t1, t2 = pair
    assert is_projector(t1) == ref_idempotent(t1)
    assert is_projector(t2) == ref_idempotent(t2)
    assert proj_leq(t1, t2) == ref_proj_leq(t1, t2)
    assert proj_leq(t2, t1) == ref_proj_leq(t2, t1)


@settings(max_examples=80, deadline=None)
@given(idempotent_pairs(), st.data())
def test_in_tau_matches_definition(pair, data):
    t, other = pair
    n = t.rows
    # a polynomial in the idempotent T2 (commutes with T2), T2 itself, or a
    # random matrix (commutes with neither, as a rule)
    a, b = data.draw(entry), data.draw(entry)
    sk = data.draw(st.sampled_from([
        Matrix.identity(n).scale(a) + other.scale(b), other, block(data.draw, n, n)]))
    for x, y in ((t, sk), (other, sk), (other, t)):
        expected = ref_idempotent(x) and ref_mul(x, y) == ref_mul(y, x)
        assert in_tau(x, y) == expected


@settings(max_examples=80, deadline=None)
@given(sharp_pairs())
def test_sharp_leq_matches_definition(pair):
    # the index test itself is checked against sympy in test_elimination;
    # the third call reads A^2 and both index verdicts as A and B kept them
    a, b = pair
    for x, y in ((a, b), (b, a), (a, b)):
        if index_le_one(x) and index_le_one(y):
            assert sharp_leq(x, y) == ref_sharp_leq(x, y)
        else:
            with pytest.raises(IndexTooLarge):
                sharp_leq(x, y)


# ----------------------------------------------------------------------
# error precedence: each predicate checks its operands once, before any
# entry is read (NonSquare for a T that is to be idempotent, and for either
# argument of sharp_leq, then ModeMismatch, then ShapeMismatch), so the
# error does not depend on the entries

E2, E3, F2 = Matrix.identity(2), Matrix.identity(3), Matrix.identity(2, FLOAT)
WIDE, WIDE_F = Matrix.zeros(2, 3), Matrix.zeros(2, 3, FLOAT)
SPEC, SPEC_F = make_spec([(1, [1, 1])]), make_spec([(1, [1, 1])], mode=FLOAT)
# for the constructions on the predicates: one block per eigenvalue, and the
# decomposition of diag(1, 0), whose core block SK is [1]
SPEC_2 = make_spec([(1, [1]), (2, [1])])
HS_F = hs_decompose(Matrix.floating([[1, 0], [0, 0]]))
NOT_IDEMPOTENT = Matrix.exact([[2, 0], [0, 0]])

RAISES = [
    (is_projector, (WIDE,), NonSquare),
    (is_projector, (WIDE_F,), NonSquare),
    (in_tau, (WIDE, E2), NonSquare),
    (in_tau, (E2, F2), ModeMismatch),
    (in_tau, (F2, E2), ModeMismatch),
    (in_tau, (E2, E3), ShapeMismatch),
    (in_tau, (E2, WIDE), ShapeMismatch),
    (in_tau, (E2, WIDE.T), ShapeMismatch),
    (proj_leq, (E2, F2), ModeMismatch),
    (proj_leq, (F2, E2), ModeMismatch),
    (proj_leq, (E2, E3), ShapeMismatch),
    (proj_leq, (WIDE, E2), ShapeMismatch),
    (proj_leq, (Matrix.exact([[1, 0, 0], [0, 0, 0]]), E3), ShapeMismatch),
    (sharp_leq, (F2, E2), ModeMismatch),
    (sharp_leq, (E2, F2), ModeMismatch),
    (sharp_leq, (E2, E3), ShapeMismatch),
    (sharp_leq, (WIDE, E2), NonSquare),
    (sharp_leq, (WIDE_F, F2), NonSquare),
    (sharp_leq, (F2, Matrix.identity(3, FLOAT)), ShapeMismatch),
    (delta_membership, (WIDE, SPEC), ShapeMismatch),
    (delta_membership, (WIDE_F, SPEC_F), ShapeMismatch),
    (delta_membership, (E3, SPEC), ShapeMismatch),
    (delta_membership, (E2, SPEC_F), MalformedInput),
    # the entries alone would decide these False before the bad operand is
    # reached: a T that is not idempotent, and a T1 with T1 = T1 T2
    (in_tau, (Matrix.exact([[2, 0], [0, 0]]), F2), ModeMismatch),
    (proj_leq, (Matrix.exact([[1, 0, 0], [0, 0, 0]]), Matrix.zeros(3, 3)), ShapeMismatch),
    # the preconditions of the constructions built on the predicates
    (CommutantProjector.from_matrix, (SPEC, E3), ShapeMismatch),
    (projector_from_obj, ({},), MalformedInput),
    (hs_from_obj, ({},), MalformedInput),
    (solve_ep_commute_idempotent, (HS_F, Matrix.identity(1, FLOAT), F2), WNotProjector),
    (solve_xbx_family, (HS_F, Matrix.floating([[2]])), NotInTau),
    (solve_jordan_commuting_projectors, (F2, SPEC_2), SingularityMismatch),
    (jordan_family_member, (solve_jordan_commuting_projectors(E2, SPEC_2), NOT_IDEMPOTENT),
     NotInTau),
    (complement_in_downset, (E3, 2), ShapeMismatch),
    (interval_iso_forward, (NOT_IDEMPOTENT, E2, E2), PrecondViolated),
    (interval_iso_backward, (Matrix.zeros(2, 2), E2), PrecondViolated),
    (meet_in_c2, (E3, E3), NonSquare),
    (verify_glb, (F2, E2, E2, []), NotSupported),
    # T = [1] is in tau, but U [[T SK, T SL], [O, O]] U* is diag(1, 0), not I
    (phi, (F2, HS_F), NotAPredecessor),
    (phi_inv_stack, (np.zeros((1, 2, 2), dtype=complex), HS_F), ShapeMismatch),
    (jordan_predecessors, (E3, SPEC_2, 2), ShapeMismatch),
    (jordan_predecessors, (Matrix.identity(1), SPEC_2, 1), ShapeMismatch),
    (successor_form, (E3, E3, SPEC_2, E2), ShapeMismatch),
]


@pytest.mark.parametrize("fn, args, exc", RAISES,
                         ids=[f"{f.__name__}-{i}" for i, (f, _, _) in enumerate(RAISES)])
def test_predicate_errors(fn, args, exc):
    with pytest.raises(exc):
        fn(*args)


def test_index_two_results_are_false():
    # an index-2 candidate is no glb, and an index-2 B = diag(J, X) lies
    # above nothing
    nil = Matrix.exact([[0, 1], [0, 0]])
    assert verify_glb(nil, E2, E2, []) is False
    a = Matrix.diag([1, 2, 0, 0])
    assert successor_form(a, Matrix.identity(4), SPEC_2, nil)[1] is False


def test_shape_checked_before_integer_forms():
    a, b = Matrix.exact([[1, 0], [0, 0]]), Matrix.exact([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    for fn in (proj_leq, sharp_leq, in_tau):
        with pytest.raises(ShapeMismatch):
            fn(a, b)


# ----------------------------------------------------------------------
# the sampler against S E S^-1 with E as a matrix

SAMPLER_SPECS = [
    [(1, [2]), (2, [1])],          # one block per eigenvalue
    [(1, [2, 1]), (-1, [1])],      # two blocks
    [(2, [1, 1, 1]), (3, [2])],    # three blocks
    [(-1, [2, 2, 1, 1])],          # four blocks
    [(2, [2, 1]), (-2, [1, 1])],   # two eigenvalues: S has a 3x3 and a 2x2 block
]


def reference_sample(spec, seed, block_choices=None):
    """sample_delta_projector's draws on an exact spec, replayed, with
    T = S E S^-1 from two products."""
    rng = random.Random(seed)
    bits = ([rng.randint(0, 1) for _ in spec.block_sizes] if block_choices is None
            else list(block_choices))
    ident = Matrix.identity(spec.r, spec.mode)
    while True:
        s = ident + random_commutant_element(spec, rng)
        if s.rank() == spec.r:
            break
    return s @ block_choice_projector(spec, bits) @ s.inverse()


@pytest.mark.parametrize("pairs", SAMPLER_SPECS)
def test_sampler_exact_equals_reference(pairs):
    spec = make_spec(pairs)
    for seed in range(12):
        assert sample_delta_projector(spec, seed).expand() == reference_sample(spec, seed)
    bits = [k % 2 for k in range(len(spec.block_sizes))]
    assert (sample_delta_projector(spec, 5, block_choices=bits).expand()
            == reference_sample(spec, 5, bits))


def test_sampler_draws_again_after_singular_s():
    # seed 25 draws a singular S first for this spec, so the exact sampler
    # must catch the SingularMatrix of its inverse and draw again
    spec, seed = make_spec(SAMPLER_SPECS[0]), 25
    rng = random.Random(seed)
    for _ in spec.block_sizes:
        rng.randint(0, 1)
    first = Matrix.identity(spec.r) + random_commutant_element(spec, rng)
    assert first.rank() < spec.r
    assert sample_delta_projector(spec, seed).expand() == reference_sample(spec, seed)


def test_sampler_draws_whole_s_again_after_one_singular_block():
    # seed 7 first draws an S whose first eigenvalue's block is invertible
    # and whose second is not: the sampler inverts S block by block, and
    # must then draw the whole S again, not only the singular block
    spec, seed = make_spec(SAMPLER_SPECS[4]), 7
    rng = random.Random(seed)
    for _ in spec.block_sizes:
        rng.randint(0, 1)
    first = Matrix.identity(spec.r) + random_commutant_element(spec, rng)
    k = spec.eigenvalues[0].dim
    assert first.block(0, k, 0, k).rank() == k
    assert first.block(k, spec.r, k, spec.r).rank() < spec.r - k
    assert sample_delta_projector(spec, seed).expand() == reference_sample(spec, seed)


@pytest.mark.parametrize("pairs", SAMPLER_SPECS)
def test_sampler_float_bit_for_bit(pairs):
    # bit for bit: a float sample's JSON reads back to the same text, and
    # the text tells -0.0 from 0.0.  As the sampler solves per eigenvalue,
    # its values are the reference sample of its exact twin (the same block
    # sizes and seed) up to rounding, here within 1e-13 max(1, ||T||_F)
    spec, twin = make_spec(pairs, mode=FLOAT), make_spec(pairs)
    for seed in range(12):
        cp = sample_delta_projector(spec, seed)
        want = reference_sample(twin, seed).to_float()
        assert (cp.expand() - want).fro() <= 1e-13 * max(1.0, want.fro())
        got = json.dumps(projector_to_obj(cp))
        assert json.dumps(projector_to_obj(projector_from_obj(json.loads(got)))) == got


def test_sampler_rejects_wrong_bit_count():
    with pytest.raises(ShapeMismatch):
        sample_delta_projector(make_spec([(1, [2, 1])]), 0, block_choices=[1])
