import random

import numpy as np
import pytest

from sharporder import (
    EXACT,
    FLOAT,
    Matrix,
    build_jordan_matrix,
    make_spec,
    spec_from_obj,
    spec_to_obj,
    validate_similarity,
    weyr_structure,
)
from sharporder.errors import (
    IncompleteSpectrum,
    InvalidSpec,
    MalformedInput,
    NotSupported,
    ZeroEigenvalue,
)
from sharporder.core import matrix_to_obj
from sharporder.scalars import QQi

from conftest import rand_exact_spec, rand_unimodular


def test_build_single_block():
    j = build_jordan_matrix(make_spec([(5, [2])]))
    assert j == Matrix.exact([[5, 1], [0, 5]])


def test_build_three_trivial_blocks():
    j = build_jordan_matrix(make_spec([(1, [1, 1, 1])]))
    assert j == Matrix.identity(3, EXACT)


def test_build_two_eigenvalues():
    j = build_jordan_matrix(make_spec([(2, [1]), (1, [1])]))
    assert j == Matrix.diag([2, 1], EXACT)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        make_spec([(0, [1])])
    with pytest.raises(InvalidSpec):
        make_spec([(1, [1, 2])])  # not descending
    with pytest.raises(InvalidSpec):
        make_spec([(1, [1]), (1, [2])])  # repeated eigenvalue


@pytest.mark.parametrize("sizes", [[2.5], [True], [1, False], "21", ["2", "1"],
                                   [np.float64(2.0)], [np.True_]])
def test_spec_sizes_must_be_integers(sizes):
    # sizes are never truncated or parsed: 2.5 is not 2, "21" is not (2, 1)
    with pytest.raises(InvalidSpec):
        make_spec([(1, sizes)])


def test_spec_sizes_accept_numpy_integers():
    sizes = make_spec([(1, [np.int64(2), np.int32(1)])]).eigenvalues[0].sizes
    assert sizes == (2, 1) and all(type(k) is int for k in sizes)


def test_weyr_identity():
    spec = weyr_structure(Matrix.identity(3, EXACT), [1])
    assert spec.s == 1
    assert spec.eigenvalues[0].sizes == (1, 1, 1)


def test_weyr_single_block():
    spec = weyr_structure(Matrix.exact([[5, 1], [0, 5]]), [5])
    assert spec.eigenvalues[0].sizes == (2,)


def test_weyr_mixed_sizes():
    m = Matrix.exact([[2, 1, 0], [0, 2, 0], [0, 0, 2]])
    spec = weyr_structure(m, [2])
    assert spec.eigenvalues[0].sizes == (2, 1)


def test_weyr_errors():
    with pytest.raises(IncompleteSpectrum):
        weyr_structure(Matrix.diag([1, 2], EXACT), [1])
    with pytest.raises(ZeroEigenvalue):
        weyr_structure(Matrix.identity(2, EXACT), [0])
    with pytest.raises(NotSupported):
        weyr_structure(Matrix.identity(2, FLOAT), [1])


def test_validate_similarity_examples():
    spec = make_spec([(5, [2])])
    m = build_jordan_matrix(spec)
    assert validate_similarity(Matrix.identity(2, EXACT), spec, m)
    spec2 = make_spec([(3, [1, 1])])
    p = Matrix.exact([[1, 1], [0, 1]])
    assert validate_similarity(p, spec2, Matrix.diag([3, 3], EXACT))
    assert not validate_similarity(Matrix.identity(2, EXACT), spec,
                                   Matrix.diag([5, 5], EXACT))


def test_weyr_round_trip_random():
    rnd = random.Random(17)
    for _ in range(25):
        spec = rand_exact_spec(rnd, max_s=2, max_t=2, max_size=2)
        j = build_jordan_matrix(spec)
        p = rand_unimodular(spec.r, rnd)
        m = p @ j @ p.inverse()
        got = weyr_structure(m, [e.lam for e in spec.eigenvalues])
        by_lam = {(e.lam.re, e.lam.im): e.sizes for e in got.eigenvalues}
        for e in spec.eigenvalues:
            assert by_lam[(e.lam.re, e.lam.im)] == e.sizes
        # geometric multiplicity equals the number of blocks
        for e in spec.eigenvalues:
            shifted = m - Matrix.identity(spec.r, EXACT).scale(e.lam)
            assert spec.r - shifted.rank() == e.t


def test_spec_json_round_trip():
    spec = make_spec([((1, 2), [2, 1]), (3, [1])],
                     P=Matrix.identity(4, EXACT))
    again = spec_from_obj(spec_to_obj(spec))
    assert again == spec
    with pytest.raises(MalformedInput):
        spec_from_obj({"eigenvalues": "nope"})


def test_spec_json_integer_eigenvalue_is_exact():
    # JSON integers are exact parts, as in exact matrix entries
    spec = spec_from_obj({"eigenvalues": [{"lambda": [2, 0], "sizes": [1]},
                                          {"lambda": ["1/2", -1], "sizes": [2]}],
                          "P": None})
    assert spec.mode == EXACT
    assert [e.lam for e in spec.eigenvalues] == [QQi(2), QQi("1/2", -1)]
    # one float part keeps the eigenvalue float
    for lam in ([2.0, 0], [2, 0.0], [2.5, -1.0]):
        spec = spec_from_obj({"eigenvalues": [{"lambda": lam, "sizes": [1]}]})
        assert spec.mode == FLOAT
        assert spec.eigenvalues[0].lam == complex(*lam)


def test_spec_json_rejects_mismatched_or_bad_parts():
    p_exact = matrix_to_obj(Matrix.identity(1, EXACT))
    p_float = matrix_to_obj(Matrix.identity(1, FLOAT))
    bad = [
        {"eigenvalues": [{"lambda": [2, 0], "sizes": [1]}], "P": p_float},
        {"eigenvalues": [{"lambda": [2.0, 0.0], "sizes": [1]}], "P": p_exact},
        {"eigenvalues": [{"lambda": ["2", 0.5], "sizes": [1]}]},
        {"eigenvalues": [{"lambda": [2, 0], "sizes": [1]}, {"lambda": [1.5, 0], "sizes": [1]}]},
        {"eigenvalues": [{"lambda": [float("nan"), 0.0], "sizes": [1]}]},
        {"eigenvalues": [{"lambda": [float("inf"), 0], "sizes": [1]}]},
        # sizes are a list of positive ints and parts are never JSON booleans
        {"eigenvalues": [{"lambda": [2, 0], "sizes": [2.5]}]},
        {"eigenvalues": [{"lambda": [2, 0], "sizes": ["2", "1"]}]},
        {"eigenvalues": [{"lambda": [2, 0], "sizes": "21"}]},
        {"eigenvalues": [{"lambda": [2, 0], "sizes": [True]}]},
        {"eigenvalues": [{"lambda": [2, 0], "sizes": [0]}]},
        {"eigenvalues": [{"lambda": [True, 0], "sizes": [1]}]},
        {"eigenvalues": [{"lambda": [2.0, False], "sizes": [1]}]},
        {"eigenvalues": [{"lambda": "12", "sizes": [1]}]},
    ]
    for obj in bad:
        with pytest.raises(MalformedInput):
            spec_from_obj(obj)
    assert spec_from_obj({"eigenvalues": [{"lambda": [2, 0], "sizes": [1]}],
                          "P": p_exact}).P == Matrix.identity(1, EXACT)
