import json
import random
import sys
import warnings
from math import inf, isfinite

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharporder import (
    EXACT,
    FLOAT,
    Matrix,
    Tolerance,
    approx_eq,
    extend_to_nonsingular,
    hs_decompose,
    is_projector,
    matrix_dumps,
    matrix_from_obj,
    matrix_loads,
    matrix_to_obj,
    singular_values,
    svd,
)
from sharporder.core import numerical_rank
from sharporder.floatmatrix import _fro, _fros
from sharporder.errors import (
    MalformedInput,
    ModeMismatch,
    NonSquare,
    NotSupported,
    ShapeMismatch,
    SingularMatrix,
)
from sharporder.scalars import QQi


def test_rank_identity():
    assert Matrix.identity(3, EXACT).rank() == 3
    assert Matrix.identity(3, FLOAT).rank() == 3


def test_rank_proportional_rows():
    assert Matrix.exact([[1, 1], [0, 0]]).rank() == 1
    assert Matrix.floating([[1, 1], [0, 0]]).rank() == 1


def test_rank_equal_rows():
    assert Matrix.exact([[1, 1], [1, 1]]).rank() == 1


def test_rank_zero():
    assert Matrix.zeros(3, 3, EXACT).rank() == 0
    assert Matrix.zeros(3, 3, FLOAT).rank() == 0
    for shape in ((0, 0), (0, 3), (3, 0), (2, 0)):
        assert Matrix.zeros(*shape, EXACT).rank() == 0
        assert Matrix.zeros(*shape, FLOAT).rank() == 0
    # zero-size matrices from the entry writer keep their shape in both modes
    for mode in (EXACT, FLOAT):
        for m, shape in ((Matrix.zeros(0, 3, mode), (0, 3)), (Matrix.zeros(2, 0, mode), (2, 0)),
                         (Matrix.identity(0, mode), (0, 0))):
            assert (m.rows, m.cols, m.mode) == (*shape, mode)
            assert m == Matrix.from_entries(*shape, [], mode)
            if mode == FLOAT:
                assert m.array.shape == shape
            else:
                assert [m.row(i) for i in range(m.rows)] == [[]] * m.rows


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_negative_sizes_are_malformed_in_both_modes(mode):
    # one refusal in both modes, as the JSON reader's: no -1 x 2 exact
    # matrix, no numpy ValueError, no 0 x 0 identity for a negative n
    for make in (lambda: Matrix.zeros(-1, 2, mode), lambda: Matrix.zeros(2, -1, mode),
                 lambda: Matrix.identity(-1, mode), lambda: Matrix.from_entries(-2, -2, [], mode)):
        with pytest.raises(MalformedInput):
            make()


def test_is_projector_diag():
    assert is_projector(Matrix.exact([[1, 0], [0, 0]]))
    assert is_projector(Matrix.floating([[1, 0], [0, 0]]))


def test_is_projector_nondiagonal():
    # [[0,1],[0,1]] squares to itself
    assert is_projector(Matrix.exact([[0, 1], [0, 1]]))


def test_is_projector_nilpotent():
    assert not is_projector(Matrix.exact([[0, 1], [0, 0]]))


def test_is_projector_requires_square():
    with pytest.raises(NonSquare):
        is_projector(Matrix.exact([[1, 0]]))


def test_svd_identity():
    _, sigma, _ = svd(Matrix.identity(2, FLOAT))
    assert sigma == [1.0, 1.0]


def test_svd_single_shift():
    _, sigma, _ = svd(Matrix.floating([[0, 2], [0, 0]]))
    assert sigma[0] == pytest.approx(2.0)
    assert sigma[1] == pytest.approx(0.0, abs=1e-12)


def test_svd_zero():
    _, sigma, _ = svd(Matrix.zeros(2, 2, FLOAT))
    assert sigma == [0.0, 0.0]


def test_svd_rejects_exact():
    with pytest.raises(NotSupported):
        svd(Matrix.identity(2, EXACT))


def test_svd_random_reconstruction():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        nr = rng.integers(1, 9)
        nc = rng.integers(1, 9)
        a = rng.standard_normal((nr, nc)) + 1j * rng.standard_normal((nr, nc))
        if rng.random() < 0.3:
            a[:, rng.integers(0, nc)] = 0.0
        m = Matrix.floating(a)
        u, sigma, v = svd(m)
        s = np.zeros((nr, nc), dtype=complex)
        for i, x in enumerate(sigma):
            s[i, i] = x
        err = np.linalg.norm(u.array @ s @ v.array.conj().T - a)
        worst = max(worst, err / max(1.0, np.linalg.norm(a)))
        assert np.allclose(u.array.conj().T @ u.array, np.eye(nr), atol=1e-10)
        assert np.allclose(v.array.conj().T @ v.array, np.eye(nc), atol=1e-10)
        assert sigma == sorted(sigma, reverse=True)
    assert worst <= 1e-9


def test_svd_matches_numpy_singular_values():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        ours = singular_values(Matrix.floating(a))
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(ours, ref, atol=1e-9)


def test_svd_phase_convention():
    rng = np.random.default_rng(13)
    for nr, nc, rank in [(5, 5, 5), (5, 5, 2), (7, 3, 3), (7, 3, 1),
                         (3, 7, 3), (3, 7, 2), (4, 4, 0)]:
        a = (rng.standard_normal((nr, rank)) + 1j * rng.standard_normal((nr, rank))) \
            @ (rng.standard_normal((rank, nc)) + 1j * rng.standard_normal((rank, nc)))
        u, sigma, v = svd(Matrix.floating(a))
        vv = v.array
        for j in range(nc):
            col = vv[:, j]
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert lead.real > 0.0 and abs(lead.imag) <= 1e-15 * lead.real
        s = np.zeros((nr, nc), dtype=complex)
        s[range(len(sigma)), range(len(sigma))] = sigma
        assert np.linalg.norm(u.array @ s @ vv.conj().T - a) <= 1e-12 * max(1.0, np.linalg.norm(a))
        assert sum(1 for x in sigma if x > 0.0) == rank


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
def test_svd_rejects_non_finite(bad):
    a = np.eye(3, dtype=complex)
    a[1, 2] = bad
    m = Matrix.floating(a)
    with pytest.raises(MalformedInput):
        svd(m)
    with pytest.raises(MalformedInput):
        singular_values(m)
    with pytest.raises(MalformedInput):
        m.rank()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 9), st.integers(-3, 3),
       st.integers(0, 2 ** 32 - 1))
def test_singular_values_match_full_svd(nr, nc, rank, scale, seed):
    # square, tall and wide shapes, full rank or rank-deficient products
    rank = min(rank, nr, nc)
    rng = np.random.default_rng(seed)
    a = ((rng.standard_normal((nr, rank)) + 1j * rng.standard_normal((nr, rank)))
         @ (rng.standard_normal((rank, nc)) + 1j * rng.standard_normal((rank, nc))))
    m = Matrix.floating(a * 10.0 ** scale)
    ours, full = singular_values(m), svd(m)[1]
    assert len(ours) == len(full) == min(nr, nc)
    assert all(type(x) is float for x in ours)
    assert ours == sorted(ours, reverse=True)
    top = full[0] if full else 0.0
    assert all(abs(x - y) <= 1e-14 * top for x, y in zip(ours, full))
    assert numerical_rank(ours) == numerical_rank(full) == m.rank() == rank


def test_singular_values_edges():
    for nr, nc in [(0, 0), (0, 3), (2, 0)]:
        assert singular_values(Matrix.zeros(nr, nc, FLOAT)) == []
    for m in (Matrix.identity(2, EXACT), Matrix.zeros(0, 0, EXACT)):
        with pytest.raises(NotSupported):
            singular_values(m)
    assert singular_values(Matrix.zeros(2, 3, FLOAT)) == [0.0, 0.0]
    # values at or below 1e-14 sigma_1 are reported as exactly 0.0
    assert singular_values(Matrix.floating(np.diag([1.0, 1e-15, 2e-14]))) == [1.0, 2e-14, 0.0]


def test_fro_bit_equal_to_numpy_norm():
    rng = np.random.default_rng(17)
    for nr, nc in [(1, 1), (3, 5), (8, 8), (13, 4)]:
        m = Matrix.floating(rng.standard_normal((nr, nc)) + 1j * rng.standard_normal((nr, nc)))
        views = [m, m.T, m.H, m.block(1 % nr, nr, 0, nc - 1), m.T.block(0, nc, 1 % nr, nr)]
        for v in views:
            assert v.fro() == float(np.linalg.norm(v.array))
    assert Matrix.zeros(0, 4, FLOAT).fro() == 0.0


def test_stacked_norms_equal_fro_bit_for_bit():
    # one batched dot per part for a whole stack, as _fro's dot per slice; a
    # slice whose norm overflows reads inf, also where warnings are errors
    rng = np.random.default_rng(19)
    for k, r in [(0, 3), (3, 0), (1, 3), (12, 16), (12, 5)]:
        xs = rng.standard_normal((k, r, r)) + 1j * rng.standard_normal((k, r, r))
        assert _fros(xs) == [_fro(x) for x in xs]
    xs[1] *= 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norms = _fros(xs)
    assert norms == [_fro(x) for x in xs] and norms[1] == inf and isfinite(norms[0])


def test_approx_eq_examples():
    i2 = Matrix.identity(2, FLOAT)
    assert approx_eq(i2, i2)
    bumped = Matrix.floating([[1 + 1e-15, 0], [0, 1]])
    assert approx_eq(i2, bumped)
    assert not approx_eq(i2, i2.scale(2))


@pytest.mark.parametrize("x, y, want", [
    ([[1e200, 0]], [[3e200, 0]], False),
    ([[1e300, 0]], [[-1e300, 0]], False),
    ([[1e300, 0]], [[1e300, 0]], True),
])
def test_approx_eq_when_a_norm_overflows(x, y, want):
    # the norms overflow (numpy warns of that), so the rule is decided on
    # copies scaled by the largest part of an entry
    x, y = Matrix.floating(x), Matrix.floating(y)
    with np.errstate(over="ignore"):
        assert not np.isfinite(x.fro())
        assert approx_eq(x, y) == want


def test_overflowing_norms_decide_when_warnings_are_errors():
    # numpy's overflow warning from the norms is an error here, and no
    # errstate silences it: _fro reads the overflowed norm as inf, so both
    # rules still decide
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert not approx_eq(Matrix.floating([[1e200, 0]]), Matrix.floating([[3e200, 0]]))
        assert is_projector(Matrix.floating([[1, 1e300], [0, 0]]))


def test_approx_eq_mode_mismatch():
    with pytest.raises(ModeMismatch):
        approx_eq(Matrix.identity(2, EXACT), Matrix.identity(2, FLOAT))
    with pytest.raises(ShapeMismatch):
        approx_eq(Matrix.identity(2, FLOAT), Matrix.identity(3, FLOAT))


def test_exact_inverse_round_trip():
    m = Matrix.exact([[1, 2], [3, 5]])
    assert m @ m.inverse() == Matrix.identity(2, EXACT)


def test_singular_inverse_raises():
    with pytest.raises(SingularMatrix):
        Matrix.exact([[1, 1], [1, 1]]).inverse()


def test_float_diag_and_identity_match_from_entries():
    for values in ([], [1], [2.5, 0, -1j, 3 + 4j], [1, 0, 0, 1, 1]):
        n = len(values)
        want = Matrix.from_entries(n, n, ((i, i, v) for i, v in enumerate(values)), FLOAT)
        assert Matrix.diag(values, FLOAT).array.tobytes() == want.array.tobytes()
        ones = Matrix.from_entries(n, n, ((i, i, 1) for i in range(n)), FLOAT)
        assert Matrix.identity(n, FLOAT).array.tobytes() == ones.array.tobytes()


def test_float_matrix_keeps_inverse_and_singular_values():
    # the kept facts are those of a fresh matrix over a copy of the array,
    # bit for bit, and later calls return them
    rng = np.random.default_rng(29)
    for n in (1, 3, 8):
        m = Matrix.floating(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        inv, sigma = m.inverse(), singular_values(m)
        fresh = Matrix.floating(m.array.copy())
        assert inv.array.tobytes() == fresh.inverse().array.tobytes()
        assert np.array(sigma).tobytes() == np.array(singular_values(fresh)).tobytes()
        assert m.inverse() is inv and m.rank() == n
        # the caller owns the list it was given
        sigma[0] = -1.0
        sigma.append(7.0)
        assert singular_values(m) == singular_values(fresh)
        assert singular_values(m) is not singular_values(m)


def test_exact_matrix_keeps_inverse():
    # the kept inverse is that of a fresh equal matrix, later calls return
    # it, and equality, key() and hashing do not see it
    for rows in ([[2]], [[1, 2], [3, 4]], [[(0, 1), 1, 0], [0, 2, "1/3"], [1, 0, (1, -1)]]):
        m = Matrix.exact(rows)
        inv = m.inverse()
        fresh = Matrix.exact(rows)
        assert m.inverse() is inv and inv == fresh.inverse()
        assert m == fresh and len({m.key(), fresh.key()}) == 1
        assert m @ inv == Matrix.identity(len(rows))
    s = Matrix.exact([[1, 2], [2, 4]])
    for _ in range(3):
        with pytest.raises(SingularMatrix):
            s.inverse()


def _set_slots(m):
    return {s for s in Matrix.__slots__ + type(m).__slots__ if hasattr(m, s)}


def test_exact_matrix_stores_only_its_integer_form():
    # an entry is made from the integer form on every read, and reading
    # entries keeps nothing on the matrix
    m = Matrix.exact([[(0, 1), "1/2"], [3, 0]])
    assert _set_slots(m) == {"rows", "cols", "_intform"}
    assert m[0, 1] == QQi("1/2") and m.row(1) == [QQi(3), QQi(0)]
    assert matrix_to_obj(m)["entries"][0] == ["0/1", "1/1"]
    assert _set_slots(m) == {"rows", "cols", "_intform"}
    # a fresh float matrix holds only its array, and neither class has a
    # slot for the other's representation; the mode is the class's
    f = Matrix.floating([[1, 2j], [0, 3]])
    assert _set_slots(f) == {"rows", "cols", "_a"}
    assert "_a" not in type(m).__slots__ and "_intform" not in type(f).__slots__
    assert (m.mode, f.mode) == (EXACT, FLOAT) and "mode" not in Matrix.__slots__


E2, F2 = Matrix.identity(2), Matrix.identity(2, FLOAT)


@pytest.mark.parametrize("make, exc", [
    pytest.param(lambda: Matrix.floating(np.zeros((2, 2, 2))), ShapeMismatch, id="3-d"),
    pytest.param(lambda: E2.array, ModeMismatch, id="exact-array"),
    pytest.param(lambda: E2 + F2, ModeMismatch, id="add-modes"),
    pytest.param(lambda: E2 - Matrix.identity(3), ShapeMismatch, id="sub-shapes"),
    pytest.param(lambda: E2 @ F2, ModeMismatch, id="matmul-modes"),
    pytest.param(lambda: E2 @ Matrix.identity(3), ShapeMismatch, id="matmul-inner"),
    pytest.param(lambda: F2.key(), ModeMismatch, id="float-key"),
    # LAPACK inverts the subnormal 1e-310 to inf
    pytest.param(lambda: Matrix.floating([[1e-310, 0], [0, 1]]).inverse(), SingularMatrix,
                 id="non-finite-inverse"),
    pytest.param(lambda: QQi("1/0"), MalformedInput, id="qqi-zero-denominator"),
    pytest.param(lambda: QQi.coerce(1j), MalformedInput, id="qqi-float-complex"),
    pytest.param(lambda: QQi(1) / 0, ZeroDivisionError, id="qqi-divide-by-zero"),
    pytest.param(lambda: Matrix.zeros(2, 2, "flaot"), MalformedInput, id="unknown-mode"),
])
def test_matrix_and_scalar_errors(make, exc):
    with pytest.raises(exc):
        make()


def test_matrix_and_scalar_edges():
    assert Matrix.floating([1, 2j]) == Matrix.floating([[1, 2j]])  # 1-d input is one row
    assert Matrix.floating([[1, 2j]]).row(0) == [1, 2j]
    assert Matrix.exact([[3, (0, 4)], [0, 0]]).fro() == 5.0
    assert E2.__eq__(1) is NotImplemented and E2 != 1 and E2 != F2
    empty = Matrix.zeros(0, 0, FLOAT)
    assert empty.inverse() is empty
    assert 1 - QQi(2) == QQi(-1) and complex(QQi(1, "1/2")) == 1 + 0.5j
    assert QQi(1).__eq__(1.0) is NotImplemented


def test_singular_float_inverse_raises_every_time():
    s = Matrix.floating([[1, 2], [2, 4]])
    for _ in range(3):
        with pytest.raises(SingularMatrix):
            s.inverse()


def test_tolerance_validation():
    # rel >= 1 makes every matrix approx_eq to O; a rank factor >= 1 makes
    # every rank 0
    for bad in (-1.0, 0.0, 1.0, 1e300, float("inf"), float("nan")):
        for field in ("rel", "rank_threshold_factor"):
            with pytest.raises(MalformedInput):
                Tolerance(**{field: bad})


entry = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_rank_agrees_across_modes_and_transpose(nr, nc, data):
    def draw():
        return Matrix.exact(data.draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                                               min_size=nr, max_size=nr)))

    m = draw()
    rk = m.rank()
    assert m.T.rank() == rk
    assert m.to_float().rank() == rk
    # every method of the shared interface gives on m.to_float() the float
    # image of its exact result, within the tolerance
    o, s = draw(), QQi("1/3", -2)
    f, g = m.to_float(), o.to_float()
    k = min(nr, nc)
    for exact, image in [(m + o, f + g), (m - o, f - g), (-m, -f), (m.scale(s), f.scale(complex(s))),
                         (m @ o.H, f @ g.H), (m.H, f.H), (m.T, f.T),
                         (m.block(1 % nr, nr, 0, k), f.block(1 % nr, nr, 0, k))]:
        assert approx_eq(exact.to_float(), image)
    assert approx_eq(m, o) == approx_eq(f, g)
    for x in (m, m @ m.H, m.block(0, k, 0, k), m.block(0, k, 0, k) @ o.block(0, k, 0, k)):
        xf = x.to_float()
        assert xf.rank() == x.rank() and xf.is_zero() == x.is_zero()
        assert abs(xf.fro() - x.fro()) <= 1e-12 * x.fro()
        if x.is_square:
            assert abs(xf.trace() - complex(x.trace())) <= 1e-12 * x.fro()
            assert is_projector(xf) == is_projector(x)
            if x.rank() == x.rows:
                assert approx_eq(x.inverse().to_float(), xf.inverse())


def test_projector_rank_equals_trace():
    from conftest import rand_unimodular

    rnd = random.Random(3)
    for _ in range(50):
        n = rnd.randint(1, 5)
        s = rand_unimodular(n, rnd)
        e = Matrix.diag([rnd.randint(0, 1) for _ in range(n)], EXACT)
        p = s @ e @ s.inverse()
        assert is_projector(p)
        assert p.rank() == p.trace()
        pf = p.to_float()
        assert pf.rank() == round(pf.trace().real)


def test_json_round_trip_exact():
    m = Matrix.exact([[(1, 2), "3/4"], [0, -5]])
    again = matrix_loads(matrix_dumps(m))
    assert again == m


def test_json_round_trip_float():
    m = Matrix.floating([[1.5, -2j], [0, 3]])
    again = matrix_from_obj(matrix_to_obj(m))
    assert approx_eq(m, again)


def _obj(mode, entries, rows=1, cols=1):
    return {"mode": mode, "rows": rows, "cols": cols, "entries": entries}


MALFORMED_MATRIX_OBJECTS = [
    _obj("float", [], rows=2, cols=2),
    _obj("weird", [], rows=0, cols=0),
    _obj("exact", [[1, 0, 0]]),
    _obj("exact", [1]),
    _obj("exact", ["1/2"]),
    _obj("exact", [], rows=-1, cols=0),
    _obj("float", [], rows=0, cols=-1),
    _obj("exact", [[1, 0]], rows=1.5),
    _obj("float", [[1, 0]], cols=1.0),
    _obj("exact", [[1, 0]], rows=True),
    _obj("exact", [[True, 0]]),
    _obj("float", [[1, False]]),
    _obj("float", [["2", 0]]),
    _obj("float", [[10 ** 400, 0]]),
    _obj("exact", [[1.5, 0]]),
    _obj("exact", "ab", cols=2),
    _obj("float", {"0": [1, 0]}),
]


def test_json_malformed():
    with pytest.raises(MalformedInput):
        matrix_loads("not json")
    for obj in MALFORMED_MATRIX_OBJECTS:
        with pytest.raises(MalformedInput):
            matrix_from_obj(obj)


@pytest.mark.parametrize("part", ["1.5", "1e3", "  3/4 ", "1_000"])
def test_exact_string_part_is_integer_or_p_over_q(part):
    # Fraction would read each of these; an exponent would make it build 10^exp
    with pytest.raises(MalformedInput):
        QQi(part)
    with pytest.raises(MalformedInput):
        matrix_from_obj(_obj("exact", [[part, 0]]))


# no limit (0), or none at all before Python 3.10.7
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(INT_DIGITS == 0, reason="the interpreter does not limit int digits")
def test_json_over_long_integer_is_malformed():
    with pytest.raises(MalformedInput):
        matrix_loads(json.dumps(_obj("exact", [["X", 0]])).replace('"X"', "7" * (INT_DIGITS + 1)))


def test_json_accepts_wire_parts():
    m = matrix_from_obj(_obj("exact", [["1/2", 3], [0, "-1"]], cols=2))
    assert m == Matrix.exact([[QQi("1/2", 3), (0, -1)]])
    f = matrix_from_obj(_obj("float", [[1, 0.5], [-2, 0]], cols=2))
    assert f == Matrix.floating([[1 + 0.5j, -2]])
    assert matrix_from_obj(_obj("exact", [], rows=0, cols=3)).cols == 3


@pytest.mark.parametrize("make", [Matrix.exact, Matrix.floating], ids=[EXACT, FLOAT])
@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[], [1]], [[1, 2], 3]])
def test_ragged_rows_shape_mismatch(make, rows):
    with pytest.raises(ShapeMismatch):
        make(rows)


@pytest.mark.parametrize("entry", [["NaN", 0], [0, "Infinity"], [float("-inf"), 1]])
def test_json_rejects_non_finite_float(entry):
    obj = {"mode": "float", "rows": 1, "cols": 2, "entries": [[1, 0], entry]}
    with pytest.raises(MalformedInput):
        matrix_from_obj(obj)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
def test_non_finite_library_matrix_rejected(bad):
    a = np.eye(2, dtype=complex)
    a[0, 1] = bad
    m = Matrix.floating(a)
    with pytest.raises(MalformedInput):
        m.inverse()
    with pytest.raises(MalformedInput):
        approx_eq(m, m)
    with pytest.raises(MalformedInput):
        approx_eq(Matrix.identity(2, FLOAT), m)
    with pytest.raises(MalformedInput):
        m.is_zero()


# library-built float results share their arrays without a copy, so the
# read-only flag is what keeps them immutable
READ_ONLY_RESULTS = {
    "add": lambda m: m + m,
    "sub": lambda m: m - m,
    "neg": lambda m: -m,
    "scale": lambda m: m.scale(2j),
    "matmul": lambda m: m @ m,
    "H": lambda m: m.H,
    "T": lambda m: m.T,
    "inverse": lambda m: m.inverse(),
    "block": lambda m: m.block(0, 2, 1, 3),
    "svd_U": lambda m: svd(m)[0],
    "svd_V": lambda m: svd(m)[2],
    "extend_to_nonsingular": lambda m: extend_to_nonsingular(hs_decompose(m)),
    "similarity": lambda m: hs_decompose(m).similarity()[1],
}


@pytest.mark.parametrize("op", READ_ONLY_RESULTS.values(), ids=READ_ONLY_RESULTS.keys())
def test_float_results_read_only(op):
    m = Matrix.floating([[2, 1j, 0], [0, 3, 1], [1, 0, 1]])
    out = op(m)
    assert out.array.flags.writeable is False
    with pytest.raises(ValueError):
        out.array[0, 0] = 7
    assert m == Matrix.floating([[2, 1j, 0], [0, 3, 1], [1, 0, 1]])
