import time

import pytest

from sharporder import FLOAT, hasse_dot, make_spec
from sharporder.errors import BudgetExceeded
from sharporder.hasse import hasse_skeleton


def test_boolean_spec_dot():
    spec = make_spec([(2, [1]), (3, [1])])
    dot = hasse_dot(spec)
    assert dot.startswith("digraph downset {")
    assert dot.count("(center)") == 4
    assert "(sample)" not in dot
    assert "infinite antichain" not in dot
    # 2-cube covering structure: 4 edges
    assert dot.count("->") == 4


def test_antichain_spec_dot():
    spec = make_spec([(2, [2, 1]), (3, [1])])
    dot = hasse_dot(spec, seed=1, antichain_samples=3)
    assert "(sample)" in dot
    assert "infinite antichain" in dot
    assert "style=dashed" in dot


def test_byte_identical_output():
    spec = make_spec([(2, [2, 1]), (3, [1])])
    a = hasse_dot(spec, seed=5, antichain_samples=3)
    b = hasse_dot(spec, seed=5, antichain_samples=3)
    assert a == b
    c = hasse_dot(spec, seed=6, antichain_samples=3)
    assert isinstance(c, str)


def test_node_budget():
    pairs = [(k, [1]) for k in range(2, 9)]  # s = 7 -> 128 center nodes
    with pytest.raises(BudgetExceeded):
        hasse_dot(make_spec(pairs))


def test_node_budget_refuses_before_building():
    # 2^20 central nodes: refused from the count, before any is built
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        hasse_dot(make_spec([(k, [1]) for k in range(1, 21)]))
    assert time.perf_counter() - start < 1
    # 64 central nodes and one ellipsis
    with pytest.raises(BudgetExceeded):
        hasse_dot(make_spec([(k, [1]) for k in range(1, 6)] + [(6, [1, 1])]))


def test_skeleton_roles():
    spec = make_spec([(2, [1, 1])])
    nodes, sampled = hasse_skeleton(spec, seed=0, antichain_samples=2)
    roles = {r for _, r, _ in nodes}
    assert roles <= {"center", "sample"}
    assert sampled == [0]


@pytest.mark.parametrize("pairs, seed, samples", [
    ([(2, [2, 1]), (3, [1])], 1, 3),
    ([(1, [2, 1, 1])], 2, 3),
    # seed 1 draws one projector of the second eigenvalue twice
    ([(1, [2, 2]), (-1, [1, 1])], 1, 6),
])
def test_float_skeleton_dot_equals_exact(pairs, seed, samples):
    # the float sampler draws the exact one's projectors, and the float
    # skeleton drops the same repeats by approx_eq
    exact = hasse_dot(make_spec(pairs), seed=seed, antichain_samples=samples)
    assert hasse_dot(make_spec(pairs, mode=FLOAT), seed=seed, antichain_samples=samples) == exact
