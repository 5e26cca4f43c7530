import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhjb import ExteriorRule, build_grid, evaluate_extended
from nlhjb.grid import lattice_box


def test_1d_unit_spacing_example():
    g = build_grid(1, 1.0, 2.0)
    assert g.nodes[:, 0].tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert g.origin_index == 2
    assert g.nodes[g.origin_index, 0] == 0.0


def test_1d_half_spacing_example():
    g = build_grid(1, 0.5, 1.0)
    assert g.n_nodes == 5
    assert np.allclose(np.sort(g.nodes[:, 0]), [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_2d_count_against_enumeration():
    # brute-force lattice enumeration oracle
    hx, R = 1.0, 1.5
    count = 0
    for i in range(-3, 4):
        for j in range(-3, 4):
            if (i * hx) ** 2 + (j * hx) ** 2 <= R**2:
                count += 1
    g = build_grid(2, hx, R)
    assert g.n_nodes == count == 9


@pytest.mark.parametrize("bad", [
    dict(d=3, hx=1.0, R=8.0),
    dict(d=1, hx=0.0, R=8.0),
    dict(d=1, hx=-0.5, R=8.0),
    dict(d=1, hx=1.0, R=0.5),
])
def test_rejects_bad_parameters(bad):
    with pytest.raises(ValueError):
        build_grid(**bad)


def test_node_set_symmetric_under_negation():
    g = build_grid(2, 0.5, 3.2)
    as_set = {tuple(z) for z in g.lattice}
    assert {tuple(-z) for z in g.lattice} == as_set


def test_deterministic_ordering():
    a = build_grid(2, 0.25, 2.0)
    b = build_grid(2, 0.25, 2.0)
    assert np.array_equal(a.lattice, b.lattice)
    assert np.array_equal(a.nodes, b.nodes)
    assert a.origin_index == b.origin_index
    # strictly lexicographic, as the Grid docstring promises
    for d in (1, 2):
        rows = [tuple(z) for z in build_grid(d, 0.25, 2.0).lattice.tolist()]
        assert rows == sorted(set(rows))
        box = [tuple(z) for z in lattice_box(d, 3).tolist()]
        assert box == sorted(set(box)) and len(box) == 7**d


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 2]),
       hx=st.sampled_from([0.125, 0.25, 0.5, 1.0]),
       R=st.floats(min_value=4.0, max_value=12.0))
def test_index_roundtrip(d, hx, R):
    g = build_grid(d, hx, R)
    idx = g.node_index_of_lattice(g.lattice)
    assert np.array_equal(idx, np.arange(g.n_nodes))
    # a box two steps wider: -1 exactly off the ball or outside the table's box
    K = int(np.floor(R / hx + 1e-12))
    z = lattice_box(d, K + 2)
    on_ball = ((np.abs(z).max(axis=1) <= K)
               & (np.sum((z * hx) ** 2, axis=1) <= R * R * (1.0 + 1e-12)))
    idx = g.node_index_of_lattice(z)
    assert np.array_equal(idx >= 0, on_ball)
    assert np.array_equal(g.lattice[idx[on_ball]], z[on_ball])


def test_origin_within_half_spacing():
    g = build_grid(2, 0.3, 4.0)
    assert np.linalg.norm(g.nodes[g.origin_index]) <= g.hx / 2


def test_evaluate_extended_interior_identity():
    g = build_grid(1, 0.5, 4.0)
    field = np.arange(g.n_nodes, dtype=float)
    vals = evaluate_extended(g, field, ExteriorRule.zero(), g.nodes)
    assert np.array_equal(vals, field)


def test_evaluate_extended_exterior_zero_and_function():
    g = build_grid(1, 1.0, 4.0)
    field = np.full(g.n_nodes, 3.7)
    assert evaluate_extended(g, field, ExteriorRule.zero(), np.array([5.0])) == 0.0
    rule = ExteriorRule.function(lambda x: np.abs(x[..., 0]) ** 0.9)
    got = evaluate_extended(g, field, rule, np.array([5.0]))
    assert got == pytest.approx(5.0**0.9, rel=1e-14)
    # interior point keeps the stored value
    assert evaluate_extended(g, field, rule, np.array([2.0])) == 3.7
