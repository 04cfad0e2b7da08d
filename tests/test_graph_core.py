"""Graph storage, slot indexing and the perturbation algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blackedge.errors import DimensionMismatch, ZeroVector
from blackedge.graph import (
    EdgeIndexMap,
    Graph,
    apply_perturbation,
    edge_index_map,
    flip_ledger,
    n_slots,
    normalize,
    perturbation_rate,
)

from helpers import (
    random_graph,
    reference_adjacency,
    reference_flip,
    reference_flip_ledger,
    reference_normalize,
)


# -- slot indexing -------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_flatten_unflatten_round_trip(n):
    # slot k holds the k-th pair of np.triu_indices, and flatten maps it back
    em = EdgeIndexMap(n)
    rows, cols = np.triu_indices(n, k=1)
    assert rows.size == em.n_slots
    for k, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
        assert em.flatten(i, j) == k
        assert em.flatten(j, i) == k  # order-insensitive


def test_slot_order_matches_numpy_triu():
    em = EdgeIndexMap(6)
    rows, cols = np.triu_indices(6, k=1)
    assert np.array_equal(em.rows, rows) and np.array_equal(em.cols, cols)


def test_flatten_rejects_bad_pairs():
    em = EdgeIndexMap(4)
    with pytest.raises(DimensionMismatch):
        em.flatten(2, 2)
    with pytest.raises(DimensionMismatch):
        em.flatten(0, 4)


def test_edge_index_map_is_cached():
    assert edge_index_map(7) is edge_index_map(7)


# -- Graph construction and views ----------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3, 20, 80])
def test_adjacency_equals_the_reference(n):
    rng = np.random.default_rng(n)
    graphs = [Graph.empty(n), Graph.complete(n)] + [random_graph(rng, n) for _ in range(5)]
    for g in graphs:
        a = g.adjacency
        assert a.dtype == np.float64 and a.flags.c_contiguous
        assert np.array_equal(a, reference_adjacency(g))
        a[...] = 7.0  # each call builds its own matrix
        assert np.array_equal(g.adjacency, reference_adjacency(g))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 20, 80])
def test_n_edges_equals_the_bit_sum(n):
    rng = np.random.default_rng(n)
    graphs = [Graph.empty(n), Graph.complete(n)] + [random_graph(rng, n) for _ in range(5)]
    for g in graphs:
        assert type(g.n_edges) is int
        assert g.n_edges == int(g.bits.sum()) == len(g.edges())


@pytest.mark.parametrize("n", [0, 1, 2, 3, 20, 80])
def test_flip_equals_apply_perturbation_of_the_indicator(n):
    rng = np.random.default_rng(n)
    s = n_slots(n)
    for g in [Graph.empty(n), Graph.complete(n, label=1)] + [random_graph(rng, n)
                                                             for _ in range(5)]:
        slot_sets = [np.array([], dtype=np.intp), np.arange(s), rng.permutation(s)]
        slot_sets += [rng.choice(s, size=int(rng.integers(0, s + 1)), replace=False)
                      for _ in range(20)]
        before = g.bits.copy()
        for slots in slot_sets:
            out = g.flip(slots)
            ref = reference_flip(g, slots)
            assert out.bits.dtype == np.uint8 and not out.bits.flags.writeable
            assert out.bits.tobytes() == ref.bits.tobytes()
            assert (out.n_nodes, out.features, out.label) == (g.n_nodes, g.features, g.label)
        assert np.array_equal(g.bits, before)  # the source graph is untouched


def test_from_adjacency_round_trip():
    a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    g = Graph.from_adjacency(a)
    assert np.array_equal(g.adjacency, a)
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.n_edges == 2
    assert g.n_edge_slots == 3


def test_from_adjacency_validation():
    with pytest.raises(DimensionMismatch):
        Graph.from_adjacency(np.array([[0, 1], [0, 0]]))  # asymmetric
    with pytest.raises(DimensionMismatch):
        Graph.from_adjacency(np.eye(3))  # self loops
    with pytest.raises(DimensionMismatch):
        Graph(3, np.array([0, 1], dtype=np.uint8))  # wrong slot count
    with pytest.raises(DimensionMismatch):
        Graph(3, np.array([0, 1, 2], dtype=np.uint8))  # non-binary


def test_graph_is_immutable():
    g = Graph.complete(4)
    with pytest.raises(ValueError):
        g.bits[0] = 0
    # apply_perturbation builds its result without re-validating the bits
    perturbed = apply_perturbation(g.replace(label=1), np.array([1.0, 0, 0, 0, 0, 0.5]))
    assert perturbed.bits.dtype == np.uint8
    assert perturbed.bits.tolist() == [0, 1, 1, 1, 1, 0]
    assert perturbed.label == 1
    with pytest.raises(ValueError):
        perturbed.bits[0] = 1


def test_canonical_key_distinguishes_structures():
    assert Graph.complete(4).canonical_key() == Graph.complete(4).canonical_key()
    assert Graph.complete(4).canonical_key() != Graph.empty(4).canonical_key()
    assert Graph.empty(3).canonical_key() != Graph.empty(4).canonical_key()


def test_replace_preserves_unspecified_fields():
    g = Graph.complete(3, label=1)
    g2 = g.replace(label=0)
    assert g2.label == 0 and g.label == 1
    assert np.array_equal(g2.bits, g.bits)


# -- perturbation algebra ------------------------------------------------


def test_zero_perturbation_is_identity():
    g = Graph.complete(5)
    assert np.array_equal(apply_perturbation(g, np.zeros(10)).bits, g.bits)


def test_single_edge_deletion_on_triangle():
    # flipping the (0,1) slot of K3 leaves the path 0-2-1
    g = Graph.complete(3)
    theta = np.array([1.0, 0.0, 0.0])
    assert apply_perturbation(g, theta).edges() == [(0, 2), (1, 2)]


def test_flip_threshold_is_inclusive():
    g = Graph.empty(3)
    theta = np.array([0.5, 0.4999999, 0.0])
    assert apply_perturbation(g, theta).edges() == [(0, 1)]


def test_perturbation_rate_single_flip():
    # one flipped edge of a 4-node graph: 1 slot out of 6
    a = Graph.empty(4)
    b = apply_perturbation(a, np.array([1.0, 0, 0, 0, 0, 0]))
    assert perturbation_rate(a, b) == pytest.approx(1 / 6)


def test_flip_ledger_empty_to_triangle():
    added, removed = flip_ledger(Graph.empty(3), Graph.complete(3))
    assert added == [(0, 1), (0, 2), (1, 2)]
    assert removed == []


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        apply_perturbation(Graph.empty(4), np.zeros(5))
    with pytest.raises(DimensionMismatch):
        perturbation_rate(Graph.empty(3), Graph.empty(4))
    with pytest.raises(DimensionMismatch):
        flip_ledger(Graph.empty(3), Graph.empty(4))


def test_normalize():
    v = normalize(np.array([3.0, 4.0]))
    assert np.allclose(v, [0.6, 0.8])
    with pytest.raises(ZeroVector):
        normalize(np.zeros(4))
    rng = np.random.default_rng(0)
    for _ in range(2000):
        theta = rng.standard_normal(int(rng.integers(1, 400))) * 10.0 ** rng.integers(-8, 8)
        assert np.array_equal(normalize(theta), reference_normalize(theta))


# -- property tests ------------------------------------------------------


graph_and_theta = st.integers(min_value=3, max_value=30).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, 1), min_size=n_slots(n), max_size=n_slots(n)),
        st.lists(
            st.floats(-2.0, 2.0, allow_nan=False), min_size=n_slots(n),
            max_size=n_slots(n),
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(graph_and_theta)
def test_perturbation_involution(data):
    n, bits, theta = data
    g = Graph(n, np.array(bits, dtype=np.uint8))
    theta = np.array(theta)
    twice = apply_perturbation(apply_perturbation(g, theta), theta)
    assert np.array_equal(twice.bits, g.bits)


@settings(max_examples=200, deadline=None)
@given(graph_and_theta)
def test_rate_matches_threshold_count(data):
    n, bits, theta = data
    g = Graph(n, np.array(bits, dtype=np.uint8))
    theta = np.array(theta)
    perturbed = apply_perturbation(g, theta)
    expected = int(np.count_nonzero(theta >= 0.5)) / g.n_edge_slots
    assert perturbation_rate(g, perturbed) == expected


@settings(max_examples=200, deadline=None)
@given(graph_and_theta)
def test_flip_ledger_is_complete_and_disjoint(data):
    n, bits, theta = data
    g = Graph(n, np.array(bits, dtype=np.uint8))
    perturbed = apply_perturbation(g, np.array(theta))
    added, removed = flip_ledger(g, perturbed)
    # same pairs in the same slot order, as built-in ints
    assert (added, removed) == reference_flip_ledger(g, perturbed)
    assert all(type(v) is int for pair in added + removed for v in pair)
    assert not (set(added) & set(removed))
    assert len(added) + len(removed) == int(
        np.count_nonzero(g.bits ^ perturbed.bits)
    )
    for i, j in added:
        assert (i, j) in perturbed.edges() and (i, j) not in g.edges()
    for i, j in removed:
        assert (i, j) in g.edges() and (i, j) not in perturbed.edges()
