"""Forward-pass network classifier vs an independent reference."""

import dataclasses
import json

import numpy as np
import pytest

from blackedge.errors import DimensionMismatch
from blackedge.gin import Dense, GinLayer, GinOracle, GinWeights, gin_forward, gin_logits
from blackedge.graph import Graph
from blackedge.oracle import LabelMemo

from helpers import (
    complete_graph,
    from_adjacency,
    perfbench_module,
    random_graph,
    reference_dense_gin_logits,
    reference_gin_logits,
)


def test_forward_matches_reference_on_random_inputs():
    rng = np.random.default_rng(0)
    for trial in range(50):
        weights = GinWeights.random(seed=trial, feature_dim=3,
                                    hidden_dims=(5, 4), n_classes=3)
        g = random_graph(rng, int(rng.integers(2, 12)))
        feats = rng.standard_normal((g.n_nodes, 3))
        g = dataclasses.replace(g, features=feats)
        ref = reference_gin_logits(weights, g)
        assert gin_forward(weights, g) == int(np.argmax(ref))


def test_default_features_are_all_ones():
    weights = GinWeights.random(seed=1, feature_dim=2)
    g = complete_graph(4)
    explicit = dataclasses.replace(g, features=np.ones((4, 2)))
    assert gin_forward(weights, g) == gin_forward(weights, explicit)
    ref = reference_gin_logits(weights, explicit)
    assert gin_forward(weights, g) == int(np.argmax(ref))


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    weights = GinWeights.random(seed=9, feature_dim=2, hidden_dims=(6,))
    for _ in range(20):
        g = dataclasses.replace(random_graph(rng, 8), features=rng.standard_normal((8, 2)))
        perm = rng.permutation(8)
        a = g.adjacency[np.ix_(perm, perm)]
        permuted = from_adjacency(a, features=g.features[perm])
        assert gin_forward(weights, g) == gin_forward(weights, permuted)


def test_argmax_tie_breaks_to_smallest_class():
    # zero weights everywhere -> all logits equal -> class 0
    weights = GinWeights(
        layers=[GinLayer(np.zeros((2, 1)), np.zeros(2), 0.0)],
        readout=[Dense(np.zeros((3, 1)), np.zeros(3)),
                 Dense(np.zeros((3, 2)), np.zeros(3))],
        n_classes=3,
        feature_dim=1,
    )
    assert gin_forward(weights, complete_graph(4)) == 0


def test_json_round_trip_is_exact(tmp_path):
    weights = GinWeights.random(seed=3, feature_dim=2, hidden_dims=(4, 3))
    path = tmp_path / "w.json"
    weights.save(path)
    loaded = GinWeights.load(path)
    for a, b in zip(weights.layers, loaded.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)
        assert a.epsilon == b.epsilon
    for a, b in zip(weights.readout, loaded.readout):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)
    assert loaded.n_classes == weights.n_classes
    assert loaded.feature_dim == weights.feature_dim


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        GinWeights(  # readout head count must be layers + 1
            layers=[GinLayer(np.zeros((2, 1)), np.zeros(2), 0.0)],
            readout=[Dense(np.zeros((2, 1)), np.zeros(2))],
            n_classes=2, feature_dim=1,
        )
    with pytest.raises(DimensionMismatch):
        GinWeights(  # layer input dim must chain
            layers=[GinLayer(np.zeros((2, 3)), np.zeros(2), 0.0)],
            readout=[Dense(np.zeros((2, 1)), np.zeros(2)),
                     Dense(np.zeros((2, 2)), np.zeros(2))],
            n_classes=2, feature_dim=1,
        )


def test_feature_dim_mismatch_rejected():
    weights = GinWeights.random(seed=0, feature_dim=2)
    g = dataclasses.replace(complete_graph(3), features=np.ones((3, 5)))
    with pytest.raises(DimensionMismatch):
        gin_forward(weights, g)


def test_gin_oracle_records_queries():
    oracle = GinOracle(GinWeights.random(seed=0))
    memo = LabelMemo(oracle, bool, Graph.from_edges(4, []), 1.0)
    memo.query(complete_graph(4), "other")
    memo.query(Graph.from_edges(4, []), "qegc")
    assert memo.queries == {"cgs": 0, "binary_search": 0, "qegc": 1, "other": 1}


def test_random_weights_deterministic():
    a = GinWeights.random(seed=42)
    b = GinWeights.random(seed=42)
    assert np.array_equal(a.layers[0].weight, b.layers[0].weight)
    assert a.layers[0].epsilon == b.layers[0].epsilon


# -- the featureless first layer from cached tables ----------------------


def _assert_bitwise_reference(weights, graph):
    ours = gin_logits(weights, graph)
    ref = reference_dense_gin_logits(weights, graph)
    assert ours.dtype == ref.dtype and ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes()
    assert gin_forward(weights, graph) == int(np.argmax(ref))


def test_logits_equal_the_dense_reference_on_the_workload_graphs():
    workloads = perfbench_module("workloads")
    graphs = workloads.evaluation_set()
    weights = workloads.balanced_gin(graphs)
    rng = np.random.default_rng(12)
    for g in graphs:
        for _ in range(30):
            flips = rng.random(g.n_edge_slots) < rng.uniform(0.0, 0.3)
            _assert_bitwise_reference(weights, Graph(g.n_nodes, g.bits ^ flips))


def _shape_cases(rng, n):
    """Empty, complete, random, and random with isolated nodes."""
    cases = [Graph.from_edges(n, []), complete_graph(n)]
    if n > 1:
        cases.append(random_graph(rng, n))
        half = n // 2
        core = random_graph(rng, half).adjacency if half > 1 else np.zeros((half, half))
        a = np.zeros((n, n))
        a[:half, :half] = core
        cases.append(from_adjacency(a))
    return cases


@pytest.mark.parametrize("feature_dim", [1, 2, 3])
@pytest.mark.parametrize("hidden_dims", [(), (6,), (5, 4), (8, 8, 3)])
def test_logits_equal_the_dense_reference_across_shapes(feature_dim, hidden_dims):
    rng = np.random.default_rng(100 * feature_dim + len(hidden_dims))
    for seed in range(3):
        weights = GinWeights.random(seed, feature_dim=feature_dim,
                                    hidden_dims=hidden_dims, n_classes=3)
        for n in (0, 1, 2, 3, 20, 80):
            for g in _shape_cases(rng, n):
                _assert_bitwise_reference(weights, g)
                feats = rng.standard_normal((n, feature_dim))
                _assert_bitwise_reference(weights, dataclasses.replace(g, features=feats))


def test_the_degree_table_is_built_once_per_first_layer_and_node_count():
    workloads = perfbench_module("workloads")
    weights = GinWeights.random(0)
    first, deeper = weights.layers
    rng = np.random.default_rng(3)
    assert first._degree_tables == {}
    gin_forward(weights, random_graph(rng, 20))
    assert list(first._degree_tables) == [20]
    table = first.degree_table(20)
    head = weights.readout[0].ones_logits(20)
    for g in (random_graph(rng, 20), complete_graph(20), random_graph(rng, 12)):
        gin_forward(weights, g)
    assert sorted(first._degree_tables) == [12, 20]
    assert first.degree_table(20) is table
    assert weights.readout[0].ones_logits(20) is head
    assert deeper._degree_tables == {}
    assert all(h._ones_logits == {} for h in weights.readout[1:])
    assert table.shape == (20, first.weight.shape[0])
    assert not table.flags.writeable and not head.flags.writeable

    # a bias-shifted copy shares the layers, so it shares their tables
    shifted = workloads.shift_class1_bias(weights, 0.25)
    gin_forward(shifted, random_graph(rng, 20))
    assert shifted.layers[0] is first
    assert first.degree_table(20) is table
    assert shifted.readout[0]._ones_logits.keys() == {20}
    assert shifted.readout[0].ones_logits(20) is not head
    other = GinWeights.random(1)
    gin_forward(other, random_graph(rng, 20))
    assert other.layers[0].degree_table(20) is not table


def test_caches_leave_equality_repr_and_serialization_unchanged(tmp_path):
    weights = GinWeights.random(2, feature_dim=2, hidden_dims=(4, 3))
    rebuilt = GinWeights(
        [GinLayer(l.weight, l.bias, l.epsilon) for l in weights.layers],
        [Dense(h.weight, h.bias) for h in weights.readout],
        weights.n_classes, weights.feature_dim,
    )
    before = (weights.to_dict(), repr(weights))
    assert repr(rebuilt) == before[1]
    g = random_graph(np.random.default_rng(4), 9)
    gin_forward(weights, g)
    assert weights.layers[0]._degree_tables and weights.readout[0]._ones_logits
    assert not rebuilt.layers[0]._degree_tables
    assert (weights.to_dict(), repr(weights)) == before
    assert weights == rebuilt  # compares every layer and head

    path = tmp_path / "w.json"
    weights.save(path)
    assert json.loads(path.read_text()) == before[0]
    loaded = GinWeights.load(path)
    assert loaded.to_dict() == before[0]
    assert gin_logits(loaded, g).tobytes() == gin_logits(weights, g).tobytes()


def test_layers_and_heads_are_read_only():
    weights = GinWeights.random(0)
    layer, head = weights.layers[0], weights.readout[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.epsilon = 0.1
    with pytest.raises(dataclasses.FrozenInstanceError):
        head.bias = np.zeros(2)
    with pytest.raises(ValueError):
        layer.weight[0, 0] = 1.0
    with pytest.raises(ValueError):
        layer.bias[0] = 1.0
    with pytest.raises(ValueError):
        head.weight[0, 0] = 1.0
    with pytest.raises(ValueError):
        head.bias[0] = 1.0
