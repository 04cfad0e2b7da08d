"""Forward-pass network classifier vs an independent reference."""

import numpy as np
import pytest

from blackedge.errors import ShapeMismatch
from blackedge.gin import Dense, GinLayer, GinOracle, GinWeights, gin_forward
from blackedge.graph import Graph

from helpers import random_graph, reference_gin_logits


def test_forward_matches_reference_on_random_inputs():
    rng = np.random.default_rng(0)
    for trial in range(50):
        weights = GinWeights.random(seed=trial, feature_dim=3,
                                    hidden_dims=(5, 4), n_classes=3)
        g = random_graph(rng, int(rng.integers(2, 12)))
        feats = rng.standard_normal((g.n_nodes, 3))
        g = g.replace(features=feats)
        ref = reference_gin_logits(weights, g)
        assert gin_forward(weights, g) == int(np.argmax(ref))


def test_default_features_are_all_ones():
    weights = GinWeights.random(seed=1, feature_dim=2)
    g = Graph.complete(4)
    explicit = g.replace(features=np.ones((4, 2)))
    assert gin_forward(weights, g) == gin_forward(weights, explicit)
    ref = reference_gin_logits(weights, explicit)
    assert gin_forward(weights, g) == int(np.argmax(ref))


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    weights = GinWeights.random(seed=9, feature_dim=2, hidden_dims=(6,))
    for _ in range(20):
        g = random_graph(rng, 8).replace(features=rng.standard_normal((8, 2)))
        perm = rng.permutation(8)
        a = g.adjacency[np.ix_(perm, perm)]
        permuted = Graph.from_adjacency(a, features=g.features[perm])
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
    assert gin_forward(weights, Graph.complete(4)) == 0


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
    with pytest.raises(ShapeMismatch):
        GinWeights(  # readout head count must be layers + 1
            layers=[GinLayer(np.zeros((2, 1)), np.zeros(2), 0.0)],
            readout=[Dense(np.zeros((2, 1)), np.zeros(2))],
            n_classes=2, feature_dim=1,
        )
    with pytest.raises(ShapeMismatch):
        GinWeights(  # layer input dim must chain
            layers=[GinLayer(np.zeros((2, 3)), np.zeros(2), 0.0)],
            readout=[Dense(np.zeros((2, 1)), np.zeros(2)),
                     Dense(np.zeros((2, 2)), np.zeros(2))],
            n_classes=2, feature_dim=1,
        )


def test_feature_dim_mismatch_rejected():
    weights = GinWeights.random(seed=0, feature_dim=2)
    g = Graph.complete(3).replace(features=np.ones((3, 5)))
    with pytest.raises(ShapeMismatch):
        gin_forward(weights, g)


def test_gin_oracle_records_queries():
    oracle = GinOracle(GinWeights.random(seed=0))
    oracle.classify(Graph.complete(4))
    oracle.classify(Graph.empty(4))
    assert oracle.ledger.total == 2


def test_random_weights_deterministic():
    a = GinWeights.random(seed=42)
    b = GinWeights.random(seed=42)
    assert np.array_equal(a.layers[0].weight, b.layers[0].weight)
    assert a.layers[0].epsilon == b.layers[0].epsilon
