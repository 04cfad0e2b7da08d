"""Low-rank spectral filtering defense."""

import numpy as np
import pytest

from blackedge.defense import (
    DefendedOracle,
    LowRankConfig,
    low_rank_filter,
    low_rank_reconstruction,
)
from blackedge.graph import Graph
from blackedge.oracle import structural_oracle

from conftest import random_graph


def test_gamma_one_is_identity():
    rng = np.random.default_rng(0)
    cfg = LowRankConfig(gamma=1.0)
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(2, 15)))
        assert np.array_equal(low_rank_filter(g, cfg).bits, g.bits)


def test_k4_rank_one_recovers_the_clique():
    # K4 spectrum is {3, -1, -1, -1}; keeping the top component gives
    # 0.75 * J, and binarizing at 0.5 restores K4 exactly
    g = Graph.complete(4)
    cfg = LowRankConfig(gamma=0.25)
    assert cfg.rank(4) == 1
    approx = low_rank_reconstruction(g, cfg)
    assert np.allclose(approx, 0.75 * np.ones((4, 4)))
    assert np.array_equal(low_rank_filter(g, cfg).bits, g.bits)


def test_reconstruction_matches_svd_truncation():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 20:
        g = random_graph(rng, 8)
        cfg = LowRankConfig(gamma=0.5)
        u, s, vt = np.linalg.svd(g.adjacency.astype(float))
        k = cfg.rank(8)
        if s[k - 1] - s[k] < 1e-8:
            continue  # truncation is not unique when singular values tie
        expected = (u[:, :k] * s[:k]) @ vt[:k]
        assert np.allclose(low_rank_reconstruction(g, cfg), expected, atol=1e-8)
        checked += 1


def test_filter_output_is_a_valid_graph():
    rng = np.random.default_rng(2)
    for gamma in (0.1, 0.3, 0.7):
        g = random_graph(rng, 10)
        out = low_rank_filter(g, LowRankConfig(gamma=gamma))
        a = out.adjacency
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert set(np.unique(a)) <= {0, 1}


def test_filter_preserves_features_and_label():
    g = Graph.complete(4, label=1).replace(features=np.ones((4, 2)))
    out = low_rank_filter(g, LowRankConfig(gamma=0.5))
    assert out.label == 1
    assert np.array_equal(out.features, g.features)


def test_rank_rounds_and_clamps():
    assert LowRankConfig(gamma=0.25).rank(4) == 1
    assert LowRankConfig(gamma=0.05).rank(4) == 1  # never below one
    assert LowRankConfig(gamma=0.5).rank(10) == 5
    assert LowRankConfig(gamma=1.0).rank(7) == 7


def test_gamma_validation():
    with pytest.raises(ValueError):
        LowRankConfig(gamma=0.0)
    with pytest.raises(ValueError):
        LowRankConfig(gamma=1.2)


def test_defended_oracle_costs_one_query_and_shares_ledger():
    inner = structural_oracle("edge_count", 3)
    oracle = DefendedOracle(inner, LowRankConfig(gamma=0.5))
    oracle.classify(Graph.complete(4))
    assert inner.ledger.total == 1
    assert oracle.ledger is inner.ledger


def test_defended_oracle_filters_before_classifying():
    # an almost-empty graph loses its single edge under aggressive filtering
    inner = structural_oracle("edge_count", 1)
    g = Graph.from_edges(6, [(0, 1)])
    defended = DefendedOracle(inner.clone(), LowRankConfig(gamma=1.0))
    assert defended.classify(g) == 1  # identity keeps the edge
    # the single edge contributes eigenvalues +-1; keeping only three of
    # six components halves the reconstruction to 0.5, which binarizes up
    filtered = low_rank_filter(g, LowRankConfig(gamma=0.5))
    assert inner.clone().classify(filtered) == DefendedOracle(
        inner.clone(), LowRankConfig(gamma=0.5)
    ).classify(g)


def test_defended_clone_is_independent():
    oracle = DefendedOracle(structural_oracle("edge_count", 1),
                             LowRankConfig(gamma=0.5))
    oracle.classify(Graph.complete(3))
    twin = oracle.clone()
    assert twin.ledger.total == 0
    assert twin.cfg.gamma == 0.5
    twin.classify(Graph.complete(3), "qegc")
    assert twin.ledger.snapshot()["qegc"] == 1
    assert oracle.ledger.snapshot() == {"cgs": 0, "binary_search": 0, "qegc": 0,
                                        "other": 1, "total": 1}
