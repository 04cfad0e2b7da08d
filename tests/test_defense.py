"""Low-rank spectral filtering defense."""

from dataclasses import replace

import numpy as np
import pytest

from blackedge.attack import AttackConfig, attack_graph
from blackedge.datasets import erdos_renyi
from blackedge.defense import (
    BINARIZE_THRESHOLD,
    DefendedOracle,
    LowRankConfig,
    _reconstruction,
    low_rank_filter,
)
from blackedge.errors import ConfigError
from blackedge.gin import GinOracle, gin_forward
from blackedge.graph import Graph, apply_perturbation
from blackedge.oracle import LabelMemo, structural_oracle

from helpers import (
    CountingOracle,
    complete_graph,
    perfbench_module,
    random_graph,
    reference_adjacency,
    reference_low_rank_filter,
    reference_low_rank_reconstruction,
    reference_two_take_low_rank_filter,
)


def test_gamma_one_is_identity():
    rng = np.random.default_rng(0)
    cfg = LowRankConfig(gamma=1.0)
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(2, 15)))
        assert np.array_equal(low_rank_filter(g, cfg).bits, g.bits)


def test_k4_rank_one_recovers_the_clique():
    # K4 spectrum is {3, -1, -1, -1}; keeping the top component gives
    # 0.75 * J, and binarizing at 0.5 restores K4 exactly
    g = complete_graph(4)
    cfg = LowRankConfig(gamma=0.25)
    assert cfg.rank(4) == 1
    approx = _reconstruction(g.adjacency, cfg.rank(4))
    assert np.allclose(approx, 0.75 * np.ones((4, 4)))
    assert np.array_equal(low_rank_filter(g, cfg).bits, g.bits)


def test_reconstruction_matches_svd_truncation():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 20:
        g = random_graph(rng, 8)
        cfg = LowRankConfig(gamma=0.5)
        u, s, vt = np.linalg.svd(g.adjacency)
        k = cfg.rank(8)
        if s[k - 1] - s[k] < 1e-8:
            continue  # truncation is not unique when singular values tie
        expected = (u[:, :k] * s[:k]) @ vt[:k]
        assert np.allclose(_reconstruction(g.adjacency, k), expected, atol=1e-8)
        checked += 1


def test_filter_equals_reference_exactly():
    rng = np.random.default_rng(0)
    gammas = (0.05, 0.25, 0.5, 0.75, 1.0)
    cases = [(Graph.from_edges(6, [(0, 1)]), LowRankConfig(gamma=0.5))]  # the 0.5 tie
    cases += [(random_graph(rng, n), LowRankConfig(gamma=gammas[i % 5]))
              for n in range(26) for i in range(200)]
    asymmetric = mirror_only = 0
    for g, cfg in cases:
        assert np.array_equal(low_rank_filter(g, cfg).bits,
                              reference_low_rank_filter(g, cfg).bits)
        keep = _reconstruction(g.adjacency, cfg.rank(g.n_nodes)) >= BINARIZE_THRESHOLD
        upper = np.triu_indices(g.n_nodes, k=1)
        asymmetric += not np.array_equal(keep, keep.T)
        mirror_only += np.any(keep.T[upper] & ~keep[upper])
    # rounding breaks the symmetry of a few reconstructions; in some the
    # lower-triangle entry alone reaches the threshold
    assert asymmetric >= 3 and mirror_only >= 1


@pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("n", [5, 12, 20])
def test_filter_equals_the_two_take_reference(n, gamma):
    """One threshold on the larger of each entry and its mirror keeps the
    slots that thresholding both and joining them by OR keeps."""
    rng = np.random.default_rng(100 * n + 10 * int(4 * gamma))
    cfg = LowRankConfig(gamma=gamma)
    graphs = [Graph.from_edges(n, []), complete_graph(n, label=1)]
    graphs += [random_graph(rng, n) for _ in range(60)]
    for g in graphs:
        out = low_rank_filter(g, cfg)
        ref = reference_two_take_low_rank_filter(g, cfg)
        assert out.bits.tobytes() == ref.bits.tobytes()
        assert out.label == g.label


def test_defended_path_equals_the_reference_on_the_workload_graphs(monkeypatch):
    # The benchmark's graphs, randomly perturbed: GIN labels, reconstructed
    # matrices, filter bits and defended labels from the float adjacency, and
    # from the uint8 fill plus cast with the reference filter.
    workloads = perfbench_module("workloads")
    graphs = workloads.evaluation_set()
    weights = workloads.balanced_gin(graphs)
    cfg = workloads.DEFENSE
    defended = DefendedOracle(GinOracle(weights), cfg)
    rng = np.random.default_rng(17)
    perturbed = [apply_perturbation(g, rng.random(g.n_edge_slots) < rng.uniform(0.0, 0.2))
                 for g in graphs for _ in range(5)]
    rank = cfg.rank(graphs[0].n_nodes)
    ours = [(gin_forward(weights, g), _reconstruction(g.adjacency, rank).tobytes(),
             low_rank_filter(g, cfg).bits.tobytes(), defended.classify(g)) for g in perturbed]
    monkeypatch.setattr(Graph, "adjacency", property(reference_adjacency))
    reference = []
    for g in perturbed:
        filtered = reference_low_rank_filter(g, cfg)
        reference.append((gin_forward(weights, g),
                          reference_low_rank_reconstruction(g, cfg).tobytes(),
                          filtered.bits.tobytes(), gin_forward(weights, filtered)))
    assert ours == reference
    assert {row[0] for row in ours} == {row[-1] for row in ours} == {0, 1}


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
    g = replace(complete_graph(4, label=1), features=np.ones((4, 2)))
    out = low_rank_filter(g, LowRankConfig(gamma=0.5))
    assert out.label == 1
    assert out.features is g.features
    assert out.bits.dtype == np.uint8 and not out.bits.flags.writeable


def test_rank_rounds_and_clamps():
    assert LowRankConfig(gamma=0.25).rank(4) == 1
    assert LowRankConfig(gamma=0.05).rank(4) == 1  # never below one
    assert LowRankConfig(gamma=0.5).rank(10) == 5
    assert LowRankConfig(gamma=1.0).rank(7) == 7


def test_gamma_validation():
    for gamma in (0.0, -0.5, 1.2, np.nan, np.inf):
        with pytest.raises(ConfigError):
            LowRankConfig(gamma=gamma)
    LowRankConfig(gamma=1.0)
    LowRankConfig(gamma=1e-9)


def test_defended_oracle_costs_one_query():
    inner = CountingOracle(lambda g: int(g.n_edges >= 3))
    oracle = DefendedOracle(inner, LowRankConfig(gamma=0.5))
    memo = LabelMemo(oracle, lambda label: label == 1, complete_graph(4), 1.0)
    memo.query(complete_graph(4), "other")
    assert memo.total == inner.computed == 1


def test_defended_oracle_filters_before_classifying():
    # an almost-empty graph loses its single edge under aggressive filtering
    inner = structural_oracle("edge_count", 1)
    g = Graph.from_edges(6, [(0, 1)])
    defended = DefendedOracle(inner, LowRankConfig(gamma=1.0))
    assert defended.classify(g) == 1  # identity keeps the edge
    # the single edge contributes eigenvalues +-1; keeping only three of
    # six components halves the reconstruction to 0.5, which binarizes up
    filtered = low_rank_filter(g, LowRankConfig(gamma=0.5))
    assert inner.classify(filtered) == DefendedOracle(
        inner, LowRankConfig(gamma=0.5)
    ).classify(g)


def test_defended_clone_is_independent():
    oracle = DefendedOracle(structural_oracle("edge_count", 1),
                             LowRankConfig(gamma=0.5))
    twin = oracle.clone()
    assert twin is not oracle and twin.cfg.gamma == 0.5
    assert twin.classify(complete_graph(3)) == oracle.classify(complete_graph(3))
    twin.cfg = LowRankConfig(gamma=1.0)
    assert oracle.cfg.gamma == 0.5


def test_memo_keys_the_submitted_graph_and_keeps_the_defended_label():
    cfg = LowRankConfig(gamma=0.25)
    rng = np.random.default_rng(0)
    g = random_graph(rng, 10)
    filtered = low_rank_filter(g, cfg)
    assert filtered.n_edges != g.n_edges
    # label 1 for whichever of the two has more edges
    inner = structural_oracle("edge_count", max(g.n_edges, filtered.n_edges))
    defended = DefendedOracle(inner, cfg)
    memo = LabelMemo(defended, lambda label: label == 1, g, 1.0)
    label = inner.classify(filtered)
    assert label != inner.classify(g)
    assert memo.adversarial(g, "qegc") == (label == 1)
    assert memo.labels == {g.bits.tobytes(): label}  # keyed by the unfiltered graph
    assert memo.adversarial(g, "qegc") == (label == 1)  # answered from the memo
    assert memo.hits == 1
    assert memo.queries["qegc"] == memo.total == 1


class _RecordingDefended(DefendedOracle):
    """Defended oracle that records each graph submitted to it, before filtering."""

    def __init__(self, inner, cfg):
        super().__init__(inner, cfg)
        self.asked = []

    def _classify(self, graph):
        self.asked.append(graph.bits.tobytes())
        return super()._classify(graph)


def test_attack_on_a_defended_oracle_submits_each_graph_once():
    g = erdos_renyi(10, 0.3, np.random.default_rng(0))
    oracle = _RecordingDefended(structural_oracle("edge_count", g.n_edges + 4),
                                LowRankConfig(gamma=0.75))
    cfg = AttackConfig(budget=0.5, iterations=4, directions_per_step=10, seed=1)
    res = attack_graph(oracle, g, 0, cfg)
    assert res.success and res.memo_hits > 0
    # distinct unfiltered graphs, plus the final re-verification of the graph
    # the memo kept, which is the one returned
    assert len(oracle.asked) == res.queries["total"] == len(set(oracle.asked)) + 1
    assert oracle.asked[-1] == res.adversarial_graph.bits.tobytes()
    assert oracle.inner.classify(
        low_rank_filter(res.adversarial_graph, oracle.cfg)) == 1
