"""Community detection, search components and search-space accounting."""

import copy

import numpy as np
import pytest

from blackedge import partition
from blackedge.datasets import barbell, generate_synthetic
from blackedge.graph import Graph, n_slots
from blackedge.partition import (
    Partition,
    enumerate_components,
    louvain,
    modularity,
    search_space_report,
)

from helpers import (
    random_graph,
    reference_modularity,
    reference_modularity_matrix,
    reference_one_level,
)


# -- modularity ----------------------------------------------------------


def test_modularity_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        bits = (rng.random(n_slots(n)) < 0.5).astype(np.uint8)
        g = Graph(n, bits)
        assignment = rng.integers(0, 3, size=n)
        assert modularity(g, assignment) == pytest.approx(
            reference_modularity(g, assignment)
        )


def test_modularity_matrix_equals_the_reference():
    rng = np.random.default_rng(8)
    for case in range(300):
        n = int(rng.integers(1, 41))
        a = random_graph(rng, n).adjacency.astype(float)
        assignment = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
        if case % 3 == 0:
            assignment = 7 * assignment + 3  # ids need not be contiguous
        assert partition._modularity_matrix(a, assignment) == \
            reference_modularity_matrix(a, assignment)


def test_modularity_of_barbell_clique_split():
    # two K4 cliques + bridge: m = 13, within-clique degree sums 13 each,
    # internal edge mass 12/26 per clique -> Q = 2*(12/26 - (13/26)^2)
    g = barbell(4)
    split = [0, 0, 0, 0, 1, 1, 1, 1]
    assert modularity(g, split) == pytest.approx(286 / 676)


def test_modularity_of_edgeless_graph_is_zero():
    assert modularity(Graph.empty(5), np.zeros(5)) == 0.0


# -- louvain -------------------------------------------------------------


def test_louvain_recovers_barbell_cliques():
    part = louvain(barbell(4), seed=0)
    assert part.n_clusters == 2
    assert part.assignment.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]


def test_louvain_single_cluster_on_k5():
    part = louvain(Graph.complete(5), seed=0)
    assert part.n_clusters == 1


def test_louvain_edgeless_gives_singletons():
    part = louvain(Graph.empty(4), seed=0)
    assert part.n_clusters == 4
    assert part.assignment.tolist() == [0, 1, 2, 3]


def test_louvain_modularity_agrees_with_networkx():
    # an independent check on graphs too large for the brute-force reference
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(5)
    for _ in range(12):
        n = int(rng.integers(30, 61))
        g = Graph(n, (rng.random(n_slots(n)) < rng.uniform(0.05, 0.3)).astype(np.uint8))
        assignment = louvain(g, seed=int(rng.integers(1000))).assignment
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(n))
        nx_graph.add_edges_from(g.edges())
        communities = [set(np.flatnonzero(assignment == c).tolist())
                       for c in np.unique(assignment)]
        q = modularity(g, assignment)
        assert q == pytest.approx(nx.community.modularity(nx_graph, communities),
                                  abs=1e-12)
        assert q > modularity(g, np.arange(n))  # better than singletons


def test_louvain_deterministic_given_seed():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(6, 15))
        g = Graph(n, (rng.random(n_slots(n)) < 0.3).astype(np.uint8))
        a = louvain(g, seed=11)
        b = louvain(g, seed=11)
        assert a.assignment.tolist() == b.assignment.tolist()


def test_one_level_equals_the_reference_at_every_level(monkeypatch):
    """Every Louvain level, contracted and self-looped ones included, gives
    the reference's communities and leaves the generator in its state."""
    fast = partition._one_level
    self_looped = []  # one entry per level

    def checked(a, rng):
        ref_rng = copy.deepcopy(rng)
        got = fast(a, rng)
        want = reference_one_level(a.copy(), ref_rng)
        assert got.tolist() == want.tolist()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        self_looped.append(bool(a.diagonal().any()))
        return got

    monkeypatch.setattr(partition, "_one_level", checked)
    rng = np.random.default_rng(12)
    for n in (12, 20, 30):
        for _ in range(8):
            g = Graph(n, (rng.random(n_slots(n)) < rng.uniform(0.05, 0.5)).astype(np.uint8))
            for seed in range(5):
                louvain(g, seed=seed)
    assert sum(self_looped) >= 50  # contracted levels carry self-loops
    assert not all(self_looped)


def test_louvain_partitions_equal_those_of_the_reference_modularity(monkeypatch):
    graphs = generate_synthetic("erdos_renyi", 32, seed=5, n=20, p=0.2).graphs
    graphs += [random_graph(np.random.default_rng(n), n) for n in (12, 30, 40)]
    seeds = (0, 1, 2)
    got = [louvain(g, seed=s).assignment for g in graphs for s in seeds]
    monkeypatch.setattr(partition, "_modularity_matrix", reference_modularity_matrix)
    expected = [louvain(g, seed=s).assignment for g in graphs for s in seeds]
    assert all(np.array_equal(x, y) for x, y in zip(got, expected))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(np.array([0, 2]), 2)  # non-contiguous ids


# -- supernode / superlink components ------------------------------------


@pytest.fixture
def barbell_partition():
    return louvain(barbell(4), seed=0)


def test_components_cover_all_slots_once(barbell_partition):
    comps = enumerate_components(barbell_partition, "I")
    phased = np.concatenate([c.slots for c in comps if c.kind != "whole_graph"])
    assert sorted(phased.tolist()) == list(range(n_slots(8)))
    assert comps[-1].kind == "whole_graph"
    assert comps[-1].slots.size == n_slots(8)


def test_component_order_strategy_one(barbell_partition):
    kinds = [c.kind for c in enumerate_components(barbell_partition, "I")]
    assert kinds == ["supernode", "supernode", "superlink", "whole_graph"]
    sizes = [c.slots.size for c in enumerate_components(barbell_partition, "I")]
    assert sizes == [6, 6, 16, 28]


def test_component_order_strategy_two(barbell_partition):
    kinds = [c.kind for c in enumerate_components(barbell_partition, "II")]
    assert kinds == ["superlink", "supernode", "supernode", "whole_graph"]


def test_strategy_three_is_whole_graph_only(barbell_partition):
    comps = enumerate_components(barbell_partition, "III")
    assert [c.kind for c in comps] == ["whole_graph"]


def test_singleton_clusters_have_no_supernode_slots():
    part = Partition(np.array([0, 1, 2]), 3)
    comps = enumerate_components(part, "I")
    # no intra-cluster slots exist; three pairwise superlinks plus whole
    assert [c.kind for c in comps] == ["superlink"] * 3 + ["whole_graph"]


def test_unknown_strategy_rejected(barbell_partition):
    with pytest.raises(ValueError):
        enumerate_components(barbell_partition, "IV")


# -- search-space accounting ---------------------------------------------


def test_report_hand_values_n6_two_clusters():
    # two clusters of 3 nodes: S_node = 2*2^3 = 16, S_link = 2^9 = 512,
    # S_graph = 2^15 = 32768, beta = 32768/528
    part = Partition(np.array([0, 0, 0, 1, 1, 1]), 2)
    report = search_space_report(part)
    assert report.s_node == 16
    assert report.s_link == 512
    assert report.s_graph == 32768
    assert report.beta == pytest.approx(32768 / 528)
    assert report.log2_beta == pytest.approx(np.log2(32768 / 528))


def test_report_big_integer_path():
    # 20 nodes in 4 clusters of 5: the ratio still fits a float here, so
    # the log2 shortcut can be cross-checked directly
    part = Partition(np.repeat(np.arange(4), 5), 4)
    report = search_space_report(part)
    assert report.s_node == 4 * 2**10
    assert report.s_link == 6 * 2**25
    expected = 190 - np.log2(4 * 2**10 + 6 * 2**25)
    assert report.log2_beta == pytest.approx(expected, abs=1e-9)


def test_report_survives_float_overflow():
    # 80 nodes in one cluster: S_node = 2^3160 overflows floats
    part = Partition(np.zeros(80, dtype=int), 1)
    report = search_space_report(part)
    assert report.beta <= 1.0 or report.beta == np.inf
    assert np.isfinite(report.log2_beta)


def test_beta_exceeds_one_for_balanced_two_clusters():
    part = Partition(np.repeat([0, 1], 3), 2)
    assert search_space_report(part).beta > 1.0
