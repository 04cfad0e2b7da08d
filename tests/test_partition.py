"""Community detection, search components and search-space accounting."""

import copy
import decimal
import re

import numpy as np
import pytest

from blackedge import partition
from blackedge.datasets import barbell, generate_synthetic, stochastic_block_model
from blackedge.errors import ConfigError
from blackedge.graph import Graph, n_slots
from blackedge.partition import (
    Partition,
    enumerate_components,
    louvain,
    search_space_report,
)

from helpers import (
    complete_graph,
    modularity_matrix,
    perfbench_module,
    random_graph,
    reference_adjacency,
    reference_enumerate_components,
    reference_louvain,
    reference_modularity,
    reference_modularity_matrix,
    reference_one_level,
    reference_relabel,
    set_partitions,
)


# -- modularity ----------------------------------------------------------


def test_modularity_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        bits = (rng.random(n_slots(n)) < 0.5).astype(np.uint8)
        g = Graph(n, bits)
        assignment = rng.integers(0, 3, size=n)
        assert modularity_matrix(g.adjacency, assignment) == pytest.approx(
            reference_modularity(g, assignment)
        )


def test_modularity_matrix_equals_the_reference():
    rng = np.random.default_rng(8)
    for case in range(300):
        n = int(rng.integers(1, 41))
        a = random_graph(rng, n).adjacency
        assignment = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
        if case % 3 == 0:
            assignment = 7 * assignment + 3  # ids need not be contiguous
        assert modularity_matrix(a, assignment) == \
            reference_modularity_matrix(a, assignment)


def test_modularity_of_barbell_clique_split():
    # two K4 cliques + bridge: m = 13, within-clique degree sums 13 each,
    # internal edge mass 12/26 per clique -> Q = 2*(12/26 - (13/26)^2)
    g = barbell(4)
    split = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    assert modularity_matrix(g.adjacency, split) == pytest.approx(286 / 676)


def test_modularity_of_edgeless_graph_is_zero():
    assert modularity_matrix(Graph.from_edges(5, []).adjacency, np.zeros(5, int)) == 0.0


# -- louvain -------------------------------------------------------------


def test_louvain_recovers_barbell_cliques():
    part = louvain(barbell(4), seed=0)
    assert part.n_clusters == 2
    assert part.assignment.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]


def test_louvain_single_cluster_on_k5():
    part = louvain(complete_graph(5), seed=0)
    assert part.n_clusters == 1


def test_louvain_edgeless_gives_singletons():
    part = louvain(Graph.from_edges(4, []), seed=0)
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
        q = modularity_matrix(g.adjacency, assignment)
        assert q == pytest.approx(nx.community.modularity(nx_graph, communities),
                                  abs=1e-12)
        assert q > modularity_matrix(g.adjacency, np.arange(n))  # better than singletons


def test_louvain_deterministic_given_seed():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(6, 15))
        g = Graph(n, (rng.random(n_slots(n)) < 0.3).astype(np.uint8))
        a = louvain(g, seed=11)
        b = louvain(g, seed=11)
        assert a.assignment.tolist() == b.assignment.tolist()


def _dense(neighbours, degrees) -> np.ndarray:
    """A Louvain level's matrix from its neighbour lists: each node's
    self-loop is its degree less its links."""
    a = np.zeros((len(neighbours), len(neighbours)))
    for i, pairs in enumerate(neighbours):
        for j, w in pairs:
            a[i, j] = w
        a[i, i] = degrees[i] - sum(w for _, w in pairs)
    return a


def _record_levels(monkeypatch):
    """Make every ``_one_level`` call append its level's dense matrix and
    communities to the returned list."""
    one_level, levels = partition._one_level, []

    def recorded(neighbours, degrees, m2, rng):
        communities = one_level(neighbours, degrees, m2, rng)
        levels.append((_dense(neighbours, degrees), communities))
        return communities

    monkeypatch.setattr(partition, "_one_level", recorded)
    return levels


def test_one_level_equals_the_reference_at_every_level(monkeypatch):
    """Every Louvain level, contracted and self-looped ones included, gives
    the reference's communities on its dense matrix and leaves the
    generator in its state; each level is the last one contracted by its
    indicator matrix, and its lists ascend and skip the node itself."""
    fast = partition._one_level
    levels = []  # one louvain call's (dense matrix, communities) per level

    def checked(neighbours, degrees, m2, rng):
        a = _dense(neighbours, degrees)
        assert m2 == a.sum()
        for i, pairs in enumerate(neighbours):
            assert [j for j, _ in pairs] == sorted({j for j, _ in pairs} - {i})
        ref_rng = copy.deepcopy(rng)
        got = fast(neighbours, degrees, m2, rng)
        assert got == reference_one_level(a, ref_rng).tolist()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        levels.append((a, got))
        return got

    monkeypatch.setattr(partition, "_one_level", checked)
    rng = np.random.default_rng(12)
    n_levels = n_self_looped = 0
    for n in (12, 20, 30):
        for _ in range(8):
            g = Graph(n, (rng.random(n_slots(n)) < rng.uniform(0.05, 0.5)).astype(np.uint8))
            for seed in range(5):
                levels.clear()
                louvain(g, seed=seed)
                for (a, communities), (contracted, _) in zip(levels, levels[1:]):
                    level, k = reference_relabel(communities)
                    indicator = np.zeros((a.shape[0], k))
                    indicator[np.arange(a.shape[0]), level] = 1.0
                    assert np.array_equal(contracted, indicator.T @ a @ indicator)
                n_levels += len(levels)
                n_self_looped += sum(bool(a.diagonal().any()) for a, _ in levels)
    assert n_self_looped >= 50  # contracted levels carry self-loops
    assert n_self_looped < n_levels


def test_louvain_partitions_equal_those_of_the_reference_modularity(monkeypatch):
    """Each level's q, and the singletons' q louvain starts from, has the
    bits of ``reference_modularity_matrix`` on that level's matrix, so the
    ``MODULARITY_TOL`` stop falls where the dense modularity puts it."""
    levels = _record_levels(monkeypatch)
    modularity, qs = partition._modularity, []

    def recorded(internal, degrees, m2):
        qs.append(modularity(internal, degrees, m2))
        return qs[-1]

    monkeypatch.setattr(partition, "_modularity", recorded)
    graphs = generate_synthetic("erdos_renyi", 32, seed=5, n=20, p=0.2).graphs
    graphs += [random_graph(np.random.default_rng(n), n) for n in (12, 30, 40)]
    for g in graphs:
        for seed in (0, 1, 2):
            levels.clear()
            qs.clear()
            louvain(g, seed=seed)
            want = [reference_modularity_matrix(levels[0][0], np.arange(g.n_nodes))]
            want += [reference_modularity_matrix(a, reference_relabel(c)[0]) for a, c in levels]
            assert [q.hex() for q in qs] == [float(q).hex() for q in want]


def test_louvain_and_modularity_equal_those_of_the_reference_adjacency(monkeypatch):
    """On criterion 6's graphs and the benchmark's graphs at three seeds,
    louvain reads no dense matrix and sweeps ``reference_adjacency``'s as
    its first level; the modularity of every partition of the barbell is
    the same on either matrix."""
    barbell_assignments = list(set_partitions(8))
    dense = reference_adjacency(barbell(4))
    assert [modularity_matrix(barbell(4).adjacency, x) for x in barbell_assignments] == \
        [modularity_matrix(dense, x) for x in barbell_assignments]

    levels = _record_levels(monkeypatch)
    monkeypatch.setattr(Graph, "adjacency", property(lambda g: pytest.fail("read adjacency")))
    for g in [barbell(4), complete_graph(5)] + perfbench_module("workloads").evaluation_set():
        for seed in (0, 1, 2):
            levels.clear()
            louvain(g, seed=seed)
            assert np.array_equal(levels[0][0], reference_adjacency(g))


def _partition_cases():
    """Graphs of n = 0, 1 and 2, edgeless, complete, barbell and random
    graphs up to 29 nodes."""
    rng = np.random.default_rng(29)
    graphs = [Graph.from_edges(n, []) for n in (0, 1, 2, 7)]
    graphs += [complete_graph(n) for n in (2, 3, 6)]
    graphs += [barbell(k) for k in (3, 4, 6)]
    graphs += [random_graph(rng, int(rng.integers(1, 30))) for _ in range(120)]
    return graphs


def _louvain_cases():
    """``_partition_cases``, SBM graphs of 2-4 blocks, graphs with isolated
    nodes beside their edges and sparse random graphs up to 60 nodes."""
    rng = np.random.default_rng(61)
    graphs = _partition_cases()
    for _ in range(30):
        sizes = rng.integers(2, 12, size=int(rng.integers(2, 5))).tolist()
        graphs.append(stochastic_block_model(sizes, rng.uniform(0.4, 0.9),
                                             rng.uniform(0.0, 0.15), rng))
    for _ in range(20):
        n, isolated = int(rng.integers(4, 30)), int(rng.integers(1, 4))
        order = rng.permutation(n)  # the isolated nodes land anywhere
        edges = [(order[i], order[j]) for i, j in random_graph(rng, n - isolated).edges()]
        graphs.append(Graph.from_edges(n, edges))
    for _ in range(10):
        n = int(rng.integers(30, 61))
        graphs.append(Graph(n, (rng.random(n_slots(n)) < rng.uniform(0.03, 0.2)).astype(np.uint8)))
    return graphs


def test_louvain_equals_the_reference_louvain():
    evaluation = perfbench_module("workloads").evaluation_set()
    cases = [(g, seed) for g in _louvain_cases() for seed in (0, 1, 7)]
    cases += [(g, seed) for g in evaluation for seed in range(10)]
    for g, seed in cases:
        got, want = louvain(g, seed=seed), reference_louvain(g, seed=seed)
        assert got.n_clusters == want.n_clusters
        assert got.assignment.tolist() == want.assignment.tolist()


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_an_invalid_louvain_seed_is_a_config_error(seed):
    # the shared integer rule of errors.require_int
    message = ("seed must be at least 0, got -1" if seed == -1
               else f"seed must be an integer, got {seed!r}")
    with pytest.raises(ConfigError, match=re.escape(message)):
        louvain(barbell(4), seed=seed)
    with pytest.raises(ConfigError, match=re.escape(message)):
        louvain(Graph.from_edges(3, []), seed=seed)  # before the edgeless shortcut


def test_partition_validation():
    with pytest.raises(ConfigError, match="contiguous"):
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


def _assert_same_components(got, want):
    assert [(c.kind, c.clusters, c.n_incident) for c in got] == \
        [(c.kind, c.clusters, c.n_incident) for c in want]
    for x, y in zip(got, want):
        assert x.slots.dtype == y.slots.dtype == np.int64
        assert x.slots.tolist() == y.slots.tolist()


@pytest.mark.parametrize("strategy", ["I", "II", "III"])
def test_components_equal_the_reference_scan(strategy):
    rng = np.random.default_rng(31)
    partitions = [louvain(g, seed=3) for g in _partition_cases()]
    for _ in range(200):  # any assignment, some cluster ids unused
        n = int(rng.integers(0, 30))
        k = int(rng.integers(1, n + 2))
        partitions.append(Partition(rng.integers(0, k, size=n), k))
    partitions += [Partition(np.arange(n), n) for n in (0, 1, 2, 5)]
    partitions += [Partition(np.zeros(n, dtype=int), 1) for n in (1, 2, 5)]
    for part in partitions:
        _assert_same_components(enumerate_components(part, strategy),
                                reference_enumerate_components(part, strategy))


def test_unknown_strategy_rejected(barbell_partition):
    # the message AttackConfig gives (errors.require_one_of)
    message = "strategy must be one of ('I', 'II', 'III'), got 'IV'"
    with pytest.raises(ConfigError, match=re.escape(message)):
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


def test_the_empty_partition_has_no_report():
    with pytest.raises(ConfigError, match="empty partition"):
        search_space_report(Partition(np.arange(0), 0))


def test_beta_exceeds_one_for_balanced_two_clusters():
    part = Partition(np.repeat([0, 1], 3), 2)
    assert search_space_report(part).beta > 1.0


def _exact_log2(x: int) -> decimal.Decimal:
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return decimal.Decimal(x).ln() / decimal.Decimal(2).ln()


@pytest.mark.parametrize("sizes", [[1] * 80, [20, 20, 20], [10] * 10, [3, 50, 7, 40]])
def test_log2_beta_of_an_overflowing_ratio_is_exact(sizes):
    part = Partition(np.repeat(np.arange(len(sizes)), sizes), len(sizes))
    report = search_space_report(part)
    denom = report.s_node + report.s_link
    assert report.beta == np.inf  # the ratio overflows a float
    # integer bracket: floor(log2(s_graph / denom)) is the bit length of
    # the integer quotient less one
    floor_log2 = (report.s_graph // denom).bit_length() - 1
    assert floor_log2 >= 1024
    assert floor_log2 <= report.log2_beta <= floor_log2 + 1  # the float may round up
    # and within rounding of the value at 60 digits
    exact = _exact_log2(report.s_graph) - _exact_log2(denom)
    assert abs(decimal.Decimal(report.log2_beta) - exact) <= decimal.Decimal("1e-11")
