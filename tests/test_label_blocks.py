"""Labels computed ahead in blocks: batch kernels and their accounting.

The batch kernels (``GinOracle._classify_many``, ``DefendedOracle.
_classify_many``) take a run graph and a bit matrix and must give the
single-graph path's bits for each row.  The fixed query streams that
label their blocks ahead (random baseline, coarse search, gradient
probes) must give outcomes identical to an oracle without a batch kernel
and count each query once.  The labels computed ahead live
in the run's memo, never on the oracle.
"""

from dataclasses import replace

import numpy as np
import pytest

from blackedge.attack import attack_graph
from blackedge.cgs import coarse_grained_search
from blackedge.defense import (
    DefendedOracle,
    LowRankConfig,
    _binarized_bits,
    _reconstruction,
    low_rank_filter,
)
from blackedge.errors import BudgetExhausted, DimensionMismatch, NoAdversarialFound
from blackedge.gin import GinOracle, GinWeights, _logits, gin_logits
from blackedge.graph import Graph, stacked_adjacency
from blackedge.harness import random_attack
from blackedge.oracle import BLOCK, LabelMemo, structural_oracle
from blackedge.partition import louvain

from helpers import (
    complete_graph,
    from_adjacency,
    perfbench_module,
    random_graph,
    untargeted_memo,
)

workloads = perfbench_module("workloads")
BATCHES = (1, 2, 7, 32, 33)


class UnbatchedGin(GinOracle):
    """The GIN oracle without a batch kernel: every label one graph at a time."""

    _classify_many = None


class UnbatchedDefended(DefendedOracle):
    _classify_many = None


class LoggedGin(GinOracle):
    """The GIN oracle logging, in call order, each query ("query", graph,
    label passed) and each label computed one graph at a time
    ("computed", graph)."""

    def __init__(self, weights):
        super().__init__(weights)
        self.events = []

    def classify(self, graph, label=None):
        self.events.append(("query", graph, label))
        return super().classify(graph, label)

    def _classify(self, graph):
        self.events.append(("computed", graph))
        return super()._classify(graph)


@pytest.fixture(scope="module")
def workload_graphs():
    """The benchmark's 96 graphs and three random perturbations of each."""
    graphs = workloads.evaluation_set()
    rng = np.random.default_rng(23)
    perturbed = [g.flip(rng.permutation(g.n_edge_slots)[:rng.integers(1, 40)])
                 for g in graphs for _ in range(3)]
    return graphs + perturbed


@pytest.fixture(scope="module")
def weights():
    return workloads.balanced_gin(workloads.evaluation_set())


def _blocks(graphs, size):
    return [graphs[i:i + size] for i in range(0, len(graphs), size)]


# -- batch kernels equal the single path -----------------------------------


def _batch_labels(oracle, block):
    """The batch kernel's labels of ``block``, whose graphs share the node
    count and features of ``block[0]``, the run graph."""
    return oracle._classify_many(block[0], np.stack([g.bits for g in block]))


def _assert_the_stack_equals_the_single_path(weights, cfg, block):
    """Each kernel run once on the stack of ``block`` gives, row by row, the
    bits it gives each graph alone, and both batch kernels its labels."""
    n, features = block[0].n_nodes, block[0].features
    assert all(g.features is features for g in block)
    a = stacked_adjacency(n, np.stack([g.bits for g in block]))
    h = None if features is None else np.stack([g.features for g in block])
    r = _reconstruction(a, cfg.rank(n))
    for g, a_row, logits, r_row, kept in zip(block, a, _logits(weights, a, h), r,
                                             _binarized_bits(r)):
        assert a_row.tobytes() == g.adjacency.tobytes()
        assert logits.tobytes() == gin_logits(weights, g).tobytes()
        assert r_row.tobytes() == _reconstruction(g.adjacency, cfg.rank(n)).tobytes()
        assert kept.tobytes() == low_rank_filter(g, cfg).bits.tobytes()
    gin = GinOracle(weights)
    defended = DefendedOracle(gin, cfg)
    assert _batch_labels(gin, block) == [gin._classify(g) for g in block]
    assert _batch_labels(defended, block) == [defended._classify(g) for g in block]


@pytest.mark.parametrize("size", BATCHES)
def test_batch_kernels_equal_the_single_path_on_the_workload_graphs(
        workload_graphs, weights, size):
    for block in _blocks(workload_graphs, size):
        _assert_the_stack_equals_the_single_path(weights, workloads.DEFENSE, block)
    defended = DefendedOracle(GinOracle(weights), workloads.DEFENSE)
    labels = _batch_labels(GinOracle(weights), workload_graphs)
    assert set(labels) == set(_batch_labels(defended, workload_graphs)) == {0, 1}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 12])
@pytest.mark.parametrize("size", BATCHES)
def test_batch_kernels_equal_the_single_path_on_small_graphs(n, size):
    rng = np.random.default_rng(n)
    graphs = [Graph.from_edges(n, []), complete_graph(n)] + [random_graph(rng, n) for _ in range(40)]
    # with a hidden layer of width 1, a stack laid out unlike one graph is
    # summed in another order and its logits differ in their last bits
    for weights in (GinWeights.random(1), GinWeights.random(2, hidden_dims=(5, 4, 3)),
                    GinWeights.random(3, hidden_dims=()),
                    GinWeights.random(0, hidden_dims=(1,)),
                    GinWeights.random(4, hidden_dims=(1, 4)),
                    GinWeights.random(5, hidden_dims=(4, 1))):
        for cfg in (LowRankConfig(0.5), LowRankConfig(0.25),
                    LowRankConfig(1.0)):
            for block in _blocks(graphs, size):
                _assert_the_stack_equals_the_single_path(weights, cfg, block)


def test_batch_kernels_equal_the_single_path_on_featured_graphs():
    # each block shares the features of its run graph, as a run's graphs do
    rng = np.random.default_rng(4)
    for feature_dim in (1, 2, 3):
        for weights in (GinWeights.random(5, feature_dim=feature_dim),
                        GinWeights.random(6, feature_dim=feature_dim, hidden_dims=()),
                        GinWeights.random(7, feature_dim=feature_dim, hidden_dims=(1,))):
            graphs = [random_graph(rng, 6) for _ in range(40)]
            for size in BATCHES:
                for block in _blocks(graphs, size):
                    features = rng.standard_normal((6, feature_dim))
                    block = [replace(g, features=features) for g in block]
                    _assert_the_stack_equals_the_single_path(weights, LowRankConfig(0.5), block)


def test_a_featured_block_of_another_feature_dim_is_rejected():
    # the block's run graph has features of another dim than the network's
    rng = np.random.default_rng(6)
    oracle = GinOracle(GinWeights.random(5, feature_dim=3))
    graph = replace(random_graph(rng, 6), features=rng.standard_normal((6, 2)))
    bits = np.stack([random_graph(rng, 6).bits for _ in range(4)])
    for batched in (oracle, DefendedOracle(oracle, LowRankConfig(0.5))):
        with pytest.raises(DimensionMismatch):
            batched._classify_many(graph, bits)


@pytest.mark.parametrize("gamma", [0.05, 0.5, 1.0])
def test_the_filter_stack_equals_the_single_path_on_complete_bipartite_graphs(gamma):
    # K_{p,q} has the eigenvalues sqrt(pq) and -sqrt(pq), which tie in |λ|
    rng = np.random.default_rng(7)
    cfg = LowRankConfig(gamma)
    for n in (7, 12):
        graphs = []
        for p in range(1, n):
            a = np.zeros((n, n))
            a[:p, p:] = a[p:, :p] = 1
            perm = rng.permutation(n)
            graphs += [from_adjacency(a), from_adjacency(a[np.ix_(perm, perm)])]
        for size in BATCHES:
            for block in _blocks(graphs, size):
                _assert_the_stack_equals_the_single_path(GinWeights.random(n), cfg, block)


def test_only_oracles_with_a_batch_kernel_label_ahead():
    weights = GinWeights.random(0)
    edge_count = structural_oracle("edge_count", 3)
    assert edge_count._classify_many is None
    assert DefendedOracle(edge_count, LowRankConfig(0.5))._classify_many is None
    assert GinOracle(weights)._classify_many is not None
    assert DefendedOracle(GinOracle(weights), LowRankConfig(0.5))._classify_many is not None
    assert DefendedOracle(UnbatchedGin(weights), LowRankConfig(0.5))._classify_many is None
    # without a batch kernel, a lazy stream is pulled one graph at a time;
    # with one, a block at a time
    rng = np.random.default_rng(0)
    graphs = [random_graph(rng, 6) for _ in range(2 * BLOCK + 3)]
    for oracle, pulled_first, unasked in ((edge_count, 1, 0), (GinOracle(weights), BLOCK, 3)):
        pulled = []
        stream = (pulled.append(g) or g for g in graphs)
        memo = untargeted_memo(oracle, graphs[0])
        queue = memo.in_blocks(stream)
        assert next(queue) is graphs[0]
        assert len(pulled) == pulled_first
        assert list(queue) == graphs[1:]
        # the last block's labels, never asked for: no query, no verdict
        assert len(memo.ahead) == unasked and memo.labels == {}
        assert memo.total == 0


# -- accounting --------------------------------------------------------------


def test_a_block_labels_only_graphs_not_in_the_memo_and_counts_at_classify():
    rng = np.random.default_rng(1)
    oracle = GinOracle(GinWeights.random(0))
    graphs = [random_graph(rng, 8) for _ in range(10)]
    stream = graphs[:3] + [None] + graphs[:2] + graphs[3:]  # repeats and a None
    memo = untargeted_memo(oracle, graphs[0])
    memo.adversarial(graphs[0], "other")
    labelled = []
    many = oracle._classify_many
    oracle._classify_many = lambda graph, bits: labelled.append(len(bits)) or many(graph, bits)
    out = []
    for g in memo.in_blocks(stream):
        if not out:
            # the nine graphs the memo did not hold, each once
            assert labelled == [9] and len(memo.ahead) == 9
            assert memo.total == 1  # labelled, not queried
        out.append(g)
        if g is not None:
            memo.adversarial(g, "cgs")
    assert memo.ahead == {}  # each label taken by its query
    assert out == stream
    assert memo.queries["cgs"] == 9 and memo.hits == 3


def test_a_capped_stream_gives_the_refused_graph_no_verdict():
    rng = np.random.default_rng(2)
    oracle = GinOracle(GinWeights.random(0))
    graphs = [random_graph(rng, 8) for _ in range(12)]
    memo = untargeted_memo(oracle, graphs[0], max_queries=5)
    with pytest.raises(BudgetExhausted):
        for g in memo.in_blocks(graphs):
            memo.adversarial(g, "qegc")
    assert memo.total == 5
    # the refused graph never got a verdict; the labels left unasked stay
    # in the memo, apart from its verdicts
    assert len(memo.labels) == 5 and graphs[5].bits.tobytes() not in memo.labels
    assert list(memo.ahead) == [g.bits.tobytes() for g in graphs[6:]]


def test_a_label_left_unasked_answers_a_later_query_of_its_graph():
    rng = np.random.default_rng(5)
    oracle = GinOracle(GinWeights.random(0))
    graphs = [random_graph(rng, 8) for _ in range(10)]
    memo = untargeted_memo(oracle, graphs[0])
    for g in memo.in_blocks(graphs):  # one block of 10, stopped after 2
        memo.adversarial(g, "cgs")
        if g is graphs[1]:
            break
    computed = []
    single = oracle._classify
    oracle._classify = lambda graph: computed.append(graph) or single(graph)
    verdict = memo.adversarial(graphs[5], "binary_search")
    # one counted query, answered with the label computed ahead
    assert computed == []
    assert memo.queries["binary_search"] == 1 and memo.total == 3
    label = single(graphs[5])
    assert memo.labels[graphs[5].bits.tobytes()] == label
    assert verdict == memo.predicate(label)


def test_the_final_re_verification_computes_its_label(weights):
    graphs = workloads.evaluation_set()
    for idx, g in enumerate(graphs):
        oracle = LoggedGin(weights)
        y0 = GinOracle(weights).classify(g)
        res = attack_graph(oracle, g, y0, replace(workloads.ATTACK, seed=idx))
        if res.success:
            break
    assert res.success
    (query, queried, label), (computed, labelled) = oracle.events[-2:]
    assert (query, label, computed) == ("query", None, "computed")
    assert queried is labelled
    assert queried.bits.tobytes() == res.adversarial_graph.bits.tobytes()


def test_a_clone_shares_no_labels_computed_ahead():
    rng = np.random.default_rng(3)
    weights = GinWeights.random(0)
    for oracle in (GinOracle(weights), DefendedOracle(GinOracle(weights), LowRankConfig(0.5))):
        graph = random_graph(rng, 8)
        memo = untargeted_memo(oracle, graph)
        next(memo.in_blocks([graph]))
        twin = oracle.clone()
        # the labels computed ahead stay in the memo: the oracle and its
        # clone hold none, and the gate's re-verification on the clone
        # computes its label
        assert list(memo.ahead) == [graph.bits.tobytes()]
        assert twin is not oracle and vars(twin) == vars(oracle)
        assert "ahead" not in vars(twin) and "labels" not in vars(twin)
        assert twin.classify(graph) == oracle._classify(graph)


# -- outcomes do not move ----------------------------------------------------


def test_the_coarse_search_is_the_same_with_and_without_a_batch_kernel(weights):
    # the gallop goes as one block and the bisection one trial at a time;
    # a predicate nothing meets also scans every phase in blocks
    graphs = workloads.evaluation_set()
    searched = 0
    for idx in range(12):
        g = graphs[idx]
        part = louvain(g, seed=idx)
        y0 = UnbatchedGin(weights).classify(g)
        for predicate in (lambda label: label != y0, lambda label: False):
            runs = []
            for oracle in (GinOracle(weights), UnbatchedGin(weights)):
                memo = LabelMemo(oracle, predicate, g, 1.0)
                try:
                    seed = coarse_grained_search(memo, part, "I", idx)
                    outcome = (seed.theta0.tolist(), seed.found_in, seed.skipped)
                except NoAdversarialFound as exc:
                    outcome = str(exc)
                best = None if memo.best is None else memo.best.bits.tobytes()
                runs.append((outcome, memo.queries, memo.hits, best))
            assert runs[0] == runs[1]
            searched += isinstance(runs[0][0], tuple)
    assert searched == 12



def _outcome(res):
    return (res.success, res.adversarial_graph.bits.tobytes(), res.queries, res.memo_hits,
            res.skipped, res.p_trace, res.gradient_norm_trace, res.found_in,
            res.stop_reason)


@pytest.mark.parametrize("max_queries", [None, 1, 37, 100])
def test_labelling_ahead_moves_no_outcome(weights, max_queries):
    graphs = workloads.evaluation_set()
    # 40 probes per step: blocks of 32 and 8
    cfg = replace(workloads.ATTACK, iterations=6, directions_per_step=40,
                  max_queries=max_queries)
    cfg_defense = workloads.DEFENSE
    pairs = [(GinOracle(weights), UnbatchedGin(weights)),
             (DefendedOracle(GinOracle(weights), cfg_defense),
              UnbatchedDefended(UnbatchedGin(weights), cfg_defense))]
    successes = 0
    for batched, single in pairs:
        for idx in (0, 3, 5, 8):
            g = graphs[idx]
            y0 = single.classify(g)
            run_cfg = replace(cfg, seed=idx)
            runs = []
            for oracle in (batched, single):
                res = attack_graph(oracle, g, y0, run_cfg)
                rnd = random_attack(oracle, g, y0, run_cfg, 300)
                runs.append((_outcome(res), _outcome(rnd)))
            assert runs[0] == runs[1]
            successes += runs[0][0][0] + runs[0][1][0]
    if max_queries != 1:
        assert successes > 0


@pytest.mark.parametrize("query_budget", [1, 31, 32, 33, 1200])
def test_the_random_baseline_is_the_same_with_and_without_a_batch_kernel(weights, query_budget):
    # blocks of trials are drawn either way; only the batch kernel labels
    # them ahead
    graphs = workloads.evaluation_set()
    cfg = workloads.DEFENSE
    pairs = [(GinOracle(weights), UnbatchedGin(weights)),
             (DefendedOracle(GinOracle(weights), cfg),
              UnbatchedDefended(UnbatchedGin(weights), cfg))]
    outcomes = []
    for batched, single in pairs:
        for idx in range(6):
            g = graphs[idx]
            y0 = single.classify(g)
            run_cfg = replace(workloads.ATTACK, seed=idx)
            runs = [_outcome(random_attack(oracle, g, y0, run_cfg, query_budget))
                    for oracle in (batched, single)]
            assert runs[0] == runs[1]
            outcomes.append(runs[0])
    successes = sum(outcome[0] for outcome in outcomes)
    assert 0 < successes < len(outcomes) or query_budget < 32
