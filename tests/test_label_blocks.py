"""Labels computed ahead in blocks: batch kernels and their accounting.

The batch kernels (``GinOracle._classify_many``, ``DefendedOracle.
_classify_many``) must give the single-graph path's bits.  The fixed query
streams that label their blocks ahead (random baseline, coarse search,
gradient probes) must give outcomes identical to an oracle without a
batch kernel, count each query once, and leave no label behind.
"""

from contextlib import closing
from dataclasses import replace

import numpy as np
import pytest

from blackedge.attack import attack_graph
from blackedge.defense import (
    DefendedOracle,
    LowRankConfig,
    _low_rank_bits_many,
    low_rank_filter,
)
from blackedge.errors import BudgetExhausted
from blackedge.gin import GinOracle, GinWeights, _featureless_logits_many, gin_logits
from blackedge.graph import Graph, stacked_adjacency
from blackedge.harness import random_attack
from blackedge.oracle import BLOCK, structural_oracle

from helpers import complete_graph, perfbench_module, random_graph, untargeted_memo

workloads = perfbench_module("workloads")
BATCHES = (1, 2, 7, 32, 33)


class UnbatchedGin(GinOracle):
    """The GIN oracle without a batch kernel: every label one graph at a time."""

    _classify_many = None


class UnbatchedDefended(DefendedOracle):
    _classify_many = None


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


@pytest.mark.parametrize("size", BATCHES)
def test_batch_kernels_equal_the_single_path_on_the_workload_graphs(
        workload_graphs, weights, size):
    cfg = workloads.DEFENSE
    gin = GinOracle(weights)
    defended = DefendedOracle(gin, cfg)
    for block in _blocks(workload_graphs, size):
        bits = np.stack([g.bits for g in block])
        logits = _featureless_logits_many(weights, stacked_adjacency(20, bits))
        filtered = _low_rank_bits_many(20, bits, cfg)
        for g, row, kept in zip(block, logits, filtered):
            assert row.tobytes() == gin_logits(weights, g).tobytes()
            assert kept.tobytes() == low_rank_filter(g, cfg).bits.tobytes()
        assert gin._classify_many(block) == [gin._classify(g) for g in block]
        assert defended._classify_many(block) == [defended._classify(g) for g in block]
    labels = gin._classify_many(workload_graphs)
    assert set(labels) == set(defended._classify_many(workload_graphs)) == {0, 1}


@pytest.mark.parametrize("n", [2, 3, 12])
@pytest.mark.parametrize("size", BATCHES)
def test_batch_kernels_equal_the_single_path_on_small_graphs(n, size):
    rng = np.random.default_rng(n)
    graphs = [Graph.empty(n), complete_graph(n)] + [random_graph(rng, n) for _ in range(40)]
    for weights in (GinWeights.random(1), GinWeights.random(2, hidden_dims=(5, 4, 3)),
                    GinWeights.random(3, hidden_dims=())):
        for cfg in (LowRankConfig(0.5), LowRankConfig(0.25),
                    LowRankConfig(1.0)):
            gin = GinOracle(weights)
            defended = DefendedOracle(gin, cfg)
            for block in _blocks(graphs, size):
                bits = np.stack([g.bits for g in block])
                logits = _featureless_logits_many(weights, stacked_adjacency(n, bits))
                for g, row, kept in zip(block, logits, _low_rank_bits_many(n, bits, cfg)):
                    assert row.tobytes() == gin_logits(weights, g).tobytes()
                    assert kept.tobytes() == low_rank_filter(g, cfg).bits.tobytes()
                assert gin._classify_many(block) == [gin._classify(g) for g in block]
                assert defended._classify_many(block) == [defended._classify(g)
                                                          for g in block]


def test_batch_kernels_equal_the_single_path_on_featured_graphs():
    rng = np.random.default_rng(4)
    oracle = GinOracle(GinWeights.random(5, feature_dim=3))
    graphs = [random_graph(rng, 6).replace(features=rng.standard_normal((6, 3)))
              for _ in range(40)]
    for batched in (oracle, DefendedOracle(oracle, LowRankConfig(0.5))):
        for size in BATCHES:
            for block in _blocks(graphs, size):
                assert batched._classify_many(block) == [batched._classify(g) for g in block]


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
    for oracle, pulled_first in ((edge_count, 1), (GinOracle(weights), BLOCK)):
        pulled = []
        stream = (pulled.append(g) or g for g in graphs)
        memo = untargeted_memo(oracle, graphs[0])
        with closing(memo.in_blocks(stream)) as queue:
            assert next(queue) is graphs[0]
            assert len(pulled) == pulled_first
            assert list(queue) == graphs[1:]
        assert oracle._ahead == {}


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
    oracle._classify_many = lambda gs: labelled.append(len(gs)) or many(gs)
    out = []
    with closing(memo.in_blocks(stream)) as queue:
        for g in queue:
            if not out:
                # the nine graphs the memo did not hold, each once
                assert labelled == [9] and len(oracle._ahead) == 9
                assert oracle.ledger.total == 1  # labelled, not queried
            out.append(g)
            if g is not None:
                memo.adversarial(g, "cgs")
            if len(out) == len(stream):
                assert oracle._ahead == {}  # each label taken by its query
    assert out == stream
    assert oracle.ledger.snapshot()["cgs"] == 9 and memo.hits == 3


def test_a_capped_stream_leaves_no_label_behind():
    rng = np.random.default_rng(2)
    oracle = GinOracle(GinWeights.random(0))
    oracle.ledger.max_queries = 5
    graphs = [random_graph(rng, 8) for _ in range(12)]
    memo = untargeted_memo(oracle, graphs[0])
    with pytest.raises(BudgetExhausted):
        with closing(memo.in_blocks(graphs)) as queue:
            for g in queue:
                memo.adversarial(g, "qegc")
    assert oracle.ledger.total == 5
    # the refused graph never got a verdict; the labels left unasked are dropped
    assert len(memo.labels) == 5 and graphs[5].bits.tobytes() not in memo.labels
    assert oracle._ahead == {}


def test_a_clone_shares_no_labels_computed_ahead():
    rng = np.random.default_rng(3)
    weights = GinWeights.random(0)
    for oracle in (GinOracle(weights), DefendedOracle(GinOracle(weights), LowRankConfig(0.5))):
        graphs = [random_graph(rng, 8) for _ in range(4)]
        oracle.compute_ahead({g.bits.tobytes(): g for g in graphs})
        twin = oracle.clone()
        assert twin._ahead == {} and twin._ahead is not oracle._ahead
        assert twin.ledger is not oracle.ledger and twin.ledger.total == 0
        # the gate's re-verification on a clone costs exactly one query
        assert twin.classify(graphs[0]) == oracle._classify(graphs[0])
        assert twin.ledger.total == 1 and oracle.ledger.total == 0
        assert len(oracle._ahead) == 4
    # a defended oracle shares its inner oracle's ledger from the start
    inner = GinOracle(weights)
    assert DefendedOracle(inner, LowRankConfig(0.5)).ledger is inner.ledger


# -- outcomes do not move ----------------------------------------------------


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
            y0 = single.clone().classify(g)
            run_cfg = replace(cfg, seed=idx)
            runs = []
            for oracle in (batched.clone(), single.clone()):
                res = attack_graph(oracle, g, y0, run_cfg)
                assert oracle._ahead == {}
                oracle = oracle.clone()
                oracle.ledger.max_queries = max_queries
                rnd = random_attack(oracle, g, y0, cfg.budget, 300, seed=idx)
                assert oracle._ahead == {}
                runs.append((_outcome(res), _outcome(rnd)))
            assert runs[0] == runs[1]
            successes += runs[0][0][0] + runs[0][1][0]
    if max_queries != 1:
        assert successes > 0
