"""The benchmark's tracer (``perfbench/tracing.py``) wraps program names.

It replaces each traced function at ``vars(owner)[attr]``, so a renamed
or inherited function breaks the benchmark, not the program.  These
checks keep that contract visible next to the program's own tests.
"""

import inspect

import numpy as np

from blackedge import harness
from blackedge.attack import AttackConfig
from blackedge.datasets import erdos_renyi
from blackedge.defense import DefendedOracle, LowRankConfig, low_rank_filter
from blackedge.gin import GinOracle, GinWeights
from blackedge.oracle import BLOCK, PHASES, structural_oracle

from helpers import perfbench_module

tracing = perfbench_module("tracing")
workloads = perfbench_module("workloads")


def test_every_traced_name_is_defined_on_its_owner():
    for owner, attr, _span in tracing.wrap_points():
        assert attr in vars(owner), f"{owner.__name__}.{attr} is not defined there"
        assert callable(vars(owner)[attr])
        if attr == "classify":  # the tracer reads the graph as args[1]
            params = list(inspect.signature(vars(owner)[attr]).parameters)
            assert params[:2] == ["self", "graph"]


def test_traced_phases_match_the_ledger():
    assert tracing.PHASES == PHASES
    graph = erdos_renyi(10, 0.3, np.random.default_rng(0))
    oracle = structural_oracle("edge_count", graph.n_edges + 6)
    cfg = AttackConfig(budget=0.5, iterations=3, directions_per_step=4, seed=4)
    with tracing.Tracer() as tracer:
        tracer.begin_target(0)
        report = harness.run_experiment(oracle, [graph], cfg)
    queries = report.per_graph[0]["queries"]
    # every attack phase queries, so a query made outside its phase's span shows
    assert all(queries[p] > 0 for p in ("cgs", "binary_search", "qegc"))
    assert tracer.phase_counts(1)[0].tolist() == [queries[p] for p in PHASES]


def _labelled_run(monkeypatch, oracle, graph, budget, query_budget):
    """A traced random-baseline run on ``oracle``, with every label
    computation logged in call order: ("batch", keys) for each batch
    kernel call and ("query", key) for each ``classify``."""
    events = []
    many, classify = DefendedOracle._classify_many, DefendedOracle.classify

    def logged_many(self, graph, bits):
        events.append(("batch", [row.tobytes() for row in bits]))
        return many(self, graph, bits)

    def logged_classify(self, graph, label=None):
        events.append(("query", graph.bits.tobytes()))
        return classify(self, graph, label)

    monkeypatch.setattr(DefendedOracle, "_classify_many", logged_many)
    monkeypatch.setattr(DefendedOracle, "classify", logged_classify)
    with tracing.Tracer() as tracer:
        tracer.begin_target(0)
        report = harness.run_experiment(oracle, [graph], AttackConfig(budget=budget, seed=2),
                                        method="random", random_query_budget=query_budget)
    monkeypatch.undo()
    return report.per_graph[0], tracer, events


def test_each_defended_query_is_labelled_once(monkeypatch):
    # A query's label is computed once: by one filter and one GIN call under
    # its own classify span, or as one row of the batch call of its block.
    # At most one block of labels is computed and never asked for.
    graph = erdos_renyi(12, 0.3, np.random.default_rng(1))
    cfg = LowRankConfig(gamma=0.5)
    weights = GinWeights.random(0)
    # the filtered target's class-1 margin, moved so that the 4th trial succeeds
    margin = workloads.class1_margin(weights, low_rank_filter(graph, cfg))
    runs = [(weights, 30, 30, False), (workloads.shift_class1_bias(weights, margin - 0.1),
                                       100, 4, True)]
    for weights, query_budget, total, success in runs:
        oracle = DefendedOracle(GinOracle(weights), cfg)
        row, tracer, events = _labelled_run(monkeypatch, oracle, graph, 0.3, query_budget)
        queries = row["queries"]
        assert (queries["total"], row["success"]) == (total, success)
        assert tracer.phase_counts(1)[0].tolist() == [queries[p] for p in PHASES]
        c = tracer.columns()
        spans = np.flatnonzero(c["name"] == tracer.names.index(tracing.CLASSIFY))
        asked = [key for kind, key in events if kind == "query"]
        assert len(spans) == len(asked)  # selection's classify included
        assert (c["query"][spans] != tracing.NOT_QUERY).sum() == total
        under = {}
        for layer in ("defense.low_rank_filter", "gin.gin_forward"):
            calls = c["name"] == tracer.names.index(layer)
            under[layer] = np.bincount(c["parent"][calls], minlength=c["name"].size)[spans]
        ahead, unasked, single, batched = set(), 0, 0, 0
        span_of = iter(range(len(spans)))
        for kind, key in events:
            if kind == "batch":
                assert len(set(key)) == len(key)  # each graph's label once
                unasked += len(ahead)
                ahead = set(key)
                continue
            i = next(span_of)
            filtered, labelled = under["defense.low_rank_filter"][i], under["gin.gin_forward"][i]
            if key in ahead:
                ahead.remove(key)
                batched += 1
                assert filtered == labelled == 0
            else:
                single += 1
                assert filtered == labelled == 1
        unasked += len(ahead)
        assert batched == total and single == 1  # target selection is one single query
        if success:  # the rest of the success's block, less repeats of a graph
            assert 0 < unasked <= BLOCK - total
        else:
            assert unasked == 0
        # no filter or GIN call outside a single query's span
        attack_cost = c["phase"] != tracing.UNCOUNTED
        for layer in ("defense.low_rank_filter", "gin.gin_forward"):
            assert ((c["name"] == tracer.names.index(layer)) & attack_cost).sum() == 0
