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
from blackedge.defense import DefendedOracle, LowRankConfig
from blackedge.gin import GinOracle, GinWeights
from blackedge.oracle import PHASES, structural_oracle

from helpers import perfbench_module

tracing = perfbench_module("tracing")


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


def test_each_defended_query_filters_once_and_runs_the_gin_once():
    graph = erdos_renyi(12, 0.3, np.random.default_rng(1))
    oracle = DefendedOracle(GinOracle(GinWeights.random(0)), LowRankConfig(gamma=0.5))
    with tracing.Tracer() as tracer:
        tracer.begin_target(0)
        report = harness.run_experiment(oracle, [graph], AttackConfig(budget=0.3, seed=2),
                                        method="random", random_query_budget=30)
    queries = report.per_graph[0]["queries"]
    assert queries["total"] == 30
    assert tracer.phase_counts(1)[0].tolist() == [queries[p] for p in PHASES]
    c = tracer.columns()
    is_query = c["query"] != tracing.NOT_QUERY
    attack_cost = c["phase"] != tracing.UNCOUNTED  # not target selection
    for layer in ("defense.low_rank_filter", "gin.gin_forward"):
        spans = c["name"] == tracer.names.index(layer)
        per_parent = np.bincount(c["parent"][spans], minlength=c["name"].size)
        assert per_parent[is_query].tolist() == [1] * queries["total"]
        assert (spans & attack_cost).sum() == queries["total"]
