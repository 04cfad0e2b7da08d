"""Metrics, the random baseline, experiment runs and sweeps."""

import csv
import json

import numpy as np
import pytest

from blackedge.attack import AttackConfig, AttackResult
from blackedge.datasets import erdos_renyi, generate_synthetic
from blackedge.errors import ConfigError
from blackedge.graph import Graph
from blackedge.harness import (
    aggregate_metrics,
    clean_accuracy,
    defense_sweep,
    random_attack,
    rows_to_csv,
    run_experiment,
    select_targets,
)
from blackedge.oracle import FunctionOracle, structural_oracle

from helpers import reference_random_attack, search_label_cases


def _result(success, flips=0, queries=0, wall=1.0):
    return AttackResult(
        success=success,
        adversarial_graph=Graph.empty(3),
        added=[(0, k) for k in range(1, flips + 1)],
        queries={"total": queries},
        wall_time=wall,
    )


# -- metrics -------------------------------------------------------------


def test_aggregate_metrics_conventions():
    results = [
        _result(True, flips=2, queries=100),
        _result(True, flips=4, queries=200),
        _result(False, flips=0, queries=900),
    ]
    metrics = aggregate_metrics(results)
    assert metrics["SR"] == pytest.approx(2 / 3)  # over all targets
    assert metrics["AP"] == 3.0  # successes only: (2 + 4) / 2
    assert metrics["AQ"] == 400.0  # all targets: (100 + 200 + 900) / 3
    assert metrics["AT"] == 1.0
    assert metrics["avg_added"] == 3.0
    assert metrics["avg_removed"] == 0.0


def test_aggregate_metrics_empty_and_all_failed():
    assert aggregate_metrics([])["SR"] == 0.0
    metrics = aggregate_metrics([_result(False, queries=10)])
    assert metrics == {"SR": 0.0, "AP": 0.0, "AQ": 10.0, "AT": 1.0,
                       "avg_added": 0.0, "avg_removed": 0.0}


# -- random baseline -----------------------------------------------------


def test_random_attack_respects_flip_cap_and_query_budget():
    g = generate_synthetic("erdos_renyi", 1, seed=0, n=12, p=0.3).graphs[0]
    oracle = structural_oracle("edge_count", g.n_edges + 2)
    res = random_attack(oracle, g, 0, budget=0.2, query_budget=300, seed=4)
    # draws after the first success in flip order are never submitted, and a
    # draw that repeats an earlier graph is answered by the memo
    assert oracle.ledger.total + res.memo_hits + res.skipped == 300
    assert res.found_in == "random"
    if res.success:
        assert res.flips <= int(0.2 * g.n_edge_slots)
        assert res.rate <= 0.2


def test_random_attack_keeps_the_minimal_flip_success():
    g = Graph.empty(8)
    # any single flip changes the label: the minimum over many uniform
    # draws must be exactly one flip
    oracle = structural_oracle("edge_count", 1)
    res = random_attack(oracle, g, 0, budget=0.5, query_budget=200, seed=0)
    assert res.success and res.flips == 1


def test_random_attack_stops_at_oracle_budget():
    g = Graph.empty(8)
    oracle = structural_oracle("edge_count", 100)
    oracle.ledger.max_queries = 50
    res = random_attack(oracle, g, 0, budget=0.5, query_budget=500, seed=0)
    assert not res.success
    assert oracle.ledger.total == 50


@pytest.mark.parametrize("n_nodes, budget", [(5, 0.05), (5, 0.0999), (20, 0.005), (1, 1.0)])
def test_random_attack_fails_when_the_budget_allows_no_flip(n_nodes, budget):
    # floor(budget * slots) == 0: no trial is drawn, none is submitted, and
    # the run fails instead of flipping a slot above its budget
    oracle = structural_oracle("edge_count", 1)
    res = random_attack(oracle, Graph.empty(n_nodes), 0, budget, query_budget=10, seed=3)
    assert not res.success and res.flips == 0 and res.rate == 0.0
    assert res.stop_reason == "rate_budget"
    assert res.skipped == 10 and res.memo_hits == 0 and oracle.ledger.total == 0
    report = run_experiment(structural_oracle("edge_count", 1), [Graph.empty(n_nodes)],
                            AttackConfig(budget=budget), method="random",
                            random_query_budget=10)
    assert report.aggregates["SR"] == 0.0
    assert report.per_graph[0]["skipped"] == 10


def test_random_attack_flips_one_slot_at_a_budget_of_one_slot():
    oracle = structural_oracle("edge_count", 1)
    res = random_attack(oracle, Graph.empty(5), 0, budget=0.1, query_budget=10, seed=3)
    assert res.success and res.flips == 1 and res.rate == 0.1


@pytest.mark.parametrize("budget, query_budget, match", [
    (0.2, 0, "query_budget"), (0.2, -5, "query_budget"),
    (0.0, 10, "budget"), (-0.1, 10, "budget"), (1.5, 10, "budget"),
    (float("nan"), 10, "budget"),
])
def test_random_attack_rejects_invalid_budgets(budget, query_budget, match):
    oracle = structural_oracle("edge_count", 1)
    with pytest.raises(ConfigError, match=match):
        random_attack(oracle, Graph.empty(8), 0, budget, query_budget)
    assert oracle.ledger.total == 0


def test_ratio_draw_equals_the_uniform_draw():
    """``budget * random()`` is numpy's ``uniform(0, budget)``, one value or
    a batch at a time: the same values from the same stream, so the
    baseline's ratios keep their law and the reference may draw them with
    ``uniform``.  ``np.rint`` turns them into flip counts as ``round()``
    does, exact .5 ties included."""
    for budget in (0.05, 0.2, 0.3, 1.0):
        ours, ref = np.random.default_rng(11), np.random.default_rng(11)
        for k in range(2000):
            a, b = budget * ours.random(), ref.uniform(0.0, budget)
            assert a.hex() == b.hex()
            n_slots = 20 + k % 171
            size = 1 + k % 7
            assert np.array_equal(ours.choice(n_slots, size, replace=False),
                                  ref.choice(n_slots, size, replace=False))
        assert ours.bit_generator.state == ref.bit_generator.state
        for q in (1, 2, 40, 300, 1200):
            a, b = budget * ours.random(q), ref.uniform(0.0, budget, q)
            assert a.tobytes() == b.tobytes()
            assert np.array_equal(ours.permutation(190), ref.permutation(190))
        assert ours.bit_generator.state == ref.bit_generator.state
    ties = np.arange(400) + 0.5
    counts = np.concatenate([ties, 190 * np.random.default_rng(5).random(2000)])
    assert np.rint(counts).astype(int).tolist() == [round(c) for c in counts.tolist()]
    assert np.rint(ties[:4]).tolist() == [0.0, 2.0, 2.0, 4.0]


@pytest.mark.parametrize("budget, query_budget", [(0.1, 40), (0.2, 150), (0.5, 100)])
def test_flip_order_random_attack_equals_the_draw_order_reference(budget, query_budget):
    """Same outcome as querying every draw in draw order, never more queries."""
    found = failed = repeats = 0
    for seed in range(10):
        g = erdos_renyi(10 + seed % 4, 0.3, np.random.default_rng(seed))
        for label_fn, y0, target in search_label_cases(g):
            predicate = AttackConfig(target_label=target).predicate(y0)
            ref = reference_random_attack(FunctionOracle(label_fn), g, y0, budget,
                                          query_budget, seed, predicate)
            res = random_attack(FunctionOracle(label_fn), g, y0, budget, query_budget,
                                seed, predicate)
            assert res.success == ref.success
            assert np.array_equal(res.adversarial_graph.bits, ref.adversarial_graph.bits)
            assert (res.added, res.removed, res.rate, res.found_in, res.stop_reason) == \
                (ref.added, ref.removed, ref.rate, ref.found_in, ref.stop_reason)
            assert res.queries["total"] + res.memo_hits + res.skipped == query_budget
            if res.success:
                assert res.queries["total"] <= ref.queries["total"]
                found += 1
            else:  # every draw is submitted when none succeeds
                assert res.queries["total"] + res.memo_hits == ref.queries["total"]
                assert res.queries["other"] == res.queries["total"]
                failed += 1
            repeats += res.memo_hits
    assert found and failed and repeats


# -- experiment runner ---------------------------------------------------


@pytest.fixture
def small_suite():
    bundle = generate_synthetic("erdos_renyi", 4, seed=2, n=10, p=0.3)
    oracle = structural_oracle("edge_count", 20)
    graphs = [g.replace(label=oracle.clone().classify(g)) for g in bundle.graphs]
    return oracle, graphs


def test_select_targets_uses_throwaway_ledger(small_suite):
    oracle, graphs = small_suite
    targets = select_targets(oracle, graphs)
    assert oracle.ledger.total == 0
    assert len(targets) == len(graphs)  # labels came from the oracle itself


def test_run_experiment_rows_match_aggregates(small_suite):
    oracle, graphs = small_suite
    cfg = AttackConfig(budget=0.4, iterations=4, directions_per_step=10, seed=0)
    report = run_experiment(oracle, graphs, cfg)
    assert len(report.per_graph) == len(graphs)
    total_queries = [row["queries"]["total"] for row in report.per_graph]
    assert report.aggregates["AQ"] == pytest.approx(np.mean(total_queries))
    successes = [r for r in report.per_graph if r["success"]]
    assert report.aggregates["SR"] == len(successes) / len(graphs)
    # the shared oracle is never spent: each run used its own clone
    assert oracle.ledger.total == 0


def test_run_experiment_trials_multiply_rows(small_suite):
    oracle, graphs = small_suite
    cfg = AttackConfig(budget=0.4, iterations=2, directions_per_step=5, seed=0)
    report = run_experiment(oracle, graphs, cfg, n_trials=2)
    assert len(report.per_graph) == 2 * len(graphs)


def test_run_experiment_random_method(small_suite):
    oracle, graphs = small_suite
    cfg = AttackConfig(budget=0.4, seed=0)
    report = run_experiment(oracle, graphs, cfg, method="random",
                            random_query_budget=100)
    assert all(row["found_in"] == "random" for row in report.per_graph)
    assert all(row["queries"]["total"] + row["memo_hits"] + row["skipped"] == 100
               for row in report.per_graph)


def test_run_experiment_rejects_bad_method(small_suite):
    oracle, graphs = small_suite
    from blackedge.errors import ConfigError

    with pytest.raises(ConfigError):
        run_experiment(oracle, graphs, AttackConfig(), method="exhaustive")
    with pytest.raises(ConfigError):
        run_experiment(oracle, graphs, AttackConfig(), method="random")


@pytest.mark.parametrize("query_budget", [0, -5])
def test_run_experiment_rejects_a_random_query_budget_below_one(small_suite, query_budget):
    oracle, graphs = small_suite
    with pytest.raises(ConfigError, match="random_query_budget"):
        run_experiment(oracle, graphs, AttackConfig(), method="random",
                       random_query_budget=query_budget)


@pytest.mark.parametrize("n_trials", [0, -1])
def test_run_experiment_rejects_fewer_than_one_trial(small_suite, n_trials):
    oracle, graphs = small_suite
    with pytest.raises(ConfigError, match="n_trials"):
        run_experiment(oracle, graphs, AttackConfig(), n_trials=n_trials)


# -- report serialization ------------------------------------------------


def test_report_json_and_csv(small_suite, tmp_path):
    oracle, graphs = small_suite
    cfg = AttackConfig(budget=0.4, iterations=2, directions_per_step=5, seed=0)
    report = run_experiment(oracle, graphs, cfg)
    json_path = tmp_path / "report.json"
    report.save_json(json_path)
    doc = json.loads(json_path.read_text())
    assert set(doc) == {"config", "per_graph", "aggregates"}
    assert set(doc["aggregates"]) == {"SR", "AP", "AQ", "AT",
                                      "avg_added", "avg_removed"}
    row = doc["per_graph"][0]
    for key in ("id", "success", "flips_added", "flips_removed", "rate",
                "queries", "time_s", "found_in"):
        assert key in row
    assert set(row["queries"]) == {"cgs", "binary_search", "qegc", "other",
                                   "total"}

    csv_text = report.to_csv(include_time=False)
    header = csv_text.splitlines()[0]
    assert header == ("id,success,flips_added,flips_removed,rate,"
                      "queries_total,queries_cgs,queries_binary_search,"
                      "queries_qegc,memo_hits,skipped,found_in")
    # graphs submitted and drawn are recoverable from the CSV alone
    for out, row in zip(csv.DictReader(csv_text.splitlines()), report.per_graph):
        assert int(out["memo_hits"]) == row["memo_hits"]
        assert int(out["skipped"]) == row["skipped"]
    # byte-stable without the timing column
    assert report.to_csv(include_time=False) == csv_text


# -- sweeps --------------------------------------------------------------


def test_clean_accuracy(small_suite):
    oracle, graphs = small_suite
    assert clean_accuracy(oracle, graphs) == 1.0  # labels came from it
    flipped = [g.replace(label=1 - g.label) for g in graphs]
    assert clean_accuracy(oracle, flipped) == 0.0
    assert clean_accuracy(oracle, [g.replace(label=None) for g in graphs]) == 0.0


def test_defense_sweep_orders_gammas_and_hits_identity(small_suite):
    oracle, graphs = small_suite
    rows = defense_sweep(oracle, graphs, [1.0, 0.3, 0.6])
    assert [r["gamma"] for r in rows] == [0.3, 0.6, 1.0]
    assert rows[-1]["clean_accuracy"] == clean_accuracy(oracle, graphs)


def test_rows_to_csv():
    rows = [{"gamma": 0.5, "clean_accuracy": 1.0}]
    assert rows_to_csv(rows) == "gamma,clean_accuracy\n0.5,1.0\n"
    assert rows_to_csv([]) == ""
