"""Metrics, the random baseline, experiment runs and sweeps."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from blackedge.attack import AttackConfig, AttackResult, attack_graph
from blackedge.datasets import erdos_renyi, generate_synthetic
from blackedge.errors import ConfigError
from blackedge.gin import GinOracle, GinWeights
from blackedge.graph import Graph
from blackedge.harness import (
    _random_trials,
    aggregate_metrics,
    clean_accuracy,
    defense_sweep,
    random_attack,
    rows_to_csv,
    run_experiment,
    select_targets,
)
from blackedge.oracle import BLOCK, FunctionOracle, structural_oracle

from helpers import (
    CountingOracle,
    reference_max_flips,
    reference_random_attack,
    reference_random_trials,
    search_label_cases,
)


def _result(success, flips=0, queries=0, wall=1.0):
    return AttackResult(
        success=success,
        adversarial_graph=Graph.from_edges(3, []),
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
    # a mean over no run, or over no success, is None, not 0
    assert aggregate_metrics([]) == {"SR": None, "AP": None, "AQ": None, "AT": None,
                                     "avg_added": None, "avg_removed": None}
    metrics = aggregate_metrics([_result(False, queries=10)])
    assert metrics == {"SR": 0.0, "AP": None, "AQ": 10.0, "AT": 1.0,
                       "avg_added": None, "avg_removed": None}


# -- random baseline -----------------------------------------------------


def test_random_attack_respects_flip_cap_and_query_budget():
    g = generate_synthetic("erdos_renyi", 1, seed=0, n=12, p=0.3).graphs[0]
    oracle = structural_oracle("edge_count", g.n_edges + 2)
    res = random_attack(oracle, g, 0, AttackConfig(budget=0.2, seed=4), 300)
    # draws after the first success in flip order are never submitted, and a
    # draw that repeats an earlier graph is answered by the memo
    assert res.queries["total"] + res.memo_hits + res.skipped == 300
    assert res.found_in == "random"
    if res.success:
        assert res.flips <= int(0.2 * g.n_edge_slots)
        assert res.rate <= 0.2


def test_random_attack_keeps_the_minimal_flip_success():
    g = Graph.from_edges(8, [])
    # any single flip changes the label: the minimum over many uniform
    # draws must be exactly one flip
    oracle = structural_oracle("edge_count", 1)
    res = random_attack(oracle, g, 0, AttackConfig(budget=0.5), 200)
    assert res.success and res.flips == 1


def test_random_attack_stops_at_oracle_budget():
    g = Graph.from_edges(8, [])
    oracle = structural_oracle("edge_count", 100)
    res = random_attack(oracle, g, 0, AttackConfig(budget=0.5, max_queries=50), 500)
    assert not res.success and res.stop_reason == "query_budget"
    assert res.queries["total"] == res.queries["other"] == 50


@pytest.mark.parametrize("n_nodes, budget", [(5, 0.05), (5, 0.0999), (20, 0.005), (1, 1.0)])
def test_random_attack_fails_when_the_budget_allows_no_flip(n_nodes, budget):
    # max_flips == 0: no trial is drawn, none is submitted, and the run
    # fails instead of flipping a slot above its budget
    oracle = structural_oracle("edge_count", 1)
    res = random_attack(oracle, Graph.from_edges(n_nodes, []), 0, AttackConfig(budget=budget, seed=3), 10)
    assert not res.success and res.flips == 0 and res.rate == 0.0
    assert res.stop_reason == "rate_budget"
    assert res.skipped == 10 and res.memo_hits == 0 and res.queries["total"] == 0
    report = run_experiment(structural_oracle("edge_count", 1), [Graph.from_edges(n_nodes, [])],
                            AttackConfig(budget=budget), method="random",
                            random_query_budget=10)
    assert report.aggregates["SR"] == 0.0
    assert report.per_graph[0]["skipped"] == 10


def test_random_attack_flips_one_slot_at_a_budget_of_one_slot():
    oracle = structural_oracle("edge_count", 1)
    res = random_attack(oracle, Graph.from_edges(5, []), 0, AttackConfig(budget=0.1, seed=3), 10)
    assert res.success and res.flips == 1 and res.rate == 0.1


def test_random_attack_reaches_the_top_of_its_budget():
    # 300 slots at a budget of 0.41: 123 / 300 == 0.41 is within it, though
    # floor(0.41 * 300) == 122; only 123 flips change the label
    g = Graph.from_edges(25, [])
    assert int(np.floor(0.41 * g.n_edge_slots)) == 122 and 123 / 300 <= 0.41
    for seed in range(3):
        res = random_attack(structural_oracle("edge_count", 123), g, 0,
                            AttackConfig(budget=0.41, seed=seed), 3000)
        assert res.success and res.stop_reason == "converged"
        assert res.flips == 123 and res.rate == 0.41


@pytest.mark.parametrize("budget, query_budget, match", [
    (0.2, 0, "query_budget"), (0.2, -5, "query_budget"), (0.2, 2.5, "query_budget"),
    (0.0, 10, "budget"), (-0.1, 10, "budget"), (1.5, 10, "budget"),
    (float("nan"), 10, "budget"),
])
def test_random_attack_rejects_invalid_budgets(budget, query_budget, match):
    # the rate budget is checked where the config is made
    oracle = CountingOracle(lambda g: int(g.n_edges >= 1))
    with pytest.raises(ConfigError, match=match):
        random_attack(oracle, Graph.from_edges(8, []), 0, AttackConfig(budget=budget), query_budget)
    assert oracle.computed == 0


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


@pytest.mark.parametrize("query_budget", [1, 31, 32, 33, 1200])
def test_block_trials_equal_the_per_trial_reference(query_budget):
    """Each block of trials drawn in one call has the bits of one
    permutation per trial, and leaves the generator where those draws
    leave it: at each block's end and at the stream's."""
    clipped = set()
    for n in (2, 3, 8, 20):  # 1, 3, 28 and 190 slots
        graph = erdos_renyi(n, 0.3, np.random.default_rng(n))
        d = graph.n_edge_slots
        for seed, budget in enumerate((0.1, 0.2, 0.33, 0.5, 0.9, 1.0)):
            max_flips = reference_max_flips(d, budget)
            if max_flips == 0:
                continue
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            # the flip counts as random_attack draws them
            unclipped = np.rint(budget * ours.random(query_budget) * d)
            counts = np.sort(np.clip(unclipped, 1, max_flips)).astype(int)
            ref.random(query_budget)
            if (unclipped > max_flips).any():
                clipped.add(d)
            trials = _random_trials(graph, ours, counts)
            for i, want in enumerate(reference_random_trials(graph, ref, counts.tolist())):
                got = next(trials)
                assert got.bits.tobytes() == want.bits.tobytes()
                if i % BLOCK == BLOCK - 1:
                    assert ours.bit_generator.state == ref.bit_generator.state
            assert next(trials, None) is None
            assert ours.bit_generator.state == ref.bit_generator.state
    # 1,200 trials reach the top clip where a budget's share of the slots
    # exceeds max_flips by more than a half: 2.7 of 3, 2.8 of 28, 62.7 of 190
    if query_budget == 1200:
        assert clipped == {3, 28, 190}


@pytest.mark.parametrize("budget, query_budget", [(0.1, 40), (0.2, 150), (0.5, 100)])
def test_flip_order_random_attack_equals_the_draw_order_reference(budget, query_budget):
    """Same outcome as querying every draw in draw order, never more queries."""
    found = failed = repeats = 0
    for seed in range(10):
        g = erdos_renyi(10 + seed % 4, 0.3, np.random.default_rng(seed))
        for label_fn, y0, target in search_label_cases(g):
            cfg = AttackConfig(budget=budget, target_label=target, seed=seed)
            ref = reference_random_attack(FunctionOracle(label_fn), g, y0, cfg, query_budget)
            res = random_attack(FunctionOracle(label_fn), g, y0, cfg, query_budget)
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
    graphs = [replace(g, label=oracle.classify(g)) for g in bundle.graphs]
    return oracle, graphs


def test_select_targets_keeps_the_correctly_labelled_graphs(small_suite):
    oracle, graphs = small_suite
    targets = select_targets(oracle, graphs)
    assert len(targets) == len(graphs)  # labels came from the oracle itself
    graphs = [replace(graphs[0], label=1 - graphs[0].label), *graphs[1:],
              replace(graphs[0], label=None)]
    targets = select_targets(oracle, graphs)
    assert [idx for idx, _, _ in targets] == list(range(1, len(graphs)))
    assert [y0 for _, _, y0 in targets] == [oracle.classify(g) for g in graphs[1:]]


def test_run_experiment_rows_match_aggregates(small_suite):
    oracle, graphs = small_suite
    cfg = AttackConfig(budget=0.4, iterations=4, directions_per_step=10, seed=0)
    report = run_experiment(oracle, graphs, cfg)
    assert len(report.per_graph) == len(graphs)
    total_queries = [row["queries"]["total"] for row in report.per_graph]
    assert report.aggregates["AQ"] == pytest.approx(np.mean(total_queries))
    successes = [r for r in report.per_graph if r["success"]]
    assert report.aggregates["SR"] == len(successes) / len(graphs)
    # every run on the shared oracle counts its own queries, as a lone run does
    for (idx, g, y0), row in zip(select_targets(oracle, graphs), report.per_graph):
        alone = attack_graph(structural_oracle("edge_count", 20), g, y0,
                             replace(cfg, seed=cfg.seed + idx))
        assert row["queries"] == alone.queries


def test_a_targeted_experiment_attacks_only_the_targets_not_at_the_target_label():
    graphs = generate_synthetic("erdos_renyi", 6, seed=1, n=12, p=0.3).graphs
    oracle = structural_oracle("edge_count", 20)
    clean = [oracle.classify(g) for g in graphs]
    assert sorted(clean) == [0, 0, 0, 1, 1, 1]
    cfg = AttackConfig(target_label=1, iterations=5, directions_per_step=5)
    report = run_experiment(oracle, graphs, cfg)
    assert report.config["n_targets"] == 3
    assert [row["id"] for row in report.per_graph] == [i for i, y in enumerate(clean) if y == 0]
    assert all(row["flips_added"] + row["flips_removed"] > 0 for row in report.per_graph)


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
    # every random query is an ``other`` one, and the CSV shows them
    rows = list(csv.DictReader(report.to_csv().splitlines()))
    assert any(int(out["queries_total"]) > 0 for out in rows)
    for out in rows:
        assert out["queries_other"] == out["queries_total"]
        assert out["queries_cgs"] == out["queries_binary_search"] == out["queries_qegc"] == "0"


def test_run_experiment_rejects_bad_method(small_suite):
    oracle, graphs = small_suite
    from blackedge.errors import ConfigError

    with pytest.raises(ConfigError):
        run_experiment(oracle, graphs, AttackConfig(), method="exhaustive")
    with pytest.raises(ConfigError):
        run_experiment(oracle, graphs, AttackConfig(), method="random")


def test_run_experiment_rejects_a_random_query_budget_for_signsgd(small_suite):
    oracle, graphs = small_suite
    with pytest.raises(ConfigError, match="random_query_budget"):
        run_experiment(oracle, graphs, AttackConfig(), method="signsgd",
                       random_query_budget=100)


@pytest.mark.parametrize("query_budget", [0, -5, 2.5, "100"])
def test_run_experiment_rejects_a_random_query_budget_below_one(small_suite, query_budget):
    oracle, graphs = small_suite
    with pytest.raises(ConfigError, match="random_query_budget"):
        run_experiment(oracle, graphs, AttackConfig(), method="random",
                       random_query_budget=query_budget)


@pytest.mark.parametrize("n_trials", [0, -1, 1.5, None])
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
    report.save(json_path)
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

    csv_text = report.to_csv()
    assert (tmp_path / "report.csv").read_text() == csv_text
    header = csv_text.splitlines()[0]
    assert header == ("id,success,flips_added,flips_removed,rate,"
                      "queries_total,queries_cgs,queries_binary_search,"
                      "queries_qegc,queries_other,memo_hits,skipped,time_s,"
                      "found_in,stop_reason")
    # graphs submitted and drawn are recoverable from the CSV alone
    for out, row in zip(csv.DictReader(csv_text.splitlines()), report.per_graph):
        assert int(out["memo_hits"]) == row["memo_hits"]
        assert int(out["skipped"]) == row["skipped"]
        assert out["stop_reason"] == row["stop_reason"]


def test_a_report_without_targets_saves_null_aggregates_and_a_csv_header(small_suite, tmp_path):
    oracle, _ = small_suite
    report = run_experiment(oracle, [], AttackConfig())
    report.save(tmp_path / "empty.json")
    doc = json.loads((tmp_path / "empty.json").read_text())
    assert doc["per_graph"] == [] and set(doc["aggregates"].values()) == {None}
    header = (tmp_path / "empty.csv").read_text()
    assert header.startswith("id,success,") and header.endswith(",stop_reason\n")
    assert header.count("\n") == 1


# -- sweeps --------------------------------------------------------------


def test_clean_accuracy(small_suite):
    oracle, graphs = small_suite
    assert clean_accuracy(oracle, graphs) == 1.0  # labels came from it
    flipped = [replace(g, label=1 - g.label) for g in graphs]
    assert clean_accuracy(oracle, flipped) == 0.0
    with pytest.raises(ConfigError, match="labeled graph"):
        clean_accuracy(oracle, [replace(g, label=None) for g in graphs])


def test_defense_sweep_orders_gammas_and_hits_identity(small_suite):
    oracle, graphs = small_suite
    rows = defense_sweep(oracle, graphs, [1.0, 0.3, 0.6])
    assert [r["gamma"] for r in rows] == [0.3, 0.6, 1.0]
    assert rows[-1]["clean_accuracy"] == clean_accuracy(oracle, graphs)


@pytest.mark.parametrize("oracle", [GinOracle(GinWeights.random(0)),
                                    structural_oracle("edge_count", 14)],
                         ids=["gin", "edge_count"])
def test_a_sweep_on_unlabelled_graphs_equals_the_sweep_on_oracle_labelled_copies(oracle):
    graphs = generate_synthetic("erdos_renyi", 8, seed=0, n=10, p=0.3).graphs
    labelled = [replace(g, label=oracle.classify(g)) for g in graphs]
    gammas = [0.5, 1.0]
    cfg = AttackConfig(budget=0.3, iterations=2, directions_per_step=5)
    expected = defense_sweep(oracle, labelled, gammas, cfg)
    assert expected[-1]["clean_accuracy"] == 1.0  # gamma 1 keeps every graph's bits
    assert defense_sweep(oracle, graphs, gammas, cfg) == expected
    # each unlabelled graph is labelled once, before the sweep
    counting = CountingOracle(lambda g: int(g.n_edges >= 14))
    defense_sweep(counting, [*graphs[:4], *labelled[4:]], gammas)
    assert counting.computed == 4 + len(gammas) * len(graphs)


def test_rows_to_csv():
    rows = [{"gamma": 0.5, "clean_accuracy": 1.0}]
    assert rows_to_csv(rows) == "gamma,clean_accuracy\n0.5,1.0\n"
    assert rows_to_csv([]) == ""
    assert rows_to_csv([], ["gamma", "AP"]) == "gamma,AP\n"
    assert rows_to_csv([{"gamma": 0.5, "AP": None}]) == "gamma,AP\n0.5,\n"
