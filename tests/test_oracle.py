"""Oracles, query accounting and budgets."""

import numpy as np
import pytest

from blackedge.datasets import barbell
from blackedge.errors import BudgetExhausted, ConfigError
from blackedge.graph import Graph, perturbation_rate
from blackedge.oracle import (
    FunctionOracle,
    LabelMemo,
    structural_oracle,
)

from helpers import (
    CountingOracle,
    TableOracle,
    UnknownGraph,
    complete_graph,
    hashed_label,
    random_graph,
    reference_keeps,
    reference_max_flips,
)


# -- query accounting ------------------------------------------------------


def _memo(oracle, max_queries=None):
    return LabelMemo(oracle, lambda label: label == 1, complete_graph(3), 1.0, max_queries)


def test_ledger_counts_by_phase():
    memo = _memo(structural_oracle("edge_count", 1))
    for phase in ("other", "cgs", "cgs", "qegc", "cgs"):
        assert memo.query(complete_graph(3), phase) == 1
    assert memo.queries == {"cgs": 3, "binary_search": 0, "qegc": 1, "other": 1}
    assert memo.total == 5


def test_unknown_phase_is_rejected_and_not_recorded():
    oracle = CountingOracle(lambda g: int(g.n_edges >= 1))
    memo = _memo(oracle)
    for phase in ("search", "total"):
        with pytest.raises(ValueError):
            memo.query(complete_graph(3), phase)
    assert memo.total == 0 and oracle.computed == 0


def test_every_classify_costs_one_query():
    oracle = CountingOracle(lambda g: int(g.n_edges >= 1))
    memo = _memo(oracle)
    g = complete_graph(3)
    memo.adversarial(g, "cgs")
    for expected in range(2, 6):
        assert memo.query(g, "other") == 1
        assert memo.total == oracle.computed == expected
    assert memo.hits == 0
    # the memo answers a repeated verdict, never a query
    assert memo.adversarial(g, "cgs") and memo.hits == 1 and memo.total == 5
    # a label computed ahead is returned as is, and still counted
    assert memo.query(g, "qegc", label=0) == 0
    assert memo.queries["qegc"] == 1 and oracle.computed == 5


def test_clone_is_the_same_classifier():
    oracle = structural_oracle("edge_count", 2)
    twin = oracle.clone()
    assert twin is not oracle and vars(twin) == vars(oracle)
    g = complete_graph(3)
    assert twin.classify(g) == oracle.classify(g) == 1


# -- structural oracles --------------------------------------------------


def test_edge_count_oracle_threshold_inclusive():
    oracle = structural_oracle("edge_count", 3)
    assert oracle.classify(complete_graph(3)) == 1  # 3 edges >= 3
    assert oracle.classify(Graph.from_edges(3, [(0, 1), (1, 2)])) == 0


def test_triangle_count_statistic():
    # K4 contains exactly 4 triangles
    oracle = structural_oracle("triangle_count", 4)
    assert oracle.classify(complete_graph(4)) == 1
    assert oracle.classify(Graph.from_edges(4, [])) == 0


def test_max_degree_statistic():
    # the bridge endpoint of barbell(4) has degree 4
    oracle = structural_oracle("max_degree", 4)
    assert oracle.classify(barbell(4)) == 1
    assert oracle.classify(complete_graph(4)) == 0  # max degree 3


def test_unknown_feature_rejected():
    with pytest.raises(ConfigError, match="feature must be one of"):
        structural_oracle("clustering", 1)


# -- table oracle --------------------------------------------------------


def test_exhaustive_table_matches_function():
    fn = lambda g: int(g.n_edges % 2)
    table = TableOracle.exhaustive(3, fn)
    probe = FunctionOracle(fn)
    for code in range(8):
        bits = np.array([(code >> k) & 1 for k in range(3)], dtype=np.uint8)
        g = Graph(3, bits)
        assert table.classify(g) == probe.classify(g)


def test_table_oracle_rejects_unknown_graphs():
    table = TableOracle.exhaustive(3, lambda g: 0)
    with pytest.raises(UnknownGraph):
        table.classify(Graph.from_edges(4, []))


# -- budgets -------------------------------------------------------------


def test_budget_enforced_before_the_query():
    oracle = CountingOracle(lambda g: int(g.n_edges >= 1))
    memo = _memo(oracle, max_queries=3)
    g = complete_graph(3)
    for _ in range(3):
        memo.query(g, "other")
    with pytest.raises(BudgetExhausted):
        memo.query(g, "other")
    # the refused query is neither counted nor asked of the oracle
    assert memo.total == oracle.computed == 3


def test_budget_counts_all_phases():
    memo = _memo(structural_oracle("edge_count", 1), max_queries=2)
    memo.query(complete_graph(3), "cgs")
    memo.query(complete_graph(3), "qegc")
    with pytest.raises(BudgetExhausted):
        memo.query(complete_graph(3), "binary_search")
    assert memo.queries["binary_search"] == 0


def test_each_memo_has_its_own_count_and_cap():
    oracle = structural_oracle("edge_count", 1)
    first, second = _memo(oracle, max_queries=1), _memo(oracle, max_queries=1)
    first.query(complete_graph(3), "other")
    second.query(complete_graph(3), "other")  # fresh count, fresh cap
    assert first.total == second.total == 1
    with pytest.raises(BudgetExhausted):
        second.query(complete_graph(3), "other")


def test_the_memo_keeps_the_first_fewest_flip_graph_within_its_budget():
    g = Graph.from_edges(5, [])  # 10 slots
    oracle = FunctionOracle(lambda h: int(h.n_edges >= 2))
    memo = LabelMemo(oracle, lambda label: label == 1, g, 0.3)
    kept = []
    for slots in ([0, 1, 2, 3], [0], [4, 5, 6], [7, 8], [1, 2], [0, 1, 2, 3], [3, 4]):
        memo.adversarial(g.flip(slots), "other")
        kept.append(memo.best)
    # four flips exceed the budget, one flip is not adversarial, and three
    # flips are exactly at it; of the two-flip graphs the first stays, and a
    # memo hit is not weighed again
    assert kept[:2] == [None, None] and kept[2].n_edges == 3
    assert kept[3] is kept[4] is kept[5] is kept[6]
    assert kept[3].bits.tolist() == g.flip([7, 8]).bits.tolist()
    assert memo.total == memo.queries["other"] == 6 and memo.hits == 1


def test_the_flip_bound_is_the_largest_count_within_the_budget():
    short = set()  # (n, budget) where floor(budget * d) is below the bound
    for n in range(2, 121):
        g = Graph.from_edges(n, [])
        d = g.n_edge_slots
        for budget in (k / 100 for k in range(1, 101)):
            memo = LabelMemo(FunctionOracle(lambda _: 1), bool, g, budget)
            k = memo.max_flips
            assert k == reference_max_flips(d, budget)
            assert memo.best is None and memo.best_flips == k + 1
            assert perturbation_rate(g, g.flip(np.arange(k))) <= budget
            if k < d:
                assert perturbation_rate(g, g.flip(np.arange(k + 1))) > budget
            floor = int(np.floor(budget * d))
            assert floor in (k, k - 1)
            if floor < k:
                short.add((n, budget))
    # a bound of floor(budget * d) would miss the top count on these alone
    assert short == {(25, 0.41), (25, 0.57), (25, 0.69), (25, 0.82), (76, 0.58),
                     (76, 0.7), (100, 0.82), (105, 0.35), (105, 0.7)}
    # a graph without a slot allows its own zero flips
    assert LabelMemo(FunctionOracle(lambda _: 1), bool, Graph.from_edges(1, []), 0.5).max_flips == 0


def test_the_memo_keeps_what_the_rate_rule_keeps():
    rng = np.random.default_rng(4)
    cases = [(25, 0.41), (25, 0.82), (76, 0.58), (105, 0.35)]
    cases += [(int(rng.integers(2, 40)), float(rng.uniform(0.005, 1.0))) for _ in range(36)]
    replaced = at_bound = 0
    for n, budget in cases:
        g = random_graph(rng, n)
        d = g.n_edge_slots
        memo = LabelMemo(FunctionOracle(hashed_label), lambda label: label % 2 == 1, g, budget)
        top = memo.max_flips
        # three graphs at each count from just above the bound down, then
        # counts around the bound and anywhere
        counts = [k for k in range(top + 2, top - 4, -1) for _ in range(3)]
        counts += [top + int(rng.integers(-3, 4)) if rng.random() < 0.7
                   else int(rng.integers(0, d + 1)) for _ in range(40)]
        best = None
        for k in np.clip(counts, 0, d).tolist():
            h = g.flip(rng.permutation(d)[:k])
            if memo.adversarial(h, "other") and reference_keeps(g, best, h, budget):
                best = h
                replaced += 1
                at_bound += k == top
            assert memo.best is best
        if best is not None:
            assert memo.best_flips == int(np.count_nonzero(best.bits ^ g.bits))
    assert replaced > len(cases) and at_bound > len(cases) // 2
