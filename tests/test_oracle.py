"""Oracles, query accounting and budgets."""

import numpy as np
import pytest

from blackedge.datasets import barbell
from blackedge.errors import BudgetExhausted
from blackedge.graph import Graph
from blackedge.oracle import (
    FunctionOracle,
    QueryLedger,
    StructuralOracle,
    structural_oracle,
)

from helpers import TableOracle, UnknownGraph, complete_graph


# -- ledger --------------------------------------------------------------


def test_ledger_counts_by_phase():
    ledger = QueryLedger()
    for phase in ("other", "cgs", "cgs", "qegc", "cgs"):
        ledger.record(phase)
    snap = ledger.snapshot()
    assert snap == {"cgs": 3, "binary_search": 0, "qegc": 1, "other": 1, "total": 5}
    assert ledger.total == 5


def test_classify_records_its_phase():
    oracle = structural_oracle("edge_count", 1)
    g = complete_graph(3)
    oracle.classify(g)  # default phase
    oracle.classify(g, "cgs")
    oracle.classify(g, phase="binary_search")
    assert oracle.ledger.snapshot() == {"cgs": 1, "binary_search": 1, "qegc": 0,
                                        "other": 1, "total": 3}


def test_unknown_phase_is_rejected_and_not_recorded():
    oracle = structural_oracle("edge_count", 1)
    with pytest.raises(ValueError):
        oracle.classify(complete_graph(3), "search")
    with pytest.raises(ValueError):
        oracle.ledger.record("total")
    assert oracle.ledger.snapshot() == {"cgs": 0, "binary_search": 0, "qegc": 0,
                                        "other": 0, "total": 0}


def test_every_classify_costs_one_query():
    oracle = structural_oracle("edge_count", 1)
    g = complete_graph(3)
    for expected in range(1, 6):
        oracle.classify(g)
        assert oracle.ledger.total == expected


def test_clone_gets_fresh_ledger_same_behavior():
    oracle = structural_oracle("edge_count", 2)
    g = complete_graph(3)
    oracle.classify(g)
    twin = oracle.clone()
    assert twin.ledger.total == 0
    assert twin.classify(g) == oracle.classify(g)
    assert oracle.ledger.total == 2 and twin.ledger.total == 1


# -- structural oracles --------------------------------------------------


def test_edge_count_oracle_threshold_inclusive():
    oracle = structural_oracle("edge_count", 3)
    assert oracle.classify(complete_graph(3)) == 1  # 3 edges >= 3
    assert oracle.classify(Graph.from_edges(3, [(0, 1), (1, 2)])) == 0


def test_triangle_count_statistic():
    # K4 contains exactly 4 triangles
    oracle = structural_oracle("triangle_count", 4)
    assert oracle.classify(complete_graph(4)) == 1
    assert oracle.classify(Graph.empty(4)) == 0


def test_max_degree_statistic():
    # the bridge endpoint of barbell(4) has degree 4
    oracle = structural_oracle("max_degree", 4)
    assert oracle.classify(barbell(4)) == 1
    assert oracle.classify(complete_graph(4)) == 0  # max degree 3


def test_unknown_feature_rejected():
    with pytest.raises(ValueError):
        StructuralOracle("clustering", 1)


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
        table.classify(Graph.empty(4))


# -- budgets -------------------------------------------------------------


def test_budget_enforced_before_the_query():
    oracle = structural_oracle("edge_count", 1)
    oracle.ledger.max_queries = 3
    g = complete_graph(3)
    for _ in range(3):
        oracle.classify(g)
    with pytest.raises(BudgetExhausted):
        oracle.classify(g)
    # the refused query is not recorded
    assert oracle.ledger.total == 3


def test_budget_counts_all_phases():
    ledger = QueryLedger(max_queries=2)
    ledger.record("cgs")
    ledger.record("qegc")
    with pytest.raises(BudgetExhausted):
        ledger.record("binary_search")
    assert ledger.snapshot()["binary_search"] == 0


def test_budgeted_clone_resets_spend():
    oracle = structural_oracle("edge_count", 1)
    oracle.ledger.max_queries = 1
    oracle.classify(complete_graph(3))
    twin = oracle.clone()
    twin.classify(complete_graph(3))  # fresh ledger, fresh budget
    assert twin.ledger.max_queries == 1
    assert twin.ledger.total == 1 and oracle.ledger.total == 1
    with pytest.raises(BudgetExhausted):
        twin.classify(complete_graph(3))
