"""Coarse-grained initial search over the phased components."""

import numpy as np
import pytest

from blackedge.cgs import coarse_grained_search
from blackedge.datasets import barbell
from blackedge.errors import BudgetExhausted, NoAdversarialFound
from blackedge.graph import apply_perturbation
from blackedge.oracle import FunctionOracle, structural_oracle
from blackedge.partition import louvain


@pytest.fixture
def setup():
    g = barbell(4)
    return g, louvain(g, seed=0)


def test_no_success_exhausts_every_phase(setup):
    g, part = setup
    oracle = FunctionOracle(lambda _: 0)  # never adversarial
    with pytest.raises(NoAdversarialFound):
        coarse_grained_search(oracle, g, 0, part)
    # components carry 4+4+8+8 incident nodes, 5 trials each per node
    assert oracle.ledger.total == 120
    assert oracle.ledger.snapshot()["cgs"] == 120


def test_success_skips_later_phases(setup):
    g, part = setup
    oracle = FunctionOracle(lambda _: 1)  # everything is adversarial
    outcome = coarse_grained_search(oracle, g, 0, part)
    assert outcome.found_in == "supernode"
    # the supernode phase finishes (both components), later phases do not run
    assert outcome.queries_used == 40
    assert oracle.ledger.total == 40


def test_outcome_theta_reproduces_the_flips(setup):
    g, part = setup
    oracle = FunctionOracle(lambda _: 1)
    outcome = coarse_grained_search(oracle, g, 0, part)
    perturbed = apply_perturbation(g, outcome.theta0)
    assert int(np.count_nonzero(perturbed.bits ^ g.bits)) == outcome.flips
    assert set(np.flatnonzero(outcome.theta0 >= 0.5).tolist()) <= set(range(28))


def test_minimal_flip_success_is_kept(setup):
    g, part = setup
    # adversarial iff at least one edge flipped anywhere: the minimum over
    # a full phase of uniform draws is very likely a single flip
    oracle = FunctionOracle(
        lambda h: int(np.count_nonzero(h.bits ^ g.bits) >= 1)
    )
    outcome = coarse_grained_search(oracle, g, 0, part, rng_seed=1)
    assert outcome.flips == 1


def test_deterministic_given_seed(setup):
    g, part = setup
    a = coarse_grained_search(FunctionOracle(lambda _: 1), g, 0, part, rng_seed=5)
    b = coarse_grained_search(FunctionOracle(lambda _: 1), g, 0, part, rng_seed=5)
    assert np.array_equal(a.theta0, b.theta0)
    assert a.flips == b.flips and a.found_in == b.found_in


def test_budget_exhaustion_reports_exact_spend_and_partial(setup):
    g, part = setup
    oracle = FunctionOracle(lambda _: 1)
    oracle.ledger.max_queries = 25
    with pytest.raises(BudgetExhausted) as exc_info:
        coarse_grained_search(oracle, g, 0, part)
    assert oracle.ledger.total == 25
    partial = exc_info.value.partial
    assert partial is not None  # a success existed before the cap
    assert partial.queries_used == 25


def test_custom_predicate_targets_a_label():
    g = barbell(4)
    part = louvain(g, seed=0)
    oracle = structural_oracle("edge_count", 10)  # 13 edges -> label 1
    outcome = coarse_grained_search(
        oracle, g, 1, part, predicate=lambda label: label == 0
    )
    perturbed = apply_perturbation(g, outcome.theta0)
    assert perturbed.n_edges < 10


def test_strategy_three_searches_whole_graph_only(setup):
    g, part = setup
    oracle = FunctionOracle(lambda _: 1)
    outcome = coarse_grained_search(oracle, g, 0, part, strategy="III")
    assert outcome.found_in == "whole_graph"
    assert oracle.ledger.total == 40  # 5 trials x 8 incident nodes
