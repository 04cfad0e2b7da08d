"""Boundary distance, the clipped objective, its inversion and sign-SGD."""

from dataclasses import replace

import numpy as np
import pytest

from blackedge.attack import (
    AttackConfig,
    attack_graph,
    boundary_distance,
    estimate_gradient,
    objective_p,
    qegc_sign,
    sign_sgd_attack,
    solve_g_star,
)
from blackedge.datasets import erdos_renyi
from blackedge.errors import ConfigError, DegenerateTarget, NoBoundary
from blackedge.graph import Graph, apply_perturbation, normalize
from blackedge.oracle import FunctionOracle, TableOracle, structural_oracle

from conftest import reference_normalize, reference_solve_g_star


# -- boundary distance ---------------------------------------------------


def test_boundary_distance_uniform_direction():
    # empty 5-node graph, uniform direction: all 10 slots flip together at
    # lambda = 0.5 * sqrt(10), which crosses the edge_count >= 3 boundary
    oracle = structural_oracle("edge_count", 3)
    g = Graph.empty(5)
    eps = 1e-3
    dist = boundary_distance(oracle, g, 0, np.ones(10), epsilon=eps)
    true = 0.5 * np.sqrt(10)
    assert true <= dist <= true + eps


def test_boundary_distance_graded_direction():
    # slots flip one by one as lambda grows; the boundary needs two edges
    oracle = structural_oracle("edge_count", 2)
    g = Graph.empty(4)
    theta = np.array([1.0, 0.9, 0.8, 0.7, 0.6, 0.5])
    eps = 1e-4
    dist = boundary_distance(oracle, g, 0, theta, epsilon=eps)
    crossing = np.sort(0.5 * np.linalg.norm(theta) / theta)
    true = crossing[1]  # second slot to flip
    assert true <= dist <= true + eps


def test_boundary_distance_counts_queries_in_phase():
    oracle = structural_oracle("edge_count", 3)
    boundary_distance(oracle, Graph.empty(5), 0, np.ones(10))
    snap = oracle.ledger.snapshot()
    assert snap["binary_search"] == snap["total"] > 0


def test_boundary_distance_no_label_change_raises():
    oracle = FunctionOracle(lambda _: 0)
    with pytest.raises(NoBoundary):
        boundary_distance(oracle, Graph.empty(5), 0, np.ones(10))


def test_boundary_distance_needs_a_positive_component():
    oracle = structural_oracle("edge_count", 1)
    with pytest.raises(NoBoundary):
        boundary_distance(oracle, Graph.empty(5), 0, -np.ones(10))


def test_boundary_distance_beyond_sqrt_d():
    # one dominant slot: the others need lambda = 0.5/0.01 * norm >> sqrt(d),
    # so the saturation cap (not sqrt(d)) must bound the bracket
    oracle = structural_oracle("edge_count", 2)
    g = Graph.empty(4)
    theta = np.array([1.0, 0.01, 0.0, 0.0, 0.0, 0.0])
    dist = boundary_distance(oracle, g, 0, theta, epsilon=1e-3)
    theta_n = normalize(theta)
    true = 0.5 / theta_n[1]  # second edge appears only here
    assert true <= dist <= true + 1e-3
    assert dist > np.sqrt(6)


# -- clipped objective ---------------------------------------------------


def test_objective_value_by_hand():
    # boundary vector (sqrt(6)/4, sqrt(2)/4): only the first entry clears
    # the 0.5 threshold, contributing sqrt(6)/4 - 1/2
    theta = np.array([np.sqrt(6.0), np.sqrt(2.0)])
    p = objective_p(theta, np.sqrt(2.0) / 2.0)
    assert p == pytest.approx(np.sqrt(6.0) / 4.0 - 0.5, abs=1e-12)


def test_objective_is_scale_invariant_in_theta():
    theta = np.array([0.3, 0.5, 0.1])
    assert objective_p(theta, 1.7) == pytest.approx(objective_p(10 * theta, 1.7))


def test_objective_clips_each_component_at_one():
    theta = np.array([1.0, 1.0])
    # g large enough that both components exceed 1.5
    assert objective_p(theta, 10.0) == pytest.approx(2.0)


def test_objective_monotone_in_g():
    rng = np.random.default_rng(0)
    for _ in range(500):
        theta = rng.standard_normal(int(rng.integers(2, 30)))
        if not np.any(theta > 0):
            continue
        g1, g2 = np.sort(rng.uniform(0.0, 10.0, size=2))
        assert objective_p(theta, g1) <= objective_p(theta, g2) + 1e-12


def test_objective_equals_the_clip_formula_exactly():
    rng = np.random.default_rng(6)
    for _ in range(2000):
        theta = rng.standard_normal(int(rng.integers(1, 200)))
        g = rng.uniform(0.0, 3.0) * np.sqrt(theta.size)
        expected = float(np.clip(g * reference_normalize(theta) - 0.5, 0.0, 1.0).sum())
        assert objective_p(theta, g) == expected


# -- analytic inversion --------------------------------------------------


def test_solve_g_star_two_equal_components():
    # both entries at g/sqrt(2) - 0.5 = 0.1 -> g = 0.6 * sqrt(2)
    g_star = solve_g_star(np.array([1.0, 1.0]), 0.2)
    assert g_star == pytest.approx(0.6 * np.sqrt(2.0), abs=1e-12)


def test_solve_g_star_single_active_component():
    assert solve_g_star(np.array([1.0, 0.0]), 0.25) == pytest.approx(0.75)


def test_solve_g_star_inverts_objective():
    rng = np.random.default_rng(1)
    for _ in range(300):
        d = int(rng.integers(2, 40))
        theta = rng.uniform(0.05, 1.0, size=d)
        theta[rng.random(d) < 0.3] *= -1.0
        positive = (theta > 0).sum()
        if positive == 0:
            continue
        p_old = rng.uniform(0.01, 0.99) * positive
        g_star = solve_g_star(theta, p_old)
        assert objective_p(theta, g_star) == pytest.approx(p_old, abs=1e-9)


def test_solve_g_star_matches_bisection():
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = int(rng.integers(2, 25))
        theta = rng.uniform(0.05, 1.0, size=d)
        p_old = rng.uniform(0.05, 0.95) * d
        g_star = solve_g_star(theta, p_old)
        lo, hi = 0.0, 1.5 * np.linalg.norm(theta) / theta.min() + 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if objective_p(theta, mid) < p_old:
                lo = mid
            else:
                hi = mid
        assert g_star == pytest.approx(hi, abs=1e-8)


def test_solve_g_star_degenerate_targets():
    theta = np.array([1.0, 1.0])
    with pytest.raises(DegenerateTarget):
        solve_g_star(theta, 0.0)
    with pytest.raises(DegenerateTarget):
        solve_g_star(theta, 2.0)  # saturation plateau
    with pytest.raises(DegenerateTarget):
        solve_g_star(np.array([-1.0, -1.0]), 0.5)


def _same_as_reference(theta, p_old) -> bool:
    """Exact agreement with the O(d^2) reference, raised errors included;
    True when the target was invertible."""
    try:
        expected = reference_solve_g_star(theta, p_old)
    except DegenerateTarget:
        with pytest.raises(DegenerateTarget):
            solve_g_star(theta, p_old)
        return False
    assert solve_g_star(theta, p_old) == expected
    return True


def _breakpoint_masses(theta):
    """The clipped mass at each breakpoint, computed as the reference does."""
    theta_norm = normalize(theta)
    positive = theta_norm[theta_norm > 0]
    events = np.concatenate([0.5 / positive, 1.5 / positive])
    return [np.clip(g * positive - 0.5, 0.0, 1.0).sum() for g in events]


def test_solve_g_star_equals_reference_exactly():
    rng = np.random.default_rng(3)
    inverted = degenerate = 0
    for case in range(3000):
        d = int(rng.integers(1, 40))
        if case % 3 == 0:
            # few distinct magnitudes: tied breakpoints
            theta = rng.choice([-0.4, 0.25, 0.5, 1.0], size=d)
        else:
            theta = rng.uniform(0.05, 1.0, size=d)
            theta[rng.random(d) < 0.3] *= -1.0
        positive = int((theta > 0).sum())
        targets = [rng.uniform(0.0, 1.0) * positive,   # inside a segment
                   float(rng.integers(0, positive + 1)),  # integer, ends included
                   np.nextafter(float(positive), 0.0)]  # just below p_max
        if positive:
            targets.append(rng.choice(_breakpoint_masses(theta)))  # on a breakpoint
        for p_old in targets:
            if _same_as_reference(theta, p_old):
                inverted += 1
            else:
                degenerate += 1
    assert inverted > 5000 and degenerate > 500


@pytest.mark.parametrize("theta, p_old", [
    (np.array([0.7]), 0.3),             # d = 1
    (np.array([0.7]), 1.0),             # d = 1, at p_max
    (np.array([1.0, 1.0, 1.0]), 1.0),   # all breakpoints tied, integer target
    (np.array([1.0, 1.0, -2.0]), 0.5),
    (np.array([1.0, 2.0]), 0.0),        # p_old <= 0
    (np.array([1.0, 2.0]), -1.0),
    (np.array([1.0, 2.0]), 2.0),        # p_old >= p_max
    (np.array([1.0, 2.0]), np.nan),
    (np.array([-1.0, -2.0]), 0.5),      # no positive component
    (np.array([0.0, -2.0]), 0.5),
])
def test_solve_g_star_equals_reference_on_edge_cases(theta, p_old):
    _same_as_reference(theta, p_old)


def test_solve_g_star_above_the_saturation_plateau():
    # Each of many tied smallest components can sit an ulp below its cap at
    # the last breakpoint, so p there rounds below the largest float under
    # p_max; a target in between is degenerate for both implementations.
    rng = np.random.default_rng(4)
    hits = 0
    for _ in range(500):
        theta = np.concatenate([[rng.uniform(0.5, 2.0)], np.ones(int(rng.integers(8, 64))),
                                rng.uniform(1.5, 3.0, size=int(rng.integers(0, 4)))])
        p_old = np.nextafter(float(theta.size), 0.0)
        if max(_breakpoint_masses(theta)) < p_old:
            with pytest.raises(DegenerateTarget, match="saturation plateau"):
                reference_solve_g_star(theta, p_old)
            with pytest.raises(DegenerateTarget, match="saturation plateau"):
                solve_g_star(theta, p_old)
            hits += 1
    assert hits > 0


# -- one-query sign probes -----------------------------------------------


def _brute_force_sign(make_oracle, graph, y0, theta_old, theta_new):
    """Two independent binary searches instead of the one-query shortcut."""
    g_old = boundary_distance(make_oracle(), graph, y0, theta_old, epsilon=1e-4)
    g_new = boundary_distance(make_oracle(), graph, y0, theta_new, epsilon=1e-4)
    p_old = objective_p(theta_old, g_old)
    p_new = objective_p(theta_new, g_new)
    return (-1 if p_new < p_old else +1), p_old, p_new


def test_qegc_sign_matches_brute_force_on_exhaustive_oracle():
    table = TableOracle.exhaustive(4, lambda g: int(g.n_edges >= 3))
    graph = Graph.empty(4)
    rng = np.random.default_rng(7)
    agree = 0
    trials = 40
    for _ in range(trials):
        theta_old = rng.uniform(0.1, 1.0, size=6)
        theta_new = theta_old + 0.1 * normalize(rng.standard_normal(6))
        expected, p_old, p_new = _brute_force_sign(
            table.clone, graph, 0, theta_old, theta_new
        )
        probe = table.clone()
        got = qegc_sign(probe, graph, 0, p_old, theta_new)
        assert probe.ledger.snapshot() == {
            "cgs": 0, "binary_search": 0, "qegc": 1, "other": 0, "total": 1
        }
        if got == expected:
            agree += 1
        else:
            assert abs(p_new - p_old) < 5e-3  # boundary plateau
    assert agree >= 0.95 * trials


def test_qegc_sign_direction_of_the_inequality():
    # along theta_new the boundary is nearer than g*: the probe graph is
    # already misclassified, so the objective decreased
    oracle = structural_oracle("edge_count", 1)
    graph = Graph.empty(3)
    assert qegc_sign(oracle, graph, 0, 0.4, np.array([1.0, 1.0, 0.1])) == -1


# -- gradient estimation -------------------------------------------------


def test_estimate_gradient_costs_one_query_per_direction():
    oracle = structural_oracle("edge_count", 2)
    graph = Graph.empty(4)
    theta = np.ones(6)
    estimate_gradient(oracle, graph, 0, theta, 0.7, 25, 0.1,
                      np.random.default_rng(0))
    assert oracle.ledger.snapshot()["qegc"] == 25
    assert oracle.ledger.total == 25


def test_estimate_gradient_antisymmetry():
    # flipping every probe answer flips the estimate exactly
    graph = Graph.empty(4)
    theta = np.ones(6)
    grad_neg = estimate_gradient(
        FunctionOracle(lambda _: 1), graph, 0, theta, 0.7, 30, 0.1,
        np.random.default_rng(3),
    )
    grad_pos = estimate_gradient(
        FunctionOracle(lambda _: 0), graph, 0, theta, 0.7, 30, 0.1,
        np.random.default_rng(3),
    )
    assert np.allclose(grad_neg, -grad_pos)
    assert np.all(np.abs(grad_neg) <= 1.0)


# -- sign-SGD loop -------------------------------------------------------


def _er_target(seed=0, n=10, p=0.3):
    return erdos_renyi(n, p, np.random.default_rng(seed))


def test_attack_succeeds_on_edge_count_oracle():
    g = _er_target()
    oracle = structural_oracle("edge_count", g.n_edges + 6)
    cfg = AttackConfig(budget=0.5, iterations=8, directions_per_step=20, seed=1)
    res = attack_graph(oracle, g, 0, cfg)
    assert res.success
    assert res.queries == oracle.ledger.snapshot()
    assert oracle.classify(res.adversarial_graph) == 1
    assert res.rate <= cfg.budget
    assert res.flips == len(res.added) + len(res.removed)
    assert res.queries["other"] >= 1  # the final verification query
    assert len(res.p_trace) == len(res.gradient_norm_trace) > 0
    assert all(np.isfinite(res.p_trace))
    assert all(np.isfinite(res.gradient_norm_trace))


def test_attack_failure_when_budget_too_tight():
    g = _er_target()
    oracle = structural_oracle("edge_count", g.n_edges + 6)
    cfg = AttackConfig(budget=0.02, iterations=4, directions_per_step=10, seed=1)
    res = attack_graph(oracle, g, 0, cfg)
    assert not res.success
    assert res.adversarial_graph is g  # failures return the input graph
    assert res.failure_reason is not None


def test_attack_failure_when_oracle_is_constant():
    g = _er_target()
    oracle = FunctionOracle(lambda _: 0)
    res = attack_graph(oracle, g, 0, AttackConfig(iterations=2))
    assert not res.success
    assert res.failure_reason.startswith("initial search failed")


def test_attack_respects_max_queries():
    g = _er_target()
    oracle = structural_oracle("edge_count", g.n_edges + 6)
    cfg = AttackConfig(budget=0.5, iterations=50, directions_per_step=50,
                       max_queries=120, seed=1)
    res = attack_graph(oracle, g, 0, cfg)
    assert res.queries["total"] <= 120


def test_capped_run_keeps_the_verified_boundary_graph():
    g = _er_target()
    oracle = structural_oracle("edge_count", g.n_edges + 6)
    cfg = AttackConfig(budget=0.5, iterations=50, directions_per_step=50,
                       max_queries=300, seed=1)
    res = attack_graph(oracle, g, 0, cfg)
    assert res.queries["total"] == 300  # the cap stopped the descent
    assert res.queries["other"] == 0  # no extra verification query
    assert res.success and res.failure_reason is None
    assert res.rate <= cfg.budget
    assert res.queries == oracle.ledger.snapshot()
    assert oracle.clone().classify(res.adversarial_graph) == 1


def test_cap_at_the_final_verification_keeps_the_candidate():
    g = _er_target()
    cfg = AttackConfig(budget=0.5, iterations=3, directions_per_step=10, seed=4)
    full = attack_graph(structural_oracle("edge_count", g.n_edges + 6), g, 0, cfg)
    assert full.success and full.queries["other"] == 1
    capped_cfg = replace(cfg, max_queries=full.queries["total"] - 1)
    capped = attack_graph(structural_oracle("edge_count", g.n_edges + 6), g, 0, capped_cfg)
    assert capped.success
    assert np.array_equal(capped.adversarial_graph.bits, full.adversarial_graph.bits)
    assert capped.queries == {**full.queries, "other": 0,
                              "total": full.queries["total"] - 1}


def test_capped_run_never_returns_an_unverified_seed():
    g = _er_target()
    theta0 = np.zeros(g.n_edge_slots)
    theta0[np.flatnonzero(g.bits == 0)[:5]] = 1.0  # adversarial, but never queried
    for iterations in (0, 3):
        oracle = structural_oracle("edge_count", g.n_edges + 3)
        oracle.ledger.max_queries = 1
        oracle.classify(g)  # the cap is already spent
        cfg = AttackConfig(budget=0.5, iterations=iterations, directions_per_step=10)
        res = sign_sgd_attack(oracle, g, 0, cfg, theta0)
        assert not res.success
        assert res.failure_reason.startswith("budget exhausted")


@pytest.mark.parametrize("field, value", [
    ("directions_per_step", 0),
    ("epsilon", 0.0),
    ("epsilon", -1e-3),
    ("epsilon", float("nan")),
    ("budget", 0.0),
    ("budget", 1.5),
    ("iterations", -1),
    ("max_queries", 0),
])
def test_invalid_config_rejected(field, value):
    with pytest.raises(ConfigError):
        AttackConfig(**{field: value})


def test_edge_of_range_configs_are_valid():
    AttackConfig(iterations=0, budget=1.0, directions_per_step=1, max_queries=1)


def test_attack_deterministic_given_seed():
    g = _er_target()
    cfg = AttackConfig(budget=0.5, iterations=5, directions_per_step=10, seed=9)
    a = attack_graph(structural_oracle("edge_count", g.n_edges + 5), g, 0, cfg)
    b = attack_graph(structural_oracle("edge_count", g.n_edges + 5), g, 0, cfg)
    assert a.success == b.success
    assert np.array_equal(a.adversarial_graph.bits, b.adversarial_graph.bits)
    assert a.queries == b.queries


def test_targeted_attack_reaches_the_requested_label():
    g = _er_target()
    oracle = structural_oracle("edge_count", g.n_edges + 6)
    cfg = AttackConfig(budget=0.5, iterations=5, directions_per_step=10,
                       target_label=1, seed=2)
    res = attack_graph(oracle, g, 0, cfg)
    assert res.success
    assert oracle.classify(res.adversarial_graph) == 1


def test_sign_sgd_uses_seed_direction():
    g = _er_target()
    oracle = structural_oracle("edge_count", g.n_edges + 3)
    theta0 = np.zeros(g.n_edge_slots)
    theta0[np.flatnonzero(g.bits == 0)[:5]] = 1.0  # five empty slots
    cfg = AttackConfig(budget=0.5, iterations=3, directions_per_step=10, seed=0)
    res = sign_sgd_attack(oracle, g, 0, cfg, theta0, found_in="manual")
    assert res.found_in == "manual"
    assert res.success
