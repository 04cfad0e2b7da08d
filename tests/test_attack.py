"""Boundary distance, the clipped objective, its inversion and sign-SGD."""

from dataclasses import replace

import numpy as np
import pytest

from blackedge import attack
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
from blackedge.cgs import coarse_grained_search
from blackedge.datasets import erdos_renyi
from blackedge.errors import BudgetExhausted, ConfigError, DegenerateTarget, NoBoundary
from blackedge.graph import Graph, apply_perturbation, normalize
from blackedge.oracle import FunctionOracle, LabelMemo, TableOracle, structural_oracle
from blackedge.partition import louvain

from helpers import (
    reference_estimate_gradient,
    reference_normalize,
    reference_solve_g_star,
    untargeted_memo,
)


# -- boundary distance ---------------------------------------------------


def test_boundary_distance_uniform_direction():
    # empty 5-node graph, uniform direction: all 10 slots flip together at
    # lambda = 0.5 * sqrt(10), which crosses the edge_count >= 3 boundary
    oracle = structural_oracle("edge_count", 3)
    g = Graph.empty(5)
    eps = 1e-3
    dist = boundary_distance(untargeted_memo(oracle), g, np.ones(10), epsilon=eps)
    true = 0.5 * np.sqrt(10)
    assert true <= dist <= true + eps


def test_boundary_distance_graded_direction():
    # slots flip one by one as lambda grows; the boundary needs two edges
    oracle = structural_oracle("edge_count", 2)
    g = Graph.empty(4)
    theta = np.array([1.0, 0.9, 0.8, 0.7, 0.6, 0.5])
    eps = 1e-4
    dist = boundary_distance(untargeted_memo(oracle), g, theta, epsilon=eps)
    crossing = np.sort(0.5 * np.linalg.norm(theta) / theta)
    true = crossing[1]  # second slot to flip
    assert true <= dist <= true + eps


def test_boundary_distance_counts_queries_in_phase():
    oracle = structural_oracle("edge_count", 3)
    boundary_distance(untargeted_memo(oracle), Graph.empty(5), np.ones(10))
    snap = oracle.ledger.snapshot()
    assert snap["binary_search"] == snap["total"] > 0


def test_boundary_distance_no_label_change_raises():
    oracle = FunctionOracle(lambda _: 0)
    with pytest.raises(NoBoundary):
        boundary_distance(untargeted_memo(oracle), Graph.empty(5), np.ones(10))


def test_boundary_distance_needs_a_positive_component():
    oracle = structural_oracle("edge_count", 1)
    with pytest.raises(NoBoundary):
        boundary_distance(untargeted_memo(oracle), Graph.empty(5), -np.ones(10))


def test_boundary_distance_beyond_sqrt_d():
    # one dominant slot: the others need lambda = 0.5/0.01 * norm >> sqrt(d),
    # so the saturation cap (not sqrt(d)) must bound the bracket
    oracle = structural_oracle("edge_count", 2)
    g = Graph.empty(4)
    theta = np.array([1.0, 0.01, 0.0, 0.0, 0.0, 0.0])
    dist = boundary_distance(untargeted_memo(oracle), g, theta, epsilon=1e-3)
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


def test_solve_g_star_evaluates_each_bracket_mass_once(monkeypatch):
    masses = []
    clipped_mass = attack._clipped_mass

    def recording(ghat):
        masses.append(ghat.tobytes())
        return clipped_mass(ghat)

    monkeypatch.setattr(attack, "_clipped_mass", recording)
    rng = np.random.default_rng(5)
    for _ in range(500):
        theta = rng.uniform(-0.2, 1.0, size=int(rng.integers(2, 60)))
        p_old = rng.uniform(0.0, 1.0) * (theta > 0).sum()
        masses.clear()
        try:
            got = solve_g_star(theta, p_old)
        except DegenerateTarget:
            continue
        assert got == reference_solve_g_star(theta, p_old)
        assert len(masses) == len(set(masses)) >= 2


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


# -- the breakpoint walk ------------------------------------------------

# target objectives as fractions of the positive count: walks that stop
# after a few breakpoints, targets beyond the walk, and targets above
# ``attack.WALK_COMPONENTS``
WALK_GRID_FRACTIONS = (0.001, 0.003, 0.01, 0.03, 0.05, 0.1, 0.14, 0.3, 0.5, 0.95)


def _walk_grid_directions(rng, d):
    """Probe-like directions of dimension d, then two with tied breakpoints
    at scale: few distinct magnitudes, and 1 and 3, where one component's
    turn-on ties another's turn-off."""
    seed = np.zeros(d)
    seed[rng.choice(d, int(rng.integers(3, min(d, 30))), replace=False)] = 1.0
    return [rng.standard_normal(d),
            normalize(seed) + 0.1 * normalize(rng.standard_normal(d)),
            rng.choice([-0.4, 0.25, 0.5, 0.75, 1.0], size=d),
            rng.choice([-1.0, 1.0, 3.0], size=d)]


def _located_by_walk(monkeypatch):
    """Record, per solve, whether the breakpoint walk located the segment."""
    walk = attack._walk_breakpoints
    log = []

    def recording(desc, p_old):
        located = walk(desc, p_old)
        log.append(located is not None)
        return located

    monkeypatch.setattr(attack, "_walk_breakpoints", recording)
    return log


@pytest.mark.parametrize("d, n_directions, on_breakpoints", [
    (190, 24, 3),
    (780, 4, 2),
    (3160, 1, 0),
])
def test_solve_g_star_equals_reference_on_the_walk_grid(monkeypatch, d, n_directions,
                                                       on_breakpoints):
    rng = np.random.default_rng(d)
    log = _located_by_walk(monkeypatch)
    walked = beyond_walk = above_bound = 0
    for _ in range(n_directions):
        directions = _walk_grid_directions(rng, d)
        if d == 3160:
            directions = directions[:2]  # the reference is O(d^2)
        for theta in directions:
            k = int((theta > 0).sum())
            targets = [f * k for f in WALK_GRID_FRACTIONS]
            if on_breakpoints:
                # exactly on a breakpoint's mass: early in a walk, near its
                # end, and anywhere
                masses = sorted(_breakpoint_masses(theta))
                j2 = 2 * attack.WALK_COMPONENTS
                targets += [masses[3], masses[j2 - 1], masses[j2]]
                targets += list(rng.choice(masses, size=on_breakpoints))
            for p_old in targets:
                log.clear()
                _same_as_reference(theta, p_old)
                if log == [False]:
                    if p_old > attack.WALK_COMPONENTS:
                        above_bound += 1
                    else:
                        beyond_walk += 1
                walked += log == [True]
    assert walked > 0 and beyond_walk > 0 and above_bound > 0


def test_solve_g_star_walk_evaluates_two_masses(monkeypatch):
    # Away from breakpoint masses and ties, the walk and the sorted
    # breakpoints both locate the segment itself: two clipped masses.
    log = _located_by_walk(monkeypatch)
    counts = []
    clipped_mass = attack._clipped_mass

    def counting(ghat):
        counts[-1] += 1
        return clipped_mass(ghat)

    monkeypatch.setattr(attack, "_clipped_mass", counting)
    rng = np.random.default_rng(12)
    for d in (190, 190, 190, 190, 780):
        for theta in _walk_grid_directions(rng, d)[:2]:
            k = int((theta > 0).sum())
            for p_old in [f * k for f in WALK_GRID_FRACTIONS] + [0.27, 0.92, 2.4, 5.6]:
                counts.append(0)
                solve_g_star(theta, p_old)
    assert counts == [2] * len(counts)
    assert log.count(True) > 40 and log.count(False) > 20


def _clipped_mass_at(positive, g):
    return float(np.clip(g * positive - 0.5, 0.0, 1.0).sum())


def test_walk_stops_at_the_first_breakpoint_reaching_the_target():
    rng = np.random.default_rng(13)
    j = attack.WALK_COMPONENTS
    beyond = 0
    for d in (12, 40, 190, 780):
        for theta in _walk_grid_directions(rng, d):
            theta_norm = normalize(theta)
            positive = theta_norm[theta_norm > 0]
            desc = np.sort(positive)[::-1]
            events, _ = attack._sorted_breakpoints(desc, 1.0)
            for p_old in rng.uniform(0.0, 1.0, size=20) * min(j, positive.size):
                located = attack._walk_breakpoints(desc, p_old)
                if located is None:
                    # beyond the j-th largest component's turn-on
                    assert positive.size > j
                    assert _clipped_mass_at(positive, 0.5 / desc[j - 1]) < p_old + 1e-9
                    beyond += 1
                    continue
                walk, idx = located
                assert idx == len(walk) - 1 and len(walk) <= 2 * j
                assert walk == events[:len(walk)].tolist()  # the smallest breakpoints
                reached = _clipped_mass_at(positive, walk[idx]) >= p_old - 1e-9
                assert reached or idx == 2 * positive.size - 1 or \
                    walk[idx] == 0.5 / desc[j - 1]  # the walk's last turn-on
                if idx > 0:
                    assert _clipped_mass_at(positive, walk[idx - 1]) < p_old + 1e-9
    assert beyond > 0


def test_solve_g_star_is_exact_from_any_walk_prefix(monkeypatch):
    # Whatever prefix of the breakpoints the walk returns, the bracket
    # correction extends it with the sorted breakpoints and stays exact.
    walk = attack._walk_breakpoints
    rng = np.random.default_rng(14)
    thetas = [theta for d in (12, 60, 190) for theta in _walk_grid_directions(rng, d)[:2]]
    for back in (0, 1, 3, 50):
        def truncated(desc, p_old, back=back):
            located = walk(desc, p_old)
            if located is None:
                return None
            keep = max(1, located[1] + 1 - back)
            return located[0][:keep], keep - 1

        monkeypatch.setattr(attack, "_walk_breakpoints", truncated)
        for theta in thetas:
            k = int((theta > 0).sum())
            for p_old in (0.1, 0.9, 2.5, min(6.0, 0.5 * k)):
                _same_as_reference(theta, p_old)


# -- one-query sign probes -----------------------------------------------


def _brute_force_sign(make_oracle, graph, y0, theta_old, theta_new):
    """Two independent binary searches instead of the one-query shortcut."""
    g_old = boundary_distance(untargeted_memo(make_oracle(), y0), graph, theta_old, epsilon=1e-4)
    g_new = boundary_distance(untargeted_memo(make_oracle(), y0), graph, theta_new, epsilon=1e-4)
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
        got = qegc_sign(untargeted_memo(probe), graph, p_old, theta_new)
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
    assert qegc_sign(untargeted_memo(oracle), graph, 0.4, np.array([1.0, 1.0, 0.1])) == -1


# -- gradient estimation -------------------------------------------------


def test_estimate_gradient_costs_one_query_per_direction():
    oracle = structural_oracle("edge_count", 2)
    graph = Graph.empty(4)
    theta = np.ones(6)
    memo = untargeted_memo(oracle)
    estimate_gradient(memo, graph, theta, 0.7, 25, 0.1, np.random.default_rng(0))
    # a direction whose probe graph repeats an earlier one is a memo hit
    assert oracle.ledger.snapshot()["qegc"] == oracle.ledger.total
    assert oracle.ledger.total + memo.hits == 25


def test_estimate_gradient_antisymmetry():
    # flipping every probe answer flips the estimate exactly
    graph = Graph.empty(4)
    theta = np.ones(6)
    grad_neg = estimate_gradient(
        untargeted_memo(FunctionOracle(lambda _: 1)), graph, theta, 0.7, 30, 0.1,
        np.random.default_rng(3),
    )
    grad_pos = estimate_gradient(
        untargeted_memo(FunctionOracle(lambda _: 0)), graph, theta, 0.7, 30, 0.1,
        np.random.default_rng(3),
    )
    assert np.allclose(grad_neg, -grad_pos)
    assert np.all(np.abs(grad_neg) <= 1.0)


def _gradient_step(step, graph, theta, p_t, q, seed, cap=None):
    """One gradient step and everything it leaves behind: the gradient (or
    the cap's message), the ledger, the memo hits and the generator state."""
    oracle = structural_oracle("edge_count", graph.n_edges + 1)
    oracle.ledger.max_queries = cap
    memo = untargeted_memo(oracle)
    rng = np.random.default_rng(seed)
    try:
        out = step(memo, graph, theta, p_t, q, 0.1, rng)
    except BudgetExhausted as exc:
        out = str(exc)
    return out, oracle.ledger.snapshot(), memo.hits, rng.bit_generator.state


@pytest.mark.parametrize("q", [1, 10, 25])
@pytest.mark.parametrize("p_kind", ["zero", "negative zero", "nan", "tiny", "small", "large"])
def test_estimate_gradient_equals_the_reference(monkeypatch, p_kind, q):
    calls = []
    monkeypatch.setattr(attack, "qegc_sign",
                        lambda *args: calls.append(1) or qegc_sign(*args))
    capped = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        graph = erdos_renyi(6 if seed % 2 else 12, 0.4, rng)
        theta = normalize(rng.standard_normal(graph.n_edge_slots))
        p_t = {"zero": 0.0, "negative zero": -0.0, "nan": float("nan"),
               "tiny": 5e-324, "small": 0.05,
               # near the count of positive components: many probes degenerate
               "large": np.count_nonzero(theta > 0) - 0.3}[p_kind]
        args = (graph, theta, p_t, q, seed)
        free = _gradient_step(reference_estimate_gradient, *args)
        spent = free[1]["total"]
        for cap in [None] + ([spent // 2] if spent >= 2 else []):  # mid-step cap
            want = free if cap is None else \
                _gradient_step(reference_estimate_gradient, *args, cap)
            got = _gradient_step(estimate_gradient, *args, cap)
            assert np.array_equal(got[0], want[0])  # the gradient or the message
            assert got[1:] == want[1:]
            capped += isinstance(want[0], str)
    if not p_t > 0.0:  # an all-degenerate step calls no probe
        assert calls == []
    elif q > 1:
        assert capped


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


def test_cap_in_the_coarse_search_keeps_its_first_success():
    g = _er_target()
    threshold = g.n_edges + 6
    cfg = AttackConfig(budget=0.5, iterations=3, directions_per_step=10, seed=1)
    full = attack_graph(structural_oracle("edge_count", threshold), g, 0, cfg)
    spent = full.queries["cgs"]  # the coarse search ends at its first success
    seed = coarse_grained_search(untargeted_memo(structural_oracle("edge_count", threshold)),
                                 g, louvain(g, seed=cfg.seed), rng_seed=cfg.seed)
    # a cap equal to the search's spend stops the descent before its first
    # boundary search; the seed, queried by the search, comes from the memo
    oracle = structural_oracle("edge_count", threshold)
    res = attack_graph(oracle, g, 0, replace(cfg, max_queries=spent))
    assert res.success and res.failure_reason is None
    assert res.found_in == full.found_in == seed.found_in
    assert np.array_equal(res.adversarial_graph.bits, apply_perturbation(g, seed.theta0).bits)
    assert res.queries == {"cgs": spent, "binary_search": 0, "qegc": 0, "other": 0,
                           "total": spent}  # no extra verification query
    assert res.queries == oracle.ledger.snapshot()
    assert res.rate <= cfg.budget and res.p_trace == []
    assert res.flips == seed.flips > 0
    assert oracle.clone().classify(res.adversarial_graph) == 1
    # the same cap with a budget below the seed's rate is a failure
    tight = attack_graph(structural_oracle("edge_count", threshold), g, 0,
                         replace(cfg, max_queries=spent, budget=res.rate / 2))
    assert not tight.success and tight.adversarial_graph is g
    assert tight.failure_reason.startswith("budget exhausted")
    # one query less stops the search before its success: nothing to keep
    short = attack_graph(structural_oracle("edge_count", threshold), g, 0,
                         replace(cfg, max_queries=spent - 1))
    assert not short.success and short.adversarial_graph is g
    assert short.failure_reason.startswith("initial search failed")


def test_capped_run_keeps_the_verified_boundary_graph():
    g = _er_target()
    oracle = structural_oracle("edge_count", g.n_edges + 6)
    cfg = AttackConfig(budget=0.5, iterations=50, directions_per_step=50,
                       max_queries=200, seed=1)
    res = attack_graph(oracle, g, 0, cfg)
    assert res.queries["total"] == 200  # the cap stopped the descent
    assert 0 < len(res.p_trace) < cfg.iterations
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


# -- label memo ----------------------------------------------------------


def _recording_oracle(threshold):
    """Edge-count oracle that records the bits of every graph it classifies."""
    asked = []

    def edge_count(graph):
        asked.append(graph.bits.tobytes())
        return int(graph.n_edges >= threshold)

    return FunctionOracle(edge_count), asked


def test_each_distinct_graph_costs_one_query(monkeypatch):
    submitted = []
    memo_adversarial = LabelMemo.adversarial

    def counting(self, graph, phase):
        submitted.append(graph.bits.tobytes())
        return memo_adversarial(self, graph, phase)

    monkeypatch.setattr(LabelMemo, "adversarial", counting)
    g = _er_target()
    oracle, asked = _recording_oracle(g.n_edges + 6)
    cfg = AttackConfig(budget=0.5, iterations=8, directions_per_step=20, seed=1)
    res = attack_graph(oracle, g, 0, cfg)
    assert res.success
    # only the final re-verification repeats a graph: the candidate
    assert len(set(asked[:-1])) == len(asked) - 1
    assert asked[-1] == res.adversarial_graph.bits.tobytes() and asked[-1] in asked[:-1]
    assert res.queries["total"] == len(asked) == len(set(asked)) + 1
    assert res.queries["other"] == 1
    assert res.queries == oracle.ledger.snapshot()
    # every other submission is a query or a memo hit
    assert res.memo_hits > 0
    assert res.queries["total"] + res.memo_hits == len(submitted) + 1
    assert set(submitted) == set(asked)


def test_runs_on_clones_do_not_share_a_memo():
    g = _er_target()
    oracle, asked = _recording_oracle(g.n_edges + 6)
    cfg = AttackConfig(budget=0.5, iterations=4, directions_per_step=10, seed=3)
    first = attack_graph(oracle.clone(), g, 0, cfg)
    n = len(asked)
    assert n == first.queries["total"] > 0
    second = attack_graph(oracle.clone(), g, 0, cfg)
    assert asked[n:] == asked[:n]  # every graph asked again, in the same order
    assert (second.queries, second.memo_hits) == (first.queries, first.memo_hits)
    # nor do two runs on one oracle; its ledger keeps counting
    attack_graph(oracle, g, 0, cfg)
    attack_graph(oracle, g, 0, cfg)
    assert asked[2 * n:] == asked[:n] * 2
    assert oracle.ledger.total == 2 * n


def test_capped_run_never_returns_an_unverified_seed():
    g = _er_target()
    theta0 = np.zeros(g.n_edge_slots)
    theta0[np.flatnonzero(g.bits == 0)[:5]] = 1.0  # adversarial, but never queried
    for iterations in (0, 3):
        oracle = structural_oracle("edge_count", g.n_edges + 3)
        oracle.ledger.max_queries = 1
        oracle.classify(g)  # the cap is already spent
        cfg = AttackConfig(budget=0.5, iterations=iterations, directions_per_step=10)
        res = sign_sgd_attack(untargeted_memo(oracle), g, cfg, theta0)
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
    ("strategy", "IV"),
    ("trials_scale", 0),
    ("smoothing", -0.1),
    ("smoothing", 0.0),
    ("smoothing", float("nan")),
    ("smoothing", float("inf")),
    ("learning_rate", -0.5),
    ("learning_rate", 0.0),
    ("learning_rate", float("nan")),
    ("learning_rate", float("inf")),
])
def test_invalid_config_rejected(field, value):
    with pytest.raises(ConfigError):
        AttackConfig(**{field: value})


def test_edge_of_range_configs_are_valid():
    AttackConfig(iterations=0, budget=1.0, directions_per_step=1, max_queries=1)
    AttackConfig(strategy="III", trials_scale=1, smoothing=1e-12, learning_rate=1e-12)


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
    res = sign_sgd_attack(untargeted_memo(oracle), g, cfg, theta0, found_in="manual")
    assert res.found_in == "manual"
    assert res.success
