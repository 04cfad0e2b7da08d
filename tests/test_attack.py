"""Boundary distance, the clipped objective, its inversion and sign-SGD."""

import inspect
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from blackedge import attack, cgs, harness
from blackedge.attack import (
    EARLY_STOP_PATIENCE,
    STOP_REASONS,
    AttackConfig,
    attack_graph,
    boundary_distance,
    estimate_gradient,
    objective_p,
    probe_graphs,
    qegc_sign,
    sign_sgd_attack,
    solve_g_star,
)
from blackedge.cgs import coarse_grained_search
from blackedge.datasets import erdos_renyi, generate_synthetic
from blackedge.errors import (
    BudgetExhausted,
    ConfigError,
    DegenerateTarget,
    DimensionMismatch,
    NoBoundary,
)
from blackedge.graph import Graph, apply_perturbation, normalize, perturbation_rate
from blackedge.harness import random_attack
from blackedge.oracle import FunctionOracle, LabelMemo, structural_oracle
from blackedge.partition import louvain

from helpers import (
    CountingOracle,
    TableOracle,
    hashed_label,
    perfbench_module,
    random_graph,
    reference_boundary_distance,
    reference_estimate_gradient,
    reference_normalize,
    reference_probe,
    reference_row_norms,
    reference_solve_g_star,
    untargeted_memo,
)


# -- boundary distance ---------------------------------------------------


def test_boundary_distance_uniform_direction():
    # empty 5-node graph, uniform direction: all 10 slots flip together at
    # lambda = 0.5 * sqrt(10), which crosses the edge_count >= 3 boundary
    oracle = structural_oracle("edge_count", 3)
    g = Graph.from_edges(5, [])
    eps = 1e-3
    dist = boundary_distance(untargeted_memo(oracle, g), np.ones(10), epsilon=eps)
    true = 0.5 * np.sqrt(10)
    assert true <= dist <= true + eps


def test_boundary_distance_graded_direction():
    # slots flip one by one as lambda grows; the boundary needs two edges
    oracle = structural_oracle("edge_count", 2)
    g = Graph.from_edges(4, [])
    theta = np.array([1.0, 0.9, 0.8, 0.7, 0.6, 0.5])
    eps = 1e-4
    dist = boundary_distance(untargeted_memo(oracle, g), theta, epsilon=eps)
    crossing = np.sort(0.5 * np.linalg.norm(theta) / theta)
    true = crossing[1]  # second slot to flip
    assert true <= dist <= true + eps


def test_boundary_distance_counts_queries_in_phase():
    oracle = structural_oracle("edge_count", 3)
    g = Graph.from_edges(5, [])
    memo = untargeted_memo(oracle, g)
    boundary_distance(memo, np.ones(10))
    assert memo.queries["binary_search"] == memo.total > 0


def test_boundary_distance_no_label_change_raises():
    oracle = FunctionOracle(lambda _: 0)
    g = Graph.from_edges(5, [])
    with pytest.raises(NoBoundary):
        boundary_distance(untargeted_memo(oracle, g), np.ones(10))


def test_boundary_distance_needs_a_positive_component():
    oracle = structural_oracle("edge_count", 1)
    g = Graph.from_edges(5, [])
    with pytest.raises(NoBoundary):
        boundary_distance(untargeted_memo(oracle, g), -np.ones(10))


def test_boundary_distance_beyond_sqrt_d():
    # one dominant slot: the others need lambda = 0.5/0.01 * norm >> sqrt(d),
    # so the saturation cap (not sqrt(d)) must bound the bracket
    oracle = structural_oracle("edge_count", 2)
    g = Graph.from_edges(4, [])
    theta = np.array([1.0, 0.01, 0.0, 0.0, 0.0, 0.0])
    dist = boundary_distance(untargeted_memo(oracle, g), theta, epsilon=1e-3)
    theta_n = normalize(theta)
    true = 0.5 / theta_n[1]  # second edge appears only here
    assert true <= dist <= true + 1e-3
    assert dist > np.sqrt(6)


class _RecordingMemo(LabelMemo):
    """A run memo that logs every submission: bits, phase, size and label."""

    __slots__ = ("log",)

    def __init__(self, oracle, predicate, graph):
        super().__init__(oracle, predicate, graph, 1.0)
        self.log = []

    def adversarial(self, graph, phase):
        self.log.append((graph.bits.tobytes(), phase, graph.n_nodes, graph.label))
        return super().adversarial(graph, phase)


def _boundary_run(search, label_fn, y0, graph, theta, epsilon, hint, known=()):
    """Everything a boundary search leaves behind: its scale (or its
    NoBoundary message), each submission in order, the query counts, the
    memo hits and the memo's verdicts in insertion order.  ``known`` graphs are
    asked first, so the search starts from a memo that holds them."""
    memo = _RecordingMemo(FunctionOracle(label_fn), lambda label: label != y0, graph)
    for g in known:
        memo.adversarial(g, "other")
    del memo.log[:]
    try:
        out = search(memo, theta, epsilon, hint)
    except NoBoundary as exc:
        out = str(exc)
    return (out, type(out), memo.log, dict(memo.queries), memo.hits,
            list(memo.labels.items()))


def _assert_boundary_search_equals_the_reference(label_fn, y0, graph, theta, epsilon,
                                                 hint, known=()):
    got = _boundary_run(boundary_distance, label_fn, y0, graph, theta, epsilon, hint, known)
    want = _boundary_run(reference_boundary_distance, label_fn, y0, graph, theta, epsilon,
                         hint, known)
    # a flip count probed again within one search takes the search's own
    # verdict, counted as a memo hit, without reaching the memo: the library
    # submits the reference's submissions up to those repeats
    want = (*want[:2], list(dict.fromkeys(want[2])), *want[3:])
    assert got == want
    return got


def _boundary_label_cases(graph, rng):
    m = graph.n_edges
    return [
        (lambda h, t=m + int(rng.integers(1, 6)): int(h.n_edges >= t), 0),
        (lambda h, t=m - int(rng.integers(0, 4)): int(h.n_edges >= t), 1),
        (hashed_label, hashed_label(graph)),
        (lambda h: 0, 0),  # nothing flips the label: no boundary
    ]


@pytest.mark.parametrize("n_nodes", [3, 8, 20, 40])
def test_boundary_distance_equals_the_reference(n_nodes):
    # continuous, rounded (tied) and integer directions with negative and
    # zero components, and one with no positive component, under monotone,
    # hashed and constant labels
    rng = np.random.default_rng(n_nodes)
    graph = replace(random_graph(rng, n_nodes), label=1)
    d = graph.n_edge_slots
    found = raised = 0
    for trial in range(16):
        theta = [rng.standard_normal(d), np.round(rng.standard_normal(d), 1),
                 rng.integers(-2, 3, d).astype(float),
                 -np.abs(rng.standard_normal(d))][trial % 4]
        for label_fn, y0 in _boundary_label_cases(graph, rng):
            epsilon = float(10.0 ** rng.uniform(-6, -1))
            hint = float(10.0 ** rng.uniform(-2, 1.5))
            out = _assert_boundary_search_equals_the_reference(
                label_fn, y0, graph, theta, epsilon, hint)[0]
            if isinstance(out, str):
                raised += 1
            else:
                found += 1
    assert found and raised


def test_boundary_distance_equals_the_reference_on_exact_breakpoints():
    # components in power-of-two ratios: halving the scale from a breakpoint
    # 0.5 / s lands on the breakpoint of 2s, so the scales probed sit on
    # breakpoints, where a product can round to the threshold itself
    rng = np.random.default_rng(7)
    on_threshold = 0
    for n_nodes in (5, 12, 20):
        graph = random_graph(rng, n_nodes)
        d = graph.n_edge_slots
        for _ in range(15):
            theta = rng.choice([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 4.0], size=d)
            theta[0] = 0.25
            unit = normalize(theta)
            positive = unit[unit > 0]
            for s in np.unique(positive):
                hint = 0.5 / float(s)
                on_threshold += hint * float(s) == 0.5
                for label_fn, y0 in _boundary_label_cases(graph, rng):
                    for epsilon in (1e-9, 1e-3, 0.25 * hint):
                        _assert_boundary_search_equals_the_reference(
                            label_fn, y0, graph, theta, epsilon, hint)
    assert on_threshold > 20


def test_boundary_distance_equals_the_reference_from_a_filled_memo():
    # graphs along the direction (some the search will submit) and elsewhere
    # are already in the memo: the same submissions are hits, not queries
    rng = np.random.default_rng(11)
    hits = 0
    for n_nodes in (6, 20):
        graph = random_graph(rng, n_nodes)
        d = graph.n_edge_slots
        for _ in range(10):
            theta = rng.standard_normal(d)
            unit = normalize(theta)
            known = [apply_perturbation(graph, lam * unit)
                     for lam in rng.uniform(0.0, 2.0 * np.sqrt(d), 8)]
            known += [apply_perturbation(graph, lam * unit) for lam in (0.5, 1.0, 2.0)]
            known += [random_graph(rng, n_nodes) for _ in range(3)]
            for label_fn, y0 in _boundary_label_cases(graph, rng):
                hits += _assert_boundary_search_equals_the_reference(
                    label_fn, y0, graph, theta, 1e-3, 1.0, known)[4]
    assert hits > 0


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


def _searched_rows(monkeypatch):
    """Record, per row the batch searches over all its breakpoints, its
    positive count and the clipped masses the search evaluates (each as the
    bytes of its scaled row)."""
    search, clipped_mass = attack._bisect_breakpoints, attack._clipped_mass
    log = []

    def searching(positive, p_old):
        log.append((positive.size, []))
        return search(positive, p_old)

    def recording(ghat):
        log[-1][1].append(ghat.tobytes())
        return clipped_mass(ghat)

    monkeypatch.setattr(attack, "_bisect_breakpoints", searching)
    monkeypatch.setattr(attack, "_clipped_mass", recording)
    return log


def _search_bound(k):
    """Masses a search over k positives' 2k breakpoints may evaluate: the
    bisection's, then both ends of the segment."""
    return math.ceil(math.log2(2 * k + 1)) + 2


@pytest.mark.parametrize("d, n_directions, on_breakpoints", [
    (190, 24, 3),
    (780, 4, 2),
    (3160, 1, 0),
])
def test_solve_g_star_equals_reference_on_the_walk_grid(monkeypatch, d, n_directions,
                                                       on_breakpoints):
    rng = np.random.default_rng(d)
    log = _searched_rows(monkeypatch)
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
                inverted = _same_as_reference(theta, p_old)
                if not log:
                    walked += inverted
                elif p_old > attack.WALK_COMPONENTS:
                    above_bound += 1
                else:
                    beyond_walk += 1
    assert walked > 0 and beyond_walk > 0 and above_bound > 0


def test_solve_g_star_evaluates_each_bracket_mass_once(monkeypatch):
    # A row the walk does not bracket bisects on the clipped mass, each
    # probed breakpoint once, then evaluates both ends of its segment once.
    log = _searched_rows(monkeypatch)
    rng = np.random.default_rng(5)
    searched = 0
    for _ in range(500):
        theta = rng.uniform(-0.2, 1.0, size=int(rng.integers(2, 60)))
        p_old = rng.uniform(0.0, 1.0) * (theta > 0).sum()
        log.clear()
        if not _same_as_reference(theta, p_old):
            continue
        for k, masses in log:
            bisection, ends = masses[:-2], masses[-2:]
            assert len(bisection) == len(set(bisection))
            assert len(ends) == len(set(ends)) == 2
            assert len(masses) <= _search_bound(k)
        searched += len(log)
    assert searched > 300


def test_solve_g_star_walk_evaluates_two_masses(monkeypatch):
    # A target the walk brackets takes the two masses of the batched pass
    # and no search; one it does not bracket takes a bounded search.
    log = _searched_rows(monkeypatch)
    walk = attack._walk_rows
    located = []

    def recording(scaled, counts, invertible, p_old):
        g = walk(scaled, counts, invertible, p_old)
        located.append(bool(g[1, 0]))
        return g

    monkeypatch.setattr(attack, "_walk_rows", recording)
    rng = np.random.default_rng(12)
    walked = searched = 0
    for d in (190, 190, 190, 190, 780):
        for theta in _walk_grid_directions(rng, d)[:2]:
            k = int((theta > 0).sum())
            for p_old in [f * k for f in WALK_GRID_FRACTIONS] + [0.27, 0.92, 2.4, 5.6]:
                log.clear()
                located.clear()
                assert _same_as_reference(theta, p_old)
                if not log:
                    assert located == [True]
                    walked += 1
                for k_searched, masses in log:
                    assert len(masses) <= _search_bound(k_searched)
                    searched += 1
    assert walked > 40 and searched > 20


def test_bracket_correction_skips_tied_breakpoints(monkeypatch):
    # The clipped mass at the 45 tied turn-ons of the smallest components is
    # exactly the target, 7.5, and the walk's running mass can round below
    # it there, so its segment lies past the whole tie and does not bracket
    # the target.  The search over all breakpoints evaluates no more masses
    # for the tie: a scalar correction that stepped back one breakpoint at a
    # time evaluated the same mass once per tied breakpoint, 47 in all.
    log = _searched_rows(monkeypatch)
    magnitudes = np.concatenate([np.ones(45), np.full(3, 2.0), np.full(6, 5.0),
                                 np.full(136, -1.0)])
    searched = 0
    for seed in range(30):
        theta = np.random.default_rng(seed).permutation(magnitudes)
        log.clear()
        assert solve_g_star(theta, 7.5) == reference_solve_g_star(theta, 7.5)
        for k, masses in log:
            assert len(masses) <= _search_bound(k)
            searched += 1
    assert searched == 30  # the walk brackets none of them


def _clipped_mass_at(positive, g):
    return float(np.clip(g * positive - 0.5, 0.0, 1.0).sum())


def test_walk_stops_at_the_first_breakpoint_reaching_the_target():
    rng = np.random.default_rng(13)
    j = attack.WALK_COMPONENTS
    located = beyond = 0
    for d in (12, 40, 190, 780):
        thetas = np.array(_walk_grid_directions(rng, d))
        scaled = thetas / attack._row_norms(thetas)[:, None]
        counts = (scaled > 0).sum(axis=1)
        for p_old in rng.uniform(0.0, 1.0, size=20) * j:
            invertible = (0.0 < p_old) & (p_old < counts)
            g = attack._walk_rows(scaled, counts, invertible, p_old)
            for row, k, ok, (g0, g1) in zip(scaled, counts, invertible, g.T):
                if not ok or k < min(j, d):  # not walked
                    assert g0 == g1 == 0.0
                    continue
                positive = row[row > 0]
                events = np.sort(np.concatenate([0.5 / positive, 1.5 / positive]))
                # the walk's last breakpoint: the j-th largest's turn-on
                last = 0.5 / np.sort(positive)[-j] if k > j else events[-1]
                if _clipped_mass_at(positive, last) < p_old - 1e-9:
                    # beyond the walk: whatever it returns brackets nothing
                    assert not _clipped_mass_at(positive, g0) < p_old <= \
                        _clipped_mass_at(positive, g1)
                    beyond += 1
                elif _clipped_mass_at(positive, last) > p_old + 1e-9:
                    # two consecutive breakpoints, the first reaching p_old
                    i = int(np.searchsorted(events, g1))
                    assert events[i] == g1 and events[i - 1] == g0 < g1
                    assert _clipped_mass_at(positive, g0) < p_old + 1e-9
                    assert _clipped_mass_at(positive, g1) >= p_old - 1e-9
                    located += 1
    assert located > 0 and beyond > 0


def test_solve_g_star_is_exact_from_any_walk_prefix(monkeypatch):
    # Whatever segment of consecutive breakpoints the walk returns (one
    # before or after its own, as if it stopped early or late), or none
    # (zeros), one whose clipped masses do not bracket the target is
    # searched over all the row's breakpoints, and g* stays exact.
    walk = attack._walk_rows
    log = _searched_rows(monkeypatch)
    rng = np.random.default_rng(14)
    thetas = [theta for d in (12, 60, 190) for theta in _walk_grid_directions(rng, d)[:2]]
    searched = {}
    for shift in (0, None, -3, -1, 1, 2):
        def shifted(scaled, counts, invertible, p_old, shift=shift):
            g = walk(scaled, counts, invertible, p_old)
            if shift is None:
                return np.zeros_like(g)
            for i in np.flatnonzero(g[1]):
                positive = scaled[i][scaled[i] > 0]
                events = np.sort(np.concatenate([0.5 / positive, 1.5 / positive]))
                at = int(np.searchsorted(events, g[1, i])) + shift
                at = min(max(at, 1), events.size - 1)
                g[:, i] = events[at - 1], events[at]
            return g

        monkeypatch.setattr(attack, "_walk_rows", shifted)
        log.clear()
        for theta in thetas:
            k = int((theta > 0).sum())
            for p_old in (0.1, 0.9, 2.5, min(6.0, 0.5 * k)):
                _same_as_reference(theta, p_old)
        searched[shift] = len(log)
    assert min(searched[shift] for shift in (None, -3, -1, 1, 2)) > searched[0]


# -- one-query sign probes -----------------------------------------------


def _brute_force_sign(make_oracle, graph, y0, theta_old, theta_new):
    """Two independent binary searches instead of the one-query shortcut."""
    g_old = boundary_distance(untargeted_memo(make_oracle(), graph, y0), theta_old, epsilon=1e-4)
    g_new = boundary_distance(untargeted_memo(make_oracle(), graph, y0), theta_new, epsilon=1e-4)
    p_old = objective_p(theta_old, g_old)
    p_new = objective_p(theta_new, g_new)
    return (-1 if p_new < p_old else +1), p_old, p_new


def test_qegc_sign_matches_brute_force_on_exhaustive_oracle():
    table = TableOracle.exhaustive(4, lambda g: int(g.n_edges >= 3))
    graph = Graph.from_edges(4, [])
    rng = np.random.default_rng(7)
    agree = 0
    trials = 40
    for _ in range(trials):
        theta_old = rng.uniform(0.1, 1.0, size=6)
        theta_new = theta_old + 0.1 * normalize(rng.standard_normal(6))
        expected, p_old, p_new = _brute_force_sign(
            lambda: table, graph, 0, theta_old, theta_new
        )
        memo = untargeted_memo(table, graph)
        [probe_graph] = probe_graphs(graph, p_old, [theta_new])
        got = qegc_sign(memo, probe_graph)
        assert memo.queries == {"cgs": 0, "binary_search": 0, "qegc": 1, "other": 0}
        if got == expected:
            agree += 1
        else:
            assert abs(p_new - p_old) < 5e-3  # boundary plateau
    assert agree >= 0.95 * trials


def test_qegc_sign_direction_of_the_inequality():
    # along theta_new the boundary is nearer than g*: the probe graph is
    # already misclassified, so the objective decreased
    oracle = structural_oracle("edge_count", 1)
    graph = Graph.from_edges(3, [])
    [probe] = probe_graphs(graph, 0.4, [np.array([1.0, 1.0, 0.1])])
    assert qegc_sign(untargeted_memo(oracle, graph), probe) == -1


# -- batched probes ------------------------------------------------------


def _assert_probes_equal_the_reference(graph, p_old, thetas):
    """``probe_graphs`` equals the one-row reference on every row: the same
    probe bits, and None exactly where the reference raised; on every 20th
    nonzero row the batched inversion returns the O(d^2) reference's scale,
    bit for bit.  Returns the number of rows that had a probe."""
    unit = np.array([normalize(row) for row in thetas if row.any()])
    if unit.size:
        for row, g_star in zip(unit[::20], attack._solve_g_star_rows(unit, p_old)[::20]):
            try:
                assert g_star == reference_solve_g_star(row, p_old)
            except DegenerateTarget:
                assert np.isnan(g_star)
    got = probe_graphs(graph, p_old, thetas)
    assert len(got) == len(thetas)
    probes = 0
    for row, probe in zip(thetas, got):
        want = reference_probe(graph, p_old, row)
        if want is None:
            assert probe is None
            continue
        assert probe is not None
        assert probe.bits.tobytes() == want.bits.tobytes()
        assert probe.n_nodes == graph.n_nodes and probe.features is graph.features
        probes += 1
    return probes


@pytest.mark.parametrize("d", [3, 66, 190, 780, 3160])
@pytest.mark.parametrize("k", [1, 10, 100])
def test_row_norms_equal_the_per_row_reference(k, d):
    rng = np.random.default_rng(10 * d + k)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1))
    rows = rng.standard_normal((k, d)) * scales
    got = attack._row_norms(rows)
    assert got.tobytes() == reference_row_norms(rows).tobytes()
    for row, norm in zip(rows, got):
        assert (row / norm).tobytes() == normalize(row).tobytes()


def test_row_norms_of_a_strided_stack_are_the_norms_normalize_gives():
    # a strided row's own dot product sums in another order than the
    # contiguous copy normalize takes; the norms must be normalize's
    rng = np.random.default_rng(3)
    wide = rng.standard_normal((12, 2 * 190))
    for rows in (wide[:, ::2], np.asfortranarray(wide[:, :190])):
        got = attack._row_norms(rows)
        contiguous = np.ascontiguousarray(rows)
        assert got.tobytes() == reference_row_norms(contiguous).tobytes()
        for row, norm in zip(rows, got):
            assert (row / norm).tobytes() == normalize(row).tobytes()
    assert reference_row_norms(wide[:, ::2]).tobytes() != \
        reference_row_norms(np.ascontiguousarray(wide[:, ::2])).tobytes()


@pytest.mark.parametrize("k", [1, 10, 100])
@pytest.mark.parametrize("n_nodes", [3, 12, 20, 40])  # d = 3, 66, 190, 780
def test_probe_graphs_equal_the_reference_row_by_row(monkeypatch, n_nodes, k):
    fallbacks = _searched_rows(monkeypatch)
    rng = np.random.default_rng(1000 * n_nodes + k)
    graph = random_graph(rng, n_nodes)
    d = graph.n_edge_slots
    probes = 0
    for _ in range(4):
        # probe-like rows theta + mu * u, as estimate_gradient builds them
        theta = normalize(rng.standard_normal(d))
        u = rng.standard_normal((k, d))
        thetas = theta + 0.1 * u / np.linalg.norm(u, axis=1)[:, None]
        positives = (thetas > 0).sum(axis=1)
        targets = [
            rng.uniform(0.0, 1.0) * positives.min(),  # inside a segment
            rng.uniform(0.0, 0.05) * positives.min(),  # a short walk
            float(rng.integers(0, d + 1)),  # integer, some beyond p_max
            np.nextafter(float(positives[0]), 0.0),  # just below row 0's p_max
        ]
        for row in thetas[:3]:
            # on a breakpoint's mass: among the walked breakpoints, and anywhere
            masses = sorted(_breakpoint_masses(row)) or [0.5]
            targets.append(masses[int(rng.integers(min(len(masses), 2 * attack.WALK_COMPONENTS)))])
            targets.append(masses[int(rng.integers(len(masses)))])
        for p_old in targets:
            probes += _assert_probes_equal_the_reference(graph, p_old, thetas)
    assert probes > 0
    if k == 100:
        assert fallbacks  # rows past the walk, or not bracketed by it


@pytest.mark.parametrize("d", [3, 66, 190, 780])
def test_probe_graphs_equal_the_reference_on_shared_breakpoints(monkeypatch, d):
    # every row is a permutation of one multiset (few magnitudes, or a
    # probe-like direction), so all rows share their breakpoints, tied ones
    # included, and most targets are a breakpoint's mass
    fallbacks = _searched_rows(monkeypatch)
    rng = np.random.default_rng(d)
    n_nodes = {3: 3, 66: 12, 190: 20, 780: 40}[d]
    graph = random_graph(rng, n_nodes)
    probe_like = normalize(rng.standard_normal(d)) + 0.1 * normalize(rng.standard_normal(d))
    for base in (rng.choice([-0.4, 0.25, 0.5, 1.0], size=d), rng.choice([-1.0, 1.0, 3.0], size=d),
                 rng.choice([1.0, 2.0, 5.0], size=d), probe_like):
        thetas = np.array([rng.permutation(base) for _ in range(10)])
        # a permutation sums its masses in another order: a target on one
        # row's breakpoint mass can lie an ulp off another's
        masses = np.unique(_breakpoint_masses(base))
        walked = masses[:2 * attack.WALK_COMPONENTS]
        targets = list(rng.choice(walked, min(walked.size, 12), replace=False))
        targets += list(rng.choice(masses, min(masses.size, 4), replace=False))
        k = int((base > 0).sum())
        targets += [np.nextafter(float(k), 0.0), 0.5 * k]
        for p_old in targets:
            _assert_probes_equal_the_reference(graph, p_old, thetas)
    assert fallbacks  # a target on a tie leaves the walk's segment unbracketed


def test_probe_graphs_reject_degenerate_rows_as_the_reference_does():
    rng = np.random.default_rng(6)
    graph = random_graph(rng, 12)
    d = graph.n_edge_slots
    rows = [rng.standard_normal(d), np.zeros(d), -np.abs(rng.standard_normal(d)),
            np.where(np.arange(d) < 2, 1.0, -1.0),  # two positive components
            rng.standard_normal(d), np.zeros(d)]
    thetas = np.array(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a zero row is rejected without a warning
        for p_old in (0.5, 1.5, 1.999, 2.0, 3.0, 0.0, -0.0, -1.0, 5e-324, float("nan")):
            _assert_probes_equal_the_reference(graph, p_old, thetas)
        got = probe_graphs(graph, 0.5, thetas)
        assert probe_graphs(graph, 0.5, np.zeros((3, d))) == [None] * 3
    assert [probe is None for probe in got] == [False, True, True, False, False, True]
    assert probe_graphs(graph, 0.5, np.empty((0, d))) == []
    with pytest.raises(DimensionMismatch):
        probe_graphs(graph, 0.5, np.ones((2, d + 1)))


# -- gradient estimation -------------------------------------------------


def test_estimate_gradient_costs_one_query_per_direction():
    oracle = structural_oracle("edge_count", 2)
    graph = Graph.from_edges(4, [])
    theta = np.ones(6)
    memo = untargeted_memo(oracle, graph)
    estimate_gradient(memo, theta, 0.7, 25, 0.1, np.random.default_rng(0))
    # a direction whose probe graph repeats an earlier one is a memo hit
    assert memo.queries["qegc"] == memo.total
    assert memo.total + memo.hits == 25


def test_estimate_gradient_antisymmetry():
    # flipping every probe answer flips the estimate exactly
    graph = Graph.from_edges(4, [])
    theta = np.ones(6)
    grad_neg = estimate_gradient(
        untargeted_memo(FunctionOracle(lambda _: 1), graph), theta, 0.7, 30, 0.1,
        np.random.default_rng(3),
    )
    grad_pos = estimate_gradient(
        untargeted_memo(FunctionOracle(lambda _: 0), graph), theta, 0.7, 30, 0.1,
        np.random.default_rng(3),
    )
    assert np.allclose(grad_neg, -grad_pos)
    assert np.all(np.abs(grad_neg) <= 1.0)


def _gradient_step(step, graph, theta, p_t, q, seed, cap=None):
    """One gradient step and everything it leaves behind: the gradient (or
    the cap's message), the query counts, the memo hits and the generator
    state."""
    oracle = structural_oracle("edge_count", graph.n_edges + 1)
    memo = untargeted_memo(oracle, graph, max_queries=cap)
    rng = np.random.default_rng(seed)
    try:
        out = step(memo, theta, p_t, q, 0.1, rng)
    except BudgetExhausted as exc:
        out = str(exc)
    return out, {**memo.queries, "total": memo.total}, memo.hits, rng.bit_generator.state


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
            assert got[1:3] == want[1:3]  # the query counts and the memo hits
            if isinstance(want[0], str):
                # a refused query ends the run: nothing reads the generator after it
                capped += 1
            else:
                assert got[3] == want[3]
    if not p_t > 0.0:  # an all-degenerate step calls no probe
        assert calls == []
    elif q > 1:
        assert capped


class _ScriptedNormals:
    """A generator whose normal draws deal out a fixed sequence, row after
    row; its state is the position in the sequence."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.bit_generator = self
        self.state = 0

    def standard_normal(self, shape):
        n = int(np.prod(shape))
        out = self.values[self.state:self.state + n].reshape(shape)
        self.state += n
        return out.copy()


def test_estimate_gradient_redraws_a_zero_draw_as_the_reference_does():
    graph = erdos_renyi(8, 0.4, np.random.default_rng(2))
    d = graph.n_edge_slots
    rng = np.random.default_rng(3)
    theta = normalize(rng.standard_normal(d))
    rows = rng.standard_normal((12, d))
    rows[[0, 4, 5]] = 0.0  # the first probe's first draw, and two in a row later
    for step in (reference_estimate_gradient, estimate_gradient):
        oracle = structural_oracle("edge_count", graph.n_edges + 1)
        memo = untargeted_memo(oracle, graph)
        normals = _ScriptedNormals(rows.ravel())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a zero row is no division by zero
            grad = step(memo, theta, 0.3, 4, 0.1, normals)
        if step is reference_estimate_gradient:
            want = grad, memo.total, normals.state
            assert normals.state >= 7 * d  # 4 probes and the 3 zero draws
        else:
            assert np.array_equal(grad, want[0])
            assert (memo.total, normals.state) == want[1:]


# -- sign-SGD loop -------------------------------------------------------


def _er_target(seed=0, n=10, p=0.3):
    return erdos_renyi(n, p, np.random.default_rng(seed))


def test_attack_succeeds_on_edge_count_oracle():
    g = _er_target()
    oracle = structural_oracle("edge_count", g.n_edges + 6)
    cfg = AttackConfig(budget=0.5, iterations=8, directions_per_step=20, seed=1)
    res = attack_graph(oracle, g, 0, cfg)
    assert res.success
    assert sum(n for phase, n in res.queries.items() if phase != "total") == \
        res.queries["total"]
    assert oracle.classify(res.adversarial_graph) == 1
    assert res.rate <= cfg.budget
    assert res.flips == len(res.added) + len(res.removed)
    assert res.queries["other"] >= 1  # the final verification query
    assert len(res.p_trace) == len(res.gradient_norm_trace) > 0
    assert all(np.isfinite(res.p_trace))
    assert all(np.isfinite(res.gradient_norm_trace))


@pytest.mark.parametrize("budget, stop_reason", [(0.02, "rate_budget"), (0.05, "iterations")])
def test_attack_failure_when_budget_too_tight(budget, stop_reason):
    # 45 slots: 0.02 allows no flip, so nothing is queried; 0.05 allows 2
    # flips against an oracle that needs 6, so no graph found is kept.  The
    # flips kept never fall, so the descent runs out of iterations before
    # its patience
    g = _er_target()
    oracle = structural_oracle("edge_count", g.n_edges + 6)
    cfg = AttackConfig(budget=budget, iterations=EARLY_STOP_PATIENCE - 1,
                       directions_per_step=10, seed=1)
    res = attack_graph(oracle, g, 0, cfg)
    assert not res.success
    assert res.adversarial_graph is g  # failures return the input graph
    assert res.stop_reason == stop_reason
    assert (res.queries["total"] == 0) == (stop_reason == "rate_budget")


def test_every_step_takes_the_memo_and_not_the_graph():
    # the memo holds the run's target graph, so no public function takes both
    steps = 0
    for module in (attack, cgs, harness):
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            params = list(inspect.signature(fn).parameters)
            assert not {"memo", "graph"} <= set(params), f"{module.__name__}.{name}"
            steps += params[:1] == ["memo"]
    assert steps == 5  # boundary search, probe sign, gradient, descent, coarse search
    # both entry points take the oracle, the target, its label and the config
    heads = [list(inspect.signature(fn).parameters)[:4] for fn in (attack_graph, random_attack)]
    assert heads == [["oracle", "graph", "y0", "cfg"]] * 2


def test_attack_failure_when_oracle_is_constant():
    g = _er_target()
    oracle = FunctionOracle(lambda _: 0)
    res = attack_graph(oracle, g, 0, AttackConfig(iterations=2))
    assert not res.success
    assert res.stop_reason == "no_seed"


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
    spent = full.queries["cgs"]  # the coarse search's gallop and bisection
    seed = coarse_grained_search(untargeted_memo(structural_oracle("edge_count", threshold), g),
                                 louvain(g, seed=cfg.seed), rng_seed=cfg.seed)
    # a cap equal to the search's spend stops the descent before its first
    # boundary search; the seed, queried by the search, comes from the memo
    oracle = structural_oracle("edge_count", threshold)
    res = attack_graph(oracle, g, 0, replace(cfg, max_queries=spent))
    assert res.success and res.stop_reason == "query_budget"
    assert res.found_in == full.found_in == seed.found_in
    assert np.array_equal(res.adversarial_graph.bits, apply_perturbation(g, seed.theta0).bits)
    assert res.queries == {"cgs": spent, "binary_search": 0, "qegc": 0, "other": 0,
                           "total": spent}  # no extra verification query
    assert res.rate <= cfg.budget and res.p_trace == []
    assert res.flips == int(seed.theta0.sum()) > 0
    assert oracle.classify(res.adversarial_graph) == 1
    # the same cap with a budget below the seed's rate is a failure
    tight = attack_graph(structural_oracle("edge_count", threshold), g, 0,
                         replace(cfg, max_queries=spent, budget=res.rate / 2))
    assert not tight.success and tight.adversarial_graph is g
    assert tight.stop_reason == "query_budget"
    # one query less stops the bisection, which the seed's gallop hit
    # began: the run keeps that hit, here the seed itself
    short = attack_graph(structural_oracle("edge_count", threshold), g, 0,
                         replace(cfg, max_queries=spent - 1))
    assert short.success and short.stop_reason == "query_budget"
    assert np.array_equal(short.adversarial_graph.bits, res.adversarial_graph.bits)
    assert short.queries["total"] == short.queries["cgs"] == spent - 1
    assert short.found_in is None  # the search did not end
    # a cap before the gallop's first success leaves nothing to keep
    _, _, asked = _asked_attack(lambda h: int(h.n_edges >= threshold), g, 0, cfg)
    first_hit = next(i for i, (_, label) in enumerate(asked) if label == 1)
    assert first_hit < spent - 1  # the bisection asked after the hit
    early = attack_graph(structural_oracle("edge_count", threshold), g, 0,
                         replace(cfg, max_queries=first_hit))
    assert not early.success and early.adversarial_graph is g
    assert early.stop_reason == "query_budget" and early.found_in is None


def test_a_cap_inside_the_bisection_returns_the_gallop_s_hit():
    # adversarial iff at least k slots are flipped: monotone in the flip
    # count, so the bisection improves on a gallop hit below a failure
    improved = 0
    for seed, k in [(0, 5), (1, 5), (2, 9), (3, 9), (4, 5)]:
        g = _er_target(seed, n=12)
        label_fn = lambda h, g=g, k=k: int(np.count_nonzero(h.bits ^ g.bits) >= k)
        cfg = AttackConfig(budget=0.5, iterations=3, directions_per_step=10, seed=seed)
        full, _, asked = _asked_attack(label_fn, g, 0, cfg)
        spent = full.queries["cgs"]
        hits = [i for i, (_, label) in enumerate(asked[:spent]) if label == 1]
        gallop_hit = asked[hits[0]][0]
        for cap in range(hits[0] + 1, spent):
            res, _, _ = _asked_attack(label_fn, g, 0, replace(cfg, max_queries=cap))
            assert res.success and res.stop_reason == "query_budget"
            assert res.queries == {"cgs": cap, "binary_search": 0, "qegc": 0, "other": 0,
                                   "total": cap}
            # the fewest-flip hit of the bisection so far, the gallop's at first
            kept = _fewest_flip_verified(g, asked[:cap], cfg.predicate(0), cfg.budget)
            assert res.adversarial_graph.bits.tobytes() == kept.bits.tobytes()
            if cap == hits[0] + 1:
                assert kept is gallop_hit
        seed_flips = int(np.count_nonzero(asked[hits[-1]][0].bits ^ g.bits))
        improved += seed_flips < int(np.count_nonzero(gallop_hit.bits ^ g.bits))
    assert improved >= 2


def _asked_attack(label_fn, graph, y0, cfg):
    """``attack_graph`` on a ``FunctionOracle`` of ``label_fn`` that records
    each graph it classifies with its label, in order; returns the result,
    the oracle and the record."""
    asked = []

    def recording(h):
        asked.append((h, label_fn(h)))
        return asked[-1][1]

    oracle = FunctionOracle(recording)
    return attack_graph(oracle, graph, y0, cfg), oracle, asked


def _fewest_flip_verified(graph, asked, predicate, budget):
    """The first graph in ``asked`` with the fewest flips among those that
    were adversarial and within ``budget``; None if there is none."""
    best = None
    for h, label in asked:
        if predicate(label) and perturbation_rate(graph, h) <= budget:
            if best is None or perturbation_rate(graph, h) < perturbation_rate(graph, best):
                best = h
    return best


def test_the_run_returns_its_fewest_flip_verified_graph():
    ties = 0
    for seed in range(60):
        g = _er_target(seed, n=10 + seed % 3)
        m, y_hash = g.n_edges, hashed_label(g)
        # edge counts in both directions, near and far; pseudo-random labels
        # everywhere, or from two added edges on
        far = lambda h, t=m + 2, y=y_hash: hashed_label(h) if h.n_edges >= t else y
        cases = [(lambda h, t=m + 1: int(h.n_edges >= t), 0, None),
                 (lambda h, t=m + 4: int(h.n_edges >= t), 0, None),
                 (lambda h, t=m - 1: int(h.n_edges >= t), 1, None)]
        cases += [(fn, y_hash, target) for fn in (hashed_label, far)
                  for target in (None, (y_hash + 1) % 8)]
        for (label_fn, y0, target), budget in itertools.product(cases, (0.2, 0.5)):
            cfg = AttackConfig(budget=budget, iterations=6, directions_per_step=10,
                               target_label=target, seed=seed)
            predicate = cfg.predicate(y0)
            res, _, asked = _asked_attack(label_fn, g, y0, cfg)
            if res.success:  # the last query re-verifies the returned graph
                assert asked[-1][0].bits.tobytes() == res.adversarial_graph.bits.tobytes()
                asked = asked[:-1]
            assert len({h.bits.tobytes() for h, _ in asked}) == len(asked)
            best = _fewest_flip_verified(g, asked, predicate, budget)
            assert res.success == (best is not None)
            assert res.stop_reason in STOP_REASONS
            if best is not None:
                assert res.adversarial_graph is best
                ties += sum(predicate(label) and perturbation_rate(g, h) == res.rate
                            for h, label in asked) > 1
    assert ties


def test_a_descent_that_loses_the_boundary_returns_its_verified_seed():
    g = _er_target()
    empty = np.flatnonzero(g.bits == 0)
    seed = g.flip(empty[:3])
    # only the seed is adversarial, and the descent's direction never meets it
    oracle = FunctionOracle(lambda h: int(np.array_equal(h.bits, seed.bits)))
    memo = untargeted_memo(oracle, g, budget=0.5)
    assert memo.adversarial(seed, "cgs") and memo.best is seed
    theta0 = np.zeros(g.n_edge_slots)
    theta0[empty[3:8]] = 1.0
    cfg = AttackConfig(budget=0.5, iterations=5, directions_per_step=10)
    res = sign_sgd_attack(memo, cfg, theta0)
    assert res.success and res.stop_reason == "no_boundary"
    assert res.adversarial_graph is seed and res.flips == 3 and res.p_trace == []
    assert res.queries["other"] == 1  # the re-verification of the seed
    assert res.queries["binary_search"] > 0 and res.queries["qegc"] == 0


def _queries_to_find(asked, graph):
    """How many of the queries recorded in ``asked`` it took to first ask
    ``graph``."""
    key = graph.bits.tobytes()
    return 1 + next(i for i, (h, _) in enumerate(asked) if h.bits.tobytes() == key)


def _improving_descent():
    """A target, label rule and config whose descent improves on its
    coarse-search seed, then runs with p moving until it stops."""
    g = _er_target()
    threshold = g.n_edges + 8
    cfg = AttackConfig(budget=0.5, iterations=50, directions_per_step=50, seed=1)
    return g, lambda h: int(h.n_edges >= threshold), cfg


def test_the_descent_stops_when_its_returned_graph_stops_improving(monkeypatch):
    g, rule, cfg = _improving_descent()
    flips = []  # memo.best_flips as each iteration begins

    def recording(memo, theta, *args):
        flips.append(memo.best_flips)
        return boundary_distance(memo, theta, *args)

    monkeypatch.setattr(attack, "boundary_distance", recording)
    res = attack_graph(FunctionOracle(rule), g, 0, cfg)
    assert res.success and res.queries["other"] == 1
    flips.append(res.flips)  # after the last iteration
    assert len(flips) == len(res.p_trace) + 1
    falls = [t for t in range(len(res.p_trace)) if flips[t + 1] < flips[t]]
    assert falls  # the descent found fewer flips than its seed
    assert res.stop_reason == "converged"
    assert len(res.p_trace) == falls[-1] + 1 + EARLY_STOP_PATIENCE < cfg.iterations
    # p never stood still, so a stop on the objective alone would run all
    # iterations
    assert np.all(np.abs(np.diff(res.p_trace)) > 1e-6)


def test_a_zero_objective_ends_the_descent_after_one_iteration():
    # a hashed label often flips on a single-slot seed, whose boundary point
    # lies exactly on the flip threshold: the objective is 0 there, no probe
    # inverts and theta cannot move
    cfg = AttackConfig(budget=0.2, iterations=12, directions_per_step=10, seed=1)
    stopped = 0
    for n in range(9, 15):
        g = erdos_renyi(n, 0.2, np.random.default_rng(100 + n))
        y0 = hashed_label(g)
        one = attack_graph(FunctionOracle(hashed_label), g, y0, replace(cfg, iterations=1))
        if not one.p_trace or one.p_trace[0] > 0.0:
            continue
        stopped += 1
        res = attack_graph(FunctionOracle(hashed_label), g, y0, cfg)
        assert res.stop_reason == "converged"
        assert res.p_trace == one.p_trace and res.gradient_norm_trace == [0.0]
        assert res.queries["qegc"] == 0
        assert (res.success, res.flips, res.queries) == (one.success, one.flips, one.queries)
        assert np.array_equal(res.adversarial_graph.bits, one.adversarial_graph.bits)
    assert stopped >= 3


def test_only_the_last_iteration_of_a_descent_has_a_zero_objective():
    workloads = perfbench_module("workloads")
    w = workloads.build("gin_balanced_n20", 1)
    zero_ends = 0
    for idx, g, y0 in w.targets:
        res = attack_graph(w.oracle, g, y0, w.target_cfg(idx))
        assert all(p > 0.0 for p in res.p_trace[:-1]), idx
        if res.p_trace and not res.p_trace[-1] > 0.0:
            zero_ends += 1
            assert res.stop_reason == "converged", idx
    assert zero_ends  # the stop is exercised


def test_capped_run_keeps_the_verified_boundary_graph(monkeypatch):
    g, rule, uncapped = _improving_descent()
    boundary = []  # the graph of each boundary search

    def recording(memo, theta, *args):
        g_t = boundary_distance(memo, theta, *args)
        boundary.append(apply_perturbation(memo.graph, g_t * normalize(theta)))
        return g_t

    monkeypatch.setattr(attack, "boundary_distance", recording)
    full, _, full_asked = _asked_attack(rule, g, 0, uncapped)
    spend = full.queries
    # the descent asks every query after this one once the flips last fell
    found = _queries_to_find(full_asked, full.adversarial_graph)
    # caps a quarter, half and three quarters into the uncapped descent, and
    # halfway through its final stretch, where the memo holds a graph found
    # before the last boundary search
    descent = spend["total"] - spend["cgs"] - spend["other"]
    caps = [spend["cgs"] + descent * k // 4 for k in (1, 2, 3)]
    caps.append((found + spend["total"] - spend["other"]) // 2)
    assert spend["cgs"] < found < caps[-1] < spend["total"] - spend["other"]
    not_last = 0
    for cap in caps:
        cfg = replace(uncapped, max_queries=cap)
        del boundary[:]
        res, _, asked = _asked_attack(rule, g, 0, cfg)
        assert res.queries["total"] == cap == len(asked)  # the cap stopped the descent
        assert 0 < len(res.p_trace) < cfg.iterations
        assert res.queries["other"] == 0  # no extra verification query
        assert res.success and res.stop_reason == "query_budget"
        assert res.rate <= cfg.budget
        assert rule(res.adversarial_graph) == 1
        # the memo's graph, which need not be the last boundary point
        assert res.adversarial_graph is _fewest_flip_verified(g, asked, cfg.predicate(0),
                                                              cfg.budget)
        last = boundary[-1]
        assert res.flips <= len(np.flatnonzero(last.bits ^ g.bits))
        not_last += res.adversarial_graph.bits.tobytes() != last.bits.tobytes()
    assert not_last


def _four_rule_runs(seeds):
    """(target, label rule, clean label, config) for one ER target per seed
    under four rules: edge count up and down, and the hashed label,
    untargeted and targeted."""
    runs = []
    for seed in seeds:
        g = _er_target(seed, n=10 + seed)
        m, y_hash = g.n_edges, hashed_label(g)
        cfg = AttackConfig(budget=0.5, iterations=30, directions_per_step=20, seed=seed)
        runs += [(g, lambda h, t=m + 5: int(h.n_edges >= t), 0, cfg),
                 (g, lambda h, t=m - 2: int(h.n_edges >= t), 1, cfg),
                 (g, hashed_label, y_hash, cfg),
                 (g, hashed_label, y_hash, replace(cfg, target_label=(y_hash + 1) % 8))]
    return runs


def test_a_capped_run_is_a_prefix_of_the_uncapped_run():
    # the stop reads only the memo, so a cap cannot change when a run stops:
    # capped at Q, a run asks the uncapped run's first min(Q, total) graphs
    # and returns what its memo held after them
    g, rule, cfg = _improving_descent()
    runs = [(g, rule, 0, cfg)] + _four_rule_runs(range(6))
    improved = 0
    for g, label_fn, y0, uncapped in runs:
        predicate = uncapped.predicate(y0)
        full, _, full_asked = _asked_attack(label_fn, g, y0, uncapped)
        assert full.success
        total = full.queries["total"]
        found = _queries_to_find(full_asked, full.adversarial_graph)
        improved += found > full.queries["cgs"]  # the descent found the returned graph
        caps = {1, total // 4, total // 2, 3 * total // 4, found, found + 1, total - 2,
                total - 1, total, total + 1, 25, 50, 100, 200, 400}
        for cap in sorted(caps - {0}):
            res, _, asked = _asked_attack(label_fn, g, y0, replace(uncapped, max_queries=cap))
            seen = min(cap, total)
            assert [h.bits.tobytes() for h, _ in asked] == \
                [h.bits.tobytes() for h, _ in full_asked[:seen]]
            best = _fewest_flip_verified(g, full_asked[:seen], predicate, uncapped.budget)
            assert res.success == (best is not None)
            if best is not None:
                assert res.flips == len(np.flatnonzero(best.bits ^ g.bits))
            assert res.stop_reason == ("query_budget" if cap < total else full.stop_reason)
    assert improved >= 2


def test_a_lower_patience_run_is_a_prefix_of_the_patience_10_run(monkeypatch):
    # the stop reads only the memo, so a lower patience only cuts a run short:
    # up to its re-verification it asks the first graphs of the same run at
    # patience 10, so it asks no more queries and ends with no fewer flips
    cut = 0
    for g, label_fn, y0, cfg in _four_rule_runs(range(4)):
        pair = []
        for patience in (10, 3):
            monkeypatch.setattr(attack, "EARLY_STOP_PATIENCE", patience)
            pair.append(_asked_attack(label_fn, g, y0, cfg))
        (long, _, long_asked), (short, _, asked) = pair
        asked = asked[:len(asked) - short.queries["other"]]  # up to the re-verification
        assert [h.bits.tobytes() for h, _ in asked] == \
            [h.bits.tobytes() for h, _ in long_asked[:len(asked)]]
        assert all(short.queries[phase] <= long.queries[phase] for phase in long.queries)
        assert short.success <= long.success
        if short.success:
            assert short.flips >= long.flips
        assert short.p_trace == long.p_trace[:len(short.p_trace)]
        if short.stop_reason != long.stop_reason:  # only the earlier stop came first
            assert short.stop_reason == "converged"
            assert len(short.p_trace) < len(long.p_trace) or long.stop_reason == "iterations"
        cut += len(short.p_trace) < len(long.p_trace)
    assert cut  # the lower patience did stop some runs earlier


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
    held = []  # submissions the memo answers
    memo_adversarial = LabelMemo.adversarial

    def counting(self, graph, phase):
        submitted.append(graph.bits.tobytes())
        held.append(submitted[-1] in self.labels)
        return memo_adversarial(self, graph, phase)

    monkeypatch.setattr(LabelMemo, "adversarial", counting)
    g = _er_target()
    oracle, asked = _recording_oracle(g.n_edges + 6)
    cfg = AttackConfig(budget=0.5, iterations=8, directions_per_step=20, seed=1)
    res = attack_graph(oracle, g, 0, cfg)
    assert res.success
    # only the final re-verification repeats a graph: the one the memo kept,
    # which the run returns
    assert len(set(asked[:-1])) == len(asked) - 1
    assert asked[-1] == res.adversarial_graph.bits.tobytes() and asked[-1] in asked[:-1]
    assert res.queries["total"] == len(asked) == len(set(asked)) + 1
    assert res.queries["other"] == 1
    # every other submission to the memo is a query or a memo hit; a flip
    # count a boundary search probes again is a memo hit that never reaches it
    assert res.queries["total"] == len(submitted) - sum(held) + 1
    assert res.memo_hits > sum(held) > 0
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
    # nor do two runs on one oracle, and each reports only its own queries
    runs = [attack_graph(oracle, g, 0, cfg) for _ in range(2)]
    assert asked[2 * n:] == asked[:n] * 2
    assert [(r.queries, r.memo_hits) for r in runs] == [(first.queries, first.memo_hits)] * 2


@pytest.mark.parametrize("method", ["signsgd", "random"])
def test_runs_on_one_oracle_each_count_and_cap_their_own_queries(method):
    # each run on a shared oracle reports only its own queries and gets the
    # whole cap, whatever the runs before it spent
    graphs = generate_synthetic("erdos_renyi", 3, 1, n=20, p=0.2).graphs
    labels = [structural_oracle("edge_count", 45).classify(g) for g in graphs]
    cfg = AttackConfig(budget=0.2, iterations=5, directions_per_step=5, max_queries=60)

    def run(oracle, g, y0):
        if method == "signsgd":
            return attack_graph(oracle, g, y0, cfg)
        return random_attack(oracle, g, y0, cfg, 100)

    def outcome(res):
        return (res.success, res.adversarial_graph.bits.tobytes(), res.queries,
                res.memo_hits, res.skipped, res.stop_reason)

    shared = structural_oracle("edge_count", 45)
    runs = [run(shared, g, y0) for g, y0 in zip(graphs, labels)]
    alone = [run(structural_oracle("edge_count", 45), g, y0) for g, y0 in zip(graphs, labels)]
    assert [outcome(r) for r in runs] == [outcome(r) for r in alone]
    totals = {"signsgd": [38, 31, 25], "random": [39, 60, 29]}[method]
    assert [r.queries["total"] for r in runs] == totals
    # one count shared by the runs would refuse the third run every query
    assert sum(totals[:2]) > cfg.max_queries


def test_capped_run_never_returns_an_unverified_seed():
    g = _er_target()
    theta0 = np.zeros(g.n_edge_slots)
    theta0[np.flatnonzero(g.bits == 0)[:5]] = 1.0  # adversarial, but never queried
    for iterations in (0, 3):
        oracle = structural_oracle("edge_count", g.n_edges + 3)
        cfg = AttackConfig(budget=0.5, iterations=iterations, directions_per_step=10)
        memo = untargeted_memo(oracle, g, budget=cfg.budget, max_queries=1)
        memo.query(g, "other")  # the cap is already spent
        res = sign_sgd_attack(memo, cfg, theta0)
        assert not res.success and res.queries["total"] == 1
        # with no iteration nothing is queried, and the memo holds no graph
        # to re-verify
        assert res.stop_reason == ("query_budget" if iterations else "iterations")


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
    ("smoothing", -0.1),
    ("smoothing", 0.0),
    ("smoothing", float("nan")),
    ("smoothing", float("inf")),
    ("seed", -1),
])
def test_invalid_config_rejected(field, value):
    with pytest.raises(ConfigError):
        AttackConfig(**{field: value})


def test_edge_of_range_configs_are_valid():
    AttackConfig(iterations=0, budget=1.0, directions_per_step=1, max_queries=1)
    AttackConfig(strategy="III", smoothing=1e-12, seed=0)


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


def test_a_targeted_run_toward_the_targets_own_label_is_a_config_error():
    g = _er_target()
    oracle = CountingOracle(lambda h: int(h.n_edges >= g.n_edges))  # labels g 1
    cfg = AttackConfig(budget=0.5, iterations=5, directions_per_step=10, target_label=1)
    with pytest.raises(ConfigError, match="target_label 1 is the target's own label"):
        attack_graph(oracle, g, 1, cfg)
    with pytest.raises(ConfigError, match="target_label 1 is the target's own label"):
        random_attack(oracle, g, 1, cfg, 50)
    assert oracle.computed == 0  # raised before any query


def test_sign_sgd_uses_seed_direction():
    g = _er_target()
    oracle = structural_oracle("edge_count", g.n_edges + 3)
    theta0 = np.zeros(g.n_edge_slots)
    theta0[np.flatnonzero(g.bits == 0)[:5]] = 1.0  # five empty slots
    cfg = AttackConfig(budget=0.5, iterations=3, directions_per_step=10, seed=0)
    res = sign_sgd_attack(untargeted_memo(oracle, g, budget=cfg.budget), cfg, theta0)
    assert res.success
