"""Tests for the benchmark's own code: ``python -m pytest perfbench``."""

from dataclasses import replace

import numpy as np
import pytest

from blackedge import harness
from blackedge.attack import AttackResult
from blackedge.datasets import generate_synthetic
from blackedge.gin import GinOracle, GinWeights, gin_forward
from blackedge.graph import apply_perturbation, flip_ledger, perturbation_rate

from gate import check_target
from hostspeed import REFERENCE_S, ReferenceClock
from measure import Pass, ResultCapture, attack_target, outcome, timing
from tracing import PHASES, Tracer, layer_metrics
from workloads import TARGETS_PER_PASS, balanced_gin, build, class1_margin, shift_class1_bias


def test_balanced_gin_splits_the_graphs_in_half():
    graphs = generate_synthetic("erdos_renyi", 16, seed=3, n=20, p=0.2).graphs
    untuned = GinOracle(GinWeights.random(0))
    assert len({untuned.classify(g) for g in graphs}) == 1  # why calibration exists
    labels = [GinOracle(balanced_gin(graphs)).classify(g) for g in graphs]
    assert labels.count(0) == labels.count(1) == 8
    g, base = graphs[0], GinWeights.random(0)
    m = class1_margin(base, g)
    assert gin_forward(shift_class1_bias(base, m - 1e-6 * abs(m)), g) == 0
    assert gin_forward(shift_class1_bias(base, m + 1e-6 * abs(m)), g) == 1
    assert {y for _, _, y in build("gin_balanced_n20", 0).targets} == {0, 1}


@pytest.fixture(scope="module")
def edgecount():
    return build("edgecount_n20", 11)


def _row(result):
    return {"success": result.success, "flips_added": len(result.added),
            "flips_removed": len(result.removed), "rate": result.rate,
            "queries": dict(result.queries)}


def _success(graph, n_added):
    """A success that adds the first ``n_added`` absent edges."""
    theta = np.zeros(graph.n_edge_slots)
    theta[np.flatnonzero(graph.bits == 0)[:n_added]] = 1.0
    adv = apply_perturbation(graph, theta)
    return AttackResult(True, adv, *flip_ledger(graph, adv),
                        rate=perturbation_rate(graph, adv),
                        queries={"other": 1, "total": 1})


def test_gate_flags_forged_success(edgecount):
    _, graph, y0 = edgecount.targets[0]
    assert y0 == 0
    honest = _success(graph, 55 - graph.n_edges)
    assert check_target(edgecount, graph, y0, _row(honest), honest) == []

    forged = AttackResult(True, graph, queries={"other": 1, "total": 1})
    assert any("keeps label" in p
               for p in check_target(edgecount, graph, y0, _row(forged), forged))

    over = _success(graph, 40)  # 40 of 190 slots > budget 0.2
    assert any("exceeds the budget" in p
               for p in check_target(edgecount, graph, y0, _row(over), over))

    row = _row(honest)
    row["queries"] = {"qegc": 2, "other": 1, "total": 1}
    assert any("sum to" in p for p in check_target(edgecount, graph, y0, row, honest))


@pytest.mark.parametrize("name", sorted(TARGETS_PER_PASS))
def test_tracing_leaves_seeded_results_unchanged(name):
    w = build(name, 5)
    w = replace(w, targets=w.targets[:2],
                cfg=replace(w.cfg, iterations=2, directions_per_step=8),
                random_query_budget=40 if w.random_query_budget else None)
    plain, traced = Pass(), Pass()
    originals = {attr: getattr(harness, attr) for attr in ("run_experiment", "attack_graph")}
    with ResultCapture() as capture:
        for position in range(2):
            attack_target(w, position, capture, plain)
        with Tracer() as tracer:
            for position in range(2):
                attack_target(w, position, capture, traced, tracer)
    assert plain.failed == traced.failed == 0
    assert [outcome(r) for r in plain.rows] == [outcome(r) for r in traced.rows]
    counts = tracer.phase_counts(2)
    for position, row in enumerate(traced.rows):
        assert [row["queries"][p] for p in PHASES] == counts[position].tolist()
    assert {attr: getattr(harness, attr) for attr in originals} == originals
    metrics = layer_metrics(tracer, 2)
    assert metrics["oracle.classify.calls"][0] == np.mean(
        [r["queries"]["total"] for r in traced.rows])


def test_reference_clock_scales_by_the_readings_around_an_interval():
    clock = ReferenceClock()
    assert clock.read() > 0 and len(clock.readings) == 1
    # kernel twice as slow as the reference on average: halve the wall time
    assert ReferenceClock.scale(2.0, REFERENCE_S, 3 * REFERENCE_S) == pytest.approx(1.0)
    result, wall, scaled = clock.timed(lambda: 7)
    assert result == 7 and wall >= 0 and scaled >= 0 and len(clock.readings) == 3


def test_timing_weighs_each_target_once():
    one_pass = [1.0, 2.0, 3.0]
    assert timing(one_pass, 3) == timing(one_pass * 2, 3) == (0.5, 2.0, 3.0)
    # target 0 attacked twice: its mean counts once, not its two attempts
    rate, _, _ = timing([1.0, 2.0, 3.0, 5.0], 3)
    assert rate == pytest.approx(3 / (3.0 + 2.0 + 3.0))


def test_later_passes_attack_with_new_seeds(edgecount):
    k = len(edgecount.targets)
    first = {edgecount.target_cfg(idx).seed for idx, _, _ in edgecount.targets}
    second = {edgecount.target_cfg(idx, 1).seed for idx, _, _ in edgecount.targets}
    assert len(first) == len(second) == k and not first & second
