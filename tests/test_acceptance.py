"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they print.  The expensive end-to-end suite (criteria 7-9 and 11) runs
once and is shared through a module-scoped fixture.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from blackedge.attack import (
    AttackConfig,
    attack_graph,
    boundary_distance,
    objective_p,
    probe_graphs,
    qegc_sign,
    solve_g_star,
)
from blackedge.datasets import barbell, generate_synthetic, load_tudataset
from blackedge.defense import LowRankConfig, _reconstruction, low_rank_filter
from blackedge.errors import DegenerateTarget
from blackedge.gin import GinOracle, GinWeights
from blackedge.graph import Graph, apply_perturbation, flip_ledger, n_slots, normalize, perturbation_rate
from blackedge.harness import clean_accuracy, defense_sweep, random_attack, rows_to_csv
from blackedge.partition import Partition, louvain, search_space_report

from helpers import (
    CountingOracle,
    TableOracle,
    complete_graph,
    modularity_matrix,
    set_partitions,
    untargeted_memo,
)


@contextmanager
def criterion(line):
    try:
        yield
    except BaseException:
        print(f"FAIL: {line}")
        raise
    print(f"PASS: {line}")


# -- criterion 1: perturbation algebra -----------------------------------


def test_criterion_1_perturbation_algebra():
    with criterion("criterion 1 - perturbation algebra on 10,000 random pairs"):
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        violations = 0
        for _ in range(10_000):
            n = int(rng.integers(3, 31))
            s = n_slots(n)
            g = Graph(n, (rng.random(s) < 0.5).astype(np.uint8))
            theta = rng.uniform(-1.5, 1.5, size=s)
            perturbed = apply_perturbation(g, theta)
            twice = apply_perturbation(perturbed, theta)
            if not np.array_equal(twice.bits, g.bits):  # involution
                violations += 1
            rate = perturbation_rate(g, perturbed)
            if rate != int(np.count_nonzero(theta >= 0.5)) / s:  # rate consistency
                violations += 1
            added, removed = flip_ledger(g, perturbed)
            flips = int(np.count_nonzero(g.bits ^ perturbed.bits))
            if len(added) + len(removed) != flips:  # ledger completeness
                violations += 1
        elapsed = time.perf_counter() - start
        assert violations == 0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


# -- criterion 2: objective monotone in the boundary distance ------------


def test_criterion_2_objective_monotonicity():
    with criterion("criterion 2 - objective non-decreasing in g on 1,000 triples"):
        rng = np.random.default_rng(1)
        start = time.perf_counter()
        checked = 0
        while checked < 1_000:
            d = int(rng.integers(2, 50))
            theta = rng.standard_normal(d)
            if not np.any(theta > 0):
                continue
            g1, g2 = np.sort(rng.uniform(0.0, 20.0, size=2))
            if g1 == g2:
                continue
            assert objective_p(theta, g1) <= objective_p(theta, g2) + 1e-12
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


# -- criterion 3: one-query sign vs brute force --------------------------


def _brute_force_sign(oracle_factory, graph, y0, theta_old, theta_new):
    g_old = boundary_distance(untargeted_memo(oracle_factory(), graph, y0), theta_old,
                              epsilon=1e-4)
    g_new = boundary_distance(untargeted_memo(oracle_factory(), graph, y0), theta_new,
                              epsilon=1e-4)
    p_old = objective_p(theta_old, g_old)
    p_new = objective_p(theta_new, g_new)
    return (-1 if p_new < p_old else +1), p_old, p_new


def test_criterion_3_one_query_sign_equivalence():
    with criterion("criterion 3 - one-query sign probes match brute force"):
        start = time.perf_counter()
        agree = total = 0
        for n, threshold in ((3, 2), (4, 3)):
            table = TableOracle.exhaustive(n, lambda g: int(g.n_edges >= threshold))
            graph = Graph.from_edges(n, [])
            s = n_slots(n)
            rng = np.random.default_rng(10 + n)
            for _ in range(100):
                theta_old = rng.uniform(0.1, 1.0, size=s)
                theta_new = theta_old + 0.1 * normalize(rng.standard_normal(s))
                try:
                    expected, p_old, p_new = _brute_force_sign(
                        lambda: table, graph, 0, theta_old, theta_new
                    )
                    [probe_graph] = probe_graphs(graph, p_old, [theta_new])
                    if probe_graph is None:
                        continue
                    memo = untargeted_memo(table, graph)
                    got = qegc_sign(memo, probe_graph)
                except DegenerateTarget:
                    continue
                assert memo.total == 1  # exactly one query
                assert memo.queries["qegc"] == 1
                total += 1
                if got == expected:
                    agree += 1
                else:
                    # disagreements only on a plateau of the objective
                    assert abs(p_new - p_old) < 5e-3
        elapsed = time.perf_counter() - start
        assert total >= 190
        assert agree >= 0.95 * total, f"{agree}/{total} agreements"
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


# -- criterion 4: analytic inversion vs bisection ------------------------


def test_criterion_4_analytic_inversion():
    with criterion("criterion 4 - analytic scale inversion matches bisection"):
        rng = np.random.default_rng(2)
        start = time.perf_counter()
        checked = 0
        while checked < 1_000:
            d = int(rng.integers(2, 30))
            theta = rng.uniform(0.05, 1.0, size=d)
            theta[rng.random(d) < 0.25] *= -1.0
            positive = theta[theta > 0]
            if positive.size == 0:
                continue
            p_old = rng.uniform(0.02, 0.98) * positive.size
            g_star = solve_g_star(theta, p_old)
            lo = 0.0
            hi = 1.5 * np.linalg.norm(theta) / positive.min() + 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if objective_p(theta, mid) < p_old:
                    lo = mid
                else:
                    hi = mid
            assert abs(g_star - hi) < 1e-8
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


# -- criterion 5: search-space accounting --------------------------------


def test_criterion_5_search_space_formulas():
    with criterion("criterion 5 - search-space accounting hand values"):
        start = time.perf_counter()
        # 6 nodes in two triangles
        report = search_space_report(Partition(np.repeat([0, 1], 3), 2))
        assert report.s_node == 16
        assert report.s_link == 512
        assert report.s_graph == 32768
        assert abs(report.beta - 32768 / 528) < 1e-9

        # 20 nodes in four balanced clusters, checked against exact
        # big-integer logarithms
        report = search_space_report(Partition(np.repeat(np.arange(4), 5), 4))
        expected = math.log2(2**190) - math.log2(4 * 2**10 + 6 * 2**25)
        assert abs(report.log2_beta - expected) < 0.01
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


# -- criterion 6: community detection ------------------------------------


def test_criterion_6_louvain_vs_brute_force():
    with criterion("criterion 6 - community detection matches brute force"):
        start = time.perf_counter()
        g = barbell(4)
        best_q, best_assignment = -np.inf, None
        for assignment in set_partitions(8):
            q = modularity_matrix(g.adjacency, assignment)
            if q > best_q:
                best_q, best_assignment = q, assignment
        part = louvain(g, seed=0)
        assert part.assignment.tolist() == best_assignment.tolist()
        assert abs(modularity_matrix(g.adjacency, part.assignment) - best_q) < 1e-12
        assert part.assignment.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

        assert louvain(complete_graph(5), seed=0).n_clusters == 1
        again = louvain(g, seed=0)
        assert again.assignment.tolist() == part.assignment.tolist()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


# -- criteria 7-9 and 11: the end-to-end suite ---------------------------


SUITE_THRESHOLD = 55


@pytest.fixture(scope="module")
def attack_suite():
    """50 seeded 20-node graphs attacked once each, plus the matched
    random baseline.  All downstream criteria read from this record."""
    bundle = generate_synthetic("erdos_renyi", 50, seed=7, n=20, p=0.2)
    # the edge-count oracle, counting the labels it is asked for
    oracle = CountingOracle(lambda g: int(g.n_edges >= SUITE_THRESHOLD))
    assert all(g.n_edges < SUITE_THRESHOLD for g in bundle.graphs)

    base_cfg = AttackConfig(budget=0.2, iterations=30, directions_per_step=100,
                            smoothing=0.1)
    runs = []
    t0 = time.perf_counter()
    for idx, graph in enumerate(bundle.graphs):
        asked = oracle.computed
        cfg = replace(base_cfg, seed=idx)
        res = attack_graph(oracle, graph, 0, cfg)
        runs.append({
            "graph": graph,
            "optimum": SUITE_THRESHOLD - graph.n_edges,
            "result": res,
            "asked": oracle.computed - asked,
        })
    signsgd_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    for idx, run in enumerate(runs):
        run["random"] = random_attack(
            oracle, run["graph"], 0, replace(base_cfg, seed=1000 + idx),
            # the graphs the attack drew, memo hits and skipped coarse-search
            # trials included: the baseline gets as many trials as before
            # the memo and the coarse search's gallop
            query_budget=(run["result"].queries["total"] + run["result"].memo_hits
                          + run["result"].skipped),
        )
    random_time = time.perf_counter() - t0
    return {"runs": runs, "oracle": oracle, "budget": base_cfg.budget,
            "signsgd_time": signsgd_time, "random_time": random_time}


def test_criterion_7_attack_vs_analytic_optimum(attack_suite):
    with criterion("criterion 7 - end-to-end attack vs analytic optimum"):
        runs = attack_suite["runs"]
        successes = [r for r in runs if r["result"].success]
        sr = len(successes) / len(runs)
        assert sr >= 0.9, f"success rate {sr:.2f}"
        for r in successes:
            assert r["result"].flips <= 2 * r["optimum"], (
                f"{r['result'].flips} flips vs optimum {r['optimum']}"
            )
        assert attack_suite["signsgd_time"] < 300.0, (
            f"took {attack_suite['signsgd_time']:.0f}s"
        )


def test_criterion_8_baseline_dominance(attack_suite):
    with criterion("criterion 8 - fewer flips than random at matched queries"):
        runs = attack_suite["runs"]
        signsgd_flips = [r["result"].flips for r in runs if r["result"].success]
        random_flips = [r["random"].flips for r in runs if r["random"].success]
        assert signsgd_flips and random_flips
        signsgd_ap = float(np.mean(signsgd_flips))
        random_ap = float(np.mean(random_flips))
        assert signsgd_ap < random_ap, (
            f"signSGD AP {signsgd_ap:.2f} vs random AP {random_ap:.2f}"
        )
        total = attack_suite["signsgd_time"] + attack_suite["random_time"]
        assert total < 600.0, f"took {total:.0f}s"


def test_criterion_9_budget_and_accounting(attack_suite):
    with criterion("criterion 9 - budget and query accounting soundness"):
        oracle = attack_suite["oracle"]
        budget = attack_suite["budget"]
        for r in attack_suite["runs"]:
            res = r["result"]
            # reported totals equal the labels the oracle was asked for,
            # phase sums included
            assert res.queries["total"] == r["asked"]
            phase_sum = sum(v for k, v in res.queries.items() if k != "total")
            assert phase_sum == res.queries["total"]
            if res.success:
                assert res.rate <= budget
                # independently re-verify the misclassification
                assert oracle.classify(res.adversarial_graph) == 1
                assert perturbation_rate(r["graph"], res.adversarial_graph) == res.rate


def test_criterion_11_gradient_norm_traces(attack_suite, tmp_path):
    with criterion("criterion 11 - finite gradient-norm trace per graph"):
        for idx, r in enumerate(attack_suite["runs"]):
            res = r["result"]
            assert len(res.gradient_norm_trace) > 0
            assert np.all(np.isfinite(res.gradient_norm_trace))
            assert np.all(np.isfinite(res.p_trace))
            trace_file = tmp_path / f"trace_{idx:03d}.txt"
            trace_file.write_text(
                "\n".join(f"{v:.6f}" for v in res.gradient_norm_trace)
            )
            assert trace_file.exists()


# -- criterion 10: defense identity and curve ----------------------------


def test_criterion_10_defense_identity_and_curve():
    with criterion("criterion 10 - low-rank defense identity and sweep"):
        start = time.perf_counter()
        rng = np.random.default_rng(3)
        identity = LowRankConfig(gamma=1.0)
        for _ in range(1_000):
            n = int(rng.integers(2, 16))
            g = Graph(n, (rng.random(n_slots(n)) < rng.uniform(0.1, 0.9))
                      .astype(np.uint8))
            assert np.array_equal(low_rank_filter(g, identity).bits, g.bits)

        # rank-1 truncation of the 4-clique reproduces it exactly
        k4 = complete_graph(4)
        approx = _reconstruction(k4.adjacency, LowRankConfig(gamma=0.25).rank(4))
        assert np.allclose(approx, 0.75 * np.ones((4, 4)))
        assert np.array_equal(low_rank_filter(k4, LowRankConfig(gamma=0.25)).bits,
                              k4.bits)

        oracle = GinOracle(GinWeights.random(seed=0))
        bundle = generate_synthetic("erdos_renyi", 20, seed=4, n=12, p=0.3)
        graphs = [replace(g, label=oracle.classify(g))
                  for g in bundle.graphs]
        gammas = np.round(np.arange(0.05, 1.0 + 0.025, 0.05), 10)
        rows = defense_sweep(oracle, graphs, gammas)
        assert [r["gamma"] for r in rows] == sorted(r["gamma"] for r in rows)
        assert rows[-1]["gamma"] == 1.0
        assert rows[-1]["clean_accuracy"] == clean_accuracy(oracle, graphs)
        csv_text = rows_to_csv(rows)
        assert csv_text.splitlines()[0] == "gamma,clean_accuracy"
        assert len(csv_text.splitlines()) == len(gammas) + 1
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.0f}s"


# -- criterion 12: public corpus statistics (optional) -------------------


NCI1_DIR = Path(__file__).resolve().parent.parent / "data" / "NCI1"


def test_criterion_12_public_corpus_statistics():
    if not (NCI1_DIR / "NCI1_A.txt").exists():
        print("SKIP: criterion 12 - NCI1 files not present")
        pytest.skip("NCI1 dataset files not supplied")
    with criterion("criterion 12 - NCI1 corpus statistics"):
        bundle = load_tudataset(NCI1_DIR, "NCI1")
        assert len(bundle.graphs) == 4110
        assert abs(np.mean([g.n_nodes for g in bundle.graphs]) - 29.87) <= 0.01
        assert abs(np.mean([g.n_edges for g in bundle.graphs]) - 32.30) <= 0.01
