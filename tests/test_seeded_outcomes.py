"""Seeded end-to-end outcomes, pinned to recorded values.

``run_experiment`` attacks a few small seeded graphs under three label
rules: edge count, and a hashed 8-class labelling, untargeted and
targeted.  Each rule is attacked by sign-SGD and by the random baseline,
each uncapped and under a query cap.  Every run must reproduce the values
recorded in ``seeded_outcomes.json``: success, the adversarial graph's
bits, the edges added and removed, the rate, the per-phase queries, memo
hits, skipped draws, where the seed was found, why the run stopped, and
both traces, float for float.

A change that keeps behaviour leaves the recording as it is.  A change
meant to alter outcomes re-records it with
``PYTHONPATH=src python tests/test_seeded_outcomes.py`` and says why;
the re-record prints, per key, how many runs changed, the success rate,
flips per success and total queries, and the count of each stop reason,
before and after.
No GIN here: its float matmuls depend on the BLAS build.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from blackedge import harness
from blackedge.attack import STOP_REASONS, AttackConfig
from blackedge.datasets import erdos_renyi
from blackedge.oracle import FunctionOracle, structural_oracle

from helpers import hashed_label

EXPECTED = Path(__file__).with_name("seeded_outcomes.json")

GRAPHS = [erdos_renyi(n, 0.2, np.random.default_rng(100 + n)) for n in range(9, 22)]
EDGE_THRESHOLD = 20  # below and above the graphs' edge counts: both directions
ORACLES = {
    "edge_count": lambda: structural_oracle("edge_count", EDGE_THRESHOLD),
    "hashed": lambda: FunctionOracle(hashed_label),
}
RULES = [("edge_count", None), ("hashed", None), ("hashed", 3)]  # (oracle, target label)
CFG = AttackConfig(budget=0.2, iterations=12, directions_per_step=10, seed=1)
RANDOM_QUERY_BUDGET = 300
CAP = 150


def _index(graph) -> int:
    return next(i for i, g in enumerate(GRAPHS) if g is graph)


def _outcome(idx, res) -> dict:
    return {
        "id": idx,
        "success": res.success,
        "bits": np.packbits(res.adversarial_graph.bits).tobytes().hex(),
        "added": [list(e) for e in res.added],
        "removed": [list(e) for e in res.removed],
        "rate": res.rate,
        "queries": res.queries,
        "memo_hits": res.memo_hits,
        "skipped": res.skipped,
        "found_in": res.found_in,
        "stop_reason": res.stop_reason,
        "p_trace": res.p_trace,
        "gradient_norm_trace": res.gradient_norm_trace,
    }


def collect() -> dict:
    """Every run's outcome, keyed by oracle, target, method and cap."""
    outcomes = {}
    attack_graph, random_attack = harness.attack_graph, harness.random_attack
    try:
        for oracle_name, target in RULES:
            for method in ("signsgd", "random"):
                for cap in (None, CAP):
                    runs = []

                    def recording(attack):
                        def run(oracle, graph, *args, **kwargs):
                            res = attack(oracle, graph, *args, **kwargs)
                            runs.append(_outcome(_index(graph), res))
                            return res
                        return run

                    harness.attack_graph = recording(attack_graph)
                    harness.random_attack = recording(random_attack)
                    cfg = replace(CFG, target_label=target, max_queries=cap)
                    harness.run_experiment(ORACLES[oracle_name](), GRAPHS, cfg, method,
                                           random_query_budget=RANDOM_QUERY_BUDGET)
                    outcomes[f"{oracle_name}/{target}/{method}/{cap}"] = runs
    finally:
        harness.attack_graph, harness.random_attack = attack_graph, random_attack
    return outcomes


def test_seeded_outcomes_match_the_recording():
    # through JSON, so the comparison sees exactly what the recording holds
    got = json.loads(json.dumps(collect()))
    expected = json.loads(EXPECTED.read_text())
    assert got.keys() == expected.keys()
    for key in expected:
        assert len(got[key]) == len(expected[key]), key
        for run, want in zip(got[key], expected[key]):
            assert run == want, f"{key}, graph {want['id']}"


def test_the_recording_covers_each_exit():
    runs = [run for rows in json.loads(EXPECTED.read_text()).values() for run in rows]
    # every stop reason but rate_budget: a budget of 0.2 allows a flip on
    # every graph here
    assert {run["stop_reason"] for run in runs} == set(STOP_REASONS) - {"rate_budget"}
    assert {run["success"] for run in runs} == {True, False}
    # a descent that lost the boundary returns the graph its memo kept
    assert any(run["success"] and run["stop_reason"] == "no_boundary" for run in runs)
    assert any(run["memo_hits"] for run in runs)
    assert any(run["skipped"] for run in runs)


def _summary(runs) -> str:
    """Success rate, mean flips per success and total queries of ``runs``."""
    flips = [len(run["added"]) + len(run["removed"]) for run in runs if run["success"]]
    sr = len(flips) / len(runs) if runs else float("nan")
    ap = np.mean(flips) if flips else float("nan")
    return f"SR {sr:.3f}, AP {ap:.2f}, queries {sum(run['queries']['total'] for run in runs)}"


def _stop_reasons(runs) -> str:
    """The count of each stop reason among ``runs``, in ``STOP_REASONS`` order."""
    counts = [(reason, sum(run.get("stop_reason") == reason for run in runs))
              for reason in STOP_REASONS]
    return ", ".join(f"{reason} {n}" for reason, n in counts if n) or "none"


if __name__ == "__main__":
    old = json.loads(EXPECTED.read_text())
    new = json.loads(json.dumps(collect()))
    for key, runs in new.items():
        before = old.get(key, [])
        changed = sum(run != was for run, was in zip(runs, before)) + abs(len(runs) - len(before))
        print(f"{key}: {changed} of {len(runs)} runs changed; "
              f"{_summary(before)} -> {_summary(runs)}")
        print(f"    stop reasons: {_stop_reasons(before)} -> {_stop_reasons(runs)}")
    EXPECTED.write_text(json.dumps(new, indent=1) + "\n")
