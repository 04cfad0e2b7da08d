"""Correctness gate applied to every attacked target.

The gate spends no attack queries: each reported success is re-verified
on a fresh ``oracle.clone()``, whose ledger is thrown away.
"""

from __future__ import annotations

from blackedge.attack import AttackResult
from blackedge.graph import Graph, flip_ledger, perturbation_rate

from workloads import Workload


def check_target(workload: Workload, graph: Graph, y0: int, row: dict,
                 result: AttackResult) -> list[str]:
    """Problems with one target's reported outcome; empty when it holds up."""
    problems = []
    queries = row["queries"]
    phase_sum = sum(v for k, v in queries.items() if k != "total")
    if phase_sum != queries["total"]:
        problems.append(f"phase counts sum to {phase_sum}, total is {queries['total']}")
    if row["success"] != result.success:
        problems.append("report row and attack result disagree on success")
    if not result.success:
        return problems
    adv = result.adversarial_graph
    added, removed = flip_ledger(graph, adv)
    flips = len(added) + len(removed)
    if (row["flips_added"], row["flips_removed"]) != (len(added), len(removed)):
        problems.append("reported flips differ from the adversarial graph")
    rate = perturbation_rate(graph, adv)
    if rate != row["rate"]:
        problems.append(f"reported rate {row['rate']} differs from {rate}")
    if rate > workload.cfg.budget:
        problems.append(f"rate {rate:.4f} exceeds the budget {workload.cfg.budget}")
    label = workload.oracle.clone().classify(adv)
    if not workload.cfg.predicate(y0)(label):
        problems.append(f"reported success keeps label {label}")
    if workload.optimum is not None and flips < workload.optimum(graph, y0):
        problems.append(f"{flips} flips beat the analytic optimum "
                        f"{workload.optimum(graph, y0)}")
    return problems
