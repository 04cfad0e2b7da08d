"""Coarse-grained initial search for a misclassifying perturbation seed.

Components from the supernode / superlink decomposition are searched in
phases; every trial flips a random fraction of a component's slots and
costs one oracle query.  Across the whole run the success with the
fewest flipped slots is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted, NoAdversarialFound
from .graph import Graph, apply_perturbation
from .oracle import HardLabelOracle
from .partition import Partition, SuperComponent, enumerate_components


@dataclass
class CgsOutcome:
    theta0: np.ndarray  # 1.0 on flipped slots, 0 elsewhere
    found_in: str  # "supernode" | "superlink" | "whole_graph"
    flips: int
    queries_used: int


def coarse_grained_search(
    oracle: HardLabelOracle,
    graph: Graph,
    y0: int,
    partition: Partition,
    strategy: str = "I",
    trials_scale: int = 5,
    rng_seed: int = 0,
    predicate=None,
) -> CgsOutcome:
    """Find an initial direction whose perturbed graph changes the label.

    Per component with ``m`` slots and ``n_inc`` incident nodes,
    ``trials_scale * n_inc`` trials are run, each flipping
    ``max(1, round(s * m))`` random slots for ``s ~ U[0, 1]``.  A phase
    is always completed (the minimal-flip success is kept) but later
    phases are skipped once any success exists.

    ``predicate`` decides what counts as adversarial; the default is any
    label other than ``y0``.

    Raises ``NoAdversarialFound`` after all phases, or ``BudgetExhausted``
    (with the best partial success in its payload) if the oracle budget
    runs out mid-search.
    """
    if predicate is None:
        predicate = lambda label: label != y0
    rng = np.random.default_rng(rng_seed)
    components = enumerate_components(partition, strategy)

    best: CgsOutcome | None = None
    counter = [0]  # trials executed, exact even on budget exhaustion
    current_phase = None
    try:
        for comp in components:
            if comp.kind != current_phase:
                if best is not None:
                    break  # a success exists; later phases are larger spaces
                current_phase = comp.kind
            theta, flips = _search_component(
                oracle, graph, predicate, comp, trials_scale, rng, counter
            )
            if theta is not None and (best is None or flips < best.flips):
                best = CgsOutcome(theta, comp.kind, flips, 0)
    except BudgetExhausted as exc:
        if best is not None:
            best.queries_used = counter[0]
        raise BudgetExhausted(str(exc), partial=best) from exc

    if best is None:
        raise NoAdversarialFound(
            f"no adversarial graph after {counter[0]} trials across all phases"
        )
    best.queries_used = counter[0]
    return best


def _search_component(oracle, graph, predicate, comp: SuperComponent,
                      trials_scale, rng, counter):
    """Run all trials of one component; returns (theta|None, flips)."""
    m = comp.slots.size
    trials = trials_scale * comp.n_incident
    best_theta = None
    best_flips = None
    for _ in range(trials):
        s = rng.uniform(0.0, 1.0)
        n_flip = max(1, round(s * m))
        chosen = rng.choice(comp.slots, size=n_flip, replace=False)
        theta = np.zeros(graph.n_edge_slots)
        theta[chosen] = 1.0
        label = oracle.classify(apply_perturbation(graph, theta), "cgs")
        counter[0] += 1
        if predicate(label) and (best_flips is None or n_flip < best_flips):
            best_theta, best_flips = theta, n_flip
    return best_theta, best_flips
