"""Coarse-grained initial search for a misclassifying perturbation seed.

Components from the supernode / superlink decomposition are searched in
phases; every trial flips a random fraction of a component's slots.  A
phase draws all its trials first, then submits them in ascending flip
order and stops at the first success, which is the phase's fewest-flip
success: trials are drawn without regard to their labels, so a trial
with at least as many flips cannot improve on it.  Each submitted trial
costs one oracle query, unless the run's label memo already holds its
graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import NoAdversarialFound
from .graph import Graph, apply_perturbation
from .oracle import LabelMemo
from .partition import Partition, enumerate_components


@dataclass
class CgsOutcome:
    theta0: np.ndarray  # 1.0 on flipped slots, 0 elsewhere
    found_in: str  # "supernode" | "superlink" | "whole_graph"
    flips: int
    skipped: int  # trials of the successful phase never submitted


def coarse_grained_search(
    memo: LabelMemo,
    graph: Graph,
    partition: Partition,
    strategy: str = "I",
    trials_scale: int = 5,
    rng_seed: int = 0,
) -> CgsOutcome:
    """Find an initial direction whose perturbed graph changes the label.

    Per component with ``m`` slots and ``n_inc`` incident nodes,
    ``trials_scale * n_inc`` trials are drawn, each flipping
    ``max(1, round(s * m))`` random slots for ``s ~ U[0, 1]``.  A phase
    (the consecutive components of one kind) is drawn in full, then
    submitted in order of (flips, draw index); the first success is the
    outcome and ends the search, so later phases are neither drawn nor
    submitted.  The outcome is the first trial in draw order with the
    fewest flips among the phase's successes.

    ``memo`` decides what counts as adversarial; a trial whose graph it
    already holds costs no query.

    Raises ``NoAdversarialFound`` after all phases.  ``BudgetExhausted``
    from the oracle passes through; the search holds no success then.
    """
    rng = np.random.default_rng(rng_seed)
    d = graph.n_edge_slots
    trials = 0
    for kind, phase in groupby(enumerate_components(partition, strategy), lambda c: c.kind):
        draws = []  # (flips, slots), in draw order
        for comp in phase:
            m = comp.slots.size
            for _ in range(trials_scale * comp.n_incident):
                n_flip = max(1, round(rng.uniform(0.0, 1.0) * m))
                draws.append((n_flip, rng.choice(comp.slots, size=n_flip, replace=False)))
        # sorted() is stable: among equal flips the earlier draw goes first
        for rank, (n_flip, chosen) in enumerate(sorted(draws, key=lambda t: t[0])):
            theta = np.zeros(d)
            theta[chosen] = 1.0
            if memo.adversarial(apply_perturbation(graph, theta), "cgs"):
                return CgsOutcome(theta, kind, n_flip, len(draws) - rank - 1)
        trials += len(draws)
    raise NoAdversarialFound(f"no adversarial graph after {trials} trials across all phases")
