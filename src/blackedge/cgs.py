"""Coarse-grained initial search for a misclassifying perturbation seed.

Components from the supernode / superlink decomposition are searched in
phases; every trial flips a random fraction of a component's slots.  A
phase draws the flip counts of all its trials first, one generator call
per component, then submits the trials in ascending flip order and
stops at the first success, which is the phase's fewest-flip success:
flip counts are drawn without regard to labels, so a trial with at
least as many flips cannot improve on it.  A trial's slots are drawn
only when it is submitted, so a trial that is never submitted costs no
slot draw.  Each submitted trial costs one oracle query, unless the run's
label memo already holds its graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import NoAdversarialFound
# trials are built with Graph.flip; the name stays bound here because
# perfbench/tracing.py wraps cgs.apply_perturbation by name
from .graph import Graph, apply_perturbation  # noqa: F401
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
    ``max(1, round(s * m))`` slots for ``s ~ U[0, 1]``; a component's
    flip counts come from one draw of its ``s``.  A phase (the
    consecutive components of one kind) draws all its flip counts, then
    submits its trials in order of (flips, draw index), drawing each
    trial's slots as a uniform subset of its component's when it is
    submitted.  The first success is the outcome and ends the search, so
    later phases are neither drawn nor submitted.  The outcome is the
    first trial in draw order with the fewest flips among the phase's
    successes.

    ``memo`` decides what counts as adversarial; a trial whose graph it
    already holds costs no query.

    Raises ``NoAdversarialFound`` after all phases.  ``BudgetExhausted``
    from the oracle passes through; the search holds no success then.
    """
    rng = np.random.default_rng(rng_seed)
    trials = 0
    for kind, phase in groupby(enumerate_components(partition, strategy), lambda c: c.kind):
        draws = []  # (flips, component slots), in draw order
        for comp in phase:
            # np.rint rounds half to even, as round() does
            s = rng.uniform(0.0, 1.0, trials_scale * comp.n_incident)
            flips = np.maximum(np.rint(s * comp.slots.size), 1).astype(int).tolist()
            draws.extend((n_flip, comp.slots) for n_flip in flips)
        # sorted() is stable: among equal flips the earlier draw goes first
        for rank, (n_flip, slots) in enumerate(sorted(draws, key=lambda t: t[0])):
            chosen = rng.permutation(slots)[:n_flip]
            if memo.adversarial(graph.flip(chosen), "cgs"):
                theta = np.zeros(graph.n_edge_slots)
                theta[chosen] = 1.0
                return CgsOutcome(theta, kind, n_flip, len(draws) - rank - 1)
        trials += len(draws)
    raise NoAdversarialFound(f"no adversarial graph after {trials} trials across all phases")
