"""Coarse-grained initial search for a misclassifying perturbation seed.

Components from the supernode / superlink decomposition are searched in
phases.  Every trial picks a side of its component, the slots that are
non-edges or the slots that are edges, and flips a random fraction of
that side: it only adds edges or only removes them.  A phase draws the
flip counts of all its trials first, two generator calls per component
(the fractions, then the sides), then submits the trials in ascending
flip order and stops at the first success, which is the phase's
fewest-flip success: flip counts are drawn without regard to labels, so
a trial with at least as many flips cannot improve on it.  A trial's
slots are drawn only when it is submitted (or its block is labelled
ahead, see ``coarse_grained_search``).  Each submitted trial costs one
oracle query, unless the run's label memo already holds its graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import NoAdversarialFound
# trials are built with Graph.flip; the name stays bound here because
# perfbench/tracing.py wraps cgs.apply_perturbation by name
from .graph import apply_perturbation  # noqa: F401
from .oracle import LabelMemo
from .partition import Partition, enumerate_components

# trials per incident node of a component
TRIALS_SCALE = 5


@dataclass
class CgsOutcome:
    theta0: np.ndarray  # 1.0 on flipped slots, 0 elsewhere
    found_in: str  # "supernode" | "superlink" | "whole_graph"
    skipped: int  # trials of the successful phase never submitted


def coarse_grained_search(
    memo: LabelMemo,
    partition: Partition,
    strategy: str = "I",
    rng_seed: int = 0,
) -> CgsOutcome:
    """Find an initial direction whose perturbed graph changes the label.

    A component's slots split once into two sides, its non-edges and its
    edges in ``memo.graph``; a side with no slots falls back to all the
    component's slots.  Per component with ``n_inc`` incident nodes,
    ``TRIALS_SCALE * n_inc`` trials are drawn, each with ``s ~ U[0, 1]``
    and a side, non-edges or edges with probability 1/2 each, flipping
    ``max(1, round(s * m_side))`` of the ``m_side`` slots on its side; a
    component's flip counts come from one draw of its ``s``, then one of
    its sides.  A phase (the consecutive components of one kind) draws
    all its flip counts, then submits its trials in order of (flips, draw
    index), drawing each trial's slots as a uniform subset of its side
    when it is submitted.  The first success is the outcome and ends the
    search, so later phases are neither drawn nor submitted.  The outcome is the
    first trial in draw order with the fewest flips among the phase's
    successes.

    The trials perturb ``memo.graph``, and ``memo`` decides what counts as
    adversarial; a trial whose graph it already holds costs no query.

    With an oracle that has a batch label kernel, a phase's trials go in
    blocks (``LabelMemo.in_blocks``): a block's slots are drawn and the
    labels of its graphs not yet in the memo computed in one call before
    any of them is submitted.  So at most one block past the success has
    its slots drawn and its labels computed; none of it is submitted or
    counted.  The generator is local to the call, so no outcome moves.

    Raises ``NoAdversarialFound`` after all phases.  ``BudgetExhausted``
    from the oracle passes through; the search holds no success then.
    """
    graph = memo.graph
    rng = np.random.default_rng(rng_seed)
    trials = 0
    for kind, phase in groupby(enumerate_components(partition, strategy), lambda c: c.kind):
        draws = []  # (flips, side slots), in draw order
        for comp in phase:
            n_trials = TRIALS_SCALE * comp.n_incident
            s = rng.uniform(0.0, 1.0, n_trials)
            side = rng.integers(0, 2, n_trials)  # the bit a trial flips: 0 adds, 1 removes
            bits = graph.bits[comp.slots]
            # a side without slots (a clique has no non-edges) is the whole component
            sides = [comp.slots[bits == b] for b in (0, 1)]
            sides = [slots if slots.size else comp.slots for slots in sides]
            sizes = np.array([slots.size for slots in sides])
            # np.rint rounds half to even, as round() does
            flips = np.maximum(np.rint(s * sizes[side]), 1).astype(int).tolist()
            draws.extend((n_flip, sides[b]) for n_flip, b in zip(flips, side.tolist()))
        # sorted() is stable: among equal flips the earlier draw goes first
        ordered = sorted(draws, key=lambda t: t[0])
        candidates = (graph.flip(rng.permutation(slots)[:n_flip]) for n_flip, slots in ordered)
        for rank, candidate in enumerate(memo.in_blocks(candidates)):
            if memo.adversarial(candidate, "cgs"):
                # 1.0 on the flipped slots: the trial's chosen slots
                theta = (candidate.bits ^ graph.bits).astype(float)
                return CgsOutcome(theta, kind, len(draws) - rank - 1)
        trials += len(draws)
    raise NoAdversarialFound(f"no adversarial graph after {trials} trials across all phases")
