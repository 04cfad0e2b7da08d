"""Coarse-grained initial search for a misclassifying perturbation seed.

Components from the supernode / superlink decomposition are searched in
phases.  Every trial picks a side of its component, the slots that are
non-edges or the slots that are edges, and flips a random fraction of
that side: it only adds edges or only removes them.  A phase draws the
flip counts of all its trials first, two generator calls per component
(the fractions, then the sides), and sorts its trials by flip count.

Each phase then gallops over its sorted trials, submitting positions 0,
1, 3, 7, ..., 2^k - 1 and the last one, and bisects between the last
failed position and the first success, in the manner of OPT-attack's
boundary search (Cheng et al., ICLR 2019).  So a phase costs about
2 log2(n) queries for n trials, not one per trial below its success.
When labels grow monotonically with the flip count (every trial with at
least as many flips as an adversarial one is adversarial), the bisection
returns the phase's fewest-flip success; otherwise it returns an
adversarial trial that a fewer-flip one may precede.  Only when no
phase's gallop succeeds are the phases scanned in flip order, trial by
trial.  A trial's slots are drawn only when it is built, and each
submitted trial costs one oracle query unless the run's label memo
already holds its graph.
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
    skipped: int  # trials drawn (flip count drawn) but never submitted


def gallop_positions(n: int) -> list[int]:
    """Positions 0, 1, 3, 7, ..., 2^k - 1 below ``n >= 1``, then ``n - 1``."""
    positions = [(1 << k) - 1 for k in range(n.bit_length())]
    if positions[-1] != n - 1:
        positions.append(n - 1)
    return positions


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
    all its flip counts and orders its trials by (flips, draw index).  A
    trial is built when it is first needed, its slots drawn then as a
    uniform subset of its side.

    Per phase, the gallop's trials (``gallop_positions``) are built in
    position order and submitted in that order until one succeeds.  The
    bisection then builds and submits one trial at a time between the
    last failed position and the lowest success, and the lowest
    adversarial position it finds is the outcome; later phases are
    neither drawn nor submitted.  If no phase's gallop succeeds, each
    phase's remaining trials are submitted in flip order, phase by phase,
    and the first success is the outcome.  No trial is built or submitted
    twice.  ``skipped`` counts the drawn trials never submitted: the
    trials drawn less the queries and memo hits this call added to
    ``memo``, which may hold others from before.

    The trials perturb ``memo.graph``, and ``memo`` decides what counts as
    adversarial; a trial whose graph it already holds costs no query.

    With an oracle that has a batch label kernel, the gallop's trials go
    as one block (``LabelMemo.in_blocks``), and so do the scan's, up to
    ``BLOCK`` at a time: their labels not yet in the memo are computed in
    one call before any of them is submitted, and those never submitted
    are not counted.  A bisection trial depends on the labels before it,
    so it is never labelled ahead.  The gallop is built in full before it
    is submitted, so a trial's slots come from the same generator words
    with or without a batch kernel, and no outcome moves.

    Raises ``NoAdversarialFound`` after all phases.  ``BudgetExhausted``
    from the oracle passes through; a cap that stops the bisection leaves
    the fewest-flip success found so far in ``memo.best`` if it is within
    the budget.
    """
    graph = memo.graph
    rng = np.random.default_rng(rng_seed)
    drawn = 0
    # each submission that returns is one query or one memo hit
    asked = memo.total + memo.hits

    def build(n_flip: int, slots: np.ndarray):
        return graph.flip(rng.permutation(slots)[:n_flip])

    def outcome(candidate, kind: str) -> CgsOutcome:
        # 1.0 on the flipped slots: the trial's chosen slots
        theta = (candidate.bits ^ graph.bits).astype(float)
        return CgsOutcome(theta, kind, drawn - (memo.total + memo.hits - asked))

    galloped = []  # (kind, ordered trials, gallop positions) of each phase
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
        drawn += len(draws)
        # sorted() is stable: among equal flips the earlier draw goes first
        ordered = sorted(draws, key=lambda t: t[0])
        positions = gallop_positions(len(ordered))
        gallop = [build(*ordered[pos]) for pos in positions]
        failed = -1
        for pos, candidate in zip(positions, memo.in_blocks(gallop)):
            if memo.adversarial(candidate, "cgs"):
                found = candidate
                while pos - failed > 1:
                    mid = (failed + pos) // 2
                    trial = build(*ordered[mid])
                    if memo.adversarial(trial, "cgs"):
                        pos, found = mid, trial
                    else:
                        failed = mid
                return outcome(found, kind)
            failed = pos
        galloped.append((kind, ordered, set(positions)))

    for kind, ordered, positions in galloped:
        rest = [trial for pos, trial in enumerate(ordered) if pos not in positions]
        for candidate in memo.in_blocks(build(*trial) for trial in rest):
            if memo.adversarial(candidate, "cgs"):
                return outcome(candidate, kind)
    raise NoAdversarialFound(f"no adversarial graph after {drawn} trials across all phases")
