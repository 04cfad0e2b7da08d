"""Boundary-distance optimization core of the attack.

The continuous relaxation scores a search direction by the distance from
the target graph to the decision boundary along it.  The objective is
the clipped mass of the boundary vector above the flip threshold; its
gradient signs are obtained with one oracle query per probe direction
and averaged into a sign-SGD update.  Every step asks the run's label
memo whether a graph is adversarial; a graph already queried in the run
is answered there at no query.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExhausted,
    ConfigError,
    DegenerateTarget,
    NoAdversarialFound,
    NoBoundary,
    ZeroVector,
)
from .graph import (
    FLIP_THRESHOLD,
    Graph,
    apply_perturbation,
    flip_ledger,
    normalize,
    perturbation_rate,
)
from .oracle import HardLabelOracle, LabelMemo
from .partition import STRATEGIES


@dataclass
class AttackConfig:
    """Knobs of the sign-SGD attack loop.

    ``learning_rate=None`` selects the default 1/sqrt(d) for slot
    dimension d.  ``target_label=None`` runs the untargeted attack;
    setting it demands that exact label instead of any label change.
    ``max_queries`` caps the queries of one ``attack_graph`` run.
    """

    budget: float = 0.2
    iterations: int = 200
    directions_per_step: int = 100
    smoothing: float = 0.1
    learning_rate: float | None = None
    epsilon: float = 1e-3
    max_queries: int | None = None
    target_label: int | None = None
    seed: int = 0
    early_stop_patience: int = 10
    early_stop_tol: float = 1e-6
    strategy: str = "I"
    trials_scale: int = 5

    def __post_init__(self):
        if self.directions_per_step < 1:
            raise ConfigError(
                f"directions_per_step must be at least 1, got {self.directions_per_step}")
        if not self.epsilon > 0.0:  # also rejects NaN
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.budget <= 1.0:
            raise ConfigError(f"budget must be in (0, 1], got {self.budget}")
        if self.iterations < 0:
            raise ConfigError(f"iterations must be non-negative, got {self.iterations}")
        if self.max_queries is not None and self.max_queries < 1:
            raise ConfigError(f"max_queries must be at least 1, got {self.max_queries}")
        # a probe radius or step that is not positive and finite leaves the
        # direction where it is, or moves it up the objective
        if not 0.0 < self.smoothing < math.inf:
            raise ConfigError(f"smoothing must be positive and finite, got {self.smoothing}")
        if self.learning_rate is not None and not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.trials_scale < 1:
            raise ConfigError(f"trials_scale must be at least 1, got {self.trials_scale}")

    def predicate(self, y0: int):
        if self.target_label is None:
            return lambda label: label != y0
        target = self.target_label
        return lambda label: label == target


@dataclass
class AttackResult:
    success: bool
    adversarial_graph: Graph
    added: list = field(default_factory=list)
    removed: list = field(default_factory=list)
    rate: float = 0.0
    queries: dict = field(default_factory=dict)
    wall_time: float = 0.0
    gradient_norm_trace: list = field(default_factory=list)
    p_trace: list = field(default_factory=list)
    found_in: str | None = None
    failure_reason: str | None = None
    # submissions answered by the run's label memo; queries["total"] + memo_hits
    # is the number of graphs the run submitted
    memo_hits: int = 0
    # graphs drawn but never submitted: coarse-search trials ordered after
    # its success, or random-baseline draws after its success or the cap
    skipped: int = 0

    @property
    def flips(self) -> int:
        return len(self.added) + len(self.removed)

    @classmethod
    def of_run(cls, memo: LabelMemo, graph: Graph, adversarial: Graph | None,
               start: float, **fields) -> "AttackResult":
        """The result of a run on ``graph`` that began at ``start``: a success
        iff ``adversarial`` is a graph.  Queries and memo hits are read from
        ``memo``; ``fields`` sets the rest."""
        if adversarial is None:
            added, removed, rate = [], [], 0.0
        else:
            added, removed = flip_ledger(graph, adversarial)
            rate = perturbation_rate(graph, adversarial)
        return cls(
            success=adversarial is not None,
            adversarial_graph=graph if adversarial is None else adversarial,
            added=added,
            removed=removed,
            rate=rate,
            queries=memo.oracle.ledger.snapshot(),
            wall_time=time.perf_counter() - start,
            memo_hits=memo.hits,
            **fields,
        )


def boundary_distance(
    memo: LabelMemo,
    graph: Graph,
    theta,
    epsilon: float = 1e-3,
    lambda_hint: float = 1.0,
) -> float:
    """Minimal scale (within ``epsilon``) at which the direction crosses
    the decision boundary.

    The upper bracket grows by doubling from ``lambda_hint`` and is
    capped at the saturation scale beyond which every positive component
    already exceeds the flip threshold; no label change by then means no
    boundary exists along this direction.  Every probe is one query unless
    ``memo`` already holds its graph.
    """
    theta_norm = normalize(theta)
    positive = theta_norm[theta_norm > 0]
    if positive.size == 0:
        raise NoBoundary("direction has no positive component; no edge can flip")
    saturation = FLIP_THRESHOLD / float(positive.min())
    cap = max(np.sqrt(theta_norm.size), saturation) * (1.0 + 1e-9)

    def adversarial(lam: float) -> bool:
        return memo.adversarial(apply_perturbation(graph, lam * theta_norm), "binary_search")

    hi = min(max(lambda_hint, epsilon), cap)
    while not adversarial(hi):
        if hi >= cap:
            raise NoBoundary("no label change up to the saturation scale")
        hi = min(hi * 2.0, cap)
    lo = 0.0
    while hi - lo > epsilon:
        mid = 0.5 * (lo + hi)
        if adversarial(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _clipped_mass(ghat) -> float:
    """Sum of each component's excess over the flip threshold, capped at 1.

    ``np.minimum(np.maximum(...))`` and ``np.add.reduce`` give the same
    values as ``np.clip(...).sum()`` at about half its per-call cost, which
    dominates at these sizes.
    """
    return float(np.add.reduce(np.minimum(np.maximum(ghat - FLIP_THRESHOLD, 0.0), 1.0)))


def objective_p(theta, g: float) -> float:
    """Clipped mass of the boundary vector above the flip threshold.

    Pure arithmetic; costs zero queries.
    """
    return _clipped_mass(g * normalize(theta))


# solve_g_star walks the breakpoints of at most this many of the largest
# components; a target further out sorts all the breakpoints instead.
WALK_COMPONENTS = 32
_TURN_ON_OFF = np.array([[FLIP_THRESHOLD], [FLIP_THRESHOLD + 1.0]])
_SLOPE_SIGN = np.array([[1.0], [-1.0]])


def _walk_breakpoints(desc: np.ndarray, p_old: float):
    """The breakpoints in ascending order up to the first whose running mass
    reaches ``p_old``, and its index; None if ``p_old`` lies beyond the
    turn-on of the j-th largest component, j = ``WALK_COMPONENTS``.

    ``desc`` holds the positive components in descending order.  A
    component ``s`` turns its slope on at ``FLIP_THRESHOLD / s`` and off at
    ``(FLIP_THRESHOLD + 1) / s``.  Up to the turn-on of the j-th largest,
    only the j largest have breakpoints, and each adds at most 1 to the
    mass.  The walk merges their turn-ons and turn-offs, turn-on first on a
    tie, and keeps the running mass: the slope times each segment's length,
    summed along the walk.  Where that falls short of the clipped mass by
    rounding, the walk ends at the j-th turn-on.
    """
    j = WALK_COMPONENTS
    if p_old > j:
        return None
    k = desc.size
    if k > j:
        # the mass at the j-th turn-on g = T / s_j, as the sum over the j
        # largest of min(g * s - T, 1) = g * min(s, (T + 1) / g) - T
        s_j = float(desc[j - 1])
        g_j = FLIP_THRESHOLD / s_j
        capped = np.add.reduce(np.minimum(desc[:j], (FLIP_THRESHOLD + 1.0) / g_j))
        if p_old > g_j * float(capped) - FLIP_THRESHOLD * j:
            return None
    comps = desc[:j].tolist()
    n = len(comps)
    on = off = 0
    g_on = FLIP_THRESHOLD / comps[0]
    g_off = (FLIP_THRESHOLD + 1.0) / comps[0]
    events = []
    g, slope, mass = g_on, 0.0, 0.0
    while True:
        if on < n and g_on <= g_off:
            mass += slope * (g_on - g)
            g = g_on
            slope += comps[on]
            on += 1
            if on < n:
                g_on = FLIP_THRESHOLD / comps[on]
        else:
            mass += slope * (g_off - g)
            g = g_off
            slope -= comps[off]
            off += 1
            if off < n:
                g_off = (FLIP_THRESHOLD + 1.0) / comps[off]
        events.append(g)
        # past the last turn-on of ``comps``, smaller components break too
        if mass >= p_old or off == n or (on == n and n < k):
            return events, len(events) - 1


def _sorted_breakpoints(desc: np.ndarray, p_old: float):
    """All breakpoints, sorted, and the index of the first whose running mass
    reaches ``p_old``; ``desc`` holds the positive components in descending
    order."""
    # the turn-ons, then the turn-offs: two ascending runs, which the stable
    # sort merges, turn-ons first on a tie
    breaks = np.divide(_TURN_ON_OFF, desc).ravel()
    order = np.argsort(breaks, kind="stable")
    events = breaks[order]
    slope = np.multiply(_SLOPE_SIGN, desc).ravel()[order]  # the change at each breakpoint
    np.cumsum(slope, out=slope)
    mass = events[1:] - events[:-1]
    np.multiply(slope[:-1], mass, out=mass)
    np.cumsum(mass, out=mass)  # the running mass at events[1:]; it is 0 at events[0]
    return events, 1 + int(np.searchsorted(mass, p_old, side="left"))


def solve_g_star(theta_new, p_old: float) -> float:
    """Invert the objective along a new direction: the unique scale whose
    boundary vector has clipped mass ``p_old``.

    The objective as a function of the scale is piecewise linear and
    non-decreasing, with breakpoints where a component crosses the flip
    threshold (slope turns on) or its clip cap (slope turns off); the
    containing segment is inverted analytically.  Zero queries.

    The segment is located from a running slope over the breakpoints in
    ascending order.  The attack's targets are small, so the breakpoints of
    the largest components are walked one by one until the running mass
    reaches ``p_old``; a target beyond the turn-on of the
    ``WALK_COMPONENTS``-th largest sorts all the breakpoints instead.  The
    running mass can differ from the clipped mass in the last bits, so the
    index is then moved until the clipped mass itself brackets ``p_old``;
    the result does not depend on the rounding of the running mass, nor on
    how the segment was located.
    """
    theta_norm = normalize(theta_new)
    positive = theta_norm[theta_norm > 0]
    k = positive.size
    p_max = float(k)  # each component's contribution caps at 1
    if not 0.0 < p_old < p_max:  # also rejects NaN and an empty ``positive``
        raise DegenerateTarget(
            f"target objective {p_old} outside the invertible range (0, {p_max})"
        )
    desc = np.sort(positive)[::-1]
    located = _walk_breakpoints(desc, p_old)
    if located is None:
        located = _sorted_breakpoints(desc, p_old)
    events, idx = located
    p_at = lambda g: _clipped_mass(g * positive)
    # p0 and p1 keep the last masses evaluated at events[idx - 1] and events[idx]
    while idx > 0:
        p0 = p_at(events[idx - 1])
        if p0 < p_old:
            break
        idx -= 1
    while idx < 2 * k:
        if idx == len(events):  # a walk's events end where it stopped
            events, _ = _sorted_breakpoints(desc, p_old)
        p1 = p_at(events[idx])
        if p1 >= p_old:
            break
        p0 = p1
        idx += 1
    # now p0 = p(events[idx - 1]) < p_old <= p(events[idx]) = p1
    if idx == 0:
        # p_old <= p(first breakpoint) = 0, excluded above
        raise DegenerateTarget("objective target below the first breakpoint")
    if idx == 2 * k:
        raise DegenerateTarget("objective target above the saturation plateau")
    g0, g1 = events[idx - 1], events[idx]
    return float(g0 + (p_old - p0) * (g1 - g0) / (p1 - p0))


def qegc_sign(memo: LabelMemo, graph: Graph, p_old: float, theta_new) -> int:
    """Sign of the objective change toward a new direction, in one query.

    The scale whose objective equals ``p_old`` along the new direction is
    found analytically; if the graph there is already misclassified the
    boundary moved closer (sign -1), otherwise it moved away (sign +1).
    A probe graph already in ``memo`` costs no query.
    """
    theta_norm = normalize(theta_new)
    g_star = solve_g_star(theta_norm, p_old)
    probe = apply_perturbation(graph, g_star * theta_norm)
    return -1 if memo.adversarial(probe, "qegc") else +1


def estimate_gradient(
    memo: LabelMemo,
    graph: Graph,
    theta,
    p_t: float,
    q_directions: int,
    mu: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Average of elementwise gradient signs over random probe directions.

    Each probe direction costs one query, none if its graph is already in
    ``memo``; degenerate probes are re-drawn up to 3 times, then skipped
    (contributing zero).

    When ``p_t`` is not positive (or NaN), ``solve_g_star`` rejects every
    probe whatever its direction, so all 4 draws of every probe are made
    at once and the step is zero, without a call per draw.
    """
    d = np.asarray(theta).shape[0]
    if not p_t > 0.0:
        # standard_normal((k, d)) consumes the stream of k draws of size d
        rng.standard_normal((4 * q_directions, d))
        return np.zeros(d)
    signs = []
    dirs = []
    for _ in range(q_directions):
        for _attempt in range(4):
            u = rng.standard_normal(d)
            norm = math.sqrt(u.dot(u))  # what np.linalg.norm computes
            if norm == 0.0:
                continue
            u = u / norm
            try:
                s = qegc_sign(memo, graph, p_t, theta + mu * u)
            except (DegenerateTarget, ZeroVector):
                continue
            signs.append(s)
            dirs.append(u)
            break
    if not signs:
        return np.zeros(d)
    # sums of +-1 terms are exact in any order
    return (np.array(signs, dtype=float) @ np.sign(dirs)) / q_directions


def sign_sgd_attack(
    memo: LabelMemo,
    graph: Graph,
    cfg: AttackConfig,
    theta0: np.ndarray,
    found_in: str | None = None,
) -> AttackResult:
    """Descend the boundary objective from an adversarial seed direction.

    Per iteration: one binary search for the boundary distance of the
    current iterate, then one query per probe direction for the gradient
    signs, then a sign-SGD step.  The returned adversarial graph is the
    last accepted boundary point, so success only needs the budget check
    plus one final verification query.  If the query cap stops the run,
    the current candidate is returned instead, at no extra query, when a
    query of the run found it adversarial (``memo.verified``) and it is
    within the budget: the last boundary point, or the seed graph of
    ``theta0`` before the first boundary search.  A seed the run never queried is not returned.

    Graphs already in ``memo`` are not queried again; the final
    verification is always a counted query of ``memo.oracle``.
    """
    start = time.perf_counter()
    d = graph.n_edge_slots
    eta = cfg.learning_rate if cfg.learning_rate is not None else 1.0 / np.sqrt(d)
    rng = np.random.default_rng(cfg.seed)

    candidate = apply_perturbation(graph, theta0)  # the seed graph, for T = 0
    # The objective depends only on the direction; keeping the iterate at
    # unit norm makes the step size and smoothing radius scale-free.
    theta = normalize(np.asarray(theta0, dtype=float))
    p_trace: list[float] = []
    grad_trace: list[float] = []
    lambda_hint = 1.0
    stagnant = 0

    def result(adversarial, reason=None):
        return AttackResult.of_run(memo, graph, adversarial, start,
                                   gradient_norm_trace=grad_trace, p_trace=p_trace,
                                   found_in=found_in, failure_reason=reason)

    def query_capped(exc):
        if memo.verified(candidate) and perturbation_rate(graph, candidate) <= cfg.budget:
            return result(candidate)
        return result(None, f"budget exhausted: {exc}")

    try:
        for _t in range(cfg.iterations):
            g_t = boundary_distance(memo, graph, theta, cfg.epsilon, lambda_hint)
            lambda_hint = g_t
            candidate = apply_perturbation(graph, g_t * normalize(theta))
            p_t = objective_p(theta, g_t)
            grad = estimate_gradient(
                memo, graph, theta, p_t, cfg.directions_per_step, cfg.smoothing, rng
            )
            p_trace.append(p_t)
            grad_trace.append(float(np.linalg.norm(grad)))
            theta = normalize(theta - eta * grad)
            if len(p_trace) >= 2 and abs(p_trace[-1] - p_trace[-2]) < cfg.early_stop_tol:
                stagnant += 1
                if stagnant >= cfg.early_stop_patience:
                    break
            else:
                stagnant = 0
    except NoBoundary as exc:
        return result(None, f"no boundary: {exc}")
    except BudgetExhausted as exc:
        return query_capped(exc)

    rate = perturbation_rate(graph, candidate)
    try:
        # a counted re-verification, never answered from the memo
        final_label = memo.oracle.classify(candidate)
    except BudgetExhausted as exc:
        return query_capped(exc)
    if memo.predicate(final_label) and rate <= cfg.budget:
        return result(candidate)
    reason = "perturbation rate exceeds budget" if rate > cfg.budget else \
        "final candidate not misclassified"
    return result(None, reason)


def attack_graph(
    oracle: HardLabelOracle,
    graph: Graph,
    y0: int,
    cfg: AttackConfig,
) -> AttackResult:
    """Full pipeline for one target: partition, coarse search, sign-SGD.

    ``cfg.max_queries`` becomes the cap of ``oracle.ledger``, which keeps
    counting for the caller.  The coarse search ends at its first success,
    so a cap that stops it leaves no adversarial graph; a cap that stops
    the descent before its first boundary search returns the seed (see
    ``sign_sgd_attack``).

    One label memo, bound to ``oracle`` and the run's predicate, answers
    every step of the run and is dropped with it: each distinct graph
    costs one query, and ``memo_hits`` counts the repeats.
    """
    from .cgs import coarse_grained_search
    from .partition import louvain

    start = time.perf_counter()
    oracle.ledger.max_queries = cfg.max_queries
    memo = LabelMemo(oracle, cfg.predicate(y0))
    partition = louvain(graph, seed=cfg.seed)
    try:
        seed = coarse_grained_search(memo, graph, partition, cfg.strategy,
                                     cfg.trials_scale, cfg.seed)
    except (NoAdversarialFound, BudgetExhausted) as exc:
        return AttackResult.of_run(memo, graph, None, start,
                                   failure_reason=f"initial search failed: {exc}")
    res = sign_sgd_attack(memo, graph, cfg, seed.theta0, seed.found_in)
    res.skipped = seed.skipped
    res.wall_time = time.perf_counter() - start
    return res
