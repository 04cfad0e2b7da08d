"""Boundary-distance optimization core of the attack.

The continuous relaxation scores a search direction by the distance from
the target graph to the decision boundary along it.  The objective is
the clipped mass of the boundary vector above the flip threshold; its
gradient signs are obtained with one oracle query per probe direction
and averaged into a sign-SGD update.
"""

from __future__ import annotations

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
from .oracle import HardLabelOracle


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

    @property
    def flips(self) -> int:
        return len(self.added) + len(self.removed)


def boundary_distance(
    oracle: HardLabelOracle,
    graph: Graph,
    y0: int,
    theta,
    epsilon: float = 1e-3,
    lambda_hint: float = 1.0,
    predicate=None,
) -> float:
    """Minimal scale (within ``epsilon``) at which the direction crosses
    the decision boundary.

    The upper bracket grows by doubling from ``lambda_hint`` and is
    capped at the saturation scale beyond which every positive component
    already exceeds the flip threshold; no label change by then means no
    boundary exists along this direction.  Every probe is one query.
    """
    if predicate is None:
        predicate = lambda label: label != y0
    theta_norm = normalize(theta)
    positive = theta_norm[theta_norm > 0]
    if positive.size == 0:
        raise NoBoundary("direction has no positive component; no edge can flip")
    saturation = FLIP_THRESHOLD / float(positive.min())
    cap = max(np.sqrt(theta_norm.size), saturation) * (1.0 + 1e-9)

    def adversarial(lam: float) -> bool:
        label = oracle.classify(apply_perturbation(graph, lam * theta_norm), "binary_search")
        return predicate(label)

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


def solve_g_star(theta_new, p_old: float) -> float:
    """Invert the objective along a new direction: the unique scale whose
    boundary vector has clipped mass ``p_old``.

    The objective as a function of the scale is piecewise linear and
    non-decreasing, with breakpoints where a component crosses the flip
    threshold (slope turns on) or its clip cap (slope turns off); the
    containing segment is inverted analytically.  Zero queries.

    The segment is located in O(d log d) from the sorted breakpoints and a
    running slope.  That running sum can differ from the clipped mass in
    the last bits, so the index is then moved until the clipped mass
    itself brackets ``p_old``; the result does not depend on the rounding
    of the running sum.
    """
    theta_norm = normalize(theta_new)
    positive = theta_norm[theta_norm > 0]
    p_max = float(positive.size)  # each component's contribution caps at 1
    if not 0.0 < p_old < p_max:  # also rejects NaN and an empty ``positive``
        raise DegenerateTarget(
            f"target objective {p_old} outside the invertible range (0, {p_max})"
        )
    breaks = np.concatenate([FLIP_THRESHOLD / positive, (FLIP_THRESHOLD + 1.0) / positive])
    order = np.argsort(breaks)
    events = breaks[order]
    slope = np.cumsum(np.concatenate([positive, -positive])[order])
    p_approx = np.concatenate([[0.0], np.cumsum(slope[:-1] * np.diff(events))])
    p_at = lambda g: _clipped_mass(g * positive)
    idx = int(np.searchsorted(p_approx, p_old, side="left"))
    while idx > 0 and p_at(events[idx - 1]) >= p_old:
        idx -= 1
    while idx < events.size and p_at(events[idx]) < p_old:
        idx += 1
    # now p(events[idx - 1]) < p_old <= p(events[idx]), so p0 < p1 below
    if idx == 0:
        # p_old <= p(first breakpoint) = 0, excluded above
        raise DegenerateTarget("objective target below the first breakpoint")
    if idx == events.size:
        raise DegenerateTarget("objective target above the saturation plateau")
    g0, g1 = events[idx - 1], events[idx]
    p0, p1 = p_at(g0), p_at(g1)
    return float(g0 + (p_old - p0) * (g1 - g0) / (p1 - p0))


def qegc_sign(
    oracle: HardLabelOracle,
    graph: Graph,
    y0: int,
    p_old: float,
    theta_new,
    predicate=None,
) -> int:
    """Sign of the objective change toward a new direction, in one query.

    The scale whose objective equals ``p_old`` along the new direction is
    found analytically; if the graph there is already misclassified the
    boundary moved closer (sign -1), otherwise it moved away (sign +1).
    """
    if predicate is None:
        predicate = lambda label: label != y0
    theta_norm = normalize(theta_new)
    g_star = solve_g_star(theta_norm, p_old)
    probe = apply_perturbation(graph, g_star * theta_norm)
    label = oracle.classify(probe, "qegc")
    return -1 if predicate(label) else +1


def estimate_gradient(
    oracle: HardLabelOracle,
    graph: Graph,
    y0: int,
    theta,
    p_t: float,
    q_directions: int,
    mu: float,
    rng: np.random.Generator,
    predicate=None,
) -> np.ndarray:
    """Average of elementwise gradient signs over random probe directions.

    Each probe direction costs exactly one query; degenerate probes are
    re-drawn up to 3 times, then skipped (contributing zero).
    """
    d = np.asarray(theta).shape[0]
    grad = np.zeros(d)
    for _ in range(q_directions):
        for _attempt in range(4):
            u = rng.standard_normal(d)
            norm = np.linalg.norm(u)
            if norm == 0.0:
                continue
            u = u / norm
            try:
                s = qegc_sign(oracle, graph, y0, p_t, theta + mu * u, predicate)
            except (DegenerateTarget, ZeroVector):
                continue
            grad += s * np.sign(u)
            break
    return grad / q_directions


def sign_sgd_attack(
    oracle: HardLabelOracle,
    graph: Graph,
    y0: int,
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
    the last boundary point the binary search verified in this call is
    returned instead, at no extra query, when it is within the budget.
    """
    start = time.perf_counter()
    d = graph.n_edge_slots
    predicate = cfg.predicate(y0)
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
    verified = False  # candidate was queried as adversarial by boundary_distance

    def result(success, adv_graph, reason=None):
        added, removed = flip_ledger(graph, adv_graph) if success else ([], [])
        return AttackResult(
            success=success,
            adversarial_graph=adv_graph if success else graph,
            added=added,
            removed=removed,
            rate=perturbation_rate(graph, adv_graph) if success else 0.0,
            queries=oracle.ledger.snapshot(),
            wall_time=time.perf_counter() - start,
            gradient_norm_trace=grad_trace,
            p_trace=p_trace,
            found_in=found_in,
            failure_reason=reason,
        )

    def query_capped(exc):
        if verified and perturbation_rate(graph, candidate) <= cfg.budget:
            return result(True, candidate)
        return result(False, graph, f"budget exhausted: {exc}")

    try:
        for _t in range(cfg.iterations):
            g_t = boundary_distance(
                oracle, graph, y0, theta, cfg.epsilon, lambda_hint, predicate
            )
            lambda_hint = g_t
            candidate = apply_perturbation(graph, g_t * normalize(theta))
            verified = True
            p_t = objective_p(theta, g_t)
            grad = estimate_gradient(
                oracle, graph, y0, theta, p_t,
                cfg.directions_per_step, cfg.smoothing, rng, predicate,
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
        return result(False, graph, f"no boundary: {exc}")
    except BudgetExhausted as exc:
        return query_capped(exc)

    rate = perturbation_rate(graph, candidate)
    try:
        final_label = oracle.classify(candidate)  # ledger-counted re-verification
    except BudgetExhausted as exc:
        return query_capped(exc)
    if predicate(final_label) and rate <= cfg.budget:
        return result(True, candidate)
    reason = "perturbation rate exceeds budget" if rate > cfg.budget else \
        "final candidate not misclassified"
    return result(False, graph, reason)


def attack_graph(
    oracle: HardLabelOracle,
    graph: Graph,
    y0: int,
    cfg: AttackConfig,
) -> AttackResult:
    """Full pipeline for one target: partition, coarse search, sign-SGD.

    ``cfg.max_queries`` becomes the cap of ``oracle.ledger``, which keeps
    counting for the caller.
    """
    from .cgs import coarse_grained_search
    from .partition import louvain

    start = time.perf_counter()
    oracle.ledger.max_queries = cfg.max_queries
    partition = louvain(graph, seed=cfg.seed)
    try:
        seed = coarse_grained_search(
            oracle, graph, y0, partition,
            strategy=cfg.strategy,
            trials_scale=cfg.trials_scale,
            rng_seed=cfg.seed,
            predicate=cfg.predicate(y0),
        )
    except (NoAdversarialFound, BudgetExhausted) as exc:
        return AttackResult(
            success=False,
            adversarial_graph=graph,
            queries=oracle.ledger.snapshot(),
            wall_time=time.perf_counter() - start,
            failure_reason=f"initial search failed: {exc}",
        )
    res = sign_sgd_attack(oracle, graph, y0, cfg, seed.theta0, seed.found_in)
    res.wall_time = time.perf_counter() - start
    return res
