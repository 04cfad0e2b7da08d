"""Boundary-distance optimization core of the attack.

The continuous relaxation scores a search direction by the distance from
the target graph to the decision boundary along it.  The objective is
the clipped mass of the boundary vector above the flip threshold; its
gradient signs are obtained with one oracle query per probe direction
and averaged into a sign-SGD update.  The probe directions of a step do
not depend on any label, so each step prepares all its probe graphs at
once (``probe_graphs``), then queries them one by one.  Every step asks
the run's label memo whether a graph is adversarial; a graph already
queried in the run is answered there at no query.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExhausted,
    ConfigError,
    DegenerateTarget,
    DimensionMismatch,
    NoAdversarialFound,
    NoBoundary,
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
        if self.seed < 0:  # run_experiment seeds numpy generators with seed + idx
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.early_stop_patience < 1:
            raise ConfigError(
                f"early_stop_patience must be at least 1, got {self.early_stop_patience}")
        # a NaN or negative tolerance never counts a step as stagnant
        if not self.early_stop_tol >= 0.0:
            raise ConfigError(f"early_stop_tol must be non-negative, got {self.early_stop_tol}")

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

    The graph at scale λ flips the slots with ``λ·θ̂ᵢ >= FLIP_THRESHOLD``,
    as ``apply_perturbation(graph, λ·θ̂)`` does.  For λ > 0 the rounded
    product does not decrease with the component, so those slots are the
    first c of the positive components sorted in descending order; equal
    components have equal products and flip together.  Each probe
    bisects for its flip count c on those same products, and the graph
    of each count is built once per call, so the graphs submitted are
    bit for bit those of ``apply_perturbation``.
    """
    theta_norm = normalize(theta)
    slots = np.flatnonzero(theta_norm > 0)
    if slots.size == 0:
        raise NoBoundary("direction has no positive component; no edge can flip")
    slots = slots[np.argsort(-theta_norm[slots], kind="stable")]
    desc = theta_norm[slots].tolist()
    saturation = FLIP_THRESHOLD / desc[-1]
    cap = max(np.sqrt(theta_norm.size), saturation) * (1.0 + 1e-9)
    by_count: dict[int, Graph] = {}

    def adversarial(lam: float) -> bool:
        lam = float(lam)
        c = bisect.bisect_left(desc, True, key=lambda s: lam * s < FLIP_THRESHOLD)
        probe = by_count.get(c)
        if probe is None:
            probe = by_count[c] = graph.flip(slots[:c])
        return memo.adversarial(probe, "binary_search")

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


def _clipped_mass(ghat: np.ndarray) -> float:
    """Sum of each component's excess over the flip threshold, capped at 1.

    Consumes ``ghat``: the float array is overwritten in place, so pass a
    temporary.  ``np.minimum(np.maximum(...))`` and ``np.add.reduce`` give
    the same values as ``np.clip(...).sum()`` at about half its per-call
    cost, which dominates at these sizes.
    """
    np.subtract(ghat, FLIP_THRESHOLD, out=ghat)
    np.maximum(ghat, 0.0, out=ghat)
    np.minimum(ghat, 1.0, out=ghat)
    return float(np.add.reduce(ghat))


def objective_p(theta, g: float) -> float:
    """Clipped mass of the boundary vector above the flip threshold.

    Pure arithmetic; costs zero queries.
    """
    return _clipped_mass(g * normalize(theta))


# solve_g_star, and probe_graphs for all its rows at once, walk the
# breakpoints of at most this many of the largest components; a target
# further out sorts all the breakpoints instead.
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
    # p0 and p1 keep the last masses evaluated at events[idx - 1] and events[idx];
    # equal breakpoints have equal masses, so each move skips a run of them
    while idx > 0:
        g = events[idx - 1]
        p0 = p_at(g)
        if p0 < p_old:
            break
        idx -= 1
        while idx > 0 and events[idx - 1] == g:
            idx -= 1
    while idx < 2 * k:
        g = events[idx]
        p1 = p_at(g)
        if p1 >= p_old:
            break
        p0 = p1
        idx += 1
        while idx < 2 * k:
            if idx == len(events):  # a walk's events end where it stopped
                events, _ = _sorted_breakpoints(desc, p_old)
            if events[idx] != g:
                break
            idx += 1
    # now p0 = p(events[idx - 1]) < p_old <= p(events[idx]) = p1
    if idx == 0:
        # p_old <= p(first breakpoint) = 0, excluded above
        raise DegenerateTarget("objective target below the first breakpoint")
    if idx == 2 * k:
        raise DegenerateTarget("objective target above the saturation plateau")
    g0, g1 = events[idx - 1], events[idx]
    return float(g0 + (p_old - p0) * (g1 - g0) / (p1 - p0))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's L2 norm with the bits ``normalize`` gives that row alone.

    One stacked ``(1, d) @ (d, 1)`` product per row takes each row's own
    dot product, as ``normalize`` does on the row, in one call.  The stack
    is made C-contiguous first: ``normalize`` dots a contiguous copy, and a
    strided dot sums in another order.
    """
    rows = np.ascontiguousarray(rows)
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _walk_rows(scaled: np.ndarray, counts: np.ndarray, invertible: np.ndarray,
               p_old: float) -> np.ndarray:
    """The (2, rows) breakpoints around the segment where each row's running
    mass first reaches ``p_old``, located among the breakpoints of its
    ``WALK_COMPONENTS`` largest components as ``_walk_breakpoints`` does,
    for all rows at once; 0 at both ends of a row not located so.

    Up to the turn-on of the j-th largest component only the j largest
    have breakpoints, so a segment that ends there at the latest is a
    segment of all the row's breakpoints.  The running mass may round
    either way; ``_solve_g_star_rows`` keeps a segment only where the
    clipped mass itself brackets ``p_old``.  The clipped mass does not
    decrease with the scale, so such a segment is ``solve_g_star``'s.
    """
    n, d = scaled.shape
    j = min(WALK_COMPONENTS, d)
    g = np.zeros((2, n))
    walked = invertible & (counts >= j)
    if walked.all():
        walked = slice(None)
    else:
        walked = np.flatnonzero(walked)
        if not walked.size:
            return g
        scaled, counts = scaled[walked], counts[walked]
    m = scaled.shape[0]
    top = np.sort(scaled, axis=1)[:, ::-1][:, :j]  # the j largest, descending
    # each row's turn-ons, then its turn-offs: the stable sort merges the two
    # ascending runs turn-on first on a tie
    breaks = np.divide(_TURN_ON_OFF, top[:, None, :]).ravel()
    order = np.argsort(breaks.reshape(m, 2 * j), axis=1, kind="stable")
    order += np.arange(0, breaks.size, 2 * j)[:, None]  # into the flat breaks
    events = breaks[order]
    slope = np.multiply(_SLOPE_SIGN, top[:, None, :]).ravel()[order]
    np.cumsum(slope, axis=1, out=slope)
    mass = events[:, 1:] - events[:, :-1]
    np.multiply(slope[:, :-1], mass, out=mass)
    np.cumsum(mass, axis=1, out=mass)  # the running mass at events[:, 1:]
    # the segment up to the first breakpoint whose running mass reaches p_old
    at = np.arange(m)
    idx = (mass >= p_old).argmax(axis=1)
    g0, g1 = events[at, idx], events[at, idx + 1]
    # past the j-th turn-on, components beyond the j largest break too
    ok = (counts == j) | (g1 <= breaks[j - 1::2 * j])
    g[:, walked] = g0 * ok, g1 * ok
    return g


def _solve_g_star_rows(unit: np.ndarray, p_old: float) -> np.ndarray:
    """``solve_g_star(row, p_old)`` of every row at once, with the same bits;
    NaN where it raises.

    The rows are normalised again, sorted and walked together, and both
    bracket masses of every row are evaluated in one pass over the rows'
    positive components.  A row whose located segment does not bracket
    ``p_old`` takes ``solve_g_star`` itself.
    """
    scaled = unit / _row_norms(unit)[:, None]  # what solve_g_star normalises
    positive = scaled > 0.0
    counts = np.add.reduce(positive, axis=1, dtype=np.intp)
    invertible = (0.0 < p_old) & (p_old < counts)  # also rejects NaN
    g = _walk_rows(scaled, counts, invertible, p_old)
    # the clipped mass at both ends of each row's segment with the bits of
    # _clipped_mass: each row's positives in slot order, reduced on their own
    ghat = np.repeat(g, counts, axis=1)
    np.multiply(ghat, scaled[positive], out=ghat)
    np.subtract(ghat, FLIP_THRESHOLD, out=ghat)
    np.maximum(ghat, 0.0, out=ghat)
    np.minimum(ghat, 1.0, out=ghat)
    ends = np.cumsum(counts).tolist()
    p0, p1 = np.array([np.add.reduce(ghat[:, end - k:end], 1)
                       for k, end in zip(counts.tolist(), ends)]).T
    g0, g1 = g
    b = (p0 < p_old) & (p_old <= p1)  # the segment brackets p_old
    if b.all():
        return g0 + (p_old - p0) * (g1 - g0) / (p1 - p0)
    g_star = np.full(len(g0), np.nan)
    g_star[b] = g0[b] + (p_old - p0[b]) * (g1[b] - g0[b]) / (p1[b] - p0[b])
    for i in np.flatnonzero(invertible & ~b).tolist():
        try:
            g_star[i] = solve_g_star(unit[i], p_old)
        except DegenerateTarget:
            pass
    return g_star


def probe_graphs(graph: Graph, p_old: float, thetas) -> list[Graph | None]:
    """Each row's probe graph, or None where the row is degenerate.

    Row by row this is ``normalize``, ``solve_g_star`` on the normalised
    row and ``apply_perturbation`` of g* times the normalised row, with the
    same bits, and None exactly where those raise (a zero row, or a target
    outside a row's invertible range).  The rows are prepared together, and
    every probe's bits come from one XOR.  Zero queries.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape[1:] != graph.bits.shape:
        raise DimensionMismatch(
            f"probe rows have {thetas.shape[1:]} entries, graph has "
            f"{graph.n_edge_slots} slots"
        )
    if not len(thetas):
        return []
    norms = _row_norms(thetas)
    live = norms > 0.0
    if not live.all():  # a zero row raises ZeroVector in normalize
        out: list[Graph | None] = [None] * len(thetas)
        rows = np.flatnonzero(live).tolist()
        for i, probe in zip(rows, probe_graphs(graph, p_old, thetas[rows])):
            out[i] = probe
        return out
    unit = thetas / norms[:, None]  # each row normalised, as the probe scales it
    g_star = _solve_g_star_rows(unit, p_old)  # NaN flips nothing
    bits = graph.bits ^ (g_star[:, None] * unit >= FLIP_THRESHOLD).view(np.uint8)
    return [graph._with_valid_bits(row) if ok else None
            for row, ok in zip(bits, (g_star == g_star).tolist())]


def qegc_sign(memo: LabelMemo, probe: Graph) -> int:
    """Sign of the objective change toward a new direction, in one query.

    ``probe`` is the direction's probe graph from ``probe_graphs``: the
    graph at the scale whose objective equals the current one along the
    new direction.  If it is already misclassified the boundary moved
    closer (sign -1), otherwise it moved away (sign +1).  A probe graph
    already in ``memo`` costs no query.
    """
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
    (contributing zero).  The directions do not depend on any label, so
    the rows still to be drawn (one per remaining probe) are drawn and
    prepared by ``probe_graphs`` at once, then queried one by one in draw
    order; a re-draw draws the next batch.  If the query cap stops the
    step, the generator is left where drawing row by row would have left
    it: after the row whose query was refused.

    When ``p_t`` is not positive (or NaN), ``solve_g_star`` rejects every
    probe whatever its direction, so all 4 draws of every probe are made
    at once and the step is zero, without a call per draw.
    """
    d = np.asarray(theta).shape[0]
    if not p_t > 0.0:
        # standard_normal((k, d)) consumes the stream of k draws of size d
        rng.standard_normal((4 * q_directions, d))
        return np.zeros(d)
    state = rng.bit_generator.state
    signs = []
    dirs = []
    drawn = done = attempt = 0  # rows drawn, probes done, draws of this probe
    while done < q_directions:
        # every remaining probe takes at least one row, so each row is used
        u = rng.standard_normal((q_directions - done, d))
        norms = _row_norms(u)
        norms[norms == 0.0] = np.nan  # a zero row becomes a NaN row, which probe_graphs rejects
        u /= norms[:, None]
        for row, probe in zip(u, probe_graphs(graph, p_t, theta + mu * u)):
            drawn += 1
            attempt += 1
            if probe is None:
                if attempt < 4:
                    continue
            else:
                try:
                    signs.append(qegc_sign(memo, probe))
                except BudgetExhausted:
                    rng.bit_generator.state = state
                    rng.standard_normal((drawn, d))
                    raise
                dirs.append(row)
            done += 1
            attempt = 0
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
