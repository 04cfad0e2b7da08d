"""Boundary-distance optimization core of the attack.

The continuous relaxation scores a search direction by the distance from
the target graph to the decision boundary along it.  The objective is
the clipped mass of the boundary vector above the flip threshold; its
gradient signs are obtained with one oracle query per probe direction
and averaged into a sign-SGD update.  The probe directions of a step do
not depend on any label, so each step prepares all its probe graphs at
once (``probe_graphs``), labels them in blocks where the oracle has a
batch kernel, then queries them one by one.  Every step asks
the run's label memo whether a graph is adversarial; a graph already
queried in the run is answered there at no query.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (BudgetExhausted, ConfigError, DegenerateTarget, DimensionMismatch,
                     NoAdversarialFound, NoBoundary, require_int, require_one_of, require_real)
# probe graphs are built in one XOR (probe_graphs); apply_perturbation stays
# bound here because perfbench/tracing.py wraps attack.apply_perturbation by name
from .graph import (
    FLIP_THRESHOLD,
    Graph,
    apply_perturbation,  # noqa: F401
    flip_ledger,
    normalize,
    perturbation_rate,
)
from .oracle import HardLabelOracle, LabelMemo
from .partition import STRATEGIES


# sign_sgd_attack stops after this many consecutive iterations in which
# the flips of the graph it returns (memo.best_flips) did not fall
EARLY_STOP_PATIENCE = 3

# Why a run stopped, in order: the graph sign-SGD returns stopped improving,
# its objective fell to 0, or a random success ended the trials; all
# iterations ran or every random trial was submitted; the query cap refused a
# query; the direction lost the boundary; no seed was found; no flip fits.
STOP_REASONS = ("converged", "iterations", "query_budget", "no_boundary", "no_seed",
                "rate_budget")


@dataclass
class AttackConfig:
    """Knobs of the sign-SGD attack loop.

    ``target_label=None`` runs the untargeted attack; setting it demands
    that exact label instead of any label change.  ``max_queries`` caps
    the queries of one ``attack_graph`` run.  Every field is checked by a
    rule of ``errors`` when the config is made, by ``replace`` too.
    """

    budget: float = 0.2
    iterations: int = 200
    directions_per_step: int = 100
    smoothing: float = 0.1
    epsilon: float = 1e-3
    max_queries: int | None = None
    target_label: int | None = None
    seed: int = 0
    strategy: str = "I"

    def __post_init__(self):
        require_real("budget", self.budget, 0.0, 1.0)
        require_int("iterations", self.iterations, 0)
        require_int("directions_per_step", self.directions_per_step, 1)
        # a probe radius of 0 probes the iterate itself, an infinite one no
        # direction at all; an infinite tolerance skips every bisection
        require_real("smoothing", self.smoothing, 0.0)
        require_real("epsilon", self.epsilon, 0.0)
        if self.max_queries is not None:
            require_int("max_queries", self.max_queries, 1)
        if self.target_label is not None:
            require_int("target_label", self.target_label, 0)
        require_int("seed", self.seed, 0)  # run_experiment seeds generators with seed + idx
        require_one_of("strategy", self.strategy, STRATEGIES)

    def predicate(self, y0: int):
        """What counts as adversarial for a target labelled ``y0``.  A
        targeted run toward ``y0`` itself has nothing to attack, and raises
        ``ConfigError``."""
        if self.target_label is None:
            return lambda label: label != y0
        target = self.target_label
        if target == y0:
            raise ConfigError(f"target_label {target} is the target's own label")
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
    stop_reason: str | None = None  # one of STOP_REASONS, on success and failure alike
    # submissions answered by the run's label memo; queries["total"] + memo_hits
    # is the number of graphs the run submitted
    memo_hits: int = 0
    # graphs drawn but never submitted: coarse-search trials the gallop,
    # bisection or scan never reached, or random-baseline draws after its
    # success or the cap
    skipped: int = 0

    @property
    def flips(self) -> int:
        return len(self.added) + len(self.removed)

    @classmethod
    def of_run(cls, memo: LabelMemo, start: float, **fields) -> "AttackResult":
        """The result of a run on ``memo.graph`` that began at ``start``: a
        success iff the memo kept a graph (``memo.best``), which it returns;
        a failure returns ``memo.graph``.  Queries and memo hits are read
        from ``memo``; ``fields`` sets the rest."""
        graph = memo.graph
        adversarial = graph if memo.best is None else memo.best  # no flips on a failure
        added, removed = flip_ledger(graph, adversarial)
        return cls(
            success=memo.best is not None,
            adversarial_graph=adversarial,
            added=added,
            removed=removed,
            rate=perturbation_rate(graph, adversarial),
            queries={**memo.queries, "total": memo.total},
            wall_time=time.perf_counter() - start,
            memo_hits=memo.hits,
            **fields,
        )


def boundary_distance(
    memo: LabelMemo,
    theta,
    epsilon: float = 1e-3,
    lambda_hint: float = 1.0,
) -> float:
    """Minimal scale (within ``epsilon``) at which the direction, applied
    to ``memo.graph``, crosses the decision boundary.

    The upper bracket grows by doubling from ``lambda_hint`` and is
    capped at the saturation scale beyond which every positive component
    already exceeds the flip threshold; no label change by then means no
    boundary exists along this direction.  Every probe is one query unless
    ``memo`` already holds its graph.

    The graph at scale λ flips the slots with ``λ·θ̂ᵢ >= FLIP_THRESHOLD``,
    as ``apply_perturbation(memo.graph, λ·θ̂)`` does.  For λ > 0 the rounded
    product does not decrease with the component, so those slots are the
    first c of the positive components sorted in descending order; equal
    components have equal products and flip together.  Each probe
    bisects for its flip count c on those same products, so the graphs
    submitted are bit for bit those of ``apply_perturbation``.  The graph
    of each count is built and submitted once per call; a count probed
    again takes the call's verdict for it and counts as a memo hit, as
    the memo would answer its graph.
    """
    graph = memo.graph
    theta_norm = normalize(theta)
    slots = np.flatnonzero(theta_norm > 0)
    if slots.size == 0:
        raise NoBoundary("direction has no positive component; no edge can flip")
    slots = slots[np.argsort(-theta_norm[slots], kind="stable")]
    desc = theta_norm[slots].tolist()
    saturation = FLIP_THRESHOLD / desc[-1]
    cap = max(np.sqrt(theta_norm.size), saturation) * (1.0 + 1e-9)
    verdicts: dict[int, bool] = {}  # by flip count, within this call

    def adversarial(lam: float) -> bool:
        lam = float(lam)
        c = bisect.bisect_left(desc, True, key=lambda s: lam * s < FLIP_THRESHOLD)
        verdict = verdicts.get(c)
        if verdict is None:
            verdict = verdicts[c] = memo.adversarial(graph.flip(slots[:c]), "binary_search")
        else:
            memo.hits += 1  # the memo would answer the count's graph again
        return verdict

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


# _solve_g_star_rows walks the breakpoints of at most this many of each
# row's largest components; a row whose target lies further out searches
# all its breakpoints instead.
WALK_COMPONENTS = 32
_TURN_ON_OFF = np.array([[FLIP_THRESHOLD], [FLIP_THRESHOLD + 1.0]])
_SLOPE_SIGN = np.array([[1.0], [-1.0]])


def solve_g_star(theta_new, p_old: float) -> float:
    """Invert the objective along a new direction: the unique scale whose
    boundary vector has clipped mass ``p_old``.

    The objective as a function of the scale is piecewise linear and
    non-decreasing, with breakpoints where a component crosses the flip
    threshold (slope turns on) or its clip cap (slope turns off); the
    containing segment is inverted analytically.  Zero queries.  This is
    one row of ``_solve_g_star_rows``.
    """
    row = np.asarray(theta_new, dtype=float).reshape(1, -1)
    normalize(row)  # raises ZeroVector for a zero direction
    g_star = float(_solve_g_star_rows(row, p_old)[0])
    if g_star != g_star:
        raise DegenerateTarget(
            f"target objective {p_old} outside the invertible range along this "
            "direction: not above the first breakpoint's mass, or above the "
            "saturation plateau")
    return g_star


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
    ``WALK_COMPONENTS`` largest components, for all rows at once; 0 at both
    ends of a row not located so.

    A component ``s`` turns its slope on at ``FLIP_THRESHOLD / s`` and off
    at ``(FLIP_THRESHOLD + 1) / s``.  Up to the turn-on of the j-th largest
    component only the j largest have breakpoints, so a segment that ends
    there at the latest is a segment of all the row's breakpoints.  The
    running mass (the slope times each segment's length, summed) may round
    either way; ``_solve_g_star_rows`` keeps a segment only where the
    clipped mass itself brackets ``p_old``.
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


def _bisect_breakpoints(positive: np.ndarray, p_old: float) -> float:
    """g* from all the breakpoints of one row's positive components (in slot
    order); NaN where no segment brackets ``p_old``.

    The clipped mass does not decrease with the scale, in floating point
    too: each clipped term is monotone, and a sum of monotone terms in a
    fixed order is monotone.  So bisection on the mass itself finds the
    first breakpoint whose mass reaches ``p_old``, in about log2(2k) masses.
    """
    events = np.sort(np.divide(_TURN_ON_OFF, positive).ravel())
    p_at = lambda g: _clipped_mass(g * positive)
    idx = bisect.bisect_left(events, p_old, key=p_at)
    if idx == 0 or idx == events.size:  # no breakpoint below p_old, or none reaching it
        return math.nan
    g0, g1 = events[idx - 1], events[idx]
    p0, p1 = p_at(g0), p_at(g1)
    return float(g0 + (p_old - p0) * (g1 - g0) / (p1 - p0))


def _solve_g_star_rows(unit: np.ndarray, p_old: float) -> np.ndarray:
    """g* of every row at once; NaN where no segment brackets ``p_old`` (a
    zero or NaN row, a target outside (0, positive count), or one beyond
    the last breakpoint's mass).

    The rows are normalised again with ``normalize``'s bits, sorted and
    walked together (``_walk_rows``), and both bracket masses of every row
    are evaluated in one pass over the rows' positive components.  A row
    the walk does not bracket (a target beyond the walk, fewer positives
    than the walk takes, or a tie that rounded the running mass past the
    target) takes ``_bisect_breakpoints``.  Either way the segment ends at
    the first breakpoint whose clipped mass reaches ``p_old``.
    """
    scaled = unit / _row_norms(unit)[:, None]
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
        g_star[i] = _bisect_breakpoints(scaled[i][positive[i]], p_old)
    return g_star


def probe_graphs(graph: Graph, p_old: float, thetas) -> list[Graph | None]:
    """Each row's probe graph, or None where the row is degenerate.

    Row by row this is ``normalize``, ``solve_g_star`` on the normalised
    row and ``apply_perturbation`` of g* times the normalised row, with the
    same bits, and None exactly where those raise (a zero row, or a target
    outside a row's invertible range): every row's g* comes from one call
    of ``_solve_g_star_rows``.  The rows are prepared together, and
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
    # a zero row (ZeroVector in normalize) becomes a NaN row, which
    # _solve_g_star_rows rejects
    norms[norms == 0.0] = np.nan
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
    theta,
    p_t: float,
    q_directions: int,
    mu: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Average of elementwise gradient signs over random probe directions
    around ``memo.graph``.

    Each probe direction costs one query, none if its graph is already in
    ``memo``; degenerate probes are re-drawn up to 3 times, then skipped
    (contributing zero).  The directions do not depend on any label, so
    the rows still to be drawn (one per remaining probe) are drawn and
    prepared by ``probe_graphs`` at once, then queried one by one in draw
    order; a re-draw draws the next batch.  With an oracle that has a
    batch label kernel, the labels of each block of those probe graphs
    that are not in ``memo`` yet are computed in one call before the
    block is queried (``LabelMemo.in_blocks``).  A ``p_t`` <= 0 (or NaN)
    inverts no probe, so the step is zero; ``sign_sgd_attack`` takes none.
    """
    d = np.asarray(theta).shape[0]
    grad = np.zeros(d)
    done = attempt = 0  # probes done, draws of this probe
    while done < q_directions:
        # every remaining probe takes at least one row, so each row is used
        u = rng.standard_normal((q_directions - done, d))
        norms = _row_norms(u)
        norms[norms == 0.0] = np.nan  # a zero row becomes a NaN row, which probe_graphs rejects
        u /= norms[:, None]
        signs, kept = [], []
        for i, probe in enumerate(memo.in_blocks(probe_graphs(memo.graph, p_t, theta + mu * u))):
            attempt += 1
            if probe is None:
                if attempt < 4:
                    continue
            else:
                signs.append(qegc_sign(memo, probe))
                kept.append(i)
            done += 1
            attempt = 0
        # sums of +-1 terms are exact in any order
        grad += np.array(signs, dtype=float) @ np.sign(u[kept])
    return grad / q_directions


def sign_sgd_attack(memo: LabelMemo, cfg: AttackConfig, theta0: np.ndarray) -> AttackResult:
    """Descend the boundary objective around ``memo.graph`` from an
    adversarial seed direction.

    Per iteration: one binary search for the boundary distance of the
    current iterate, then one query per probe direction for the gradient
    signs, then a sign-SGD step of size 1/sqrt(d) for slot dimension d.  The
    descent stops early, as ``converged``, after ``EARLY_STOP_PATIENCE``
    consecutive iterations in which ``memo.best_flips``, the flips of the
    graph the run returns, did not fall; it reads only the memo, so a cap
    cannot change when a run stops.  It also stops as ``converged`` where
    the objective is not positive: no probe inverts there, so the step
    would be zero.  It ends when the direction loses the boundary or the
    query cap refuses a query.

    However it ends, the run returns the graph ``memo`` kept
    (``LabelMemo.best``): the coarse search's seed, a boundary point or a
    probe.  It is re-verified with one counted query that the memo never
    answers; a label that disagrees makes the run a failure, and a
    re-verification the cap refuses is skipped.
    """
    start = time.perf_counter()
    eta = 1.0 / np.sqrt(memo.graph.n_edge_slots)
    rng = np.random.default_rng(cfg.seed)

    # The objective depends only on the direction; keeping the iterate at
    # unit norm makes the step size and smoothing radius scale-free.
    theta = normalize(np.asarray(theta0, dtype=float))
    p_trace: list[float] = []
    grad_trace: list[float] = []
    lambda_hint = 1.0
    best_flips, stagnant = memo.best_flips, 0
    reason = "iterations"
    try:
        for _t in range(cfg.iterations):
            g_t = boundary_distance(memo, theta, cfg.epsilon, lambda_hint)
            lambda_hint = g_t
            p_t = objective_p(theta, g_t)
            if not p_t > 0.0:  # also NaN: no probe inverts, so the step is zero
                p_trace.append(p_t)
                grad_trace.append(0.0)
                reason = "converged"
                break
            grad = estimate_gradient(memo, theta, p_t, cfg.directions_per_step,
                                     cfg.smoothing, rng)
            p_trace.append(p_t)
            grad_trace.append(float(np.linalg.norm(grad)))
            theta = normalize(theta - eta * grad)
            stagnant = 0 if memo.best_flips < best_flips else stagnant + 1
            best_flips = memo.best_flips
            if stagnant >= EARLY_STOP_PATIENCE:
                reason = "converged"
                break
    except NoBoundary:
        reason = "no_boundary"
    except BudgetExhausted:
        reason = "query_budget"

    if memo.best is not None:
        try:
            # a counted re-verification, never answered from the memo
            if not memo.predicate(memo.query(memo.best, "other")):
                memo.best = None  # the oracle disagrees: nothing verified to return
        except BudgetExhausted:
            reason = "query_budget"
    return AttackResult.of_run(memo, start, gradient_norm_trace=grad_trace,
                               p_trace=p_trace, stop_reason=reason)


def attack_graph(
    oracle: HardLabelOracle,
    graph: Graph,
    y0: int,
    cfg: AttackConfig,
) -> AttackResult:
    """Full pipeline for one target: partition, coarse search, sign-SGD.

    ``cfg.max_queries`` caps the queries of this run alone: its memo
    counts them, so runs on one oracle share no count.  A budget that
    allows no flip on ``graph`` (``LabelMemo.max_flips == 0``) fails at
    once with no query.  A cap that stops the run returns the graph the
    memo kept, without a re-verification: in the coarse search, a success
    its gallop or bisection found so far (none before the first one, and
    ``found_in`` stays None); in the descent, see ``sign_sgd_attack``, the
    seed if the cap came before the first boundary search.

    One label memo, bound to ``oracle``, the run's predicate, ``graph``,
    ``cfg.budget`` and ``cfg.max_queries``, counts and answers every step
    of the run and keeps the graph it returns: each distinct graph costs
    one query, and ``memo_hits`` counts the repeats.
    """
    from .cgs import coarse_grained_search
    from .partition import louvain

    start = time.perf_counter()
    memo = LabelMemo(oracle, cfg.predicate(y0), graph, cfg.budget, cfg.max_queries)
    if memo.max_flips == 0:
        return AttackResult.of_run(memo, start, stop_reason="rate_budget")
    partition = louvain(graph, seed=cfg.seed)
    try:
        seed = coarse_grained_search(memo, partition, cfg.strategy, cfg.seed)
    except NoAdversarialFound:
        return AttackResult.of_run(memo, start, stop_reason="no_seed")
    except BudgetExhausted:
        return AttackResult.of_run(memo, start, stop_reason="query_budget")
    res = sign_sgd_attack(memo, cfg, seed.theta0)
    res.found_in, res.skipped = seed.found_in, seed.skipped
    res.wall_time = time.perf_counter() - start
    return res
