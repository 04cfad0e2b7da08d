"""Experiment orchestration: baselines, metrics, sweeps, reports.

Success rate is over all targets; average perturbation is over
successes only; average queries and wall time are over all targets,
failures included.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .attack import AttackConfig, AttackResult, attack_graph
from .defense import DefendedOracle, LowRankConfig
from .errors import BudgetExhausted, ConfigError, require_int, require_one_of
# random_attack builds each block of trials in one XOR; the name stays bound
# here because perfbench/tracing.py wraps harness.apply_perturbation by name
from .graph import Graph, apply_perturbation  # noqa: F401
from .oracle import BLOCK, PHASES, HardLabelOracle, LabelMemo


def random_attack(
    oracle: HardLabelOracle,
    graph: Graph,
    y0: int,
    cfg: AttackConfig,
    query_budget: int,
) -> AttackResult:
    """Matched-budget baseline: flip a random fraction of slots per trial.

    Reads ``cfg.budget``, ``cfg.seed``, the predicate of ``cfg`` and
    ``cfg.max_queries``, the cap of this run's queries as in
    ``attack_graph``.  Each of the ``query_budget`` trials draws a
    perturbation ratio ``r`` uniform in [0, budget) and flips
    ``min(max(1, round(r * slots)), memo.max_flips)`` distinct random
    slots, where ``LabelMemo.max_flips`` is the most flips the budget
    allows; the ``max(1, ·)`` makes the low end flip one slot.  All flip
    counts are drawn first, in one call; the trials are then submitted in
    ascending flip count until the call's label memo keeps a success
    (``LabelMemo.best``); a trial's slots are drawn, as a uniform subset
    of its size, only when its block is reached.  That first success is
    the fewest-flip success among all trials: the draws ignore the labels,
    so a trial with at least as many flips cannot improve on it.  The memo
    answers a trial that repeats an earlier graph, counted in
    ``memo_hits``; trials never submitted are counted in ``skipped``, so
    ``total + memo_hits + skipped == query_budget``.  A budget that allows
    no flip on ``graph`` (``max_flips == 0``) draws nothing and fails with
    every trial skipped.

    The trials are drawn ``oracle.BLOCK`` at a time, and an oracle with a
    batch label kernel labels each block's graphs not yet in the memo in
    one call before any of them is submitted (``LabelMemo.in_blocks``).  So
    at most one block past the success (or the cap) is drawn, and labelled
    with a batch kernel, but never submitted or counted.  The generator is
    local to the call, so no outcome moves.
    """
    require_int("query_budget", query_budget, 1)
    start = time.perf_counter()
    memo = LabelMemo(oracle, cfg.predicate(y0), graph, cfg.budget, cfg.max_queries)
    if memo.max_flips == 0:
        return AttackResult.of_run(memo, start, found_in="random", stop_reason="rate_budget",
                                   skipped=query_budget)
    s = graph.n_edge_slots
    rng = np.random.default_rng(cfg.seed)
    # budget * random() is uniform(0, budget); np.rint rounds half to even,
    # as round() does
    flips = np.clip(np.rint(cfg.budget * rng.random(query_budget) * s), 1, memo.max_flips)
    reason = "iterations"
    for candidate in memo.in_blocks(_random_trials(graph, rng, np.sort(flips).astype(int))):
        try:
            memo.adversarial(candidate, "other")
        except BudgetExhausted:
            reason = "query_budget"
            break
        if memo.best is not None:
            reason = "converged"
            break
    # each submission that returned was one query or one memo hit
    return AttackResult.of_run(memo, start, found_in="random", stop_reason=reason,
                               skipped=query_budget - (memo.total + memo.hits))


def _random_trials(graph: Graph, rng: np.random.Generator, counts: np.ndarray):
    """``graph`` with a uniform set of ``counts[i]`` slots flipped, for each i: a
    block of ``BLOCK`` trials draws its slot orders in one call, which uses
    ``rng`` as one ``rng.permutation`` per trial does, and flips in one XOR."""
    s = graph.n_edge_slots
    for counts in np.split(counts, range(BLOCK, counts.size, BLOCK)):
        order = rng.permuted(np.broadcast_to(np.arange(s), (counts.size, s)), axis=1)
        mask = np.empty(order.shape, np.uint8)
        np.put_along_axis(mask, order, np.arange(s) < counts[:, None], axis=1)
        yield from map(graph._with_valid_bits, graph.bits ^ mask)


# -- metrics -------------------------------------------------------------


def aggregate_metrics(results: list[AttackResult]) -> dict:
    """SR / AP / AQ / AT plus added/removed-edge averages; a mean over no
    run, or (AP and the edge averages) over no success, is ``None``."""
    def mean(values):
        return float(np.mean(values)) if values else None

    successes = [r for r in results if r.success]
    return {"SR": len(successes) / len(results) if results else None,
            "AP": mean([r.flips for r in successes]),
            "AQ": mean([r.queries.get("total", 0) for r in results]),
            "AT": mean([r.wall_time for r in results]),
            "avg_added": mean([len(r.added) for r in successes]),
            "avg_removed": mean([len(r.removed) for r in successes])}


# -- experiment runner ---------------------------------------------------


@dataclass
class ExperimentReport:
    config: dict
    per_graph: list[dict]
    aggregates: dict

    def to_csv(self) -> str:
        """Per-graph rows; a report without rows is its header alone."""
        fields = ["id", "success", "flips_added", "flips_removed", "rate", "queries_total",
                  *(f"queries_{phase}" for phase in PHASES), "memo_hits", "skipped",
                  "time_s", "found_in", "stop_reason"]
        return rows_to_csv([
            {
                "id": row["id"],
                "success": int(row["success"]),
                "flips_added": row["flips_added"],
                "flips_removed": row["flips_removed"],
                "rate": f"{row['rate']:.6f}",
                "queries_total": row["queries"]["total"],
                **{f"queries_{phase}": row["queries"][phase] for phase in PHASES},
                "memo_hits": row["memo_hits"],
                "skipped": row["skipped"],
                "time_s": f"{row['time_s']:.3f}",
                "found_in": row["found_in"],
                "stop_reason": row["stop_reason"],
            }
            for row in self.per_graph
        ], fields)

    def save(self, path):
        """The report as JSON at ``path``, and ``to_csv`` beside it with a
        ``.csv`` suffix."""
        path = Path(path)
        path.write_text(json.dumps(asdict(self), indent=2))
        path.with_suffix(".csv").write_text(self.to_csv())


def _result_row(idx: int, res: AttackResult) -> dict:
    return {
        "id": idx,
        "success": res.success,
        "flips_added": len(res.added),
        "flips_removed": len(res.removed),
        "rate": res.rate,
        "queries": res.queries,
        "memo_hits": res.memo_hits,
        "skipped": res.skipped,
        "time_s": res.wall_time,
        "found_in": res.found_in,
        "gradient_norm_trace": res.gradient_norm_trace,
        "p_trace": res.p_trace,
        "stop_reason": res.stop_reason,
    }


def select_targets(oracle: HardLabelOracle, graphs: list[Graph]) -> list[tuple[int, Graph, int]]:
    """Correctly classified graphs, as (index, graph, label) triples.

    Selection labels are asked of ``oracle`` outside any run, so they are
    not attack cost.
    """
    targets = []
    for idx, g in enumerate(graphs):
        label = oracle.classify(g)
        if g.label is None or label == g.label:
            targets.append((idx, g, label))
    return targets


def run_experiment(
    oracle: HardLabelOracle,
    graphs: list[Graph],
    cfg: AttackConfig,
    method: str = "signsgd",
    n_trials: int = 1,
    random_query_budget: int | None = None,
) -> ExperimentReport:
    """Attack every correctly classified graph and aggregate the metrics.

    A targeted ``cfg`` skips the graphs already labelled ``target_label``,
    which leave nothing to attack; ``n_targets`` counts the rest.
    ``method`` is ``signsgd`` or ``random``; every run asks ``oracle``
    and counts its own queries in its memo.  With ``n_trials > 1``
    each target is attacked under ``n_trials`` derived seeds and every
    run contributes one row.
    """
    require_one_of("method", method, ("signsgd", "random"))
    if method == "signsgd" and random_query_budget is not None:
        raise ConfigError("signsgd method takes no random_query_budget")
    if method == "random":  # None too is refused: the random method needs a budget
        require_int("random_query_budget", random_query_budget, 1)
    require_int("n_trials", n_trials, 1)

    targets = [t for t in select_targets(oracle, graphs) if t[2] != cfg.target_label]
    rows = []
    results = []
    for idx, graph, y0 in targets:
        for trial in range(n_trials):
            seed = cfg.seed + 7919 * trial + idx
            run_cfg = replace(cfg, seed=seed)
            if method == "signsgd":
                res = attack_graph(oracle, graph, y0, run_cfg)
            else:
                res = random_attack(oracle, graph, y0, run_cfg, random_query_budget)
            results.append(res)
            rows.append(_result_row(idx, res))
    config = {**cfg.__dict__, "method": method, "n_targets": len(targets),
              "n_trials": n_trials}
    if random_query_budget is not None:
        config["random_query_budget"] = random_query_budget
    return ExperimentReport(config, rows, aggregate_metrics(results))


# -- sweeps --------------------------------------------------------------


def budget_sweep(
    oracle: HardLabelOracle,
    graphs: list[Graph],
    cfg: AttackConfig,
    budgets,
) -> list[dict]:
    """Sign-SGD's SR and AP per budget value (the attack-strength curve)."""
    rows = []
    for b in budgets:
        report = run_experiment(oracle, graphs, replace(cfg, budget=float(b)))
        rows.append({"budget": float(b), **report.aggregates})
    return rows


def clean_accuracy(oracle: HardLabelOracle, graphs: list[Graph]) -> float:
    """Fraction of labeled graphs the oracle classifies correctly; without
    a labeled graph there is no fraction, and it raises ``ConfigError``."""
    labeled = [g for g in graphs if g.label is not None]
    if not labeled:
        raise ConfigError("clean accuracy needs at least one labeled graph")
    hits = sum(oracle.classify(g) == g.label for g in labeled)
    return hits / len(labeled)


def defense_sweep(
    oracle: HardLabelOracle,
    graphs: list[Graph],
    gammas,
    cfg: AttackConfig | None = None,
) -> list[dict]:
    """Clean accuracy (and attack SR when a config is given) per gamma.

    A graph without a label is labelled by the undefended ``oracle``, once,
    before the sweep.  Rows are emitted in ascending gamma order.
    """
    graphs = [g if g.label is not None else replace(g, label=oracle.classify(g))
              for g in graphs]
    rows = []
    for gamma in sorted(float(g) for g in gammas):
        defended = DefendedOracle(oracle, LowRankConfig(gamma=gamma))
        row = {"gamma": gamma, "clean_accuracy": clean_accuracy(defended, graphs)}
        if cfg is not None:
            report = run_experiment(defended, graphs, cfg)
            row["SR"] = report.aggregates["SR"]
            row["AP"] = report.aggregates["AP"]
        rows.append(row)
    return rows


def rows_to_csv(rows: list[dict], fields: list[str] | None = None) -> str:
    """``rows`` under the header ``fields``, by default the first row's keys;
    no rows and no ``fields`` give the empty string.  ``None`` is an empty cell."""
    if fields is None:
        if not rows:
            return ""
        fields = list(rows[0])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
