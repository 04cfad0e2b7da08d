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
from contextlib import closing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .attack import AttackConfig, AttackResult, attack_graph
from .defense import DefendedOracle, LowRankConfig
from .errors import BudgetExhausted, ConfigError
# random_attack builds its trials with Graph.flip; the name stays bound here
# because perfbench/tracing.py wraps harness.apply_perturbation by name
from .graph import Graph, apply_perturbation  # noqa: F401
from .oracle import HardLabelOracle, LabelMemo


def _check_random_budgets(budget: float, query_budget: int,
                          name: str = "query_budget") -> None:
    """The random baseline's budgets: a rate in (0, 1] and at least one trial."""
    if not 0.0 < budget <= 1.0:  # also rejects NaN
        raise ConfigError(f"budget must be in (0, 1], got {budget}")
    if query_budget < 1:
        raise ConfigError(f"{name} must be at least 1, got {query_budget}")


def random_attack(
    oracle: HardLabelOracle,
    graph: Graph,
    y0: int,
    budget: float,
    query_budget: int,
    seed: int = 0,
    predicate=None,
) -> AttackResult:
    """Matched-budget baseline: flip a random fraction of slots per trial.

    Each of the ``query_budget`` trials draws a perturbation ratio ``r``
    uniform in [0, budget) and flips
    ``min(max(1, round(r * slots)), floor(budget * slots))`` distinct
    random slots; the ``max(1, ·)`` makes the low end flip one slot.  All
    flip counts are drawn first, in one call; the trials are then
    submitted in ascending flip count until the call's label memo keeps a
    success within the budget (``LabelMemo.best``), and a trial's slots are
    drawn, as a uniform subset of its size, only when it is submitted.
    That first success is the fewest-flip success among all trials: the
    draws ignore the labels, so a trial with at least as many flips cannot
    improve on it.  The memo (``predicate`` defaults to any label but
    ``y0``) answers a trial that repeats an earlier graph, counted in
    ``memo_hits``; trials never submitted are counted in ``skipped``, so
    ``total + memo_hits + skipped == query_budget``.  A budget that allows
    no flip on ``graph`` (``floor(budget * slots) == 0``) draws nothing
    and fails with every trial skipped.

    With an oracle that has a batch label kernel, the trials go in blocks
    (``LabelMemo.in_blocks``): a block's slots are drawn and the labels of
    its graphs not yet in the memo computed in one call before any of
    them is submitted.  So at most one block past the success (or the
    cap) has its slots drawn and its labels computed; none of it is
    submitted or counted.  The generator is local to the call, so no
    outcome moves.  Without a batch kernel, a trial that is never
    submitted costs no slot draw.
    """
    _check_random_budgets(budget, query_budget)
    if predicate is None:
        predicate = lambda label: label != y0
    start = time.perf_counter()
    memo = LabelMemo(oracle, predicate, graph, budget)
    s = graph.n_edge_slots
    max_flips = int(np.floor(budget * s))
    if max_flips == 0:
        return AttackResult.of_run(memo, start, found_in="random", stop_reason="rate_budget",
                                   skipped=query_budget)
    rng = np.random.default_rng(seed)
    # budget * random() is uniform(0, budget); np.rint rounds half to even,
    # as round() does
    flips = np.clip(np.rint(budget * rng.random(query_budget) * s), 1, max_flips)
    trials = (graph.flip(rng.permutation(s)[:n_flip])
              for n_flip in np.sort(flips).astype(int).tolist())
    reason = "iterations"
    submitted = 0
    with closing(memo.in_blocks(trials)) as queue:
        for candidate in queue:
            try:
                memo.adversarial(candidate, "other")
            except BudgetExhausted:
                reason = "query_budget"
                break
            submitted += 1
            if memo.best is not None:
                reason = "converged"
                break
    return AttackResult.of_run(memo, start, found_in="random", stop_reason=reason,
                               skipped=query_budget - submitted)


# -- metrics -------------------------------------------------------------


def aggregate_metrics(results: list[AttackResult]) -> dict:
    """SR / AP / AQ / AT plus added/removed-edge averages."""
    if not results:
        return {"SR": 0.0, "AP": 0.0, "AQ": 0.0, "AT": 0.0,
                "avg_added": 0.0, "avg_removed": 0.0}
    successes = [r for r in results if r.success]
    sr = len(successes) / len(results)
    ap = float(np.mean([r.flips for r in successes])) if successes else 0.0
    aq = float(np.mean([r.queries.get("total", 0) for r in results]))
    at = float(np.mean([r.wall_time for r in results]))
    avg_added = float(np.mean([len(r.added) for r in successes])) if successes else 0.0
    avg_removed = float(np.mean([len(r.removed) for r in successes])) if successes else 0.0
    return {"SR": sr, "AP": ap, "AQ": aq, "AT": at,
            "avg_added": avg_added, "avg_removed": avg_removed}


# -- experiment runner ---------------------------------------------------


@dataclass
class ExperimentReport:
    config: dict
    per_graph: list[dict]
    aggregates: dict
    defense_rows: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        doc = {
            "config": self.config,
            "per_graph": self.per_graph,
            "aggregates": self.aggregates,
        }
        if self.defense_rows:
            doc["defense_rows"] = self.defense_rows
        return doc

    def save_json(self, path):
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    def to_csv(self, include_time: bool = True) -> str:
        """Per-graph rows; drop the wall-time column for byte-stable output."""
        buf = io.StringIO()
        fields = ["id", "success", "flips_added", "flips_removed", "rate",
                  "queries_total", "queries_cgs", "queries_binary_search",
                  "queries_qegc", "memo_hits", "skipped", "found_in"]
        if include_time:
            fields.insert(-1, "time_s")
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in self.per_graph:
            out = {
                "id": row["id"],
                "success": int(row["success"]),
                "flips_added": row["flips_added"],
                "flips_removed": row["flips_removed"],
                "rate": f"{row['rate']:.6f}",
                "queries_total": row["queries"]["total"],
                "queries_cgs": row["queries"].get("cgs", 0),
                "queries_binary_search": row["queries"].get("binary_search", 0),
                "queries_qegc": row["queries"].get("qegc", 0),
                "memo_hits": row["memo_hits"],
                "skipped": row["skipped"],
                "found_in": row["found_in"] or "",
            }
            if include_time:
                out["time_s"] = f"{row['time_s']:.3f}"
            writer.writerow(out)
        return buf.getvalue()

    def save_csv(self, path, include_time: bool = True):
        Path(path).write_text(self.to_csv(include_time))


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

    Selection queries run on a throwaway ledger; they are not attack
    cost.
    """
    probe = oracle.clone()
    targets = []
    for idx, g in enumerate(graphs):
        label = probe.classify(g)
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

    ``method`` is ``signsgd`` or ``random``; each target gets a fresh
    oracle clone so query accounting is per run.  With ``n_trials > 1``
    each target is attacked under ``n_trials`` derived seeds and every
    run contributes one row.
    """
    if method not in ("signsgd", "random"):
        raise ConfigError(f"unknown method {method!r}")
    if method == "random" and random_query_budget is None:
        raise ConfigError("random method needs random_query_budget")
    if random_query_budget is not None:
        _check_random_budgets(cfg.budget, random_query_budget, "random_query_budget")
    if n_trials < 1:
        raise ConfigError(f"n_trials must be at least 1, got {n_trials}")

    targets = select_targets(oracle, graphs)
    rows = []
    results = []
    for idx, graph, y0 in targets:
        for trial in range(n_trials):
            run_oracle = oracle.clone()
            seed = cfg.seed + 7919 * trial + idx
            if method == "signsgd":
                res = attack_graph(run_oracle, graph, y0, replace(cfg, seed=seed))
            else:
                run_oracle.ledger.max_queries = cfg.max_queries
                res = random_attack(
                    run_oracle, graph, y0, cfg.budget, random_query_budget,
                    seed=seed, predicate=cfg.predicate(y0),
                )
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
    """Fraction of labeled graphs the oracle classifies correctly."""
    labeled = [g for g in graphs if g.label is not None]
    if not labeled:
        return 0.0
    probe = oracle.clone()
    hits = sum(probe.classify(g) == g.label for g in labeled)
    return hits / len(labeled)


def defense_sweep(
    oracle: HardLabelOracle,
    graphs: list[Graph],
    gammas,
    cfg: AttackConfig | None = None,
) -> list[dict]:
    """Clean accuracy (and attack SR when a config is given) per gamma.

    Rows are emitted in ascending gamma order.
    """
    rows = []
    for gamma in sorted(float(g) for g in gammas):
        defended = DefendedOracle(oracle.clone(), LowRankConfig(gamma=gamma))
        row = {"gamma": gamma, "clean_accuracy": clean_accuracy(defended, graphs)}
        if cfg is not None:
            report = run_experiment(defended, graphs, cfg)
            row["SR"] = report.aggregates["SR"]
            row["AP"] = report.aggregates["AP"]
        rows.append(row)
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
