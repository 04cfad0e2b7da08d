"""Spans around the public functions of each blackedge module.

The tracer replaces each traced function at the name its caller looks it
up by (a module global, or a method on the oracle classes), so nothing in
the program changes.  ``apply_perturbation``, for instance, is bound
separately in ``attack``, ``cgs`` and ``harness`` and is wrapped at all
three sites under one span name.

A span is (name, start, end, parent) plus the id of the target being
attacked.  Spans live in flat in-memory arrays until ``save`` writes them
out.  Counters are taken at the same boundaries: each outermost
``classify`` is attributed to the phase of its nearest phase-defining
ancestor span and flagged when it re-submits a graph (by
``canonical_key``) already asked about for the same target.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

import numpy as np

from blackedge import attack, cgs, defense, gin, harness, oracle, partition
from blackedge.errors import DegenerateTarget, ZeroVector

PHASES = ("cgs", "binary_search", "qegc", "other")
CGS, BINARY_SEARCH, QEGC, OTHER = range(4)
# Target selection classifies on a throwaway clone: not attack cost.
UNCOUNTED = 4
PHASE_OF_SPAN = {
    "harness.select_targets": UNCOUNTED,
    "cgs.coarse_grained_search": CGS,
    "attack.boundary_distance": BINARY_SEARCH,
    "attack.qegc_sign": QEGC,
}
# span exit status
OK, DEGENERATE, RAISED = 0, 1, 2
# per-span query kind: only outermost attack-cost classify calls are queries
NOT_QUERY, FRESH, REPEAT = 0, 1, 2

CLASSIFY = "oracle.classify"
ROOT = "harness.run_experiment"  # spans are recorded only inside this call
COLUMNS = {"name": np.intc, "start": np.float64, "end": np.float64,
           "parent": np.int64, "target": np.int64, "phase": np.int8,
           "status": np.int8, "query": np.int8}


def wrap_points():
    """(owner, attribute, span name) for every traced call site."""
    return [
        (harness, "run_experiment", ROOT),
        (harness, "select_targets", "harness.select_targets"),
        (harness, "random_attack", "harness.random_attack"),
        (harness, "attack_graph", "attack.attack_graph"),
        (harness, "apply_perturbation", "graph.apply_perturbation"),
        (attack, "sign_sgd_attack", "attack.sign_sgd_attack"),
        (attack, "boundary_distance", "attack.boundary_distance"),
        (attack, "estimate_gradient", "attack.estimate_gradient"),
        (attack, "qegc_sign", "attack.qegc_sign"),
        (attack, "solve_g_star", "attack.solve_g_star"),
        (attack, "objective_p", "attack.objective_p"),
        (attack, "apply_perturbation", "graph.apply_perturbation"),
        (cgs, "coarse_grained_search", "cgs.coarse_grained_search"),
        (cgs, "apply_perturbation", "graph.apply_perturbation"),
        (partition, "louvain", "partition.louvain"),
        (oracle.HardLabelOracle, "classify", CLASSIFY),
        (defense.DefendedOracle, "classify", CLASSIFY),
        (defense, "low_rank_filter", "defense.low_rank_filter"),
        (gin, "gin_forward", "gin.gin_forward"),
    ]


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.target = array("q")
        self.phase = array("b")
        self.status = array("b")
        self.query = array("b")
        self._stack: list[tuple[int, int, int]] = []  # (span, name id, phase)
        self._target = -1
        self._seen: set[bytes] = set()
        self._saved: list[tuple[object, str, object]] = []

    def begin_target(self, target_id: int):
        """Spans from now on belong to ``target_id``; repeats restart."""
        self._target = target_id
        self._seen = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        t = self
        nid = self._name_id(name)
        classify_id = self._name_id(CLASSIFY)
        root_id = self._name_id(ROOT)
        own_phase = PHASE_OF_SPAN.get(name)
        is_classify = name == CLASSIFY

        def traced(*args, **kwargs):
            stack = t._stack
            if not stack and nid != root_id:  # outside run_experiment: not traced
                return fn(*args, **kwargs)
            parent, parent_name, phase = stack[-1] if stack else (-1, -1, OTHER)
            if own_phase is not None:
                phase = own_phase
            kind = NOT_QUERY
            if is_classify and parent_name != classify_id and phase != UNCOUNTED:
                key = args[1].canonical_key()
                kind = REPEAT if key in t._seen else FRESH
                t._seen.add(key)
            sid = len(t.name)
            t.name.append(nid)
            t.parent.append(parent)
            t.target.append(t._target)
            t.phase.append(phase)
            t.status.append(OK)
            t.query.append(kind)
            t.end.append(0.0)
            stack.append((sid, nid, phase))
            t.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except (DegenerateTarget, ZeroVector):
                t.status[sid] = DEGENERATE
                raise
            except BaseException:
                t.status[sid] = RAISED
                raise
            finally:
                t.end[sid] = perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        for owner, attr, name in wrap_points():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- analysis ----------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        # copies, so no buffer stays exported and the arrays can grow again
        return {key: np.frombuffer(getattr(self, key), dtype=dtype).copy()
                for key, dtype in COLUMNS.items()}

    def phase_counts(self, n_targets: int) -> np.ndarray:
        """(target, phase) matrix of attack queries seen at ``classify``."""
        c = self.columns()
        q = c["query"] != NOT_QUERY
        flat = c["target"][q] * len(PHASES) + c["phase"][q]
        return np.bincount(flat, minlength=n_targets * len(PHASES)).reshape(
            n_targets, len(PHASES))

    def save(self, path, meta: dict):
        np.savez_compressed(path, names=np.array(self.names), meta=json.dumps(meta),
                            **self.columns())


def layer_metrics(tracer: Tracer, n_targets: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass over ``n_targets`` targets.

    ``share`` is a span's self time (its duration minus the time covered
    by its child spans) summed over the layer, as a fraction of the
    traced wall time.  Ratios with an empty base read 0.
    """
    c = tracer.columns()
    dur = c["end"] - c["start"]
    nested = c["parent"] >= 0
    covered = np.bincount(c["parent"][nested], weights=dur[nested], minlength=dur.size)
    self_time = dur - covered
    wall = float(dur[~nested].sum())
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return c["name"] == ids.get(name, -1)

    def ratio(num, den):
        return float(num) / den if den else 0.0

    def share(name):
        return ratio(self_time[mask(name)].sum(), wall)

    def mean_s(m):
        return ratio(dur[m].sum(), m.sum())

    def calls(name):
        return ratio(mask(name).sum(), n_targets)

    queries = c["query"] != NOT_QUERY
    in_phase = [queries & (c["phase"] == p) for p in range(len(PHASES))]
    repeats = c["query"] == REPEAT
    qegc = mask("attack.qegc_sign")
    cgs_calls = mask("cgs.coarse_grained_search")
    bd_calls = mask("attack.boundary_distance")

    m = {
        "attack.solve_g_star.calls": (calls("attack.solve_g_star"), "calls/target"),
        "attack.solve_g_star.us_per_call": (1e6 * mean_s(mask("attack.solve_g_star")), "us"),
        "attack.solve_g_star.share": (share("attack.solve_g_star"), "fraction"),
        "attack.qegc_sign.degenerate_share": (
            ratio((c["status"][qegc] == DEGENERATE).sum(), qegc.sum()), "fraction"),
        "attack.boundary_distance.calls": (calls("attack.boundary_distance"), "calls/target"),
        "attack.boundary_distance.queries_per_call": (
            ratio(in_phase[BINARY_SEARCH].sum(), bd_calls.sum()), "queries/call"),
        "attack.boundary_distance.share": (share("attack.boundary_distance"), "fraction"),
        "attack.estimate_gradient.self_share": (share("attack.estimate_gradient"), "fraction"),
        "oracle.classify.calls": (ratio(queries.sum(), n_targets), "calls/target"),
        "oracle.classify.us_per_call": (1e6 * mean_s(queries), "us"),
        "oracle.classify.share": (share(CLASSIFY), "fraction"),
    }
    for p, phase in enumerate(PHASES):
        m[f"oracle.queries.{phase}"] = (ratio(in_phase[p].sum(), n_targets), "queries/target")
    m["oracle.repeat_share"] = (ratio(repeats.sum(), queries.sum()), "fraction")
    for p, phase in enumerate(PHASES):
        m[f"oracle.repeat_share.{phase}"] = (
            ratio((repeats & in_phase[p]).sum(), in_phase[p].sum()), "fraction")
    m.update({
        "gin.gin_forward.us_per_call": (1e6 * mean_s(mask("gin.gin_forward")), "us"),
        "gin.gin_forward.share": (share("gin.gin_forward"), "fraction"),
        "defense.low_rank_filter.us_per_call": (
            1e6 * mean_s(mask("defense.low_rank_filter")), "us"),
        "defense.low_rank_filter.share": (share("defense.low_rank_filter"), "fraction"),
        "graph.apply_perturbation.calls": (calls("graph.apply_perturbation"), "calls/target"),
        "graph.apply_perturbation.us_per_call": (
            1e6 * mean_s(mask("graph.apply_perturbation")), "us"),
        "graph.apply_perturbation.share": (share("graph.apply_perturbation"), "fraction"),
        "partition.louvain.ms_per_call": (1e3 * mean_s(mask("partition.louvain")), "ms"),
        "partition.louvain.share": (share("partition.louvain"), "fraction"),
        "cgs.coarse_grained_search.share": (share("cgs.coarse_grained_search"), "fraction"),
        "cgs.coarse_grained_search.queries_per_call": (
            ratio(in_phase[CGS].sum(), cgs_calls.sum()), "queries/call"),
        "cgs.coarse_grained_search.seed_found_share": (
            ratio((c["status"][cgs_calls] == OK).sum(), cgs_calls.sum()), "fraction"),
        "harness.random_attack.share": (share("harness.random_attack"), "fraction"),
        "harness.select_targets.s": (mean_s(mask("harness.select_targets")), "s"),
    })
    return m
