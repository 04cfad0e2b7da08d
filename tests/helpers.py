"""Independent reference implementations and shared test data.

Reference code here is deliberately written in a different style from the
library (explicit loops, no shared helpers) so that agreement between
the two is meaningful evidence of correctness.  Test modules import from
here (``from helpers import ...``); pytest fixtures live in ``conftest.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import sys
from itertools import groupby
from pathlib import Path

import numpy as np

from blackedge.attack import AttackResult, solve_g_star
from blackedge.cgs import TRIALS_SCALE, CgsOutcome
from blackedge.defense import BINARIZE_THRESHOLD
from blackedge.errors import (
    BlackedgeError,
    DegenerateTarget,
    NoAdversarialFound,
    NoBoundary,
    ZeroVector,
)
from blackedge.graph import (
    FLIP_THRESHOLD,
    Graph,
    apply_perturbation,
    edge_index_map,
    flip_ledger,
    n_slots,
    normalize,
    perturbation_rate,
)
from blackedge.oracle import FunctionOracle, HardLabelOracle, LabelMemo
from blackedge.partition import (
    MODULARITY_TOL,
    Partition,
    SuperComponent,
    enumerate_components,
)


# -- independent GIN forward pass ----------------------------------------


def reference_gin_logits(weights, graph: Graph) -> np.ndarray:
    """Per-node loop implementation of the message-passing forward pass."""
    n = graph.n_nodes
    adj = reference_adjacency(graph)
    neighbors = [[u for u in range(n) if adj[v, u]] for v in range(n)]
    if graph.features is not None:
        h = [np.array(graph.features[v], dtype=float) for v in range(n)]
    else:
        h = [np.ones(weights.feature_dim) for _ in range(n)]

    pooled = np.zeros_like(h[0])
    for v in range(n):
        pooled = pooled + h[v]
    logits = weights.readout[0].weight @ pooled + weights.readout[0].bias

    for k, layer in enumerate(weights.layers):
        new_h = []
        for v in range(n):
            agg = (1.0 + layer.epsilon) * h[v]
            for u in neighbors[v]:
                agg = agg + h[u]
            out = layer.weight @ agg + layer.bias
            new_h.append(np.where(out > 0.0, out, 0.0))
        h = new_h
        pooled = np.zeros_like(h[0])
        for v in range(n):
            pooled = pooled + h[v]
        head = weights.readout[k + 1]
        logits = logits + head.weight @ pooled + head.bias
    return logits


def reference_dense_gin_logits(weights, graph: Graph) -> np.ndarray:
    """The first dense forward pass, all-ones input included; the
    library's logits must have the same bits."""
    if graph.features is not None:
        h = np.asarray(graph.features, dtype=float)
    else:
        h = np.ones((graph.n_nodes, weights.feature_dim), dtype=float)

    a = graph.adjacency
    logits = weights.readout[0].weight @ h.sum(axis=0) + weights.readout[0].bias
    for layer, head in zip(weights.layers, weights.readout[1:]):
        h = (1.0 + layer.epsilon) * h + a @ h
        h = np.maximum(h @ layer.weight.T + layer.bias, 0.0)
        logits = logits + head.weight @ h.sum(axis=0) + head.bias
    return logits


# -- a lookup oracle --------------------------------------------------------


class UnknownGraph(BlackedgeError):
    """A lookup oracle was queried with a graph outside its table."""


class TableOracle(HardLabelOracle):
    """Pure lookup oracle over an explicit graph -> label table."""

    def __init__(self, labels: dict[bytes, int]):
        self._table = dict(labels)

    @classmethod
    def exhaustive(cls, n_nodes: int, label_fn) -> "TableOracle":
        """Tabulate ``label_fn`` over every graph on ``n_nodes`` nodes."""
        s = n_slots(n_nodes)
        table = {}
        for code in range(1 << s):
            bits = np.array([(code >> k) & 1 for k in range(s)], dtype=np.uint8)
            g = Graph(n_nodes, bits)
            table[g.canonical_key()] = int(label_fn(g))
        return cls(table)

    def _classify(self, graph: Graph) -> int:
        key = graph.canonical_key()
        if key not in self._table:
            raise UnknownGraph(f"graph on {graph.n_nodes} nodes not in the table")
        return self._table[key]


class CountingOracle(FunctionOracle):
    """Oracle of ``fn`` that counts in ``computed`` the labels it computes."""

    def __init__(self, fn):
        super().__init__(fn)
        self.computed = 0

    def _classify(self, graph: Graph) -> int:
        self.computed += 1
        return super()._classify(graph)


# -- label memos -----------------------------------------------------------


def untargeted_memo(oracle, graph, y0=0, budget=1.0, max_queries=None) -> LabelMemo:
    """A fresh run memo on ``oracle`` and target ``graph`` for which any
    label but ``y0`` is adversarial, capped at ``max_queries``."""
    return LabelMemo(oracle, lambda label: label != y0, graph, budget, max_queries)


# -- reference kernels: the first implementations, kept for exact checks


def reference_adjacency(graph: Graph) -> np.ndarray:
    """The dense matrix as a ``uint8`` fill at both triangles, cast to
    float; ``Graph.adjacency`` must equal it."""
    em = edge_index_map(graph.n_nodes)
    a = np.zeros((graph.n_nodes, graph.n_nodes), dtype=np.uint8)
    a[em.rows, em.cols] = graph.bits
    a[em.cols, em.rows] = graph.bits
    return a.astype(float)


def reference_normalize(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    norm = float(np.linalg.norm(theta))
    if norm == 0.0:
        raise ZeroVector("cannot normalize an all-zero direction")
    return theta / norm


def reference_solve_g_star(theta_new, p_old: float) -> float:
    """Objective inversion that evaluates the clipped mass at every
    breakpoint (O(d^2)); the library's fast version must equal it exactly."""
    theta_norm = reference_normalize(theta_new)
    positive = theta_norm[theta_norm > 0]
    p_max = float(positive.size)
    if positive.size == 0 or p_old <= 0.0 or p_old >= p_max:
        raise DegenerateTarget(
            f"target objective {p_old} outside the invertible range (0, {p_max})"
        )
    events = np.unique(
        np.concatenate([FLIP_THRESHOLD / positive, (FLIP_THRESHOLD + 1.0) / positive])
    )
    p_at = np.array(
        [np.clip(g * positive - FLIP_THRESHOLD, 0.0, 1.0).sum() for g in events]
    )
    idx = int(np.searchsorted(p_at, p_old, side="left"))
    if idx == 0:
        raise DegenerateTarget("objective target below the first breakpoint")
    if idx == len(events):
        raise DegenerateTarget("objective target above the saturation plateau")
    g0, g1 = events[idx - 1], events[idx]
    p0, p1 = p_at[idx - 1], p_at[idx]
    if p1 == p0:
        return float(g0)
    return float(g0 + (p_old - p0) * (g1 - g0) / (p1 - p0))


def reference_row_norms(rows) -> np.ndarray:
    """Each row's norm from its own dot product, one row at a time; on a
    C-contiguous stack the library's one-call norms must equal it."""
    return np.array([math.sqrt(row.dot(row)) for row in rows])


def reference_boundary_distance(memo, theta, epsilon=1e-3, lambda_hint=1.0) -> float:
    """Boundary search that builds every probe with ``apply_perturbation``
    of the scaled direction; the library's search by flip count must return
    the same scale, with the same queries and memo hits."""
    theta_norm = normalize(theta)
    positive = theta_norm[theta_norm > 0]
    if positive.size == 0:
        raise NoBoundary("direction has no positive component; no edge can flip")
    saturation = FLIP_THRESHOLD / float(positive.min())
    cap = max(np.sqrt(theta_norm.size), saturation) * (1.0 + 1e-9)

    def adversarial(lam):
        return memo.adversarial(apply_perturbation(memo.graph, lam * theta_norm),
                                "binary_search")

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


def reference_probe(graph: Graph, p_old: float, theta_new) -> Graph | None:
    """One direction's probe graph, built on its own as the first ``qegc_sign``
    built it, or None where that raised; ``probe_graphs`` must return the
    same graph for each row."""
    try:
        theta_norm = normalize(theta_new)
        g_star = solve_g_star(theta_norm, p_old)
    except (DegenerateTarget, ZeroVector):
        return None
    return apply_perturbation(graph, g_star * theta_norm)


def reference_estimate_gradient(memo, theta, p_t, q_directions, mu, rng):
    """Gradient step that draws, prepares and queries one probe at a time
    and sums the signs probe by probe; the library's batched step must
    equal it exactly, in the result, the queries, the memo hits and the
    random stream consumed."""
    d = np.asarray(theta).shape[0]
    grad = np.zeros(d)
    for _ in range(q_directions):
        for _attempt in range(4):
            u = rng.standard_normal(d)
            norm = np.linalg.norm(u)
            if norm == 0.0:
                continue
            u = u / norm
            probe = reference_probe(memo.graph, p_t, theta + mu * u)
            if probe is None:
                continue
            s = -1 if memo.adversarial(probe, "qegc") else +1
            grad += s * np.sign(u)
            break
    return grad / q_directions


def reference_flip_ledger(a: Graph, b: Graph):
    """Edges added and removed from ``a`` to ``b``, one slot at a time."""
    em = edge_index_map(a.n_nodes)
    added, removed = [], []
    for k in range(a.n_edge_slots):
        if a.bits[k] != b.bits[k]:
            pair = (int(em.rows[k]), int(em.cols[k]))
            (added if b.bits[k] else removed).append(pair)
    return added, removed


def reference_low_rank_reconstruction(graph: Graph, cfg) -> np.ndarray:
    """Truncated-spectrum matrix from the reference adjacency, gathering the
    kept eigenvectors twice; the library's must have the same bits."""
    eigvals, eigvecs = np.linalg.eigh(reference_adjacency(graph))
    order = np.argsort(-np.abs(eigvals))
    keep = order[: cfg.rank(graph.n_nodes)]
    return (eigvecs[:, keep] * eigvals[keep]) @ eigvecs[:, keep].T


def reference_low_rank_filter(graph: Graph, cfg) -> Graph:
    """Low-rank filter through the dense matrix and ``from_adjacency``;
    the library's version, which reads the slots directly, must equal it."""
    approx = reference_low_rank_reconstruction(graph, cfg)
    binary = (approx >= BINARIZE_THRESHOLD)
    binary = (binary | binary.T).astype(np.uint8)
    np.fill_diagonal(binary, 0)
    return from_adjacency(binary, features=graph.features, label=graph.label)


def reference_two_take_low_rank_filter(graph: Graph, cfg) -> Graph:
    """The filter's earlier binarisation: each slot's upper and mirrored
    entry thresholded and taken separately, then joined by OR."""
    keep = (reference_low_rank_reconstruction(graph, cfg) >= BINARIZE_THRESHOLD).ravel()
    em = edge_index_map(graph.n_nodes)
    bits = (keep.take(em.upper) | keep.take(em.lower)).astype(np.uint8)
    return Graph(graph.n_nodes, bits, graph.features, graph.label)


def reference_flip(graph: Graph, slots) -> Graph:
    """The random baseline's earlier trial build: a 0/1 weight vector on
    ``slots`` through ``apply_perturbation``."""
    theta = np.zeros(graph.n_edge_slots)
    theta[slots] = 1.0
    return apply_perturbation(graph, theta)


def reference_coarse_grained_search(memo, partition, strategy="I", rng_seed=0):
    """Coarse search that submits every trial of a phase in draw order and
    keeps the first one with the fewest flips among the successes; the
    library's gallop and bisection must return the same outcome when
    labels grow monotonically with the flip count.

    It draws a phase's flip counts as the library does, one component at a
    time, its fractions then its sides (0: the non-edges, 1: the edges, a
    side without slots standing for the whole component).  It then draws
    every trial's slots from its side in flip order, where the library
    draws its gallop's first; so the two give a trial the same slots, and
    a later phase the same counts, only with a generator whose slot draws
    do not depend on when they are made."""
    graph = memo.graph
    rng = np.random.default_rng(rng_seed)
    trials = 0
    for kind, phase in groupby(enumerate_components(partition, strategy), lambda c: c.kind):
        draws = []  # (flips, side slots), in draw order
        for comp in phase:
            s = rng.uniform(0.0, 1.0, TRIALS_SCALE * comp.n_incident)
            sides = rng.integers(0, 2, TRIALS_SCALE * comp.n_incident)
            for u, side in zip(s, sides):
                pool = np.array([slot for slot in comp.slots if graph.bits[slot] == side],
                                dtype=np.int64)
                if pool.size == 0:
                    pool = comp.slots
                draws.append((max(1, round(u * pool.size)), pool))
        chosen = [None] * len(draws)
        for i in sorted(range(len(draws)), key=lambda i: draws[i][0]):
            n_flip, slots = draws[i]
            chosen[i] = rng.permutation(slots)[:n_flip]
        best, best_flips = None, None
        for (n_flip, _), flipped in zip(draws, chosen):
            theta = np.zeros(graph.n_edge_slots)
            theta[flipped] = 1.0
            adversarial = memo.adversarial(apply_perturbation(graph, theta), "cgs")
            if adversarial and (best is None or n_flip < best_flips):
                best, best_flips = CgsOutcome(theta, kind, 0), n_flip
        if best is not None:
            return best
        trials += len(draws)
    raise NoAdversarialFound(
        f"no adversarial graph after {trials} trials across all phases"
    )


def reference_max_flips(n_slots: int, budget: float) -> int:
    """The most flips whose perturbation rate is within ``budget``: every
    count from 0 to ``n_slots`` is tried at its rate, ``count / n_slots``
    (over one slot on a graph without any), as ``perturbation_rate``
    computes it."""
    counts = np.arange(n_slots + 1)
    return int(np.flatnonzero(counts / max(n_slots, 1) <= budget)[-1])


def reference_keeps(graph: Graph, best: Graph | None, candidate: Graph, budget: float) -> bool:
    """The first keep rule of the run memo, on rates: an adversarial
    ``candidate`` replaces ``best`` iff its perturbation rate is within
    ``budget`` and below that of ``best``."""
    rate = perturbation_rate(graph, candidate)
    return rate <= budget and (best is None or rate < perturbation_rate(graph, best))


def reference_random_attack(oracle, graph, y0, cfg, query_budget):
    """Random baseline that queries every draw in draw order and keeps the
    first one with the fewest flips among the successes.

    It draws as the library does: every flip count in one call, capped at
    ``reference_max_flips``, then every trial's slots in flip order; only
    the submission order differs.  Its ``stop_reason`` is the library's: a
    success ends the library's trials (``converged``), and without one it
    submits them all (``iterations``)."""
    predicate = cfg.predicate(y0)
    rng = np.random.default_rng(cfg.seed)
    s = graph.n_edge_slots
    max_flips = max(1, reference_max_flips(s, cfg.budget))
    flips = [min(max(1, round(float(r) * s)), max_flips)
             for r in rng.uniform(0.0, cfg.budget, query_budget)]
    chosen = [None] * query_budget
    for i in sorted(range(query_budget), key=lambda i: flips[i]):
        chosen[i] = rng.permutation(s)[:flips[i]]
    best_graph = None
    # every draw is queried, in the phase the library counts them in
    queries = {"cgs": 0, "binary_search": 0, "qegc": 0, "other": len(chosen),
               "total": len(chosen)}
    for slots in chosen:
        theta = np.zeros(s)
        theta[slots] = 1.0
        candidate = apply_perturbation(graph, theta)
        label = oracle.classify(candidate)
        if predicate(label) and reference_keeps(graph, best_graph, candidate, cfg.budget):
            best_graph = candidate
    if best_graph is None:
        return AttackResult(success=False, adversarial_graph=graph,
                            queries=queries, found_in="random",
                            stop_reason="iterations")
    added, removed = flip_ledger(graph, best_graph)
    return AttackResult(success=True, adversarial_graph=best_graph,
                        added=added, removed=removed,
                        rate=perturbation_rate(graph, best_graph),
                        queries=queries, found_in="random",
                        stop_reason="converged")


def hashed_label(graph: Graph) -> int:
    """A pseudo-random 8-class labelling: no structure for a search to follow."""
    return hashlib.blake2b(graph.bits.tobytes(), digest_size=1).digest()[0] % 8


def search_label_cases(graph: Graph):
    """(label function, clean label, target label) triples for checking a
    search against its reference: monotone boundaries in both directions,
    a pseudo-random 8-class labelling (untargeted and targeted) and a
    constant label that nothing flips."""
    m = graph.n_edges
    y_hash = hashed_label(graph)
    cases = []
    for k in (1, 3):
        cases.append((lambda h, t=m + k: int(h.n_edges >= t), 0, None))
        cases.append((lambda h, t=m - k + 1: int(h.n_edges >= t), 1, None))
    cases.append((hashed_label, y_hash, None))
    cases.append((hashed_label, y_hash, (y_hash + 1) % 8))
    cases.append((lambda h: 0, 0, None))
    return cases


def reference_one_level(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One Louvain phase over the dense matrix with numpy scalars, in full
    passes until one makes no move; the library's list-based sweep, which
    stops after n visits without a move, must return the same communities."""
    n = a.shape[0]
    m2 = a.sum()
    degrees = a.sum(axis=1)
    community = np.arange(n)
    tot = degrees.copy()

    order = rng.permutation(n)
    improved = True
    while improved:
        improved = False
        for i in order:
            ci = community[i]
            ki = degrees[i]
            links = {}
            for j in np.flatnonzero(a[i]):
                if j == i:
                    continue
                cj = community[j]
                links[cj] = links.get(cj, 0.0) + a[i, j]
            tot[ci] -= ki
            base = links.get(ci, 0.0) - tot[ci] * ki / m2
            best_c, best_gain = ci, 0.0
            for cj in sorted(links):
                delta = (links[cj] - tot[cj] * ki / m2) - base
                if delta > best_gain + 1e-15:
                    best_gain = delta
                    best_c = cj
            community[i] = best_c
            tot[best_c] += ki
            if best_c != ci:
                improved = True
    return community


def reference_relabel(assignment) -> tuple[np.ndarray, int]:
    """Contiguous ids ordered by each cluster's smallest member."""
    seen = {}
    out = np.empty(len(assignment), dtype=np.int64)
    for node, c in enumerate(assignment):
        if c not in seen:
            seen[c] = len(seen)
        out[node] = seen[c]
    return out, len(seen)


def modularity_matrix(a: np.ndarray, assignment: np.ndarray) -> float:
    """Modularity of ``assignment`` on ``a``, a 0/1 matrix or a Louvain
    level contracted from one, so integer-valued.

    Each community's internal and degree sums come from one indicator
    matrix; they are sums of integers, exact in any order.  The terms are
    added in ascending community id, as scalars.
    """
    m2 = a.sum()
    if m2 == 0:
        return 0.0
    degrees = a.sum(axis=1)
    indicator = (assignment[:, None] == np.unique(assignment)).astype(float)
    internal = ((a @ indicator) * indicator).sum(axis=0)
    degree_sums = degrees @ indicator
    q = 0.0
    for inside, degree in zip(internal, degree_sums):
        q += inside / m2 - (degree / m2) ** 2
    return float(q)


def reference_louvain(graph: Graph, seed: int = 0) -> Partition:
    """Louvain on dense matrices: each level is swept by
    ``reference_one_level``, contracted by ``indicator.T @ a @ indicator``
    and scored by ``modularity_matrix`` on the graph, with each current
    node's original members tracked as a list of node groups.  The library
    sweeps neighbour lists and scores each level from its sums, and must
    return the same partition."""
    n = graph.n_nodes
    if graph.n_edges == 0:
        return Partition(np.arange(n), n)
    rng = np.random.default_rng(seed)
    dense = graph.adjacency
    a = dense
    node_groups = [[v] for v in range(n)]  # original nodes of each current node
    assignment = np.arange(n)
    q = modularity_matrix(dense, assignment)
    while True:
        level, k = reference_relabel(reference_one_level(a, rng))
        new_groups = [[] for _ in range(k)]
        for i, c in enumerate(level):
            new_groups[c].extend(node_groups[i])
        candidate = np.empty(n, dtype=np.int64)
        for c, group in enumerate(new_groups):
            candidate[group] = c
        new_q = modularity_matrix(dense, candidate)
        if new_q - q < MODULARITY_TOL:
            break
        q = new_q
        assignment = candidate
        node_groups = new_groups
        indicator = np.zeros((a.shape[0], k))
        indicator[np.arange(a.shape[0]), level] = 1.0
        a = indicator.T @ a @ indicator
        if k == 1:
            break
    assignment, k = reference_relabel(assignment)
    return Partition(assignment, k)


def reference_enumerate_components(partition: Partition, strategy: str = "I") -> list:
    """Search components from one scan of all slots per cluster and per
    cluster pair; the library groups the slots in one sort and must return
    the same components in the same order."""
    n = partition.n_nodes
    whole = SuperComponent("whole_graph", (), np.arange(n_slots(n)), n)
    if strategy == "III":
        return [whole] if whole.slots.size else []
    em = edge_index_map(n)
    row_c = partition.assignment[em.rows]
    col_c = partition.assignment[em.cols]
    sizes = partition.cluster_sizes
    supernodes, superlinks = [], []
    for c1 in range(partition.n_clusters):
        slots = np.flatnonzero((row_c == c1) & (col_c == c1))
        if slots.size:
            supernodes.append(SuperComponent("supernode", (c1,), slots, int(sizes[c1])))
        for c2 in range(c1 + 1, partition.n_clusters):
            mask = ((row_c == c1) & (col_c == c2)) | ((row_c == c2) & (col_c == c1))
            slots = np.flatnonzero(mask)
            if slots.size:
                superlinks.append(SuperComponent("superlink", (c1, c2), slots,
                                                 int(sizes[c1] + sizes[c2])))
    supernodes.sort(key=lambda comp: (comp.slots.size, comp.clusters))
    superlinks.sort(key=lambda comp: (comp.slots.size, comp.clusters))
    phases = [supernodes, superlinks] if strategy == "I" else [superlinks, supernodes]
    return [comp for phase in phases for comp in phase] + [whole]


def reference_modularity_matrix(a: np.ndarray, assignment: np.ndarray) -> float:
    """Modularity with one masked block sum per community; each Louvain
    level's q and ``modularity_matrix`` must return the same bits."""
    m2 = a.sum()
    if m2 == 0:
        return 0.0
    degrees = a.sum(axis=1)
    q = 0.0
    for c in np.unique(assignment):
        idx = assignment == c
        q += a[np.ix_(idx, idx)].sum() / m2 - (degrees[idx].sum() / m2) ** 2
    return float(q)


# -- exhaustive set-partition enumeration --------------------------------


def set_partitions(n: int):
    """Every partition of {0..n-1} as an assignment array."""

    def rec(node, assignment, n_used):
        if node == n:
            yield np.array(assignment, dtype=np.int64)
            return
        for c in range(n_used):
            yield from rec(node + 1, assignment + [c], n_used)
        yield from rec(node + 1, assignment + [n_used], n_used + 1)

    yield from rec(0, [], 0)


def reference_modularity(graph: Graph, assignment) -> float:
    """Direct double sum over node pairs of the modularity definition."""
    a = reference_adjacency(graph)
    m2 = a.sum()
    if m2 == 0:
        return 0.0
    deg = a.sum(axis=1)
    q = 0.0
    for i in range(graph.n_nodes):
        for j in range(graph.n_nodes):
            if assignment[i] == assignment[j]:
                q += a[i, j] - deg[i] * deg[j] / m2
    return q / m2


# -- tiny TU-format fixture ----------------------------------------------


TU_FIXTURE = {
    # graph 1: triangle on nodes 1,2,3; graph 2: path 4-5-6
    "A.txt": "1, 2\n2, 1\n1, 3\n3, 1\n2, 3\n3, 2\n4, 5\n5, 4\n5, 6\n6, 5\n",
    "graph_indicator.txt": "1\n1\n1\n2\n2\n2\n",
    "graph_labels.txt": "1\n-1\n",
    "node_labels.txt": "0\n0\n1\n1\n2\n2\n",
}


# -- the benchmark's modules ---------------------------------------------


def perfbench_module(name: str):
    """``perfbench/<name>.py``, loaded by path: ``perfbench`` is no package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


# -- graph construction --------------------------------------------------


def from_adjacency(adjacency, features=None, label=None) -> Graph:
    """The graph of a symmetric 0/1 matrix with a zero diagonal."""
    a = np.asarray(adjacency)
    assert np.array_equal(a, a.T) and not np.diag(a).any(), "not a simple graph"
    n = a.shape[0]
    bits = [a[i, j] for i in range(n) for j in range(i + 1, n)]
    return Graph(n, np.array(bits, dtype=np.uint8), features, label)


def complete_graph(n_nodes: int, **kw) -> Graph:
    return Graph(n_nodes, np.ones(n_slots(n_nodes), dtype=np.uint8), **kw)


def random_graph(rng: np.random.Generator, n: int) -> Graph:
    bits = (rng.random(n * (n - 1) // 2) < rng.uniform(0.1, 0.9)).astype(np.uint8)
    return Graph(n, bits)
