"""Community detection and the supernode / superlink decomposition.

Louvain partitions drive the phased initial search: edge slots inside a
cluster form a supernode component, slots between two clusters form a
superlink, and together they partition all candidate slots of the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, edge_index_map, n_slots

MODULARITY_TOL = 1e-7
STRATEGIES = ("I", "II", "III")


@dataclass(frozen=True)
class Partition:
    """Node -> cluster assignment with contiguous cluster ids."""

    assignment: np.ndarray  # int array of length n_nodes
    n_clusters: int

    def __post_init__(self):
        a = np.ascontiguousarray(self.assignment, dtype=np.int64)
        a.flags.writeable = False
        object.__setattr__(self, "assignment", a)
        if a.size and (a.min() < 0 or a.max() >= self.n_clusters):
            raise ValueError("cluster ids must be contiguous from 0")

    @property
    def n_nodes(self) -> int:
        return self.assignment.shape[0]

    @property
    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_clusters)


def modularity(graph: Graph, assignment) -> float:
    """Classic Newman modularity of a node partition (resolution 1)."""
    a = graph.adjacency.astype(float)
    return _modularity_matrix(a, np.asarray(assignment, dtype=np.int64))


def _modularity_matrix(a: np.ndarray, assignment: np.ndarray) -> float:
    """Modularity of ``assignment`` on the 0/1 matrix ``a``.

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


def _one_level(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One Louvain phase: greedy node moves until no positive gain.

    Ties between equal-gain target communities break to the lowest
    community id, so runs are reproducible given the visit order.

    The sweep runs on Python floats over per-node neighbour lists; the
    sums and comparisons are the float64 operations of a loop over the
    matrix rows, in the same order.
    """
    n = a.shape[0]
    m2 = float(a.sum())
    degrees = a.sum(axis=1).tolist()
    community = list(range(n))
    tot = list(degrees)  # total degree per community
    # (neighbour, weight) in ascending neighbour order, self excluded
    neighbours = []
    for i in range(n):
        js = np.flatnonzero(a[i])
        js = js[js != i]
        neighbours.append(list(zip(js.tolist(), a[i, js].tolist())))

    order = rng.permutation(n).tolist()
    improved = True
    while improved:
        improved = False
        for i in order:
            ci = community[i]
            ki = degrees[i]
            # weights from i to each neighboring community
            links = {}
            for j, w in neighbours[i]:
                cj = community[j]
                links[cj] = links.get(cj, 0.0) + w
            tot[ci] -= ki
            # gain of joining community c (up to a factor 2/m2 shared by
            # all candidates): k_{i,c} - tot_c * k_i / m2
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
    return np.array(community, dtype=np.int64)


def _relabel(assignment: np.ndarray) -> tuple[np.ndarray, int]:
    """Contiguous ids ordered by each cluster's smallest member."""
    seen = {}
    out = np.empty_like(assignment)
    for node, c in enumerate(assignment):
        if c not in seen:
            seen[c] = len(seen)
        out[node] = seen[c]
    return out, len(seen)


def louvain(graph: Graph, seed: int = 0) -> Partition:
    """Two-phase Louvain maximizing modularity, deterministic given seed.

    Edgeless graphs (and isolated nodes) end as singleton clusters.
    """
    n = graph.n_nodes
    if graph.n_edges == 0:
        return Partition(np.arange(n), n)

    rng = np.random.default_rng(seed)
    dense = graph.adjacency.astype(float)
    a = dense  # the current level's (contracted) matrix
    # node_groups[i] = original nodes merged into current node i
    node_groups = [[v] for v in range(n)]
    assignment = np.arange(n)
    q = _modularity_matrix(dense, assignment)

    while True:
        level = _one_level(a, rng)
        level, k = _relabel(level)
        # contract communities
        new_groups = [[] for _ in range(k)]
        for i, c in enumerate(level):
            new_groups[c].extend(node_groups[i])
        candidate = np.empty(n, dtype=np.int64)
        for c, group in enumerate(new_groups):
            candidate[group] = c
        new_q = _modularity_matrix(dense, candidate)
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

    assignment, k = _relabel(assignment)
    return Partition(assignment, k)


# -- supernode / superlink decomposition ---------------------------------


@dataclass(frozen=True)
class SuperComponent:
    """A block of candidate edge slots to search as a unit."""

    kind: str  # "supernode" | "superlink" | "whole_graph"
    clusters: tuple[int, ...]
    slots: np.ndarray  # flat slot indices
    n_incident: int  # nodes touching the component

    def __post_init__(self):
        s = np.ascontiguousarray(self.slots, dtype=np.int64)
        s.flags.writeable = False
        object.__setattr__(self, "slots", s)


SUPERNODE = "supernode"
SUPERLINK = "superlink"
WHOLE_GRAPH = "whole_graph"


def _component_slots(partition: Partition, kind: str, clusters: tuple[int, ...]) -> np.ndarray:
    em = edge_index_map(partition.n_nodes)
    row_c = partition.assignment[em.rows]
    col_c = partition.assignment[em.cols]
    if kind == SUPERNODE:
        (c,) = clusters
        mask = (row_c == c) & (col_c == c)
    else:
        c1, c2 = clusters
        mask = ((row_c == c1) & (col_c == c2)) | ((row_c == c2) & (col_c == c1))
    return np.flatnonzero(mask)


def enumerate_components(partition: Partition, strategy: str = "I") -> list[SuperComponent]:
    """Ordered search components for a strategy.

    Strategy I: supernodes, then superlinks, then the whole graph;
    strategy II swaps the first two phases; strategy III searches the
    whole slot space only.  Within a phase components are ordered by
    ascending slot count (id order on ties); empty components are
    dropped.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be I, II or III, got {strategy!r}")

    n = partition.n_nodes
    whole = SuperComponent(WHOLE_GRAPH, (), np.arange(n_slots(n)), n)
    if strategy == "III":
        return [whole] if whole.slots.size else []

    sizes = partition.cluster_sizes
    supernodes = []
    for c in range(partition.n_clusters):
        slots = _component_slots(partition, SUPERNODE, (c,))
        if slots.size:
            supernodes.append(SuperComponent(SUPERNODE, (c,), slots, int(sizes[c])))
    superlinks = []
    for c1 in range(partition.n_clusters):
        for c2 in range(c1 + 1, partition.n_clusters):
            slots = _component_slots(partition, SUPERLINK, (c1, c2))
            if slots.size:
                superlinks.append(
                    SuperComponent(SUPERLINK, (c1, c2), slots, int(sizes[c1] + sizes[c2]))
                )
    supernodes.sort(key=lambda comp: (comp.slots.size, comp.clusters))
    superlinks.sort(key=lambda comp: (comp.slots.size, comp.clusters))

    phases = [supernodes, superlinks] if strategy == "I" else [superlinks, supernodes]
    return [comp for phase in phases for comp in phase] + [whole]


# -- search-space accounting ---------------------------------------------


@dataclass(frozen=True)
class SearchSpaceReport:
    s_node: int
    s_link: int
    s_graph: int
    beta: float  # inf when it overflows a float
    log2_beta: float


def _log2_big(x: int) -> float:
    if x <= 0:
        raise ValueError("log2 of a non-positive integer")
    bl = x.bit_length()
    if bl <= 53:
        return math.log2(x)
    shift = bl - 53
    return math.log2(x >> shift) + shift


def search_space_report(partition: Partition) -> SearchSpaceReport:
    """Exact candidate-space sizes of the phased search vs the full space.

    ``beta`` is the full-space-to-phased-space ratio; ``log2_beta`` stays
    finite when the exact ratio overflows floating point.
    """
    sizes = [int(d) for d in partition.cluster_sizes]
    s_node = sum(1 << (d * (d - 1) // 2) for d in sizes)
    s_link = sum(
        1 << (sizes[i] * sizes[j])
        for i in range(len(sizes))
        for j in range(i + 1, len(sizes))
    )
    s_graph = 1 << n_slots(partition.n_nodes)
    denom = s_node + s_link
    log2_beta = _log2_big(s_graph) - _log2_big(denom)
    try:
        beta = s_graph / denom
    except OverflowError:
        beta = math.inf
    return SearchSpaceReport(s_node, s_link, s_graph, beta, log2_beta)
