"""Community detection and the supernode / superlink decomposition.

Louvain partitions drive the phased initial search: edge slots inside a
cluster form a supernode component, slots between two clusters form a
superlink, and together they partition all candidate slots of the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
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
            raise ConfigError("cluster ids must be contiguous from 0")

    @property
    def n_nodes(self) -> int:
        return self.assignment.shape[0]

    @property
    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_clusters)


def _modularity_matrix(a: np.ndarray, assignment: np.ndarray) -> float:
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
    a = graph.adjacency  # the current level's (contracted) matrix
    assignment = np.arange(n)  # original node -> its node at the current level
    q = _modularity_matrix(a, assignment)

    while True:
        level, k = _relabel(_one_level(a, rng))
        # level's community sums on a are level[assignment]'s on the graph
        new_q = _modularity_matrix(a, level)
        if new_q - q < MODULARITY_TOL:
            break
        q = new_q
        assignment = level[assignment]
        # contract communities
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


def enumerate_components(partition: Partition, strategy: str = "I") -> list[SuperComponent]:
    """Ordered search components for a strategy.

    Strategy I: supernodes, then superlinks, then the whole graph;
    strategy II swaps the first two phases; strategy III searches the
    whole slot space only.  Within a phase components are ordered by
    ascending slot count (id order on ties); empty components are
    dropped.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be I, II or III, got {strategy!r}")

    n = partition.n_nodes
    whole = SuperComponent(WHOLE_GRAPH, (), np.arange(n_slots(n)), n)
    if strategy == "III":
        return [whole] if whole.slots.size else []

    sizes = partition.cluster_sizes
    em = edge_index_map(n)
    # each slot's endpoint clusters (c1, c2) with c1 <= c2; a stable sort
    # by the pair keeps each component's slots ascending
    ends = np.sort(partition.assignment[np.stack([em.rows, em.cols])], axis=0)
    key = ends[0] * partition.n_clusters + ends[1]
    order = np.argsort(key, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(key[order])) + 1) if order.size else []
    supernodes, superlinks = [], []
    for slots in groups:
        c1, c2 = ends[:, slots[0]].tolist()
        if c1 == c2:
            supernodes.append(SuperComponent(SUPERNODE, (c1,), slots, int(sizes[c1])))
        else:
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


def search_space_report(partition: Partition) -> SearchSpaceReport:
    """Exact candidate-space sizes of the phased search vs the full space.

    ``beta`` is the full-space-to-phased-space ratio; ``log2_beta`` stays
    finite when the exact ratio overflows floating point.  A partition
    without a cluster has no phased space, and raises ``ConfigError``.
    """
    if partition.n_clusters == 0:
        raise ConfigError("the empty partition has no cluster, so no phased search space")
    sizes = [int(d) for d in partition.cluster_sizes]
    s_node = sum(1 << (d * (d - 1) // 2) for d in sizes)
    s_link = sum(
        1 << (sizes[i] * sizes[j])
        for i in range(len(sizes))
        for j in range(i + 1, len(sizes))
    )
    s_graph = 1 << n_slots(partition.n_nodes)
    denom = s_node + s_link
    log2_beta = math.log2(s_graph) - math.log2(denom)
    try:
        beta = s_graph / denom
    except OverflowError:
        beta = math.inf
    return SearchSpaceReport(s_node, s_link, s_graph, beta, log2_beta)
