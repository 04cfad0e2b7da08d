"""Community detection and the supernode / superlink decomposition.

Louvain partitions drive the phased initial search: edge slots inside a
cluster form a supernode component, slots between two clusters form a
superlink, and together they partition all candidate slots of the graph.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_int, require_one_of
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


def _modularity(internal, degrees, m2: float) -> float:
    """Modularity from each community's internal and degree sums (integers,
    so exact), added as scalars in ascending community id."""
    q = 0.0
    for inside, degree in zip(internal, degrees):
        q += inside / m2 - (degree / m2) ** 2
    return q


def _one_level(neighbours, degrees, m2: float, rng: np.random.Generator) -> list:
    """One Louvain phase: greedy node moves until no positive gain.

    ``neighbours[i]`` holds node i's ``(node, weight)`` pairs, self
    excluded; ``degrees[i]`` counts its self-loop too.  Nodes are visited
    cyclically in one random order until ``len(neighbours)`` consecutive
    visits make no move: those saw one state, and as ``tot`` and the link
    sums are integer-valued floats, any later visit decides the same.
    Ties between equal-gain target communities break to the lowest
    community id, so runs are reproducible given the visit order.
    """
    n = len(neighbours)
    community = list(range(n))
    tot = list(degrees)  # total degree per community
    idle = 0  # consecutive visits without a move
    for i in itertools.cycle(rng.permutation(n).tolist()):
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
        idle = idle + 1 if best_c == ci else 0
        if idle == n:
            return community


def _relabel(labels) -> tuple[list, int]:
    """Contiguous ids ordered by each label's first position."""
    ids = {}
    return [ids.setdefault(c, len(ids)) for c in labels], len(ids)


def louvain(graph: Graph, seed: int = 0) -> Partition:
    """Two-phase Louvain maximizing modularity, deterministic given seed.

    A level is each node's ``(neighbour, weight)`` list in ascending
    neighbour order, degree and self-loop weight; level 0 comes from the
    graph's bits.  A level is contracted by summing its weights per
    community pair, and its modularity comes from the per-community sums
    of that contraction.  Edgeless graphs (and isolated nodes) end as
    singleton clusters.  A seed that is not an integer of at least 0
    raises ``ConfigError`` (``errors.require_int``).
    """
    require_int("seed", seed, 0)
    n = graph.n_nodes
    if graph.n_edges == 0:
        return Partition(np.arange(n), n)

    rng = np.random.default_rng(seed)
    em = edge_index_map(n)
    edges = np.flatnonzero(graph.bits)
    neighbours = [[] for _ in range(n)]  # slots run row-major: each list ascends
    for i, j in zip(em.rows[edges].tolist(), em.cols[edges].tolist()):
        neighbours[i].append((j, 1.0))
        neighbours[j].append((i, 1.0))
    degrees = [float(len(pairs)) for pairs in neighbours]
    self_loops = [0.0] * n
    m2 = float(2 * edges.size)
    assignment = list(range(n))  # original node -> its node at the current level
    q = _modularity(self_loops, degrees, m2)

    while True:
        level, k = _relabel(_one_level(neighbours, degrees, m2, rng))
        # contract: sum each node's weights into its community's row
        rows = [{} for _ in range(k)]
        internal, tot = [0.0] * k, [0.0] * k
        for i, c in enumerate(level):
            internal[c] += self_loops[i]
            tot[c] += degrees[i]
            row = rows[c]
            for j, w in neighbours[i]:
                d = level[j]
                if d == c:
                    internal[c] += w
                else:
                    row[d] = row.get(d, 0.0) + w
        # level's community sums on this level are level[assignment]'s on the graph
        new_q = _modularity(internal, tot, m2)
        if new_q - q < MODULARITY_TOL:
            break
        q = new_q
        assignment = [level[c] for c in assignment]
        neighbours = [sorted(row.items()) for row in rows]
        degrees, self_loops = tot, internal
        if k == 1:
            break

    assignment, k = _relabel(assignment)
    return Partition(np.array(assignment), k)


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
    require_one_of("strategy", strategy, STRATEGIES)

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
