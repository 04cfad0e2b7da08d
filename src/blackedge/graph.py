"""Undirected simple graphs stored as upper-triangular bit vectors.

A graph on ``n`` nodes has ``S = n(n-1)/2`` candidate edge slots, indexed
row-major over the strict upper triangle of the adjacency matrix.  All
perturbation machinery operates on real vectors over those slots: an entry
at or above the flip threshold toggles the corresponding edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, ZeroVector

FLIP_THRESHOLD = 0.5


def n_slots(n_nodes: int) -> int:
    """Number of candidate edge slots of an ``n_nodes``-node simple graph."""
    return n_nodes * (n_nodes - 1) // 2


class EdgeIndexMap:
    """Bijection between node pairs ``(i, j)``, ``j > i``, and flat slots.

    Slots are ordered row-major over the strict upper triangle, matching
    ``np.triu_indices(n, k=1)``.  ``upper`` and ``lower`` hold each slot's
    flat index into the ``n x n`` matrix, at ``(i, j)`` and at ``(j, i)``;
    ``gather`` holds each matrix entry's slot, and ``n_slots`` on the
    diagonal.
    """

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.n_slots = n_slots(n_nodes)
        self.rows, self.cols = np.triu_indices(n_nodes, k=1)
        self.upper = self.rows * n_nodes + self.cols
        self.lower = self.cols * n_nodes + self.rows
        gather = np.full(n_nodes * n_nodes, self.n_slots, dtype=np.intp)
        gather[self.upper] = gather[self.lower] = np.arange(self.n_slots)
        self.gather = gather.reshape(n_nodes, n_nodes)

    def flatten(self, i: int, j: int) -> int:
        if i == j:
            raise DimensionMismatch(f"no slot for self-pair ({i}, {j})")
        if i > j:
            i, j = j, i
        if not 0 <= i < j < self.n_nodes:
            raise DimensionMismatch(f"pair ({i}, {j}) outside graph of {self.n_nodes} nodes")
        n = self.n_nodes
        return i * n - i * (i + 1) // 2 + (j - i - 1)


@lru_cache(maxsize=256)
def edge_index_map(n_nodes: int) -> EdgeIndexMap:
    return EdgeIndexMap(n_nodes)


def stacked_adjacency(n_nodes: int, bits: np.ndarray) -> np.ndarray:
    """The float64 0/1 adjacency of each row of a (rows, slots) bit stack,
    as a (rows, n, n) stack; each matrix equals ``Graph.adjacency``."""
    em = edge_index_map(n_nodes)
    padded = np.zeros((len(bits), em.n_slots + 1))  # the trailing 0 fills the diagonal
    padded[:, :-1] = bits
    return padded[:, em.gather]


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph.

    ``bits`` holds the upper-triangular adjacency (uint8, one entry per
    slot).  ``adjacency`` builds the full symmetric matrix on each call, as
    a float64 0/1 matrix gathered from the bits at indices cached per node
    count.  ``features`` is an optional ``n x l`` real matrix, never
    perturbed.
    """

    n_nodes: int
    bits: np.ndarray
    features: np.ndarray | None = None
    label: int | None = None

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if bits.shape != (n_slots(self.n_nodes),):
            raise DimensionMismatch(
                f"expected {n_slots(self.n_nodes)} slots for {self.n_nodes} nodes, "
                f"got shape {bits.shape}"
            )
        if bits.size and bits.max() > 1:
            raise DimensionMismatch("adjacency bits must be 0/1")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        if self.features is not None:
            feats = np.ascontiguousarray(self.features, dtype=float)
            if feats.ndim != 2 or feats.shape[0] != self.n_nodes:
                raise DimensionMismatch(
                    f"features must be ({self.n_nodes}, l), got {feats.shape}"
                )
            feats.flags.writeable = False
            object.__setattr__(self, "features", feats)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_edges(cls, n_nodes, edges, features=None, label=None) -> "Graph":
        em = edge_index_map(n_nodes)
        bits = np.zeros(em.n_slots, dtype=np.uint8)
        for i, j in edges:
            bits[em.flatten(i, j)] = 1
        return cls(n_nodes, bits, features, label)

    @classmethod
    def empty(cls, n_nodes, **kw) -> "Graph":
        return cls(n_nodes, np.zeros(n_slots(n_nodes), dtype=np.uint8), **kw)

    # -- views -----------------------------------------------------------

    @property
    def n_edge_slots(self) -> int:
        return self.bits.shape[0]

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.bits))  # bits are 0/1

    @property
    def adjacency(self) -> np.ndarray:
        em = edge_index_map(self.n_nodes)
        padded = np.zeros(em.n_slots + 1)  # the trailing 0 fills the diagonal
        padded[:-1] = self.bits
        return padded[em.gather]

    def edges(self) -> list[tuple[int, int]]:
        em = edge_index_map(self.n_nodes)
        on = np.flatnonzero(self.bits)
        return [(int(em.rows[k]), int(em.cols[k])) for k in on]

    def canonical_key(self) -> bytes:
        """Hashable encoding of the structure, shared by isostructural copies."""
        return self.n_nodes.to_bytes(4, "big") + np.packbits(self.bits).tobytes()

    def _with_valid_bits(self, bits: np.ndarray) -> "Graph":
        """This graph with other ``bits``, skipping ``__post_init__``.

        Only for ``bits`` that are valid by construction: a contiguous 0/1
        ``uint8`` vector of this graph's shape.  Features and label are
        shared, and were validated when this graph was built.
        """
        bits.flags.writeable = False
        g = object.__new__(Graph)
        g.__dict__.update(n_nodes=self.n_nodes, bits=bits, features=self.features,
                          label=self.label)
        return g

    def flip(self, slots) -> "Graph":
        """This graph with each of the given slots toggled.

        ``slots`` must be distinct: a slot listed twice is toggled once,
        not back.  Gives the bits of ``apply_perturbation`` with weight 1
        on ``slots`` and 0 elsewhere, without building that vector.
        """
        bits = self.bits.copy()
        bits[slots] ^= 1
        return self._with_valid_bits(bits)

    def replace(self, bits=None, features=..., label=...) -> "Graph":
        return Graph(
            self.n_nodes,
            self.bits if bits is None else bits,
            self.features if features is ... else features,
            self.label if label is ... else label,
        )


# -- perturbation algebra ------------------------------------------------


def apply_perturbation(graph: Graph, theta) -> Graph:
    """Flip every edge slot whose perturbation weight reaches ``FLIP_THRESHOLD``."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != graph.bits.shape:
        raise DimensionMismatch(
            f"perturbation has {theta.shape} entries, graph has "
            f"{graph.n_edge_slots} slots"
        )
    # the XOR of two 0/1 uint8 vectors of one shape is one too
    return graph._with_valid_bits(graph.bits ^ (theta >= FLIP_THRESHOLD).view(np.uint8))


def perturbation_rate(a: Graph, b: Graph) -> float:
    """Fraction of edge slots that differ between two graphs; 0 on graphs
    without a slot."""
    if a.n_nodes != b.n_nodes:
        raise DimensionMismatch(f"graphs differ in size: {a.n_nodes} vs {b.n_nodes}")
    return int(np.count_nonzero(a.bits ^ b.bits)) / max(a.n_edge_slots, 1)


def flip_ledger(a: Graph, b: Graph) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Edges added and removed when going from ``a`` to ``b``."""
    if a.n_nodes != b.n_nodes:
        raise DimensionMismatch(f"graphs differ in size: {a.n_nodes} vs {b.n_nodes}")
    em = edge_index_map(a.n_nodes)
    added = np.nonzero(b.bits > a.bits)[0]  # bits are 0/1
    removed = np.nonzero(a.bits > b.bits)[0]
    pairs = lambda ks: list(zip(em.rows[ks].tolist(), em.cols[ks].tolist()))
    return pairs(added), pairs(removed)


def normalize(theta) -> np.ndarray:
    """Scale a direction to unit L2 norm."""
    theta = np.asarray(theta, dtype=float)
    flat = theta.ravel()
    # what np.linalg.norm computes, without its per-call dispatch
    norm = math.sqrt(flat.dot(flat))
    if norm == 0.0:
        raise ZeroVector("cannot normalize an all-zero direction")
    return theta / norm
