"""Low-rank spectral filtering of adjacency matrices.

Adversarial edge flips live mostly in the small singular components of
the adjacency; truncating the spectrum before classification strips
them at some cost in clean accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import Graph, edge_index_map
from .oracle import HardLabelOracle


@dataclass(frozen=True)
class LowRankConfig:
    """Keep the top ``gamma`` fraction of singular values (at least one)."""

    gamma: float = 0.5
    binarize_threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:  # also rejects NaN
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        # a NaN threshold keeps no entry: every graph would filter to empty
        if not math.isfinite(self.binarize_threshold):
            raise ConfigError(
                f"binarize_threshold must be finite, got {self.binarize_threshold}")

    def rank(self, n_nodes: int) -> int:
        return max(1, round(self.gamma * n_nodes))


def low_rank_reconstruction(graph: Graph, cfg: LowRankConfig) -> np.ndarray:
    """Real-valued truncated-spectrum adjacency (for weighted-input models).

    The adjacency is symmetric, so its singular values are the absolute
    eigenvalues and the truncated SVD reduces to keeping the largest-
    magnitude eigenpairs.
    """
    eigvals, eigvecs = np.linalg.eigh(graph.adjacency)
    order = np.argsort(-np.abs(eigvals))
    keep = order[: cfg.rank(graph.n_nodes)]
    vk = eigvecs[:, keep]
    return (vk * eigvals[keep]) @ vk.T


def low_rank_filter(graph: Graph, cfg: LowRankConfig) -> Graph:
    """Truncate the adjacency spectrum and re-binarize to a valid graph.

    A slot is an edge when its entry or the mirrored one (rounding can break
    symmetry) reaches the binarize threshold; features and label are shared.
    """
    keep = (low_rank_reconstruction(graph, cfg) >= cfg.binarize_threshold).ravel()
    em = edge_index_map(graph.n_nodes)
    # the OR of two bool vectors is 0/1 by construction
    return graph._with_valid_bits((keep.take(em.upper) | keep.take(em.lower)).view(np.uint8))


class DefendedOracle(HardLabelOracle):
    """Filter every queried graph through the low-rank defense first.

    An input transform in front of ``inner``: one classify is one query on
    this oracle's ledger, which starts out as ``inner.ledger``.
    """

    def __init__(self, inner: HardLabelOracle, cfg: LowRankConfig):
        self.ledger = inner.ledger
        self.inner = inner
        self.cfg = cfg

    # Bound in this class body, not inherited, so the defended query has a
    # ``classify`` of its own (``perfbench/tracing.py`` wraps it by name).
    classify = HardLabelOracle.classify

    def _classify(self, graph: Graph) -> int:
        return self.inner._classify(low_rank_filter(graph, self.cfg))
