"""Low-rank spectral filtering of adjacency matrices.

Adversarial edge flips live mostly in the small singular components of
the adjacency; truncating the spectrum before classification strips
them at some cost in clean accuracy.

One reconstruction and one binarisation serve one (n, n) adjacency and
a (rows, n, n) stack alike, so a block filtered in one pass gets the
bits of each graph filtered alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import Graph, edge_index_map, stacked_adjacency
from .oracle import HardLabelOracle

# a filtered entry at or above this value is an edge
BINARIZE_THRESHOLD = 0.5


@dataclass(frozen=True)
class LowRankConfig:
    """Keep the top ``gamma`` fraction of singular values (at least one)."""

    gamma: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:  # also rejects NaN
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")

    def rank(self, n_nodes: int) -> int:
        return max(1, round(self.gamma * n_nodes))


def _reconstruction(a: np.ndarray, rank: int) -> np.ndarray:
    """The truncated-spectrum matrix of a symmetric (n, n) ``a``, or of each
    matrix of a (rows, n, n) stack: the singular values are the absolute
    eigenvalues, so the truncated SVD keeps the ``rank`` largest-magnitude
    eigenpairs."""
    eigvals, eigvecs = np.linalg.eigh(a)
    keep = np.argsort(-np.abs(eigvals), axis=-1)[..., :rank]
    vk = np.take_along_axis(eigvecs, keep[..., None, :], axis=-1)
    kept = np.take_along_axis(eigvals, keep, axis=-1)
    return (vk * kept[..., None, :]) @ np.swapaxes(vk, -1, -2)


def _binarized_bits(r: np.ndarray) -> np.ndarray:
    """The edge bits of an (n, n) ``r``, or of each matrix of a stack, as
    ``low_rank_filter`` binarises them."""
    n = r.shape[-1]
    em = edge_index_map(n)
    r = r.reshape(*r.shape[:-2], n * n)
    # max(r_ij, r_ji) >= t is r_ij >= t or r_ji >= t; a bool array is 0/1
    keep = np.maximum(r.take(em.upper, axis=-1), r.take(em.lower, axis=-1))
    return (keep >= BINARIZE_THRESHOLD).view(np.uint8)


def low_rank_filter(graph: Graph, cfg: LowRankConfig) -> Graph:
    """Truncate the adjacency spectrum and re-binarize to a valid graph.

    A slot is an edge when its entry or the mirrored one (rounding can break
    symmetry) reaches ``BINARIZE_THRESHOLD``; features and label are shared.
    """
    r = _reconstruction(graph.adjacency, cfg.rank(graph.n_nodes))
    return graph._with_valid_bits(_binarized_bits(r))


class DefendedOracle(HardLabelOracle):
    """Filter every queried graph through the low-rank defense first.

    An input transform in front of ``inner``: one classify labels the
    filtered graph with ``inner``'s ``_classify``.  It has a batch kernel
    when ``inner`` has one: a bit matrix is filtered in one stacked pass and
    the filtered matrix labelled with ``inner``'s batch kernel.
    """

    def __init__(self, inner: HardLabelOracle, cfg: LowRankConfig):
        self.inner = inner
        self.cfg = cfg
        if inner._classify_many is None:
            self._classify_many = None

    # Bound in this class body, not inherited, so the defended query has a
    # ``classify`` of its own (``perfbench/tracing.py`` wraps it by name).
    classify = HardLabelOracle.classify

    def _classify(self, graph: Graph) -> int:
        return self.inner._classify(low_rank_filter(graph, self.cfg))

    def _classify_many(self, graph: Graph, bits: np.ndarray) -> list[int]:
        n = graph.n_nodes
        r = _reconstruction(stacked_adjacency(n, bits), self.cfg.rank(n))
        return self.inner._classify_many(graph, _binarized_bits(r))
