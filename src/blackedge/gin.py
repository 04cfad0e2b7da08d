"""Forward-pass-only graph isomorphism network classifier.

Inference only: weights are loaded from a JSON file or generated from a
fixed seed, never trained here.  Message passing at layer ``k``::

    h_v <- relu(W_k ((1 + eps_k) h_v + sum_{u ~ v} h_u) + b_k)

Node embeddings of every depth (including the raw features at depth 0)
are sum-pooled into graph embeddings; a linear head per depth is applied
and the resulting logits are summed.  The predicted label is the argmax,
ties broken toward the smallest class index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeMismatch
from .graph import Graph
from .oracle import HardLabelOracle


@dataclass
class GinLayer:
    weight: np.ndarray  # (l_k, l_{k-1})
    bias: np.ndarray  # (l_k,)
    epsilon: float


@dataclass
class Dense:
    weight: np.ndarray  # (n_classes, l_k)
    bias: np.ndarray  # (n_classes,)


@dataclass
class GinWeights:
    """Parameters of a K-layer network with K+1 readout heads."""

    layers: list[GinLayer]
    readout: list[Dense]
    n_classes: int
    feature_dim: int

    def __post_init__(self):
        if len(self.readout) != len(self.layers) + 1:
            raise ShapeMismatch(
                f"need {len(self.layers) + 1} readout heads for "
                f"{len(self.layers)} layers, got {len(self.readout)}"
            )
        dim = self.feature_dim
        for k, layer in enumerate(self.layers):
            if layer.weight.shape[1] != dim:
                raise ShapeMismatch(
                    f"layer {k} expects input dim {layer.weight.shape[1]}, "
                    f"previous embedding has dim {dim}"
                )
            if layer.bias.shape != (layer.weight.shape[0],):
                raise ShapeMismatch(f"layer {k} bias shape {layer.bias.shape}")
            dim = layer.weight.shape[0]
        dims = [self.feature_dim] + [l.weight.shape[0] for l in self.layers]
        for k, head in enumerate(self.readout):
            if head.weight.shape != (self.n_classes, dims[k]):
                raise ShapeMismatch(
                    f"readout {k} must be ({self.n_classes}, {dims[k]}), "
                    f"got {head.weight.shape}"
                )

    # -- serialization (JSON, matrices row-major) ------------------------

    def to_dict(self) -> dict:
        return {
            "layers": [
                {"W": l.weight.tolist(), "b": l.bias.tolist(), "epsilon": l.epsilon}
                for l in self.layers
            ],
            "readout": [
                {"W": h.weight.tolist(), "b": h.bias.tolist()} for h in self.readout
            ],
            "classes": self.n_classes,
            "feature_dim": self.feature_dim,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GinWeights":
        layers = [
            GinLayer(np.asarray(l["W"], float), np.asarray(l["b"], float), float(l["epsilon"]))
            for l in doc["layers"]
        ]
        readout = [
            Dense(np.asarray(h["W"], float), np.asarray(h["b"], float))
            for h in doc["readout"]
        ]
        return cls(layers, readout, int(doc["classes"]), int(doc["feature_dim"]))

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path) -> "GinWeights":
        return cls.from_dict(json.loads(Path(path).read_text()))

    @classmethod
    def random(cls, seed: int, feature_dim: int = 1, hidden_dims=(8, 8),
               n_classes: int = 2, scale: float = 1.0) -> "GinWeights":
        """Untrained network with weights drawn from a fixed seed."""
        rng = np.random.default_rng(seed)
        dims = [feature_dim] + list(hidden_dims)
        layers = [
            GinLayer(
                scale * rng.standard_normal((dims[k + 1], dims[k])) / np.sqrt(dims[k]),
                scale * rng.standard_normal(dims[k + 1]) * 0.1,
                float(rng.uniform(-0.5, 0.5)),
            )
            for k in range(len(hidden_dims))
        ]
        readout = [
            Dense(
                scale * rng.standard_normal((n_classes, dims[k])) / np.sqrt(dims[k]),
                scale * rng.standard_normal(n_classes) * 0.1,
            )
            for k in range(len(dims))
        ]
        return cls(layers, readout, n_classes, feature_dim)


def gin_forward(weights: GinWeights, graph: Graph) -> int:
    """Hard label of ``graph`` under ``weights``.

    Graphs without node features get all-ones features of the network's
    input dimension (permutation invariant, so the label depends on the
    structure only).
    """
    if graph.features is not None:
        h = np.asarray(graph.features, dtype=float)
        if h.shape[1] != weights.feature_dim:
            raise ShapeMismatch(
                f"graph features have dim {h.shape[1]}, network expects "
                f"{weights.feature_dim}"
            )
    else:
        h = np.ones((graph.n_nodes, weights.feature_dim), dtype=float)

    a = graph.adjacency.astype(float)
    logits = weights.readout[0].weight @ h.sum(axis=0) + weights.readout[0].bias
    for layer, head in zip(weights.layers, weights.readout[1:]):
        h = (1.0 + layer.epsilon) * h + a @ h
        h = np.maximum(h @ layer.weight.T + layer.bias, 0.0)
        logits = logits + head.weight @ h.sum(axis=0) + head.bias
    # softmax is monotone; argmax of the logits is the predicted class,
    # np.argmax breaks ties toward the smallest index
    return int(np.argmax(logits))


class GinOracle(HardLabelOracle):
    """Hard-label oracle backed by a fixed-weight network."""

    def __init__(self, weights: GinWeights):
        super().__init__()
        self.weights = weights

    def _classify(self, graph: Graph) -> int:
        return gin_forward(self.weights, graph)
