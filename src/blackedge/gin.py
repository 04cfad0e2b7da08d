"""Forward-pass-only graph isomorphism network classifier.

Inference only: weights are loaded from a JSON file or generated from a
fixed seed, never trained here.  Message passing at layer ``k``::

    h_v <- relu(W_k ((1 + eps_k) h_v + sum_{u ~ v} h_u) + b_k)

Node embeddings of every depth (including the raw features at depth 0)
are sum-pooled into graph embeddings; a linear head per depth is applied
and the resulting logits are summed.  The predicted label is the argmax,
ties broken toward the smallest class index.

One forward pass serves one graph's (n, n) adjacency and a block's
(rows, n, n) stack alike; each stacked product runs one graph's product
once per graph, so a block's logits have the bits of its graphs'.

A graph without node features gets all-ones input.  Its depth-0 logits
then depend only on ``n`` and its first-layer embeddings only on the node
degrees, so both come from caches: the depth-0 logits on ``readout[0]``
and a per-degree table of first-layer embeddings on ``layers[0]``, each
keyed by ``n``.  Layers and heads are frozen and their arrays read-only
(a float array passed in is not copied, so it turns read-only for the
caller too), so a cached value cannot go stale; copies of a network that
share a ``GinLayer`` or ``Dense`` share its caches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError
from .graph import Graph, stacked_adjacency
from .oracle import HardLabelOracle


def _read_only(array) -> np.ndarray:
    # no copy of a float array, so a layer rebuilt from another's arrays
    # compares equal to it
    out = np.asarray(array, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GinLayer:
    weight: np.ndarray  # (l_k, l_{k-1})
    bias: np.ndarray  # (l_k,)
    epsilon: float
    # n -> (n, l_k) table whose row k embeds an all-ones node of degree k
    _degree_tables: dict = field(default_factory=dict, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        object.__setattr__(self, "weight", _read_only(self.weight))
        object.__setattr__(self, "bias", _read_only(self.bias))

    def degree_table(self, n: int) -> np.ndarray:
        """First-layer embeddings of all-ones input on ``n`` nodes, by degree.

        Row ``k`` is what the layer gives a node of degree ``k``: the
        layer's own step on an adjacency whose row ``k`` holds ``k`` ones,
        so its bits equal the rows the forward pass would compute.
        """
        table = self._degree_tables.get(n)
        if table is None:
            table = _message_pass(self, np.tri(n, k=-1), np.ones((n, self.weight.shape[1])))
            table.flags.writeable = False
            self._degree_tables[n] = table
        return table


@dataclass(frozen=True)
class Dense:
    weight: np.ndarray  # (n_classes, l_k)
    bias: np.ndarray  # (n_classes,)
    # n -> logits of the all-ones input on n nodes
    _ones_logits: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        object.__setattr__(self, "weight", _read_only(self.weight))
        object.__setattr__(self, "bias", _read_only(self.bias))

    def ones_logits(self, n: int) -> np.ndarray:
        """Head output on the sum-pooled all-ones input of ``n`` nodes."""
        logits = self._ones_logits.get(n)
        if logits is None:
            h = np.ones((n, self.weight.shape[1]), dtype=float)
            logits = self.weight @ h.sum(axis=0) + self.bias
            logits.flags.writeable = False
            self._ones_logits[n] = logits
        return logits


@dataclass
class GinWeights:
    """Parameters of a K-layer network with K+1 readout heads."""

    layers: list[GinLayer]
    readout: list[Dense]
    n_classes: int
    feature_dim: int

    def __post_init__(self):
        if len(self.readout) != len(self.layers) + 1:
            raise DimensionMismatch(
                f"need {len(self.layers) + 1} readout heads for "
                f"{len(self.layers)} layers, got {len(self.readout)}"
            )
        dim = self.feature_dim
        for k, layer in enumerate(self.layers):
            if layer.weight.shape[1] != dim:
                raise DimensionMismatch(
                    f"layer {k} expects input dim {layer.weight.shape[1]}, "
                    f"previous embedding has dim {dim}"
                )
            if layer.bias.shape != (layer.weight.shape[0],):
                raise DimensionMismatch(f"layer {k} bias shape {layer.bias.shape}")
            dim = layer.weight.shape[0]
        dims = [self.feature_dim] + [l.weight.shape[0] for l in self.layers]
        for k, head in enumerate(self.readout):
            if head.weight.shape != (self.n_classes, dims[k]):
                raise DimensionMismatch(
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
        """The weights saved at ``path``; any other file is a ``ParseError``."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (ValueError, LookupError, TypeError) as exc:
            raise ParseError(f"{path} is not a GIN weights file: {exc!r}") from exc

    @classmethod
    def random(cls, seed: int, feature_dim: int = 1, hidden_dims=(8, 8),
               n_classes: int = 2) -> "GinWeights":
        """Untrained network with weights drawn from a fixed seed."""
        rng = np.random.default_rng(seed)
        dims = [feature_dim] + list(hidden_dims)
        layers = [
            GinLayer(
                rng.standard_normal((dims[k + 1], dims[k])) / np.sqrt(dims[k]),
                rng.standard_normal(dims[k + 1]) * 0.1,
                float(rng.uniform(-0.5, 0.5)),
            )
            for k in range(len(hidden_dims))
        ]
        readout = [
            Dense(
                rng.standard_normal((n_classes, dims[k])) / np.sqrt(dims[k]),
                rng.standard_normal(n_classes) * 0.1,
            )
            for k in range(len(dims))
        ]
        return cls(layers, readout, n_classes, feature_dim)


def gin_logits(weights: GinWeights, graph: Graph) -> np.ndarray:
    """Summed per-depth logits of ``graph`` under ``weights``.

    Graphs without node features get all-ones features of the network's
    input dimension (permutation invariant, so the label depends on the
    structure only).
    """
    return _logits(weights, graph.adjacency, graph.features)


def _logits(weights: GinWeights, a: np.ndarray, h: np.ndarray | None) -> np.ndarray:
    """Summed per-depth logits from an (n, n) adjacency ``a`` and (n, l)
    features ``h``, or a (rows, n, n) and (rows, n, l) stack, with None
    for all-ones input: its depth-0 logits and first-layer embeddings come
    from the caches, with the node degrees as row indices."""
    layers, heads = weights.layers, weights.readout
    if h is None:
        n = a.shape[-1]
        logits = heads[0].ones_logits(n)
        if not layers:
            return np.broadcast_to(logits, a.shape[:-2] + logits.shape)
        h = layers[0].degree_table(n).take(a.sum(axis=-1, dtype=np.intp), axis=0)
        logits = logits + _pooled_product(heads[1], h) + heads[1].bias
        layers, heads = layers[1:], heads[1:]
    else:
        if h.shape[-1] != weights.feature_dim:
            raise DimensionMismatch(
                f"graph features have dim {h.shape[-1]}, network expects "
                f"{weights.feature_dim}"
            )
        logits = _pooled_product(heads[0], h) + heads[0].bias
    for layer, head in zip(layers, heads[1:]):
        h = _message_pass(layer, a, h)
        logits = logits + _pooled_product(head, h) + head.bias
    return logits


def _message_pass(layer: GinLayer, a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One layer's embeddings from adjacency ``a`` and embeddings ``h``, of
    one graph or of a stack of graphs; in place, in an order with the same
    bits as relu(((1 + eps) * h + a @ h) @ W.T + b): addition commutes."""
    m = a @ h
    m += (1.0 + layer.epsilon) * h
    h = m @ layer.weight.T
    h += layer.bias
    np.maximum(h, 0.0, out=h)
    return h


def _pooled_product(head: Dense, h: np.ndarray) -> np.ndarray:
    # one matrix-vector product per graph; a (rows, l) @ (l, classes)
    # product would sum a stack in another order than one graph
    return np.matmul(head.weight, h.sum(axis=-2)[..., None])[..., 0]


def gin_forward(weights: GinWeights, graph: Graph) -> int:
    """Hard label of ``graph`` under ``weights``: the argmax of
    ``gin_logits`` (softmax is monotone), ties broken toward the smallest
    class index."""
    return int(gin_logits(weights, graph).argmax())


class GinOracle(HardLabelOracle):
    """Hard-label oracle backed by a fixed-weight network."""

    def __init__(self, weights: GinWeights):
        self.weights = weights

    def _classify(self, graph: Graph) -> int:
        return gin_forward(self.weights, graph)

    def _classify_many(self, graphs: list[Graph]) -> list[int]:
        """``_classify`` of each graph, in one stacked pass; the graphs
        all have node features of one dimension, or none has any."""
        a = stacked_adjacency(graphs[0].n_nodes, np.stack([g.bits for g in graphs]))
        features = [g.features for g in graphs]
        h = None if all(f is None for f in features) else np.stack(features)
        return _logits(self.weights, a, h).argmax(axis=-1).tolist()
