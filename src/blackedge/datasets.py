"""Dataset ingestion and synthetic graph generation.

Reads the standard TU text format (edge list + graph indicator + graph
labels, optional node labels) and produces deterministic synthetic
bundles for desk-scale experiments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DanglingNode, InvalidParams, ParseError
from .graph import Graph, edge_index_map, n_slots


@dataclass
class DatasetBundle:
    graphs: list[Graph]
    name: str
    n_classes: int

    @property
    def n_graphs(self) -> int:
        return len(self.graphs)

    @property
    def avg_nodes(self) -> float:
        return float(np.mean([g.n_nodes for g in self.graphs])) if self.graphs else 0.0

    @property
    def avg_edges(self) -> float:
        return float(np.mean([g.n_edges for g in self.graphs])) if self.graphs else 0.0

    def summary(self) -> dict:
        return {
            "name": self.name,
            "n_graphs": self.n_graphs,
            "n_classes": self.n_classes,
            "avg_nodes": self.avg_nodes,
            "avg_edges": self.avg_edges,
        }

    # -- JSON round trip -------------------------------------------------

    def save(self, path):
        doc = {
            "name": self.name,
            "n_classes": self.n_classes,
            "graphs": [
                {
                    "n_nodes": g.n_nodes,
                    "edges": g.edges(),
                    "label": g.label,
                    "features": None if g.features is None else g.features.tolist(),
                }
                for g in self.graphs
            ],
        }
        Path(path).write_text(json.dumps(doc))

    @classmethod
    def load(cls, path) -> "DatasetBundle":
        doc = json.loads(Path(path).read_text())
        graphs = [
            Graph.from_edges(
                g["n_nodes"],
                [tuple(e) for e in g["edges"]],
                features=None if g["features"] is None else np.asarray(g["features"]),
                label=g["label"],
            )
            for g in doc["graphs"]
        ]
        return cls(graphs, doc["name"], doc["n_classes"])


# -- TU text format ------------------------------------------------------


def _read_int_lines(path: Path) -> list[int]:
    values = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            values.append(int(raw))
        except ValueError as exc:
            raise ParseError(f"{path.name}: expected an integer, got {raw!r}",
                             line=lineno) from exc
    return values


def load_tudataset(directory, name: str) -> DatasetBundle:
    """Parse the public TU graph-classification text format.

    Expects ``NAME_A.txt`` (1-indexed "i, j" edge lines),
    ``NAME_graph_indicator.txt`` and ``NAME_graph_labels.txt``;
    ``NAME_node_labels.txt`` is optional and one-hot encoded into node
    features.  Reciprocal and duplicate edge lines collapse into one
    undirected edge; self-loops are rejected.
    """
    directory = Path(directory)
    indicator = _read_int_lines(directory / f"{name}_graph_indicator.txt")
    raw_labels = _read_int_lines(directory / f"{name}_graph_labels.txt")

    graph_ids = sorted(set(indicator))
    if graph_ids != list(range(1, len(raw_labels) + 1)):
        raise DanglingNode(
            "graph indicator ids do not match the label file"
        )
    # nodes per graph, remapped to 0-based local ids
    local_id: dict[int, tuple[int, int]] = {}
    counts = [0] * len(raw_labels)
    for node, gid in enumerate(indicator, start=1):
        if not 1 <= gid <= len(raw_labels):
            raise DanglingNode(f"node {node} references missing graph id {gid}")
        local_id[node] = (gid - 1, counts[gid - 1])
        counts[gid - 1] += 1

    edges: list[set] = [set() for _ in raw_labels]
    a_path = directory / f"{name}_A.txt"
    for lineno, raw in enumerate(a_path.read_text().splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            i_s, j_s = raw.split(",")
            i, j = int(i_s), int(j_s)
        except ValueError as exc:
            raise ParseError(f"{a_path.name}: malformed edge line {raw!r}",
                             line=lineno) from exc
        if i == j:
            raise ParseError(f"{a_path.name}: self-loop on node {i}", line=lineno)
        if i not in local_id or j not in local_id:
            raise DanglingNode(f"edge ({i}, {j}) references an unknown node")
        gi, li = local_id[i]
        gj, lj = local_id[j]
        if gi != gj:
            raise ParseError(
                f"{a_path.name}: edge ({i}, {j}) crosses graphs", line=lineno
            )
        edges[gi].add((min(li, lj), max(li, lj)))

    node_label_path = directory / f"{name}_node_labels.txt"
    features: list[np.ndarray | None] = [None] * len(raw_labels)
    if node_label_path.exists():
        node_labels = _read_int_lines(node_label_path)
        if len(node_labels) != len(indicator):
            raise ParseError(f"{node_label_path.name}: wrong number of lines")
        distinct = sorted(set(node_labels))
        index = {v: k for k, v in enumerate(distinct)}
        per_graph: list[list[int]] = [[] for _ in raw_labels]
        for gid, value in zip(indicator, node_labels):
            per_graph[gid - 1].append(index[value])
        for g, values in enumerate(per_graph):
            one_hot = np.zeros((len(values), len(distinct)))
            one_hot[np.arange(len(values)), values] = 1.0
            features[g] = one_hot

    # labels remapped to 0..C-1 preserving sorted order
    classes = sorted(set(raw_labels))
    label_index = {v: k for k, v in enumerate(classes)}
    graphs = [
        Graph.from_edges(counts[g], sorted(edges[g]), features=features[g],
                         label=label_index[raw_labels[g]])
        for g in range(len(raw_labels))
    ]
    return DatasetBundle(graphs, name, len(classes))


# -- synthetic generators ------------------------------------------------


def erdos_renyi(n: int, p: float, rng: np.random.Generator) -> Graph:
    if n < 1 or not 0.0 <= p <= 1.0:
        raise InvalidParams(f"bad Erdos-Renyi parameters n={n}, p={p}")
    bits = (rng.random(n_slots(n)) < p).astype(np.uint8)
    return Graph(n, bits)


def barbell(k: int) -> Graph:
    """Two k-cliques joined by a single bridge edge."""
    if k < 2:
        raise InvalidParams(f"barbell needs cliques of size >= 2, got {k}")
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((i, j))
            edges.append((k + i, k + j))
    edges.append((k - 1, k))
    return Graph.from_edges(2 * k, edges)


def stochastic_block_model(sizes, p_in: float, p_out: float,
                           rng: np.random.Generator) -> Graph:
    if any(s < 1 for s in sizes) or not (0 <= p_in <= 1 and 0 <= p_out <= 1):
        raise InvalidParams(f"bad SBM parameters sizes={sizes}")
    n = int(sum(sizes))
    block = np.repeat(np.arange(len(sizes)), sizes)
    em = edge_index_map(n)
    same = block[em.rows] == block[em.cols]
    prob = np.where(same, p_in, p_out)
    bits = (rng.random(em.n_slots) < prob).astype(np.uint8)
    return Graph(n, bits)


def generate_synthetic(kind: str, count: int, seed: int, **params) -> DatasetBundle:
    """Deterministic bundle of ``count`` graphs of one synthetic family.

    ``kind`` is one of ``erdos_renyi`` (n, p), ``barbell`` (k) or
    ``sbm`` (sizes, p_in, p_out).  Labels are left unset; assign them
    with a structural oracle if needed.
    """
    if count < 0:
        raise InvalidParams(f"graph count must be non-negative, got {count}")
    rng = np.random.default_rng(seed)
    if kind == "erdos_renyi":
        graphs = [erdos_renyi(params["n"], params["p"], rng) for _ in range(count)]
    elif kind == "barbell":
        graphs = [barbell(params["k"]) for _ in range(count)]
    elif kind == "sbm":
        graphs = [
            stochastic_block_model(params["sizes"], params["p_in"], params["p_out"], rng)
            for _ in range(count)
        ]
    else:
        raise InvalidParams(f"unknown synthetic kind {kind!r}")
    return DatasetBundle(graphs, f"{kind}-{seed}", n_classes=2)
