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

from .errors import ParseError, require_int, require_one_of, require_real
from .graph import Graph, edge_index_map, n_slots


@dataclass
class DatasetBundle:
    graphs: list[Graph]
    name: str

    @property
    def n_classes(self) -> int:
        """How many distinct labels the graphs carry; 0 when none has one."""
        return len({g.label for g in self.graphs} - {None})

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
        """The bundle saved at ``path``; any other file is a ``ParseError``."""
        try:
            doc = json.loads(Path(path).read_text())
            graphs = [
                Graph.from_edges(
                    g["n_nodes"],
                    g["edges"],
                    features=None if g["features"] is None else np.asarray(g["features"]),
                    label=g["label"],
                )
                for g in doc["graphs"]
            ]
            return cls(graphs, doc["name"])
        except (ValueError, LookupError, TypeError) as exc:
            raise ParseError(f"{path} is not a dataset bundle: {exc!r}") from exc


# -- TU text format ------------------------------------------------------


def _read_lines(path: Path) -> list[str]:
    try:
        return path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ParseError(f"cannot read {path}: {reason}") from exc


def _read_int_lines(path: Path) -> list[int]:
    values = []
    for lineno, raw in enumerate(_read_lines(path), start=1):
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
        raise ParseError(
            "graph indicator ids do not match the label file"
        )
    # nodes per graph, remapped to 0-based local ids
    local_id: dict[int, tuple[int, int]] = {}
    counts = [0] * len(raw_labels)
    for node, gid in enumerate(indicator, start=1):
        local_id[node] = (gid - 1, counts[gid - 1])
        counts[gid - 1] += 1

    edges: list[list] = [[] for _ in raw_labels]
    a_path = directory / f"{name}_A.txt"
    for lineno, raw in enumerate(_read_lines(a_path), start=1):
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
            raise ParseError(f"{a_path.name}: edge ({i}, {j}) references an unknown node",
                             line=lineno)
        gi, li = local_id[i]
        gj, lj = local_id[j]
        if gi != gj:
            raise ParseError(
                f"{a_path.name}: edge ({i}, {j}) crosses graphs", line=lineno
            )
        edges[gi].append((li, lj))

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
        Graph.from_edges(counts[g], edges[g], features=features[g],
                         label=label_index[raw_labels[g]])
        for g in range(len(raw_labels))
    ]
    return DatasetBundle(graphs, name)


# -- synthetic generators ------------------------------------------------


def erdos_renyi(n: int, p: float, rng: np.random.Generator) -> Graph:
    """``n >= 1`` nodes, each slot an edge with probability ``p`` in [0, 1]."""
    require_int("n", n, 1)
    require_real("p", p, 0.0, 1.0, include_low=True)
    bits = (rng.random(n_slots(n)) < p).astype(np.uint8)
    return Graph(n, bits)


def barbell(k: int) -> Graph:
    """Two k-cliques joined by a single bridge edge; ``k >= 2``."""
    require_int("k", k, 2)
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((i, j))
            edges.append((k + i, k + j))
    edges.append((k - 1, k))
    return Graph.from_edges(2 * k, edges)


def stochastic_block_model(sizes, p_in: float, p_out: float,
                           rng: np.random.Generator) -> Graph:
    """Blocks of ``sizes >= 1`` nodes; edges with ``p_in`` inside, ``p_out`` across."""
    for size in sizes:
        require_int("sizes", size, 1)
    require_real("p_in", p_in, 0.0, 1.0, include_low=True)
    require_real("p_out", p_out, 0.0, 1.0, include_low=True)
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
    with a structural oracle if needed.  ``count`` and ``seed`` are
    integers of at least 0; each generator checks its own parameters.
    """
    require_one_of("kind", kind, ("erdos_renyi", "barbell", "sbm"))
    require_int("count", count, 0)
    require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    if kind == "erdos_renyi":
        graphs = [erdos_renyi(params["n"], params["p"], rng) for _ in range(count)]
    elif kind == "barbell":
        graphs = [barbell(params["k"]) for _ in range(count)]
    else:
        graphs = [stochastic_block_model(params["sizes"], params["p_in"], params["p_out"], rng)
                  for _ in range(count)]
    return DatasetBundle(graphs, f"{kind}-{seed}")
