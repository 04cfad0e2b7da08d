"""Hard-label classifier oracles with exact query accounting.

Every call to ``classify`` costs exactly one ledger query, attributed to
the phase the caller names (coarse search, binary search, gradient
probes, ...).  Oracles return only an integer class label.
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import BudgetExhausted, UnknownGraph
from .graph import Graph

PHASES = ("cgs", "binary_search", "qegc", "other")


class QueryLedger:
    """Per-phase query counter with an optional cap on the total."""

    def __init__(self, max_queries: int | None = None):
        self.max_queries = max_queries
        self._counts = dict.fromkeys(PHASES, 0)

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def record(self, phase: str):
        """Count one query in ``phase``; refuse it once the cap is reached."""
        counts = self._counts
        if phase not in counts:
            raise ValueError(f"unknown phase {phase!r}; choose from {PHASES}")
        if self.max_queries is not None and sum(counts.values()) >= self.max_queries:
            raise BudgetExhausted(f"query budget of {self.max_queries} reached")
        counts[phase] += 1

    def snapshot(self) -> dict:
        counts = dict(self._counts)
        counts["total"] = sum(counts.values())
        return counts


class HardLabelOracle:
    """Base class: deterministic Graph -> label with a query ledger."""

    def __init__(self):
        self.ledger = QueryLedger()

    def classify(self, graph: Graph, phase: str = "other") -> int:
        self.ledger.record(phase)
        return self._classify(graph)

    def _classify(self, graph: Graph) -> int:
        raise NotImplementedError

    def clone(self) -> "HardLabelOracle":
        """Same classifier with fresh counts and the same cap (per-target accounting)."""
        twin = copy.copy(self)
        twin.ledger = QueryLedger(self.ledger.max_queries)
        return twin


class FunctionOracle(HardLabelOracle):
    """Wrap an arbitrary pure function Graph -> int."""

    def __init__(self, fn):
        super().__init__()
        self._fn = fn

    def _classify(self, graph: Graph) -> int:
        return int(self._fn(graph))


STRUCTURAL_FEATURES = ("edge_count", "triangle_count", "max_degree")


def _structural_statistic(graph: Graph, feature: str) -> int:
    if feature == "edge_count":
        return graph.n_edges
    if feature == "triangle_count":
        a = graph.adjacency.astype(np.int64)
        return int(np.trace(a @ a @ a)) // 6
    if feature == "max_degree":
        if graph.n_nodes == 0:
            return 0
        return int(graph.adjacency.sum(axis=1).max())
    raise ValueError(f"unknown structural feature {feature!r}")


class StructuralOracle(HardLabelOracle):
    """Label 1 iff a structural statistic reaches the threshold, else 0.

    Ground-truth target with an analytically known decision boundary,
    used for small-scale validation runs.
    """

    def __init__(self, feature: str, threshold: int):
        if feature not in STRUCTURAL_FEATURES:
            raise ValueError(f"feature must be one of {STRUCTURAL_FEATURES}")
        super().__init__()
        self.feature = feature
        self.threshold = int(threshold)

    def _classify(self, graph: Graph) -> int:
        return int(_structural_statistic(graph, self.feature) >= self.threshold)


def structural_oracle(feature: str, threshold: int) -> StructuralOracle:
    return StructuralOracle(feature, threshold)


class TableOracle(HardLabelOracle):
    """Pure lookup oracle over an explicit graph -> label table."""

    def __init__(self, labels: dict[bytes, int]):
        super().__init__()
        self._table = dict(labels)

    @classmethod
    def exhaustive(cls, n_nodes: int, label_fn) -> "TableOracle":
        """Tabulate ``label_fn`` over every graph on ``n_nodes`` nodes."""
        from .graph import n_slots

        s = n_slots(n_nodes)
        table = {}
        for code in range(1 << s):
            bits = np.array([(code >> k) & 1 for k in range(s)], dtype=np.uint8)
            g = Graph(n_nodes, bits)
            table[g.canonical_key()] = int(label_fn(g))
        return cls(table)

    def _classify(self, graph: Graph) -> int:
        key = graph.canonical_key()
        if key not in self._table:
            raise UnknownGraph(f"graph on {graph.n_nodes} nodes not in the table")
        return self._table[key]

