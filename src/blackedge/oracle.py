"""Hard-label classifier oracles with exact query accounting.

Every call to ``classify`` costs exactly one ledger query, attributed to
the phase the caller names (coarse search, binary search, gradient
probes, ...).  Oracles return only an integer class label.

An oracle with a batch label kernel (``_classify_many``) can compute the
labels of a block of graphs in one call before any of them is asked
about (``LabelMemo.in_blocks``).  Those labels are held apart from the
memo until ``classify`` counts and returns them, so a label computed
ahead but never asked for is never a query and never a verdict.
"""

from __future__ import annotations

import copy
from itertools import islice

import numpy as np

from .errors import BudgetExhausted
from .graph import Graph, perturbation_rate

PHASES = ("cgs", "binary_search", "qegc", "other")
# Most graphs whose labels one batch call computes ahead: a per-graph cost
# near the batch kernels' floor, and at most this many computed for nothing
# when a search ends inside a block.
BLOCK = 32


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
    """Base class: deterministic Graph -> label with a query ledger.

    A subclass with a batch label kernel defines ``_classify_many``: the
    labels ``_classify`` gives a non-empty list of graphs on one node
    count, in order.  Without one, ``_classify_many`` is None and no label
    is ever computed ahead.
    """

    _classify_many = None

    def __init__(self, ledger: QueryLedger | None = None):
        self.ledger = QueryLedger() if ledger is None else ledger
        # labels computed ahead (``compute_ahead``), by edge bits, until
        # ``classify`` counts and returns them
        self._ahead: dict[bytes, int] = {}

    def classify(self, graph: Graph, phase: str = "other") -> int:
        self.ledger.record(phase)
        if self._ahead:
            label = self._ahead.pop(graph.bits.tobytes(), None)
            if label is not None:
                return label
        return self._classify(graph)

    def _classify(self, graph: Graph) -> int:
        raise NotImplementedError

    def compute_ahead(self, graphs: dict[bytes, Graph]):
        """Label ``graphs`` (keyed by their edge bits) in one batch call.

        Replaces the labels computed ahead before, which are dropped
        unasked; ``classify`` counts each label it returns from here as
        one query, like any other.  An empty dict drops them all.
        """
        self._ahead = (dict(zip(graphs, self._classify_many(list(graphs.values()))))
                       if graphs else {})

    def clone(self) -> "HardLabelOracle":
        """Same classifier with fresh counts, the same cap and no label
        computed ahead (per-target accounting)."""
        twin = copy.copy(self)
        HardLabelOracle.__init__(twin, QueryLedger(self.ledger.max_queries))
        return twin


class LabelMemo:
    """The adversarial verdicts of one attack run, and the graph it returns.

    Binds the run's oracle, its predicate on labels (what counts as
    adversarial), its target ``graph`` and its perturbation-rate
    ``budget``.  Oracles are deterministic, so a graph submitted again is
    answered from the labels held here without a query; ``hits`` counts
    those answers.  Keyed by the edge bits alone: one run keeps the node
    count fixed.  Kept per run, never on an oracle or ledger (a
    ``DefendedOracle`` shares its inner oracle's ledger).  ``best`` is the
    fewest-flip graph a query found adversarial with
    ``perturbation_rate(graph, g) <= budget``, the first found on a tie
    (None until one is found).
    """

    __slots__ = ("oracle", "predicate", "graph", "budget", "labels", "hits", "best",
                 "_best_rate")

    def __init__(self, oracle: HardLabelOracle, predicate, graph: Graph, budget: float):
        self.oracle = oracle
        self.predicate = predicate
        self.graph = graph
        self.budget = budget
        self.labels: dict[bytes, int] = {}
        self.hits = 0
        self.best: Graph | None = None
        self._best_rate = float("inf")

    def adversarial(self, graph: Graph, phase: str) -> bool:
        """Whether ``graph`` is adversarial: a query in ``phase`` unless
        memoised.  A query that finds it so weighs it against ``best``."""
        key = graph.bits.tobytes()
        label = self.labels.get(key)
        if label is not None:
            self.hits += 1
            return self.predicate(label)
        label = self.labels[key] = self.oracle.classify(graph, phase)
        if not self.predicate(label):
            return False
        # flips over a fixed slot count: the rate orders graphs by their flips
        rate = perturbation_rate(self.graph, graph)
        if rate < self._best_rate and rate <= self.budget:
            self.best, self._best_rate = graph, rate
        return True

    def in_blocks(self, graphs):
        """Yield ``graphs`` (None entries included) in order, each block
        of ``BLOCK`` graphs labelled ahead in one batch call of the oracle.

        Fixed streams only: which graphs come next must not depend on the
        labels of those before.  A block is taken from ``graphs`` before
        any of it is yielded, so a lazy ``graphs`` builds at most one
        block past the point where the caller stops.  The labels computed
        are those of the block's graphs not in the memo yet; each still
        costs its query only when ``adversarial`` submits it.  Those left
        unasked are dropped when the next block is labelled or the
        generator ends: close it (``contextlib.closing``) when the caller
        may stop early.  An oracle without a batch kernel yields
        ``graphs`` as they come.
        """
        if self.oracle._classify_many is None:
            yield from graphs
            return
        graphs = iter(graphs)
        try:
            while block := list(islice(graphs, BLOCK)):
                fresh = {g.bits.tobytes(): g for g in block if g is not None}
                self.oracle.compute_ahead({key: g for key, g in fresh.items()
                                           if key not in self.labels})
                yield from block
        finally:
            self.oracle.compute_ahead({})


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
