"""Hard-label classifier oracles, and the run memo that counts their queries.

Oracles return only an integer class label and count nothing.  An attack
run asks them through its ``LabelMemo``, whose ``query`` is the one place
a query is counted: one per ``classify`` call, attributed to the phase
the caller names (coarse search, binary search, gradient probes, ...),
and refused once the run's cap is reached.

An oracle with a batch label kernel (``_classify_many``) can label a
block of graphs, given as the run graph and one matrix of their bits, in
one call before any is asked about (``LabelMemo.in_blocks``).  The memo
holds those labels apart from its verdicts until a query hands one to
``classify``, so a label computed ahead but never asked for is never a
query and never a verdict.  The oracle itself holds no label.
"""

from __future__ import annotations

import copy
from itertools import islice

import numpy as np

from .errors import BudgetExhausted, ConfigError
from .graph import Graph

PHASES = ("cgs", "binary_search", "qegc", "other")
# Most graphs whose labels one batch call computes ahead: a per-graph cost
# near the batch kernels' floor, and at most this many computed for nothing
# when a search ends inside a block.
BLOCK = 32


class HardLabelOracle:
    """Base class: a deterministic Graph -> label map that counts nothing.

    A subclass with a batch label kernel defines ``_classify_many(graph,
    bits)``: the labels ``_classify`` gives ``graph`` with each row of a
    (rows, slots) 0/1 uint8 matrix ``bits`` as its edge bits.  Without one,
    ``_classify_many`` is None and no label is ever computed ahead.
    """

    _classify_many = None

    def classify(self, graph: Graph, label: int | None = None) -> int:
        """The label of ``graph``.

        ``label`` is one ``_classify_many`` computed ahead for ``graph``
        (only ``LabelMemo.query`` passes one); it is returned as is, so a
        query costs one ``classify`` call either way.  Without it,
        ``_classify`` computes it.
        """
        return self._classify(graph) if label is None else label

    def _classify(self, graph: Graph) -> int:
        raise NotImplementedError

    def clone(self) -> "HardLabelOracle":
        """A shallow copy: the same classifier."""
        return copy.copy(self)


class LabelMemo:
    """The context of one attack run: its queries, its verdicts and the
    graph it returns.

    Binds the run's oracle, its predicate on labels (what counts as
    adversarial), its target ``graph``, its perturbation-rate budget and
    its query cap ``max_queries`` (None for none).  ``queries`` counts the
    run's queries per phase of ``PHASES``; ``query`` is the only place one
    is counted.  Oracles are deterministic, so a graph submitted again is
    answered from the labels held here without a query; ``hits`` counts
    those answers.  Keyed by the edge bits alone: one run keeps the node
    count fixed.  Kept per run, never on an oracle, so runs on one oracle
    share no count, no cap and no verdict.

    The budget is held as ``max_flips``: the largest k in [0, d] with
    ``k / d <= budget`` over d slots (one on a graph without any), the
    rate ``perturbation_rate`` compares; k/d grows strictly with k.
    ``best`` is the fewest-flip graph a query found adversarial within
    ``max_flips``, the first found on a tie (None until one is found), and
    ``best_flips`` its flips, ``max_flips + 1`` until then.

    ``ahead`` holds the labels of the current block of ``in_blocks``,
    computed ahead and not asked about yet; a query takes its graph's
    label from there and hands it to ``query``.
    """

    __slots__ = ("oracle", "predicate", "graph", "max_flips", "max_queries", "queries",
                 "labels", "hits", "best", "best_flips", "ahead")

    def __init__(self, oracle: HardLabelOracle, predicate, graph: Graph, budget: float,
                 max_queries: int | None = None):
        self.oracle = oracle
        self.predicate = predicate
        self.graph = graph
        d = graph.n_edge_slots
        # floor(budget * d) is at most one off the largest count within budget
        k = min(int(budget * d) + 1, d)
        while k > 0 and k / max(d, 1) > budget:
            k -= 1
        self.max_flips = k
        self.max_queries = max_queries
        self.queries = dict.fromkeys(PHASES, 0)
        self.labels: dict[bytes, int] = {}
        self.hits = 0
        self.best: Graph | None = None
        self.best_flips = k + 1
        self.ahead: dict[bytes, int] = {}

    @property
    def total(self) -> int:
        return sum(self.queries.values())

    def query(self, graph: Graph, phase: str, label: int | None = None) -> int:
        """Count one query in ``phase`` and return the oracle's label of
        ``graph``, never answered from the memo.

        ``label`` is the one ``in_blocks`` computed ahead for ``graph``,
        handed to ``classify`` as is.  Once ``max_queries`` are counted the
        query is refused with ``BudgetExhausted``, and an unknown phase
        with ``ValueError``; neither counts anything or asks the oracle.
        """
        queries = self.queries
        if phase not in queries:
            raise ValueError(f"unknown phase {phase!r}; choose from {PHASES}")
        if self.max_queries is not None and self.total >= self.max_queries:
            raise BudgetExhausted(f"query budget of {self.max_queries} reached")
        queries[phase] += 1
        return self.oracle.classify(graph, label)

    def adversarial(self, graph: Graph, phase: str) -> bool:
        """Whether ``graph`` is adversarial: a query in ``phase`` unless
        memoised.  A query that finds it so weighs it against ``best``."""
        key = graph.bits.tobytes()
        label = self.labels.get(key)
        if label is not None:
            self.hits += 1
            return self.predicate(label)
        label = self.labels[key] = self.query(graph, phase, self.ahead.pop(key, None))
        if not self.predicate(label):
            return False
        flips = int(np.count_nonzero(graph.bits ^ self.graph.bits))
        if flips < self.best_flips:
            self.best, self.best_flips = graph, flips
        return True

    def in_blocks(self, graphs):
        """Yield ``graphs`` (None entries included) in order, each block
        of ``BLOCK`` graphs labelled ahead in one batch call of the oracle.

        Fixed streams only: which graphs come next must not depend on the
        labels of those before, and the graphs share the node count and
        features of the run's ``graph``.  A block is taken from ``graphs``
        before any of it is yielded, so a lazy ``graphs`` builds at most
        one block past the point where the caller stops.  The labels
        computed, from one matrix of their bits, are those of the block's
        graphs not in the memo yet, held in ``ahead``; each still costs its
        query only when ``adversarial`` submits it.  Those left unasked
        stay there, never a query or a verdict, until the next block.
        An oracle without a batch kernel yields ``graphs`` as they come.
        """
        classify_many = self.oracle._classify_many
        if classify_many is None:
            yield from graphs
            return
        graphs = iter(graphs)
        while block := list(islice(graphs, BLOCK)):
            fresh = {key: g.bits for g in block
                     if g is not None and (key := g.bits.tobytes()) not in self.labels}
            labels = classify_many(self.graph, np.stack(list(fresh.values()))) if fresh else []
            self.ahead = dict(zip(fresh, labels))
            yield from block


class FunctionOracle(HardLabelOracle):
    """Wrap an arbitrary pure function Graph -> int."""

    def __init__(self, fn):
        self._fn = fn

    def _classify(self, graph: Graph) -> int:
        return int(self._fn(graph))


def _triangle_count(graph: Graph) -> int:
    a = graph.adjacency.astype(np.int64)
    return int(np.trace(a @ a @ a)) // 6


def _max_degree(graph: Graph) -> int:
    return int(graph.adjacency.sum(axis=1).max()) if graph.n_nodes else 0


# the statistic a structural oracle thresholds, by feature name
STRUCTURAL_FEATURES = {
    "edge_count": lambda graph: graph.n_edges,
    "triangle_count": _triangle_count,
    "max_degree": _max_degree,
}


def structural_oracle(feature: str, threshold: int) -> FunctionOracle:
    """Label 1 iff a structural statistic reaches ``threshold``, else 0.

    A ground-truth target with an analytically known decision boundary,
    for small-scale validation runs.
    """
    if feature not in STRUCTURAL_FEATURES:
        raise ConfigError(f"feature must be one of {tuple(STRUCTURAL_FEATURES)}")
    statistic, threshold = STRUCTURAL_FEATURES[feature], int(threshold)
    return FunctionOracle(lambda graph: statistic(graph) >= threshold)
