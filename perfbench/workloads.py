"""Workload generator for the blackedge benchmark.

Every workload attacks graphs from one fixed evaluation set of 20-node
Erdos-Renyi graphs (p = 0.2, so d = 190 edge slots), the way attacks are
evaluated on a fixed dataset; the workload seed drives the attack's
randomness (coarse-search trials, probe directions, random flips)
through the per-target seeds ``run_experiment`` derives from it.  A timed
run that goes round the targets again offsets the attack seed on each
further pass, so every attempt is a fresh (graph, attack seed) pair.  The
program only receives the graphs, an oracle and a config.

Per-target cost is bimodal.  A target whose coarse-search seed flips a
perfect-square number of slots lands exactly on the flip threshold: its
objective is 0, every probe is degenerate and the descent stops early.
The others run all iterations, and targets need anything from 1 to 14
flips.  Which targets stop early depends on the graph and on the attack
seed, so a run must attack many targets to be steady:

- Fresh graphs per seed made success rate, flips and throughput swing
  by 15-26% between seeds at 48 targets per run, so the graphs are
  fixed, like a dataset.
- At 48 targets the attack seed alone still moved the balanced-GIN
  throughput by 40%, so the attack runs the criterion-7 config (budget
  0.2, T = 30, mu = 0.1) with Q = 10 probes per step instead of 100.
  That buys about ten times as many targets per run; at 150 GIN targets
  the spread between seeds fell to 3-6%.
- Attacking the same pairs again on a later pass would add time but no
  new draws of the mix of fast and slow targets, hence the per-pass seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from blackedge.attack import AttackConfig
from blackedge.datasets import generate_synthetic
from blackedge.defense import DefendedOracle, LowRankConfig
from blackedge.gin import Dense, GinOracle, GinWeights, gin_forward
from blackedge.graph import Graph
from blackedge.harness import select_targets
from blackedge.oracle import HardLabelOracle, structural_oracle

N_NODES = 20
EDGE_P = 0.2
DATASET_SEED = 20210821
DATASET_SIZE = 96
EDGE_THRESHOLD = 55
GIN_WEIGHT_SEED = 0
DEFENSE = LowRankConfig(gamma=0.5)
ATTACK = AttackConfig(budget=0.2, iterations=30, directions_per_step=10,
                      smoothing=0.1)
# About one full sign-SGD run of ATTACK (coarse search, 30 binary
# searches, 30 x 10 probes) per target.
RANDOM_QUERY_BUDGET = 1200
# Attack-seed offset of each further pass over the targets; larger than
# the evaluation set, so no two attempts of one run share a seed.
PASS_SEED_STRIDE = 10_000

# Each workload attacks the first K graphs of the evaluation set, K sized
# so one pass takes 20-30 s at the seed commit.  BENCHMARK.json says
# why each workload is in the benchmark.
TARGETS_PER_PASS = {
    "edgecount_n20": 56,  # sign-SGD vs edge count
    "gin_balanced_n20": DATASET_SIZE,  # sign-SGD vs the balanced GIN
    "random_defended_n20": DATASET_SIZE,  # random flips vs the defended GIN
}


@dataclass
class Workload:
    """Everything one run hands to ``harness.run_experiment``."""

    oracle: HardLabelOracle
    targets: list[tuple[int, Graph, int]]  # (index in the evaluation set, graph, clean label)
    cfg: AttackConfig
    method: str = "signsgd"
    random_query_budget: int | None = None
    # fewest flips any attack can need on (graph, label), when known
    optimum: Callable[[Graph, int], int] | None = None

    def target_cfg(self, idx: int, pass_index: int = 0) -> AttackConfig:
        """The config ``run_experiment`` would give evaluation graph ``idx``.

        Pass ``pass_index`` > 0 runs the evaluation as if seeded
        ``PASS_SEED_STRIDE * pass_index`` higher.
        """
        return replace(self.cfg, seed=self.cfg.seed + PASS_SEED_STRIDE * pass_index + idx)


def shift_class1_bias(weights: GinWeights, delta: float) -> GinWeights:
    """Copy of ``weights`` with ``delta`` added to the class-1 logit."""
    head = weights.readout[0]
    bias = head.bias.copy()
    bias[1] += delta
    return GinWeights(weights.layers, [Dense(head.weight, bias)] + weights.readout[1:],
                      weights.n_classes, weights.feature_dim)


def class1_margin(weights: GinWeights, graph: Graph) -> float:
    """Class-1 bias shift at which ``graph``'s label turns from 0 to 1.

    Found by bisection with ``gin_forward`` alone: the logit gap is not
    exposed, but the label is monotone in the shift.
    """
    def label(delta):
        return gin_forward(shift_class1_bias(weights, delta), graph)

    lo, hi = -1.0, 1.0
    while label(lo) != 0:
        lo *= 2.0
    while label(hi) != 1:
        hi *= 2.0
    while hi - lo > 1e-9 * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if label(mid) == 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def balanced_gin(graphs: list[Graph]) -> GinWeights:
    """Random GIN whose class-1 bias sits at the median margin of ``graphs``.

    Untrained random weights put every graph in one class; the shift
    splits an even number of graphs exactly in half.  Costs no attack queries.
    """
    weights = GinWeights.random(GIN_WEIGHT_SEED)
    margins = [class1_margin(weights, g) for g in graphs]
    return shift_class1_bias(weights, float(np.median(margins)))


def _edge_count_optimum(graph: Graph, label: int) -> int:
    # label 0 needs edges added up to the threshold, label 1 removed below it
    if label == 0:
        return EDGE_THRESHOLD - graph.n_edges
    return graph.n_edges - EDGE_THRESHOLD + 1


def evaluation_set() -> list[Graph]:
    return generate_synthetic("erdos_renyi", DATASET_SIZE, seed=DATASET_SEED,
                              n=N_NODES, p=EDGE_P).graphs


def build(name: str, seed: int) -> Workload:
    """Generate the graphs, the oracle and the targets of one workload."""
    if name not in TARGETS_PER_PASS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(TARGETS_PER_PASS)}")
    graphs = evaluation_set()
    cfg = replace(ATTACK, seed=seed)
    if name == "edgecount_n20":
        oracle = structural_oracle("edge_count", EDGE_THRESHOLD)
        extra = {"optimum": _edge_count_optimum}
    else:
        oracle = GinOracle(balanced_gin(graphs))
        extra = {}
        if name == "random_defended_n20":
            oracle = DefendedOracle(oracle, DEFENSE)
            extra = {"method": "random", "random_query_budget": RANDOM_QUERY_BUDGET}
    targets = select_targets(oracle, graphs[:TARGETS_PER_PASS[name]])
    return Workload(oracle, targets, cfg, **extra)
