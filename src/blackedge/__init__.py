"""Hard-label black-box structural attacks on graph classifiers."""

from .attack import (
    AttackConfig,
    AttackResult,
    attack_graph,
    boundary_distance,
    estimate_gradient,
    objective_p,
    probe_graphs,
    qegc_sign,
    sign_sgd_attack,
    solve_g_star,
)
from .cgs import CgsOutcome, coarse_grained_search
from .datasets import DatasetBundle, generate_synthetic, load_tudataset
from .defense import DefendedOracle, LowRankConfig, low_rank_filter
from .gin import GinOracle, GinWeights, gin_forward
from .graph import (
    EdgeIndexMap,
    Graph,
    apply_perturbation,
    flip_ledger,
    normalize,
    perturbation_rate,
)
from .harness import (
    ExperimentReport,
    aggregate_metrics,
    budget_sweep,
    clean_accuracy,
    defense_sweep,
    random_attack,
    run_experiment,
)
from .oracle import (
    HardLabelOracle,
    LabelMemo,
    structural_oracle,
)
from .partition import (
    Partition,
    SuperComponent,
    enumerate_components,
    louvain,
    search_space_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
