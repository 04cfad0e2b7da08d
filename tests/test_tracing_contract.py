"""The benchmark's tracer (``perfbench/tracing.py``) wraps program names.

It replaces each traced function at ``vars(owner)[attr]``, so a renamed
or inherited function breaks the benchmark, not the program.  These
checks keep that contract visible to the tier-1 suite, which does not
collect ``perfbench/``.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

from blackedge import harness
from blackedge.attack import AttackConfig
from blackedge.datasets import erdos_renyi
from blackedge.oracle import PHASES, structural_oracle

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_traced_name_is_defined_on_its_owner():
    for owner, attr, _span in tracing.wrap_points():
        assert attr in vars(owner), f"{owner.__name__}.{attr} is not defined there"
        assert callable(vars(owner)[attr])
        if attr == "classify":  # the tracer reads the graph as args[1]
            params = list(inspect.signature(vars(owner)[attr]).parameters)
            assert params[:2] == ["self", "graph"]


def test_traced_phases_match_the_ledger():
    assert tracing.PHASES == PHASES
    graph = erdos_renyi(10, 0.3, np.random.default_rng(0))
    oracle = structural_oracle("edge_count", graph.n_edges + 4)
    cfg = AttackConfig(budget=0.5, iterations=2, directions_per_step=4, seed=3)
    with tracing.Tracer() as tracer:
        tracer.begin_target(0)
        report = harness.run_experiment(oracle, [graph], cfg)
    queries = report.per_graph[0]["queries"]
    assert queries["total"] > 0
    assert tracer.phase_counts(1)[0].tolist() == [queries[p] for p in PHASES]
