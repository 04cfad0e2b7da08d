"""Every entry point checks each of its settings by one of the three rules
of ``errors``: an integer of at least a least value, a finite real number
in a range, or one of a fixed set.  An invalid setting is a ``ConfigError``
whose message begins with the setting's name; numpy scalars and each
closed bound are valid."""

import math

import numpy as np
import pytest

from blackedge.attack import AttackConfig
from blackedge.datasets import barbell, erdos_renyi, generate_synthetic, stochastic_block_model
from blackedge.defense import LowRankConfig
from blackedge.errors import ConfigError
from blackedge.harness import random_attack, run_experiment
from blackedge.oracle import structural_oracle
from blackedge.partition import STRATEGIES, enumerate_components, louvain

GRAPH = barbell(3)  # 7 edges
ORACLE = structural_oracle("edge_count", 8)
CFG = AttackConfig(iterations=2, directions_per_step=2)
SYNTHETIC = {"erdos_renyi": {"n": 5, "p": 0.5}, "barbell": {"k": 3},
             "sbm": {"sizes": [2, 3], "p_in": 0.9, "p_out": 0.1}}


def _rng():
    return np.random.default_rng(0)


def _experiment(**settings):
    return run_experiment(ORACLE, [GRAPH], CFG, **settings)


# (entry point, setting): (the call with the setting set to a value, least value)
INTEGERS = {
    ("AttackConfig", "iterations"): (lambda v: AttackConfig(iterations=v), 0),
    ("AttackConfig", "directions_per_step"): (lambda v: AttackConfig(directions_per_step=v), 1),
    ("AttackConfig", "max_queries"): (lambda v: AttackConfig(max_queries=v), 1),
    ("AttackConfig", "target_label"): (lambda v: AttackConfig(target_label=v), 0),
    ("AttackConfig", "seed"): (lambda v: AttackConfig(seed=v), 0),
    ("louvain", "seed"): (lambda v: louvain(GRAPH, seed=v), 0),
    ("structural_oracle", "threshold"): (lambda v: structural_oracle("edge_count", v), 0),
    ("random_attack", "query_budget"): (lambda v: random_attack(ORACLE, GRAPH, 0, CFG, v), 1),
    ("run_experiment", "n_trials"): (lambda v: _experiment(n_trials=v), 1),
    ("run_experiment", "random_query_budget"):
        (lambda v: _experiment(method="random", random_query_budget=v), 1),
    ("generate_synthetic", "count"):
        (lambda v: generate_synthetic("erdos_renyi", v, 0, n=5, p=0.5), 0),
    ("generate_synthetic", "seed"):
        (lambda v: generate_synthetic("erdos_renyi", 2, v, n=5, p=0.5), 0),
    ("erdos_renyi", "n"): (lambda v: erdos_renyi(v, 0.5, _rng()), 1),
    ("barbell", "k"): (lambda v: barbell(v), 2),
    ("stochastic_block_model", "sizes"):  # each block's size
        (lambda v: stochastic_block_model([v, 3], 0.9, 0.1, _rng()), 1),
}

# integer settings for which None means "none"
OPTIONAL = {("AttackConfig", "max_queries"), ("AttackConfig", "target_label")}

# (entry point, setting): (call, low, high, whether low is in the range)
REALS = {
    ("AttackConfig", "budget"): (lambda v: AttackConfig(budget=v), 0.0, 1.0, False),
    ("AttackConfig", "smoothing"): (lambda v: AttackConfig(smoothing=v), 0.0, math.inf, False),
    ("AttackConfig", "epsilon"): (lambda v: AttackConfig(epsilon=v), 0.0, math.inf, False),
    ("LowRankConfig", "gamma"): (lambda v: LowRankConfig(gamma=v), 0.0, 1.0, False),
    ("erdos_renyi", "p"): (lambda v: erdos_renyi(5, v, _rng()), 0.0, 1.0, True),
    ("stochastic_block_model", "p_in"):
        (lambda v: stochastic_block_model([2, 3], v, 0.1, _rng()), 0.0, 1.0, True),
    ("stochastic_block_model", "p_out"):
        (lambda v: stochastic_block_model([2, 3], 0.9, v, _rng()), 0.0, 1.0, True),
}

# (entry point, setting): (call, the valid choices)
CHOICES = {
    ("AttackConfig", "strategy"): (lambda v: AttackConfig(strategy=v), STRATEGIES),
    ("enumerate_components", "strategy"):
        (lambda v: enumerate_components(louvain(GRAPH), v), STRATEGIES),
    ("structural_oracle", "feature"):
        (lambda v: structural_oracle(v, 3), ("edge_count", "triangle_count", "max_degree")),
    ("run_experiment", "method"):
        (lambda v: _experiment(method=v, random_query_budget=5 if v == "random" else None),
         ("signsgd", "random")),
    ("generate_synthetic", "kind"):
        (lambda v: generate_synthetic(v, 2, 0, **SYNTHETIC.get(v, {})), tuple(SYNTHETIC)),
}

CALLS = {key: spec[0] for table in (INTEGERS, REALS, CHOICES) for key, spec in table.items()}


def _below(x):
    return float(np.nextafter(x, -math.inf))


def _above(x):
    return float(np.nextafter(x, math.inf))


def _invalid():
    for (entry, setting), (_, least) in INTEGERS.items():
        # a bool is refused even where its value is in range
        for value in (least - 1, 1.5, float(least), "3", None, True, math.nan, math.inf):
            if value is not None or (entry, setting) not in OPTIONAL:
                yield entry, setting, value
    for (entry, setting), (_, low, high, include_low) in REALS.items():
        edges = [_below(low) if include_low else low]
        if high < math.inf:
            edges.append(_above(high))
        for value in ("0.5", None, math.nan, math.inf, -math.inf, True, *edges):
            yield entry, setting, value
    for (entry, setting), _ in CHOICES.items():
        for value in ("nope", None, 1):
            yield entry, setting, value


def _valid():
    for (entry, setting), (_, least) in INTEGERS.items():
        for value in (least, np.int64(max(least, 3))):
            yield entry, setting, value
        if (entry, setting) in OPTIONAL:
            yield entry, setting, None
    for (entry, setting), (_, low, high, include_low) in REALS.items():
        values = [np.float32(0.2), np.int64(1)]
        if include_low:
            values.append(low)
        if high < math.inf:
            values.append(high)
        for value in values:
            yield entry, setting, value
    for (entry, setting), (_, choices) in CHOICES.items():
        for value in choices:
            yield entry, setting, value


def _id(case):
    entry, setting, value = case
    return f"{entry}-{setting}-{value!r}"


@pytest.mark.parametrize("entry, setting, value", list(_invalid()), ids=map(_id, _invalid()))
def test_an_invalid_setting_is_a_config_error_naming_it(entry, setting, value):
    with pytest.raises(ConfigError, match=f"^{setting} must be "):
        CALLS[entry, setting](value)


@pytest.mark.parametrize("entry, setting, value", list(_valid()), ids=map(_id, _valid()))
def test_numpy_scalars_and_closed_bounds_are_valid_settings(entry, setting, value):
    CALLS[entry, setting](value)

