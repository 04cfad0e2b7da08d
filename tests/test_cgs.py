"""Coarse-grained initial search over the phased components."""

import re
from itertools import groupby

import numpy as np
import pytest

from blackedge.attack import AttackConfig
from blackedge.cgs import coarse_grained_search
from blackedge.datasets import barbell, erdos_renyi
from blackedge.errors import BudgetExhausted, NoAdversarialFound
from blackedge.graph import apply_perturbation
from blackedge.oracle import FunctionOracle, LabelMemo, structural_oracle
from blackedge.partition import enumerate_components, louvain

from helpers import reference_coarse_grained_search, search_label_cases, untargeted_memo


@pytest.fixture
def setup():
    g = barbell(4)
    return g, louvain(g, seed=0)


def test_no_success_exhausts_every_phase(setup):
    g, part = setup
    oracle = FunctionOracle(lambda _: 0)  # never adversarial
    memo = untargeted_memo(oracle, g)
    with pytest.raises(NoAdversarialFound, match="after 120 trials"):
        coarse_grained_search(memo, g, part)
    # components carry 4+4+8+8 incident nodes, 5 trials each per node; a
    # trial repeating an earlier graph is answered by the memo
    assert oracle.ledger.total + memo.hits == 120
    assert oracle.ledger.snapshot()["cgs"] == oracle.ledger.total == len(memo.labels)


def test_success_skips_later_phases(setup):
    g, part = setup
    oracle = FunctionOracle(lambda _: 1)  # everything is adversarial
    memo = untargeted_memo(oracle, g)
    outcome = coarse_grained_search(memo, g, part)
    assert outcome.found_in == "supernode"
    # the supernode phase draws the flip counts of all its 40 trials (both
    # components); its fewest-flip trial is submitted first and succeeds,
    # the other 39 are skipped, and later phases are never drawn
    assert oracle.ledger.total + memo.hits + outcome.skipped == 40
    assert outcome.skipped == 39
    assert oracle.ledger.total == len(memo.labels) == 1


def test_outcome_theta_reproduces_the_flips(setup):
    g, part = setup
    oracle = FunctionOracle(lambda _: 1)
    outcome = coarse_grained_search(untargeted_memo(oracle, g), g, part)
    perturbed = apply_perturbation(g, outcome.theta0)
    assert int(np.count_nonzero(perturbed.bits ^ g.bits)) == outcome.flips
    assert set(np.flatnonzero(outcome.theta0 >= 0.5).tolist()) <= set(range(28))


def test_minimal_flip_success_is_kept(setup):
    g, part = setup
    # adversarial iff at least one edge flipped anywhere: the minimum over
    # a full phase of uniform draws is very likely a single flip
    oracle = FunctionOracle(
        lambda h: int(np.count_nonzero(h.bits ^ g.bits) >= 1)
    )
    outcome = coarse_grained_search(untargeted_memo(oracle, g), g, part, rng_seed=1)
    assert outcome.flips == 1


def test_deterministic_given_seed(setup):
    g, part = setup
    a = coarse_grained_search(untargeted_memo(FunctionOracle(lambda _: 1), g), g, part, rng_seed=5)
    b = coarse_grained_search(untargeted_memo(FunctionOracle(lambda _: 1), g), g, part, rng_seed=5)
    assert np.array_equal(a.theta0, b.theta0)
    assert a.flips == b.flips and a.found_in == b.found_in


def test_budget_exhaustion_reports_exact_spend(setup):
    g, part = setup
    oracle = FunctionOracle(lambda _: 0)  # never adversarial
    oracle.ledger.max_queries = 25
    with pytest.raises(BudgetExhausted):
        coarse_grained_search(untargeted_memo(oracle, g), g, part)
    assert oracle.ledger.total == 25
    # a success ends the search, so a cap never stops it holding one
    oracle = FunctionOracle(lambda _: 1)
    oracle.ledger.max_queries = 1
    coarse_grained_search(untargeted_memo(oracle, g), g, part)
    assert oracle.ledger.total == 1


def test_custom_predicate_targets_a_label():
    g = barbell(4)
    part = louvain(g, seed=0)
    oracle = structural_oracle("edge_count", 10)  # 13 edges -> label 1
    outcome = coarse_grained_search(LabelMemo(oracle, lambda label: label == 0, g, 1.0), g, part)
    perturbed = apply_perturbation(g, outcome.theta0)
    assert perturbed.n_edges < 10


def test_strategy_three_searches_whole_graph_only(setup):
    g, part = setup
    oracle = FunctionOracle(lambda _: 1)
    memo = untargeted_memo(oracle, g)
    outcome = coarse_grained_search(memo, g, part, strategy="III")
    assert outcome.found_in == "whole_graph"
    # 5 trials x 8 incident nodes; only the first in flip order is submitted
    assert oracle.ledger.total + memo.hits + outcome.skipped == 40
    assert oracle.ledger.total == 1


@pytest.mark.parametrize("strategy", ["I", "II", "III"])
def test_flip_order_search_equals_the_draw_order_reference(strategy):
    """Same outcome as submitting every trial in draw order, never more queries."""
    found = failed = 0
    for seed in range(12):
        g = erdos_renyi(10 + seed % 4, 0.3, np.random.default_rng(seed))
        part = louvain(g, seed=seed)
        for label_fn, y0, target in search_label_cases(g):
            predicate = AttackConfig(target_label=target).predicate(y0)
            args = (g, part, strategy, seed)
            ref_oracle, oracle = FunctionOracle(label_fn), FunctionOracle(label_fn)
            ref_memo = LabelMemo(ref_oracle, predicate, g, 1.0)
            memo = LabelMemo(oracle, predicate, g, 1.0)
            try:
                expected = reference_coarse_grained_search(ref_memo, *args)
            except NoAdversarialFound as exc:
                with pytest.raises(NoAdversarialFound, match=re.escape(str(exc))):
                    coarse_grained_search(memo, *args)
                # every trial is submitted when none succeeds
                assert oracle.ledger.snapshot() == ref_oracle.ledger.snapshot()
                assert memo.hits == ref_memo.hits
                failed += 1
                continue
            outcome = coarse_grained_search(memo, *args)
            assert np.array_equal(outcome.theta0, expected.theta0)
            assert (outcome.flips, outcome.found_in) == (expected.flips, expected.found_in)
            assert oracle.ledger.total <= ref_oracle.ledger.total
            # each trial the reference submitted is submitted or skipped
            assert oracle.ledger.total + memo.hits + outcome.skipped == \
                ref_oracle.ledger.total + ref_memo.hits
            found += 1
    assert found and failed


class _TiedUniforms:
    """A seeded generator whose uniforms put ``u * m`` on exact .5 ties.

    Its ``k``-th ``uniform`` call is for the ``k``-th component of
    ``sizes``; the first entries of each call are replaced by
    ``(i + 0.5) / m``.  Every uniform handed out is kept.
    """

    def __init__(self, seed, sizes):
        self.rng = np.random.default_rng(seed)
        self.sizes = iter(sizes)
        self.uniforms = []

    def uniform(self, low, high, size):
        u = self.rng.uniform(low, high, size)
        m = next(self.sizes)
        ties = min(size, m) // 2
        u[:ties] = (np.arange(ties) + 0.5) / m
        self.uniforms.append(u)
        return u

    def permutation(self, x):
        return self.rng.permutation(x)


def test_flip_counts_and_slots_follow_the_law_of_the_draws(setup, monkeypatch):
    g, part = setup
    comps = enumerate_components(part)
    rng = _TiedUniforms(3, [c.slots.size for c in comps])
    monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
    submitted = []

    class RecordingMemo(LabelMemo):
        """Records every submitted graph, memo hits included."""

        def adversarial(self, graph, phase):
            submitted.append(np.flatnonzero(graph.bits ^ g.bits))
            return super().adversarial(graph, phase)

    memo = RecordingMemo(FunctionOracle(lambda _: 0), lambda label: label != 0, g, 1.0)
    with pytest.raises(NoAdversarialFound):  # every trial is submitted
        coarse_grained_search(memo, g, part)
    assert [u.size for u in rng.uniforms] == [5 * c.n_incident for c in comps]
    # flip counts are max(1, round(u * m)) on the uniforms drawn, and the
    # ties among them round half to even
    expected = []
    for _, phase in groupby(zip(comps, rng.uniforms), lambda t: t[0].kind):
        trials = [(max(1, round(float(u) * c.slots.size)), c) for c, us in phase for u in us]
        expected += sorted(trials, key=lambda t: t[0])
    ties = {float(u) * c.slots.size for c, us in zip(comps, rng.uniforms) for u in us
            if float(u) * c.slots.size % 1 == 0.5}
    assert {0.5, 1.5, 2.5} <= ties
    assert len(submitted) == len(expected) == 120
    # each trial flips exactly its count of distinct slots, all in its component
    for flipped, (n_flip, comp) in zip(submitted, expected):
        assert flipped.size == n_flip
        assert set(flipped.tolist()) <= set(comp.slots.tolist())


@pytest.mark.parametrize("strategy", ["I", "II", "III"])
def test_a_first_trial_success_draws_one_permutation(setup, monkeypatch, strategy):
    g, part = setup
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(default_rng(seed)) or made[-1])
    outcome = coarse_grained_search(untargeted_memo(FunctionOracle(lambda _: 1), g), g, part,
                                    strategy, rng_seed=7)
    assert len(made) == 1
    # replay: the first phase's flip counts, one call per component, then
    # the slots of the one trial submitted
    replay = default_rng(7)
    phase = next(groupby(enumerate_components(part, strategy), lambda c: c.kind))[1]
    for comp in phase:
        replay.uniform(0.0, 1.0, 5 * comp.n_incident)
        if set(np.flatnonzero(outcome.theta0).tolist()) <= set(comp.slots.tolist()):
            slots = comp.slots
    chosen = replay.permutation(slots)[:outcome.flips]
    assert np.array_equal(np.flatnonzero(outcome.theta0), np.sort(chosen))
    assert made[0].bit_generator.state == replay.bit_generator.state
