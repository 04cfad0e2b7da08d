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

from helpers import (
    perfbench_module,
    reference_coarse_grained_search,
    search_label_cases,
    untargeted_memo,
)


@pytest.fixture
def setup():
    g = barbell(4)
    return g, louvain(g, seed=0)


def test_no_success_exhausts_every_phase(setup):
    g, part = setup
    oracle = FunctionOracle(lambda _: 0)  # never adversarial
    memo = untargeted_memo(oracle, g)
    with pytest.raises(NoAdversarialFound, match="after 120 trials"):
        coarse_grained_search(memo, part)
    # components carry 4+4+8+8 incident nodes, 5 trials each per node; a
    # trial repeating an earlier graph is answered by the memo
    assert oracle.ledger.total + memo.hits == 120
    assert oracle.ledger.snapshot()["cgs"] == oracle.ledger.total == len(memo.labels)


def test_success_skips_later_phases(setup):
    g, part = setup
    oracle = FunctionOracle(lambda _: 1)  # everything is adversarial
    memo = untargeted_memo(oracle, g)
    outcome = coarse_grained_search(memo, part)
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
    outcome = coarse_grained_search(untargeted_memo(oracle, g), part)
    perturbed = apply_perturbation(g, outcome.theta0)
    assert int(np.count_nonzero(perturbed.bits ^ g.bits)) == int(outcome.theta0.sum())
    assert set(np.flatnonzero(outcome.theta0 >= 0.5).tolist()) <= set(range(28))


def test_minimal_flip_success_is_kept(setup):
    g, part = setup
    # adversarial iff at least one edge flipped anywhere: the minimum over
    # a full phase of uniform draws is very likely a single flip
    oracle = FunctionOracle(
        lambda h: int(np.count_nonzero(h.bits ^ g.bits) >= 1)
    )
    outcome = coarse_grained_search(untargeted_memo(oracle, g), part, rng_seed=1)
    assert int(outcome.theta0.sum()) == 1


def test_deterministic_given_seed(setup):
    g, part = setup
    a = coarse_grained_search(untargeted_memo(FunctionOracle(lambda _: 1), g), part, rng_seed=5)
    b = coarse_grained_search(untargeted_memo(FunctionOracle(lambda _: 1), g), part, rng_seed=5)
    assert np.array_equal(a.theta0, b.theta0)
    assert a.found_in == b.found_in


def test_budget_exhaustion_reports_exact_spend(setup):
    g, part = setup
    oracle = FunctionOracle(lambda _: 0)  # never adversarial
    oracle.ledger.max_queries = 25
    with pytest.raises(BudgetExhausted):
        coarse_grained_search(untargeted_memo(oracle, g), part)
    assert oracle.ledger.total == 25
    # a success ends the search, so a cap never stops it holding one
    oracle = FunctionOracle(lambda _: 1)
    oracle.ledger.max_queries = 1
    coarse_grained_search(untargeted_memo(oracle, g), part)
    assert oracle.ledger.total == 1


def test_custom_predicate_targets_a_label():
    g = barbell(4)
    part = louvain(g, seed=0)
    oracle = structural_oracle("edge_count", 10)  # 13 edges -> label 1
    outcome = coarse_grained_search(LabelMemo(oracle, lambda label: label == 0, g, 1.0), part)
    perturbed = apply_perturbation(g, outcome.theta0)
    assert perturbed.n_edges < 10


def test_strategy_three_searches_whole_graph_only(setup):
    g, part = setup
    oracle = FunctionOracle(lambda _: 1)
    memo = untargeted_memo(oracle, g)
    outcome = coarse_grained_search(memo, part, strategy="III")
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
            args = (part, strategy, seed)
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
            assert outcome.found_in == expected.found_in
            assert oracle.ledger.total <= ref_oracle.ledger.total
            # each trial the reference submitted is submitted or skipped
            assert oracle.ledger.total + memo.hits + outcome.skipped == \
                ref_oracle.ledger.total + ref_memo.hits
            found += 1
    assert found and failed


def _sides(graph, comp):
    """The non-edge and the edge slots of ``comp``."""
    return [[s for s in comp.slots.tolist() if graph.bits[s] == b] for b in (0, 1)]


class _TiedDraws:
    """A seeded generator whose draws put ``u * m_side`` on exact .5 ties.

    Its ``k``-th ``uniform`` call and ``k``-th ``integers`` call are for
    the ``k``-th component of ``sizes``, a list of (non-edge, edge) side
    sizes.  Of a call's draws, the first ``t0`` get ``u = (i + 0.5) / m0``
    on side 0 and the next ``t1`` get ``u = (i + 0.5) / m1`` on side 1.
    Every uniform and side handed out is kept.
    """

    def __init__(self, seed, sizes):
        self.rng = np.random.default_rng(seed)
        self.sizes = iter(sizes)
        self.uniforms, self.sides = [], []

    def uniform(self, low, high, size):
        u = self.rng.uniform(low, high, size)
        m0, m1 = next(self.sizes)
        t0, t1 = self.ties = min(size // 4, m0 // 2), min(size // 4, m1 // 2)
        u[:t0] = (np.arange(t0) + 0.5) / m0
        u[t0:t0 + t1] = (np.arange(t1) + 0.5) / m1
        self.uniforms.append(u)
        return u

    def integers(self, low, high, size):
        side = self.rng.integers(low, high, size)
        t0, t1 = self.ties
        side[:t0], side[t0:t0 + t1] = 0, 1
        self.sides.append(side)
        return side

    def permutation(self, x):
        return self.rng.permutation(x)


def test_flip_counts_and_slots_follow_the_law_of_the_draws(setup, monkeypatch):
    g, part = setup
    comps = enumerate_components(part)
    # without the bridge the superlink holds no edge, and each supernode
    # (a clique) no non-edge: both sides fall back to the whole component
    link = next(c for c in comps if c.kind == "superlink")
    g = g.flip(link.slots[g.bits[link.slots] == 1])
    sides = [_sides(g, c) for c in comps]
    # the sizes the counts scale by: an empty side's is the component's
    rng = _TiedDraws(3, [(len(s0) or c.slots.size, len(s1) or c.slots.size)
                         for c, (s0, s1) in zip(comps, sides)])
    monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
    submitted = []

    class RecordingMemo(LabelMemo):
        """Records every submitted graph, memo hits included."""

        def adversarial(self, graph, phase):
            submitted.append(np.flatnonzero(graph.bits ^ g.bits))
            return super().adversarial(graph, phase)

    memo = RecordingMemo(FunctionOracle(lambda _: 0), lambda label: label != 0, g, 1.0)
    with pytest.raises(NoAdversarialFound):  # every trial is submitted
        coarse_grained_search(memo, part)
    # one uniform and one side per trial, one call each per component
    assert [u.size for u in rng.uniforms] == [5 * c.n_incident for c in comps]
    assert [b.size for b in rng.sides] == [5 * c.n_incident for c in comps]
    # flip counts are max(1, round(u * m_side)) on the draws, an empty side
    # standing for the whole component, and the ties round half to even
    expected = []
    ties, fell_back = set(), set()
    for _, phase in groupby(zip(comps, sides, rng.uniforms, rng.sides), lambda t: t[0].kind):
        trials = []
        for comp, comp_sides, us, bs in phase:
            for u, b in zip(us.tolist(), bs.tolist()):
                side = comp_sides[b]
                if not side:
                    side = comp.slots.tolist()
                    fell_back.add((comp.kind, b))
                trials.append((max(1, round(u * len(side))), side))
                if u * len(side) % 1 == 0.5:
                    ties.add((b, u * len(side)))
        expected += sorted(trials, key=lambda t: t[0])
    assert {(b, x) for b in (0, 1) for x in (0.5, 1.5, 2.5)} <= ties
    assert fell_back == {("supernode", 0), ("superlink", 1)}
    assert len(submitted) == len(expected) == 120
    # each trial flips exactly its count of distinct slots, all on its side
    for flipped, (n_flip, side) in zip(submitted, expected):
        assert flipped.size == n_flip
        assert set(flipped.tolist()) <= set(side)


@pytest.mark.parametrize("strategy", ["I", "II", "III"])
def test_a_first_trial_success_draws_one_permutation(setup, monkeypatch, strategy):
    g, part = setup
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(default_rng(seed)) or made[-1])
    outcome = coarse_grained_search(untargeted_memo(FunctionOracle(lambda _: 1), g), part,
                                    strategy, rng_seed=7)
    assert len(made) == 1
    # replay: the first phase's flip counts, a call for the uniforms and
    # one for the sides per component, then the slots of the one trial
    # submitted, drawn from its side (all its flips add or all remove)
    replay = default_rng(7)
    flipped = np.flatnonzero(outcome.theta0)
    side_bit = g.bits[flipped[0]]
    assert np.all(g.bits[flipped] == side_bit)
    phase = next(groupby(enumerate_components(part, strategy), lambda c: c.kind))[1]
    for comp in phase:
        replay.uniform(0.0, 1.0, 5 * comp.n_incident)
        replay.integers(0, 2, 5 * comp.n_incident)
        if set(flipped.tolist()) <= set(comp.slots.tolist()):
            side = comp.slots[g.bits[comp.slots] == side_bit]
    chosen = replay.permutation(side)[:flipped.size]
    assert np.array_equal(flipped, np.sort(chosen))
    assert made[0].bit_generator.state == replay.bit_generator.state


def test_a_target_above_the_edge_threshold_gets_a_removal_only_seed():
    # a sparse graph: about 90% of a component's slots are non-edges, so a
    # trial drawing from all of them would almost always add edges
    for seed in range(4):
        g = erdos_renyi(20, 0.1, np.random.default_rng(seed))
        for k in (4, 6):
            oracle = structural_oracle("edge_count", g.n_edges - k)  # label 1
            memo = LabelMemo(oracle, lambda label: label == 0, g, 1.0)
            outcome = coarse_grained_search(memo, louvain(g, seed=seed), rng_seed=seed)
            flipped = np.flatnonzero(outcome.theta0)
            assert flipped.size >= k + 1
            assert np.all(g.bits[flipped] == 1)  # every flip removes an edge


def test_every_balanced_gin_target_gets_a_seed():
    workloads = perfbench_module("workloads")
    w = workloads.build("gin_balanced_n20", 1)
    # the 14 targets that draws from all of a component's slots left without
    # a seed at this attack seed: clean label 0, 43-52 edges; their seeds
    # remove edges
    removal_side = {4, 7, 8, 16, 17, 23, 28, 46, 54, 59, 63, 70, 76, 90}
    assert removal_side <= {idx for idx, _, _ in w.targets}
    for idx, g, y0 in w.targets:
        cfg = w.target_cfg(idx)
        memo = LabelMemo(w.oracle, cfg.predicate(y0), g, cfg.budget)
        outcome = coarse_grained_search(memo, louvain(g, seed=cfg.seed), cfg.strategy, cfg.seed)
        flipped = np.flatnonzero(outcome.theta0)
        if idx in removal_side:
            assert y0 == 0 and np.all(g.bits[flipped] == 1), idx
