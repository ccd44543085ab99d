import math

import numpy as np
import pytest

from cogrelay.model import Topology
from cogrelay.oracle import (
    ENUMERATION_GUARD,
    ExchangeInstance,
    OracleGuardError,
    TinyInstance,
    _cluster_verdict,
    brute_force_original,
    brute_force_subproblem,
    coupled_exchange_gap,
    enumerate_policy_values,
    enumerate_policy_values_alt,
    frontier_rate,
    pair_frontier,
    random_centered_monotone,
    random_exchange_instance,
    reference_cost_to_go,
    run_verification_suite,
    verify_covariance_property,
    verify_exchange_lemma,
    verify_sequence_lemma,
)
from cogrelay.seeding import stream
from cogrelay.subpolicy import (
    DiscreteGains,
    RayleighGains,
    SegmentProblem,
    calibrate_lambda,
    deterministic_gains,
    offline_recursion,
)


def faded_instance(levels=(0.6, 1.7), power_levels=(0.5, 1.0, 2.0, 4.0), p_avail=0.8):
    topology = Topology.from_positions((0.0, 1.0, 2.1, 3.3), alpha=2.0)
    links = {}
    for s in range(3):
        for m in range(s + 1, 4):
            base = float(topology.pathloss[s, m])
            values = tuple(lv * base for lv in levels)
            probs = tuple([1.0 / len(levels)] * len(levels))
            links[(s, m)] = (values, probs)
    return TinyInstance(
        topology=topology,
        gains=DiscreteGains(links),
        power_levels=power_levels,
        p_avail=p_avail,
    )


def deterministic_instance(nodes=5, power_levels=8, p_avail=0.8):
    positions = tuple(float(k) for k in range(nodes))
    topology = Topology.from_positions(positions, alpha=2.0)
    levels = tuple(0.25 * 2.0**k for k in range(power_levels))
    return TinyInstance(
        topology=topology,
        gains=deterministic_gains(topology),
        power_levels=levels,
        p_avail=p_avail,
    )


class TestSubproblemEnumeration:
    def test_single_hop_single_level_closed_form(self):
        inst = deterministic_instance(nodes=2)
        problem = inst.problem(0, 1, pbar=1.1)
        result = brute_force_subproblem(problem)
        g = float(inst.topology.pathloss[0, 1])
        best_power = max(p for p in inst.power_levels if p <= 1.1)
        assert result.rate == pytest.approx(math.log1p(g * best_power), rel=1e-12)
        assert result.power == pytest.approx(best_power, rel=1e-12)

    def test_two_implementations_agree(self):
        inst = faded_instance()
        problem = inst.problem(0, 2, pbar=1.5)
        one = sorted(enumerate_policy_values(problem))
        two = sorted(enumerate_policy_values_alt(problem))
        assert len(one) == len(two)
        for a, b in zip(one, two):
            assert a[0] == pytest.approx(b[0], rel=1e-12)
            assert a[1] == pytest.approx(b[1], rel=1e-12)

    def test_guard_refuses_oversized_instances(self):
        inst = faded_instance(levels=(0.5, 1.0, 2.0))
        problem = inst.problem(0, 3, pbar=2.0)
        with pytest.raises(OracleGuardError):
            enumerate_policy_values(problem)

    def test_infeasible_budget_rejected(self):
        inst = deterministic_instance(nodes=2)
        with pytest.raises(ValueError):
            brute_force_subproblem(inst.problem(0, 1, pbar=0.01))

    def test_calibrated_policy_never_beats_oracle(self):
        inst = faded_instance()
        for head, end, pbar in ((0, 1, 1.2), (0, 2, 1.5), (1, 3, 2.0)):
            problem = inst.problem(head, end, pbar)
            oracle_best = brute_force_subproblem(problem)
            policy = calibrate_lambda(problem, stream(1, "dom"))
            assert policy.metrics.power_time_avg <= pbar * (1.0 + 1e-12)
            assert policy.metrics.rate <= oracle_best.rate * (1.0 + 1e-12)

    def test_frontier_lookup(self):
        values = [(1.0, 0.5), (2.0, 2.0), (1.5, 1.0), (0.2, 3.0)]
        frontier = pair_frontier(values)
        assert frontier_rate(frontier, 0.4) == 0.0
        assert frontier_rate(frontier, 0.5) == 1.0
        assert frontier_rate(frontier, 1.7) == 1.5
        assert frontier_rate(frontier, 10.0) == 2.0


class TestReferenceRecursion:
    @pytest.mark.parametrize("head,end", [(0, 1), (0, 2), (1, 3), (0, 3)])
    @pytest.mark.parametrize("lam", [0.0, 0.2, 0.7])
    def test_dp_equals_memo_free_recursion(self, head, end, lam):
        inst = faded_instance()
        problem = inst.problem(head, end, pbar=1.5)
        table = offline_recursion(problem, lam)
        for node in range(head, end + 1):
            ref = reference_cost_to_go(problem, lam, node)
            assert table.cost_to_go(node) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_dp_optimal_on_frozen_short_instances(self):
        # Segments up to length 3, two gain levels, five power levels: the
        # table's head value matches exhaustive decision-tree enumeration.
        inst = faded_instance(power_levels=(0.4, 0.8, 1.6, 3.2, 6.4))
        for head, end in ((0, 1), (0, 2), (0, 3)):
            problem = inst.problem(head, end, pbar=1.4)
            for lam in (0.0, 0.35):
                table = offline_recursion(problem, lam)
                ref = reference_cost_to_go(problem, lam, head)
                assert table.cost_to_go(head) == pytest.approx(ref, rel=1e-12)


class TestBruteForceOriginal:
    def test_full_availability_reduces_to_single_pair(self):
        inst = deterministic_instance(nodes=3, p_avail=1.0)
        p0 = 2.0
        value, alloc = brute_force_original(inst, p0, resolution=6)
        problem = inst.problem(0, 2, pbar=p0)
        direct = brute_force_subproblem(problem)
        assert value == pytest.approx(direct.rate, rel=1e-12)
        assert set(alloc) == {(0, 2)}

    def test_symmetric_topology_symmetric_allocation(self):
        topology = Topology.from_positions((0.0, 1.0, 2.0), alpha=2.0)
        levels = (0.25, 0.5, 1.0, 2.0, 4.0)
        inst = TinyInstance(
            topology=topology,
            gains=deterministic_gains(topology),
            power_levels=levels,
            p_avail=0.6,
        )
        _, alloc = brute_force_original(inst, p0=1.5, resolution=10)
        assert alloc[(0, 1)] == pytest.approx(alloc[(1, 2)], rel=1e-9)

    def test_extra_allocation_always_dominated(self):
        inst = deterministic_instance(nodes=4, p_avail=0.7)
        p0 = 2.0
        prob = inst.pair_probabilities()
        mass = sum(prob.values())
        uniform = {pair: p0 / mass for pair in prob}
        value_with, _ = brute_force_original(inst, p0, resolution=4,
                                             extra_allocations=[uniform])
        value_without, _ = brute_force_original(inst, p0, resolution=4)
        assert value_with >= value_without - 1e-15

    def test_budget_violating_extra_rejected(self):
        inst = deterministic_instance(nodes=3, p_avail=0.7)
        prob = inst.pair_probabilities()
        too_big = {pair: 100.0 for pair in prob}
        with pytest.raises(ValueError):
            brute_force_original(inst, p0=1.0, resolution=3,
                                 extra_allocations=[too_big])


class TestExchangeLemma:
    def test_single_row_reduces_trivially(self, rng):
        inst = ExchangeInstance(
            weights=np.array([[1.0, 2.0]]),
            tables=[np.array([0.3, -0.1]), np.array([1.0])],
        )
        assert verify_exchange_lemma(inst)

    def test_random_instances_exact_equality(self):
        gen = stream(2, "exchange")
        assert all(
            verify_exchange_lemma(random_exchange_instance(gen)) for _ in range(200)
        )

    def test_coupled_control_breaks_equality(self):
        gen = stream(3, "exchange-control")
        gaps = [coupled_exchange_gap(gen) for _ in range(200)]
        assert all(g >= -1e-12 for g in gaps)  # min-max always dominates
        assert any(g > 1e-9 for g in gaps)  # and the coupling makes it strict


class TestSequenceLemma:
    def test_zero_sequences(self):
        assert verify_sequence_lemma([0.0, 0.0], [0.0, 0.0], [0.5, 0.5]) == 0.0

    def test_hand_example(self):
        assert verify_sequence_lemma([-1.0, 1.0], [1.0, -1.0], [0.5, 0.5]) == pytest.approx(-1.0)

    def test_random_centered_monotone_never_positive(self):
        gen = stream(4, "sequence")
        worst = -np.inf
        for _ in range(10_000):
            a, b, p = random_centered_monotone(gen)
            worst = max(worst, verify_sequence_lemma(a, b, p))
        assert worst <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_sequence_lemma([1.0, 0.0], [1.0, -1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            verify_sequence_lemma([-1.0, 1.0], [1.0, -1.0], [0.7, 0.7])


class TestCovariance:
    def test_deterministic_gains_zero_covariance(self):
        topology = Topology.from_positions((0.0, 1.0, 2.0, 3.0), alpha=2.0)
        problem = SegmentProblem(
            head=0, end=3, gains=deterministic_gains(topology), pbar=2.0,
            p_max=200.0, p_floor=2e-6, mc_samples=1, episodes=1,
        )
        policy = calibrate_lambda(problem, stream(5, "cov"))
        report = verify_covariance_property(policy, episodes=200, rng=stream(5, "cov-ep"))
        assert len(report.clusters) == problem.length - 1
        assert report.verdict == "consistent"
        assert all(abs(c.estimate) <= 1e-12 for c in report.clusters)

    def test_faded_chain_consistent(self, bench_topology):
        problem = SegmentProblem(
            head=0, end=4, gains=RayleighGains(bench_topology), pbar=6.0,
            p_max=600.0, p_floor=6e-6, mc_samples=400, episodes=400,
        )
        policy = calibrate_lambda(problem, stream(6, "cov"))
        report = verify_covariance_property(policy, episodes=6000, rng=stream(6, "cov-ep"))
        assert len(report.clusters) == problem.length - 1
        assert report.verdict != "violated"
        for c in report.clusters:
            assert c.estimate <= 3.0 * max(c.se, 1e-15)

    def test_verdict_rules(self):
        assert _cluster_verdict(-0.5, 10.0) == "consistent"
        assert _cluster_verdict(0.0, 0.0) == "consistent"
        assert _cluster_verdict(0.5, 1.0) == "inconclusive"  # unresolved sign
        assert _cluster_verdict(0.5, 0.3) == "consistent"  # within 3 SE
        assert _cluster_verdict(4.0, 1.0) == "violated"


class TestVerificationSuite:
    def test_full_battery_passes(self):
        report = run_verification_suite(seed=20260810)
        failures = [r for r in report["results"] if not r["passed"]]
        assert report["all_passed"], failures
        names = {r["check"] for r in report["results"]}
        assert "flow_balance_identity" in names
        assert "exchange_lemma" in names
