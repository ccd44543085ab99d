import math
from types import SimpleNamespace

import numpy as np
import pytest

import cogrelay.master
from cogrelay.master import (
    MasterOptions,
    RateModel,
    SolverOptions,
    flow_balance_identity,
    objective,
    project_budget,
    section_rates,
    solve_master,
    subgradient,
)
from cogrelay.model import Topology
from cogrelay.seeding import stream


def random_tables(rng, last):
    prob, u = {}, {}
    for i in range(last):
        for j in range(i + 1, last + 1):
            prob[(i, j)] = float(rng.uniform(0.0, 1.0))
            u[(i, j)] = float(rng.uniform(0.0, 3.0))
    return prob, u


class TestSectionRate:
    def test_zero_rates(self, rng):
        prob, u = random_tables(rng, 4)
        zeros = {k: 0.0 for k in u}
        assert section_rates(prob, zeros, 4).tolist() == [0.0] * 4

    def test_end_section_is_destination_weighted_sum(self, rng):
        last = 5
        prob, u = random_tables(rng, last)
        expected = sum(prob[(i, last)] * u[(i, last)] for i in range(last))
        assert section_rates(prob, u, last)[last - 1] == pytest.approx(expected, rel=1e-12)

    def test_hand_example(self):
        prob = {(0, 2): 0.25, (0, 1): 0.25, (1, 2): 0.25}
        u = {(0, 2): 1.0, (0, 1): 2.0, (1, 2): 2.0}
        assert section_rates(prob, u, 2) == pytest.approx([0.75, 0.75])


class TestFlowBalance:
    def test_residual_is_machine_zero_on_random_instances(self, rng):
        worst = 0.0
        for _ in range(100):
            last = int(rng.integers(2, 9))
            prob, u = random_tables(rng, last)
            for m in range(1, last):
                worst = max(worst, abs(flow_balance_identity(m, prob, u, last)))
        assert worst <= 1e-12

    def test_equal_rates_reduce_to_probability_flow(self, rng):
        last = 5
        prob, _ = random_tables(rng, last)
        u = {k: 2.0 for k in prob}
        m = 2
        assert flow_balance_identity(m, prob, u, last) == pytest.approx(0.0, abs=1e-12)
        rates = section_rates(prob, u, last)
        diff = rates[m - 1] - rates[m]
        prob_flow = 2.0 * (
            sum(prob[(i, m)] for i in range(m))
            - sum(prob[(m, j)] for j in range(m + 1, last + 1))
        )
        assert diff == pytest.approx(prob_flow, rel=1e-12)

    def test_single_hop_route_has_no_interior_sections(self):
        with pytest.raises(ValueError):
            flow_balance_identity(1, {(0, 1): 1.0}, {(0, 1): 1.0}, 1)


class TestProjection:
    def test_interior_point_unchanged(self):
        prob = {(0, 1): 0.5, (1, 2): 0.5}
        alloc = {(0, 1): 1.0, (1, 2): 1.0}
        out = project_budget(alloc, prob, p0=10.0, p_floor=1e-6)
        assert out == alloc

    def test_uniform_overshoot_scales_uniformly(self):
        prob = {(0, 1): 0.4, (1, 2): 0.6}
        c = 3.0
        p0 = 5.0
        y = c * p0 / sum(prob.values())
        out = project_budget({k: y for k in prob}, prob, p0, p_floor=1e-9)
        for v in out.values():
            assert v == pytest.approx(y / c, rel=1e-9)

    def test_kkt_residual_small(self, rng):
        prob = {(0, k + 1): float(rng.uniform(0.05, 1.0)) for k in range(5)}
        alloc = {k: float(rng.uniform(0.0, 20.0)) for k in prob}
        p0 = 4.0
        out = project_budget(alloc, prob, p0, p_floor=1e-8)
        spent = sum(prob[k] * out[k] for k in out)
        assert spent <= p0 * (1.0 + 1e-9)
        # Complementary slackness: if the shift is active the budget binds.
        if any(out[k] < alloc[k] - 1e-12 for k in out):
            assert abs(spent - p0) <= 1e-8 * max(p0, 1.0)

    def test_infeasible_floor_rejected(self):
        prob = {(0, 1): 1.0}
        with pytest.raises(ValueError):
            project_budget({(0, 1): 5.0}, prob, p0=0.5, p_floor=1.0)


def stub_policy(pbar, rate, lam, shadow_price, achieved_power):
    """Stand-in for a calibrated policy: the fields the master reads and reports."""
    return SimpleNamespace(
        # The curves are exact, as on enumerable gains.
        problem=SimpleNamespace(pbar=pbar, gains=SimpleNamespace(enumerable=True)),
        metrics=SimpleNamespace(rate=rate, rate_se=0.0, power_time_avg=achieved_power),
        lam=lam,
        shadow_price=shadow_price,
    )


class StubRateModel:
    """Closed-form concave rate curves: u = a * log(1 + b * pbar)."""

    def __init__(self, curves):
        self.curves = curves  # pair -> (a, b)

    def evaluate(self, pair, pbar):
        a, b = self.curves[pair]
        rate = a * math.log1p(b * pbar)
        slope = a * b / (1.0 + b * pbar)
        return stub_policy(
            pbar=pbar,
            rate=rate,
            lam=slope / max(rate, 1e-12),
            shadow_price=slope,
            achieved_power=pbar,
        )

    def evaluate_many(self, allocation):
        return {pair: self.evaluate(pair, pbar) for pair, pbar in allocation.items()}

    def budget_floor(self, pair):
        return 0.0


class TestObjectiveAndSubgradient:
    def test_single_segment_budget_tight(self):
        prob = {(0, 1): 1.0}
        model = StubRateModel({(0, 1): (1.0, 2.0)})
        solution = solve_master(model, prob, p0=3.0, last=1, options=MasterOptions(max_iterations=5))
        assert solution.allocation[(0, 1)] == pytest.approx(3.0, rel=1e-9)
        assert solution.best_objective == pytest.approx(math.log1p(6.0), rel=1e-9)
        assert solution.trace[0] == pytest.approx(solution.best_objective, rel=1e-9)

    def test_objective_scales_with_rates(self, rng):
        last = 3
        prob, u = random_tables(rng, last)
        alloc = {k: 1.0 for k in prob}
        base = objective(alloc, u, prob, p0=sum(prob.values()) * 2.0, last=last)
        doubled = objective(
            alloc, {k: 2.0 * v for k, v in u.items()}, prob, p0=sum(prob.values()) * 2.0, last=last
        )
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    def test_objective_rejects_budget_violation(self):
        prob = {(0, 1): 1.0}
        with pytest.raises(ValueError):
            objective({(0, 1): 2.0}, {(0, 1): 1.0}, prob, p0=1.0, last=1)

    def test_affine_toy_hand_value(self):
        prob = {(0, 1): 0.5, (1, 2): 0.5, (0, 2): 0.25}
        u = {(0, 1): 1.0, (1, 2): 3.0, (0, 2): 2.0}
        # section 1: 0.5*1 + 0.25*2 = 1.0 ; section 2: 0.5*3 + 0.25*2 = 2.0
        alloc = {k: 0.1 for k in prob}
        assert objective(alloc, u, prob, p0=1.0, last=2) == pytest.approx(1.0)

    def test_unique_bottleneck_structure(self):
        prob = {(0, 1): 0.5, (1, 2): 0.5, (0, 2): 0.25}
        evals = {
            pair: stub_policy(
                pbar=1.0, rate=r, lam=0.0, shadow_price=s, achieved_power=1.0,
            )
            for pair, (r, s) in {
                (0, 1): (1.0, 0.7),
                (1, 2): (3.0, 0.4),
                (0, 2): (2.0, 0.9),
            }.items()
        }
        alloc = {k: 1.0 for k in prob}
        grad = subgradient(alloc, evals, prob, last=2, tie_tolerance=1e-3)
        # Bottleneck is section 1; only pairs straddling it get weight.
        assert grad[(0, 1)] == pytest.approx(0.5 * 0.7)
        assert grad[(0, 2)] == pytest.approx(0.25 * 0.9)
        assert grad[(1, 2)] == 0.0

    def test_subgradient_nonnegative(self, rng):
        last = 4
        prob, _ = random_tables(rng, last)
        alloc = {k: 1.0 for k in prob}
        evals = {
            k: stub_policy(
                pbar=1.0, rate=float(rng.uniform(0.1, 2.0)),
                lam=0.0, shadow_price=float(rng.uniform(0.0, 1.0)),
                achieved_power=1.0,
            )
            for k in prob
        }
        grad = subgradient(alloc, evals, prob, last=last)
        assert all(v >= 0.0 for v in grad.values())


class TestSolveMaster:
    def test_two_pair_toy_beats_dense_grid_within_one_percent(self):
        prob = {(0, 1): 0.5, (1, 2): 0.5}
        curves = {(0, 1): (1.0, 0.8), (1, 2): (1.0, 2.4)}
        model = StubRateModel(curves)
        p0 = 4.0
        solution = solve_master(
            model, prob, p0, last=2, options=MasterOptions(max_iterations=120, window=120)
        )
        best_grid = -np.inf
        for x in np.linspace(0.0, 1.0, 51):
            alloc = {(0, 1): x * p0 / 0.5, (1, 2): (1.0 - x) * p0 / 0.5}
            evals = model.evaluate_many(alloc)
            u = {k: e.metrics.rate for k, e in evals.items()}
            val = float(np.min(section_rates(prob, u, 2)))
            best_grid = max(best_grid, val)
        assert solution.best_objective >= best_grid * 0.99

    def test_budget_satisfied_at_output(self):
        prob = {(0, 1): 0.5, (1, 2): 0.5, (0, 2): 0.3}
        model = StubRateModel({k: (1.0, 1.0 + i) for i, k in enumerate(sorted(prob))})
        solution = solve_master(model, prob, p0=2.0, last=2,
                                options=MasterOptions(max_iterations=40))
        assert solution.spent_budget(prob) <= 2.0 * (1.0 + 1e-6)

    def test_best_iterate_trace_non_decreasing(self):
        prob = {(0, 1): 0.5, (1, 2): 0.5}
        model = StubRateModel({(0, 1): (1.0, 0.5), (1, 2): (2.0, 3.0)})
        solution = solve_master(model, prob, p0=3.0, last=2,
                                options=MasterOptions(max_iterations=60, window=60))
        running = np.maximum.accumulate(solution.trace)
        assert np.all(np.diff(running) >= 0.0)
        assert solution.best_objective == pytest.approx(max(solution.trace))

    def test_cutoff_filters_pairs(self):
        prob = {(0, 1): 0.5, (1, 2): 1e-9}
        model = StubRateModel({(0, 1): (1.0, 1.0), (1, 2): (1.0, 1.0)})
        solution = solve_master(model, prob, p0=1.0, last=2,
                                options=MasterOptions(max_iterations=3))
        assert set(solution.allocation) == {(0, 1)}

    def test_no_eligible_pairs_rejected(self):
        model = StubRateModel({})
        with pytest.raises(ValueError):
            solve_master(model, {(0, 1): 0.0}, p0=1.0, last=1)

    def test_one_episode_monte_carlo_master_is_not_polished(self, monkeypatch):
        # With one episode per calibration every rate_se is zero, yet the
        # rates are Monte-Carlo estimates: the exact-only polish must not run.
        def polish(*args, **kwargs):
            raise AssertionError("exchange polish ran on Monte-Carlo rates")

        monkeypatch.setattr(cogrelay.master, "_exchange_polish", polish)
        topo = Topology.from_positions((0.0, 1.0, 2.5), alpha=2.0)
        model = RateModel(topo, root_seed=5, solver=SolverOptions(mc_samples=50, episodes=1))
        prob = {(0, 1): 0.5, (1, 2): 0.5, (0, 2): 0.4}
        solution = solve_master(model, prob, p0=10.0, last=2,
                                options=MasterOptions(max_iterations=2))
        assert all(p.metrics.rate_se == 0.0 for p in solution.policies.values())


class TestRateModelCache:
    def test_cache_and_determinism(self, bench_topology):
        model = RateModel(bench_topology, root_seed=77,
                          solver=SolverOptions(mc_samples=200, episodes=200))
        first = model.evaluate((0, 2), 5.0)
        again = model.evaluate((0, 2), 5.0)
        assert first is again
        fresh = RateModel(bench_topology, root_seed=77,
                          solver=SolverOptions(mc_samples=200, episodes=200))
        other = fresh.evaluate((0, 2), 5.0)
        assert other.metrics.rate == first.metrics.rate
        assert other.lam == first.lam

    def test_calibration_does_not_depend_on_earlier_budgets(self, bench_topology):
        solver = SolverOptions(mc_samples=200, episodes=200)
        fresh = RateModel(bench_topology, root_seed=77, solver=solver).evaluate((0, 2), 5.0)
        model = RateModel(bench_topology, root_seed=77, solver=solver)
        for pbar in (3.0, 8.0):
            model.evaluate((0, 2), pbar)
        after = model.evaluate((0, 2), 5.0)
        assert after.lam == fresh.lam
        assert np.array_equal(after.table.values, fresh.table.values)
        assert after.metrics == fresh.metrics
        assert after.report == fresh.report

    def test_parallel_matches_serial(self, bench_topology):
        alloc = {(0, 1): 4.0, (1, 3): 6.0, (2, 5): 8.0}
        serial = RateModel(bench_topology, root_seed=79,
                           solver=SolverOptions(mc_samples=150, episodes=150))
        parallel = RateModel(
            bench_topology, root_seed=79,
            solver=SolverOptions(mc_samples=150, episodes=150), threads=3
        )
        a = serial.evaluate_many(alloc)
        b = parallel.evaluate_many(alloc)
        for pair in alloc:
            assert a[pair].metrics.rate == b[pair].metrics.rate
            assert a[pair].lam == b[pair].lam
