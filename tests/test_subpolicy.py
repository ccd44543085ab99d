import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cogrelay.subpolicy as subpolicy
from cogrelay.model import Topology
from cogrelay.seeding import stream
from cogrelay.subpolicy import (
    CalibratedPolicy,
    CalibrationError,
    DiscreteGains,
    EpisodeBatch,
    RayleighGains,
    SegmentProblem,
    ValueTable,
    calibrate_lambda,
    deterministic_gains,
    draw_episode_cube,
    estimate_segment_metrics,
    lambert_w0,
    offline_recursion,
    per_hop_cost,
    per_hop_time,
    policy_from_payload,
    policy_to_payload,
    power_foc,
    priced_hop_cost,
    solve_optimal_power,
    PRICE_CHUNK,
    _best_actions,
    _episode_cube,
    _metrics_from_batch,
    _price,
    _run_episode_batch,
)
from cogrelay.oracle import TinyInstance, _frozen_tiny_instance, reference_cost_to_go

E = math.e


def line_topology(*positions, alpha=2.0):
    return Topology.from_positions(positions, alpha=alpha)


class TestPerHopPrimitives:
    def test_unit_time(self):
        assert per_hop_time(1.0, E - 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_end_node_spends_nothing(self):
        assert per_hop_time(1.0, 1.0, at_end=True) == 0.0
        assert per_hop_cost(1.0, 1.0, at_end=True) == 0.0

    def test_time_diverges_monotonically_at_weak_gain(self):
        xs = [1e-2, 1e-4, 1e-6, 1e-8]
        times = [per_hop_time(x, 1.0) for x in xs]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[-1] > 1e7

    def test_cost_example(self):
        assert per_hop_cost((E - 1.0) / 2.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    @given(
        g=st.floats(min_value=1e-3, max_value=1e3),
        p=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_cost_time_ratio_is_power(self, g, p):
        assert per_hop_cost(g, p) / per_hop_time(g, p) == pytest.approx(p, rel=1e-9)

    @pytest.mark.parametrize("g,p", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_domain_errors(self, g, p):
        with pytest.raises(ValueError):
            per_hop_time(g, p)
        with pytest.raises(ValueError):
            per_hop_cost(g, p)


class TestPricedCost:
    def test_zero_multiplier_is_plain_time(self):
        assert priced_hop_cost(2.0, 3.0, 0.0, 5.0) == per_hop_time(2.0, 3.0)

    def test_budget_power_cancels_price(self):
        pbar = 2.5
        assert priced_hop_cost(1.3, pbar, 4.0, pbar) == per_hop_time(1.3, pbar)

    def test_worked_example(self):
        assert priced_hop_cost(1.0, E - 1.0, 1.0, E - 1.0) == pytest.approx(1.0)

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValueError):
            priced_hop_cost(1.0, 1.0, -0.5, 1.0)


class TestOptimalPower:
    def test_budget_point_is_exact_root(self):
        g, pbar = 1.7, 3.0
        lam = float(power_foc(g, pbar, pbar))
        p = solve_optimal_power(g, pbar, lam, p_max=100.0 * pbar)
        assert abs(p - pbar) <= 1e-9

    def test_high_price_floors(self):
        pbar = 2.0
        p = solve_optimal_power(1.0, pbar, 1.0 / pbar, p_max=200.0, p_floor=1e-5)
        assert p == 1e-5

    def test_zero_price_caps(self):
        assert solve_optimal_power(1.0, 2.0, 0.0, p_max=50.0) == 50.0

    def test_residuals_on_random_triples(self, rng):
        g = rng.uniform(0.05, 20.0, 1000)
        pb = rng.uniform(0.1, 50.0, 1000)
        lam = rng.uniform(0.02, 0.98, 1000) / pb
        p = solve_optimal_power(g, pb, lam, p_max=100.0 * pb)
        assert np.max(np.abs(power_foc(g, p, pb) - lam)) <= 1e-9

    def test_foc_strictly_decreasing(self, rng):
        for _ in range(50):
            g = rng.uniform(0.05, 20.0)
            pb = rng.uniform(0.1, 50.0)
            grid = np.linspace(1e-6, 100.0 * pb, 2000)
            vals = power_foc(g, grid, pb)
            assert np.all(np.diff(vals) < 0.0)

    def test_matches_dense_grid_scan(self):
        g, pbar, lam = 1.0, 1.0, 0.5
        p = solve_optimal_power(g, pbar, lam, p_max=100.0)
        grid = np.linspace(1e-9, 100.0, 2_000_001)
        best = grid[np.argmin(np.abs(power_foc(g, grid, pbar) - lam))]
        assert abs(p - best) <= 1e-4
        assert abs(float(power_foc(g, p, pbar)) - lam) <= 1e-9

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            solve_optimal_power(np.nan, 1.0, 0.1, 10.0)
        with pytest.raises(ValueError):
            solve_optimal_power(1.0, np.inf, 0.1, 10.0)

    @settings(max_examples=400, deadline=None)
    @given(
        log_gain=st.floats(min_value=-4.0, max_value=4.0),
        price=st.one_of(
            st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
            st.floats(min_value=1.0, max_value=10.0),
        ),
        pbar=st.sampled_from([0.3, 1.0, 10.0, 1000.0]),
    )
    def test_closed_form_residual_and_branches(self, log_gain, price, pbar):
        g, lam = 10.0**log_gain, price / pbar
        p_max, p_floor = 100.0 * pbar, 1e-6 * pbar
        p = solve_optimal_power(g, pbar, lam, p_max, p_floor)
        assert p_floor <= p <= p_max
        if lam >= 1.0 / pbar:
            assert p == p_floor
        elif power_foc(g, p_max, pbar) >= lam:
            assert p == p_max
        elif p > p_floor:
            assert abs(float(power_foc(g, p, pbar)) - lam) <= 1e-12 * lam
        else:
            # The root lies at or below the floor.
            assert power_foc(g, p_floor, pbar) <= lam * (1.0 + 1e-12)

    def test_small_roots_match_series_reference(self):
        # Roots of (1 + x) ln(1 + x) - x = c for small c, against bisection
        # on the cancellation-free series sum_k (-x)^k / (k (k - 1)).
        lam = 1.0 / (1.0 + 0.5 * np.logspace(-14, -1.5, 200))
        c = (1.0 - lam) / lam
        k = np.arange(2, 80)
        lo, hi = np.zeros_like(c), np.ones_like(c)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            above = np.sum((-mid[:, None]) ** k / (k * (k - 1.0)), axis=1) > c
            lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
        p = solve_optimal_power(1.0, 1.0, lam, p_max=100.0, p_floor=1e-12)
        assert np.max(np.abs(p - 0.5 * (lo + hi))) <= 1e-15

    def test_lambert_w0_residual(self):
        z = np.concatenate([[-1.0 / E + 1e-15, 0.0, 1e12], np.linspace(2.0, 3.0, 1001)])
        w = lambert_w0(z)
        assert np.all(np.abs(w * np.exp(w) - z) <= 1e-14 * np.maximum(1.0, np.abs(z)))


def direct_price(problem, lam, gains):
    """(cost, power) of a gain block of any shape by one direct call of the
    power solve (or one scan of the power levels) on the whole block."""
    if problem.power_levels is None:
        powers = solve_optimal_power(gains, problem.pbar, lam, problem.p_max, problem.p_floor)
        return priced_hop_cost(gains, powers, lam, problem.pbar), powers
    levels = np.asarray(problem.power_levels)
    all_costs = priced_hop_cost(gains[..., None], levels, lam, problem.pbar)
    k = np.argmin(all_costs, axis=-1)
    return np.take_along_axis(all_costs, k[..., None], axis=-1)[..., 0], levels[k]


class TestPricingPass:
    """The chunked pricing pass equals one direct solve over the whole vector,
    bit for bit, on either side of every chunk boundary."""

    @pytest.mark.parametrize(
        "size", [1, PRICE_CHUNK - 1, PRICE_CHUNK, PRICE_CHUNK + 1, 3 * PRICE_CHUNK + 7]
    )
    @pytest.mark.parametrize("levels", [None, (0.5, 2.0, 8.0, 32.0)])
    @pytest.mark.parametrize("price", [0.0, 0.4, 0.97, 1.0])
    def test_bitwise_equal_to_direct_solve(self, bench_topology, size, levels, price):
        problem = dataclasses.replace(
            rayleigh_problem(bench_topology, 0, 5, pbar=4.0), power_levels=levels
        )
        lam = price / problem.pbar
        # Log-uniform gains over eight decades reach the cap, the interior
        # root and, at the top price, the floor.
        gains = 10.0 ** stream(30, "price", size).uniform(-4.0, 4.0, size)
        cost, power = _price(problem, lam, gains)
        ref_cost, ref_power = direct_price(problem, lam, gains)
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(power, ref_power)


def two_hop_problem(g01, g02, g12, pbar=2.0, levels=None):
    gains = DiscreteGains(
        {
            (0, 1): ((g01,), (1.0,)),
            (0, 2): ((g02,), (1.0,)),
            (1, 2): ((g12,), (1.0,)),
        }
    )
    return SegmentProblem(
        head=0,
        end=2,
        gains=gains,
        pbar=pbar,
        p_max=100.0 * pbar,
        p_floor=1e-6 * pbar,
        mc_samples=1,
        episodes=1,
        power_levels=levels,
    )


class TestOfflineRecursion:
    def test_terminal_cost_is_zero(self, bench_topology):
        problem = SegmentProblem(
            head=1,
            end=4,
            gains=RayleighGains(bench_topology),
            pbar=5.0,
            p_max=500.0,
            p_floor=5e-6,
            mc_samples=50,
            episodes=50,
        )
        table = offline_recursion(problem, 0.05, rng=stream(0, "rec"))
        assert table.cost_to_go(4) == 0.0
        assert np.all(table.values[:-1] > 0.0)

    def test_single_hop_deterministic_closed_form(self):
        g = 0.8
        lam = 0.2
        gains = DiscreteGains({(0, 1): ((g,), (1.0,))})
        problem = SegmentProblem(
            head=0, end=1, gains=gains, pbar=2.0, p_max=200.0, p_floor=2e-6,
            mc_samples=1, episodes=1,
        )
        table = offline_recursion(problem, lam)
        p_star = solve_optimal_power(g, 2.0, lam, 200.0, 2e-6)
        assert table.cost_to_go(0) == pytest.approx(
            priced_hop_cost(g, p_star, lam, 2.0), rel=1e-12
        )

    def test_two_hop_deterministic_matches_grid_enumeration(self):
        problem = two_hop_problem(g01=1.5, g02=0.12, g12=1.1, pbar=2.0)
        lam = 0.15
        table = offline_recursion(problem, lam)
        # Brute force both route choices over a dense power grid.
        grid = np.linspace(1e-4, problem.p_max, 400_001)

        def best_cost(g):
            return float(np.min(priced_hop_cost(g, grid, lam, problem.pbar)))

        direct = best_cost(0.12)
        relayed = best_cost(1.5) + best_cost(1.1)
        assert table.cost_to_go(0) == pytest.approx(min(direct, relayed), rel=1e-6)

    def test_monotone_non_increasing_toward_end_on_line(self, bench_topology):
        problem = SegmentProblem(
            head=0,
            end=5,
            gains=RayleighGains(bench_topology),
            pbar=10.0,
            p_max=1000.0,
            p_floor=1e-5,
            mc_samples=400,
            episodes=50,
        )
        table = offline_recursion(problem, 0.02, rng=stream(4, "rec"))
        assert np.all(np.diff(table.values) <= 1e-9)

    def test_value_table_validates_shape(self):
        with pytest.raises(ValueError):
            ValueTable(0, 2, np.zeros(2))


def rayleigh_problem(topology, head, end, pbar, n=600):
    return SegmentProblem(
        head=head,
        end=end,
        gains=RayleighGains(topology),
        pbar=pbar,
        p_max=100.0 * pbar,
        p_floor=1e-6 * pbar,
        mc_samples=n,
        episodes=n,
    )


class TestCalibration:
    def test_budget_slack_returns_zero_multiplier(self, bench_topology):
        problem = SegmentProblem(
            head=0,
            end=2,
            gains=RayleighGains(bench_topology),
            pbar=50.0,
            p_max=10.0,  # cap below the budget: unconstrained policy feasible
            p_floor=1e-4,
            mc_samples=200,
            episodes=200,
        )
        policy = calibrate_lambda(problem, stream(1, "cal"))
        assert policy.lam == 0.0
        assert policy.report.budget_slack
        assert policy.report.achieved_power <= problem.pbar * 1.01

    def test_achieved_power_within_tolerance(self, bench_topology):
        problem = rayleigh_problem(bench_topology, 0, 4, pbar=10.0, n=800)
        policy = calibrate_lambda(problem, stream(2, "cal"), power_tolerance=1e-2)
        assert policy.report.converged
        assert abs(policy.report.achieved_power - 10.0) <= 0.1
        assert policy.lam > 0.0

    def test_multiplier_monotone_in_budget(self, bench_topology):
        lams = []
        for pbar in (2.0, 5.0, 12.0, 30.0):
            problem = rayleigh_problem(bench_topology, 1, 5, pbar, n=600)
            policy = calibrate_lambda(problem, stream(3, "cal"))
            lams.append(policy.lam)
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(lams, lams[1:]))

    def test_grid_above_budget_fails_at_inverse_budget(self, bench_topology, monkeypatch):
        # The cheapest level (2.0) exceeds the budget: no multiplier can help,
        # and none above 1/pbar may be tried before saying so.
        problem = SegmentProblem(
            head=0,
            end=2,
            gains=RayleighGains(bench_topology),
            pbar=1.0,
            p_max=4.0,
            p_floor=2.0,
            mc_samples=100,
            episodes=100,
            power_levels=(2.0, 4.0),
        )
        tried = []
        real = subpolicy.offline_recursion

        def recording(problem, lam, **kwargs):
            tried.append(lam)
            return real(problem, lam, **kwargs)

        monkeypatch.setattr(subpolicy, "offline_recursion", recording)
        with pytest.raises(CalibrationError, match="overspends"):
            calibrate_lambda(problem, stream(22, "cal"))
        assert tried == [1.0 / problem.pbar]

    def test_hint_bracket_stays_at_or_below_inverse_budget(self, bench_topology, monkeypatch):
        # This pair calibrates near 0.89/pbar, so the hint's lower end (0.45/pbar)
        # overspends and the bracket's top, twice the hint, would pass 1/pbar.
        problem = rayleigh_problem(bench_topology, 0, 1, pbar=10.0, n=100)
        tried = []
        real = subpolicy.offline_recursion

        def recording(problem, lam, **kwargs):
            tried.append(lam)
            return real(problem, lam, **kwargs)

        monkeypatch.setattr(subpolicy, "offline_recursion", recording)
        policy = calibrate_lambda(problem, stream(5, "cal"), lam_hint=0.9 / problem.pbar)
        assert policy.report.converged
        assert 0.45 / problem.pbar in tried
        assert max(tried) <= 1.0 / problem.pbar

    def test_one_pricing_pass_per_evaluation(self, bench_topology, monkeypatch):
        # Every frozen gain of the recursion blocks and the episode cube is
        # priced in one chunked pass per multiplier evaluation, and nowhere else.
        problem = dataclasses.replace(
            rayleigh_problem(bench_topology, 0, 5, pbar=6.0, n=300), episodes=250
        )
        frozen = (problem.mc_samples + problem.episodes) * sum(range(1, problem.length + 1))
        calls = []
        real = subpolicy.solve_optimal_power

        def counting(gain, *args, **kwargs):
            calls.append(np.size(gain))
            return real(gain, *args, **kwargs)

        monkeypatch.setattr(subpolicy, "solve_optimal_power", counting)
        policy = calibrate_lambda(problem, stream(6, "cal"))
        assert policy.report.iterations > 1
        assert len(calls) == policy.report.iterations * math.ceil(frozen / PRICE_CHUNK)
        assert sum(calls) == policy.report.iterations * frozen

    def test_deterministic_given_seed(self, bench_topology):
        problem = rayleigh_problem(bench_topology, 0, 3, pbar=6.0, n=300)
        a = calibrate_lambda(problem, stream(4, "cal"))
        b = calibrate_lambda(problem, stream(4, "cal"))
        assert a.lam == b.lam
        assert np.array_equal(a.table.values, b.table.values)
        assert a.metrics.rate == b.metrics.rate

    def test_shadow_price_is_price_times_rate(self, bench_topology):
        problem = rayleigh_problem(bench_topology, 0, 3, pbar=6.0, n=300)
        policy = calibrate_lambda(problem, stream(4, "cal"))
        assert policy.shadow_price == pytest.approx(policy.lam * policy.metrics.rate)


@pytest.fixture(scope="module")
def online_policy(bench_topology):
    problem = rayleigh_problem(bench_topology, 0, 4, pbar=8.0, n=500)
    return calibrate_lambda(problem, stream(9, "cal"))


@pytest.fixture(scope="module")
def episode_policy(bench_topology):
    problem = rayleigh_problem(bench_topology, 0, 5, pbar=10.0, n=400)
    return calibrate_lambda(problem, stream(12, "cal"))


def first_hops(batch, head):
    """Destination node of each episode's first hop."""
    return head + 1 + np.argmax(batch.hop_times > 0.0, axis=1)


def greedy_unroll(problem, lam, table, csi):
    """Deliver one packet by scanning every candidate hop and its optimal
    power at each node, outside the episode engine; returns (time, energy, hops)."""
    s, t_total, e_total, hops = problem.head, 0.0, 0.0, [problem.head]
    while s < problem.end:
        best = None
        for k, m in enumerate(range(s + 1, problem.end + 1)):
            g = csi[s][k]
            p = solve_optimal_power(g, problem.pbar, lam, problem.p_max, problem.p_floor)
            cost = priced_hop_cost(g, p, lam, problem.pbar) + table.cost_to_go(m)
            if best is None or cost < best[0]:
                best = (cost, m, p, per_hop_time(g, p))
        _, s, p, t = best
        t_total += t
        e_total += p * t
        hops.append(s)
    return t_total, e_total, hops


class TestOnlinePolicy:
    @pytest.fixture
    def policy(self, online_policy):
        return online_policy

    def test_single_candidate_goes_to_end(self, policy):
        problem = dataclasses.replace(policy.problem, head=policy.problem.end - 1)
        table = ValueTable(problem.head, problem.end, policy.table.values[-2:])
        batch = _run_episode_batch(
            problem, policy.lam, table, {problem.head: np.full((3, 1), 0.9)}
        )
        assert np.all(batch.frames == 1)
        assert np.all(batch.evals == 1)
        assert np.array_equal(batch.hop_times[:, 0], batch.t_sum)

    def test_dominated_cost_to_go_avoided(self, bench_topology):
        problem = rayleigh_problem(bench_topology, 0, 2, pbar=5.0, n=100)
        table = ValueTable(0, 2, np.array([3.0, 100.0, 0.0]))
        policy = calibrate_lambda(problem, stream(10, "cal"))
        cube = {0: np.array([[1.0, 1.0]]), 1: np.array([[1.0]])}
        batch = _run_episode_batch(problem, policy.lam, table, cube)
        # Equal gains, far smaller cost-to-go: straight to node 2.
        assert first_hops(batch, 0)[0] == 2
        assert batch.frames[0] == 1

    def test_argmin_matches_exhaustive_candidate_scan(self, policy):
        problem = policy.problem
        cube = draw_episode_cube(problem, stream(11, "csi"), 20)
        batch = _run_episode_batch(problem, policy.lam, policy.table, cube)
        for e, first in enumerate(first_hops(batch, problem.head)):
            csi = {s: cube[s][e] for s in cube}
            _, _, hops = greedy_unroll(problem, policy.lam, policy.table, csi)
            assert first == hops[1]

    def test_end_node_does_not_transmit(self, policy):
        problem = policy.problem
        cube = draw_episode_cube(problem, stream(11, "end"), 30)
        assert problem.end not in cube  # no CSI is drawn for the end node
        batch = _run_episode_batch(problem, policy.lam, policy.table, cube)
        # Every delivery ends with a hop into the end node, and none leaves it.
        assert np.all(batch.hop_times[:, -1] > 0.0)


class TestEpisodes:
    @pytest.fixture
    def policy(self, episode_policy):
        return episode_policy

    def test_forward_progress_and_termination(self, policy):
        problem = policy.problem
        cube = draw_episode_cube(problem, stream(13, "ep"), 40)
        batch = _run_episode_batch(problem, policy.lam, policy.table, cube)
        for e in range(40):
            hops = [problem.head] + [
                problem.head + 1 + k for k in np.flatnonzero(batch.hop_times[e])
            ]
            assert hops[-1] == problem.end
            assert all(b > a for a, b in zip(hops, hops[1:]))
            assert len(hops) - 1 == batch.frames[e] <= problem.length

    def test_fixed_seed_reproducible(self, policy):
        problem = policy.problem
        a, b = (
            _run_episode_batch(
                problem, policy.lam, policy.table, draw_episode_cube(problem, stream(14, "ep"), 8)
            )
            for _ in range(2)
        )
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_candidate_evals_bounded(self, policy):
        length = policy.problem.length
        cube = draw_episode_cube(policy.problem, stream(15, "ep"), 50)
        batch = _run_episode_batch(policy.problem, policy.lam, policy.table, cube)
        assert batch.max_step <= length
        assert np.all(batch.evals <= length**2)

    def test_deterministic_gains_time_matches_table_unroll(self):
        topo = line_topology(0.0, 1.0, 2.2, 3.1)
        problem = SegmentProblem(
            head=0,
            end=3,
            gains=deterministic_gains(topo),
            pbar=4.0,
            p_max=400.0,
            p_floor=4e-6,
            mc_samples=1,
            episodes=1,
        )
        lam = 0.1
        table = offline_recursion(problem, lam)
        cube = draw_episode_cube(problem, stream(16, "ep"), 1)
        batch = _run_episode_batch(problem, lam, table, cube)
        # Unroll the table's own greedy actions, summing pure hop times.
        expected, _, _ = greedy_unroll(problem, lam, table, {s: cube[s][0] for s in cube})
        assert batch.t_sum[0] == pytest.approx(expected, rel=1e-12)

    def test_batch_runner_matches_per_episode_path(self, policy):
        problem = policy.problem
        cube = draw_episode_cube(problem, stream(17, "cube"), 16)
        batch = _run_episode_batch(problem, policy.lam, policy.table, cube)
        for e in range(16):
            csi = {s: cube[s][e] for s in cube}
            t, energy, hops = greedy_unroll(problem, policy.lam, policy.table, csi)
            assert batch.t_sum[e] == pytest.approx(t, rel=1e-12)
            assert batch.e_sum[e] == pytest.approx(energy, rel=1e-12)
            assert batch.hop_times[e].sum() == pytest.approx(t, rel=1e-12)
            assert batch.frames[e] == len(hops) - 1
            assert batch.evals[e] == sum(problem.end - s for s in hops[:-1])


def reference_episode_batch(problem, lam, table, cube):
    """The episode engine as a per-node loop: at every step, group the live
    episodes by current node and price and decide each group directly."""
    n = next(iter(cube.values())).shape[0]
    cur = np.full(n, problem.head, dtype=int)
    t_sum = np.zeros(n)
    e_sum = np.zeros(n)
    frames = np.zeros(n, dtype=int)
    evals = np.zeros(n, dtype=int)
    hop_times = np.zeros((n, problem.length))
    max_step = 0
    while True:
        alive = cur < problem.end
        if not np.any(alive):
            break
        for s in np.unique(cur[alive]):
            rows = np.flatnonzero(alive & (cur == s))
            gains = cube[int(s)][rows]
            costs, powers = direct_price(problem, lam, gains)
            total = costs + table.values[int(s) - problem.head + 1 :]
            pick = np.argmin(total, axis=-1)
            power = powers[np.arange(rows.size), pick]
            chosen_g = gains[np.arange(rows.size), pick]
            t = 1.0 / np.log1p(chosen_g * power)
            t_sum[rows] += t
            e_sum[rows] += power * t
            hop_times[rows, int(s) - problem.head + pick] = t
            frames[rows] += 1
            n_cands = gains.shape[1]
            evals[rows] += n_cands
            max_step = max(max_step, n_cands)
            cur[rows] = int(s) + 1 + pick
    return EpisodeBatch(t_sum, e_sum, frames, evals, max_step, hop_times)


class TestEngineMatchesReferenceWalk:
    """Deciding every (row, node) first and then walking by gathering gives
    the per-node loop's batch, bit for bit."""

    @staticmethod
    def assert_same_batch(problem, lam, table, cube):
        batch = _run_episode_batch(problem, lam, table, cube)
        ref = reference_episode_batch(problem, lam, table, cube)
        for field in EpisodeBatch._fields:
            assert np.array_equal(getattr(batch, field), getattr(ref, field)), field

    def test_rayleigh_cube(self, online_policy):
        problem = online_policy.problem
        assert (problem.head, problem.end) == (0, 4)
        cube = draw_episode_cube(problem, stream(31, "ep"), 500)
        self.assert_same_batch(problem, online_policy.lam, online_policy.table, cube)

    def test_discrete_product_cube(self):
        problem = three_level_instance().problem(0, 3, pbar=1.4)
        cube, weights = _episode_cube(problem, None, 1)
        assert weights.size == 729
        for lam in (0.0, 0.3, 1.0 / problem.pbar):
            table = offline_recursion(problem, lam)
            self.assert_same_batch(problem, lam, table, cube)

    def test_power_levels(self, bench_topology):
        problem = dataclasses.replace(
            rayleigh_problem(bench_topology, 0, 5, pbar=6.0, n=300),
            power_levels=(0.5, 2.0, 6.0, 18.0, 54.0),
        )
        policy = calibrate_lambda(problem, stream(32, "cal"))
        cube = draw_episode_cube(problem, stream(32, "ep"), 300)
        self.assert_same_batch(problem, policy.lam, policy.table, cube)

    def test_one_row_cube(self, episode_policy):
        problem = episode_policy.problem
        cube = draw_episode_cube(problem, stream(33, "ep"), 1)
        self.assert_same_batch(problem, episode_policy.lam, episode_policy.table, cube)


def walk_metrics(problem, lam, table):
    """Exact (rate, time-averaged power) of the table's policy, by recursion
    over every trajectory and the joint CSI states it meets."""
    sums = {"inv": 0.0, "t": 0.0, "e": 0.0}

    def walk(s, prob, t_acc, e_acc):
        if s == problem.end:
            sums["inv"] += prob / t_acc
            sums["t"] += prob * t_acc
            sums["e"] += prob * e_acc
            return
        tail = table.values[s - problem.head + 1 :]
        for pg, gains in problem.gains.joint_states(s, problem.end):
            _, pick, power = _best_actions(problem, lam, gains[None, :], tail)
            m = s + 1 + int(pick[0])
            g = float(gains[int(pick[0])])
            t = 1.0 / np.log1p(g * float(power[0]))
            walk(m, prob * pg, t_acc + t, e_acc + float(power[0]) * t)

    walk(problem.head, 1.0, 0.0, 0.0)
    return sums["inv"], sums["e"] / sums["t"]


def three_level_instance():
    topology = line_topology(0.0, 1.0, 2.1, 3.3)
    links = {}
    for s in range(3):
        for m in range(s + 1, 4):
            base = float(topology.pathloss[s, m])
            links[(s, m)] = ((0.5 * base, 1.0 * base, 1.8 * base), (0.2, 0.5, 0.3))
    return TinyInstance(
        topology=topology,
        gains=DiscreteGains(links),
        power_levels=(0.4, 0.8, 1.6, 3.2, 6.4),
        p_avail=0.8,
    )


class TestWeightedCube:
    """An enumerated cube, weighted by state probabilities and run through
    the episode engine, equals the exact trajectory walk."""

    @staticmethod
    def assert_matches_walk(metrics, problem, lam, table):
        rate, power = walk_metrics(problem, lam, table)
        assert metrics.rate == pytest.approx(rate, rel=1e-12, abs=0.0)
        assert metrics.power_time_avg == pytest.approx(power, rel=1e-12, abs=0.0)
        assert metrics.rate_se == metrics.power_time_se == 0.0

    @pytest.mark.parametrize("head,end", [(0, 1), (0, 2), (1, 3), (0, 3)])
    @pytest.mark.parametrize("lam", [0.0, 0.2, 0.7])
    def test_faded_tiny_instance(self, head, end, lam):
        problem = _frozen_tiny_instance().problem(head, end, pbar=1.5)
        table = offline_recursion(problem, lam)
        cube, weights = _episode_cube(problem, None, 1)
        assert abs(weights.sum() - 1.0) <= 1e-12
        metrics = _metrics_from_batch(_run_episode_batch(problem, lam, table, cube), weights)
        self.assert_matches_walk(metrics, problem, lam, table)

    def test_three_level_instance(self):
        problem = three_level_instance().problem(0, 3, pbar=1.4)
        cube, weights = _episode_cube(problem, None, 1)
        assert weights.size == 729
        assert all(block.shape[0] == 729 for block in cube.values())
        assert abs(weights.sum() - 1.0) <= 1e-12
        policy = calibrate_lambda(problem, stream(23, "cal"))
        # Unequal level probabilities: the recursion's weights matter.
        for node in range(problem.head, problem.end):
            ref = reference_cost_to_go(problem, policy.lam, node)
            assert policy.table.cost_to_go(node) == pytest.approx(ref, rel=1e-12, abs=0.0)
        self.assert_matches_walk(policy.metrics, problem, policy.lam, policy.table)
        # Fresh measurement on enumerable gains is the same exact expectation.
        fresh = estimate_segment_metrics(policy, 5, stream(23, "m"))
        self.assert_matches_walk(fresh, problem, policy.lam, policy.table)


class TestSegmentMetrics:
    def test_deterministic_single_hop_closed_form(self):
        g = 1.4
        gains = DiscreteGains({(0, 1): ((g,), (1.0,))})
        pbar = 2.0
        problem = SegmentProblem(
            head=0, end=1, gains=gains, pbar=pbar, p_max=200.0, p_floor=2e-6,
            mc_samples=1, episodes=1,
        )
        policy = calibrate_lambda(problem, stream(18, "cal"))
        metrics = estimate_segment_metrics(policy, 10, stream(18, "m"))
        p = solve_optimal_power(g, pbar, policy.lam, 200.0, 2e-6)
        assert metrics.rate == pytest.approx(math.log1p(g * p), rel=1e-9)
        assert metrics.power_time_avg == pytest.approx(p, rel=1e-9)
        assert metrics.power_time_avg <= pbar * (1.0 + 1e-9)

    def test_standard_error_shrinks_like_root_n(self, bench_topology):
        problem = rayleigh_problem(bench_topology, 2, 5, pbar=8.0, n=300)
        policy = calibrate_lambda(problem, stream(19, "cal"))
        ses = [
            estimate_segment_metrics(policy, n, stream(19, "m", n)).rate_se
            for n in (100, 1000, 10_000)
        ]
        for a, b in zip(ses, ses[1:]):
            assert b < a
            assert 1.5 <= a / b <= 7.0  # ~sqrt(10) with sampling slack

    def test_rate_non_decreasing_in_budget(self, bench_topology):
        rates = []
        for pbar in (1.0, 4.0, 16.0, 64.0):
            problem = rayleigh_problem(bench_topology, 0, 5, pbar, n=800)
            policy = calibrate_lambda(problem, stream(20, "cal"))
            rates.append(policy.metrics.rate)
        assert all(b >= a * (1.0 - 1e-6) for a, b in zip(rates, rates[1:]))


class TestDiscreteGains:
    @pytest.mark.parametrize(
        "table",
        [
            ((1.0, 2.0), (1.5, -0.5)),
            ((1.0, float("nan")), (0.5, 0.5)),
            ((1.0, float("inf")), (0.5, 0.5)),
        ],
    )
    def test_invalid_tables_rejected(self, table):
        with pytest.raises(ValueError):
            DiscreteGains({(0, 1): table})


class TestArtifacts:
    def test_round_trip(self, bench_topology):
        problem = rayleigh_problem(bench_topology, 0, 3, pbar=6.0, n=200)
        policy = calibrate_lambda(problem, stream(21, "cal"))
        payload = policy_to_payload(policy, seed_path="demo")
        rebuilt = policy_from_payload(payload, problem)
        assert rebuilt.lam == policy.lam
        assert np.array_equal(rebuilt.table.values, policy.table.values)

    def test_stale_artifact_rejected(self, bench_topology):
        problem = rayleigh_problem(bench_topology, 0, 3, pbar=6.0, n=200)
        policy = calibrate_lambda(problem, stream(21, "cal"))
        payload = policy_to_payload(policy)
        other = rayleigh_problem(bench_topology, 0, 3, pbar=7.0, n=200)
        with pytest.raises(ValueError, match="does not match"):
            policy_from_payload(payload, other)
