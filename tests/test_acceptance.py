"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The heavy criteria share session fixtures: the SNR sweep and activity sweep
of the 6-node benchmark scenario are computed once and reused by the
dominance, ratio-window, trend, convergence and complexity checks.
"""

import math
import time

import numpy as np
import pytest

from cogrelay.cli import run_point
from cogrelay.master import (
    MasterOptions,
    RateModel,
    flow_balance_identity,
    section_rates,
    solve_master,
)
from cogrelay.model import PuActivityModel, Topology, make_linear_route
from cogrelay.oracle import (
    TinyInstance,
    brute_force_original,
    brute_force_subproblem,
    coupled_exchange_gap,
    random_centered_monotone,
    random_exchange_instance,
    reference_cost_to_go,
    verify_exchange_lemma,
    verify_sequence_lemma,
)
from cogrelay.seeding import stream
from cogrelay.sim import RouteSpec, SolverOptions, StudySpec
from cogrelay.subpolicy import (
    DiscreteGains,
    calibrate_lambda,
    deterministic_gains,
    offline_recursion,
    power_foc,
    solve_optimal_power,
)

BASELINES = ("baseline1", "baseline2", "baseline3", "baseline4")


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def bench_spec(p0_db, alpha, p_block, *, epochs, samples, iters, seed=909):
    return StudySpec(
        route=RouteSpec(alpha=alpha, nodes=6, span=5.0, placement_seed=7),
        activity=PuActivityModel(p_avail=1.0 - p_block),
        p0=10.0 ** (p0_db / 10.0),
        epochs=epochs,
        seed=seed,
        solver=SolverOptions(
            mc_samples=samples,
            episodes=samples,
            master=MasterOptions(max_iterations=iters),
        ),
    )


@pytest.fixture(scope="session")
def fig5_results():
    """SNR sweep of the benchmark scenario (path-loss exponent 2, 15% PU
    blocking), all five schemes."""
    out = {}
    for db in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0):
        spec = bench_spec(db, alpha=2.0, p_block=0.15, epochs=1500, samples=600, iters=25)
        out[db] = run_point(spec, ("proposed",) + BASELINES)
    return out


@pytest.fixture(scope="session")
def fig6_results():
    """PU-activity sweep at 30 dB, path-loss exponent 3."""
    out = {}
    for p_block in (0.05, 0.15, 0.3, 0.5):
        spec = bench_spec(30.0, alpha=3.0, p_block=p_block, epochs=1200, samples=500, iters=20)
        out[p_block] = run_point(spec, ("proposed", "baseline4"))
    return out


class TestCriterion1FlowBalance:
    def test_flow_balance_identity(self):
        rng = stream(1, "acc-flow")
        started = time.time()
        worst = 0.0
        for _ in range(100):
            last = int(rng.integers(2, 9))
            prob, u = {}, {}
            for i in range(last):
                for j in range(i + 1, last + 1):
                    prob[(i, j)] = float(rng.uniform(0.0, 1.0))
                    u[(i, j)] = float(rng.uniform(0.0, 3.0))
            for m in range(1, last):
                worst = max(worst, abs(flow_balance_identity(m, prob, u, last)))
        elapsed = time.time() - started
        ok = worst <= 1e-12 and elapsed < 1.0
        report(1, ok, f"max residual {worst:.2e} over 100 instances in {elapsed:.2f}s")
        assert worst <= 1e-12
        assert elapsed < 1.0


class TestCriterion2ExchangeLemma:
    def test_exchange_lemma(self):
        rng = stream(2, "acc-exchange")
        started = time.time()
        equalities = all(
            verify_exchange_lemma(random_exchange_instance(rng)) for _ in range(200)
        )
        gaps = [coupled_exchange_gap(rng) for _ in range(200)]
        control = any(g > 1e-9 for g in gaps)
        elapsed = time.time() - started
        ok = equalities and control and elapsed < 10.0
        report(
            2,
            ok,
            f"200 exact equalities: {equalities}; coupled control found a gap "
            f"(max {max(gaps):.3f}) in {elapsed:.2f}s",
        )
        assert equalities and control
        assert elapsed < 10.0


class TestCriterion3SequenceLemma:
    def test_sequence_lemma(self):
        rng = stream(3, "acc-sequence")
        started = time.time()
        worst = -math.inf
        for _ in range(10_000):
            a, b, p = random_centered_monotone(rng)
            worst = max(worst, verify_sequence_lemma(a, b, p))
        elapsed = time.time() - started
        ok = worst <= 1e-12 and elapsed < 5.0
        report(3, ok, f"max weighted product sum {worst:.2e} over 1e4 draws in {elapsed:.2f}s")
        assert worst <= 1e-12
        assert elapsed < 5.0


class TestCriterion4PowerFoc:
    def test_power_first_order_condition(self):
        rng = stream(4, "acc-foc")
        started = time.time()
        g = rng.uniform(0.05, 20.0, 1000)
        pb = rng.uniform(0.1, 50.0, 1000)
        lam = rng.uniform(0.02, 0.98, 1000) / pb
        p = solve_optimal_power(g, pb, lam, p_max=100.0 * pb)
        worst = float(np.max(np.abs(power_foc(g, p, pb) - lam)))
        g0, pb0 = 1.7, 3.0
        lam0 = float(power_foc(g0, pb0, pb0))
        trivial_err = abs(solve_optimal_power(g0, pb0, lam0, 100.0 * pb0) - pb0)
        elapsed = time.time() - started
        ok = worst <= 1e-9 and trivial_err <= 1e-9 and elapsed < 1.0
        report(
            4,
            ok,
            f"1000 triples: max residual {worst:.2e}; budget-point error "
            f"{trivial_err:.2e}; {elapsed:.2f}s",
        )
        assert worst <= 1e-9
        assert trivial_err <= 1e-9
        assert elapsed < 1.0


class TestCriterion5GradientIdentity:
    def test_finite_differences_match_shadow_price(self, bench_topology):
        started = time.time()
        model = RateModel(bench_topology, root_seed=303,
                          solver=SolverOptions(mc_samples=2500, episodes=2500))
        points = [
            ((0, 5), 40.0), ((1, 4), 25.0), ((2, 5), 60.0), ((0, 2), 15.0),
            ((3, 4), 8.0), ((1, 3), 30.0), ((0, 1), 20.0), ((2, 4), 12.0),
            ((0, 3), 35.0), ((4, 5), 10.0), ((1, 5), 45.0), ((0, 4), 50.0),
        ]
        failures = []
        for pair, pbar in points:
            h = 0.08 * pbar
            lo = model.evaluate(pair, pbar - h)
            hi = model.evaluate(pair, pbar + h)
            mid = model.evaluate(pair, pbar)
            fd = (hi.metrics.rate - lo.metrics.rate) / (hi.problem.pbar - lo.problem.pbar)
            se = math.hypot(hi.metrics.rate_se, lo.metrics.rate_se) / (
                hi.problem.pbar - lo.problem.pbar
            )
            tol = max(3.0 * se, 0.05 * abs(mid.shadow_price))
            if abs(fd - mid.shadow_price) > tol:
                failures.append((pair, pbar, fd, mid.shadow_price, tol))
        elapsed = time.time() - started
        ok = not failures
        report(
            5,
            ok,
            f"{len(points)} (pair, budget) points, finite differences within "
            f"max(3 SE, 5%) of the shadow price; {elapsed:.0f}s"
            + ("" if ok else f"; failures: {failures}"),
        )
        assert not failures


class TestCriterion6Concavity:
    def test_midpoint_concavity_within_noise(self, bench_topology):
        started = time.time()
        model = RateModel(bench_topology, root_seed=606,
                          solver=SolverOptions(mc_samples=600, episodes=600))
        grid = np.linspace(4.0, 58.0, 10)
        violations = []
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 6)]
        for pair in pairs:
            evals = [model.evaluate(pair, float(pb)) for pb in grid]
            for k in range(1, len(grid) - 1):
                bulge = (
                    evals[k - 1].metrics.rate
                    + evals[k + 1].metrics.rate
                    - 2.0 * evals[k].metrics.rate
                )
                se = math.sqrt(
                    evals[k - 1].metrics.rate_se ** 2
                    + evals[k + 1].metrics.rate_se ** 2
                    + 4.0 * evals[k].metrics.rate_se ** 2
                )
                if bulge > 3.0 * se:
                    violations.append((pair, float(grid[k]), bulge, se))
        elapsed = time.time() - started
        ok = not violations
        report(
            6,
            ok,
            f"{len(pairs)} pairs x 10-point budget grid, midpoint concavity within "
            f"3 SE; {elapsed:.0f}s" + ("" if ok else f"; violations: {violations}"),
        )
        assert not violations


def _criterion7_instance():
    topology = Topology.from_positions((0.0, 1.0, 2.2, 3.5), alpha=2.0)
    levels = tuple(0.2 * 1.9**k for k in range(8))
    return TinyInstance(
        topology=topology,
        gains=deterministic_gains(topology),
        power_levels=levels,
        p_avail=0.75,
    )


def _faded_tiny_instance():
    topology = Topology.from_positions((0.0, 1.0, 2.1, 3.3), alpha=2.0)
    links = {}
    for s in range(3):
        for m in range(s + 1, 4):
            base = float(topology.pathloss[s, m])
            links[(s, m)] = ((0.6 * base, 1.7 * base), (0.5, 0.5))
    return TinyInstance(
        topology=topology,
        gains=DiscreteGains(links),
        power_levels=(0.4, 0.8, 1.6, 3.2, 6.4),
        p_avail=0.8,
    )


class TestCriterion7DeskScaleOptimality:
    def test_dp_exactness_and_master_vs_brute_force(self):
        started = time.time()
        # Exactness: the vectorized recursion against the memo-free reference
        # on a faded 4-node instance (three gain levels would also fit the
        # guard at these lengths; two are used with five power levels).
        faded = _faded_tiny_instance()
        worst = 0.0
        for head, end in ((0, 1), (0, 2), (1, 3), (0, 3)):
            problem = faded.problem(head, end, pbar=1.4)
            for lam in (0.0, 0.2, 0.7):
                table = offline_recursion(problem, lam)
                for node in range(head, end + 1):
                    ref = reference_cost_to_go(problem, lam, node)
                    worst = max(
                        worst, abs(table.cost_to_go(node) - ref) / max(abs(ref), 1.0)
                    )
        # Composition: master + subproblems against the joint grid oracle on
        # one matched discretization.
        inst = _criterion7_instance()
        prob_table = inst.pair_probabilities()
        p0 = 2.0
        model = RateModel(
            inst.topology,
            root_seed=17,
            problem_factory=lambda pair, pbar: inst.problem(pair[0], pair[1], pbar),
        )
        solution = solve_master(
            model, prob_table, p0, inst.topology.last_index,
            MasterOptions(max_iterations=40, window=40),
        )
        oracle_value, _ = brute_force_original(
            inst, p0, resolution=10, extra_allocations=[solution.allocation]
        )
        ratio = solution.best_objective / oracle_value
        elapsed = time.time() - started
        ok = worst <= 1e-12 and ratio >= 0.99 and elapsed < 300.0
        report(
            7,
            ok,
            f"recursion vs reference max rel deviation {worst:.2e}; master+sub at "
            f"{100 * ratio:.2f}% of the joint brute force; {elapsed:.0f}s",
        )
        assert worst <= 1e-12
        assert solution.best_objective <= oracle_value * (1.0 + 1e-12)
        assert ratio >= 0.99
        assert elapsed < 300.0


class TestCriterion8GapTrend:
    def test_gap_non_increasing_in_segment_length(self):
        # Fixture isolating the concentration mechanism: the first hop is
        # faded (two levels), longer links deterministic, so all four lengths
        # stay enumerable under one discretization and the relaxation's gap
        # decays as the deterministic tail grows.
        started = time.time()
        positions = tuple(float(k) for k in range(5))
        topology = Topology.from_positions(positions, alpha=2.0)
        links = {}
        for s in range(4):
            for m in range(s + 1, 5):
                base = float(topology.pathloss[s, m])
                if (s, m) == (0, 1):
                    links[(s, m)] = ((0.5 * base, 1.5 * base), (0.5, 0.5))
                else:
                    links[(s, m)] = ((base,), (1.0,))
        inst = TinyInstance(
            topology=topology,
            gains=DiscreteGains(links),
            power_levels=(0.5, 1.0, 2.0, 4.0),
            p_avail=0.8,
        )
        pbar = 1.5
        gaps = []
        for length in (1, 2, 3, 4):
            problem = inst.problem(0, length, pbar)
            oracle = brute_force_subproblem(problem, pbar)
            policy = calibrate_lambda(problem, stream(1, "gap", length))
            assert policy.metrics.power_time_avg <= pbar * (1.0 + 1e-12)
            assert policy.metrics.rate <= oracle.rate * (1.0 + 1e-12)
            gaps.append((oracle.rate - policy.metrics.rate) / oracle.rate)
        monotone = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        elapsed = time.time() - started
        ok = monotone and gaps[0] > gaps[-1] + 0.05
        report(
            8,
            ok,
            "relative gap over lengths 1-4: "
            + ", ".join(f"{g:.4f}" for g in gaps)
            + f"; non-increasing with a real decay; {elapsed:.0f}s",
        )
        assert monotone
        assert gaps[0] > gaps[-1] + 0.05  # the trend is a decay, not a tie


def _u_min_slack(a, b):
    return 3.0 * math.hypot(a.u_empirical_se, b.u_empirical_se)


def _hops_per_length(prob_table, hops):
    """Hops per unit segment length, probability-weighted over the pairs of
    ``hops`` (pair -> mean hops per packet): 1.0 for strict hop-by-hop,
    1/length for direct transmission."""
    return sum(prob_table[pair] * h for pair, h in hops.items()) / sum(
        prob_table[(i, j)] * (j - i) for i, j in hops
    )


def _constant_power_relaying(result, power, rng, samples=20_000):
    """Relaying without power control on every pair the master priced: each
    frame the holder transmits at ``power`` to the candidate that minimises
    the hop time plus the expected remaining time, from a sample-average
    backward recursion.  Returns pair -> (episode average of 1/T, mean hops
    per packet)."""
    pathloss = result.spec.topology().pathloss
    out = {}
    for i, j in result.master.policies:

        def hop_times(s, n):
            cands = np.arange(s + 1, j + 1)
            gains = rng.exponential(1.0, size=(n, cands.size)) * pathloss[s, cands]
            return cands, 1.0 / np.log1p(gains * power)

        remaining = np.zeros(j - i + 1)
        for s in range(j - 1, i - 1, -1):
            cands, t = hop_times(s, samples)
            remaining[s - i] = np.mean(np.min(t + remaining[cands - i], axis=1))
        node = np.full(samples, i)
        total = np.zeros(samples)
        hops = 0
        for s in range(i, j):
            rows = np.flatnonzero(node == s)
            cands, t = hop_times(s, rows.size)
            pick = np.argmin(t + remaining[cands - i], axis=1)
            total[rows] += t[np.arange(rows.size), pick]
            node[rows] = cands[pick]
            hops += rows.size
        out[(i, j)] = (float(np.mean(1.0 / total)), hops / samples)
    return out


class TestCriterion9SweepShape:
    def test_proposed_dominates_all_baselines_everywhere(self, fig5_results, fig6_results):
        failures = []
        for label, results in (("snr", fig5_results), ("activity", fig6_results)):
            for key, result in results.items():
                prop = result.metrics["proposed"]
                for kind in BASELINES:
                    if kind not in result.metrics:
                        continue
                    base = result.metrics[kind]
                    if kind == "baseline2":
                        # The pipeline scheme only has the empirical measure;
                        # compare like with like.
                        gap = prop.u_empirical - base.u_empirical
                    else:
                        gap = prop.u_min - base.u_min
                    if gap < -_u_min_slack(prop, base):
                        failures.append((label, key, kind, gap))
        ok = not failures
        report(
            9,
            ok,
            f"proposed >= each baseline within 3 SE at all "
            f"{len(fig5_results) + len(fig6_results)} grid points"
            + ("" if ok else f"; failures: {failures}"),
        )
        assert not failures

    def test_high_snr_approaches_direct_transmission(self, fig5_results):
        top = max(fig5_results)
        result = fig5_results[top]
        ratio = result.metrics["proposed"].u_min / result.metrics["baseline3"].u_min
        ok = 0.95 <= ratio <= 1.05
        report(9, ok, f"top SNR ({top:.0f} dB): proposed/baseline3 = {ratio:.3f}")
        assert ok

    def test_low_snr_window_against_hop_by_hop(self, fig5_results):
        """At the bottom SNR point the proposed scheme delivers at least what
        hop-by-hop relaying (baseline 4) does, and it picks its hops the way
        relaying without power control does.

        The stated window also capped the throughput at 1.05 x baseline 4, on
        the premise that hop selection degenerates to next-node relaying at
        low SNR.  Under Rayleigh fading it does not.  With the rate linear in
        power, the energy per bit p/ln(1 + g p) tends to 1/g for every power
        rule, so the scheme's priced cost and the hop time at constant power
        both rank candidates by 1/g plus cost-to-go, and that rule skips a
        relay whenever a farther link fades up.  Relaying without power
        control at baseline 4's own constant power is a feasible policy, and
        it beats baseline 4 by more than 40% here, so no scheme that is at
        least as good as its feasible policies can meet that cap.

        Checked, with the window's 5% margins: proposed/baseline4 >= 0.95
        (at this point the dominance test's 3-SE slack accepts far lower), and
        the scheme's hops per unit segment length within [0.95, 1.05] of the
        constant-power reference's.  Not checked: the throughput against that
        reference.  The scheme falls below it here (about 0.9) because its
        power rule minimises the expected delivery time while the reported
        rate is the episode average of 1/T; that is a defect of the power
        rule, and its check belongs with the fix.
        """
        bottom = min(fig5_results)
        result = fig5_results[bottom]
        prop = result.metrics["proposed"].u_min
        hop_by_hop = result.metrics["baseline4"].u_min
        # Baseline 4's power-fair constant power: its transmit mass is the
        # total segment probability.
        power = result.spec.p0 / sum(result.spec.pair_probabilities.values())
        reference = _constant_power_relaying(result, power, stream(9, "acc-low-snr"))
        reference_u_min = section_rates(
            result.spec.pair_probabilities,
            {pair: rate for pair, (rate, _) in reference.items()},
            result.spec.topology().last_index,
        ).min()
        hops = _hops_per_length(
            result.spec.pair_probabilities,
            {
                pair: policy.metrics.frames / policy.metrics.episodes
                for pair, policy in result.master.policies.items()
            },
        )
        reference_hops = _hops_per_length(
            result.spec.pair_probabilities, {pair: h for pair, (_, h) in reference.items()}
        )
        ratio = prop / hop_by_hop
        hop_ratio = hops / reference_hops
        ok = ratio >= 0.95 and 0.95 <= hop_ratio <= 1.05
        detail = (
            f"bottom SNR ({bottom:.0f} dB): proposed/baseline4 = {ratio:.3f}; "
            f"hops per unit length {hops:.3f} against {reference_hops:.3f} "
            f"without power control (ratio {hop_ratio:.3f}); constant-power "
            f"relaying/baseline4 = {reference_u_min / hop_by_hop:.3f}, "
            f"proposed/constant-power relaying = {prop / reference_u_min:.3f}"
        )
        report(9, ok, detail)
        assert ok, detail

    def test_hopping_gain_grows_as_blocking_falls(self, fig6_results):
        blocks = sorted(fig6_results)
        gains = [
            fig6_results[b].metrics["proposed"].u_min
            / fig6_results[b].metrics["baseline4"].u_min
            for b in blocks
        ]
        strictly_decreasing = all(b < a for a, b in zip(gains, gains[1:]))
        rank = np.corrcoef(
            np.argsort(np.argsort(blocks)), np.argsort(np.argsort(gains))
        )[0, 1]
        ok = strictly_decreasing and rank <= -0.9
        report(
            9,
            ok,
            "hopping gain vs blocking "
            + ", ".join(f"{b:.2f}:{g:.2f}" for b, g in zip(blocks, gains))
            + f"; rank correlation {rank:.2f}",
        )
        assert ok


class TestCriterion10Convergence:
    def test_master_trace_shape(self):
        started = time.time()
        topo = Topology.from_positions(make_linear_route(6, 5.0, placement_seed=7), alpha=3.0)
        from cogrelay.model import segment_probabilities

        prob = {
            p: v
            for p, v in segment_probabilities(PuActivityModel(p_avail=0.85), topo).items()
            if p[1] > p[0] and v > 1e-6
        }
        model = RateModel(topo, root_seed=4040,
                          solver=SolverOptions(mc_samples=800, episodes=800))
        solution = solve_master(
            model, prob, 1000.0, topo.last_index, MasterOptions(max_iterations=40, window=40)
        )
        best = np.maximum.accumulate(np.asarray(solution.trace))
        final = float(best[-1])
        frac10 = float(best[9]) / final
        drift30 = abs(float(best[29]) - final) / final
        elapsed = time.time() - started
        ok = frac10 >= 0.9 and drift30 < 0.01
        report(
            10,
            ok,
            f"best iterate at 10/40: {100 * frac10:.1f}% of final; change after 30: "
            f"{100 * drift30:.2f}% (step schedule a=P0/2, b=5); {elapsed:.0f}s",
        )
        assert frac10 >= 0.9
        assert drift30 < 0.01


class TestCriterion11Complexity:
    def test_online_and_offline_resource_bounds(self, fig5_results):
        result = fig5_results[30.0]
        node_count = 6
        # Online: per-step candidate evaluations never exceed the segment
        # length, and one delivery costs at most length^2 evaluations.
        online_ok = True
        for pair, stats in result.metrics["proposed"].pair_stats.items():
            length = pair[1] - pair[0]
            online_ok &= stats.max_step_evals <= length
            online_ok &= stats.max_episode_evals <= length**2
        # Offline: one value per node per pair, cubic total.
        entries = {
            pair: policy.table.entries for pair, policy in result.master.policies.items()
        }
        per_pair_ok = all(n <= node_count for n in entries.values())
        total = sum(entries.values())
        total_ok = total <= node_count**3
        ok = online_ok and per_pair_ok and total_ok
        report(
            11,
            ok,
            f"online per-step evals <= segment length and per-packet <= length^2: "
            f"{online_ok}; offline tables: per-pair <= {node_count}, total {total} <= "
            f"{node_count ** 3}: {per_pair_ok and total_ok}",
        )
        assert online_ok and per_pair_ok and total_ok
