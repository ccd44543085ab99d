import dataclasses
import itertools

import numpy as np
import pytest

import cogrelay.sim as sim
from cogrelay.master import MasterOptions
from cogrelay.model import PuActivityModel, PuActivityState, partition_segments
from cogrelay.seeding import stream
from cogrelay.sim import (
    CoverageError,
    RouteSpec,
    SolverOptions,
    StudySpec,
    apply_grid_point,
    grid_points,
    point_spec,
    run_baseline,
    run_point,
    run_proposed,
    transmit_mass,
)
from cogrelay.subpolicy import RayleighGains, SegmentProblem, calibrate_lambda, estimate_segment_metrics


def small_spec(positions, p_avail, p0=100.0, epochs=400, seed=5, n=250, iters=6):
    return StudySpec(
        route=RouteSpec(alpha=2.0, positions=positions),
        activity=PuActivityModel(p_avail=p_avail),
        p0=p0,
        epochs=epochs,
        seed=seed,
        solver=SolverOptions(
            mc_samples=n, episodes=n, master=MasterOptions(max_iterations=iters)
        ),
    )


BASELINES = ("baseline1", "baseline2", "baseline3", "baseline4")


class TestProposed:
    def test_no_spectrum_no_throughput(self):
        spec = small_spec((0.0, 2.0, 5.0), p_avail=0.0, epochs=100)
        topo = spec.topology()
        metrics = run_proposed(spec, {}, spec.pair_probabilities(topo), topo)
        assert metrics.u_min == 0.0
        assert metrics.u_weighted == 0.0
        assert metrics.u_empirical == 0.0
        assert metrics.total_power == 0.0

    def test_single_hop_full_availability_matches_segment_estimate(self):
        spec = small_spec((0.0, 5.0), p_avail=1.0, epochs=3000, seed=9)
        topo = spec.topology()
        problem = SegmentProblem(
            head=0, end=1, gains=RayleighGains(topo), pbar=spec.p0,
            p_max=100.0 * spec.p0, p_floor=1e-6 * spec.p0,
            mc_samples=400, episodes=400,
        )
        policy = calibrate_lambda(problem, stream(9, "cal"))
        metrics = run_proposed(spec, {(0, 1): policy}, spec.pair_probabilities(topo), topo)
        reference = estimate_segment_metrics(policy, 3000, stream(10, "ref"))
        scale = np.hypot(metrics.u_empirical_se, reference.rate_se)
        assert abs(metrics.u_weighted - reference.rate) <= 4.0 * scale

    def test_bit_identical_reruns(self):
        spec = small_spec((0.0, 2.0, 5.0), p_avail=0.7, epochs=150)
        result_a = run_point(spec, ("proposed",))
        result_b = run_point(spec, ("proposed",))
        a, b = result_a.metrics["proposed"], result_b.metrics["proposed"]
        assert a == b

    def test_missing_policy_is_a_hard_error(self):
        spec = small_spec((0.0, 2.0, 5.0), p_avail=0.7, epochs=200)
        topo = spec.topology()
        prob_table = spec.pair_probabilities(topo)
        problem = SegmentProblem(
            head=0, end=1, gains=RayleighGains(topo), pbar=spec.p0,
            p_max=100.0 * spec.p0, p_floor=1e-6 * spec.p0,
            mc_samples=100, episodes=100,
        )
        policy = calibrate_lambda(problem, stream(1, "cal"))
        with pytest.raises(CoverageError, match=r"\("):
            run_proposed(spec, {(0, 1): policy}, prob_table, topo)

    def test_segment_metrics_depend_only_on_own_stream(self, monkeypatch):
        spec = small_spec((0.0, 2.0, 5.0), p_avail=0.7, epochs=120)
        result = run_point(spec, ("proposed",))
        target = (0, 2)
        baseline_stats = result.metrics["proposed"].pair_stats[target]

        real_stream = sim.stream

        def skewed(root, *path):
            # Perturb every segment stream except the target pair's.
            if "segment" in path:
                idx = path.index("segment")
                pair = (path[idx + 1], path[idx + 2])
                if pair != target:
                    return real_stream(root, *path, "skewed")
            return real_stream(root, *path)

        monkeypatch.setattr(sim, "stream", skewed)
        topo = spec.topology()
        prob_table = spec.pair_probabilities(topo)
        policies = {p: ev.policy for p, ev in result.master.evaluations.items()}
        perturbed = run_proposed(spec, policies, prob_table, topo)
        assert perturbed.pair_stats[target] == baseline_stats
        assert perturbed.pair_stats != result.metrics["proposed"].pair_stats

    def test_online_complexity_counters(self):
        spec = small_spec((0.0, 1.5, 3.0, 5.0), p_avail=0.8, epochs=150)
        result = run_point(spec, ("proposed",))
        for pair, stats in result.metrics["proposed"].pair_stats.items():
            length = pair[1] - pair[0]
            assert stats.max_step_evals <= length
            assert stats.max_episode_evals <= length**2


class TestBaselines:
    def test_unknown_kind_rejected(self):
        spec = small_spec((0.0, 5.0), p_avail=0.5)
        topo = spec.topology()
        with pytest.raises(ValueError):
            run_baseline("baseline9", spec, spec.pair_probabilities(topo), topo)
        with pytest.raises(ValueError):
            run_baseline("proposed", spec, spec.pair_probabilities(topo), topo)

    def test_single_hop_route_all_baselines_coincide(self):
        spec = small_spec((0.0, 5.0), p_avail=0.8, epochs=400)
        topo = spec.topology()
        prob_table = spec.pair_probabilities(topo)
        runs = {k: run_baseline(k, spec, prob_table, topo) for k in BASELINES}
        values = {m.u_empirical for m in runs.values()}
        assert len(values) == 1
        for m in runs.values():
            assert m.total_power == pytest.approx(spec.p0, rel=1e-6)

    def test_full_availability_equivalences(self):
        spec = small_spec((0.0, 1.5, 3.2, 5.0), p_avail=1.0, epochs=300, seed=6)
        topo = spec.topology()
        prob_table = spec.pair_probabilities(topo)
        runs = {k: run_baseline(k, spec, prob_table, topo) for k in BASELINES}
        assert runs["baseline1"].u_empirical == runs["baseline3"].u_empirical
        assert runs["baseline1"].u_min == runs["baseline3"].u_min
        assert runs["baseline2"].u_empirical == runs["baseline4"].u_empirical

    def test_blocked_route_yields_zero(self):
        spec = small_spec((0.0, 2.0, 5.0), p_avail=0.0, epochs=50)
        topo = spec.topology()
        prob_table = spec.pair_probabilities(topo)
        for kind in BASELINES:
            metrics = run_baseline(kind, spec, prob_table, topo)
            assert metrics.u_empirical == 0.0
            assert metrics.total_power == 0.0

    def test_power_fairness_measured_at_budget(self):
        spec = small_spec((0.0, 1.5, 3.2, 5.0), p_avail=0.7, epochs=200)
        topo = spec.topology()
        prob_table = spec.pair_probabilities(topo)
        for kind in BASELINES:
            metrics = run_baseline(kind, spec, prob_table, topo)
            assert metrics.total_power == pytest.approx(spec.p0, rel=1e-6)

    def test_store_and_forward_duty_mass_matches_enumeration(self):
        spec = small_spec((0.0, 1.0, 2.0, 3.0), p_avail=0.6)
        topo = spec.topology()
        prob_table = spec.pair_probabilities(topo)
        mass = transmit_mass("baseline2", spec, prob_table, topo)
        p = 0.6
        total = 0.0
        for bits in itertools.product((0, 1), repeat=4):
            weight = np.prod([p if b else 1.0 - p for b in bits])
            if any(bits[m] and bits[m + 1] for m in range(3)):
                total += weight
        assert mass == pytest.approx(total, rel=1e-12)

    def test_constant_power_solver(self):
        # Store-and-forward reports mass * p_c, its expected radiated power.
        spec = small_spec((0.0, 1.0, 2.0, 3.0), p_avail=0.6, epochs=50)
        topo = spec.topology()
        metrics = run_baseline("baseline2", spec, spec.pair_probabilities(topo), topo)
        assert metrics.total_power == pytest.approx(spec.p0, rel=1e-12)


class TestStudyPoints:
    def test_run_point_rejects_unknown_scheme(self):
        spec = small_spec((0.0, 5.0), p_avail=0.8)
        with pytest.raises(ValueError):
            run_point(spec, ("nonsense",))

    def test_proposed_beats_baselines_on_small_route(self):
        spec = small_spec((0.0, 2.3, 5.0), p_avail=0.8, p0=1000.0,
                          epochs=600, n=500, iters=12)
        result = run_point(spec, ("proposed", "baseline3", "baseline4"))
        prop = result.metrics["proposed"]
        for kind in ("baseline3", "baseline4"):
            base = result.metrics[kind]
            slack = 3.0 * np.hypot(prop.u_empirical_se, base.u_empirical_se)
            assert prop.u_min >= base.u_min - slack

    def test_budget_respected_within_noise(self):
        spec = small_spec((0.0, 2.3, 5.0), p_avail=0.8, p0=1000.0,
                          epochs=600, n=500, iters=12)
        result = run_point(spec, ("proposed",))
        m = result.metrics["proposed"]
        assert m.total_power <= m.p0 * 1.0 + 3.0 * m.total_power_se + 1e-9

    def test_balance_flag_means_both_forms_agree(self):
        spec = small_spec((0.0, 2.3, 5.0), p_avail=0.8, p0=1000.0,
                          epochs=400, n=300, iters=8)
        result = run_point(spec, ("proposed",))
        m = result.metrics["proposed"]
        assert m.u_weighted >= m.u_min - 1e-12  # the end section can't undercut the min
        if m.balance_consistent:
            assert m.u_weighted == pytest.approx(m.u_min, rel=0.011)

    def test_grid_points_and_overrides(self):
        grid = {"p0_db": (0.0, 10.0), "p_block": (0.1, 0.2)}
        points = grid_points(grid)
        assert len(points) == 4
        assert points[0] == {"p0_db": 0.0, "p_block": 0.1}
        spec = small_spec((0.0, 5.0), p_avail=0.9)
        out = apply_grid_point(spec, points[0])
        assert out.p0 == pytest.approx(1.0)
        assert out.activity.p_avail == pytest.approx(0.9)  # p_block applied
        out2 = apply_grid_point(spec, {"p_block": 0.25})
        assert out2.activity.p_avail == pytest.approx(0.75)
        out3 = apply_grid_point(spec, {"nodes": 4, "alpha": 3.0})
        assert out3.route.nodes == 4 and out3.route.alpha == 3.0
        with pytest.raises(ValueError):
            apply_grid_point(spec, {"bogus": 1.0})

    def test_point_seed_is_content_addressed(self):
        spec = small_spec((0.0, 5.0), p_avail=0.9)
        a = point_spec(spec, {"p0_db": 10.0})
        b = point_spec(spec, {"p0_db": 10.0})
        c = point_spec(spec, {"p0_db": 20.0})
        assert a.seed == b.seed
        assert a.seed != c.seed

    def test_sweep_rows_deterministic_order(self):
        spec = small_spec((0.0, 5.0), p_avail=0.8, epochs=80, n=120, iters=3)
        rows = sim.sweep(spec, {"p0_db": (10.0, 20.0)}, ("proposed", "baseline3"))
        assert [r["p0_db"] for r in rows] == [10.0, 10.0, 20.0, 20.0]
        assert [r["scheme"] for r in rows] == ["proposed", "baseline3"] * 2
        for row in rows:
            assert set(row) >= {"u_min", "u_weighted", "total_power", "seed"}
