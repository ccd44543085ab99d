import csv
import dataclasses
import functools
import itertools
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cogrelay.cli as cli
import cogrelay.sim as sim
from cogrelay.cli import run_point
from cogrelay.master import MasterOptions, section_rates
from cogrelay.model import (
    SPATIAL_MODE,
    PuActivityModel,
    partition_segments,
    sample_pu_activity,
    segment_probabilities,
)
from cogrelay.seeding import stream
from cogrelay.sim import (
    CoverageError,
    EpochActivity,
    RouteSpec,
    RunMetrics,
    SolverOptions,
    StudySpec,
    run_baseline,
    run_proposed,
    transmit_mass,
)
from cogrelay.subpolicy import (
    EpisodeBatch,
    RayleighGains,
    SegmentProblem,
    _metrics_from_batch,
    _run_episode_batch,
    calibrate_lambda,
    draw_episode_cube,
    estimate_segment_metrics,
)


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
SPATIAL = PuActivityModel(mode=SPATIAL_MODE, rho_p=0.4, p_active=0.5, d0=0.8, strip_width=1.0)


def tuple_paths(path):
    """The tuple path of each row of a column-form ``streams`` path."""
    if not any(isinstance(part, np.ndarray) for part in path):
        return [tuple(path)]
    columns = [
        part.tolist() if isinstance(part, np.ndarray) else itertools.repeat(part) for part in path
    ]
    return list(zip(*columns))


class TestEpochActivity:
    @pytest.mark.parametrize("activity", [SPATIAL, PuActivityModel(p_avail=0.6)])
    def test_each_epoch_is_its_own_stream_partitioned(self, activity):
        spec = dataclasses.replace(
            small_spec((0.0, 1.0, 2.2, 3.1, 4.0, 5.0), p_avail=0.6, epochs=1500, seed=11),
            activity=activity,
        )
        topo = spec.topology()
        drawn = spec.epoch_activity()
        assert drawn.bits.shape == (spec.epochs, topo.node_count)
        for e in range(spec.epochs):
            bits = sample_pu_activity(activity, topo, stream(spec.seed, "activity", e))
            assert np.array_equal(drawn.bits[e], bits)
            mine = drawn.epoch == e
            runs = list(zip(drawn.head[mine].tolist(), drawn.end[mine].tolist()))
            assert runs == partition_segments(bits)

    @pytest.mark.parametrize("activity", [SPATIAL, PuActivityModel(p_avail=0.6)],
                             ids=["spatial", "iid"])
    def test_warmup_epochs_are_their_own_streams(self, activity):
        spec = dataclasses.replace(
            small_spec((0.0, 1.0, 2.2, 3.1, 4.0, 5.0), p_avail=0.6, seed=11),
            activity=activity, baseline_warmup=40,
        )
        topo = spec.topology()
        warmup = EpochActivity.draw(spec, spec.baseline_warmup, "warmup")
        assert warmup.bits.shape == (40, topo.node_count)
        for k in range(40):
            key = ("activity", "warmup", k)
            bits = sample_pu_activity(activity, topo, stream(spec.seed, *key))
            assert np.array_equal(warmup.bits[k], bits)
        none = EpochActivity.draw(spec, 0, "warmup")  # baseline_warmup 0
        assert none.bits.shape == (0, topo.node_count)
        assert none.adjacent.shape == none.direct.shape == (0, topo.last_index)

    @pytest.mark.parametrize("tag", [(), ("warmup",)], ids=["live", "warmup"])
    def test_link_arrays_hold_each_used_link_stream(self, tag):
        spec = dataclasses.replace(
            small_spec((0.0, 1.0, 2.2, 3.1, 4.0, 5.0), p_avail=1.0, epochs=300),
            activity=SPATIAL,
        )
        topo = spec.topology()
        drawn = EpochActivity.draw(spec, spec.epochs, *tag)
        adjacent = np.full((spec.epochs, topo.last_index), np.nan)
        direct = adjacent.copy()

        def link(e, s, t):
            return stream(spec.seed, "epoch", *tag, e, "link", s, t).exponential(1.0)

        for e, bits in enumerate(drawn.bits):
            for head, end in partition_segments(bits):
                for s in range(head, end):
                    adjacent[e, s] = link(e, s, s + 1)
                if end - head >= 2:
                    direct[e, head] = link(e, head, end)
        for got, expected in ((drawn.adjacent, adjacent), (drawn.direct, direct)):
            assert 0 < np.isnan(expected).sum() < expected.size
            np.testing.assert_array_equal(got, expected)  # NaN where expected is NaN

    def test_one_hop_segment_reads_its_adjacent_link(self, monkeypatch):
        spec = small_spec((0.0, 1.0, 2.2, 3.1, 4.0, 5.0), p_avail=0.7, epochs=300)
        activity = spec.epoch_activity()
        runs = list(zip(activity.epoch.tolist(), activity.head.tolist(), activity.end.tolist()))
        one_hop = [(e, head) for e, head, end in runs if end == head + 1]
        assert one_hop
        drawn = Counter()
        real_streams = sim.streams

        def counting(root, *columns):
            for path in tuple_paths(columns):
                if "link" in path:
                    drawn[path] += 1
                yield from real_streams(root, *path)

        monkeypatch.setattr(sim, "streams", counting)
        run_baseline("baseline3", spec, activity)
        assert np.isnan(activity.direct[tuple(np.transpose(one_hop))]).all()
        assert max(drawn.values()) == 1
        used = {("epoch", e, "link", head, end) for e, head, end in runs if end - head >= 2}
        used |= {("epoch", e, "link", s, s + 1) for e, head, end in runs for s in range(head, end)}
        assert set(drawn) == used

    def test_shared_draw_gives_the_same_metrics(self):
        spec = dataclasses.replace(
            small_spec((0.0, 1.5, 3.2, 5.0), p_avail=1.0, epochs=120, n=120, iters=3),
            activity=SPATIAL, prob_samples=4000,
        )
        result = run_point(spec, sim.SCHEMES)
        activity = spec.epoch_activity()
        assert run_proposed(spec, result.master.policies, activity) == (
            result.metrics["proposed"]
        )
        for kind in BASELINES:
            assert run_baseline(kind, spec, activity) == result.metrics[kind]

    def test_store_and_forward_duty_mass_is_one_draw_per_sample(self):
        spec = dataclasses.replace(
            small_spec((0.0, 1.0, 2.2, 3.1, 4.0, 5.0), p_avail=1.0), activity=SPATIAL,
            prob_samples=25_000,
        )
        topo = spec.topology()
        rng = stream(spec.seed, "baseline2-duty")
        samples = 2500  # max(prob_samples // 10, 1000)
        hits = 0
        for _ in range(samples):
            bits = sample_pu_activity(SPATIAL, topo, rng)
            hits += bool(np.any(bits[:-1] & bits[1:]))
        assert transmit_mass("baseline2", spec) == hits / samples

    def test_a_replaced_spec_gets_its_own_table(self):
        spec = small_spec((0.0, 1.0, 2.2, 3.1, 4.0, 5.0), p_avail=0.6)
        table = spec.pair_probabilities
        assert spec.pair_probabilities is table  # computed once per spec
        for activity in (PuActivityModel(p_avail=0.9), SPATIAL):
            other = dataclasses.replace(spec, activity=activity)
            exact = segment_probabilities(activity, other.topology())
            assert other.pair_probabilities == {p: v for p, v in exact.items() if p[1] > p[0]}
            assert other.pair_probabilities != table
        assert spec.pair_probabilities is table


# A test-side reference: the per-(epoch, segment) loop that the per-pair
# batches replaced, with one engine call per segment occurrence and one
# stream derivation per baseline link use.


def _reference_link_gain(spec, topo, epoch_key, s, t):
    gen = stream(spec.seed, *epoch_key, "link", s, t)
    return float(gen.exponential(1.0) * topo.pathloss[s, t])


def _reference_segments(scheme, spec, topo, prob_table, run_segment, activity):
    last = topo.last_index
    acc = {}
    end_rates = np.zeros(spec.epochs)
    for e, head, end in zip(
        activity.epoch.tolist(), activity.head.tolist(), activity.end.tolist()
    ):
        if end == head:
            continue
        batch = run_segment(e, head, end)
        if batch is None:
            continue
        acc.setdefault((head, end), []).append(batch)
        if end == last:
            end_rates[e] = np.mean(1.0 / batch.t_sum)
    pair_stats = {}
    for pair, batches in sorted(acc.items()):
        t_sum, e_sum, frames, evals, max_steps, hop_times = zip(*batches)
        pair_stats[pair] = _metrics_from_batch(EpisodeBatch(
            np.concatenate(t_sum), np.concatenate(e_sum), np.concatenate(frames),
            np.concatenate(evals), max(max_steps), np.concatenate(hop_times),
        ))
    rates = section_rates(prob_table, {p: st.rate for p, st in pair_stats.items()}, last)
    u_weighted, u_min = float(rates[last - 1]), float(rates.min())
    return RunMetrics(
        scheme=scheme,
        pair_stats=pair_stats,
        u_weighted=u_weighted,
        u_min=u_min,
        u_empirical=float(end_rates.mean()),
        u_empirical_se=float(end_rates.std(ddof=1) / np.sqrt(end_rates.size)),
        total_power=float(
            sum(prob_table[p] * st.power_time_avg for p, st in pair_stats.items())
        ),
        total_power_se=float(math.sqrt(
            sum((prob_table[p] * st.power_time_se) ** 2 for p, st in pair_stats.items())
        )),
        p0=spec.p0,
        epochs=spec.epochs,
        seed=spec.seed,
        balance_consistent=u_weighted <= u_min * 1.01 + 1e-300,
    )


def _reference_store_and_forward(spec, topo, p_c, mass, activity):
    last = topo.last_index
    buffers = np.zeros(last, dtype=bool)
    warmup = [
        sample_pu_activity(spec.activity, topo, stream(spec.seed, "activity", "warmup", k))
        for k in range(spec.baseline_warmup)
    ]
    steps = [(False, ("epoch", "warmup", k), bits) for k, bits in enumerate(warmup)]
    steps += [(True, ("epoch", e), bits) for e, bits in enumerate(activity.bits)]
    rates = []
    for live, epoch_key, bits in steps:
        buffers[0] = True
        delivered, airtime = 0, 0.0
        for m in range(last - 1, -1, -1):
            if not buffers[m] or not (bits[m] and bits[m + 1]):
                continue
            if m + 1 < last and buffers[m + 1]:
                continue
            g = _reference_link_gain(spec, topo, epoch_key, m, m + 1)
            airtime += 1.0 / np.log1p(g * p_c)
            buffers[m] = False
            if m + 1 == last:
                delivered += 1
            else:
                buffers[m + 1] = True
        if live:
            rates.append(delivered / airtime if delivered else 0.0)
    rates = np.asarray(rates)
    u = float(rates.mean())
    return RunMetrics(
        scheme="baseline2", pair_stats={}, u_weighted=u, u_min=u, u_empirical=u,
        u_empirical_se=float(rates.std(ddof=1) / np.sqrt(rates.size)),
        total_power=mass * p_c, total_power_se=0.0, p0=spec.p0, epochs=spec.epochs,
        seed=spec.seed, balance_consistent=None,
    )


def reference_run(scheme, spec, topo, prob_table, policies, activity):
    if scheme == "proposed":
        def run_segment(e, head, end):
            policy = policies[(head, end)]
            rng = stream(spec.seed, "epoch", e, "segment", head, end)
            cube = draw_episode_cube(policy.problem, rng, 1)
            return _run_episode_batch(
                policy.problem, policy.lam, policy.table, cube, hop_times=True
            )

        return _reference_segments(scheme, spec, topo, prob_table, run_segment, activity)
    mass = transmit_mass(scheme, spec)
    p_c = spec.p0 / mass
    if scheme == "baseline2":
        return _reference_store_and_forward(spec, topo, p_c, mass, activity)
    last = topo.last_index

    def run_segment(e, head, end):
        if scheme == "baseline1" and (head, end) != (0, last):
            return None
        hops = [(m, m + 1) for m in range(head, end)] if scheme == "baseline4" else [(head, end)]
        hop_times = np.zeros((1, end - head))
        t_total = 0.0
        for src, dst in hops:
            dt = 1.0 / np.log1p(_reference_link_gain(spec, topo, ("epoch", e), src, dst) * p_c)
            hop_times[0, dst - head - 1] = dt
            t_total += dt
        t_sum = np.array([t_total])
        return EpisodeBatch(
            t_sum, p_c * t_sum, np.array([len(hops)]), np.array([end - head]), 1, hop_times
        )

    return _reference_segments(scheme, spec, topo, prob_table, run_segment, activity)


class TestPairBatches:
    @pytest.mark.parametrize("activity", [SPATIAL, PuActivityModel(p_avail=0.7)],
                             ids=["spatial", "iid"])
    @pytest.mark.parametrize("positions", [
        (0.0, 1.5, 3.2, 5.0),
        (0.0, 0.8, 1.9, 2.6, 3.5, 4.1, 5.0),
    ], ids=["4-node", "7-node"])
    def test_equal_to_the_per_segment_loop(self, activity, positions):
        spec = dataclasses.replace(
            small_spec(positions, p_avail=1.0, epochs=150, seed=13, n=80, iters=2),
            activity=activity, prob_samples=20_000,
        )
        policies = run_point(spec, ("baseline4",)).master.policies
        topo = spec.topology()
        prob_table = spec.pair_probabilities
        activity_draw = spec.epoch_activity()
        assert len(activity_draw.pair_epochs) > 2
        expected = reference_run("proposed", spec, topo, prob_table, policies, activity_draw)
        assert run_proposed(spec, policies, activity_draw) == expected
        for kind in BASELINES:
            expected = reference_run(kind, spec, topo, prob_table, policies, activity_draw)
            assert run_baseline(kind, spec, activity_draw) == expected

    def test_coverage_error_names_the_earliest_uncovered_epoch(self):
        spec = small_spec((0.0, 1.5, 3.2, 5.0), p_avail=0.7, epochs=300, seed=4)
        topo = spec.topology()
        activity = spec.epoch_activity()
        first = {}
        for e in range(spec.epochs):
            bits = sample_pu_activity(spec.activity, topo, stream(spec.seed, "activity", e))
            for head, end in partition_segments(bits):
                if end > head:
                    first.setdefault((head, end), e)
        by_first = sorted(first, key=lambda pair: (first[pair], pair[0]))
        # Two uncovered pairs, the later-occurring one first in route order.
        missing, later = next(
            (a, b) for a, b in itertools.combinations(by_first, 2) if b < a and first[a] > 0
        )
        # Placeholders: the coverage check must fail before any pair runs.
        policies = {pair: None for pair in by_first if pair not in (missing, later)}
        match = rf"^segment \({missing[0]}, {missing[1]}\) observed at epoch {first[missing]} "
        with pytest.raises(CoverageError, match=match):
            run_proposed(spec, policies, activity)

    def test_each_baseline_link_is_drawn_once_per_run(self, monkeypatch):
        spec = dataclasses.replace(
            small_spec((0.0, 1.0, 2.2, 3.1, 4.0, 5.0), p_avail=1.0, epochs=300),
            activity=SPATIAL, prob_samples=4000,
        )
        activity = spec.epoch_activity()
        drawn = Counter()
        real_streams = sim.streams

        def counting(root, *columns):
            for path in tuple_paths(columns):
                if "link" in path:
                    drawn[path] += 1
                yield from real_streams(root, *path)

        monkeypatch.setattr(sim, "streams", counting)
        for kind in BASELINES:
            run_baseline(kind, spec, activity)
        live = {path for path in drawn if path[1] != "warmup"}
        assert len(live) > spec.epochs
        assert max(drawn.values()) == 1

    def test_each_segment_occurrence_is_drawn_once_from_one_call(self, monkeypatch):
        spec = dataclasses.replace(
            small_spec((0.0, 1.5, 3.2, 5.0), p_avail=1.0, epochs=150, seed=13, n=80, iters=2),
            activity=SPATIAL, prob_samples=20_000,
        )
        policies = run_point(spec, ("baseline4",)).master.policies
        activity = spec.epoch_activity()
        assert len(activity.pair_epochs) > 2
        calls: list[set] = []
        drawn = Counter()
        real_streams = sim.streams

        def counting(root, *columns):
            kinds: set = set()
            calls.append(kinds)
            for path in tuple_paths(columns):
                kinds.add(path[2])
                drawn[path] += 1
            return real_streams(root, *columns)

        monkeypatch.setattr(sim, "streams", counting)
        run_proposed(spec, policies, activity)
        assert calls == [{"segment"}]
        assert set(drawn) == {
            ("epoch", e, "segment", *pair)
            for pair, epochs in activity.pair_epochs.items()
            for e in epochs.tolist()
        }
        assert max(drawn.values()) == 1

    def test_each_pair_draws_its_rows_in_one_cube_call(self, monkeypatch):
        spec = dataclasses.replace(
            small_spec((0.0, 1.5, 3.2, 5.0), p_avail=1.0, epochs=150, seed=13, n=80, iters=2),
            activity=SPATIAL, prob_samples=20_000,
        )
        policies = run_point(spec, ("baseline4",)).master.policies
        activity = spec.epoch_activity()
        calls = []
        real_draw = sim.draw_episode_cube

        def counting(problem, rng, episodes):
            rows = list(rng)
            calls.append(((problem.head, problem.end), len(rows), episodes))
            return real_draw(problem, rows, episodes)

        monkeypatch.setattr(sim, "draw_episode_cube", counting)
        run_proposed(spec, policies, activity)
        pairs = sorted(activity.pair_epochs.items())
        assert calls == [(pair, epochs.size, epochs.size) for pair, epochs in pairs]
        occurrences = int((activity.end > activity.head).sum())
        assert sum(episodes for _, _, episodes in calls) == occurrences


class TestProposed:
    def test_no_spectrum_no_throughput(self):
        spec = small_spec((0.0, 2.0, 5.0), p_avail=0.0, epochs=100)
        activity = spec.epoch_activity()
        metrics = run_proposed(spec, {}, activity)
        assert metrics.u_min == 0.0
        assert metrics.u_weighted == 0.0
        assert metrics.u_empirical == 0.0
        assert metrics.total_power == 0.0

    def test_single_hop_full_availability_matches_segment_estimate(self):
        spec = small_spec((0.0, 5.0), p_avail=1.0, epochs=3000, seed=9)
        topo = spec.topology()
        activity = spec.epoch_activity()
        problem = SegmentProblem(
            head=0, end=1, gains=RayleighGains(topo), pbar=spec.p0,
            p_max=100.0 * spec.p0, p_floor=1e-6 * spec.p0,
            mc_samples=400, episodes=400,
        )
        policy = calibrate_lambda(problem, stream(9, "cal"))
        metrics = run_proposed(spec, {(0, 1): policy}, activity)
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
        activity = spec.epoch_activity()
        problem = SegmentProblem(
            head=0, end=1, gains=RayleighGains(topo), pbar=spec.p0,
            p_max=100.0 * spec.p0, p_floor=1e-6 * spec.p0,
            mc_samples=100, episodes=100,
        )
        policy = calibrate_lambda(problem, stream(1, "cal"))
        with pytest.raises(CoverageError, match=r"\("):
            run_proposed(spec, {(0, 1): policy}, activity)

    def test_segment_metrics_depend_only_on_own_stream(self, monkeypatch):
        spec = small_spec((0.0, 2.0, 5.0), p_avail=0.7, epochs=120)
        result = run_point(spec, ("proposed",))
        target = (0, 2)
        baseline_stats = result.metrics["proposed"].pair_stats[target]

        real_streams = sim.streams

        def skewed(root, *columns):
            for path in tuple_paths(columns):
                # Perturb every segment stream except the target pair's.
                if "segment" in path:
                    idx = path.index("segment")
                    pair = (path[idx + 1], path[idx + 2])
                    if pair != target:
                        path = (*path, "skewed")
                yield from real_streams(root, *path)

        monkeypatch.setattr(sim, "streams", skewed)
        activity = spec.epoch_activity()
        perturbed = run_proposed(spec, result.master.policies, activity)
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
        activity = spec.epoch_activity()
        with pytest.raises(ValueError):
            run_baseline("baseline9", spec, activity)
        with pytest.raises(ValueError):
            run_baseline("proposed", spec, activity)

    def test_single_hop_route_all_baselines_coincide(self):
        spec = small_spec((0.0, 5.0), p_avail=0.8, epochs=400)
        activity = spec.epoch_activity()
        runs = {k: run_baseline(k, spec, activity) for k in BASELINES}
        values = {m.u_empirical for m in runs.values()}
        assert len(values) == 1
        for m in runs.values():
            assert m.total_power == pytest.approx(spec.p0, rel=1e-6)

    def test_full_availability_equivalences(self):
        spec = small_spec((0.0, 1.5, 3.2, 5.0), p_avail=1.0, epochs=300, seed=6)
        activity = spec.epoch_activity()
        runs = {k: run_baseline(k, spec, activity) for k in BASELINES}
        assert runs["baseline1"].u_empirical == runs["baseline3"].u_empirical
        assert runs["baseline1"].u_min == runs["baseline3"].u_min
        assert runs["baseline2"].u_empirical == runs["baseline4"].u_empirical

    def test_blocked_route_yields_zero(self):
        spec = small_spec((0.0, 2.0, 5.0), p_avail=0.0, epochs=50)
        activity = spec.epoch_activity()
        for kind in BASELINES:
            metrics = run_baseline(kind, spec, activity)
            assert metrics.u_empirical == 0.0
            assert metrics.total_power == 0.0

    def test_power_fairness_measured_at_budget(self):
        spec = small_spec((0.0, 1.5, 3.2, 5.0), p_avail=0.7, epochs=200)
        activity = spec.epoch_activity()
        for kind in BASELINES:
            metrics = run_baseline(kind, spec, activity)
            assert metrics.total_power == pytest.approx(spec.p0, rel=1e-6)

    def test_store_and_forward_duty_mass_matches_enumeration(self):
        spec = small_spec((0.0, 1.0, 2.0, 3.0), p_avail=0.6)
        mass = transmit_mass("baseline2", spec)
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
        activity = spec.epoch_activity()
        metrics = run_baseline("baseline2", spec, activity)
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

    @pytest.mark.parametrize("p0", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_budget_is_refused(self, p0):
        with pytest.raises(ValueError, match="budget must be positive and finite"):
            small_spec((0.0, 5.0), p_avail=0.9, p0=p0)

    def test_grid_points_and_overrides(self):
        grid = {"p0_db": (0.0, 10.0), "p_block": (0.1, 0.2)}
        points = cli.grid_points(grid)
        assert len(points) == 4
        assert points[0] == {"p0_db": 0.0, "p_block": 0.1}
        cfg = cli.ExperimentConfig(small_spec((0.0, 5.0), p_avail=0.9))
        out = cli.point_config(cfg, points[0]).spec
        assert out.p0 == pytest.approx(1.0)
        assert out.activity.p_avail == pytest.approx(0.9)  # p_block applied
        out2 = cli.point_config(cfg, {"p_block": 0.25}).spec
        assert out2.activity.p_avail == pytest.approx(0.75)
        out3 = cli.point_config(cfg, {"nodes": 4, "alpha": 3.0}).spec
        assert out3.route.nodes == 4 and out3.route.alpha == 3.0
        assert out3.route.positions is None
        with pytest.raises(KeyError):  # parsing refuses unknown grid keys first
            cli.point_config(cfg, {"bogus": 1.0})

    def test_point_seed_is_content_addressed(self):
        cfg = cli.ExperimentConfig(small_spec((0.0, 5.0), p_avail=0.9))
        a = cli.point_config(cfg, {"p0_db": 10.0}).spec
        b = cli.point_config(cfg, {"p0_db": 10.0}).spec
        c = cli.point_config(cfg, {"p0_db": 20.0}).spec
        assert a.seed == b.seed
        assert a.seed != c.seed

    def test_sweep_rows_deterministic_order(self, tmp_path):
        config = {
            "version": 1,
            "seed": 5,
            "model": {"positions": [0.0, 5.0], "alpha": 2.0},
            "activity": {"mode": "iid-bernoulli", "p_avail": 0.8},
            "budget": {"P0": 100.0},
            "schemes": ["proposed", "baseline3"],
            "solver": {"mc_samples": 120, "episodes": 120, "master": {"max_iterations": 3}},
            "sim": {"epochs": 80},
            "sweep": {"grid": {"p0_db": [10.0, 20.0]}},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["p0_db"] for r in rows] == ["10.0", "10.0", "20.0", "20.0"]
        assert [r["scheme"] for r in rows] == ["proposed", "baseline3"] * 2
        for row in rows:
            assert all(row[key] != "" for key in ("u_min", "u_weighted", "total_power", "seed"))


def readme_spec(**activity):
    """The README configuration as written, its activity replaced when given."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    raw = json.loads(readme.split("```json\n")[1].split("```", 1)[0])
    if activity:
        raw["activity"] = activity
    return cli.parse_config(raw).spec


README_SPATIAL = {"mode": "spatial-field", "rho_p": 0.4, "p_active": 0.5, "d0": 0.8,
                  "strip_width": 1.0}


# The README's budget, 30 dB, and two lower ones.
EXACT_P0_DB = (0.0, 10.0, 30.0)


def exact_reference_spec(activity: str, seed: int, p0_db: float) -> StudySpec:
    """The README config (``activity`` "iid") or it with a spatial field, at
    ``seed`` and a budget of ``p0_db``."""
    spec = readme_spec(**(README_SPATIAL if activity == "spatial" else {}))
    return dataclasses.replace(spec, seed=seed, p0=cli.db_to_linear(p0_db))


@functools.lru_cache(maxsize=None)
def constant_power_rate_z(activity: str, seed: int, p0_db: float):
    """(kind, pair, episodes, z) of every pair rate of baselines 1 and 3 on
    ``exact_reference_spec``, where z = (rate - exact) / rate_se."""
    from scipy.special import exp1

    spec = exact_reference_spec(activity, seed, p0_db)
    pathloss = spec.topology().pathloss
    epochs = spec.epoch_activity()
    rows = []
    for kind in ("baseline1", "baseline3"):
        p_c = spec.p0 / transmit_mass(kind, spec)
        for (i, j), st in run_baseline(kind, spec, epochs).pair_stats.items():
            assert st.episodes >= 2 and st.rate_se > 0.0, (kind, seed, i, j)
            inv_s = 1.0 / (p_c * pathloss[i, j])
            exact = math.exp(inv_s) * exp1(inv_s)
            rows.append((kind, (i, j), st.episodes, (st.rate - exact) / st.rate_se))
    return rows


# Baseline 3's pair (2, 3) of the README config at seed 1 reads z = +4.22 on
# 33 episodes: ``rate_se`` understates the error of a pair with few episodes
# (ROADMAP item 8).  At 0 dB baseline 4's pair (2, 4) at seed 1 reads z =
# -4.05 on 18 episodes, the same case mirrored: its 1/T is skewed to the
# right, and z < -4 has probability about 2.8e-3 at 18 episodes.  Strict, so
# a case fails once its row is within 4 SE.
RATE_SE_MISS = pytest.mark.xfail(
    strict=True, reason="rate_se understates small-sample errors (ROADMAP item 8)"
)


class TestExactConstantPowerBaselines:
    """Baselines 1 and 3 send each segment in one hop at a constant power
    p_c, so a pair's rate is E[ln(1 + s X)] with X ~ Exp(1) and
    s = p_c pathloss[i, j], which equals e^{1/s} E1(1/s).

    Every simulated pair rate, at five seeds and three budgets, must lie
    within 4 SE of it.
    """

    @pytest.mark.parametrize(
        "activity, seed, kind, p0_db",
        [
            pytest.param(
                *case, marks=RATE_SE_MISS if case == ("iid", 1, "baseline3", 30.0) else ()
            )
            for case in itertools.product(
                ("iid", "spatial"), (1, 2, 3, 4, 5), ("baseline1", "baseline3"), EXACT_P0_DB
            )
        ],
    )
    def test_pair_rates_match_the_exponential_integral(self, activity, seed, kind, p0_db):
        rows = [row for row in constant_power_rate_z(activity, seed, p0_db) if row[0] == kind]
        beyond = [row for row in rows if abs(row[-1]) > 4.0]
        assert rows
        assert not beyond, f"{len(beyond)} of {len(rows)} rows beyond 4 SE: {beyond}"



@functools.lru_cache(maxsize=None)
def hop_by_hop_exact_rates(s: tuple[float, ...]) -> dict[tuple[int, int], float]:
    """Baseline 4's exact pair rates for hop SNR scales ``s[k] = p_c
    pathloss[k, k+1]``.

    A delivery over pair (i, j) takes T = sum_k t_k, k = i..j-1, with
    independent t_k = 1 / ln(1 + s_k X), X ~ Exp(1).  Since 1/T is the
    integral of e^{-uT} over u > 0, E[1/T] = int_0^inf prod_k E[e^{-u t_k}] du,
    and each factor is a one-dimensional integral over X.
    """
    from scipy.integrate import quad

    def integral(f):
        return quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-10, limit=200)[0]

    @functools.lru_cache(maxsize=None)
    def laplace(k: int, u: float) -> float:  # E[e^{-u t_k}]
        def f(x):
            t = math.log1p(s[k] * x)
            return math.exp(-x - u / t) if t > 0.0 else 0.0

        return integral(f)

    return {
        (i, j): integral(lambda u: math.prod(laplace(k, u) for k in range(i, j)))
        for i in range(len(s)) for j in range(i + 1, len(s) + 1)
    }


@functools.lru_cache(maxsize=None)
def hop_by_hop_run(activity: str, seed: int, p0_db: float):
    """Baselines 3 and 4 on ``exact_reference_spec``, and the hop SNR scales
    ``s`` of baseline 4."""
    spec = exact_reference_spec(activity, seed, p0_db)
    p_c = spec.p0 / transmit_mass("baseline4", spec)
    epochs = spec.epoch_activity()
    runs = {kind: run_baseline(kind, spec, epochs) for kind in ("baseline3", "baseline4")}
    return runs, tuple(p_c * np.diag(spec.topology().pathloss, 1))


class TestExactHopByHopBaseline:
    """Baseline 4 hops node by node at a constant power p_c, so its pair
    rates have the exact form of ``hop_by_hop_exact_rates``.

    Every simulated pair rate, at five seeds and three budgets, must lie
    within 4 SE of it.
    """

    @pytest.mark.parametrize("p0_db", EXACT_P0_DB)
    @pytest.mark.parametrize("activity", ["iid", "spatial"])
    def test_one_hop_integral_equals_the_exponential_integral(self, activity, p0_db):
        from scipy.special import exp1

        _, s = hop_by_hop_run(activity, 1, p0_db)
        exact = hop_by_hop_exact_rates(s)
        for k, s_k in enumerate(s):
            assert exact[(k, k + 1)] == pytest.approx(math.exp(1 / s_k) * exp1(1 / s_k), rel=1e-9)

    @pytest.mark.parametrize("p0_db", EXACT_P0_DB)
    @pytest.mark.parametrize("activity", ["iid", "spatial"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_one_hop_pairs_are_baseline_3_rows(self, activity, seed, p0_db):
        # On a one-hop pair both baselines send the same hop at the same
        # power, so baseline 3's rows carry over, misses included.
        runs, _ = hop_by_hop_run(activity, seed, p0_db)
        hop = {p: st for p, st in runs["baseline4"].pair_stats.items() if p[1] == p[0] + 1}
        assert hop
        assert hop == {p: runs["baseline3"].pair_stats[p] for p in hop}

    # The misses (RATE_SE_MISS) are both at iid seed 1: at 30 dB baseline 3's
    # pair (2, 3), which is one hop, so the row is the same, and at 0 dB the
    # pair (2, 4).
    @pytest.mark.parametrize(
        "activity, seed, p0_db",
        [
            pytest.param(
                *case, marks=RATE_SE_MISS if case in (("iid", 1, 0.0), ("iid", 1, 30.0)) else ()
            )
            for case in itertools.product(
                ("iid", "spatial"), (1, 2, 3, 4, 5), EXACT_P0_DB
            )
        ],
    )
    def test_pair_rates_match_the_laplace_integral(self, activity, seed, p0_db):
        runs, s = hop_by_hop_run(activity, seed, p0_db)
        exact = hop_by_hop_exact_rates(s)
        rows = []
        for pair, st in runs["baseline4"].pair_stats.items():
            assert st.episodes >= 2 and st.rate_se > 0.0, (seed, pair)
            rows.append((pair, st.episodes, (st.rate - exact[pair]) / st.rate_se))
        beyond = [row for row in rows if abs(row[-1]) > 4.0]
        assert len(rows) == len(exact)
        assert not beyond, f"{len(beyond)} of {len(rows)} rows beyond 4 SE: {beyond}"
