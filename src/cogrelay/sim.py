"""End-to-end Monte-Carlo experiments with dynamic spatial reuse.

Each sensing epoch draws one availability vector, splits the route into
continuous segments, and lets every transmitting segment run independently
(segments do not interfere by construction).  Per-pair rates are aggregated
by segment identity and combined with the model's occurrence probabilities
into section rates and the end-to-end throughput, in both the weighted form
over segments reaching the destination and the min-section form.

Baseline conventions (the reference schemes use constant transmit power):

* ``baseline1`` — direct source-to-destination transmission, possible only in
  epochs where the whole route is one segment.
* ``baseline2`` — classical store-and-forward relaying: single-packet buffer
  per node, one hop advance per epoch when both ends of the hop are
  available, no spatial reuse (hop transmissions within an epoch share time).
  Its throughput is the per-epoch delivered-bits over airtime average,
  which coincides with the per-segment accounting when the route is fully
  available.
* ``baseline3`` / ``baseline4`` — the same spatial reuse as the proposed
  scheme, but inside each segment the head transmits straight to the end
  (3) or strictly hop by hop (4).

Every baseline's constant power is set so that its expected instantaneous
radiated power — the probability-weighted sum that the budget constraint
bounds for the proposed scheme — equals the same budget, making the
comparison power-fair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .master import (
    MasterOptions,
    MasterSolution,
    RateModel,
    section_rates,
    solve_master,
)
from .model import (
    IID_MODE,
    PuActivityModel,
    Segment,
    Topology,
    make_linear_route,
    partition_segments,
    sample_pu_activity,
    segment_probabilities,
)
from .seeding import stream
from .subpolicy import (
    DEFAULT_P_FLOOR_FACTOR,
    DEFAULT_P_MAX_FACTOR,
    CalibratedPolicy,
    EpisodeBatch,
    SegmentMetrics,
    _metrics_from_batch,
    _run_episode_batch,
    draw_episode_cube,
)

Pair = tuple[int, int]

SCHEMES = ("proposed", "baseline1", "baseline2", "baseline3", "baseline4")


class CoverageError(RuntimeError):
    """An observed segment has no calibrated policy: the pair-probability
    cutoff was set too aggressively for this activity model."""


@dataclass(frozen=True)
class RouteSpec:
    """Recipe for the route geometry, kept symbolic so sweeps can rebuild it
    with a different node count or exponent."""

    alpha: float = 2.0
    positions: tuple[float, ...] | None = None
    nodes: int | None = None
    span: float = 5.0
    min_gap: float = 0.25
    placement_seed: int = 7

    def __post_init__(self) -> None:
        if self.positions is None and self.nodes is None:
            raise ValueError("route needs positions or a node count")

    def build(self) -> Topology:
        if self.positions is not None:
            return Topology.from_positions(self.positions, self.alpha)
        pos = make_linear_route(self.nodes, self.span, self.placement_seed, self.min_gap)
        return Topology.from_positions(pos, self.alpha)


@dataclass(frozen=True)
class SolverOptions:
    mc_samples: int = 2000
    episodes: int = 2000
    power_tolerance: float = 1e-2
    p_max_factor: float = DEFAULT_P_MAX_FACTOR
    p_floor_factor: float = DEFAULT_P_FLOOR_FACTOR
    master: MasterOptions = field(default_factory=MasterOptions)


@dataclass(frozen=True)
class StudySpec:
    """One experiment point: environment, budget, sampling effort, seeds."""

    route: RouteSpec
    activity: PuActivityModel
    p0: float
    epochs: int = 2000
    episodes_per_segment: int = 1
    baseline_warmup: int = 16
    prob_samples: int = 100_000
    seed: int = 0
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.p0 <= 0.0:
            raise ValueError("the power budget must be positive")
        if self.episodes_per_segment < 1:
            raise ValueError("episodes_per_segment must be positive")

    def topology(self) -> Topology:
        return self.route.build()

    def pair_probabilities(self, topology: Topology) -> dict[Pair, float]:
        """Occurrence probability of every transmitting pair."""
        rng = stream(self.seed, "pair-probabilities")
        table = segment_probabilities(
            self.activity, topology, rng=rng, samples=self.prob_samples
        )
        return {p: v for p, v in table.items() if p[1] > p[0]}


@dataclass(frozen=True)
class RunMetrics:
    """Estimated throughput and power of one scheme at one study point."""

    scheme: str
    pair_stats: dict[Pair, SegmentMetrics]
    u_weighted: float
    u_min: float
    u_empirical: float
    u_empirical_se: float
    total_power: float
    total_power_se: float
    p0: float
    epochs: int
    seed: int
    balance_consistent: bool | None


def _concat(batches: list[EpisodeBatch]) -> EpisodeBatch:
    t_sum, e_sum, frames, evals, max_steps, hop_times = zip(*batches)
    return EpisodeBatch(
        np.concatenate(t_sum),
        np.concatenate(e_sum),
        np.concatenate(frames),
        np.concatenate(evals),
        max(max_steps),
        np.concatenate(hop_times),
    )


def _run_segments(
    scheme: str,
    spec: StudySpec,
    topology: Topology,
    prob_table: dict[Pair, float],
    run_segment: Callable[[int, Segment], EpisodeBatch | None],
) -> RunMetrics:
    """The epoch loop of every scheme with dynamic spatial reuse.

    Each epoch draws one availability vector; ``run_segment(epoch, segment)``
    delivers the epoch's packets through one transmitting segment, or
    returns ``None`` where the scheme leaves it idle.  A pair's episodes
    pool over all epochs into its rate and power; the end-to-end rate
    averages, per epoch, the episodes of the segment reaching the destination.
    """
    last = topology.last_index
    acc: dict[Pair, list[EpisodeBatch]] = {}
    end_rates: list[float] = []
    for e in range(spec.epochs):
        act = sample_pu_activity(spec.activity, topology, stream(spec.seed, "activity", e))
        epoch_end: list[float] = []
        for seg in partition_segments(act):
            if not seg.transmits:
                continue
            batch = run_segment(e, seg)
            if batch is None:
                continue
            acc.setdefault((seg.head, seg.end), []).append(batch)
            if seg.end == last:
                epoch_end.extend(1.0 / batch.t_sum)
        end_rates.append(float(np.mean(epoch_end)) if epoch_end else 0.0)

    pair_stats = {
        pair: _metrics_from_batch(_concat(batches)) for pair, batches in sorted(acc.items())
    }
    u_table = {pair: st.rate for pair, st in pair_stats.items()}
    rates = section_rates(prob_table, u_table, last)
    u_weighted = float(rates[last - 1])
    u_min = float(rates.min())
    end = np.asarray(end_rates)
    u_emp = float(end.mean())
    u_emp_se = float(end.std(ddof=1) / np.sqrt(end.size)) if end.size > 1 else 0.0
    total_power = sum(
        prob_table[pair] * st.power_time_avg for pair, st in pair_stats.items()
    )
    total_power_se = math.sqrt(
        sum((prob_table[pair] * st.power_time_se) ** 2 for pair, st in pair_stats.items())
    )
    return RunMetrics(
        scheme=scheme,
        pair_stats=pair_stats,
        u_weighted=u_weighted,
        u_min=u_min,
        u_empirical=u_emp,
        u_empirical_se=u_emp_se,
        total_power=float(total_power),
        total_power_se=float(total_power_se),
        p0=spec.p0,
        epochs=spec.epochs,
        seed=spec.seed,
        balance_consistent=u_weighted <= u_min * 1.01 + 1e-300,
    )


def run_proposed(
    spec: StudySpec,
    policies: dict[Pair, CalibratedPolicy],
    prob_table: dict[Pair, float],
    topology: Topology | None = None,
) -> RunMetrics:
    """Simulate the calibrated scheme over fresh epochs.

    Segments draw their fading from per-(epoch, segment) streams, so one
    segment's metrics are bit-identical under any change to the other
    segments' streams.
    """
    topology = topology or spec.topology()
    cutoff = spec.solver.master.pair_prob_cutoff

    def run_segment(e: int, seg: Segment) -> EpisodeBatch:
        pair = (seg.head, seg.end)
        policy = policies.get(pair)
        if policy is None:
            raise CoverageError(
                f"segment {pair} observed at epoch {e} has no calibrated policy; "
                f"pairs at or below pair_prob_cutoff {cutoff:g} are not calibrated"
            )
        rng = stream(spec.seed, "epoch", e, "segment", seg.head, seg.end)
        cube = draw_episode_cube(policy.problem, rng, spec.episodes_per_segment)
        return _run_episode_batch(policy.problem, policy.lam, policy.table, cube)

    return _run_segments("proposed", spec, topology, prob_table, run_segment)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def _no_adjacent_pair_probability(p: float, nodes: int) -> float:
    """Probability that no two consecutive nodes are both available (iid)."""
    # Chain recursion over (previous bit) states.
    prob_prev1, prob_prev0 = p, 1.0 - p
    for _ in range(nodes - 1):
        prob_prev1, prob_prev0 = prob_prev0 * p, (prob_prev1 + prob_prev0) * (1.0 - p)
    return prob_prev1 + prob_prev0


def transmit_mass(
    kind: str,
    spec: StudySpec,
    prob_table: dict[Pair, float],
    topology: Topology,
) -> float:
    """Probability weight multiplying the constant power in the scheme's
    expected instantaneous radiated power."""
    last = topology.last_index
    if kind == "baseline1":
        return prob_table.get((0, last), 0.0)
    if kind in ("baseline3", "baseline4"):
        return float(sum(prob_table.values()))
    if kind == "baseline2":
        if spec.activity.mode == IID_MODE:
            return 1.0 - _no_adjacent_pair_probability(spec.activity.p_avail, last + 1)
        rng = stream(spec.seed, "baseline2-duty")
        hits = 0
        samples = max(spec.prob_samples // 10, 1000)
        for _ in range(samples):
            bits = sample_pu_activity(spec.activity, topology, rng).bits
            if np.any(bits[:-1] & bits[1:]):
                hits += 1
        return hits / samples
    raise ValueError(f"unknown baseline kind {kind!r}")


def _link_gain(
    spec: StudySpec, topology: Topology, epoch_key: tuple, s: int, t: int
) -> float:
    gen = stream(spec.seed, *epoch_key, "link", s, t)
    return float(gen.exponential(1.0) * topology.pathloss[s, t])


def run_baseline(
    kind: str,
    spec: StudySpec,
    prob_table: dict[Pair, float],
    topology: Topology | None = None,
) -> RunMetrics:
    """Simulate one reference scheme at a power-fair constant transmit power."""
    if kind not in SCHEMES or kind == "proposed":
        raise ValueError(f"unknown baseline kind {kind!r}")
    topology = topology or spec.topology()
    mass = transmit_mass(kind, spec, prob_table, topology)
    if mass <= 0.0:
        return RunMetrics(
            scheme=kind,
            pair_stats={},
            u_weighted=0.0,
            u_min=0.0,
            u_empirical=0.0,
            u_empirical_se=0.0,
            total_power=0.0,
            total_power_se=0.0,
            p0=spec.p0,
            epochs=spec.epochs,
            seed=spec.seed,
            balance_consistent=None,
        )
    p_c = spec.p0 / mass  # the expected radiated power mass * p_c meets the budget
    if kind == "baseline2":
        return _run_store_and_forward(spec, topology, p_c, mass)
    return _run_segmentwise_baseline(kind, spec, topology, prob_table, p_c)


def _run_segmentwise_baseline(
    kind: str,
    spec: StudySpec,
    topology: Topology,
    prob_table: dict[Pair, float],
    p_c: float,
) -> RunMetrics:
    last = topology.last_index

    def run_segment(e: int, seg: Segment) -> EpisodeBatch | None:
        if kind == "baseline1" and (seg.head, seg.end) != (0, last):
            return None
        if kind == "baseline4":  # strict hop-by-hop inside the segment
            hops = [(m, m + 1) for m in range(seg.head, seg.end)]
        else:  # baselines 1 and 3: the head transmits straight to the end
            hops = [(seg.head, seg.end)]
        hop_times = np.zeros((1, seg.length))
        t_total = 0.0
        for src, dst in hops:
            g = _link_gain(spec, topology, ("epoch", e), src, dst)
            dt = 1.0 / np.log1p(g * p_c)
            hop_times[0, dst - seg.head - 1] = dt
            t_total += dt
        t_sum = np.array([t_total])
        return EpisodeBatch(
            t_sum, p_c * t_sum, np.array([len(hops)]), np.array([seg.length]), 1, hop_times
        )

    return _run_segments(kind, spec, topology, prob_table, run_segment)


def _run_store_and_forward(
    spec: StudySpec, topology: Topology, p_c: float, mass: float
) -> RunMetrics:
    last = topology.last_index
    buffers = np.zeros(last, dtype=bool)  # packet held at nodes 0..M-1
    epoch_rates: list[float] = []
    warm_and_live = [("warmup", k) for k in range(spec.baseline_warmup)] + [
        ("epoch", e) for e in range(spec.epochs)
    ]
    for tag, e in warm_and_live:
        if tag == "warmup":
            act_key = ("activity", "warmup", e)
            epoch_key = ("epoch", "warmup", e)
        else:
            act_key = ("activity", e)
            epoch_key = ("epoch", e)
        bits = sample_pu_activity(spec.activity, topology, stream(spec.seed, *act_key)).bits
        buffers[0] = True  # the source always has traffic
        delivered = 0
        airtime = 0.0
        for m in range(last - 1, -1, -1):
            if not buffers[m] or not (bits[m] and bits[m + 1]):
                continue
            if m + 1 < last and buffers[m + 1]:
                continue  # downstream buffer still occupied
            g = _link_gain(spec, topology, epoch_key, m, m + 1)
            airtime += 1.0 / np.log1p(g * p_c)
            buffers[m] = False
            if m + 1 == last:
                delivered += 1
            else:
                buffers[m + 1] = True
        if tag == "epoch":
            epoch_rates.append(delivered / airtime if delivered else 0.0)
    rates = np.asarray(epoch_rates)
    u = float(rates.mean())
    u_se = float(rates.std(ddof=1) / np.sqrt(rates.size)) if rates.size > 1 else 0.0
    return RunMetrics(
        scheme="baseline2",
        pair_stats={},
        u_weighted=u,
        u_min=u,
        u_empirical=u,
        u_empirical_se=u_se,
        total_power=mass * p_c,
        total_power_se=0.0,
        p0=spec.p0,
        epochs=spec.epochs,
        seed=spec.seed,
        balance_consistent=None,
    )


# ---------------------------------------------------------------------------
# Full study points and sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyResult:
    spec: StudySpec
    prob_table: dict[Pair, float]
    master: MasterSolution
    metrics: dict[str, RunMetrics]


def study_rate_model(spec: StudySpec, topology: Topology, threads: int = 1) -> RateModel:
    """The pair calibrations of ``spec.solver`` on ``topology``."""
    solver = spec.solver
    return RateModel(
        topology,
        root_seed=spec.seed,
        mc_samples=solver.mc_samples,
        episodes=solver.episodes,
        power_tolerance=solver.power_tolerance,
        p_max_factor=solver.p_max_factor,
        p_floor_factor=solver.p_floor_factor,
        threads=threads,
    )


def solve_study_master(
    spec: StudySpec, topology: Topology, prob_table: dict[Pair, float]
) -> MasterSolution:
    return solve_master(
        study_rate_model(spec, topology), prob_table, spec.p0, topology.last_index,
        spec.solver.master,
    )


def run_point(spec: StudySpec, schemes: Sequence[str]) -> StudyResult:
    """Calibrate and simulate every requested scheme at one study point."""
    for s in schemes:
        if s not in SCHEMES:
            raise ValueError(f"unknown scheme {s!r}")
    topology = spec.topology()
    prob_table = spec.pair_probabilities(topology)
    cutoff = spec.solver.master.pair_prob_cutoff
    master = solve_study_master(
        spec, topology, {p: v for p, v in prob_table.items() if v > cutoff}
    )
    metrics: dict[str, RunMetrics] = {}
    for scheme in schemes:
        if scheme == "proposed":
            policies = {p: ev.policy for p, ev in master.evaluations.items()}
            metrics[scheme] = run_proposed(spec, policies, prob_table, topology)
        else:
            metrics[scheme] = run_baseline(scheme, spec, prob_table, topology)
    return StudyResult(spec=spec, prob_table=prob_table, master=master, metrics=metrics)


GRID_KEYS = ("p0_db", "p0", "p_avail", "p_block", "nodes", "alpha")


def apply_grid_point(spec: StudySpec, point: dict[str, float]) -> StudySpec:
    """Override one study dimension per grid key."""
    out = spec
    for key, value in point.items():
        if key == "p0_db":
            out = replace(out, p0=10.0 ** (value / 10.0))
        elif key == "p0":
            out = replace(out, p0=float(value))
        elif key == "p_avail":
            out = replace(out, activity=replace(out.activity, p_avail=float(value)))
        elif key == "p_block":
            out = replace(out, activity=replace(out.activity, p_avail=1.0 - float(value)))
        elif key == "nodes":
            out = replace(out, route=replace(out.route, nodes=int(value), positions=None))
        elif key == "alpha":
            out = replace(out, route=replace(out.route, alpha=float(value)))
        else:
            raise ValueError(f"unknown grid key {key!r}")
    return out


def grid_points(grid: dict[str, Sequence[float]]) -> list[dict[str, float]]:
    """Cartesian product of the grid in deterministic key order."""
    keys = sorted(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


def point_spec(spec: StudySpec, point: dict[str, float]) -> StudySpec:
    """Study spec for one grid point, with a content-derived seed so the
    point is reproducible in isolation and independent of grid order."""
    tag = ",".join(f"{k}={point[k]:.10g}" for k in sorted(point))
    seed = int(stream(spec.seed, "sweep-point", tag).integers(0, 2**63 - 1))
    return replace(apply_grid_point(spec, point), seed=seed)


def metrics_row(
    point: dict[str, float], m: RunMetrics, master: MasterSolution | None
) -> dict:
    """One output row: the grid point's keys, then the scheme's results.
    The master columns stay blank for runs against stored tables."""
    return {
        **{k: point[k] for k in sorted(point)},
        "scheme": m.scheme,
        "u_min": m.u_min,
        "u_weighted": m.u_weighted,
        "u_empirical": m.u_empirical,
        "u_empirical_se": m.u_empirical_se,
        "total_power": m.total_power,
        "p0": m.p0,
        "epochs": m.epochs,
        "seed": m.seed,
        "master_objective": "" if master is None else master.best_objective,
        "master_iterations": "" if master is None else master.iterations,
    }


def sweep(
    spec: StudySpec, grid: dict[str, Sequence[float]], schemes: Sequence[str]
) -> list[dict]:
    """Recalibrate and rerun every scheme at each grid point.

    Each point gets a content-derived seed so rows are reproducible in
    isolation.  Rows come out in deterministic grid order.
    """
    rows: list[dict] = []
    for point in grid_points(grid):
        result = run_point(point_spec(spec, point), schemes)
        for scheme in schemes:
            rows.append(metrics_row(point, result.metrics[scheme], result.master))
    return rows
