"""End-to-end Monte-Carlo experiments with dynamic spatial reuse.

Each sensing epoch draws one availability vector, shared by every scheme of
the run, that splits the route into continuous segments; every transmitting
segment runs independently (segments do not interfere by construction).
A scheme delivers each transmitting pair's packets of all epochs in one
batch, while every occurrence keeps its own fading stream.  Per-pair rates
are aggregated by segment identity and combined with the model's occurrence
probabilities into section rates and the end-to-end throughput, in both the
weighted form over segments reaching the destination and the min-section
form.

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

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .master import SolverOptions, section_rates
from .model import (
    IID_MODE,
    PuActivityModel,
    Topology,
    availability_chunks,
    make_linear_route,
    segment_probabilities,
    segment_runs,
)
from .seeding import stream
from .subpolicy import (
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
        if self.placement_seed < 0:
            raise ValueError(f"placement_seed must be non-negative, not {self.placement_seed}")
        self.build()  # an unbuildable route fails here, not at first use

    def build(self) -> Topology:
        if self.positions is not None:
            return Topology.from_positions(self.positions, self.alpha)
        pos = make_linear_route(self.nodes, self.span, self.placement_seed, self.min_gap)
        return Topology.from_positions(pos, self.alpha)


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
        if self.baseline_warmup < 0:
            raise ValueError(f"baseline_warmup must be non-negative, not {self.baseline_warmup}")
        if self.prob_samples < 1:
            raise ValueError(f"prob_samples must be positive, not {self.prob_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")

    def topology(self) -> Topology:
        return self.route.build()

    def pair_probabilities(self, topology: Topology) -> dict[Pair, float]:
        """Occurrence probability of every transmitting pair."""
        rng = stream(self.seed, "pair-probabilities")
        table = segment_probabilities(
            self.activity, topology, rng=rng, samples=self.prob_samples
        )
        return {p: v for p, v in table.items() if p[1] > p[0]}

    def epoch_activity(self, topology: Topology) -> EpochActivity:
        """Every epoch's availability, each drawn once from its own stream."""
        return EpochActivity.draw(self, topology, self.epochs)


@dataclass(frozen=True)
class EpochActivity:
    """The availability of a run's epochs, shared by all its schemes: the
    ``(epochs, n)`` bit matrix, and its continuous segments as parallel
    ``(epoch, head, end)`` arrays in epoch order, then route order.

    It also holds the baseline link fading of those epochs, each link from
    its own stream ``(seed, "epoch", *tag, e, "link", s, t)``, each kind drawn
    whole on first use.  Store-and-forward's warm-up epochs are tagged
    ``("warmup",)``, the live epochs not at all.
    """

    bits: np.ndarray
    epoch: np.ndarray
    head: np.ndarray
    end: np.ndarray
    seed: int
    tag: tuple[str, ...] = ()

    @classmethod
    def draw(cls, spec: StudySpec, topology: Topology, count: int, *tag: str) -> EpochActivity:
        """``count`` epochs, epoch ``e`` from stream ``(seed, "activity", *tag, e)``."""
        gens = (stream(spec.seed, "activity", *tag, e) for e in range(count))
        empty = np.zeros((0, topology.node_count), dtype=np.uint8)
        bits = np.concatenate([empty, *availability_chunks(spec.activity, topology, gens)])
        return cls(bits, *segment_runs(bits), seed=spec.seed, tag=tag)

    @functools.cached_property
    def pair_epochs(self) -> dict[Pair, np.ndarray]:
        """The epochs in which each transmitting pair occurs, with the pairs
        in order of first occurrence."""
        acc: dict[Pair, list[int]] = {}
        for e, head, end in zip(self.epoch.tolist(), self.head.tolist(), self.end.tolist()):
            if end > head:
                acc.setdefault((head, end), []).append(e)
        return {pair: np.array(epochs) for pair, epochs in acc.items()}

    @functools.cached_property
    def adjacent(self) -> np.ndarray:
        """``adjacent[e, s]``: fading of link ``s -> s + 1`` in epoch ``e``
        wherever both its ends are available, NaN elsewhere."""
        e, s = np.nonzero(self.bits[:, :-1] & self.bits[:, 1:])
        return _link_fading(self, e, s, s + 1)

    @functools.cached_property
    def direct(self) -> np.ndarray:
        """``direct[e, head]``: fading of each segment's head-to-end link if it
        spans two or more hops (else it is ``adjacent``), NaN elsewhere."""
        long = self.end - self.head >= 2
        return _link_fading(self, self.epoch[long], self.head[long], self.end[long])


def _link_fading(activity: EpochActivity, epochs, heads, ends) -> np.ndarray:
    """The fading of link ``s -> t`` at ``[e, s]`` for each ``(e, s, t)``, else NaN."""
    fading = np.full((activity.bits.shape[0], activity.bits.shape[1] - 1), np.nan)
    for e, s, t in zip(epochs.tolist(), heads.tolist(), ends.tolist()):
        gen = stream(activity.seed, "epoch", *activity.tag, e, "link", s, t)
        fading[e, s] = gen.exponential(1.0)
    return fading


@dataclass(frozen=True)
class RunMetrics:
    """Estimated throughput and power of one scheme at one study point; a
    scheme that never transmits keeps the zero defaults."""

    scheme: str
    p0: float
    epochs: int
    seed: int
    pair_stats: dict[Pair, SegmentMetrics] = field(default_factory=dict)
    u_weighted: float = 0.0
    u_min: float = 0.0
    u_empirical: float = 0.0
    u_empirical_se: float = 0.0
    total_power: float = 0.0
    total_power_se: float = 0.0
    balance_consistent: bool | None = None


def _run_segments(
    scheme: str,
    spec: StudySpec,
    topology: Topology,
    prob_table: dict[Pair, float],
    run_pair: Callable[[Pair, np.ndarray], EpisodeBatch | None],
    activity: EpochActivity,
) -> RunMetrics:
    """The epoch/segment loop of every scheme with dynamic spatial reuse.

    Each epoch has one availability vector; ``run_pair(pair, epochs)``
    delivers the packets of every epoch in which the pair is a transmitting
    segment, in one batch: the rows in epoch order, the same number per
    epoch.  It returns ``None`` where the scheme leaves the pair idle.  A
    pair's episodes pool over all epochs into its rate and power; the
    end-to-end rate of an epoch averages the rows of its segment reaching
    the destination.
    """
    last = topology.last_index
    pair_stats: dict[Pair, SegmentMetrics] = {}
    end_rates = np.zeros(spec.epochs)
    for pair, epochs in sorted(activity.pair_epochs.items()):
        batch = run_pair(pair, epochs)
        if batch is None:
            continue
        pair_stats[pair] = _metrics_from_batch(batch)
        if pair[1] == last:  # the one segment per epoch that reaches the destination
            end_rates[epochs] = (1.0 / batch.t_sum).reshape(epochs.size, -1).mean(axis=1)

    u_table = {pair: st.rate for pair, st in pair_stats.items()}
    rates = section_rates(prob_table, u_table, last)
    u_weighted = float(rates[last - 1])
    u_min = float(rates.min())
    u_emp = float(end_rates.mean())
    u_emp_se = (
        float(end_rates.std(ddof=1) / np.sqrt(end_rates.size)) if end_rates.size > 1 else 0.0
    )
    total_power = sum(
        prob_table[pair] * st.power_time_avg for pair, st in pair_stats.items()
    )
    total_power_se = math.sqrt(
        sum((prob_table[pair] * st.power_time_se) ** 2 for pair, st in pair_stats.items())
    )
    return RunMetrics(
        scheme, spec.p0, spec.epochs, spec.seed,
        pair_stats=pair_stats,
        u_weighted=u_weighted,
        u_min=u_min,
        u_empirical=u_emp,
        u_empirical_se=u_emp_se,
        total_power=float(total_power),
        total_power_se=float(total_power_se),
        balance_consistent=u_weighted <= u_min * 1.01 + 1e-300,
    )


def run_proposed(
    spec: StudySpec,
    policies: dict[Pair, CalibratedPolicy],
    prob_table: dict[Pair, float],
    topology: Topology,
    activity: EpochActivity,
) -> RunMetrics:
    """Simulate the calibrated scheme over the run's epochs.

    Segments draw their fading from per-(epoch, segment) streams, so one
    segment's metrics are bit-identical under any change to the other
    segments' streams.  Each pair's occurrences run as one engine batch.
    """
    cutoff = spec.solver.master.pair_prob_cutoff
    for pair, epochs in activity.pair_epochs.items():  # in order of first occurrence
        if pair not in policies:
            raise CoverageError(
                f"segment {pair} observed at epoch {epochs[0]} has no calibrated policy; "
                f"pairs at or below pair_prob_cutoff {cutoff:g} are not calibrated"
            )
    k = spec.episodes_per_segment

    def run_pair(pair: Pair, epochs: np.ndarray) -> EpisodeBatch:
        policy = policies[pair]
        cube = {s: np.empty((epochs.size * k, pair[1] - s)) for s in range(*pair)}
        for row, e in enumerate(epochs.tolist()):
            rng = stream(spec.seed, "epoch", e, "segment", *pair)
            for s, block in draw_episode_cube(policy.problem, rng, k).items():
                cube[s][row * k : row * k + k] = block
        return _run_episode_batch(policy.problem, policy.lam, policy.table, cube)

    return _run_segments("proposed", spec, topology, prob_table, run_pair, activity)


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
        samples = max(spec.prob_samples // 10, 1000)
        chunks = availability_chunks(spec.activity, topology, itertools.repeat(rng, samples))
        hits = sum(int((bits[:, :-1] & bits[:, 1:]).any(axis=1).sum()) for bits in chunks)
        return hits / samples
    raise ValueError(f"unknown baseline kind {kind!r}")


def run_baseline(
    kind: str,
    spec: StudySpec,
    prob_table: dict[Pair, float],
    topology: Topology,
    activity: EpochActivity,
) -> RunMetrics:
    """Simulate one reference scheme at a power-fair constant transmit power."""
    if kind not in SCHEMES or kind == "proposed":
        raise ValueError(f"unknown baseline kind {kind!r}")
    mass = transmit_mass(kind, spec, prob_table, topology)
    if mass <= 0.0:
        return RunMetrics(kind, spec.p0, spec.epochs, spec.seed)
    p_c = spec.p0 / mass  # the expected radiated power mass * p_c meets the budget
    if kind == "baseline2":
        return _run_store_and_forward(spec, topology, p_c, mass, activity)
    return _run_segmentwise_baseline(kind, spec, topology, prob_table, p_c, activity)


def _run_segmentwise_baseline(
    kind: str,
    spec: StudySpec,
    topology: Topology,
    prob_table: dict[Pair, float],
    p_c: float,
    activity: EpochActivity,
) -> RunMetrics:
    last = topology.last_index

    def run_pair(pair: Pair, epochs: np.ndarray) -> EpisodeBatch | None:
        head, end = pair
        if kind == "baseline1" and pair != (0, last):
            return None
        if kind == "baseline4":  # strict hop-by-hop inside the segment
            hops = [(m, m + 1) for m in range(head, end)]
        else:  # baselines 1 and 3: the head transmits straight to the end
            hops = [pair]
        n = epochs.size
        hop_times = np.zeros((n, end - head))
        t_sum = np.zeros(n)
        for src, dst in hops:  # summed hop by hop, as one delivery accrues its time
            links = activity.adjacent if dst == src + 1 else activity.direct
            g = links[epochs, src] * topology.pathloss[src, dst]
            dt = 1.0 / np.log1p(g * p_c)
            hop_times[:, dst - head - 1] = dt
            t_sum += dt
        return EpisodeBatch(
            t_sum, p_c * t_sum, np.full(n, len(hops)), np.full(n, end - head), 1, hop_times
        )

    return _run_segments(kind, spec, topology, prob_table, run_pair, activity)


def _run_store_and_forward(
    spec: StudySpec, topology: Topology, p_c: float, mass: float, activity: EpochActivity
) -> RunMetrics:
    last = topology.last_index
    buffers = np.zeros(last, dtype=bool)  # packet held at nodes 0..M-1
    warmup = EpochActivity.draw(spec, topology, spec.baseline_warmup, "warmup")
    bits = np.concatenate([warmup.bits, activity.bits])
    gains = np.concatenate([warmup.adjacent, activity.adjacent]) * np.diag(topology.pathloss, 1)
    epoch_rates: list[float] = []
    for row, gain in zip(bits.tolist(), gains):
        buffers[0] = True  # the source always has traffic
        delivered = 0
        airtime = 0.0
        for m in range(last - 1, -1, -1):
            if not buffers[m] or not (row[m] and row[m + 1]):
                continue
            if m + 1 < last and buffers[m + 1]:
                continue  # downstream buffer still occupied
            airtime += 1.0 / np.log1p(gain[m] * p_c)
            buffers[m] = False
            if m + 1 == last:
                delivered += 1
            else:
                buffers[m + 1] = True
        epoch_rates.append(delivered / airtime if delivered else 0.0)
    rates = np.asarray(epoch_rates[warmup.bits.shape[0]:])  # the live epochs
    u = float(rates.mean())
    u_se = float(rates.std(ddof=1) / np.sqrt(rates.size)) if rates.size > 1 else 0.0
    return RunMetrics("baseline2", spec.p0, spec.epochs, spec.seed, u_weighted=u, u_min=u,
                      u_empirical=u, u_empirical_se=u_se, total_power=mass * p_c)


# ---------------------------------------------------------------------------
# Sweep grids
# ---------------------------------------------------------------------------


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
