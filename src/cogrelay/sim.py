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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .master import ALLOCATION_FLOOR_FRAC, SolverOptions, section_rates
from .model import (
    IID_MODE,
    MAX_PRIMARIES,
    SPATIAL_MODE,
    PuActivityModel,
    Topology,
    availability_chunks,
    field_window,
    make_linear_route,
    segment_probabilities,
    segment_runs,
)
from .seeding import stream, streams
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
    topology: Topology = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.positions is None and self.nodes is None:
            raise ValueError("route needs positions or a node count")
        if self.placement_seed < 0:
            raise ValueError(f"placement_seed must be non-negative, not {self.placement_seed}")
        if self.min_gap < 0.0:
            raise ValueError(f"min_gap must be non-negative, not {self.min_gap:g}")
        pos = self.positions
        if pos is None:
            pos = make_linear_route(self.nodes, self.span, self.placement_seed, self.min_gap)
        # Built once, here: an unbuildable route fails on construction, not at first use.
        object.__setattr__(self, "topology", Topology.from_positions(pos, self.alpha))


# Smallest SNR of a hop at the floor power before fading: the floor factor of
# the smallest pair budget, ``ALLOCATION_FLOOR_FRAC * p0``, over the longest
# link.  Below it a faded hop's airtime, or its square, can overflow.
MIN_FLOOR_SNR = 1e-100


@dataclass(frozen=True)
class StudySpec:
    """One experiment point: environment, budget, sampling effort, seeds.

    The spec is the one source of the point's route (``topology()``) and of
    its segment table (``pair_probabilities``, computed once per spec).
    ``prob_samples`` sets only the spatial-field draws of baseline 2's
    duty cycle, ``max(prob_samples // 10, 1000)`` of them; segment
    probabilities are closed form, and iid mode reads it nowhere.
    """

    route: RouteSpec
    activity: PuActivityModel
    p0: float
    epochs: int = 2000
    baseline_warmup: int = 16
    prob_samples: int = 100_000
    seed: int = 0
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if not 0.0 < self.p0 < math.inf:  # NaN fails too
            raise ValueError("the power budget must be positive and finite")
        if self.baseline_warmup < 0:
            raise ValueError(f"baseline_warmup must be non-negative, not {self.baseline_warmup}")
        if self.prob_samples < 1:
            raise ValueError(f"prob_samples must be positive, not {self.prob_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")
        factor = self.solver.p_floor_factor
        snr = factor * ALLOCATION_FLOOR_FRAC * self.p0 * self.topology().pathloss[0, -1]
        if not snr >= MIN_FLOOR_SNR:
            raise ValueError(f"p_floor_factor {factor:g} at the power budget {self.p0:g} gives the "
                             f"floor power an SNR of {snr:.3g} on the longest link, below "
                             f"{MIN_FLOOR_SNR:g}")
        if not self.solver.master.step(self.p0, 0) < math.inf:
            raise ValueError(f"the master's first step, step_a / step_b, overflows at step_b "
                             f"{self.solver.master.step_b:g}")
        act = self.activity
        if act.mode == SPATIAL_MODE:
            primaries = act.rho_p * field_window(act, self.route.topology.positions)[2]
            if not primaries <= MAX_PRIMARIES:
                raise ValueError(
                    f"rho_p {act.rho_p:g} puts {primaries:.3g} primaries in an epoch's field "
                    f"on average, above the bound on rho_p x measure, {MAX_PRIMARIES:g}"
                )

    def topology(self) -> Topology:
        return self.route.topology

    @functools.cached_property
    def pair_probabilities(self) -> dict[Pair, float]:
        """Occurrence probability of every transmitting pair."""
        table = segment_probabilities(self.activity, self.topology())
        return {p: v for p, v in table.items() if p[1] > p[0]}

    def epoch_activity(self) -> EpochActivity:
        """Every epoch's availability, each drawn once from its own stream."""
        return EpochActivity.draw(self, self.epochs)


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
    def draw(cls, spec: StudySpec, count: int, *tag: str) -> EpochActivity:
        """``count`` epochs, epoch ``e`` from stream ``(seed, "activity", *tag, e)``."""
        gens = streams(spec.seed, (("activity", *tag, e) for e in range(count)))
        topology = spec.topology()
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
    paths = (
        ("epoch", *activity.tag, e, "link", s, t)
        for e, s, t in zip(epochs.tolist(), heads.tolist(), ends.tolist())
    )
    gens = streams(activity.seed, paths)
    fading[epochs, heads] = np.fromiter((g.exponential(1.0) for g in gens), float, epochs.size)
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
    run_pair: Callable[[Pair, np.ndarray], EpisodeBatch | None],
    activity: EpochActivity,
) -> RunMetrics:
    """The epoch/segment loop of every scheme with dynamic spatial reuse,
    weighted by the spec's segment table.

    Each epoch has one availability vector; ``run_pair(pair, epochs)``
    delivers the packet of every epoch in which the pair is a transmitting
    segment, in one batch: one row per epoch, in epoch order.  It returns
    ``None`` where the scheme leaves the pair idle.  A pair's episodes pool
    over all epochs into its rate and power; the end-to-end rate of an
    epoch is that of its segment reaching the destination.
    """
    last = spec.topology().last_index
    prob_table = spec.pair_probabilities
    pair_stats: dict[Pair, SegmentMetrics] = {}
    end_rates = np.zeros(spec.epochs)
    for pair, epochs in sorted(activity.pair_epochs.items()):
        batch = run_pair(pair, epochs)
        if batch is None:
            continue
        pair_stats[pair] = _metrics_from_batch(batch)
        if pair[1] == last:  # the one segment per epoch that reaches the destination
            end_rates[epochs] = 1.0 / batch.t_sum

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
        balance_consistent=spec.solver.master.balanced(u_min, u_weighted),
    )


def run_proposed(
    spec: StudySpec,
    policies: dict[Pair, CalibratedPolicy],
    activity: EpochActivity,
) -> RunMetrics:
    """Simulate the calibrated scheme over the run's epochs, on the spec's
    route and segment table.

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

    def run_pair(pair: Pair, epochs: np.ndarray) -> EpisodeBatch:
        policy = policies[pair]
        cube = {s: np.empty((epochs.size, pair[1] - s)) for s in range(*pair)}
        rngs = streams(spec.seed, (("epoch", e, "segment", *pair) for e in epochs.tolist()))
        for row, rng in enumerate(rngs):
            for s, block in draw_episode_cube(policy.problem, rng, 1).items():
                cube[s][row] = block[0]
        return _run_episode_batch(policy.problem, policy.lam, policy.table, cube)

    return _run_segments("proposed", spec, run_pair, activity)


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


def transmit_mass(kind: str, spec: StudySpec) -> float:
    """Probability weight multiplying the constant power in the scheme's
    expected instantaneous radiated power."""
    topology = spec.topology()
    last = topology.last_index
    if kind == "baseline1":
        return spec.pair_probabilities.get((0, last), 0.0)
    if kind in ("baseline3", "baseline4"):
        return float(sum(spec.pair_probabilities.values()))
    if kind == "baseline2":
        if spec.activity.mode == IID_MODE:
            return 1.0 - _no_adjacent_pair_probability(spec.activity.p_avail, last + 1)
        rng = stream(spec.seed, "baseline2-duty")
        samples = max(spec.prob_samples // 10, 1000)
        chunks = availability_chunks(spec.activity, topology, itertools.repeat(rng, samples))
        hits = sum(int((bits[:, :-1] & bits[:, 1:]).any(axis=1).sum()) for bits in chunks)
        return hits / samples
    raise ValueError(f"unknown baseline kind {kind!r}")


def run_baseline(kind: str, spec: StudySpec, activity: EpochActivity) -> RunMetrics:
    """Simulate one reference scheme at a power-fair constant transmit power."""
    mass = transmit_mass(kind, spec)
    if mass <= 0.0:
        return RunMetrics(kind, spec.p0, spec.epochs, spec.seed)
    p_c = spec.p0 / mass  # the expected radiated power mass * p_c meets the budget
    if kind == "baseline2":
        return _run_store_and_forward(spec, p_c, mass, activity)
    return _run_segmentwise_baseline(kind, spec, p_c, activity)


def _run_segmentwise_baseline(
    kind: str, spec: StudySpec, p_c: float, activity: EpochActivity
) -> RunMetrics:
    topology = spec.topology()
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
        t_sum = np.zeros(n)
        for src, dst in hops:  # summed hop by hop, as one delivery accrues its time
            links = activity.adjacent if dst == src + 1 else activity.direct
            t_sum += 1.0 / np.log1p(links[epochs, src] * topology.pathloss[src, dst] * p_c)
        return EpisodeBatch(
            t_sum, p_c * t_sum, np.full(n, len(hops)), np.full(n, end - head), 1, None
        )

    return _run_segments(kind, spec, run_pair, activity)


def _run_store_and_forward(
    spec: StudySpec, p_c: float, mass: float, activity: EpochActivity
) -> RunMetrics:
    topology = spec.topology()
    last = topology.last_index
    buffers = np.zeros(last, dtype=bool)  # packet held at nodes 0..M-1
    warmup = EpochActivity.draw(spec, spec.baseline_warmup, "warmup")
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
