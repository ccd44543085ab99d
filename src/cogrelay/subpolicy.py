"""Per-segment hop selection and power control.

One continuous segment hosts a finite-horizon stochastic control problem: a
packet starts at the head node and must reach the end node by forward hops,
each frame choosing the next hop and transmit power from the current node's
local channel state only.  The solver prices transmit energy with a
multiplier, folds it into a per-hop cost, computes an expected cost-to-go
table by backward recursion, and calibrates the multiplier by bisection until
the simulated time-averaged power meets the segment's budget.  The resulting
policy is stationary, decentralized and causal.

All rates are in nats per unit time (natural logarithms throughout); powers
are linear SNR units against unit noise.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .model import Topology

DEFAULT_FOC_ITERATIONS = 64
DEFAULT_P_MAX_FACTOR = 100.0
DEFAULT_P_FLOOR_FACTOR = 1e-6


class CalibrationError(RuntimeError):
    """Raised when no multiplier bracket attains the power budget."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def per_hop_time(gain, power, at_end: bool = False):
    """Time to push one bit across a link: ``1 / ln(1 + gain * power)``.

    A source that already sits at the segment end spends no time (``at_end``).
    """
    if at_end:
        return 0.0
    g = np.asarray(gain, dtype=float)
    p = np.asarray(power, dtype=float)
    if np.any(g <= 0.0) or np.any(p <= 0.0):
        raise ValueError("gain and power must be positive")
    out = 1.0 / np.log1p(g * p)
    return float(out) if out.ndim == 0 else out


def per_hop_cost(gain, power, at_end: bool = False):
    """Energy to push one bit across a link: ``power * per_hop_time``."""
    if at_end:
        return 0.0
    t = per_hop_time(gain, power)
    p = np.asarray(power, dtype=float)
    out = p * t
    return float(out) if out.ndim == 0 else out


def priced_hop_cost(gain, power, lam: float, pbar: float):
    """Per-hop time plus the priced energy overshoot:
    ``(1 + lam * (power - pbar)) / ln(1 + gain * power)``."""
    g = np.asarray(gain, dtype=float)
    p = np.asarray(power, dtype=float)
    if np.any(g <= 0.0) or np.any(p <= 0.0):
        raise ValueError("gain and power must be positive")
    if lam < 0.0:
        raise ValueError("multiplier must be non-negative")
    out = (1.0 + lam * (p - pbar)) / np.log1p(g * p)
    return float(out) if out.ndim == 0 else out


def power_foc(gain, power, pbar: float):
    """Left side of the stationarity condition for the priced hop cost.

    Equals ``1/pbar`` at ``power -> 0`` and decreases monotonically in
    ``power``, which is what makes bisection on the root valid.
    """
    g = np.asarray(gain, dtype=float)
    p = np.asarray(power, dtype=float)
    gp = g * p
    return g / ((1.0 + gp) * np.log1p(gp) + (pbar - p) * g)


def solve_optimal_power(
    gain,
    pbar,
    lam,
    p_max,
    p_floor=None,
    iterations: int = DEFAULT_FOC_ITERATIONS,
):
    """Power minimizing the priced hop cost; broadcasts over all arguments.

    Bisects the first-order condition on ``(0, p_max]``.  When the multiplier
    is at least ``1/pbar`` the root is at or below zero and the configured
    floor is returned (the policy declines to boost); when the multiplier is
    zero or below the condition's value at ``p_max``, the cap is returned.
    """
    if p_floor is None:
        p_floor = DEFAULT_P_FLOOR_FACTOR * np.asarray(pbar, dtype=float)
    g, pb, lm, pm, pf = np.broadcast_arrays(
        np.asarray(gain, dtype=float),
        np.asarray(pbar, dtype=float),
        np.asarray(lam, dtype=float),
        np.asarray(p_max, dtype=float),
        np.asarray(p_floor, dtype=float),
    )
    scalar = g.ndim == 0
    g, pb, lm, pm, pf = (np.atleast_1d(a).copy() for a in (g, pb, lm, pm, pf))
    if np.any(~np.isfinite(g)) or np.any(g <= 0.0):
        raise ValueError("gains must be positive and finite")
    if np.any(~np.isfinite(pb)) or np.any(pb <= 0.0):
        raise ValueError("pbar must be positive and finite")
    if np.any(~np.isfinite(lm)) or np.any(lm < 0.0):
        raise ValueError("multiplier must be non-negative and finite")
    if np.any(~np.isfinite(pm)) or np.any(pm <= 0.0):
        raise ValueError("p_max must be positive and finite")

    out = pf.copy()
    active = lm < 1.0 / pb
    cap = active & (power_foc(g, pm, pb) >= lm)
    out[cap] = pm[cap]
    todo = active & ~cap
    if np.any(todo):
        gi, pbi, lmi = g[todo], pb[todo], lm[todo]
        lo = np.zeros_like(gi)
        hi = pm[todo]
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            high_side = power_foc(gi, mid, pbi) >= lmi
            lo = np.where(high_side, mid, lo)
            hi = np.where(high_side, hi, mid)
        out[todo] = np.maximum(0.5 * (lo + hi), pf[todo])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Gain models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RayleighGains:
    """Rayleigh-faded links over a line topology: unit-mean exponential
    fading power times the path-loss gain."""

    topology: Topology

    enumerable = False

    def draw_block(
        self, rng: np.random.Generator, source: int, end: int, n: int
    ) -> np.ndarray:
        cands = list(range(source + 1, end + 1))
        fading = rng.exponential(1.0, size=(n, len(cands)))
        return fading * self.topology.pathloss[source, cands]

    def fingerprint(self) -> tuple:
        return ("rayleigh", self.topology.positions, self.topology.alpha)


@dataclass(frozen=True)
class DiscreteGains:
    """Per-link discrete gain distributions, for desk-scale exact instances.

    ``links[(s, m)]`` holds ``(values, probs)``; links of a single value act
    as deterministic gains.
    """

    links: dict[tuple[int, int], tuple[tuple[float, ...], tuple[float, ...]]]

    enumerable = True

    def __post_init__(self) -> None:
        for key, (values, probs) in self.links.items():
            if len(values) != len(probs) or not values:
                raise ValueError(f"bad level table for link {key}")
            if any(v <= 0.0 for v in values):
                raise ValueError(f"gains must be positive on link {key}")
            if abs(sum(probs) - 1.0) > 1e-12:
                raise ValueError(f"probabilities on link {key} must sum to 1")

    def draw_block(
        self, rng: np.random.Generator, source: int, end: int, n: int
    ) -> np.ndarray:
        cands = range(source + 1, end + 1)
        cols = []
        for m in cands:
            values, probs = self.links[(source, m)]
            cols.append(rng.choice(np.asarray(values), size=n, p=np.asarray(probs)))
        return np.stack(cols, axis=1)

    def joint_states(self, source: int, end: int) -> Iterator[tuple[float, np.ndarray]]:
        """All joint local-CSI realizations at ``source`` with probabilities."""
        cands = list(range(source + 1, end + 1))
        tables = [self.links[(source, m)] for m in cands]

        def rec(k: int, prob: float, acc: list[float]):
            if k == len(tables):
                yield prob, np.asarray(acc)
                return
            values, probs = tables[k]
            for v, p in zip(values, probs):
                if p == 0.0:
                    continue
                yield from rec(k + 1, prob * p, acc + [v])

        yield from rec(0, 1.0, [])

    def fingerprint(self) -> tuple:
        return ("discrete", tuple(sorted((k, v) for k, v in self.links.items())))


def deterministic_gains(topology: Topology, pairs: Iterable[tuple[int, int]] | None = None) -> DiscreteGains:
    """Single-level gain tables equal to the path loss (no fading)."""
    n = topology.node_count
    if pairs is None:
        pairs = [(s, m) for s in range(n - 1) for m in range(s + 1, n)]
    links = {
        (s, m): ((float(topology.pathloss[s, m]),), (1.0,)) for s, m in pairs
    }
    return DiscreteGains(links)


# ---------------------------------------------------------------------------
# Segment problem and value table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentProblem:
    """One segment's control problem: who may hop where, at what prices.

    ``pbar`` is the average transmit-power budget; ``p_max``/``p_floor`` keep
    the per-frame power well-posed at the multiplier extremes.  ``exact``
    instances (enumerable gains) replace Monte-Carlo expectations with exact
    sums, which is what the brute-force oracles compare against.
    """

    head: int
    end: int
    gains: RayleighGains | DiscreteGains
    pbar: float
    p_max: float
    p_floor: float
    mc_samples: int = 2000
    episodes: int = 2000
    power_levels: tuple[float, ...] | None = None
    exact: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.head < self.end:
            raise ValueError(f"need head < end, got ({self.head}, {self.end})")
        if not self.pbar > 0.0:
            raise ValueError("pbar must be positive")
        if not 0.0 < self.p_floor <= self.p_max:
            raise ValueError("need 0 < p_floor <= p_max")
        if self.mc_samples < 1 or self.episodes < 1:
            raise ValueError("mc_samples and episodes must be at least 1")
        if self.exact and not self.gains.enumerable:
            raise ValueError("exact mode requires enumerable gains")
        if self.power_levels is not None:
            if not self.power_levels or any(p <= 0.0 for p in self.power_levels):
                raise ValueError("power levels must be positive")

    @property
    def length(self) -> int:
        return self.end - self.head

    def problem_hash(self) -> str:
        payload = {
            "head": self.head,
            "end": self.end,
            "pbar": repr(self.pbar),
            "p_max": repr(self.p_max),
            "p_floor": repr(self.p_floor),
            "mc_samples": self.mc_samples,
            "episodes": self.episodes,
            "power_levels": None
            if self.power_levels is None
            else [repr(p) for p in self.power_levels],
            "exact": self.exact,
            "gains": repr(self.gains.fingerprint()),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class ValueTable:
    """Expected cost-to-go per node of one segment; zero at the end node."""

    head: int
    end: int
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.values, dtype=float)
        if arr.shape != (self.end - self.head + 1,):
            raise ValueError("value table shape does not match the segment")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def cost_to_go(self, node: int) -> float:
        if not self.head <= node <= self.end:
            raise ValueError(f"node {node} outside segment")
        return float(self.values[node - self.head])

    @property
    def entries(self) -> int:
        return int(self.values.size)


def _best_actions(
    problem: SegmentProblem, lam: float, gains: np.ndarray, tail: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row best (cost+tail, next-hop index, power) over candidate links.

    ``gains`` is ``(n, c)`` for the current node's ``c`` candidates, ``tail``
    the candidates' cost-to-go.  Ties pick the nearest hop.
    """
    if problem.power_levels is None:
        powers = solve_optimal_power(
            gains, problem.pbar, lam, problem.p_max, problem.p_floor
        )
        costs = priced_hop_cost(gains, powers, lam, problem.pbar)
    else:
        levels = np.asarray(problem.power_levels)
        all_costs = priced_hop_cost(gains[..., None], levels, lam, problem.pbar)
        k = np.argmin(all_costs, axis=-1)
        costs = np.take_along_axis(all_costs, k[..., None], axis=-1)[..., 0]
        powers = levels[k]
    total = costs + tail
    pick = np.argmin(total, axis=-1)
    rows = np.arange(gains.shape[0])
    return total[rows, pick], pick, powers[rows, pick]


def offline_recursion(
    problem: SegmentProblem,
    lam: float,
    rng: np.random.Generator | None = None,
    streams: dict[int, np.ndarray] | None = None,
) -> ValueTable:
    """Backward recursion for the expected cost-to-go under multiplier ``lam``.

    The expectation over local CSI is an exact sum for exact instances and a
    Monte-Carlo average otherwise; pass ``streams`` (node -> gain block) to
    reuse one frozen sample set across multiplier iterates.
    """
    size = problem.length + 1
    values = np.zeros(size)
    for s in range(problem.end - 1, problem.head - 1, -1):
        tail = values[s - problem.head + 1 :]
        if problem.exact:
            acc = 0.0
            for prob, gains in problem.gains.joint_states(s, problem.end):
                best, _, _ = _best_actions(problem, lam, gains[None, :], tail)
                acc += prob * float(best[0])
            values[s - problem.head] = acc
        else:
            if streams is not None:
                gains = streams[s]
            else:
                if rng is None:
                    raise ValueError("Monte-Carlo recursion needs a generator or streams")
                gains = problem.gains.draw_block(rng, s, problem.end, problem.mc_samples)
            best, _, _ = _best_actions(problem, lam, gains, tail)
            values[s - problem.head] = float(np.mean(best))
    return ValueTable(problem.head, problem.end, values)


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentMetrics:
    """Throughput and power of a segment policy, with sampling errors.

    ``rate`` is the episode-average of inverse delivery times;
    ``power_time_avg`` is total energy over total airtime (the calibration
    target).  ``max_step_evals`` and ``max_episode_evals`` are the largest
    candidate counts of one hop decision and of one delivery.
    """

    rate: float
    rate_se: float
    power_time_avg: float
    power_time_se: float
    episodes: int
    frames: int
    candidate_evals: int
    max_step_evals: int
    max_episode_evals: int
    exact: bool = False


@dataclass(frozen=True)
class CalibrationReport:
    achieved_power: float
    iterations: int
    converged: bool
    budget_slack: bool


@dataclass(frozen=True)
class CalibratedPolicy:
    """A segment policy frozen after multiplier calibration.

    Immutable and shareable; ``metrics`` were measured on the calibration's
    own frozen sample streams.  ``shadow_price`` is the marginal end value of
    budget, the quantity the long-timescale allocator ascends along.
    """

    problem: SegmentProblem
    lam: float
    table: ValueTable
    report: CalibrationReport
    metrics: SegmentMetrics

    @property
    def shadow_price(self) -> float:
        return self.lam * self.metrics.rate


class EpisodeBatch(NamedTuple):
    """Per-episode outcomes of packet deliveries through one segment.

    ``t_sum``, ``e_sum``, ``frames`` and ``evals`` hold each episode's
    delivery time, energy, hop count and candidate evaluations;
    ``max_step`` is the largest candidate count of one hop decision.
    ``hop_times[e, k]`` is the airtime of the hop into node ``head + 1 + k``
    in episode ``e`` (zero where no hop lands there).
    """

    t_sum: np.ndarray
    e_sum: np.ndarray
    frames: np.ndarray
    evals: np.ndarray
    max_step: int
    hop_times: np.ndarray


def _run_episode_batch(
    problem: SegmentProblem,
    lam: float,
    table: ValueTable,
    cube: dict[int, np.ndarray],
) -> EpisodeBatch:
    """The episode engine: vectorized deliveries over a pre-drawn CSI cube
    (node -> gains block), each hop the online argmin at the current node.

    Forward hopping visits each node at most once, so indexing CSI by node is
    exact common-random-numbers reuse across multiplier iterates.
    """
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
            tail = table.values[int(s) - problem.head + 1 :]
            _, pick, power = _best_actions(problem, lam, gains, tail)
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


def _metrics_from_batch(batch: EpisodeBatch) -> SegmentMetrics:
    """Rate and ratio-of-means power of a batch, with delta-method errors."""
    t_sum, e_sum = batch.t_sum, batch.e_sum
    n = t_sum.size
    inv = 1.0 / t_sum
    rate = float(np.mean(inv))
    rate_se = float(np.std(inv, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    tbar = float(np.mean(t_sum))
    ebar = float(np.mean(e_sum))
    ratio = ebar / tbar
    if n > 1:
        var_e = np.var(e_sum, ddof=1)
        var_t = np.var(t_sum, ddof=1)
        cov = np.cov(e_sum, t_sum, ddof=1)[0, 1]
        ratio_se = float(
            np.sqrt(max(var_e - 2 * ratio * cov + ratio**2 * var_t, 0.0) / n) / tbar
        )
    else:
        ratio_se = 0.0
    return SegmentMetrics(
        rate=rate,
        rate_se=rate_se,
        power_time_avg=ratio,
        power_time_se=ratio_se,
        episodes=n,
        frames=int(batch.frames.sum()),
        candidate_evals=int(batch.evals.sum()),
        max_step_evals=batch.max_step,
        max_episode_evals=int(batch.evals.max()),
    )


def _exact_policy_metrics(
    problem: SegmentProblem, lam: float, table: ValueTable
) -> SegmentMetrics:
    """Exact policy value by full trajectory enumeration (tiny instances)."""
    sums = {"inv": 0.0, "t": 0.0, "e": 0.0}

    def walk(s: int, prob: float, t_acc: float, e_acc: float) -> None:
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
    return SegmentMetrics(
        rate=sums["inv"],
        rate_se=0.0,
        power_time_avg=sums["e"] / sums["t"],
        power_time_se=0.0,
        episodes=0,
        frames=0,
        candidate_evals=0,
        max_step_evals=0,
        max_episode_evals=0,
        exact=True,
    )


def draw_episode_cube(
    problem: SegmentProblem, rng: np.random.Generator, episodes: int
) -> dict[int, np.ndarray]:
    """Pre-draw per-node candidate gains for a batch of episodes."""
    return {
        s: problem.gains.draw_block(rng, s, problem.end, episodes)
        for s in range(problem.head, problem.end)
    }


def estimate_segment_metrics(
    policy: CalibratedPolicy, episodes: int, rng: np.random.Generator
) -> SegmentMetrics:
    """Fresh Monte-Carlo measurement of a calibrated policy's rate and power."""
    if episodes < 1:
        raise ValueError("episodes must be positive")
    if policy.problem.exact:
        return _exact_policy_metrics(policy.problem, policy.lam, policy.table)
    cube = draw_episode_cube(policy.problem, rng, episodes)
    return _metrics_from_batch(_run_episode_batch(policy.problem, policy.lam, policy.table, cube))


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def _max_power(problem: SegmentProblem) -> float:
    if problem.power_levels is not None:
        return max(problem.power_levels)
    return problem.p_max


def calibrate_lambda(
    problem: SegmentProblem,
    rng: np.random.Generator,
    power_tolerance: float = 1e-2,
    max_iterations: int = 60,
    lam_hint: float | None = None,
) -> CalibratedPolicy:
    """Find the multiplier whose policy meets the average-power budget.

    Exploits monotonicity (achieved power falls as the multiplier rises) to
    replace a fixed-step walk with bracketed bisection, evaluating every
    iterate on one frozen set of fading samples.  Returns the zero-multiplier
    policy when it already fits the budget.  For discrete power grids the
    achieved power is a step function of the multiplier; the best feasible
    policy seen is returned when no iterate lands inside the tolerance band.

    The bracket's top is ``1/pbar``.  There every hop runs at the power floor
    (continuous power) or at the cheapest level (a discrete grid, since
    ``p / ln(1 + g p)`` increases with ``p``), so a policy that overspends at
    ``1/pbar`` overspends at every multiplier and calibration fails at once.
    ``lam_hint`` narrows the bracket but never lifts its top above ``1/pbar``,
    where the priced numerator ``1 + lam (p - pbar)`` can go negative.
    """
    pbar = problem.pbar
    if problem.exact:
        rec_streams = None
        cube = None
    else:
        rec_streams = {
            s: problem.gains.draw_block(rng, s, problem.end, problem.mc_samples)
            for s in range(problem.head, problem.end)
        }
        cube = draw_episode_cube(problem, rng, problem.episodes)

    evaluations = 0
    seen: dict[float, tuple[ValueTable, SegmentMetrics]] = {}

    def evaluate(lam: float) -> tuple[ValueTable, SegmentMetrics]:
        nonlocal evaluations
        if lam in seen:
            return seen[lam]
        evaluations += 1
        table = offline_recursion(problem, lam, streams=rec_streams)
        if problem.exact:
            metrics = _exact_policy_metrics(problem, lam, table)
        else:
            metrics = _metrics_from_batch(_run_episode_batch(problem, lam, table, cube))
        seen[lam] = (table, metrics)
        return table, metrics

    def finish(lam, table, metrics, converged, slack):
        report = CalibrationReport(
            achieved_power=metrics.power_time_avg,
            iterations=evaluations,
            converged=converged,
            budget_slack=slack,
        )
        return CalibratedPolicy(
            problem=problem, lam=lam, table=table, report=report, metrics=metrics
        )

    # With a zero multiplier every link transmits at the largest power, so the
    # achieved time-averaged power equals it; no sampling needed for the
    # budget-slack test.
    if _max_power(problem) <= pbar * (1.0 + power_tolerance):
        table, metrics = evaluate(0.0)
        return finish(0.0, table, metrics, True, True)

    lo, hi = 0.0, 1.0 / pbar
    if lam_hint is not None and 0.0 < lam_hint < hi:
        # Try a tight bracket around the caller's guess before the full one.
        cand_lo, cand_hi = lam_hint * 0.5, min(lam_hint * 2.0, hi)
        _, m_lo = evaluate(cand_lo)
        if m_lo.power_time_avg > pbar:
            _, m_hi = evaluate(cand_hi)
            if m_hi.power_time_avg <= pbar:
                lo, hi = cand_lo, cand_hi

    table_hi, metrics_hi = evaluate(hi)
    if metrics_hi.power_time_avg > pbar:
        raise CalibrationError(
            "the cheapest policy overspends the power budget",
            diagnostics={
                "head": problem.head,
                "end": problem.end,
                "pbar": pbar,
                "lam": hi,
                "achieved_power": metrics_hi.power_time_avg,
            },
        )

    best_feasible = (hi, table_hi, metrics_hi)
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        table, metrics = evaluate(mid)
        if abs(metrics.power_time_avg - pbar) <= power_tolerance * pbar:
            return finish(mid, table, metrics, True, False)
        if metrics.power_time_avg > pbar:
            lo = mid
        else:
            hi = mid
            if metrics.rate > best_feasible[2].rate:
                best_feasible = (mid, table, metrics)
    lam, table, metrics = best_feasible
    return finish(lam, table, metrics, False, False)


# ---------------------------------------------------------------------------
# Policy artifacts
# ---------------------------------------------------------------------------

ARTIFACT_VERSION = 1


def policy_to_payload(policy: CalibratedPolicy, seed_path: str = "") -> dict:
    """JSON-serializable offline table for one segment pair.

    Contains everything the online phase needs (multiplier and cost-to-go
    values) plus the problem hash and seed lineage for staleness checks.
    """
    return {
        "format_version": ARTIFACT_VERSION,
        "head": policy.problem.head,
        "end": policy.problem.end,
        "lambda": policy.lam,
        "values": [float(v) for v in policy.table.values],
        "pbar": policy.problem.pbar,
        "p_max": policy.problem.p_max,
        "p_floor": policy.problem.p_floor,
        "achieved_power": policy.report.achieved_power,
        "iterations": policy.report.iterations,
        "converged": policy.report.converged,
        "budget_slack": policy.report.budget_slack,
        "rate": policy.metrics.rate,
        "rate_se": policy.metrics.rate_se,
        "shadow_price": policy.shadow_price,
        "problem_hash": policy.problem.problem_hash(),
        "seed_path": seed_path,
    }


def policy_from_payload(payload: dict, problem: SegmentProblem) -> CalibratedPolicy:
    """Rebuild a calibrated policy from its artifact.

    The payload's problem hash must match the reconstructed problem; a
    mismatch means the artifact is stale for this configuration.
    """
    if payload.get("format_version") != ARTIFACT_VERSION:
        raise ValueError(f"unsupported artifact version {payload.get('format_version')}")
    if payload["problem_hash"] != problem.problem_hash():
        raise ValueError(
            f"artifact for pair ({payload['head']}, {payload['end']}) does not match "
            "the current configuration"
        )
    table = ValueTable(problem.head, problem.end, np.asarray(payload["values"]))
    report = CalibrationReport(
        achieved_power=payload["achieved_power"],
        iterations=payload["iterations"],
        converged=payload["converged"],
        budget_slack=payload["budget_slack"],
    )
    metrics = SegmentMetrics(
        rate=payload["rate"],
        rate_se=payload["rate_se"],
        power_time_avg=payload["achieved_power"],
        power_time_se=0.0,
        episodes=0,
        frames=0,
        candidate_evals=0,
        max_step_evals=0,
        max_episode_evals=0,
    )
    return CalibratedPolicy(
        problem=problem,
        lam=float(payload["lambda"]),
        table=table,
        report=report,
        metrics=metrics,
    )
