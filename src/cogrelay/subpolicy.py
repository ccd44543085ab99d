"""Per-segment hop selection and power control.

One continuous segment hosts a finite-horizon stochastic control problem: a
packet starts at the head node and must reach the end node by forward hops,
each frame choosing the next hop and transmit power from the current node's
local channel state only.  The solver prices transmit energy with a
multiplier, folds it into a per-hop cost whose minimizing power has a closed
form in the Lambert W function (Corless et al., "On the Lambert W function",
Adv. Comput. Math. 5, 1996), computes an expected cost-to-go table by
backward recursion, and calibrates the multiplier by bisection until
the simulated time-averaged power meets the segment's budget.  The resulting
policy is stationary, decentralized and causal.

All rates are in nats per unit time (natural logarithms throughout); powers
are linear SNR units against unit noise.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .model import Topology

DEFAULT_P_MAX_FACTOR = 100.0
DEFAULT_P_FLOOR_FACTOR = 1e-6
# Gains per power-solve call in the pricing pass.  The solve's per-gain cost
# is lowest near this size: smaller calls pay numpy's fixed cost per call,
# larger ones spill the Lambert W step's temporaries out of cache.
PRICE_CHUNK = 4096


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
    ``power``, so the condition has at most one root.  ``solve_optimal_power``
    evaluates it only at ``p_max``, to decide the cap, and finds the root in
    closed form; elsewhere this direct evaluation checks that root.
    """
    g = np.asarray(gain, dtype=float)
    p = np.asarray(power, dtype=float)
    gp = g * p
    return g / ((1.0 + gp) * np.log1p(gp) + (pbar - p) * g)


def lambert_w0(z, offset=None):
    """Principal branch of the Lambert W function for ``z >= -1/e``.

    An initial guess (the branch-point series below zero, Winitzki's
    logarithmic form above) followed by four Halley steps, as in Corless et
    al., "On the Lambert W function", Adv. Comput. Math. 5 (1996).  Within
    1e-3 of the branch point in the series variable, Halley's residual
    ``w e^w - z`` cancels and the series is the more accurate; it is
    returned as is.  ``offset``, when given, is ``e z + 1`` computed without
    that cancellation.
    """
    z = np.asarray(z, dtype=float)
    offset = np.e * z + 1.0 if offset is None else np.asarray(offset, dtype=float)
    q = np.sqrt(2.0 * np.clip(offset, 0.0, 1.0))
    L = np.log1p(np.maximum(z, 0.0))
    guess = np.where(
        z < 0.0,
        -1.0 + q * (1.0 + q * (-1.0 / 3.0 + q * 11.0 / 72.0)),
        L * (1.0 - np.log1p(L) / (2.0 + L)),
    )
    w = guess
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(4):
            ew = np.exp(w)
            f = w * ew - z
            w1 = w + 1.0
            w = w - f / (ew * w1 - (w1 + 1.0) * f / (2.0 * w1))
    return np.where(q < 1e-3, guess, w)


def solve_optimal_power(gain, pbar, lam, p_max, p_floor=None):
    """Power minimizing the priced hop cost; broadcasts over all arguments.

    With ``x = gain * power`` the first-order condition reads
    ``(1 + x) ln(1 + x) - x = c``, ``c = gain (1 - lam pbar) / lam``, whose
    root is ``1 + x = exp(1 + W0((c - 1) / e))``.  One Newton step on ``x``
    restores the precision ``expm1`` loses at small ``x``.  When the
    multiplier is at least ``1/pbar`` the root is at or below zero and the
    configured floor is returned (the policy declines to boost); when the
    multiplier is zero or below the condition's value at ``p_max``, the cap
    is returned.
    """
    g = np.asarray(gain, dtype=float)
    pb = np.asarray(pbar, dtype=float)
    lm = np.asarray(lam, dtype=float)
    pm = np.asarray(p_max, dtype=float)
    pf = DEFAULT_P_FLOOR_FACTOR * pb if p_floor is None else np.asarray(p_floor, dtype=float)
    # NaN fails both comparisons, so each check also rejects it.
    if not ((g > 0.0) & (g < np.inf)).all():
        raise ValueError("gains must be positive and finite")
    if not ((pb > 0.0) & (pb < np.inf)).all():
        raise ValueError("pbar must be positive and finite")
    if not ((lm >= 0.0) & (lm < np.inf)).all():
        raise ValueError("multiplier must be non-negative and finite")
    if not ((pm > 0.0) & (pm < np.inf)).all():
        raise ValueError("p_max must be positive and finite")

    shape = np.broadcast_shapes(g.shape, pb.shape, lm.shape, pm.shape, pf.shape)
    active = lm < 1.0 / pb
    cap = np.broadcast_to(active & (power_foc(g, pm, pb) >= lm), shape)
    out = np.where(cap, pm, pf)
    todo = active & ~cap
    if todo.any():

        def sub(a):  # ``a``'s entries at ``todo``; scalars broadcast as they are
            return a if a.ndim == 0 else np.broadcast_to(a, shape)[todo]

        gi, lmi = sub(g), sub(lm)
        c = gi * (1.0 - lmi * sub(pb)) / lmi
        x = np.expm1(1.0 + lambert_w0((c - 1.0) / np.e, c))
        lx = np.log1p(x)
        # x is 0 when c is below about 1e-32, as when 1 - lam * pbar rounds
        # to 0; the floor then applies.
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(lx > 0.0, x - ((1.0 + x) * lx - x - c) / lx, 0.0)
        out[todo] = np.clip(x / gi, sub(pf), sub(pm))
    return float(out) if out.ndim == 0 else out


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
            if not all(0.0 < v < np.inf for v in values):
                raise ValueError(f"gains must be positive and finite on link {key}")
            if not all(p >= 0.0 for p in probs) or not abs(sum(probs) - 1.0) <= 1e-12:
                raise ValueError(f"probabilities on link {key} must be a distribution")

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
    the per-frame power well-posed at the multiplier extremes.  Exactness
    comes from the gains: on enumerable gains every expectation is an exact
    probability-weighted sum over joint CSI states, as the brute-force
    oracles need, and ``mc_samples`` and ``episodes`` go unused.
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

    def __post_init__(self) -> None:
        if not 0 <= self.head < self.end:
            raise ValueError(f"need head < end, got ({self.head}, {self.end})")
        if not self.pbar > 0.0:
            raise ValueError("pbar must be positive")
        if not 0.0 < self.p_floor <= self.p_max:
            raise ValueError("need 0 < p_floor <= p_max")
        if self.mc_samples < 1 or self.episodes < 1:
            raise ValueError("mc_samples and episodes must be at least 1")
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
            "exact": self.gains.enumerable,
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


def _price(
    problem: SegmentProblem, lam: float, gains: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pricing pass: priced hop cost and its minimizing power for every
    entry of a flat gain vector.

    Both depend only on the gain and ``lam``, never on a cost-to-go, so a
    caller can price every frozen gain before it knows any table value.  The
    solver calls ``solve_optimal_power`` and ``priced_hop_cost`` nowhere else.
    The vector is priced in slices of ``PRICE_CHUNK`` gains: every step is
    elementwise, so slicing changes no bit, and the power solve's temporaries
    stay cache-sized.
    """
    cost = np.empty(gains.size)
    power = np.empty(gains.size)
    levels = None if problem.power_levels is None else np.asarray(problem.power_levels)
    for i in range(0, gains.size, PRICE_CHUNK):
        g = gains[i : i + PRICE_CHUNK]
        if levels is None:
            p = solve_optimal_power(g, problem.pbar, lam, problem.p_max, problem.p_floor)
            cost[i : i + g.size] = priced_hop_cost(g, p, lam, problem.pbar)
            power[i : i + g.size] = p
        else:
            all_costs = priced_hop_cost(g[:, None], levels, lam, problem.pbar)
            k = np.argmin(all_costs, axis=1)
            cost[i : i + g.size] = all_costs[np.arange(g.size), k]
            power[i : i + g.size] = levels[k]
    return cost, power


def _pricer(
    problem: SegmentProblem, blocks: list[np.ndarray]
) -> Callable[[float], list[tuple[np.ndarray, np.ndarray]]]:
    """Price a fixed list of gain blocks at any multiplier in one pass.

    The blocks are flattened into one vector once; the returned function
    maps ``lam`` to each block's (cost, power), shaped like the block.
    """
    flat = np.concatenate([b.ravel() for b in blocks])
    bounds = np.cumsum([b.size for b in blocks])[:-1]

    def price(lam: float) -> list[tuple[np.ndarray, np.ndarray]]:
        cost, power = _price(problem, lam, flat)
        return [
            (c.reshape(b.shape), p.reshape(b.shape))
            for b, c, p in zip(blocks, np.split(cost, bounds), np.split(power, bounds))
        ]

    return price


def _decide(
    costs: np.ndarray, powers: np.ndarray, tail: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row best (cost+tail, next-hop index, power) over candidate links.

    ``costs`` and ``powers`` are ``(n, c)``, priced for the current node's
    ``c`` candidates; ``tail`` is the candidates' cost-to-go.  Ties pick the
    nearest hop.
    """
    total = costs + tail
    pick = np.argmin(total, axis=-1)
    rows = np.arange(total.shape[0])
    return total[rows, pick], pick, powers[rows, pick]


def _best_actions(
    problem: SegmentProblem, lam: float, gains: np.ndarray, tail: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_decide`` on an ``(n, c)`` gain block priced at ``lam``."""
    ((costs, powers),) = _pricer(problem, [gains])(lam)
    return _decide(costs, powers, tail)


def _mean(x: np.ndarray, weights: np.ndarray | None) -> float:
    """Sample mean of ``x``, or its expectation under row probabilities."""
    return float(np.mean(x) if weights is None else weights @ x)


def _expectation_block(
    problem: SegmentProblem, s: int, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Node ``s``'s local CSI rows and their weights for an expectation.

    On enumerable gains: every joint state of positive probability, weighted
    by it (``rng`` unused).  Otherwise ``mc_samples`` draws, weights None.
    """
    if problem.gains.enumerable:
        probs, states = zip(*problem.gains.joint_states(s, problem.end))
        return np.stack(states), np.asarray(probs)
    if rng is None:
        raise ValueError("Monte-Carlo recursion needs a generator or streams")
    return problem.gains.draw_block(rng, s, problem.end, problem.mc_samples), None


def offline_recursion(
    problem: SegmentProblem,
    lam: float,
    rng: np.random.Generator | None = None,
    priced: dict[int, tuple[np.ndarray, np.ndarray | None]] | None = None,
) -> ValueTable:
    """Backward recursion for the expected cost-to-go under multiplier ``lam``.

    Each node's expectation over local CSI is a mean over one block of CSI
    rows: every joint state weighted by its probability on enumerable gains
    (exact), else a Monte-Carlo sample drawn from ``rng``, node by node from
    the end backwards.  Pass ``priced`` (node -> (its block's priced hop
    costs at ``lam``, weights or None)) to reuse one frozen block set across
    multiplier iterates.
    """
    nodes = range(problem.end - 1, problem.head - 1, -1)
    if priced is None:
        blocks = [_expectation_block(problem, s, rng) for s in nodes]
        costs = _pricer(problem, [gains for gains, _ in blocks])(lam)
        priced = {s: (c, w) for s, (c, _), (_, w) in zip(nodes, costs, blocks)}
    values = np.zeros(problem.length + 1)
    for s in nodes:
        costs, weights = priced[s]
        best = np.min(costs + values[s - problem.head + 1 :], axis=1)
        values[s - problem.head] = _mean(best, weights)
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
    max_step_evals: int
    max_episode_evals: int


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
    priced: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
) -> EpisodeBatch:
    """The episode engine: vectorized deliveries over a pre-drawn CSI cube
    (node -> gains block), each hop the online argmin at the current node.

    Forward hopping visits each node at most once, so indexing CSI by node is
    exact common-random-numbers reuse across multiplier iterates.  The engine
    takes every node's decision for every cube row first, then walks the
    episodes by gathering from those decisions.  ``priced`` (node -> the
    (cost, power) of ``cube[node]`` at ``lam``) spares pricing the cube here.
    """
    nodes = range(problem.head, problem.end)
    if priced is None:
        priced = dict(zip(nodes, _pricer(problem, [cube[s] for s in nodes])(lam)))
    n = next(iter(cube.values())).shape[0]
    # pick[k, e], hop_t[k, e], hop_e[k, e]: node head + k's next-hop index and
    # the hop's airtime and energy in episode e, were the packet there.
    pick = np.empty((problem.length, n), dtype=int)
    hop_t = np.empty((problem.length, n))
    hop_e = np.empty((problem.length, n))
    for k, s in enumerate(nodes):
        costs, powers = priced[s]
        _, pick[k], power = _decide(costs, powers, table.values[k + 1 :])
        t = 1.0 / np.log1p(cube[s][np.arange(n), pick[k]] * power)
        hop_t[k] = t
        hop_e[k] = power * t

    t_sum = np.zeros(n)
    e_sum = np.zeros(n)
    frames = np.zeros(n, dtype=int)
    evals = np.zeros(n, dtype=int)
    hop_times = np.zeros((n, problem.length))
    cur = np.zeros(n, dtype=int)  # current node minus head
    rows = np.arange(n)
    max_step = 0
    while rows.size:
        k = cur[rows]
        hop = pick[k, rows]
        t = hop_t[k, rows]
        t_sum[rows] += t
        e_sum[rows] += hop_e[k, rows]
        hop_times[rows, k + hop] = t
        frames[rows] += 1
        n_cands = problem.length - k
        evals[rows] += n_cands
        max_step = max(max_step, int(n_cands.max()))
        cur[rows] = k + 1 + hop
        rows = rows[cur[rows] < problem.length]
    return EpisodeBatch(t_sum, e_sum, frames, evals, max_step, hop_times)


def _metrics_from_batch(
    batch: EpisodeBatch, weights: np.ndarray | None = None
) -> SegmentMetrics:
    """Rate and ratio-of-means power of a batch, with delta-method errors.

    ``weights`` (the row probabilities of an enumerated cube) make the means
    exact expectations, with zero errors.
    """
    t_sum, e_sum = batch.t_sum, batch.e_sum
    n = t_sum.size
    inv = 1.0 / t_sum
    rate = _mean(inv, weights)
    tbar = _mean(t_sum, weights)
    ebar = _mean(e_sum, weights)
    ratio = ebar / tbar
    rate_se = ratio_se = 0.0
    if n > 1 and weights is None:
        rate_se = float(np.std(inv, ddof=1) / np.sqrt(n))
        var_e = np.var(e_sum, ddof=1)
        var_t = np.var(t_sum, ddof=1)
        cov = np.cov(e_sum, t_sum, ddof=1)[0, 1]
        ratio_se = float(
            np.sqrt(max(var_e - 2 * ratio * cov + ratio**2 * var_t, 0.0) / n) / tbar
        )
    return SegmentMetrics(
        rate=rate,
        rate_se=rate_se,
        power_time_avg=ratio,
        power_time_se=ratio_se,
        episodes=n,
        frames=int(batch.frames.sum()),
        max_step_evals=batch.max_step,
        max_episode_evals=int(batch.evals.max()),
    )


def draw_episode_cube(
    problem: SegmentProblem, rng: np.random.Generator, episodes: int
) -> dict[int, np.ndarray]:
    """Pre-draw per-node candidate gains for a batch of episodes."""
    return {
        s: problem.gains.draw_block(rng, s, problem.end, episodes)
        for s in range(problem.head, problem.end)
    }


def _episode_cube(
    problem: SegmentProblem, rng: np.random.Generator | None, episodes: int
) -> tuple[dict[int, np.ndarray], np.ndarray | None]:
    """A CSI cube for the episode engine and its row weights.

    On enumerable gains: the Cartesian product of every node's joint states,
    each row weighted by the product of their probabilities (``rng`` and
    ``episodes`` unused).  This is exact, because an episode visits each node
    at most once and CSI is independent across nodes.  Otherwise
    ``draw_episode_cube``'s ``episodes`` draws, weights None.
    """
    if not problem.gains.enumerable:
        return draw_episode_cube(problem, rng, episodes), None
    nodes = range(problem.head, problem.end)
    blocks = [_expectation_block(problem, s, None) for s in nodes]
    rows = np.indices([probs.size for _, probs in blocks]).reshape(len(blocks), -1)
    cube = {s: states[r] for s, (states, _), r in zip(nodes, blocks, rows)}
    weights = np.prod([probs[r] for (_, probs), r in zip(blocks, rows)], axis=0)
    return cube, weights


def estimate_segment_metrics(
    policy: CalibratedPolicy, episodes: int, rng: np.random.Generator
) -> SegmentMetrics:
    """Fresh measurement of a calibrated policy's rate and power: Monte Carlo
    over ``episodes`` deliveries drawn from ``rng``, or, on enumerable gains,
    the exact expectation (``episodes`` and ``rng`` are then unused)."""
    if episodes < 1:
        raise ValueError("episodes must be positive")
    cube, weights = _episode_cube(policy.problem, rng, episodes)
    batch = _run_episode_batch(policy.problem, policy.lam, policy.table, cube)
    return _metrics_from_batch(batch, weights)


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
    iterate on one frozen set of fading samples (on enumerable gains, the
    enumerated states and their probabilities).  Returns the zero-multiplier
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
    nodes = range(problem.head, problem.end)
    rec_blocks = [_expectation_block(problem, s, rng) for s in nodes]
    cube, weights = _episode_cube(problem, rng, problem.episodes)
    price = _pricer(problem, [gains for gains, _ in rec_blocks] + [cube[s] for s in nodes])

    evaluations = 0
    seen: dict[float, tuple[ValueTable, SegmentMetrics]] = {}

    def evaluate(lam: float) -> tuple[ValueTable, SegmentMetrics]:
        nonlocal evaluations
        if lam in seen:
            return seen[lam]
        evaluations += 1
        priced = price(lam)
        rec = {s: (c, w) for s, (c, _), (_, w) in zip(nodes, priced, rec_blocks)}
        table = offline_recursion(problem, lam, priced=rec)
        ep = dict(zip(nodes, priced[len(nodes) :]))
        metrics = _metrics_from_batch(_run_episode_batch(problem, lam, table, cube, ep), weights)
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
