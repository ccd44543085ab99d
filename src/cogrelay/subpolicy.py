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
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .model import Topology

DEFAULT_P_MAX_FACTOR = 100.0
DEFAULT_P_FLOOR_FACTOR = 1e-6
# Gains per power-solve call in the pricing pass.  The solve's per-gain cost
# is lowest near this size: smaller calls pay numpy's fixed cost per call,
# larger ones spill the Lambert W step's temporaries out of cache.
PRICE_CHUNK = 4096
# Most bisection steps of one multiplier calibration.
MAX_BISECTIONS = 60


class CalibrationError(RuntimeError):
    """Raised when no multiplier bracket attains the power budget."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _priced_cost(g: np.ndarray, p: np.ndarray, lam: float, pbar: float) -> np.ndarray:
    """``(1 + lam (p - pbar)) / ln(1 + g p)`` on arrays already checked."""
    return (1.0 + lam * (p - pbar)) / np.log1p(g * p)


def priced_hop_cost(gain, power, lam: float, pbar: float):
    """Per-hop time plus the priced energy overshoot:
    ``(1 + lam * (power - pbar)) / ln(1 + gain * power)``.  At ``lam = 0``
    it is the plain time to push one bit across the link."""
    g = np.asarray(gain, dtype=float)
    p = np.asarray(power, dtype=float)
    # NaN fails every comparison, so each check also rejects it.
    if not ((g > 0.0) & (g < np.inf)).all():
        raise ValueError("gains must be positive and finite")
    if not ((p > 0.0) & (p < np.inf)).all():
        raise ValueError("powers must be positive and finite")
    if not 0.0 <= lam < np.inf:
        raise ValueError("multiplier must be non-negative and finite")
    out = _priced_cost(g, p, lam, pbar)
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


def _winitzki(z: np.ndarray) -> np.ndarray:
    """Winitzki's logarithmic guess for ``W0(z)``, read at ``max(z, 0)``."""
    L = np.log1p(np.maximum(z, 0.0))
    return L * (1.0 - np.log1p(L) / (2.0 + L))


def _halley(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Four Halley steps on ``w e^w = z`` from the guess ``w``, in place:
    ``w -= f / (e^w (w + 1) - (w + 2) f / (2 (w + 1)))`` with
    ``f = w e^w - z``, each operation written into a buffer made once."""
    ew, f, w1, t = (np.empty_like(w) for _ in range(4))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(4):
            np.exp(w, out=ew)
            np.multiply(w, ew, out=f)
            f -= z
            np.add(w, 1.0, out=w1)
            np.add(w1, 1.0, out=t)
            t *= f
            ew *= w1
            w1 *= 2.0
            t /= w1
            ew -= t
            f /= ew
            w -= f
    return w


# Entries with an offset below this may have a series variable
# ``sqrt(2 offset)`` under 1e-3; the margin above 5e-7 covers the rounding
# of the square root.
_SERIES_OFFSET = 5e-7 * (1.0 + 1e-6)


def lambert_w0(z, offset=None):
    """Principal branch of the Lambert W function for ``z >= -1/e``.

    An initial guess (the branch-point series below zero, Winitzki's
    logarithmic form above) followed by four Halley steps, as in Corless et
    al., "On the Lambert W function", Adv. Comput. Math. 5 (1996).  Within
    1e-3 of the branch point in the series variable, Halley's residual
    ``w e^w - z`` cancels and the series is the more accurate; it is
    returned as is.  ``offset``, when given, is ``e z + 1`` computed without
    that cancellation, with ``z``'s shape.

    Winitzki's guess and the Halley steps run over every entry; the series
    variable, the series guess and the choice of the series result are
    computed only on the entries that can take them: ``z < 0``, or an offset
    under ``_SERIES_OFFSET``.  Every step is elementwise, so the bits are
    those of computing both guesses everywhere.
    """
    shape = np.shape(z)
    z = np.asarray(z, dtype=float).ravel()
    offset = np.e * z + 1.0 if offset is None else np.asarray(offset, dtype=float).ravel()
    w = _winitzki(z)  # the guess, then the root
    near = np.flatnonzero((z < 0.0) | (offset < _SERIES_OFFSET))
    if near.size:
        q = np.sqrt(2.0 * np.minimum(np.maximum(offset[near], 0.0), 1.0))  # clip's bits
        series = -1.0 + q * (1.0 + q * (-1.0 / 3.0 + q * 11.0 / 72.0))
        guess = np.where(z[near] < 0.0, series, w[near])
        w[near] = guess
    _halley(z, w)
    if near.size:
        w[near] = np.where(q < 1e-3, guess, w[near])
    return w.reshape(shape)


def _interior_power(g, lam, pbar, p_floor, p_max):
    """The stationary power of gains ``g`` that are neither capped nor at
    a multiplier of ``1/pbar`` or more, clipped to ``[p_floor, p_max]``.

    With ``x = g * power`` the first-order condition reads
    ``(1 + x) ln(1 + x) - x = c``, ``c = g (1 - lam pbar) / lam``, whose
    root is ``1 + x = exp(1 + W0((c - 1) / e))``.  One Newton step on ``x``
    restores the precision ``expm1`` loses at small ``x``.
    """
    c = g * (1.0 - lam * pbar) / lam
    x = np.expm1(1.0 + lambert_w0((c - 1.0) / np.e, c))
    lx = np.log1p(x)
    # x is 0 when c is below about 1e-32, as when 1 - lam * pbar rounds
    # to 0; the floor then applies.
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(lx > 0.0, x - ((1.0 + x) * lx - x - c) / lx, 0.0)
    return np.clip(x / g, p_floor, p_max)


def _solve_vector(g: np.ndarray, pbar: float, lam: float, p_max: float, p_floor: float):
    """``solve_optimal_power`` on a 1-D float64 gain vector with float
    scalars: the same checks and bits, without broadcasting, and without a
    mask when no gain is capped.

    ``power_foc`` at ``p_max`` falls as the gain grows, since its
    denominator over the gain, ``p_max h(g p_max) + pbar - p_max`` with
    ``h(x) = (1 + x) ln(1 + x) / x``, rises.  So one evaluation at the
    smallest gain, in Python floats, decides "no gain caps" when it lies
    below ``lam`` by a relative margin that no rounding of the vector
    evaluation can cross: each entry is off by a few ulps of the
    denominator's two terms, and their cancellation amplifies that by at
    most ``1 + 2 p_max / pbar``; the margin, ``1e-13 (1 + p_max / pbar)``, is
    some forty times the bound on the two evaluations' combined error.
    Otherwise, and when the smallest gain is so small that the denominator
    leaves the normal range, the vector test decides.
    """
    # NaN fails every comparison, so each check also rejects it.
    if g.size and not ((lo := g.min()) > 0.0 and g.max() < np.inf):
        raise ValueError("gains must be positive and finite")
    if not 0.0 < pbar < np.inf:
        raise ValueError("pbar must be positive and finite")
    if not 0.0 <= lam < np.inf:
        raise ValueError("multiplier must be non-negative and finite")
    if not 0.0 < p_max < np.inf:
        raise ValueError("p_max must be positive and finite")
    if not lam < 1.0 / pbar:
        return np.full(g.size, p_floor)
    if g.size and lo * min(pbar, p_max) > 1e-290:
        # ``power_foc(lo, p_max, pbar) * (1 + margin) < lam`` in Python
        # floats, times the denominator: a non-positive one fails the test.
        lo = float(lo)
        x = lo * p_max
        if lo * (1.0 + 1e-13 * (1.0 + p_max / pbar)) < lam * (
            (1.0 + x) * math.log1p(x) + (pbar - p_max) * lo
        ):
            return _interior_power(g, lam, pbar, p_floor, p_max)
    cap = power_foc(g, p_max, pbar) >= lam
    if not cap.any():
        return _interior_power(g, lam, pbar, p_floor, p_max)
    out = np.where(cap, p_max, p_floor)
    todo = ~cap
    if todo.any():
        out[todo] = _interior_power(g[todo], lam, pbar, p_floor, p_max)
    return out


def solve_optimal_power(gain, pbar, lam, p_max, p_floor=None):
    """Power minimizing the priced hop cost; broadcasts over all arguments.

    The root of the first-order condition is closed form (see
    ``_interior_power``).  When the multiplier is at least ``1/pbar`` the
    root is at or below zero and the configured floor is returned (the
    policy declines to boost); when the multiplier is zero or below the
    condition's value at ``p_max``, the cap is returned.

    A 1-D float64 gain vector with float ``pbar``, ``lam``, ``p_max`` and
    ``p_floor`` (the pricing pass's shape) takes a fast path with the same
    checks and the same bits: scalars are checked by Python comparisons,
    the gains by one minimum and one maximum, nothing is broadcast, and no
    mask is built when no gain is capped and ``lam < 1/pbar``.
    """
    if p_floor is None:
        p_floor = DEFAULT_P_FLOOR_FACTOR * np.asarray(pbar, dtype=float)
    if (
        type(gain) is np.ndarray and gain.ndim == 1 and gain.dtype == np.float64
        and all(isinstance(a, float) for a in (pbar, lam, p_max, p_floor))
    ):
        return _solve_vector(gain, pbar, lam, p_max, p_floor)
    g = np.asarray(gain, dtype=float)
    pb = np.asarray(pbar, dtype=float)
    lm = np.asarray(lam, dtype=float)
    pm = np.asarray(p_max, dtype=float)
    pf = np.asarray(p_floor, dtype=float)
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

        out[todo] = _interior_power(sub(g), sub(lm), sub(pb), sub(pf), sub(pm))
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
        """All joint local-CSI realizations at ``source``, with probabilities:
        one nonzero-probability level per link ``source -> m``, ``m`` from
        ``source + 1`` to ``end``, the last link varying fastest.  A state's
        probability multiplies its levels' from the first link on."""
        levels = [
            [(v, p) for v, p in zip(*self.links[(source, m)]) if p != 0.0]
            for m in range(source + 1, end + 1)
        ]
        for state in itertools.product(*levels):
            values, probs = zip(*state) if state else ((), ())
            yield math.prod(probs, start=1.0), np.asarray(values)

    def fingerprint(self) -> tuple:
        return ("discrete", tuple(sorted((k, v) for k, v in self.links.items())))


def deterministic_gains(topology: Topology) -> DiscreteGains:
    """Single-level gain tables equal to the path loss (no fading)."""
    pairs = itertools.combinations(range(topology.node_count), 2)
    return DiscreteGains({(s, m): ((float(topology.pathloss[s, m]),), (1.0,)) for s, m in pairs})


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
    caller can price every frozen gain before it knows any table value, and
    pricing any subset of the gains gives those gains the same bits.
    Calibration's fused pass, the recursion and the episode engine all price
    through here, the engine for just the rows that reach a cube block it was
    not given priced; the oracles and tests also call the public functions
    directly.
    The vector is priced in slices of ``PRICE_CHUNK`` gains: every step is
    elementwise, so slicing changes no bit, and the power solve's temporaries
    stay cache-sized.  Each slice is one ``solve_optimal_power`` call on its
    fast path; the solve has checked the gains and ``lam``, and the problem
    guarantees ``0 < p_floor``, so the cost skips ``priced_hop_cost``'s checks.
    """
    cost = np.empty(gains.size)
    power = np.empty(gains.size)
    levels = None if problem.power_levels is None else np.asarray(problem.power_levels)
    for i in range(0, gains.size, PRICE_CHUNK):
        g = gains[i : i + PRICE_CHUNK]
        if levels is None:
            p = solve_optimal_power(g, problem.pbar, lam, problem.p_max, problem.p_floor)
            cost[i : i + g.size] = _priced_cost(g, p, lam, problem.pbar)
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
    Calibration's fused pass is one such pricer over the recursion blocks
    and the episode cube's blocks that the engine does not price itself.
    """
    flat = np.concatenate([b.ravel() for b in blocks])
    offsets = list(itertools.accumulate((b.size for b in blocks), initial=0))

    def price(lam: float) -> list[tuple[np.ndarray, np.ndarray]]:
        cost, power = _price(problem, lam, flat)
        return [
            (cost[i:j].reshape(b.shape), power[i:j].reshape(b.shape))
            for b, i, j in zip(blocks, offsets, offsets[1:])
        ]

    return price


def _decide(
    costs: np.ndarray, powers: np.ndarray, tail: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (next-hop index, power) minimizing cost plus cost-to-go over
    candidate links.

    ``costs`` and ``powers`` are ``(n, c)``, priced for the current node's
    ``c`` candidates; ``tail`` is the candidates' cost-to-go.  Ties pick the
    nearest hop.
    """
    pick = (costs + tail).argmin(axis=-1)
    return pick, powers[np.arange(pick.size), pick]


def _mean(x: np.ndarray, weights: np.ndarray | None) -> float:
    """Sample mean of ``x``, or its expectation under row probabilities.

    ``np.add.reduce(x) / x.size`` is what ``np.mean`` computes on a float64
    vector, without its dispatch."""
    return float(np.add.reduce(x) / x.size if weights is None else weights @ x)


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
        best = (costs + values[s - problem.head + 1 :]).min(axis=1)
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
    in episode ``e`` (zero where no hop lands there).  Only the engine fills
    it, and only on request (``hop_times=True``); every other batch, the
    baselines' included, holds None, since ``_metrics_from_batch`` does not
    read it.
    """

    t_sum: np.ndarray
    e_sum: np.ndarray
    frames: np.ndarray
    evals: np.ndarray
    max_step: int
    hop_times: np.ndarray | None


def _run_episode_batch(
    problem: SegmentProblem,
    lam: float,
    table: ValueTable,
    cube: dict[int, np.ndarray],
    priced: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
    *,
    hop_times: bool = False,
) -> EpisodeBatch:
    """The episode engine: vectorized deliveries over a pre-drawn CSI cube
    (node -> gains block), each hop the online argmin at the current node.

    Forward hopping visits each node at most once, so indexing CSI by node is
    exact common-random-numbers reuse across multiplier iterates.  The engine
    passes over the nodes in order: at each it decides only the rows whose
    packet is there, adds the hop's airtime and energy, and moves those rows
    on.  ``priced`` (node -> the (cost, power) of ``cube[node]`` at ``lam``)
    spares pricing the cube here; a node it leaves out is priced on the rows
    that reach it, and only those.  Without ``priced`` the whole cube is
    priced in one pass.  Pricing is elementwise, so either way every row
    gets the same bits.  The batch's ``hop_times`` is filled only when
    ``hop_times`` is true, and is None otherwise.
    """
    nodes = range(problem.head, problem.end)
    if priced is None:
        priced = dict(zip(nodes, _pricer(problem, [cube[s] for s in nodes])(lam)))
    n = next(iter(cube.values())).shape[0]
    t_sum = np.zeros(n)
    e_sum = np.zeros(n)
    frames = np.zeros(n, dtype=int)
    evals = np.zeros(n, dtype=int)
    times = np.zeros((n, problem.length)) if hop_times else None
    at = np.zeros(n, dtype=int)  # each episode's current node minus head
    for k, s in enumerate(nodes):
        rows = np.flatnonzero(at == k)
        # ``sub``: where the rows at s sit in ``gains``, ``costs`` and ``powers``.
        if s in priced:
            gains, sub = cube[s], rows
            costs, powers = priced[s]
        else:  # price just the rows that reach s
            gains, sub = cube[s][rows], np.arange(rows.size)
            costs, powers = (a.reshape(gains.shape) for a in _price(problem, lam, gains.ravel()))
        pick, power = _decide(costs[sub], powers[sub], table.values[k + 1 :])
        t = 1.0 / np.log1p(gains[sub, pick] * power)
        t_sum[rows] += t
        e_sum[rows] += power * t
        if hop_times:
            times[rows, k + pick] = t
        frames[rows] += 1
        evals[rows] += problem.length - k
        at[rows] = k + 1 + pick
    # Every episode decides at the head, among all ``length`` candidates.
    return EpisodeBatch(t_sum, e_sum, frames, evals, problem.length, times)


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


class _Iterate(NamedTuple):
    """One multiplier's evaluation in calibration: its table and episode
    batch (without ``hop_times``), and the batch's rate and spend, the two
    means bisection reads."""

    lam: float
    table: ValueTable
    batch: EpisodeBatch
    rate: float
    spend: float


def calibrate_lambda(
    problem: SegmentProblem,
    rng: np.random.Generator,
    power_tolerance: float = 1e-2,
) -> CalibratedPolicy:
    """Find the multiplier whose policy meets the average-power budget.

    Exploits monotonicity (achieved power falls as the multiplier rises) to
    replace a fixed-step walk with bracketed bisection, evaluating every
    iterate on one frozen set of fading samples (on enumerable gains, the
    enumerated states and their probabilities).  Returns the zero-multiplier
    policy when it already fits the budget.  For discrete power grids the
    achieved power is a step function of the multiplier; the best feasible
    policy seen is returned when no iterate lands inside the tolerance band,
    after at most ``MAX_BISECTIONS`` steps or once the bracket has collapsed
    to adjacent floats.  The result depends on the problem and the stream
    alone.

    The bracket's top is ``1/pbar``.  There every hop runs at the power floor
    (continuous power) or at the cheapest level (a discrete grid, since
    ``p / ln(1 + g p)`` increases with ``p``), so a policy that overspends at
    ``1/pbar`` overspends at every multiplier and calibration fails at once.
    No multiplier above it is tried: there the priced numerator
    ``1 + lam (p - pbar)`` can go negative.
    """
    pbar = problem.pbar
    nodes = range(problem.head, problem.end)
    rec_blocks = [_expectation_block(problem, s, rng) for s in nodes]
    cube, weights = _episode_cube(problem, rng, problem.episodes)
    # One pricing pass per evaluation covers the recursion blocks, the
    # head's cube block (every episode starts there) and each later cube
    # block too small to be worth a solve call of its own; the engine prices
    # the rows that reach each larger block.
    fused = [s for s in nodes if s == problem.head or cube[s].size < PRICE_CHUNK // 2]
    price = _pricer(problem, [gains for gains, _ in rec_blocks] + [cube[s] for s in fused])

    evaluations = 0

    def evaluate(lam: float) -> _Iterate:
        nonlocal evaluations
        evaluations += 1
        priced = price(lam)
        rec = {s: (c, w) for s, (c, _), (_, w) in zip(nodes, priced, rec_blocks)}
        table = offline_recursion(problem, lam, priced=rec)
        ep = dict(zip(fused, priced[len(nodes) :]))
        batch = _run_episode_batch(problem, lam, table, cube, ep)
        spend = _mean(batch.e_sum, weights) / _mean(batch.t_sum, weights)
        rate = _mean(1.0 / batch.t_sum, weights)
        return _Iterate(lam, table, batch, rate, spend)

    def finish(it: _Iterate, converged: bool, slack: bool) -> CalibratedPolicy:
        report = CalibrationReport(iterations=evaluations, converged=converged, budget_slack=slack)
        return CalibratedPolicy(problem=problem, lam=it.lam, table=it.table, report=report,
                                metrics=_metrics_from_batch(it.batch, weights))

    # With a zero multiplier every link transmits at the largest power, so the
    # achieved time-averaged power equals it; no sampling needed for the
    # budget-slack test.
    levels = problem.power_levels
    if (problem.p_max if levels is None else max(levels)) <= pbar * (1.0 + power_tolerance):
        return finish(evaluate(0.0), True, True)

    lo, hi = 0.0, 1.0 / pbar
    best = evaluate(hi)  # the best feasible iterate so far
    if best.spend > pbar:
        raise CalibrationError(
            "the cheapest policy overspends the power budget",
            diagnostics={
                "head": problem.head,
                "end": problem.end,
                "pbar": pbar,
                "lam": hi,
                "achieved_power": best.spend,
            },
        )

    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        it = evaluate(mid)
        if abs(it.spend - pbar) <= power_tolerance * pbar:
            return finish(it, True, False)
        if it.spend > pbar:
            lo = mid
        else:
            hi = mid
            if it.rate > best.rate:
                best = it
    return finish(best, False, False)


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
        "achieved_power": policy.metrics.power_time_avg,
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
