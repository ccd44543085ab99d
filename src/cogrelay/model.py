"""Physical and stochastic environment of the cognitive relay route.

A route is an ordered line of ``M + 1`` nodes (source, relays, destination).
Large-scale attenuation follows a flat-earth power law, small-scale fading is
Rayleigh (unit-mean exponential power), and spectrum availability per node is
driven either by independent Bernoulli sensing outcomes or by a shared spatial
field of primary users.  An availability vector splits the route into maximal
runs of available nodes ("continuous segments"); segments are the unit of
spatial reuse and each one hosts an independent hop/power subproblem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .seeding import stream

IID_MODE = "iid-bernoulli"
SPATIAL_MODE = "spatial-field"


def path_loss(distance: float, alpha: float) -> float:
    """Flat-earth linear power gain ``d**-alpha`` of a link of length ``d``."""
    if not distance > 0.0:
        raise ValueError(f"distance must be positive, got {distance}")
    if alpha < 0.0:
        raise ValueError(f"path-loss exponent must be non-negative, got {alpha}")
    return float(distance) ** (-float(alpha))


def min_safe_distance(p0: float, p_int: float, alpha: float) -> float:
    """Exclusion radius ``(P0 / P_int)**(1/alpha)`` keeping mean interference
    at primary receivers below ``p_int`` for mean transmit power ``p0``."""
    if not (p0 > 0.0 and p_int > 0.0 and alpha > 0.0):
        raise ValueError("p0, p_int and alpha must all be positive")
    return (p0 / p_int) ** (1.0 / alpha)


@dataclass(frozen=True)
class Topology:
    """Ordered node coordinates on a line and the pairwise gain matrix.

    ``pathloss[i, j]`` is the linear power gain ``|x_i - x_j|**-alpha`` for
    ``i != j``; the diagonal is zero and never used.
    """

    positions: tuple[float, ...]
    alpha: float
    pathloss: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def from_positions(cls, positions: Sequence[float], alpha: float) -> "Topology":
        pos = tuple(float(x) for x in positions)
        if len(pos) < 2:
            raise ValueError("a route needs at least two nodes")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("positions must be strictly increasing along the route")
        if alpha < 0.0:
            raise ValueError("path-loss exponent must be non-negative")
        n = len(pos)
        x = np.asarray(pos)
        dist = np.abs(x[:, None] - x[None, :])
        gains = np.zeros((n, n))
        off = ~np.eye(n, dtype=bool)
        gains[off] = dist[off] ** (-float(alpha))
        gains.setflags(write=False)
        return cls(positions=pos, alpha=float(alpha), pathloss=gains)

    @property
    def node_count(self) -> int:
        return len(self.positions)

    @property
    def last_index(self) -> int:
        """Index of the destination node (``M``)."""
        return len(self.positions) - 1

    def has_monotone_gains(self) -> bool:
        """Whether gains dominate with proximity: ``D[s,t] >= D[s,t']`` and
        ``D[s,t] >= D[s',t]`` for all ``t' >= t > s >= s'``.

        Holds automatically for any ordered line under the power-law model;
        exposed so adversarial gain tables can be screened before relying on
        near-optimality of the calibrated segment policies.
        """
        d = self.pathloss
        n = self.node_count
        for s in range(n - 1):
            row = d[s, s + 1 :]
            if np.any(np.diff(row) > 1e-15):
                return False
        for t in range(1, n):
            col = d[: t, t]
            if np.any(np.diff(col) < -1e-15):
                return False
        return True


def make_linear_route(
    nodes: int, span: float, placement_seed: int, min_gap: float = 0.25
) -> tuple[float, ...]:
    """Endpoints at 0 and ``span`` with ``nodes - 2`` interior relays placed
    uniformly at random, resampling until adjacent spacing is at least
    ``min_gap``.  Deterministic for a fixed seed."""
    if nodes < 2:
        raise ValueError("need at least source and destination")
    if span <= 0.0:
        raise ValueError("span must be positive")
    if (nodes - 1) * min_gap >= span:
        raise ValueError("min_gap too large for the requested span")
    gen = stream(placement_seed, "route-placement")
    while True:
        interior = np.sort(gen.uniform(0.0, span, size=nodes - 2))
        pos = np.concatenate(([0.0], interior, [span]))
        if np.all(np.diff(pos) >= min_gap):
            return tuple(float(x) for x in pos)


@dataclass(frozen=True)
class PuActivityModel:
    """Generative model of the per-node spectrum availability bits.

    ``iid-bernoulli`` draws each node's bit independently with probability
    ``p_avail``.  ``spatial-field`` drops a Poisson field of primary users of
    density ``rho_p`` on the route line (a strip when ``strip_width > 0``),
    marks each active with probability ``p_active``, and declares a node
    available iff no active primary lies within ``d0`` of it — one shared
    field, so bits are spatially correlated.
    """

    mode: str = IID_MODE
    p_avail: float = 1.0
    rho_p: float = 0.0
    p_active: float = 0.0
    d0: float = 1.0
    strip_width: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in (IID_MODE, SPATIAL_MODE):
            raise ValueError(f"unknown activity mode {self.mode!r}")
        if not 0.0 <= self.p_avail <= 1.0:
            raise ValueError("p_avail must lie in [0, 1]")
        if self.mode == SPATIAL_MODE:
            if self.rho_p <= 0.0:
                raise ValueError("spatial mode requires rho_p > 0")
            if not 0.0 <= self.p_active <= 1.0:
                raise ValueError("p_active must lie in [0, 1]")
            if self.d0 <= 0.0:
                raise ValueError("spatial mode requires d0 > 0")
        if self.strip_width < 0.0:
            raise ValueError("strip_width must be non-negative")


@dataclass(frozen=True)
class PuActivityState:
    """Availability bit per node.  The virtual bits beyond both route ends
    are zero by convention and never stored."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("availability must be a non-empty 1-d bit vector")
        if np.any(arr > 1):
            raise ValueError("availability bits must be 0 or 1")
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    def __len__(self) -> int:
        return int(self.bits.size)


@dataclass(frozen=True)
class Segment:
    """Maximal run of available nodes, named by its head and end node index.

    ``head == end`` is a degenerate isolated node that carries no traffic but
    keeps segment bookkeeping total.  ``prob`` is the occurrence probability
    under an activity model when known, else ``None``.
    """

    head: int
    end: int
    prob: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.head <= self.end:
            raise ValueError(f"invalid segment ({self.head}, {self.end})")

    @property
    def length(self) -> int:
        """Number of hops available inside the segment."""
        return self.end - self.head

    @property
    def transmits(self) -> bool:
        return self.end > self.head


def sample_pu_activity(
    model: PuActivityModel, topology: Topology, rng: np.random.Generator
) -> PuActivityState:
    """Draw one availability vector for all nodes of the route."""
    n = topology.node_count
    if model.mode == IID_MODE:
        bits = (rng.random(n) < model.p_avail).astype(np.uint8)
        return PuActivityState(bits)
    x = np.asarray(topology.positions)
    lo, hi = x[0] - model.d0, x[-1] + model.d0
    length = hi - lo
    width = model.strip_width
    measure = length * width if width > 0.0 else length
    count = rng.poisson(model.rho_p * measure)
    px = rng.uniform(lo, hi, size=count)
    py = rng.uniform(-width / 2.0, width / 2.0, size=count) if width > 0.0 else np.zeros(count)
    active = rng.random(count) < model.p_active
    px, py = px[active], py[active]
    if px.size == 0:
        return PuActivityState(np.ones(n, dtype=np.uint8))
    d2 = (x[:, None] - px[None, :]) ** 2 + py[None, :] ** 2
    bits = (d2.min(axis=1) >= model.d0**2).astype(np.uint8)
    return PuActivityState(bits)


def partition_segments(state: PuActivityState) -> list[Segment]:
    """Maximal runs of consecutive available nodes, in route order.

    Segments are disjoint, cover exactly the available nodes, and distinct
    segments may transmit simultaneously (dynamic spatial reuse).
    """
    padded = np.concatenate(([0], state.bits, [0]))
    edges = np.diff(padded.astype(np.int8))
    heads = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return [Segment(int(h), int(e)) for h, e in zip(heads, ends)]


def _iid_segment_probability(i: int, j: int, p: float, last: int) -> float:
    inner = p ** (j - i + 1)
    boundaries = int(i >= 1) + int(j <= last - 1)
    return inner * (1.0 - p) ** boundaries


def segment_probability(
    i: int,
    j: int,
    model: PuActivityModel,
    node_count: int,
    topology: Topology | None = None,
    rng: np.random.Generator | None = None,
    samples: int = 100_000,
) -> float:
    """Probability that nodes ``i..j`` form one continuous segment of a route
    with ``node_count`` nodes.

    Closed form in iid mode; Monte-Carlo in spatial mode (see
    :func:`segment_probabilities_mc` for the standard error).
    """
    last = node_count - 1
    if not 0 <= i <= j <= last:
        raise ValueError(f"segment indices ({i}, {j}) out of range for M={last}")
    if model.mode == IID_MODE:
        return _iid_segment_probability(i, j, model.p_avail, last)
    if topology is None or rng is None:
        raise ValueError("spatial mode needs a topology and a generator")
    probs, _ = segment_probabilities_mc(model, topology, rng, samples)
    return probs.get((i, j), 0.0)


def segment_probabilities(
    model: PuActivityModel,
    topology: Topology,
    rng: np.random.Generator | None = None,
    samples: int = 100_000,
) -> dict[tuple[int, int], float]:
    """Occurrence probability of every potential segment ``0 <= i <= j <= M``."""
    last = topology.last_index
    if model.mode == IID_MODE:
        p = model.p_avail
        return {
            (i, j): _iid_segment_probability(i, j, p, last)
            for i in range(last + 1)
            for j in range(i, last + 1)
        }
    if rng is None:
        raise ValueError("spatial mode needs a generator")
    probs, _ = segment_probabilities_mc(model, topology, rng, samples)
    return probs


def segment_probabilities_mc(
    model: PuActivityModel,
    topology: Topology,
    rng: np.random.Generator,
    samples: int = 100_000,
) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """Monte-Carlo segment frequencies and their binomial standard errors."""
    if samples < 1:
        raise ValueError("samples must be positive")
    counts: dict[tuple[int, int], int] = {}
    for _ in range(samples):
        state = sample_pu_activity(model, topology, rng)
        for seg in partition_segments(state):
            key = (seg.head, seg.end)
            counts[key] = counts.get(key, 0) + 1
    probs = {k: c / samples for k, c in counts.items()}
    errors = {k: float(np.sqrt(p * (1.0 - p) / samples)) for k, p in probs.items()}
    return probs, errors
