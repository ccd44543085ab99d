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

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .seeding import stream

IID_MODE = "iid-bernoulli"
SPATIAL_MODE = "spatial-field"
# Rows per batch of the chunked availability consumers: enough to amortise
# numpy dispatch, few enough to keep peak memory flat.
CHUNK_ROWS = 256
# Least acceptance rate of route placement; below it sampling runs for hours.
MIN_PLACEMENT_ACCEPTANCE = 1e-6
# Largest spatial-field ``d0`` and ``strip_width``: their squares and the
# field's areas stay finite.
MAX_FIELD_LENGTH = 1e100
# Most primaries a spatial field may put in one epoch's window on average
# (``rho_p`` times the window's measure).  Availability is drawn for
# ``CHUNK_ROWS`` epochs at a time, with up to three uniforms per primary and a
# distance per active primary and node, so this keeps one batch within a few
# hundred MB.
MAX_PRIMARIES = 1e4


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
        if not all(map(math.isfinite, pos)):
            raise ValueError("positions must be finite")
        if not all(a < b for a, b in zip(pos, pos[1:])):
            raise ValueError("positions must be strictly increasing along the route")
        if not 0.0 <= alpha < math.inf:  # NaN fails too
            raise ValueError("path-loss exponent must be non-negative and finite")
        n = len(pos)
        x = np.asarray(pos)
        dist = np.abs(x[:, None] - x[None, :])
        gains = np.zeros((n, n))
        off = ~np.eye(n, dtype=bool)
        with np.errstate(over="ignore"):
            gains[off] = dist[off] ** (-float(alpha))
        if not ((gains[off] > 0.0) & (gains[off] < np.inf)).all():
            raise ValueError(f"alpha {alpha:g} takes the path loss |x_i - x_j|**-alpha of a link "
                             f"between {pos[0]:g} and {pos[-1]:g} to 0 or infinity")
        gains.setflags(write=False)
        return cls(positions=pos, alpha=float(alpha), pathloss=gains)

    @property
    def node_count(self) -> int:
        return len(self.positions)

    @property
    def last_index(self) -> int:
        """Index of the destination node (``M``)."""
        return len(self.positions) - 1


def make_linear_route(
    nodes: int, span: float, placement_seed: int, min_gap: float = 0.25
) -> tuple[float, ...]:
    """Endpoints at 0 and ``span`` with ``nodes - 2`` interior relays placed
    uniformly at random, resampling until adjacent spacing is at least
    ``min_gap``.  Deterministic for a fixed seed."""
    if nodes < 2:
        raise ValueError("need at least source and destination")
    if not 0.0 < span < math.inf:  # NaN fails these checks too
        raise ValueError("span must be positive and finite")
    if not (nodes - 1) * min_gap < span:
        raise ValueError("min_gap too large for the requested span")
    acceptance = (1.0 - (nodes - 1) * min_gap / span) ** (nodes - 2)  # of one draw
    if acceptance < MIN_PLACEMENT_ACCEPTANCE:
        raise ValueError(
            f"route too dense to place: {nodes} nodes over span {span:g} with min_gap "
            f"{min_gap:g} (one placement draw in {1.0 / acceptance:.2g} succeeds)"
        )
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
            for key in ("d0", "strip_width"):
                if getattr(self, key) > MAX_FIELD_LENGTH:
                    raise ValueError(f"{key} {getattr(self, key):g} is above its bound, "
                                     f"{MAX_FIELD_LENGTH:g}")
        if self.strip_width < 0.0:
            raise ValueError("strip_width must be non-negative")


def field_window(model: PuActivityModel, positions: Sequence[float]) -> tuple[float, float, float]:
    """``(lo, hi, measure)`` of the spatial field's window: every primary
    that can block a node lies within ``d0`` of the route, so the window is
    the route's extent widened by ``d0`` at both ends (times ``strip_width``
    in the measure, with a strip)."""
    lo, hi = float(positions[0]) - model.d0, float(positions[-1]) + model.d0
    return lo, hi, (hi - lo) * model.strip_width if model.strip_width > 0.0 else hi - lo


def sample_availability(
    model: PuActivityModel, topology: Topology, rngs: Iterable[np.random.Generator]
) -> np.ndarray:
    """Availability bit matrix: one ``uint8`` row of the route's nodes per
    generator in ``rngs`` (a generator may repeat).

    Each row consumes its generator exactly as one vector drawn on its own:
    ``n`` uniforms in iid mode; in spatial mode the Poisson count, then the
    primaries' x, y (with a strip) and activity uniforms as one block, since
    ``uniform(lo, hi)`` is ``lo + (hi - lo) * random()``.  The field geometry
    of all rows is then evaluated in one vectorised pass.
    """
    x = np.asarray(topology.positions)
    n = x.size
    if model.mode == IID_MODE:
        u = np.array([g.random(n) for g in rngs]).reshape(-1, n)
        return (u < model.p_avail).astype(np.uint8)
    lo, hi, measure = field_window(model, x)
    width = model.strip_width
    k = 3 if width > 0.0 else 2  # uniforms per primary: x, (y,) activity
    counts, blocks = [], [np.empty(0)]  # the empty block covers zero rows
    for g in rngs:
        counts.append(g.poisson(model.rho_p * measure))
        blocks.append(g.random(k * counts[-1]))
    counts = np.asarray(counts, dtype=np.intp)
    u = np.concatenate(blocks)
    # Primary j of a row whose c primaries' block starts at u[s] has its x at
    # u[s + j], its y (with a strip) at u[s + c + j], its activity last.
    per_primary = np.repeat(counts, counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    at = (k - 1) * first + np.arange(first.size)
    px = lo + (hi - lo) * u[at]
    active = u[at + (k - 1) * per_primary] < model.p_active
    d2 = (x[None, :] - px[active, None]) ** 2
    if width > 0.0:
        py = -width / 2.0 + (width / 2.0 - -width / 2.0) * u[at + per_primary]
        d2 += py[active, None] ** 2
    row = np.repeat(np.arange(counts.size), counts)[active]
    primary, node = np.nonzero(d2 < model.d0**2)
    blocked = np.zeros((counts.size, n), dtype=bool)
    blocked[row[primary], node] = True
    return (~blocked).astype(np.uint8)


def availability_chunks(
    model: PuActivityModel, topology: Topology, rngs: Iterable[np.random.Generator]
) -> Iterator[np.ndarray]:
    """:func:`sample_availability` over ``rngs``, ``CHUNK_ROWS`` rows at a
    time, so long runs amortise numpy dispatch at a bounded memory cost."""
    rngs = iter(rngs)
    while (bits := sample_availability(model, topology, itertools.islice(rngs, CHUNK_ROWS))).size:
        yield bits


def sample_pu_activity(
    model: PuActivityModel, topology: Topology, rng: np.random.Generator
) -> np.ndarray:
    """Draw one availability bit row for all nodes of the route."""
    return sample_availability(model, topology, [rng])[0]


def segment_runs(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of available nodes in every row of a bit matrix, as
    parallel ``(row, head, end)`` arrays in row order, then route order."""
    padded = np.zeros((bits.shape[0], bits.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = bits
    edges = np.diff(padded, axis=1)
    row, head = np.nonzero(edges == 1)
    end = np.nonzero(edges == -1)[1] - 1
    return row, head, end


def partition_segments(bits: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of consecutive available nodes of one bit row, as
    ``(head, end)`` pairs in route order.

    Segments are disjoint, cover exactly the available nodes, and distinct
    segments may transmit simultaneously (dynamic spatial reuse).
    """
    _, heads, ends = segment_runs(np.asarray(bits)[None, :])
    return list(zip(heads.tolist(), ends.tolist()))


def segment_probabilities(
    model: PuActivityModel, topology: Topology
) -> dict[tuple[int, int], float]:
    """Occurrence probability of every potential segment ``0 <= i <= j <= M``,
    in closed form in both modes.

    Segment ``(i, j)`` means nodes ``i..j`` available and each neighbour
    inside the route blocked.  In spatial mode, nodes ``i..j`` are all
    available with the void probability ``V(i..j) = exp(-rho_p p_active
    |U|)`` of the active field, where ``U`` is the union of the nodes'
    ``d0``-disks clipped to the strip (intervals on the line); inclusion-
    exclusion over the two neighbours then takes at most four such terms.
    """
    last = topology.last_index
    if model.mode == IID_MODE:
        p = model.p_avail
        # Nodes i..j available, and each neighbour inside the route blocked.
        return {
            (i, j): p ** (j - i + 1) * (1.0 - p) ** (int(i >= 1) + int(j <= last - 1))
            for i in range(last + 1)
            for j in range(i, last + 1)
        }
    d0, gaps = model.d0, np.diff(topology.positions)
    if model.strip_width > 0.0:
        # The union's chord at height y is 2h + sum(min(gap, 2h)), h = sqrt(d0^2 - y^2);
        # area(y) = y h + d0^2 asin(y / d0) integrates 2h from 0 to y.
        def area(y):
            return y * np.sqrt(d0**2 - y**2) + d0**2 * np.arcsin(y / d0)

        a = min(model.strip_width / 2.0, d0)
        b = np.minimum(a, np.sqrt(np.maximum(d0**2 - gaps**2 / 4.0, 0.0)))  # where 2h >= gap
        disk, extra = 2.0 * area(a), 2.0 * (gaps * b + area(a) - area(b))
    else:
        disk, extra = 2.0 * d0, np.minimum(gaps, 2.0 * d0)
    cum = np.concatenate(([0.0], np.cumsum(extra)))
    i, j = np.triu_indices(last + 1)
    # void[i + 1, j + 1] = V(i..j); the zero border stands for a neighbour outside the route.
    void = np.zeros((last + 3, last + 3))
    void[i + 1, j + 1] = np.exp(-model.rho_p * model.p_active * (disk + cum[j] - cum[i]))
    prob = void[i + 1, j + 1] - void[i, j + 1] - void[i + 1, j + 2] + void[i, j + 2]
    return dict(zip(zip(i.tolist(), j.tolist()), np.maximum(prob, 0.0).tolist()))
