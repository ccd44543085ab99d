"""Independent desk-scale verifiers for the solver's structural claims.

The references here avoid the production code paths: policies are
enumerated as explicit state-to-action tables and evaluated by exhaustive
summation over channel realizations, the value recursion is re-derived by a
memo-free pure-Python recursion, and the max-min/ min-max exchange and the
ordered-sequence inequality are checked by direct enumeration.  Instances are
small enough that all of this is exact arithmetic over the discretized
instance, and a guard refuses anything whose policy space would not be.

Some checks run the solver by design, because the solver is what they
check: ``verify_covariance_property`` measures airtimes with the episode
engine ``_run_episode_batch``, and the battery's dominance and covariance
checks calibrate their policies with ``calibrate_lambda``.  Likewise the
recursion check compares ``offline_recursion`` with the reference
recursion, the power check ``solve_optimal_power`` with the first-order
condition, and the flow-balance check ``master.flow_balance_identity``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import master as master_mod
from .model import Topology, segment_probabilities, PuActivityModel
from .seeding import stream
from .subpolicy import (
    CalibratedPolicy,
    DiscreteGains,
    RayleighGains,
    SegmentProblem,
    _run_episode_batch,
    calibrate_lambda,
    draw_episode_cube,
    offline_recursion,
    power_foc,
    solve_optimal_power,
)

ENUMERATION_GUARD = 10_000_000
# Root seed of the verification battery's streams, unless one is given.
VERIFY_SEED = 20260810


class OracleGuardError(RuntimeError):
    """The requested enumeration exceeds the desk-scale guard rail."""


# ---------------------------------------------------------------------------
# Tiny discretized instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TinyInstance:
    """A fully discretized network small enough for policy enumeration."""

    topology: Topology
    gains: DiscreteGains
    power_levels: tuple[float, ...]
    p_avail: float

    def problem(self, head: int, end: int, pbar: float) -> SegmentProblem:
        return SegmentProblem(
            head=head,
            end=end,
            gains=self.gains,
            pbar=pbar,
            p_max=max(self.power_levels),
            p_floor=min(self.power_levels),
            mc_samples=1,
            episodes=1,
            power_levels=self.power_levels,
        )

    def pair_probabilities(self) -> dict[tuple[int, int], float]:
        activity = PuActivityModel(p_avail=self.p_avail)
        table = segment_probabilities(activity, self.topology)
        return {p: v for p, v in table.items() if p[1] > p[0] and v > 0.0}


def _action_tables(problem: SegmentProblem):
    """Per-node state probabilities, and (next node, hop time, hop energy)
    per (node, state, action), of a segment whose policy space is within
    the enumeration guard; refuses any other."""
    slots = [
        (s, list(problem.gains.joint_states(s, problem.end)),
         [(k, p) for k in range(problem.end - s) for p in problem.power_levels])
        for s in range(problem.head, problem.end)
    ]
    size = 1
    for _, states, actions in slots:
        size *= len(actions) ** len(states)
        if size > ENUMERATION_GUARD:
            raise OracleGuardError(
                f"policy space of size {size} exceeds the {ENUMERATION_GUARD} guard"
            )
    state_probs = {s: [pg for pg, _ in states] for s, states, _ in slots}
    tables: dict[int, list[list[tuple[int, float, float]]]] = {}
    for s, states, actions in slots:
        tables[s] = []
        for _, gains in states:
            times = [(k, p, 1.0 / math.log1p(float(gains[k]) * p)) for k, p in actions]
            tables[s].append([(s + 1 + k, t, p * t) for k, p, t in times])
    return state_probs, tables


def _evaluate_policy_recursive(
    problem: SegmentProblem,
    tables,
    state_probs: dict[int, list[float]],
    choice: Callable[[int, int], int],
) -> tuple[float, float]:
    """Exact (rate, time-averaged power) of one policy table, by recursion
    over complete trajectories."""
    sums = [0.0, 0.0, 0.0]  # E[1/T], E[T], E[energy]

    def walk(s: int, prob: float, t_acc: float, e_acc: float) -> None:
        if s == problem.end:
            sums[0] += prob / t_acc
            sums[1] += prob * t_acc
            sums[2] += prob * e_acc
            return
        for st_idx, pg in enumerate(state_probs[s]):
            nxt, t, e = tables[s][st_idx][choice(s, st_idx)]
            walk(nxt, prob * pg, t_acc + t, e_acc + e)

    walk(problem.head, 1.0, 0.0, 0.0)
    return sums[0], sums[2] / sums[1]


def enumerate_policy_values(problem: SegmentProblem) -> list[tuple[float, float]]:
    """(rate, power) of every deterministic stationary policy of the segment.

    The power is the ratio-of-expectations form that the calibration targets,
    evaluated exactly.  Refuses instances beyond the enumeration guard.
    """
    state_probs, tables = _action_tables(problem)
    slot_keys = [(s, st_idx) for s, rows in tables.items() for st_idx in range(len(rows))]
    slot_choices = [range(len(tables[s][st_idx])) for s, st_idx in slot_keys]
    values = []
    for combo in itertools.product(*slot_choices):
        lookup = dict(zip(slot_keys, combo))
        values.append(
            _evaluate_policy_recursive(
                problem, tables, state_probs, lambda s, st: lookup[(s, st)]
            )
        )
    return values


def enumerate_policy_values_alt(problem: SegmentProblem) -> list[tuple[float, float]]:
    """Second enumeration: actions are assigned depth-first and each complete
    policy is evaluated by forward distribution propagation.  It shares only
    the guard and ``_action_tables`` with ``enumerate_policy_values``; its
    search and its evaluator stay independent of that function's, so the two
    cross-check each other."""
    state_probs, tables = _action_tables(problem)
    slot_list = [
        (s, st_idx, moves) for s, rows in tables.items() for st_idx, moves in enumerate(rows)
    ]
    values: list[tuple[float, float]] = []
    assignment: dict[tuple[int, int], tuple[int, float, float]] = {}

    def forward_value() -> tuple[float, float]:
        frontier: dict[int, list[tuple[float, float, float]]] = {
            problem.head: [(1.0, 0.0, 0.0)]
        }
        inv_sum = t_sum = e_sum = 0.0
        for s in range(problem.head, problem.end):
            for prob, t_acc, e_acc in frontier.pop(s, []):
                for st_idx, pg in enumerate(state_probs[s]):
                    nxt, t, e = assignment[(s, st_idx)]
                    entry = (prob * pg, t_acc + t, e_acc + e)
                    if nxt == problem.end:
                        inv_sum += entry[0] / entry[1]
                        t_sum += entry[0] * entry[1]
                        e_sum += entry[0] * entry[2]
                    else:
                        frontier.setdefault(nxt, []).append(entry)
        return inv_sum, e_sum / t_sum

    def assign(idx: int) -> None:
        if idx == len(slot_list):
            values.append(forward_value())
            return
        s, st_idx, moves = slot_list[idx]
        for move in moves:
            assignment[(s, st_idx)] = move
            assign(idx + 1)

    assign(0)
    return values


@dataclass(frozen=True)
class BruteForceResult:
    rate: float
    power: float


def brute_force_subproblem(problem: SegmentProblem) -> BruteForceResult:
    """Optimum over all deterministic stationary policies within the
    problem's power budget."""
    pbar = problem.pbar
    feasible = [(u, p) for u, p in enumerate_policy_values(problem) if p <= pbar * (1.0 + 1e-12)]
    if not feasible:
        raise ValueError(f"no policy meets the power budget {pbar}")
    best = max(feasible, key=lambda t: t[0])
    return BruteForceResult(rate=best[0], power=best[1])


def pair_frontier(values: Sequence[tuple[float, float]]) -> tuple[list[float], list[float]]:
    """Pareto staircase (powers ascending, best achievable rate up to each)."""
    pts = sorted((p, u) for u, p in values)
    powers: list[float] = []
    rates: list[float] = []
    best = -math.inf
    for p, u in pts:
        if u > best:
            best = u
            if powers and powers[-1] == p:
                rates[-1] = best
            else:
                powers.append(p)
                rates.append(best)
    return powers, rates


def frontier_rate(frontier: tuple[list[float], list[float]], pbar: float) -> float:
    powers, rates = frontier
    idx = bisect_right(powers, pbar * (1.0 + 1e-12)) - 1
    return rates[idx] if idx >= 0 else 0.0


def _compositions(total: int, parts: int):
    """All vectors of ``parts`` non-negative integers summing to ``total``,
    in lexicographic order: the gaps between ``parts - 1`` bars placed among
    ``total + parts - 1`` slots."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1, *bars, total + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def brute_force_original(
    instance: TinyInstance,
    p0: float,
    resolution: int = 8,
    extra_allocations: Iterable[dict[tuple[int, int], float]] = (),
) -> tuple[float, dict[tuple[int, int], float]]:
    """Grid search of the joint problem: allocations on the weighted budget
    simplex crossed with per-pair brute-force subproblem optima.

    ``extra_allocations`` lets a solver's own allocation join the candidate
    set, so the returned value always dominates it.
    """
    prob_table = instance.pair_probabilities()
    pairs = sorted(prob_table)
    last = instance.topology.last_index
    n_alloc = math.comb(resolution + len(pairs) - 1, len(pairs) - 1)
    if n_alloc > ENUMERATION_GUARD:
        raise OracleGuardError(f"{n_alloc} allocations exceed the guard")
    frontiers = {}
    for pair in pairs:
        problem = instance.problem(pair[0], pair[1], pbar=1.0)
        frontiers[pair] = pair_frontier(enumerate_policy_values(problem))

    def evaluate(allocation: dict[tuple[int, int], float]) -> float:
        u_table = {
            pair: frontier_rate(frontiers[pair], allocation[pair]) for pair in pairs
        }
        return float(
            np.min(master_mod.section_rates(prob_table, u_table, last))
        )

    def extras():
        for allocation in extra_allocations:
            spent = sum(prob_table[p] * v for p, v in allocation.items())
            if spent > p0 * (1.0 + 1e-9):
                raise ValueError("extra allocation violates the budget")
            yield {pair: allocation.get(pair, 0.0) for pair in pairs}

    grid = (
        {pair: (combo[k] / resolution) * p0 / prob_table[pair] for k, pair in enumerate(pairs)}
        for combo in _compositions(resolution, len(pairs))
    )
    best_value = -math.inf
    best_alloc: dict[tuple[int, int], float] = {}
    for allocation in itertools.chain(grid, extras()):
        value = evaluate(allocation)
        if value > best_value:
            best_value, best_alloc = value, allocation
    return best_value, best_alloc


# ---------------------------------------------------------------------------
# Reference value recursion (memo-free, pure Python)
# ---------------------------------------------------------------------------


def reference_cost_to_go(problem: SegmentProblem, lam: float, node: int) -> float:
    """Expected cost-to-go re-derived without tables, caches or vectorized
    minimization; exponential-time but exact on tiny instances."""
    if node == problem.end:
        return 0.0
    acc = 0.0
    for pg, gains in problem.gains.joint_states(node, problem.end):
        best = math.inf
        for k in range(problem.end - node):
            tail = reference_cost_to_go(problem, lam, node + 1 + k)
            g = float(gains[k])
            for p in problem.power_levels:
                cost = (1.0 + lam * (p - problem.pbar)) / math.log1p(g * p) + tail
                if cost < best:
                    best = cost
        acc += pg * best
    return acc


# ---------------------------------------------------------------------------
# Exchange of max and min over independent payoffs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExchangeInstance:
    weights: np.ndarray  # (rows, variables), non-negative
    tables: list[np.ndarray]  # per-variable payoff over its finite domain

    def _row_value(self, m: int, f: Sequence[float]) -> float:
        # One summation routine shared by all three values so the claimed
        # equalities are exact in floating point, not merely close.
        total = 0.0
        for w, v in zip(self.weights[m], f):
            total += float(w) * float(v)
        return total

    def _joint_values(self) -> list[list[float]]:
        """Every row's value at every joint choice, one list per choice."""
        rows = range(self.weights.shape[0])
        return [
            [self._row_value(m, [float(t[k]) for t, k in zip(self.tables, combo)]) for m in rows]
            for combo in itertools.product(*(range(t.size) for t in self.tables))
        ]

    def max_min(self) -> float:
        return max(min(values) for values in self._joint_values())

    def min_max(self) -> float:
        return min(max(column) for column in zip(*self._joint_values()))

    def separable_value(self) -> float:
        f_star = [float(np.max(t)) for t in self.tables]
        rows = range(self.weights.shape[0])
        return min(self._row_value(m, f_star) for m in rows)


def random_exchange_instance(rng: np.random.Generator) -> ExchangeInstance:
    rows = int(rng.integers(1, 5))
    n_vars = int(rng.integers(1, 5))
    weights = rng.uniform(0.0, 2.0, size=(rows, n_vars))
    tables = [rng.normal(size=int(rng.integers(1, 5))) for _ in range(n_vars)]
    return ExchangeInstance(weights=weights, tables=tables)


def verify_exchange_lemma(instance: ExchangeInstance) -> bool:
    """Max-min equals min-max equals the separable optimum, exactly, for
    independent per-variable payoffs with non-negative weights."""
    v = instance.max_min()
    v_prime = instance.min_max()
    v_sep = instance.separable_value()
    return v == v_prime == v_sep


def coupled_exchange_gap(rng: np.random.Generator) -> float:
    """Control with the independence assumption broken: all payoffs share one
    variable.  Returns ``min_max - max_min`` (positive gaps are expected)."""
    rows = int(rng.integers(2, 5))
    n_vars = int(rng.integers(2, 5))
    domain = int(rng.integers(2, 5))
    weights = rng.uniform(0.0, 2.0, size=(rows, n_vars))
    table = rng.normal(size=(n_vars, domain))
    max_min = max(
        float(np.min(weights @ table[:, k])) for k in range(domain)
    )
    min_max = min(
        max(float(weights[m] @ table[:, k]) for k in range(domain))
        for m in range(rows)
    )
    return min_max - max_min


# ---------------------------------------------------------------------------
# Ordered-sequence inequality
# ---------------------------------------------------------------------------


def verify_sequence_lemma(
    a: Sequence[float], b: Sequence[float], p: Sequence[float]
) -> float:
    """Weighted product sum of a centered non-decreasing and a centered
    non-increasing sequence; the lemma asserts it is non-positive.  Returns
    the sum so callers can assert with a float slack."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(np.diff(a) < 0.0) or np.any(np.diff(b) > 0.0):
        raise ValueError("sequences must be monotone in opposite directions")
    if np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be a distribution")
    if abs(float(p @ a)) > 1e-9 or abs(float(p @ b)) > 1e-9:
        raise ValueError("sequences must be centered under the weights")
    return float(np.sum(p * a * b))


# Longest sequence pair that ``random_centered_monotone`` draws.
SEQUENCE_MAX_LEN = 20


def random_centered_monotone(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = int(rng.integers(2, SEQUENCE_MAX_LEN + 1))
    p = rng.uniform(0.0, 1.0, size=n)
    p /= p.sum()
    a = np.sort(rng.normal(size=n))
    b = -np.sort(rng.normal(size=n))
    a = a - float(p @ a)
    b = b - float(p @ b)
    return a, b, p


# ---------------------------------------------------------------------------
# Covariance of successive hop times
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterCovariance:
    cluster: int
    estimate: float
    se: float
    verdict: str


@dataclass(frozen=True)
class CovarianceReport:
    clusters: tuple[ClusterCovariance, ...]
    verdict: str


def _cluster_verdict(estimate: float, se: float, eps: float = 0.0) -> str:
    if estimate <= eps:
        return "consistent"
    if se > estimate:
        return "inconclusive"
    if estimate > 3.0 * se:
        return "violated"
    return "consistent"


def verify_covariance_property(
    policy: CalibratedPolicy,
    episodes: int,
    rng: np.random.Generator,
) -> CovarianceReport:
    """Simulation check that each hop's airtime is non-positively correlated
    with the airtime spent reaching it, on monotone-gain line segments.

    Statistical honesty rule: an unresolved positive estimate (standard error
    above the estimate) reports ``inconclusive``, never ``violated``.
    """
    problem = policy.problem
    cube = draw_episode_cube(problem, rng, episodes)
    # Column r holds the airtime of the hop into node head + r + 1.
    times = _run_episode_batch(problem, policy.lam, policy.table, cube, hop_times=True).hop_times
    clusters = []
    worst = "consistent"
    order = {"consistent": 0, "inconclusive": 1, "violated": 2}
    for r in range(1, problem.length):
        x = times[:, r]
        y = times[:, :r].sum(axis=1)
        prod = (x - x.mean()) * (y - y.mean())
        est = float(prod.mean())
        se = float(prod.std(ddof=1) / np.sqrt(episodes)) if episodes > 1 else 0.0
        # Rounding floor: a covariance of constant times is zero, not the
        # accumulated float dust of centering.
        eps = 1e-12 * float(x.mean() * y.mean() + 1e-300)
        verdict = _cluster_verdict(est, se, eps)
        clusters.append(ClusterCovariance(cluster=r, estimate=est, se=se, verdict=verdict))
        if order[verdict] > order[worst]:
            worst = verdict
    return CovarianceReport(clusters=tuple(clusters), verdict=worst)


# ---------------------------------------------------------------------------
# Verification battery for the CLI
# ---------------------------------------------------------------------------


def _check_flow_balance(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(100):
        last = int(rng.integers(2, 9))
        prob, u = {}, {}
        for i in range(last):
            for j in range(i + 1, last + 1):
                prob[(i, j)] = float(rng.uniform(0.0, 1.0))
                u[(i, j)] = float(rng.uniform(0.0, 3.0))
        for m in range(1, last):
            worst = max(worst, abs(master_mod.flow_balance_identity(m, prob, u, last)))
    return worst <= 1e-12, f"max residual {worst:.3e}"


def _check_exchange(rng: np.random.Generator) -> tuple[bool, str]:
    ok = all(verify_exchange_lemma(random_exchange_instance(rng)) for _ in range(200))
    gaps = [coupled_exchange_gap(rng) for _ in range(200)]
    control = any(g > 1e-9 for g in gaps)
    return ok and control, f"equalities hold: {ok}; coupled control gap found: {control}"


def _check_sequence(rng: np.random.Generator) -> tuple[bool, str]:
    worst = -math.inf
    for _ in range(10_000):
        a, b, p = random_centered_monotone(rng)
        worst = max(worst, verify_sequence_lemma(a, b, p))
    return worst <= 1e-12, f"max weighted product sum {worst:.3e}"


def _check_power_foc(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(1000):
        g = float(rng.uniform(0.05, 20.0))
        pbar = float(rng.uniform(0.1, 50.0))
        lam = float(rng.uniform(0.02, 0.98)) / pbar
        p = solve_optimal_power(g, pbar, lam, p_max=100.0 * pbar)
        residual = abs(float(power_foc(g, p, pbar)) - lam)
        worst = max(worst, residual)
    return worst <= 1e-9, f"max FOC residual {worst:.3e}"


def _frozen_tiny_instance() -> TinyInstance:
    topology = Topology.from_positions((0.0, 1.0, 2.1, 3.3), alpha=2.0)
    links = {}
    for s in range(3):
        for m in range(s + 1, 4):
            base = float(topology.pathloss[s, m])
            links[(s, m)] = ((0.6 * base, 1.7 * base), (0.5, 0.5))
    gains = DiscreteGains(links)
    return TinyInstance(
        topology=topology,
        gains=gains,
        power_levels=(0.5, 1.0, 2.0, 4.0),
        p_avail=0.8,
    )


def _check_recursion_reference(rng: np.random.Generator) -> tuple[bool, str]:
    instance = _frozen_tiny_instance()
    worst = 0.0
    for head, end in ((0, 1), (0, 2), (1, 3), (0, 3)):
        for lam in (0.0, 0.2, 0.7):
            problem = instance.problem(head, end, pbar=1.5)
            table = offline_recursion(problem, lam)
            for node in range(head, end + 1):
                ref = reference_cost_to_go(problem, lam, node)
                got = table.cost_to_go(node)
                denom = max(abs(ref), 1.0)
                worst = max(worst, abs(got - ref) / denom)
    return worst <= 1e-12, f"max relative deviation {worst:.3e}"


def _check_subproblem_dominance(rng: np.random.Generator) -> tuple[bool, str]:
    instance = _frozen_tiny_instance()
    ok = True
    details = []
    for head, end in ((0, 1), (0, 2), (1, 3)):
        problem = instance.problem(head, end, pbar=1.2)
        one = enumerate_policy_values(problem)
        two = enumerate_policy_values_alt(problem)
        agree = len(one) == len(two) and all(
            abs(a[0] - b[0]) <= 1e-12 and abs(a[1] - b[1]) <= 1e-12
            for a, b in zip(sorted(one), sorted(two))
        )
        oracle_best = brute_force_subproblem(problem)
        policy = calibrate_lambda(problem, rng)
        dominated = policy.metrics.rate <= oracle_best.rate * (1.0 + 1e-12)
        ok = ok and agree and dominated
        details.append(
            f"({head},{end}): cross-impl agree={agree}, "
            f"solver {policy.metrics.rate:.6f} <= oracle {oracle_best.rate:.6f}"
        )
    return ok, "; ".join(details)


def _check_covariance(rng: np.random.Generator) -> tuple[bool, str]:
    topology = Topology.from_positions((0.0, 1.0, 2.0, 3.0), alpha=2.0)
    problem = SegmentProblem(
        head=0,
        end=3,
        gains=RayleighGains(topology),
        pbar=5.0,
        p_max=500.0,
        p_floor=5e-6,
        mc_samples=400,
        episodes=400,
    )
    policy = calibrate_lambda(problem, rng)
    report = verify_covariance_property(policy, episodes=4000, rng=rng)
    return report.verdict != "violated", f"verdict {report.verdict}"


VERIFICATION_CHECKS = (
    ("flow_balance_identity", _check_flow_balance),
    ("exchange_lemma", _check_exchange),
    ("sequence_lemma", _check_sequence),
    ("power_foc", _check_power_foc),
    ("value_recursion_reference", _check_recursion_reference),
    ("subproblem_dominance", _check_subproblem_dominance),
    ("cluster_covariance", _check_covariance),
)


def run_verification_suite(seed: int = VERIFY_SEED) -> dict:
    """Run the full battery; the report is a stable JSON-ready document."""
    results = []
    for name, check in VERIFICATION_CHECKS:
        passed, detail = check(stream(seed, "verify", name))
        results.append({"check": name, "passed": bool(passed), "detail": detail})
    return {
        "format_version": 1,
        "seed": seed,
        "results": results,
        "all_passed": all(r["passed"] for r in results),
    }
