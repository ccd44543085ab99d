"""Long-timescale allocation of average power across potential segments.

The allocator maximizes the minimum per-section rate subject to the
probability-weighted power budget.  Each candidate pair's rate curve is
concave in its budget share, and calibration exposes the curve's slope (the
budget's shadow price), so a projected subgradient ascent with diminishing
steps converges; with a noisy Monte-Carlo oracle the best iterate is
reported rather than the last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations, repeat
from typing import Callable

import numpy as np

from .model import Topology
from .seeding import stream
from .subpolicy import (
    DEFAULT_P_FLOOR_FACTOR,
    DEFAULT_P_MAX_FACTOR,
    CalibratedPolicy,
    RayleighGains,
    SegmentProblem,
    calibrate_lambda,
)

Pair = tuple[int, int]

# Relative tolerances: of the budget projection's bisection, and of the
# budget overspend that ``objective`` still accepts.
PROJECTION_TOL = 1e-12
BUDGET_TOL = 1e-6


def section_rates(
    prob_table: dict[Pair, float], u_table: dict[Pair, float], last: int
) -> np.ndarray:
    """All section rates, index ``m-1`` for ``m = 1..last``."""
    rates = np.zeros(last)
    for (i, j), u in u_table.items():
        w = prob_table.get((i, j), 0.0) * u
        if w != 0.0 and j > i:
            rates[i : j] += w
    return rates


def flow_balance_identity(
    m: int, prob_table: dict[Pair, float], u_table: dict[Pair, float], last: int
) -> float:
    """Residual of the telescoping identity relating adjacent section rates
    to per-node inflow minus outflow.  Zero to machine precision for any
    inputs; a nonzero value indicates an implementation bug, not an
    infeasible instance."""
    if not 1 <= m <= last - 1:
        raise ValueError(f"interior section index {m} out of range 1..{last - 1}")
    rates = section_rates(prob_table, u_table, last)
    lhs = float(rates[m - 1] - rates[m])
    inflow = sum(
        prob_table.get((i, m), 0.0) * u_table.get((i, m), 0.0) for i in range(m)
    )
    outflow = sum(
        prob_table.get((m, j), 0.0) * u_table.get((m, j), 0.0)
        for j in range(m + 1, last + 1)
    )
    return lhs - (inflow - outflow)


def project_budget(
    allocation: dict[Pair, float],
    prob_table: dict[Pair, float],
    p0: float,
    p_floor: dict[Pair, float],
) -> dict[Pair, float]:
    """Projection onto the budget set in the probability-weighted metric.

    The weighted projection onto ``{x >= floor, sum Pr*x <= p0}`` reduces to
    a uniform downward shift clipped at each pair's floor, with the shift
    found by bisection on the single dual variable of the budget constraint.
    """
    pairs = sorted(allocation)
    w = np.asarray([prob_table[p] for p in pairs])
    y = np.asarray([allocation[p] for p in pairs])
    floor = np.asarray([p_floor[p] for p in pairs])
    if float(w @ floor) > p0 * (1.0 + 1e-12):
        raise ValueError("budget cannot cover the power floor on every pair")

    def weighted_total(shift: float) -> float:
        return float(w @ np.maximum(y - shift, floor))

    if weighted_total(0.0) <= p0 * (1.0 + PROJECTION_TOL):
        return dict(zip(pairs, (float(v) for v in np.maximum(y, floor))))
    lo, hi = 0.0, float(np.max(y - floor))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if weighted_total(mid) > p0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= PROJECTION_TOL * max(hi, 1.0):
            break
    x = np.maximum(y - hi, floor)
    return dict(zip(pairs, (float(v) for v in x)))


@dataclass(frozen=True)
class MasterOptions:
    max_iterations: int = 40
    step_a: float | None = None  # defaults to p0 / 2
    step_b: float = 5.0
    tie_tolerance: float = 1e-2
    objective_tolerance: float = 1e-3
    window: int = 10
    pair_prob_cutoff: float = 1e-6

    def __post_init__(self) -> None:
        # The ascent needs one evaluated iterate, and its step a / (b + t)
        # and tie set must stay defined and positive at every iteration.  A
        # negative objective tolerance would turn early stopping off unseen.
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, not {self.max_iterations}")
        if self.window < 1:
            raise ValueError(f"window must be at least 1, not {self.window}")
        if not self.step_b > 0.0:
            raise ValueError(f"step_b must be positive, not {self.step_b}")
        if self.step_a is not None and not self.step_a > 0.0:
            raise ValueError(f"step_a must be positive, not {self.step_a}")
        for key in ("tie_tolerance", "objective_tolerance"):
            if not getattr(self, key) >= 0.0:
                raise ValueError(f"{key} must be non-negative, not {getattr(self, key)}")
        if not 0.0 <= self.pair_prob_cutoff <= 1.0:  # it compares occurrence probabilities
            raise ValueError(f"pair_prob_cutoff must be in [0, 1], not {self.pair_prob_cutoff}")

    def step(self, p0: float, t: int) -> float:
        """The ascent's step ``a / (b + t)`` at iteration ``t``."""
        return (p0 / 2.0 if self.step_a is None else self.step_a) / (self.step_b + t)

    def balanced(self, u_min: float, u_weighted: float) -> bool:
        """Whether the end section's rate is within the tie tolerance of the
        minimum section rate, so the weighted and min-section forms agree."""
        return u_weighted <= u_min * (1.0 + self.tie_tolerance)


@dataclass(frozen=True)
class SolverOptions:
    """How every pair is calibrated, and how the master allocates among them.

    The power cap and floor of a pair's problem are these multiples of its
    budget share.
    """

    mc_samples: int = 2000
    episodes: int = 2000
    power_tolerance: float = 1e-2
    p_max_factor: float = DEFAULT_P_MAX_FACTOR
    p_floor_factor: float = DEFAULT_P_FLOOR_FACTOR
    master: MasterOptions = field(default_factory=MasterOptions)

    def __post_init__(self) -> None:
        # A floor at or above the budget share overspends at every multiplier.
        if not 0.0 < self.p_floor_factor < 1.0:
            raise ValueError("p_floor_factor must lie in (0, 1)")
        if not self.p_floor_factor <= self.p_max_factor:
            raise ValueError("p_floor_factor must not exceed p_max_factor")
        if self.mc_samples < 1 or self.episodes < 1:
            raise ValueError("mc_samples and episodes must be positive")
        if not self.power_tolerance > 0.0:
            raise ValueError("power_tolerance must be positive")


def pair_seed_path(root_seed: int, pair: Pair) -> tuple[int | str, ...]:
    """Root seed and path of the pair's calibration stream.  The budget is
    not part of it, so every budget of a pair sees the same samples."""
    return (root_seed, "pair", pair[0], pair[1])


def _calibration_job(
    problem: SegmentProblem, root_seed: int, power_tolerance: float
) -> CalibratedPolicy:
    """Top-level calibration task so process pools can pickle it."""
    rng = stream(*pair_seed_path(root_seed, (problem.head, problem.end)))
    return calibrate_lambda(problem, rng, power_tolerance=power_tolerance)


def pair_problem(
    topology: Topology, pair: Pair, pbar: float, solver: SolverOptions
) -> SegmentProblem:
    """Rayleigh-faded control problem of one segment pair at budget ``pbar``."""
    return SegmentProblem(
        head=pair[0],
        end=pair[1],
        gains=RayleighGains(topology),
        pbar=pbar,
        p_max=solver.p_max_factor * pbar,
        p_floor=solver.p_floor_factor * pbar,
        mc_samples=solver.mc_samples,
        episodes=solver.episodes,
    )


class RateModel:
    """Memoized per-pair evaluator backed by segment calibration.

    Evaluations are seeded by pair identity only, so the same fading sample
    streams are reused across budget values and ascent iterations (common
    random numbers), and a calibration depends on (seed, pair, budget)
    alone, never on which budgets were evaluated before.  The cache is keyed
    on the exact budget, so every pair is calibrated at exactly the share it
    is allocated.
    """

    def __init__(
        self,
        topology: Topology,
        root_seed: int,
        solver: SolverOptions = SolverOptions(),
        threads: int = 1,
        problem_factory: Callable[[Pair, float], SegmentProblem] | None = None,
    ) -> None:
        self.topology = topology
        self.root_seed = root_seed
        self.solver = solver
        self._factory = problem_factory
        self.threads = max(int(threads), 1)
        self._cache: dict[tuple[Pair, float], CalibratedPolicy] = {}

    def build_problem(self, pair: Pair, pbar: float) -> SegmentProblem:
        if self._factory is not None:
            return self._factory(pair, pbar)
        return pair_problem(self.topology, pair, pbar, self.solver)

    def evaluate(self, pair: Pair, pbar: float) -> CalibratedPolicy:
        """The pair's policy calibrated at budget ``pbar``, from the cache if
        it has been calibrated there before."""
        if (pair, pbar) not in self._cache:
            self._cache[(pair, pbar)] = _calibration_job(
                self.build_problem(pair, pbar), self.root_seed, self.solver.power_tolerance
            )
        return self._cache[(pair, pbar)]

    def evaluate_many(self, allocation: dict[Pair, float]) -> dict[Pair, CalibratedPolicy]:
        """Evaluate a whole allocation; missing pairs run in parallel when the
        model was built with ``threads > 1``.

        Each calibration is a function of its problem and seed alone, so
        parallel and serial execution produce bitwise-identical results.
        """
        missing = sorted(key for key in allocation.items() if key not in self._cache)
        if self.threads > 1 and len(missing) > 1:
            from concurrent.futures import ProcessPoolExecutor

            problems = [self.build_problem(pair, pbar) for pair, pbar in missing]
            with ProcessPoolExecutor(max_workers=self.threads) as pool:
                policies = pool.map(
                    _calibration_job,
                    problems,
                    repeat(self.root_seed),
                    repeat(self.solver.power_tolerance),
                )
                self._cache.update(zip(missing, policies))
        return {pair: self.evaluate(pair, pbar) for pair, pbar in allocation.items()}

    def budget_floor(self, pair: Pair) -> float:
        """Smallest calibratable budget for the pair.

        Discrete power grids cannot operate below their cheapest level.  At
        a budget equal to it, the all-cheapest policy's achieved power, a
        ratio of means, can round above the budget; the margin keeps that
        policy feasible.
        """
        probe = self.build_problem(pair, 1.0)
        if probe.power_levels is None:
            return 0.0
        return min(probe.power_levels) * 1.001


def objective(
    allocation: dict[Pair, float],
    u_table: dict[Pair, float],
    prob_table: dict[Pair, float],
    p0: float,
    last: int,
) -> float:
    """Minimum section rate of an allocation; rejects budget violations."""
    spent = sum(prob_table[p] * v for p, v in allocation.items())
    if spent > p0 * (1.0 + BUDGET_TOL):
        raise ValueError(f"allocation spends {spent:.6g} > budget {p0:.6g}")
    return float(np.min(section_rates(prob_table, u_table, last)))


def subgradient(
    allocation: dict[Pair, float],
    policies: dict[Pair, CalibratedPolicy],
    prob_table: dict[Pair, float],
    last: int,
    tie_tolerance: float = 1e-2,
) -> dict[Pair, float]:
    """Ascent direction for the min-section objective.

    Sections within the tie tolerance of the minimum all contribute; each
    pair's component is its probability times its budget shadow price,
    averaged over the tied sections it straddles.  Entrywise non-negative
    because shadow prices are.
    """
    u_table = {p: policy.metrics.rate for p, policy in policies.items()}
    rates = section_rates(prob_table, u_table, last)
    floor = float(np.min(rates))
    tied = [m for m in range(1, last + 1) if rates[m - 1] <= floor * (1.0 + tie_tolerance) + 1e-300]
    grad: dict[Pair, float] = {}
    for pair in allocation:
        i, j = pair
        straddles = sum(1 for m in tied if i < m <= j)
        grad[pair] = (
            prob_table[pair] * policies[pair].shadow_price * straddles / len(tied)
        )
    return grad


# Smallest budget share of any pair, as a fraction of the total budget.
ALLOCATION_FLOOR_FRAC = 1e-8
# The exchange polish's step sizes, as fractions of the total budget, and
# its cap on accepted moves over all of them.
POLISH_FRACTIONS = (0.25, 0.1, 0.04, 0.015, 0.006)
POLISH_MAX_MOVES = 400


def _exchange_polish(
    score: Callable[[dict[Pair, float]], tuple[float, dict[Pair, CalibratedPolicy]]],
    allocation: dict[Pair, float],
    weights: dict[Pair, float],
    p0: float,
    floors: dict[Pair, float],
) -> tuple[dict[Pair, float], float, dict[Pair, CalibratedPolicy]]:
    """Greedy budget exchanges between pairs at shrinking step sizes.

    Subgradients carry no information on the piecewise-constant rate curves
    of discretized instances, so the ascent's best iterate is polished by
    direct search: move a slice of weighted budget from one pair to another
    whenever that strictly improves the objective.  Only sound when the rate
    model is noise-free (exact evaluations); the caller gates on that.
    """
    pairs = sorted(allocation)
    best_alloc = dict(allocation)
    best_value, best_policies = score(best_alloc)
    moves = 0
    for frac in POLISH_FRACTIONS:
        improved = True
        while improved and moves < POLISH_MAX_MOVES:
            improved = False
            for src, dst in permutations(pairs, 2):
                give = min(frac * p0, weights[src] * (best_alloc[src] - floors[src]))
                if give <= 0.0:
                    continue
                trial = dict(best_alloc)
                trial[src] = best_alloc[src] - give / weights[src]
                trial[dst] = best_alloc[dst] + give / weights[dst]
                value, policies = score(trial)
                if value > best_value * (1.0 + 1e-12) + 1e-300:
                    best_value, best_alloc, best_policies = value, trial, policies
                    moves += 1
                    improved = True
    return best_alloc, best_value, best_policies


@dataclass(frozen=True)
class MasterSolution:
    allocation: dict[Pair, float]
    trace: tuple[float, ...]
    best_objective: float
    section_rates: np.ndarray = field(repr=False)
    u_min: float
    u_weighted: float
    balance_active: bool
    policies: dict[Pair, CalibratedPolicy] = field(repr=False)
    iterations: int
    p0: float

    def spent_budget(self, prob_table: dict[Pair, float]) -> float:
        return sum(prob_table[p] * v for p, v in self.allocation.items())


def solve_master(
    rate_model: RateModel,
    prob_table: dict[Pair, float],
    p0: float,
    last: int,
    options: MasterOptions = MasterOptions(),
) -> MasterSolution:
    """Projected subgradient ascent on the min-section rate.

    Starts from the uniform budget-tight allocation, steps along the
    normalized subgradient with an ``a / (b + t)`` schedule, projects back
    onto the budget set, and returns the best iterate.
    """
    pairs = sorted(
        p
        for p, pr in prob_table.items()
        if p[1] > p[0] and pr > options.pair_prob_cutoff
    )
    if not pairs:
        raise ValueError("no transmitting pair clears the probability cutoff")
    weights = {p: prob_table[p] for p in pairs}
    mass = sum(weights.values())
    floors = {
        p: max(ALLOCATION_FLOOR_FRAC * p0, rate_model.budget_floor(p))
        for p in pairs
    }
    allocation = project_budget({p: p0 / mass for p in pairs}, weights, p0, floors)

    def score(alloc: dict[Pair, float]) -> tuple[float, dict[Pair, CalibratedPolicy]]:
        policies = rate_model.evaluate_many(alloc)
        u_table = {p: policy.metrics.rate for p, policy in policies.items()}
        return objective(alloc, u_table, weights, p0, last), policies

    best_obj = -np.inf
    best_alloc = dict(allocation)
    trace: list[float] = []
    for t in range(options.max_iterations):
        obj, policies = score(allocation)
        trace.append(obj)
        if obj > best_obj:
            best_obj = obj
            best_alloc = dict(allocation)
        if t >= options.window:
            past = max(trace[: t - options.window + 1])
            if best_obj - past <= options.objective_tolerance * max(best_obj, 1e-300):
                break
        grad = subgradient(allocation, policies, weights, last, options.tie_tolerance)
        g = np.asarray([grad[p] for p in pairs])
        norm = float(np.linalg.norm(g))
        if norm == 0.0:
            break
        step = options.step(p0, t)
        moved = {p: allocation[p] + step * grad[p] / norm for p in pairs}
        allocation = project_budget(moved, weights, p0, floors)

    policies = rate_model.evaluate_many(best_alloc)
    # Polish only exact rate models; see _exchange_polish.  A zero rate_se
    # does not show exactness: a single Monte-Carlo episode has it too.
    if all(policy.problem.gains.enumerable for policy in policies.values()):
        best_alloc, polished, policies = _exchange_polish(score, best_alloc, weights, p0, floors)
        if polished > best_obj:
            best_obj = polished
            trace.append(polished)
    u_table = {p: policy.metrics.rate for p, policy in policies.items()}
    rates = section_rates(weights, u_table, last)
    u_min = float(np.min(rates))
    u_weighted = float(rates[last - 1])
    balance_active = options.balanced(u_min, u_weighted)
    return MasterSolution(
        allocation=best_alloc,
        trace=tuple(trace),
        best_objective=best_obj,
        section_rates=rates,
        u_min=u_min,
        u_weighted=u_weighted,
        balance_active=balance_active,
        policies=policies,
        iterations=len(trace),
        p0=p0,
    )


def solution_to_payload(
    solution: MasterSolution, prob_table: dict[Pair, float]
) -> dict:
    """JSON document with the allocation, per-pair prices and the trace."""
    return {
        "format_version": 1,
        "p0": solution.p0,
        "objective": solution.best_objective,
        "u_min": solution.u_min,
        "u_weighted": solution.u_weighted,
        "balance_active": solution.balance_active,
        "iterations": solution.iterations,
        "spent_budget": solution.spent_budget(prob_table),
        "section_rates": [float(r) for r in solution.section_rates],
        "trace": list(solution.trace),
        "allocation": [
            {
                "pair": list(pair),
                "prob": prob_table[pair],
                "pbar": solution.allocation[pair],
                "rate": policy.metrics.rate,
                "rate_se": policy.metrics.rate_se,
                "lambda": policy.lam,
                "shadow_price": policy.shadow_price,
                "achieved_power": policy.metrics.power_time_avg,
            }
            for pair, policy in sorted(solution.policies.items())
        ],
    }
