"""Dynamic hop selection and power control for cognitive multi-hop relays.

The package splits the problem along its two natural time scales: `subpolicy`
solves one continuous segment's hop/power control (offline value recursion
plus multiplier calibration, online decentralized decisions), `master`
allocates average power across all potential segments to maximize the minimum
section rate, `sim` runs the schemes, the proposed one and four references,
over Monte-Carlo epochs, and `oracle` verifies the structural claims by brute
force.  `cli` runs the one calibrate-then-simulate pipeline behind every
command and study point, over configuration files and CSV/JSON outputs.
"""

from .model import (
    PuActivityModel,
    Topology,
    make_linear_route,
    partition_segments,
    sample_pu_activity,
    segment_probabilities,
)
from .subpolicy import (
    CalibratedPolicy,
    CalibrationError,
    DiscreteGains,
    RayleighGains,
    SegmentMetrics,
    SegmentProblem,
    ValueTable,
    calibrate_lambda,
    estimate_segment_metrics,
    offline_recursion,
    power_foc,
    priced_hop_cost,
    solve_optimal_power,
)
from .master import (
    MasterOptions,
    MasterSolution,
    RateModel,
    SolverOptions,
    flow_balance_identity,
    project_budget,
    section_rates,
    solve_master,
    subgradient,
)
from .sim import (
    RouteSpec,
    RunMetrics,
    StudySpec,
    run_baseline,
    run_proposed,
)
from .oracle import (
    OracleGuardError,
    TinyInstance,
    brute_force_original,
    brute_force_subproblem,
    run_verification_suite,
    verify_covariance_property,
    verify_exchange_lemma,
    verify_sequence_lemma,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
