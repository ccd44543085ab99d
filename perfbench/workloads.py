"""Workload definitions: config documents generated from a seed.

Every workload has ``VARIANTS`` config variants that differ only in the root
seed the program draws its random streams from.  A benchmark seed selects
the variants a run cycles through, and the reference outputs under
``reference/`` hold one entry per variant, so any seed can be checked.
Stdlib only: the orchestrator imports this before the program is on the path.
"""

from __future__ import annotations

VARIANTS = 16
ROOT_SEED_BASE = 20260810

SCHEMES = ["proposed", "baseline1", "baseline2", "baseline3", "baseline4"]

# The README route: 6 nodes, endpoints 5 apart, relays placed by seed 7.
README_ROUTE = {"nodes": 6, "span": 5.0, "min_gap": 0.25, "placement_seed": 7, "alpha": 2.0}
LONG_ROUTE = {"nodes": 12, "span": 10.0, "min_gap": 0.25, "placement_seed": 7, "alpha": 2.0}
IID_ACTIVITY = {"mode": "iid-bernoulli", "p_avail": 0.85, "epoch_frames": 1}
SPATIAL_ACTIVITY = {
    "mode": "spatial-field",
    "rho_p": 0.4,
    "p_active": 0.5,
    "d0": 0.8,
    "strip_width": 1.0,
    "epoch_frames": 1,
}

# primary: the command whose wall time is the workload's main metric and
# the one the traced run wraps.  calib-* also simulate a few epochs from the
# fresh tables, simulate_repeats times so that simulate_s has enough samples;
# sim-spatial calibrates its tables in each of its setup_repeats set-ups.
WORKLOADS = {
    "calib-readme": {
        "primary": "calibrate",
        "route": README_ROUTE,
        "activity": IID_ACTIVITY,
        "samples": 2000,
        "max_iterations": 2,
        "epochs": 400,
        "simulate_repeats": 2,
        "setup_repeats": 5,
        "prob_samples": 100_000,
    },
    "calib-long12": {
        "primary": "calibrate",
        "route": LONG_ROUTE,
        "activity": IID_ACTIVITY,
        "samples": 100,
        "max_iterations": 1,
        "epochs": 400,
        "simulate_repeats": 2,
        "setup_repeats": 5,
        "prob_samples": 100_000,
    },
    "sim-spatial": {
        "primary": "simulate",
        "route": README_ROUTE,
        "activity": SPATIAL_ACTIVITY,
        "samples": 100,
        "max_iterations": 3,
        "epochs": 1000,
        "simulate_repeats": 1,
        "setup_repeats": 3,
        "prob_samples": 20_000,
    },
}


def variant_of(seed: int, k: int) -> int:
    """Variant used by the k-th repetition of a run with benchmark seed ``seed``."""
    return (seed + k) % VARIANTS


def config_for(workload: str, variant: int) -> dict:
    """The config document the program sees for one workload variant."""
    w = WORKLOADS[workload]
    return {
        "version": 1,
        "seed": ROOT_SEED_BASE + variant,
        "model": dict(w["route"]),
        "activity": dict(w["activity"]),
        "budget": {"P0_dB": 30.0},
        "schemes": list(SCHEMES),
        "solver": {
            "mc_samples": w["samples"],
            "episodes": w["samples"],
            "master": {"max_iterations": w["max_iterations"]},
        },
        "sim": {"epochs": w["epochs"], "prob_samples": w["prob_samples"]},
        "output": {"rate_units": "nats"},
    }
