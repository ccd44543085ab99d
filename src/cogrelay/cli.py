"""Batch operator surface: calibrate, simulate, sweep, verify.

Configuration is one versioned JSON document; every command is deterministic
given (config, seed) and records enough in its manifest to reproduce any
output row.  Offline tables are persisted per segment pair and guarded
against configuration drift by content hashes.  All files are written
atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence, get_args, get_origin, get_type_hints

from . import oracle
from .master import (
    MasterOptions,
    MasterSolution,
    RateModel,
    SolverOptions,
    pair_problem,
    pair_seed_path,
    solution_to_payload,
    solve_master,
)
from .model import IID_MODE, SPATIAL_MODE, PuActivityModel
from .seeding import path_fingerprint, stream
from .sim import (
    SCHEMES,
    CoverageError,
    Pair,
    RouteSpec,
    RunMetrics,
    StudySpec,
    run_baseline,
    run_proposed,
)
from .subpolicy import CalibratedPolicy, CalibrationError, policy_from_payload, policy_to_payload

CONFIG_VERSION = 1
LN2 = math.log(2.0)

# A result row: these ``RunMetrics`` fields, then the master's attribute
# under each master column's name.
METRIC_COLUMNS = ("scheme", "u_min", "u_weighted", "u_empirical", "u_empirical_se",
                  "total_power", "p0", "epochs", "seed")
MASTER_COLUMNS = {"master_objective": "best_objective", "master_iterations": "iterations"}
RESULT_COLUMNS = METRIC_COLUMNS + tuple(MASTER_COLUMNS)
RATE_COLUMNS = ("u_min", "u_weighted", "u_empirical", "u_empirical_se", "master_objective")


class ConfigError(ValueError):
    pass


class ArtifactMismatchError(RuntimeError):
    pass


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError as exc:
        raise ConfigError(f"budget P0_dB {db:g} overflows a linear power") from exc


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` as is, line endings included, via a temp file and rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, columns: Sequence[str], rows: Sequence[dict]) -> None:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns), lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in columns})
    atomic_write_text(path, buffer.getvalue())


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


# Each section's keys, read by ``parse_config`` and echoed by
# ``config_to_payload``.  A route is given by its positions or by a placement
# recipe, and each activity mode has its own parameters.
ROOT_KEYS = ("version", "seed", "model", "activity", "budget", "schemes", "solver", "sim",
             "sweep", "output")
ROUTE_KEYS = {
    "positions": ("alpha", "positions"),
    "nodes": ("alpha", "nodes", "span", "min_gap", "placement_seed"),
}
ACTIVITY_KEYS = {
    IID_MODE: ("mode", "p_avail"),
    SPATIAL_MODE: ("mode", "rho_p", "p_active", "d0", "strip_width"),
}
ACTIVITY_REQUIRED = {IID_MODE: ("p_avail",), SPATIAL_MODE: ("rho_p", "p_active", "d0")}
BUDGET_KEYS = ("P0_dB", "P0")
# The largest linear power budget (1000 dB).  Calibration squares per-episode
# energies, and a budget of 1e160 already overflows them.
MAX_P0 = 1e100
SOLVER_KEYS = ("mc_samples", "episodes", "power_tolerance", "p_max_factor", "p_floor_factor")
MASTER_KEYS = ("max_iterations", "step_a", "step_b", "tie_tolerance", "objective_tolerance",
               "window", "pair_prob_cutoff")
SIM_KEYS = ("epochs", "baseline_warmup", "prob_samples")
OUTPUT_KEYS = ("rate_units",)
# The section and key where each sweep grid key writes a point's value:
# ``p_block`` writes 1 - p_block, a budget key replaces the budget, and
# ``nodes`` replaces ``positions``.  An activity key must be one its mode reads.
GRID_KEYS = {"p0_db": ("budget", "P0_dB"), "p0": ("budget", "P0"), "nodes": ("model", "nodes"),
             "alpha": ("model", "alpha"), "p_avail": ("activity", "p_avail"),
             "p_block": ("activity", "p_avail")}


@dataclass(frozen=True)
class ExperimentConfig:
    spec: StudySpec
    schemes: tuple[str, ...] = SCHEMES
    grid: dict[str, tuple[float, ...]] = field(default_factory=dict)
    rate_units: str = "nats"

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ConfigError("key 'schemes' needs at least one scheme")
        for i, s in enumerate(self.schemes):
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}")
            if s in self.schemes[:i]:
                raise ConfigError(f"key 'schemes' names scheme {s!r} twice")
        if self.rate_units not in ("nats", "bits"):
            raise ConfigError(f"unknown rate units {self.rate_units!r}")

    def scale(self, value: float) -> float:
        """Rates are computed in nats; optionally reported in bits."""
        return value / LN2 if self.rate_units == "bits" else value

    def row(self, point: dict, m: RunMetrics, master: MasterSolution | None) -> dict:
        """One output row: the grid point's values, then the scheme's results,
        rates in the configured units.  The master columns stay blank for
        runs against stored tables."""
        row = {key: getattr(m, key) for key in METRIC_COLUMNS}
        for key, attr in MASTER_COLUMNS.items():
            row[key] = "" if master is None else getattr(master, attr)
        for key in RATE_COLUMNS:
            if row[key] != "":
                row[key] = self.scale(row[key])
        return {**point, **row}


def _section(raw: dict, key: str, name: str | None = None) -> dict:
    """Sub-section ``key`` of ``raw``; an absent one is empty."""
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name or key!r} must be an object")
    return value


def _check_keys(
    raw: dict, section: str, known: Sequence[str], required: Sequence[str] = ()
) -> None:
    """Refuse keys that parsing would otherwise ignore, and absent required ones."""
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in config section {section!r}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"missing {key!r} in config section {section!r}")


def _scalar(kind: type, value):
    """``value`` as ``kind``; a number field refuses booleans, non-finite
    values and, for an int, fractions."""
    if kind in (int, float) and (isinstance(value, bool) or not math.isfinite(float(value))
                                 or kind is int and not float(value).is_integer()):
        raise ValueError("not a finite number of the field's type")
    return kind(value)


def _convert(hint, raw: dict, section: str, key: str):
    """``raw[key]`` as the type ``hint``: a scalar type, ``tuple[T, ...]`` or ``T | None``."""
    value = raw[key]
    try:
        if type(None) in get_args(hint):
            if value is None:
                return None
            hint = get_args(hint)[0]
        if get_origin(hint) is tuple:
            if not isinstance(value, (list, tuple)):
                raise TypeError("not a list")
            return tuple(_scalar(get_args(hint)[0], v) for v in value)
        return _scalar(hint, value)
    except (TypeError, ValueError, OverflowError) as exc:
        name = f"a list of {get_args(hint)[0].__name__}" if get_origin(hint) else hint.__name__
        raise ConfigError(
            f"key {key!r} in config section {section!r} must be {name}, not {value!r}"
        ) from exc


def _fields(cls, raw: dict, section: str, keys: Sequence[str]) -> dict:
    """The present ``keys`` of ``raw``, each converted to the type of the
    dataclass field of ``cls`` that it sets."""
    hints = get_type_hints(cls)
    return {key: _convert(hints[key], raw, section, key) for key in keys if key in raw}


def _build(cls, raw: dict, section: str, keys: Sequence[str], required: Sequence[str] = (),
           **fixed):
    """Dataclass ``cls`` from one config section whose ``keys`` set its fields
    of the same names; an absent key leaves its field at the default."""
    _check_keys(raw, section, keys, required)
    values = _fields(cls, raw, section, keys)
    try:
        return cls(**values, **fixed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(raw: dict) -> ExperimentConfig:
    _check_keys(raw, "<root>", ROOT_KEYS)
    if raw.get("version") != CONFIG_VERSION or isinstance(raw["version"], bool):
        raise ConfigError(f"unsupported config version {raw.get('version')!r}")

    model = _section(raw, "model")
    recipe = next((key for key in ROUTE_KEYS if key in model), None)
    if recipe is None:
        raise ConfigError("model needs 'positions' or 'nodes'")
    route = _build(RouteSpec, model, "model", ROUTE_KEYS[recipe])

    act_raw = dict(_section(raw, "activity"))
    # An epoch is one frame: the simulator draws availability once per
    # delivery.  The key stays accepted at its only meaningful value.
    if _convert(int, {"epoch_frames": 1, **act_raw}, "activity", "epoch_frames") != 1:
        raise ConfigError("activity.epoch_frames must be 1: every epoch is one frame")
    act_raw.pop("epoch_frames", None)
    mode = act_raw.get("mode", PuActivityModel.mode)
    if mode not in (IID_MODE, SPATIAL_MODE):
        raise ConfigError(f"unknown activity mode {mode!r}")
    activity = _build(PuActivityModel, act_raw, "activity", ACTIVITY_KEYS[mode],
                      ACTIVITY_REQUIRED[mode])

    budget = _section(raw, "budget")
    _check_keys(budget, "budget", BUDGET_KEYS)
    if len(budget) != 1:
        raise ConfigError("budget needs exactly one of 'P0_dB' or 'P0'")
    key = next(iter(budget))
    value = _convert(float, budget, "budget", key)
    p0 = value if key == "P0" else db_to_linear(value)
    if p0 > MAX_P0:
        raise ConfigError(f"budget {key} {value:g} is above the largest power budget, "
                          f"{MAX_P0:g} (1000 dB)")

    solver_raw = dict(_section(raw, "solver"))
    master_raw = _section(solver_raw, "master", "solver.master")
    solver_raw.pop("master", None)
    solver = _build(SolverOptions, solver_raw, "solver", SOLVER_KEYS,
                    master=_build(MasterOptions, master_raw, "solver.master", MASTER_KEYS))
    spec = _build(StudySpec, _section(raw, "sim"), "sim", SIM_KEYS, route=route,
                  activity=activity, p0=p0, solver=solver,
                  **_fields(StudySpec, raw, "<root>", ("seed",)))

    sweep = _section(raw, "sweep")
    _check_keys(sweep, "sweep", ("grid",))
    grid_raw = _section(sweep, "grid", "sweep.grid")
    _check_keys(grid_raw, "sweep.grid", GRID_KEYS)
    grid = {key: _convert(tuple[float, ...], grid_raw, "sweep.grid", key) for key in grid_raw}
    writers: dict[str, str] = {}  # the grid key that writes each target
    for key, values in grid.items():
        section, target = GRID_KEYS[key]
        # A budget key replaces the whole budget, so the two collide.
        slot = "the budget" if section == "budget" else f"{section}.{target}"
        if (other := writers.setdefault(slot, key)) != key:
            raise ConfigError(f"grid keys {other!r} and {key!r} both set {slot}")
        if section == "activity" and target not in ACTIVITY_KEYS[mode]:
            raise ConfigError(f"grid key {key!r} sets {target}, which mode {mode!r} does not read")
        if not values:
            raise ConfigError(f"grid key {key!r} in config section 'sweep.grid' has no values")
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"grid key {key!r} in config section 'sweep.grid' repeats "
                                  f"the value {value:g}")
    return _build(ExperimentConfig, _section(raw, "output"), "output", OUTPUT_KEYS,
                  spec=spec, grid=grid, **_fields(ExperimentConfig, raw, "<root>", ("schemes",)))


def _echo(obj, keys: Sequence[str]) -> dict:
    """The attributes ``keys`` of ``obj``, tuples as lists."""
    values = {key: getattr(obj, key) for key in keys}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


def config_to_payload(cfg: ExperimentConfig) -> dict:
    """Canonical echo of a parsed config; parsing it again is the identity."""
    spec = cfg.spec
    route, solver = spec.route, spec.solver
    recipe = "positions" if route.positions is not None else "nodes"
    return {
        "version": CONFIG_VERSION,
        "seed": spec.seed,
        "model": _echo(route, ROUTE_KEYS[recipe]),
        # "epoch_frames" stays in the echo: it keeps config hashes, and with
        # them artifacts calibrated by earlier versions, valid.
        "activity": {**_echo(spec.activity, ACTIVITY_KEYS[spec.activity.mode]),
                     "epoch_frames": 1},
        "budget": {"P0": spec.p0},
        "schemes": list(cfg.schemes),
        "solver": {**_echo(solver, SOLVER_KEYS), "master": _echo(solver.master, MASTER_KEYS)},
        "sim": _echo(spec, SIM_KEYS),
        "sweep": {"grid": {k: list(v) for k, v in sorted(cfg.grid.items())}},
        "output": _echo(cfg, OUTPUT_KEYS),
    }


def _digest(cfg: ExperimentConfig, payload: dict) -> str:
    if cfg.spec.activity.mode == SPATIAL_MODE:
        # Spatial digests name the closed-form segment table, so that sweep
        # markers and artifacts holding rows of the Monte-Carlo table that
        # preceded it are not reused.  Iid tables were always closed form.
        payload = {**payload, "segment_table": "closed-form"}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def config_hash(cfg: ExperimentConfig) -> str:
    return _digest(cfg, config_to_payload(cfg))


def calibration_hash(cfg: ExperimentConfig) -> str:
    """Hash of what calibration reads, guarding its artifacts: the canonical
    payload without ``schemes``, ``sweep``, ``output`` and ``sim``.  Segment
    probabilities are closed form, so no ``sim`` key reaches calibration."""
    payload = config_to_payload(cfg)
    for key in ("schemes", "sweep", "output", "sim"):
        del payload[key]
    return _digest(cfg, payload)


def read_config(path: Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return raw


def load_config(path: Path) -> ExperimentConfig:
    return parse_config(read_config(path))


def grid_points(grid: dict[str, Sequence[float]]) -> list[dict[str, float]]:
    """Cartesian product of the grid in deterministic key order; an empty
    grid has no points."""
    keys = sorted(grid)
    combos = itertools.product(*(grid[k] for k in keys)) if keys else ()
    return [dict(zip(keys, combo)) for combo in combos]


def point_config(cfg: ExperimentConfig, point: dict[str, float]) -> ExperimentConfig:
    """``cfg``'s document with the point's values written where ``GRID_KEYS``
    says, parsed again, under a seed derived from the point's content."""
    raw = config_to_payload(cfg)
    for key, value in point.items():
        section, target = GRID_KEYS[key]
        if section == "budget":
            raw["budget"] = {}
        if key == "nodes":
            raw["model"].pop("positions", None)
        raw[section][target] = 1.0 - value if key == "p_block" else value
    tag = ",".join(f"{k}={point[k]:.10g}" for k in sorted(point))
    raw["seed"] = int(stream(cfg.spec.seed, "sweep-point", tag).integers(0, 2**63 - 1))
    return parse_config(raw)


# ---------------------------------------------------------------------------
# The study-point pipeline: every command that calibrates runs ``_solve``,
# and every command that simulates runs ``_run_schemes``.  Both read the
# point's route and segment table from its spec.
# ---------------------------------------------------------------------------


def _solve(spec: StudySpec, threads: int = 1, where: str = "") -> MasterSolution:
    """Allocate the budget and calibrate every pair above the cutoff, check
    the offline footprint, and warn on stderr, each line prefixed by
    ``where``, of every pair not converged or with budget slack."""
    topology = spec.topology()
    solution = solve_master(
        RateModel(topology, spec.seed, spec.solver, threads), spec.pair_probabilities, spec.p0,
        topology.last_index, spec.solver.master,
    )
    node_count = topology.node_count
    for pair, policy in sorted(solution.policies.items()):
        if policy.table.entries > node_count:
            raise AssertionError(f"offline table for pair {pair} holds {policy.table.entries} "
                                 f"entries, more than the node count {node_count}")
        if not policy.report.converged:
            print(f"warning: {where}pair {pair}: calibration did not converge; the best "
                  "feasible multiplier found is used", file=sys.stderr)
        if policy.report.budget_slack:
            print(f"warning: {where}pair {pair}: budget slack; the power cap binds before "
                  "its budget share does", file=sys.stderr)
    total_entries = sum(policy.table.entries for policy in solution.policies.values())
    if total_entries > node_count**3:
        raise AssertionError(f"total offline table size {total_entries} exceeds the cubic "
                             f"bound {node_count ** 3}")
    return solution


def _run_schemes(spec: StudySpec, schemes: Sequence[str],
                 policies: Callable[[], dict[Pair, CalibratedPolicy]]) -> dict[str, RunMetrics]:
    """Each scheme's metrics on one draw of the spec's epochs, in order;
    ``policies()`` is called when ``proposed`` is reached, so a run without
    it never reads them."""
    activity = spec.epoch_activity()
    metrics = {}
    for scheme in schemes:
        if scheme == "proposed":
            metrics[scheme] = run_proposed(spec, policies(), activity)
        else:
            metrics[scheme] = run_baseline(scheme, spec, activity)
    return metrics


@dataclass(frozen=True)
class StudyResult:
    spec: StudySpec
    master: MasterSolution
    metrics: dict[str, RunMetrics]


def run_point(spec: StudySpec, schemes: Sequence[str], where: str = "") -> StudyResult:
    """Calibrate and simulate every requested scheme at one study point."""
    master = _solve(spec, where=where)
    metrics = _run_schemes(spec, schemes, lambda: master.policies)
    return StudyResult(spec, master, metrics)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _pair_artifact_path(out: Path, pair: tuple[int, int]) -> Path:
    return out / "policies" / f"pair_{pair[0]:02d}_{pair[1]:02d}.json"


def cmd_calibrate(cfg: ExperimentConfig, out: Path, threads: int = 1) -> int:
    started = time.perf_counter()
    spec = cfg.spec
    if all(v <= spec.solver.master.pair_prob_cutoff for v in spec.pair_probabilities.values()):
        print("warning: no pair clears the probability cutoff; nothing to calibrate",
              file=sys.stderr)
        atomic_write_json(
            out / "calibration_manifest.json",
            {
                "format_version": 1,
                "config_hash": calibration_hash(cfg),
                "pairs": [],
                "table_entries_total": 0,
            },
        )
        return 0
    solution = _solve(spec, threads)
    for pair, policy in sorted(solution.policies.items()):
        payload = policy_to_payload(
            policy, seed_path=path_fingerprint(*pair_seed_path(spec.seed, pair))
        )
        atomic_write_json(_pair_artifact_path(out, pair), payload)
    node_count = spec.topology().node_count
    total_entries = sum(policy.table.entries for policy in solution.policies.values())
    atomic_write_json(out / "master.json", solution_to_payload(solution, spec.pair_probabilities))
    atomic_write_json(
        out / "calibration_manifest.json",
        {
            "format_version": 1,
            "config_hash": calibration_hash(cfg),
            "seed": spec.seed,
            "pairs": [list(p) for p in sorted(solution.policies)],
            "table_entries_total": total_entries,
            "table_entries_bound": node_count**3,
            "objective": cfg.scale(solution.best_objective),
        },
    )
    print(
        f"calibrated {len(solution.policies)} pairs in {time.perf_counter() - started:.1f}s; "
        f"offline tables hold {total_entries} values (bound {node_count ** 3}); "
        f"objective {cfg.scale(solution.best_objective):.6g}"
    )
    return 0


def _read_artifact(path: Path) -> dict:
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactMismatchError(f"{path} is not valid JSON ({exc}); re-run calibrate") from exc
    if not isinstance(document, dict):
        raise ArtifactMismatchError(f"{path} is not a JSON object; re-run calibrate")
    return document


def _malformed(path: Path, exc: Exception) -> ArtifactMismatchError:
    reason = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return ArtifactMismatchError(f"{path}: {reason}; re-run calibrate")


def _load_policies(cfg: ExperimentConfig, artifacts: Path) -> dict:
    """Every calibrated pair's policy; an artifact that is missing, cannot
    be read, or does not match the configuration is an ArtifactMismatchError."""
    spec = cfg.spec
    manifest_path = artifacts / "calibration_manifest.json"
    if not manifest_path.exists():
        raise ArtifactMismatchError(f"no calibration manifest under {artifacts}")
    manifest = _read_artifact(manifest_path)
    try:
        stale = manifest["config_hash"] != calibration_hash(cfg)
        pairs = [(int(i), int(j)) for i, j in manifest["pairs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed(manifest_path, exc) from exc
    if stale:
        raise ArtifactMismatchError(
            "artifacts were calibrated for a different configuration; re-run calibrate"
        )
    policies = {}
    for pair in pairs:
        path = _pair_artifact_path(artifacts, pair)
        if not path.exists():
            raise ArtifactMismatchError(f"missing policy artifact for pair {pair}: {path}")
        payload = _read_artifact(path)
        try:
            problem = pair_problem(spec.topology(), pair, float(payload["pbar"]), spec.solver)
            policies[pair] = policy_from_payload(payload, problem)
        except (KeyError, TypeError, ValueError) as exc:
            raise _malformed(path, exc) from exc
    return policies


def cmd_simulate(cfg: ExperimentConfig, out: Path, artifacts: Path) -> int:
    started = time.perf_counter()
    metrics = _run_schemes(cfg.spec, cfg.schemes, lambda: _load_policies(cfg, artifacts))
    rows = [cfg.row({}, metrics[scheme], None) for scheme in cfg.schemes]
    write_csv(out / "results.csv", RESULT_COLUMNS, rows)
    atomic_write_json(
        out / "run_manifest.json",
        {
            "format_version": 1,
            "config_hash": config_hash(cfg),
            "config": config_to_payload(cfg),
            "schemes": list(cfg.schemes),
            "rate_units": cfg.rate_units,
            "rows": len(rows),
            "wall_seconds": time.perf_counter() - started,
        },
    )
    print(f"simulated {len(rows)} scheme rows -> {out / 'results.csv'}")
    return 0


def _stored_rows(marker: Path, digest: str) -> list[dict] | None:
    """The rows of a completed sweep point's marker; ``None`` when the marker
    is absent, unreadable, or not a JSON object with config hash ``digest``
    and a list of row objects, so that the point runs again."""
    try:
        stored = json.loads(marker.read_text())
        rows = stored["rows"] if stored["config_hash"] == digest else None
    except (OSError, ValueError, TypeError, KeyError):
        return None
    return rows if isinstance(rows, list) and all(isinstance(r, dict) for r in rows) else None


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> int:
    points = grid_points(cfg.grid)
    specs = []
    for idx, point in enumerate(points):  # refuse a bad point before any point runs
        try:
            specs.append(point_config(cfg, point).spec)
        except ConfigError as exc:
            raise ConfigError(f"sweep point {idx:04d} {point}: {exc}") from exc
    columns = tuple(sorted(cfg.grid)) + tuple(c for c in RESULT_COLUMNS if c not in cfg.grid)
    digest = config_hash(cfg)
    rows: list[dict] = []
    failures: list[dict] = []
    for idx, (point, spec) in enumerate(zip(points, specs)):
        marker = out / "sweep_points" / f"point_{idx:04d}.json"
        stored = _stored_rows(marker, digest)
        if stored is not None:
            rows.extend(stored)
            continue
        try:
            result = run_point(spec, cfg.schemes, f"point {idx:04d}: ")
            point_rows = [
                cfg.row(point, result.metrics[scheme], result.master) for scheme in cfg.schemes
            ]
        except Exception as exc:  # noqa: BLE001 - aggregate and continue
            failures.append({"point": point, "error": f"{type(exc).__name__}: {exc}"})
            continue
        atomic_write_json(marker, {"config_hash": digest, "point": point, "rows": point_rows})
        rows.extend(point_rows)
    write_csv(out / "sweep.csv", columns, rows)
    atomic_write_json(
        out / "sweep_report.json",
        {
            "format_version": 1,
            "points": len(points),
            "completed": len(points) - len(failures),
            "failures": failures,
            "config_hash": digest,
        },
    )
    print(f"sweep: {len(points) - len(failures)}/{len(points)} points -> {out / 'sweep.csv'}")
    return 0 if not failures else 1


def cmd_verify(out: Path, seed: int) -> int:
    report = oracle.run_verification_suite(seed)
    atomic_write_json(out / "verify_report.json", report)
    for result in report["results"]:
        status = "pass" if result["passed"] else "FAIL"
        print(f"[{status}] {result['check']}: {result['detail']}")
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_grid_flag(text: str) -> tuple[str, tuple[float, ...]]:
    try:
        key, spec = text.split("=", 1)
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad --grid value {text!r}; expected KEY=START:STOP:STEP") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"--grid key {key!r}: START, STOP and STEP must be finite")
    if step <= 0:
        raise ConfigError("grid step must be positive")
    values = []
    v = start
    while v <= stop + 1e-9:
        values.append(round(v, 12))
        v += step
    return key, tuple(values)


def non_negative_int(text: str) -> int:
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {value}")
    return value


def positive_int(text: str) -> int:
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogrelay",
        description="Calibrate, simulate, sweep and verify cognitive relay experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_config: bool = True) -> None:
        if needs_config:
            p.add_argument("--config", type=Path, required=True, help="experiment JSON")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument(
            "--seed", type=non_negative_int, default=None, help="override the config seed"
        )

    cal = sub.add_parser("calibrate", help="solve the master problem and persist offline tables")
    common(cal)
    cal.add_argument("--threads", type=positive_int, default=1, help="parallel pair calibrations")

    simp = sub.add_parser("simulate", help="run schemes against persisted offline tables")
    common(simp)
    simp.add_argument(
        "--artifacts", type=Path, default=None, help="calibration output dir (default: --out)"
    )
    simp.add_argument("--scheme", action="append", default=None, help="scheme (repeatable)")

    swp = sub.add_parser("sweep", help="calibrate+simulate over a parameter grid")
    common(swp)
    swp.add_argument(
        "--grid", action="append", default=[], help="KEY=START:STOP:STEP (repeatable)"
    )
    swp.add_argument("--scheme", action="append", default=None, help="scheme (repeatable)")

    ver = sub.add_parser("verify", help="run the brute-force verification suite")
    common(ver, needs_config=False)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            seed = oracle.VERIFY_SEED if args.seed is None else args.seed
            return cmd_verify(args.out, seed)
        raw = read_config(args.config)  # the flags are written in, to be checked as keys
        if args.seed is not None:
            raw["seed"] = args.seed
        if getattr(args, "scheme", None):
            raw["schemes"] = args.scheme
        if getattr(args, "grid", None):
            sweep = _section(raw, "sweep")
            flags = dict(map(_parse_grid_flag, args.grid))
            raw["sweep"] = {**sweep, "grid": {**_section(sweep, "grid", "sweep.grid"), **flags}}
        cfg = parse_config(raw)
        if args.command == "calibrate":
            return cmd_calibrate(cfg, args.out, threads=args.threads)
        if args.command == "simulate":
            artifacts = args.artifacts if args.artifacts is not None else args.out
            return cmd_simulate(cfg, args.out, artifacts)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, ArtifactMismatchError, CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CalibrationError as exc:
        print(f"error: calibration failed: {exc}", file=sys.stderr)
        for key, value in sorted(exc.diagnostics.items()):
            print(f"  {key}: {value}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
