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
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from . import oracle
from .master import (
    MasterOptions,
    MasterSolution,
    RateModel,
    pair_problem,
    solution_to_payload,
    solve_master,
)
from .model import IID_MODE, SPATIAL_MODE, PuActivityModel
from .seeding import path_fingerprint
from .sim import (
    GRID_KEYS,
    SCHEMES,
    CoverageError,
    RouteSpec,
    RunMetrics,
    SolverOptions,
    StudySpec,
    grid_points,
    metrics_row,
    point_spec,
    run_baseline,
    run_proposed,
)
from .subpolicy import CalibrationError, policy_from_payload, policy_to_payload

CONFIG_VERSION = 1
LN2 = math.log(2.0)

RESULT_COLUMNS = (
    "scheme",
    "u_min",
    "u_weighted",
    "u_empirical",
    "u_empirical_se",
    "total_power",
    "p0",
    "epochs",
    "seed",
    "master_objective",
    "master_iterations",
)
RATE_COLUMNS = ("u_min", "u_weighted", "u_empirical", "u_empirical_se", "master_objective")

VERIFY_REPORT_SCHEMA = {
    "type": "object",
    "required": ["format_version", "seed", "results", "all_passed"],
    "properties": {
        "format_version": {"type": "integer"},
        "seed": {"type": "integer"},
        "all_passed": {"type": "boolean"},
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["check", "passed", "detail"],
                "properties": {
                    "check": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "detail": {"type": "string"},
                },
            },
        },
    },
}


class ConfigError(ValueError):
    pass


class ArtifactMismatchError(RuntimeError):
    pass


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    if x <= 0.0:
        raise ValueError("only positive powers have a dB value")
    return 10.0 * math.log10(x)


def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, columns: Sequence[str], rows: Sequence[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            writer = csv.DictWriter(
                handle, fieldnames=list(columns), lineterminator="\r\n"
            )
            writer.writeheader()
            for row in rows:
                writer.writerow({k: row.get(k, "") for k in columns})
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    spec: StudySpec
    schemes: tuple[str, ...]
    grid: dict[str, tuple[float, ...]]
    rate_units: str

    def scale(self, value: float) -> float:
        """Rates are computed in nats; optionally reported in bits."""
        return value / LN2 if self.rate_units == "bits" else value

    def row(self, point: dict, metrics: RunMetrics, master: MasterSolution | None) -> dict:
        """``metrics_row`` with its rate columns in the configured units."""
        row = metrics_row(point, metrics, master)
        for key in RATE_COLUMNS:
            if row[key] != "":
                row[key] = self.scale(row[key])
        return row


def _require(raw: dict, key: str, section: str) -> object:
    if key not in raw:
        raise ConfigError(f"missing {key!r} in config section {section!r}")
    return raw[key]


def _check_keys(raw: dict, section: str, known: Sequence[str]) -> None:
    """Refuse keys that parsing would otherwise ignore."""
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in config section {section!r}")


def parse_config(raw: dict) -> ExperimentConfig:
    if raw.get("version") != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {raw.get('version')!r}")
    _check_keys(raw, "<root>", ("version", "seed", "model", "activity", "budget", "schemes",
                                "solver", "sim", "sweep", "output"))

    model_raw = dict(_require(raw, "model", "<root>"))
    alpha = float(model_raw.get("alpha", 2.0))
    if "positions" in model_raw:
        _check_keys(model_raw, "model", ("alpha", "positions"))
        route = RouteSpec(alpha=alpha, positions=tuple(float(x) for x in model_raw["positions"]))
    elif "nodes" in model_raw:
        _check_keys(model_raw, "model", ("alpha", "nodes", "span", "min_gap", "placement_seed"))
        route = RouteSpec(
            alpha=alpha,
            nodes=int(model_raw["nodes"]),
            span=float(model_raw.get("span", 5.0)),
            min_gap=float(model_raw.get("min_gap", 0.25)),
            placement_seed=int(model_raw.get("placement_seed", 7)),
        )
    else:
        raise ConfigError("model needs 'positions' or 'nodes'")

    act_raw = dict(_require(raw, "activity", "<root>"))
    mode = act_raw.get("mode", IID_MODE)
    if mode == IID_MODE:
        _check_keys(act_raw, "activity", ("mode", "p_avail", "epoch_frames"))
        activity = PuActivityModel(
            mode=IID_MODE,
            p_avail=float(_require(act_raw, "p_avail", "activity")),
        )
    elif mode == SPATIAL_MODE:
        _check_keys(act_raw, "activity",
                    ("mode", "rho_p", "p_active", "d0", "strip_width", "epoch_frames"))
        activity = PuActivityModel(
            mode=SPATIAL_MODE,
            rho_p=float(_require(act_raw, "rho_p", "activity")),
            p_active=float(_require(act_raw, "p_active", "activity")),
            d0=float(_require(act_raw, "d0", "activity")),
            strip_width=float(act_raw.get("strip_width", 0.0)),
        )
    else:
        raise ConfigError(f"unknown activity mode {mode!r}")
    # An epoch is one frame: the simulator draws availability once per
    # delivery.  The key stays accepted at its only meaningful value.
    if act_raw.get("epoch_frames", 1) != 1:
        raise ConfigError("activity.epoch_frames must be 1: every epoch is one frame")

    budget = dict(_require(raw, "budget", "<root>"))
    _check_keys(budget, "budget", ("P0_dB", "P0"))
    if ("P0_dB" in budget) == ("P0" in budget):
        raise ConfigError("budget needs exactly one of 'P0_dB' or 'P0'")
    p0 = db_to_linear(float(budget["P0_dB"])) if "P0_dB" in budget else float(budget["P0"])

    solver_raw = dict(raw.get("solver", {}))
    _check_keys(solver_raw, "solver", ("mc_samples", "episodes", "power_tolerance",
                                       "p_max_factor", "p_floor_factor", "master"))
    master_raw = dict(solver_raw.get("master", {}))
    _check_keys(master_raw, "solver.master", ("max_iterations", "step_a", "step_b",
                                              "tie_tolerance", "objective_tolerance", "window",
                                              "pair_prob_cutoff"))
    master = MasterOptions(
        max_iterations=int(master_raw.get("max_iterations", 40)),
        step_a=master_raw.get("step_a"),
        step_b=float(master_raw.get("step_b", 5.0)),
        tie_tolerance=float(master_raw.get("tie_tolerance", 1e-2)),
        objective_tolerance=float(master_raw.get("objective_tolerance", 1e-3)),
        window=int(master_raw.get("window", 10)),
        pair_prob_cutoff=float(master_raw.get("pair_prob_cutoff", 1e-6)),
    )
    solver = SolverOptions(
        mc_samples=int(solver_raw.get("mc_samples", 2000)),
        episodes=int(solver_raw.get("episodes", 2000)),
        power_tolerance=float(solver_raw.get("power_tolerance", 1e-2)),
        p_max_factor=float(solver_raw.get("p_max_factor", 100.0)),
        p_floor_factor=float(solver_raw.get("p_floor_factor", 1e-6)),
        master=master,
    )

    sim_raw = dict(raw.get("sim", {}))
    _check_keys(sim_raw, "sim", ("epochs", "episodes_per_segment", "baseline_warmup",
                                 "prob_samples"))
    spec = StudySpec(
        route=route,
        activity=activity,
        p0=p0,
        epochs=int(sim_raw.get("epochs", 2000)),
        episodes_per_segment=int(sim_raw.get("episodes_per_segment", 1)),
        baseline_warmup=int(sim_raw.get("baseline_warmup", 16)),
        prob_samples=int(sim_raw.get("prob_samples", 100_000)),
        seed=int(raw.get("seed", 0)),
        solver=solver,
    )

    schemes = tuple(raw.get("schemes", list(SCHEMES)))
    for s in schemes:
        if s not in SCHEMES:
            raise ConfigError(f"unknown scheme {s!r}")

    sweep_raw = dict(raw.get("sweep", {}))
    _check_keys(sweep_raw, "sweep", ("grid",))
    grid_raw = dict(sweep_raw.get("grid", {}))
    _check_keys(grid_raw, "sweep.grid", GRID_KEYS)
    grid = {str(k): tuple(float(v) for v in vals) for k, vals in grid_raw.items()}

    output_raw = dict(raw.get("output", {}))
    _check_keys(output_raw, "output", ("rate_units",))
    units = str(output_raw.get("rate_units", "nats"))
    if units not in ("nats", "bits"):
        raise ConfigError(f"unknown rate units {units!r}")
    return ExperimentConfig(spec=spec, schemes=schemes, grid=grid, rate_units=units)


def config_to_payload(cfg: ExperimentConfig) -> dict:
    """Canonical echo of a parsed config; parsing it again is the identity."""
    spec = cfg.spec
    model: dict = {"alpha": spec.route.alpha}
    if spec.route.positions is not None:
        model["positions"] = list(spec.route.positions)
    else:
        model.update(
            nodes=spec.route.nodes,
            span=spec.route.span,
            min_gap=spec.route.min_gap,
            placement_seed=spec.route.placement_seed,
        )
    act = spec.activity
    # "epoch_frames" stays in the echo: it keeps config hashes, and with them
    # artifacts calibrated by earlier versions, valid.
    if act.mode == IID_MODE:
        activity = {"mode": act.mode, "p_avail": act.p_avail, "epoch_frames": 1}
    else:
        activity = {
            "mode": act.mode,
            "rho_p": act.rho_p,
            "p_active": act.p_active,
            "d0": act.d0,
            "strip_width": act.strip_width,
            "epoch_frames": 1,
        }
    m = spec.solver.master
    return {
        "version": CONFIG_VERSION,
        "seed": spec.seed,
        "model": model,
        "activity": activity,
        "budget": {"P0": spec.p0},
        "schemes": list(cfg.schemes),
        "solver": {
            "mc_samples": spec.solver.mc_samples,
            "episodes": spec.solver.episodes,
            "power_tolerance": spec.solver.power_tolerance,
            "p_max_factor": spec.solver.p_max_factor,
            "p_floor_factor": spec.solver.p_floor_factor,
            "master": {
                "max_iterations": m.max_iterations,
                "step_a": m.step_a,
                "step_b": m.step_b,
                "tie_tolerance": m.tie_tolerance,
                "objective_tolerance": m.objective_tolerance,
                "window": m.window,
                "pair_prob_cutoff": m.pair_prob_cutoff,
            },
        },
        "sim": {
            "epochs": spec.epochs,
            "episodes_per_segment": spec.episodes_per_segment,
            "baseline_warmup": spec.baseline_warmup,
            "prob_samples": spec.prob_samples,
        },
        "sweep": {"grid": {k: list(v) for k, v in sorted(cfg.grid.items())}},
        "output": {"rate_units": cfg.rate_units},
    }


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(config_to_payload(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def load_config(path: Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _pair_artifact_path(out: Path, pair: tuple[int, int]) -> Path:
    return out / "policies" / f"pair_{pair[0]:02d}_{pair[1]:02d}.json"


def cmd_calibrate(cfg: ExperimentConfig, out: Path, threads: int = 1) -> int:
    spec = cfg.spec
    topology = spec.topology()
    prob_table = spec.pair_probabilities(topology)
    cutoff = spec.solver.master.pair_prob_cutoff
    eligible = {p: v for p, v in prob_table.items() if v > cutoff}
    if not eligible:
        print("warning: no pair clears the probability cutoff; nothing to calibrate")
        atomic_write_json(
            out / "calibration_manifest.json",
            {
                "format_version": 1,
                "config_hash": config_hash(cfg),
                "pairs": [],
                "table_entries_total": 0,
            },
        )
        return 0
    rate_model = RateModel(
        topology,
        root_seed=spec.seed,
        mc_samples=spec.solver.mc_samples,
        episodes=spec.solver.episodes,
        power_tolerance=spec.solver.power_tolerance,
        p_max_factor=spec.solver.p_max_factor,
        p_floor_factor=spec.solver.p_floor_factor,
        threads=threads,
    )
    started = time.time()
    try:
        solution = solve_master(
            rate_model, eligible, spec.p0, topology.last_index, spec.solver.master
        )
    except CalibrationError as exc:
        print(f"calibration failed: {exc}")
        for key, value in sorted(exc.diagnostics.items()):
            print(f"  {key}: {value}")
        return 1

    node_count = topology.node_count
    total_entries = 0
    for pair, evaluation in sorted(solution.evaluations.items()):
        entries = evaluation.policy.table.entries
        if entries > node_count:
            raise AssertionError(
                f"offline table for pair {pair} holds {entries} entries, "
                f"more than the node count {node_count}"
            )
        total_entries += entries
        payload = policy_to_payload(
            evaluation.policy,
            seed_path=path_fingerprint(spec.seed, "pair", pair[0], pair[1]),
        )
        atomic_write_json(_pair_artifact_path(out, pair), payload)
    if total_entries > node_count**3:
        raise AssertionError(
            f"total offline table size {total_entries} exceeds the cubic bound "
            f"{node_count ** 3}"
        )
    atomic_write_json(out / "master.json", solution_to_payload(solution, eligible))
    atomic_write_json(
        out / "calibration_manifest.json",
        {
            "format_version": 1,
            "config_hash": config_hash(cfg),
            "seed": spec.seed,
            "pairs": [list(p) for p in sorted(solution.evaluations)],
            "table_entries_total": total_entries,
            "table_entries_bound": node_count**3,
            "objective": cfg.scale(solution.best_objective),
        },
    )
    print(
        f"calibrated {len(solution.evaluations)} pairs in {time.time() - started:.1f}s; "
        f"offline tables hold {total_entries} values (bound {node_count ** 3}); "
        f"objective {cfg.scale(solution.best_objective):.6g}"
    )
    return 0


def _load_policies(cfg: ExperimentConfig, artifacts: Path, topology) -> dict:
    manifest_path = artifacts / "calibration_manifest.json"
    if not manifest_path.exists():
        raise ArtifactMismatchError(f"no calibration manifest under {artifacts}")
    manifest = json.loads(manifest_path.read_text())
    if manifest["config_hash"] != config_hash(cfg):
        raise ArtifactMismatchError(
            "artifacts were calibrated for a different configuration; re-run calibrate"
        )
    solver = cfg.spec.solver
    policies = {}
    for raw_pair in manifest["pairs"]:
        pair = (int(raw_pair[0]), int(raw_pair[1]))
        path = _pair_artifact_path(artifacts, pair)
        if not path.exists():
            raise ArtifactMismatchError(f"missing policy artifact for pair {pair}: {path}")
        payload = json.loads(path.read_text())
        problem = pair_problem(
            topology, pair, float(payload["pbar"]), solver.mc_samples, solver.episodes,
            solver.p_max_factor, solver.p_floor_factor,
        )
        policies[pair] = policy_from_payload(payload, problem)
    return policies


def cmd_simulate(cfg: ExperimentConfig, out: Path, artifacts: Path) -> int:
    spec = cfg.spec
    topology = spec.topology()
    prob_table = spec.pair_probabilities(topology)
    started = time.time()
    rows = []
    policies = None
    for scheme in cfg.schemes:
        if scheme == "proposed":
            if policies is None:
                policies = _load_policies(cfg, artifacts, topology)
            metrics = run_proposed(spec, policies, prob_table, topology)
        else:
            metrics = run_baseline(scheme, spec, prob_table, topology)
        rows.append(cfg.row({}, metrics, None))
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
            "wall_seconds": time.time() - started,
        },
    )
    print(f"simulated {len(rows)} scheme rows -> {out / 'results.csv'}")
    return 0


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> int:
    if not cfg.grid:
        write_csv(out / "sweep.csv", RESULT_COLUMNS, [])
        atomic_write_json(
            out / "sweep_report.json",
            {"format_version": 1, "points": 0, "failures": [], "config_hash": config_hash(cfg)},
        )
        print("empty sweep grid; wrote header-only CSV")
        return 0
    from .sim import run_point  # local import keeps CLI startup light

    points = grid_points(dict(cfg.grid))
    columns = tuple(sorted(cfg.grid)) + RESULT_COLUMNS
    marker_dir = out / "sweep_points"
    rows: list[dict] = []
    failures: list[dict] = []
    for idx, point in enumerate(points):
        marker = marker_dir / f"point_{idx:04d}.json"
        if marker.exists():
            stored = json.loads(marker.read_text())
            if stored.get("config_hash") == config_hash(cfg):
                rows.extend(stored["rows"])
                continue
        try:
            spec_at_point = point_spec(cfg.spec, point)
            result = run_point(spec_at_point, cfg.schemes)
            point_rows = [
                cfg.row(point, result.metrics[scheme], result.master) for scheme in cfg.schemes
            ]
        except Exception as exc:  # noqa: BLE001 - aggregate and continue
            failures.append({"point": point, "error": f"{type(exc).__name__}: {exc}"})
            continue
        atomic_write_json(
            marker, {"config_hash": config_hash(cfg), "point": point, "rows": point_rows}
        )
        rows.extend(point_rows)
    write_csv(out / "sweep.csv", columns, rows)
    atomic_write_json(
        out / "sweep_report.json",
        {
            "format_version": 1,
            "points": len(points),
            "completed": len(points) - len(failures),
            "failures": failures,
            "config_hash": config_hash(cfg),
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
    if step <= 0:
        raise ConfigError("grid step must be positive")
    values = []
    v = start
    while v <= stop + 1e-9:
        values.append(round(v, 12))
        v += step
    return key, tuple(values)


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
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    cal = sub.add_parser("calibrate", help="solve the master problem and persist offline tables")
    common(cal)
    cal.add_argument("--threads", type=int, default=1, help="parallel pair calibrations")

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
            return cmd_verify(args.out, args.seed if args.seed is not None else 20260810)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, spec=replace(cfg.spec, seed=args.seed))
        if getattr(args, "scheme", None):
            for s in args.scheme:
                if s not in SCHEMES:
                    raise ConfigError(f"unknown scheme {s!r}")
            cfg = replace(cfg, schemes=tuple(args.scheme))
        if args.command == "calibrate":
            return cmd_calibrate(cfg, args.out, threads=args.threads)
        if args.command == "simulate":
            artifacts = args.artifacts if args.artifacts is not None else args.out
            return cmd_simulate(cfg, args.out, artifacts)
        if args.command == "sweep":
            if args.grid:
                merged = dict(cfg.grid)
                for flag in args.grid:
                    key, values = _parse_grid_flag(flag)
                    merged[key] = values
                cfg = replace(cfg, grid=merged)
            return cmd_sweep(cfg, args.out)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, ArtifactMismatchError, CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
