import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import cogrelay.cli
import cogrelay.master
import cogrelay.sim
from cogrelay.cli import (
    RESULT_COLUMNS,
    ConfigError,
    _pair_artifact_path,
    _parse_grid_flag,
    calibration_hash,
    cmd_verify,
    config_hash,
    config_to_payload,
    db_to_linear,
    load_config,
    main,
    parse_config,
)
from cogrelay.subpolicy import CalibrationError

# The document ``cogrelay verify`` writes to ``verify_report.json``.
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


def base_config(**overrides):
    raw = {
        "version": 1,
        "seed": 21,
        "model": {"positions": [0.0, 2.0, 5.0], "alpha": 2.0},
        "activity": {"mode": "iid-bernoulli", "p_avail": 0.8},
        "budget": {"P0_dB": 20.0},
        "schemes": ["proposed", "baseline3"],
        "solver": {
            "mc_samples": 150,
            "episodes": 150,
            "master": {"max_iterations": 4},
        },
        "sim": {"epochs": 150},
    }
    raw.update(overrides)
    return raw


NAN, INF = float("nan"), float("inf")
SPATIAL_ACTIVITY = {"mode": "spatial-field", "rho_p": 0.4, "p_active": 0.5, "d0": 0.8}


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestConfig:
    def test_db_conversion_known_pairs(self):
        assert db_to_linear(30.0) == pytest.approx(1000.0)
        assert db_to_linear(0.0) == pytest.approx(1.0)
        assert db_to_linear(10.0) == pytest.approx(10.0)

    def test_round_trip_is_identity(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        payload = config_to_payload(cfg)
        again = config_to_payload(parse_config(payload))
        assert payload == again
        assert config_hash(cfg) == config_hash(parse_config(payload))

    def test_readme_configuration_block_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = readme.split("```json\n")[1:]
        assert len(blocks) == 1
        raw = json.loads(blocks[0].split("```", 1)[0])
        payload = config_to_payload(parse_config(raw))
        assert config_to_payload(parse_config(payload)) == payload
        # The block shows every default, except the seed and the sweep grid.
        required = {"version": 1, "model": {"nodes": raw["model"]["nodes"]},
                    "activity": {"p_avail": raw["activity"]["p_avail"]},
                    "budget": raw["budget"]}
        defaults = config_to_payload(parse_config(required))
        assert defaults == {**payload, "seed": 0, "sweep": {"grid": {}}}

    def test_budget_forms_equivalent(self, tmp_path):
        a = load_config(write_config(tmp_path, base_config(), "a.json"))
        raw = base_config()
        raw["budget"] = {"P0": 100.0}
        b = load_config(write_config(tmp_path, raw, "b.json"))
        assert a.spec.p0 == pytest.approx(b.spec.p0)

    @pytest.mark.parametrize(
        "mutate",
        [
            {"version": 2},
            {"budget": {}},
            {"budget": {"P0": 1.0, "P0_dB": 0.0}},
            {"schemes": ["nope"]},
            {"activity": {"mode": "weird"}},
            {"model": {"alpha": 2.0}},
            {"output": {"rate_units": "furlongs"}},
            {"activity_typo": 1},
            {"activity": {"mode": "iid-bernoulli", "p_avail": 0.8, "epoch_frames": 2}},
            {"activity": {"mode": "iid-bernoulli", "p_avail": 0.8, "rho_p": 0.4}},
            {"model": {"positions": [0.0, 2.0, 5.0], "alpha": 2.0, "span": 5.0}},
            {"budget": {"P0": 1.0, "p0": 2.0}},
            {"solver": {"mc_samples": 150, "master": {"max_iteration": 4}}},
            {"sim": {"epoch": 150}},
            {"sweep": {"grid": {"p0db": [1.0]}}},
            {"output": {"rate_unit": "bits"}},
            {"activity": {"mode": "iid-bernoulli", "p_avail": "high"}},
            {"sim": {"epochs": "many"}},
            {"model": {"nodes": [6], "alpha": 2.0}},
            {"solver": {"master": {"step_a": "fast"}}},
            {"model": {"nodes": 30, "span": 5.0, "alpha": 2.0}},
            {"model": {"positions": [0.0, 3.0, 2.0], "alpha": 2.0}},
        ],
    )
    def test_invalid_configs_rejected(self, tmp_path, mutate):
        raw = base_config(**mutate)
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_epoch_frames_of_one_is_accepted_and_hashes_alike(self):
        raw = base_config()
        raw["activity"] = {**raw["activity"], "epoch_frames": 1}
        assert config_hash(parse_config(raw)) == config_hash(parse_config(base_config()))
        assert config_to_payload(parse_config(raw))["activity"]["epoch_frames"] == 1

    @pytest.mark.parametrize("spatial", [False, True], ids=["iid", "spatial"])
    def test_hashes_move_only_for_the_spatial_segment_table(self, spatial):
        # Each digest as it was while spatial segment probabilities were
        # sampled: iid digests are unchanged, and spatial ones move, so
        # artifacts and sweep markers of the sampled table are not reused.
        raw = base_config()
        if spatial:
            raw["activity"] = SPATIAL_ACTIVITY
        cfg = parse_config(raw)
        payload = config_to_payload(cfg)
        calibration = {k: v for k, v in payload.items()
                       if k not in ("schemes", "sweep", "output", "sim")}
        if spatial:
            calibration["sim"] = {"prob_samples": cfg.spec.prob_samples}
        before = [hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
                  for doc in (payload, calibration)]
        after = [config_hash(cfg), calibration_hash(cfg)]
        if spatial:
            assert all(a != b for a, b in zip(after, before))
        else:
            assert after == before

    def test_numeric_strings_convert_to_the_field_type(self):
        raw = base_config()
        raw["solver"]["master"] = {"step_a": "1"}
        step_a = parse_config(raw).spec.solver.master.step_a
        assert step_a == 1.0 and isinstance(step_a, float)

    def test_grid_flag_parsing(self):
        key, values = _parse_grid_flag("p0_db=0:40:10")
        assert key == "p0_db"
        assert values == (0.0, 10.0, 20.0, 30.0, 40.0)
        with pytest.raises(ConfigError):
            _parse_grid_flag("p0_db=0:40")
        with pytest.raises(ConfigError):
            _parse_grid_flag("p0_db=0:40:-5")

    def test_a_grid_flag_ends_at_stop_on_any_scale(self):
        # STOP's slack is a fraction of STEP, so a flag on a small scale
        # neither runs past STOP nor rounds its values to 0.
        _, values = _parse_grid_flag("p0=0:1e-10:1e-11")
        assert len(values) == 11 and values[-1] == 1e-10
        _, values = _parse_grid_flag("p0=1e-14:5e-14:1e-14")
        assert values == (1e-14, 2e-14, 3e-14, 4e-14, 5e-14)
        # The README's and CI's flags, and a decimal step, keep their values.
        assert _parse_grid_flag("p0_db=0:40:5")[1] == tuple(5.0 * k for k in range(9))
        assert _parse_grid_flag("p0_db=20:20:1")[1] == (20.0,)
        assert _parse_grid_flag("p_avail=0.5:0.9:0.1")[1] == (0.5, 0.6, 0.7, 0.8, 0.9)

    def test_a_grid_of_exactly_the_most_sweep_points_is_accepted(self):
        key, values = _parse_grid_flag("p0_db=0:9999:1")
        assert values == tuple(float(v) for v in range(10_000))
        cfg = parse_config(base_config(sweep={"grid": {key: list(values)}}))
        assert cfg.grid == {"p0_db": values}
        with pytest.raises(ConfigError, match="more than the 10000 points"):
            _parse_grid_flag("p0_db=0:10000:1")


class TestCalibrateCommand:
    def test_writes_pair_artifacts_and_manifest(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 0
        pairs = sorted((out / "policies").glob("pair_*.json"))
        assert len(pairs) == 3  # all (i, j) with i < j on a 3-node route
        manifest = json.loads((out / "calibration_manifest.json").read_text())
        assert manifest["table_entries_total"] <= 3**3
        master = json.loads((out / "master.json").read_text())
        assert len(master["allocation"]) == 3
        payload = json.loads(pairs[0].read_text())
        assert {"lambda", "values", "problem_hash", "seed_path"} <= set(payload)
        for entry in master["allocation"]:
            artifact = json.loads(_pair_artifact_path(out, entry["pair"]).read_text())
            for key in ("rate", "rate_se", "lambda", "shadow_price", "achieved_power"):
                assert entry[key] == artifact[key]
        # Calibrate and simulate build each pair's problem alike, so the
        # artifacts load under non-default calibration settings too.
        raw = base_config()
        raw["solver"].update(mc_samples=120, p_max_factor=3.0, p_floor_factor=1e-4)
        cfg_path = write_config(tmp_path, raw, "solver.json")
        out = tmp_path / "solver"
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0

    def test_each_pair_artifact_names_its_calibration_stream(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(seed=5))
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 0
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            payload = json.loads(_pair_artifact_path(out, (i, j)).read_text())
            assert payload["seed_path"] == f"5/pair/{i}/{j}"

    def test_pairs_are_calibrated_at_their_allocated_budgets(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 0
        master = json.loads((out / "master.json").read_text())
        spent = 0.0
        for entry in master["allocation"]:
            artifact = json.loads(_pair_artifact_path(out, entry["pair"]).read_text())
            assert artifact["pbar"] == entry["pbar"]
            spent += entry["prob"] * artifact["pbar"]
        assert spent <= master["p0"] * (1.0 + 1e-9)

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        for path_a in sorted(out_a.rglob("*.json")):
            path_b = out_b / path_a.relative_to(out_a)
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_six_node_benchmark_produces_fifteen_pair_tables(self, tmp_path):
        raw = base_config()
        raw["model"] = {"nodes": 6, "span": 5.0, "placement_seed": 7, "alpha": 2.0}
        raw["activity"] = {"mode": "iid-bernoulli", "p_avail": 0.85}
        raw["budget"] = {"P0_dB": 30.0}
        raw["solver"] = {"mc_samples": 80, "episodes": 80, "master": {"max_iterations": 2}}
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(list((out / "policies").glob("pair_*.json"))) == 15
        master = json.loads((out / "master.json").read_text())
        assert len(master["allocation"]) == 15
        manifest = json.loads((out / "calibration_manifest.json").read_text())
        assert manifest["table_entries_total"] <= 6**3

    def test_twelve_node_route_keeps_the_complexity_bounds(self, tmp_path):
        # Acceptance criterion 11's bounds at M = 11 relays: one table value
        # per node of each pair, a total within (M + 1)^3, and per delivery
        # at most length evaluations a step and length^2 in all.
        raw = base_config()
        raw["model"] = {"nodes": 12, "span": 10.0, "min_gap": 0.25, "placement_seed": 7,
                        "alpha": 2.0}
        raw["activity"] = {"mode": "iid-bernoulli", "p_avail": 0.85}
        raw["solver"] = {"mc_samples": 50, "episodes": 50, "master": {"max_iterations": 1}}
        raw["sim"] = {"epochs": 20}
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 0
        total = 0
        for i in range(12):
            for j in range(i + 1, 12):
                values = json.loads(_pair_artifact_path(out, (i, j)).read_text())["values"]
                assert len(values) == j - i + 1
                total += len(values)
        manifest = json.loads((out / "calibration_manifest.json").read_text())
        assert manifest["table_entries_total"] == total == 352
        assert total <= manifest["table_entries_bound"] == 12**3
        result = cogrelay.cli.run_point(load_config(cfg_path).spec, ("proposed",))
        stats = result.metrics["proposed"].pair_stats
        assert stats
        for (i, j), pair in stats.items():
            assert pair.max_step_evals <= j - i
            assert pair.max_episode_evals <= (j - i) ** 2

    def test_threads_do_not_change_the_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out_1, out_2 = tmp_path / "t1", tmp_path / "t2"
        for out, threads in ((out_1, "1"), (out_2, "2")):
            assert main(["calibrate", "--config", str(cfg_path), "--out", str(out),
                         "--threads", threads]) == 0
        files = sorted(p.relative_to(out_1) for p in out_1.rglob("*.json"))
        assert Path("master.json") in files and len(files) == 5  # 3 pairs, master, manifest
        for rel in files:
            assert (out_1 / rel).read_bytes() == (out_2 / rel).read_bytes()

    def test_budget_slack_is_warned_per_pair(self, tmp_path, capsys):
        raw = base_config()
        raw["solver"]["p_max_factor"] = 1.0  # every pair runs at its cap within budget
        cfg_path = write_config(tmp_path, raw)
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        warnings = [
            line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")
        ]
        assert len(warnings) == 3
        for pair in ("(0, 1)", "(0, 2)", "(1, 2)"):
            assert sum(pair in line and "budget slack" in line for line in warnings) == 1

    @pytest.mark.parametrize(
        "section, values, key",
        [
            ("sim", {"epochs": 150, "baseline_warmup": -5}, "baseline_warmup"),
            ("sim", {"epochs": 150, "prob_samples": -5}, "prob_samples"),
            ("model", {"nodes": 4, "placement_seed": -2}, "placement_seed"),
            ("model", {"nodes": 4, "min_gap": -0.5}, "min_gap"),
        ],
        ids=["baseline_warmup", "prob_samples", "placement_seed", "min_gap"],
    )
    def test_out_of_range_sim_and_route_values_are_exit_2_errors(
        self, tmp_path, capsys, section, values, key
    ):
        cfg_path = write_config(tmp_path, base_config(**{section: values}))
        code = main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be ")
        assert not (tmp_path / "o").exists()

    def test_spatial_prob_samples_of_zero_is_an_exit_2_error(self, tmp_path, capsys):
        activity = {"mode": "spatial-field", "rho_p": 0.4, "p_active": 0.5, "d0": 0.8}
        raw = base_config(activity=activity, sim={"epochs": 150, "prob_samples": 0})
        cfg_path = write_config(tmp_path, raw)
        for command in ("calibrate", "simulate"):
            code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
            assert code == 2
            assert capsys.readouterr().err.startswith("error: prob_samples must be positive")
        assert not (tmp_path / "o").exists()

    def test_cutoff_above_all_pairs_warns_and_succeeds(self, tmp_path, capsys):
        raw = base_config()
        raw["solver"]["master"] = {"max_iterations": 4, "pair_prob_cutoff": 1.0}
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert "nothing to calibrate" in capsys.readouterr().err
        manifest = json.loads((out / "calibration_manifest.json").read_text())
        assert manifest["pairs"] == []

    def test_calibration_failure_is_an_exit_2_error(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise CalibrationError("policy overspends at lambda = 1/pbar",
                                   {"pair": (0, 2), "power_at_max_lambda": 3.5})

        monkeypatch.setattr(cogrelay.cli, "solve_master", fail)
        cfg_path = write_config(tmp_path, base_config())
        code = main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: calibration failed: policy overspends at lambda = 1/pbar",
            "  pair: (0, 2)",
            "  power_at_max_lambda: 3.5",
        ]

    @pytest.mark.parametrize(
        "solver",
        [
            {"p_floor_factor": 2.0},
            {"p_floor_factor": 1.0},
            {"p_floor_factor": 0.0},
            {"p_floor_factor": 0.5, "p_max_factor": 0.25},
            {"mc_samples": 0},
            {"episodes": 0},
            {"power_tolerance": 0.0},
        ],
    )
    def test_unworkable_solver_options_are_exit_2_errors(self, tmp_path, capsys, solver):
        raw = base_config()
        raw["solver"].update(solver)
        cfg_path = write_config(tmp_path, raw)
        code = main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and next(iter(solver)) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "master",
        [
            {"max_iterations": 0},
            {"window": 0},
            {"step_b": 0.0},
            {"step_a": -100.0},
            {"tie_tolerance": -0.5},
            {"objective_tolerance": -1e-3},
            {"pair_prob_cutoff": -1.0},
            {"pair_prob_cutoff": 1.5},
        ],
        ids=lambda master: next(iter(master)),
    )
    def test_out_of_range_master_options_are_exit_2_errors(self, tmp_path, capsys, master):
        raw = base_config()
        raw["solver"]["master"] = {"max_iterations": 4, **master}
        cfg_path = write_config(tmp_path, raw)
        code = main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {next(iter(master))} must be ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_are_refused(self, tmp_path, capsys, threads):
        cfg_path = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                  "--threads", threads])
        assert exc.value.code == 2
        assert f"--threads: must be at least 1, not {threads}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_a_placed_route_is_placed_once(self, tmp_path, monkeypatch):
        calls = []
        real = cogrelay.sim.make_linear_route

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cogrelay.sim, "make_linear_route", counted)
        cfg_path = write_config(tmp_path, base_config(model={"nodes": 3, "span": 5.0}))
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1


class TestSimulateCommand:
    @pytest.fixture
    def calibrated(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 0
        return cfg_path, out

    def test_csv_columns_match_documented_header(self, calibrated):
        cfg_path, out = calibrated
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            rows = list(reader)
        assert header == list(RESULT_COLUMNS)
        assert len(rows) == 2  # proposed + baseline3

    def test_stale_artifacts_refused(self, calibrated, tmp_path, capsys):
        _, out = calibrated
        raw = base_config()
        raw["budget"] = {"P0_dB": 25.0}  # different config, same artifacts
        other_cfg = write_config(tmp_path, raw, "other.json")
        code = main(["simulate", "--config", str(other_cfg), "--out", str(out)])
        assert code == 2
        assert "different configuration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "activity, edit, flags, schemes",
        [(None, lambda raw: None, ["--scheme", "proposed"], ["proposed"]),
         (None, lambda raw: raw["sim"].update(epochs=100), [], ["proposed", "baseline3"]),
         (None, lambda raw: raw.update(output={"rate_units": "bits"}), [],
          ["proposed", "baseline3"]),
         (None, lambda raw: raw["sim"].update(prob_samples=5000), [], ["proposed", "baseline3"]),
         # Spatial-field segment probabilities are closed form: calibration
         # reads no sample count.
         (SPATIAL_ACTIVITY, lambda raw: raw["sim"].update(prob_samples=3000), [],
          ["proposed", "baseline3"])],
        ids=["scheme-flag", "epochs", "rate-units", "iid-prob-samples", "spatial-prob-samples"],
    )
    def test_artifacts_serve_configs_that_differ_only_in_what_calibration_ignores(
        self, tmp_path, activity, edit, flags, schemes
    ):
        raw = base_config()
        if activity is not None:
            raw.update(activity=activity, sim={"epochs": 100, "prob_samples": 2000})
        artifacts = tmp_path / "artifacts"
        assert main(["calibrate", "--config", str(write_config(tmp_path, raw, "cal.json")),
                     "--out", str(artifacts)]) == 0
        edit(raw)
        cfg_path = write_config(tmp_path, raw, "run.json")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--artifacts", str(artifacts), *flags]) == 0
        with open(out / "results.csv", newline="") as handle:
            assert [row["scheme"] for row in csv.DictReader(handle)] == schemes

    def test_uncalibrated_segment_is_an_exit_2_error(self, tmp_path, capsys):
        raw = base_config()
        raw["solver"]["master"] = {"max_iterations": 4, "pair_prob_cutoff": 0.2}
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        # Pairs (0, 1) and (1, 2) occur with probability 0.128: only (0, 2) is calibrated.
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 0
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: segment (0, 1)")
        assert "pair_prob_cutoff 0.2" in err

    def test_missing_artifact_names_the_pair(self, calibrated, capsys):
        cfg_path, out = calibrated
        (out / "policies" / "pair_00_02.json").unlink()
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert "(0, 2)" in capsys.readouterr().err

    @staticmethod
    def simulate_error(cfg_path, out, capsys):
        """stderr of a ``simulate`` that must fail with exit status 2."""
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def test_artifact_of_another_problem_is_an_exit_2_error(self, calibrated, capsys):
        cfg_path, out = calibrated
        path = out / "policies" / "pair_00_02.json"
        payload = json.loads(path.read_text())
        payload["pbar"] *= 2.0  # its problem hash no longer matches
        path.write_text(json.dumps(payload))
        err = self.simulate_error(cfg_path, out, capsys)
        assert "artifact for pair (0, 2) does not match the current configuration" in err

    def test_artifact_of_another_format_version_is_an_exit_2_error(self, calibrated, capsys):
        cfg_path, out = calibrated
        path = out / "policies" / "pair_00_02.json"
        payload = json.loads(path.read_text())
        payload["format_version"] = 2
        path.write_text(json.dumps(payload))
        err = self.simulate_error(cfg_path, out, capsys)
        assert "pair_00_02.json" in err and "unsupported artifact version 2" in err

    @pytest.mark.parametrize("name", ["policies/pair_00_02.json", "calibration_manifest.json"])
    def test_truncated_artifact_is_an_exit_2_error(self, calibrated, capsys, name):
        cfg_path, out = calibrated
        path = out / name
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        err = self.simulate_error(cfg_path, out, capsys)
        assert path.name in err and "not valid JSON" in err

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda payload: payload.pop("pbar"), "missing field 'pbar'"),
            (lambda payload: payload.update(pbar=-1.0), "pbar must be positive"),
        ],
        ids=["without-pbar", "negative-pbar"],
    )
    def test_malformed_pair_artifact_is_an_exit_2_error(self, calibrated, capsys, edit, reason):
        cfg_path, out = calibrated
        path = out / "policies" / "pair_00_02.json"
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        err = self.simulate_error(cfg_path, out, capsys)
        assert "pair_00_02.json" in err and reason in err

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda manifest: [], "not a JSON object"),
            (lambda manifest: {k: v for k, v in manifest.items() if k != "pairs"},
             "missing field 'pairs'"),
        ],
        ids=["list", "without-pairs"],
    )
    def test_malformed_manifest_is_an_exit_2_error(self, calibrated, capsys, edit, reason):
        cfg_path, out = calibrated
        path = out / "calibration_manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        err = self.simulate_error(cfg_path, out, capsys)
        assert "calibration_manifest.json" in err and reason in err

    def test_wall_time_counts_the_pair_probabilities(self, tmp_path, capsys, monkeypatch):
        real = cogrelay.sim.segment_probabilities

        def slow(model, topology):
            time.sleep(0.2)
            return real(model, topology)

        monkeypatch.setattr(cogrelay.sim, "segment_probabilities", slow)
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert float(printed.split(" in ", 1)[1].split("s;", 1)[0]) >= 0.2
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["wall_seconds"] >= 0.2

    @pytest.mark.parametrize("activity", [None, SPATIAL_ACTIVITY], ids=["iid", "spatial"])
    def test_each_command_computes_the_segment_table_once(self, tmp_path, monkeypatch,
                                                           activity):
        calls = []
        real = cogrelay.sim.segment_probabilities

        def counted(model, topology):
            calls.append(model)
            return real(model, topology)

        monkeypatch.setattr(cogrelay.sim, "segment_probabilities", counted)
        raw = base_config(schemes=list(cogrelay.sim.SCHEMES))
        if activity is not None:
            raw["activity"] = activity
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(calls) == 1
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(calls) == 2
        cfg = load_config(cfg_path)
        cogrelay.cli.run_point(cfg.spec, cfg.schemes)
        assert len(calls) == 3


class TestSweepCommand:
    def test_empty_grid_writes_header_only(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        text = (out / "sweep.csv").read_text()
        assert text.startswith("scheme,")
        assert len(text.strip().splitlines()) == 1
        report = json.loads((out / "sweep_report.json").read_text())
        assert report["points"] == 0 and report["completed"] == 0

    def test_points_are_resumable(self, tmp_path):
        raw = base_config()
        raw["schemes"] = ["baseline3", "baseline4"]
        raw["sweep"] = {"grid": {"p0_db": [10.0, 20.0]}}
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        first = (out / "sweep.csv").read_bytes()
        markers = sorted((out / "sweep_points").glob("*.json"))
        assert len(markers) == 2
        stamp = {m: m.stat().st_mtime_ns for m in markers}
        (out / "sweep.csv").unlink()
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "sweep.csv").read_bytes() == first
        assert {m: m.stat().st_mtime_ns for m in markers} == stamp  # reused, not rerun

    @pytest.mark.parametrize(
        "damage",
        [lambda text: text[: len(text) // 2], lambda text: "[]",
         lambda text: text.replace('"rows": [', '"rows": [[], ', 1)],
        ids=["truncated", "list", "row-not-an-object"],
    )
    def test_unreadable_marker_is_recomputed(self, tmp_path, damage):
        raw = base_config()
        raw["schemes"] = ["baseline3"]
        raw["sweep"] = {"grid": {"p0_db": [10.0, 20.0]}}
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        first = (out / "sweep.csv").read_bytes()
        marker = out / "sweep_points" / "point_0000.json"
        intact = marker.read_text()
        marker.write_text(damage(intact))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "sweep.csv").read_bytes() == first
        assert marker.read_text() == intact

    def test_spatial_marker_of_the_sampled_table_is_recomputed(self, tmp_path):
        # A marker hashed as while spatial segment probabilities were
        # sampled holds rows of that table: the point runs again.
        raw = base_config(activity=SPATIAL_ACTIVITY, schemes=["baseline3"],
                          sim={"epochs": 100, "prob_samples": 2000})
        raw["sweep"] = {"grid": {"p0_db": [10.0]}}
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        first = (out / "sweep.csv").read_bytes()
        marker = out / "sweep_points" / "point_0000.json"
        intact = marker.read_text()
        stored = json.loads(intact)
        payload = config_to_payload(parse_config(raw))
        sampled = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        rows = [{**row, "u_min": -1.0} for row in stored["rows"]]
        marker.write_text(json.dumps({**stored, "config_hash": sampled, "rows": rows}))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "sweep.csv").read_bytes() == first
        assert marker.read_text() == intact

    def test_budget_slack_is_warned_per_pair_and_point(self, tmp_path, capsys):
        raw = base_config()
        raw["solver"]["p_max_factor"] = 1.0  # as in test_budget_slack_is_warned_per_pair
        raw["sweep"] = {"grid": {"p0_db": [20.0, 25.0]}}
        cfg_path = write_config(tmp_path, raw)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        warnings = [
            line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")
        ]
        assert len(warnings) == 6
        for point in ("0000", "0001"):
            for pair in ("(0, 1)", "(0, 2)", "(1, 2)"):
                prefix = f"warning: point {point}: pair {pair}: budget slack"
                assert sum(line.startswith(prefix) for line in warnings) == 1

    def test_partial_failure_continues_and_reports(self, tmp_path):
        raw = base_config()
        raw["schemes"] = ["baseline3"]
        # p_block = 1.0 leaves no transmitting pair: that point must fail
        # while the other completes.
        raw["sweep"] = {"grid": {"p_block": [0.2, 1.0]}}
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        report = json.loads((out / "sweep_report.json").read_text())
        assert report["completed"] == 1
        assert len(report["failures"]) == 1
        assert report["failures"][0]["point"] == {"p_block": 1.0}
        with open(out / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert rows[0]["p_block"] == "0.2"

    def test_route_too_dense_to_place_is_refused_before_any_point_runs(self, tmp_path, capsys):
        raw = base_config()
        raw["schemes"] = ["baseline3"]
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--grid", "nodes=3:16:13"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: sweep point 0001 {'nodes': 16.0}: route too dense to place: 16 nodes")
        assert not out.exists()  # point 0000 can be placed, but did not run

    def test_point_no_config_can_take_is_refused_before_any_point_runs(self, tmp_path, capsys):
        raw = base_config(sweep={"grid": {"nodes": [3, 4.5], "p_avail": [1.5]}})
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep point 0000 {'nodes': 3.0, 'p_avail': 1.5}: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_p0_grid_point_above_the_largest_budget_is_refused_before_any_point_runs(
        self, tmp_path, capsys
    ):
        raw = base_config(sweep={"grid": {"p0": [50.0, 1e300]}})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep point 0001 {'p0': 1e+300}: budget P0 1e+300 is above")
        assert not out.exists()

    def test_a_p0_grid_writes_each_column_once(self, tmp_path):
        raw = base_config(schemes=["baseline3"], sweep={"grid": {"p0": [50.0, 100.0]}})
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as handle:
            header = next(csv.reader(handle))
            handle.seek(0)
            rows = list(csv.DictReader(handle))
        assert header == ["p0", *RESULT_COLUMNS[:6], *RESULT_COLUMNS[7:]]
        assert [row["p0"] for row in rows] == ["50.0", "100.0"]

    @pytest.mark.parametrize(
        "flag", ["p0_db=0:inf:1", "p0_db=0:nan:1", "p0_db=nan:10:1", "p0_db=0:10:nan"]
    )
    def test_non_finite_grid_flag_bounds_are_exit_2_errors(self, tmp_path, capsys, flag):
        cfg_path = write_config(tmp_path, base_config())
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--grid", flag])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: --grid key 'p0_db': START, STOP and STEP must be finite")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["file", "flag"])
    def test_grid_key_without_values_is_an_exit_2_error(self, tmp_path, capsys, source):
        raw = base_config()
        flags = []
        if source == "file":
            raw["sweep"] = {"grid": {"p0_db": [], "alpha": [2.0]}}
        else:
            raw["sweep"] = {"grid": {"alpha": [2.0]}}
            flags = ["--grid", "p0_db=10:0:1"]  # STOP below START: no values
        cfg_path = write_config(tmp_path, raw)
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"), *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: grid key 'p0_db' in config section 'sweep.grid' has no values")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["file", "flag"])
    @pytest.mark.parametrize("key", ["p_avail", "p_block"])
    def test_availability_grid_on_a_spatial_config_is_an_exit_2_error(
        self, tmp_path, capsys, key, source
    ):
        raw = base_config(activity=SPATIAL_ACTIVITY)
        flags = []
        if source == "file":
            raw["sweep"] = {"grid": {key: [0.1, 0.9]}}
        else:
            flags = ["--grid", f"{key}=0.1:0.9:0.8"]
        cfg_path = write_config(tmp_path, raw)
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"), *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: grid key '{key}' sets p_avail, which mode 'spatial-field' does not read")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["file", "flag"])
    @pytest.mark.parametrize(
        "first, second, target",
        [("p0", "p0_db", "the budget"), ("p_block", "p_avail", "activity.p_avail")],
    )
    def test_grid_keys_that_set_one_target_are_an_exit_2_error(
        self, tmp_path, capsys, first, second, target, source
    ):
        # Before, one of the two was dropped: {"p0": [50], "p0_db": [20]} ran at P0 = 100.
        raw = base_config()
        flags = []
        if source == "file":
            raw["sweep"] = {"grid": {first: [0.5], second: [0.9]}}
        else:
            raw["sweep"] = {"grid": {first: [0.5]}}
            flags = ["--grid", f"{second}=0.9:0.9:1"]
        cfg_path = write_config(tmp_path, raw)
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"), *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: grid keys '{first}' and '{second}' both set {target}")
        assert not (tmp_path / "o").exists()

    def test_flags_are_written_into_the_config(self, tmp_path):
        raw = base_config(seed=5, sweep={"grid": {"p0_db": [0.0], "alpha": [2.0, 3.0]}})
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--seed", "9",
                     "--scheme", "baseline4", "--grid", "p0_db=10:10:1"]) == 0
        report = json.loads((out / "sweep_report.json").read_text())
        raw.update(seed=9, schemes=["baseline4"],
                   sweep={"grid": {"p0_db": [10.0], "alpha": [2.0, 3.0]}})
        assert report["config_hash"] == config_hash(parse_config(raw))
        with open(out / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["alpha"], r["p0_db"], r["scheme"]) for r in rows] == [
            ("2.0", "10.0", "baseline4"), ("3.0", "10.0", "baseline4")]

    def test_repeated_grid_value_is_an_exit_2_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(sweep={"grid": {"p0_db": [20, 20]}}))
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: grid key 'p0_db' in config section 'sweep.grid' repeats the value 20")
        assert not (tmp_path / "o").exists()

    # One flag never passes STOP (1e17 + 1 == 1e17), the other holds 1e10 values.
    @pytest.mark.parametrize("flag", ["p0_db=1e17:1e18:1", "p0_db=0:1e7:1e-3"])
    def test_a_grid_flag_of_too_many_points_is_an_exit_2_error(self, tmp_path, capsys, flag):
        cfg_path = write_config(tmp_path, base_config())
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--grid", flag])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --grid key 'p0_db' makes more than the 10000 points a sweep may run\n")
        assert not (tmp_path / "o").exists()

    def test_a_config_grid_of_too_many_points_is_an_exit_2_error(self, tmp_path, capsys):
        grid = {"p0_db": [float(k) for k in range(30)],
                "alpha": [2.0 + 0.1 * k for k in range(30)],
                "p_avail": [0.01 * (k + 1) for k in range(30)]}
        cfg_path = write_config(tmp_path, base_config(sweep={"grid": grid}))
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: grid keys 'alpha', 'p0_db', 'p_avail' make 27000 points, "
            "more than the 10000 a sweep may run\n")
        assert not (tmp_path / "o").exists()

    def test_unknown_grid_flag_key_is_an_exit_2_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--grid", "p0db=0:10:10"])
        assert code == 2
        assert "unknown key 'p0db'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestVerifyCommand:
    def test_fresh_run_passes_and_schema_validates(self, tmp_path, capsys):
        out = tmp_path / "verify"
        assert cmd_verify(out, seed=20260810) == 0
        report = json.loads((out / "verify_report.json").read_text())
        jsonschema.validate(report, VERIFY_REPORT_SCHEMA)
        printed = capsys.readouterr().out
        assert printed.count("[pass]") == len(report["results"])

    def test_injected_sign_flip_is_caught(self, tmp_path, monkeypatch):
        real = cogrelay.master.flow_balance_identity

        def flipped(m, prob, u, last):
            value = real(m, prob, u, last)
            inflow = sum(prob.get((i, m), 0.0) * u.get((i, m), 0.0) for i in range(m))
            return value + 2.0 * inflow  # simulated sign error in the inflow term

        monkeypatch.setattr(cogrelay.master, "flow_balance_identity", flipped)
        out = tmp_path / "verify"
        assert cmd_verify(out, seed=20260810) == 1
        report = json.loads((out / "verify_report.json").read_text())
        failed = {r["check"] for r in report["results"] if not r["passed"]}
        assert "flow_balance_identity" in failed


class TestMainEntry:
    def test_unknown_scheme_flag(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        code = main(
            ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
             "--scheme", "bogus"]
        )
        assert code == 2
        assert "unknown scheme" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "schemes, flags, expected",
        [([], [], "key 'schemes' needs at least one scheme"),
         (["baseline3", "baseline3"], [], "key 'schemes' names scheme 'baseline3' twice"),
         (["proposed"], ["--scheme", "baseline3", "--scheme", "baseline3"],
          "key 'schemes' names scheme 'baseline3' twice")],
        ids=["empty", "repeated", "repeated-flag"],
    )
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_empty_or_repeated_schemes_are_exit_2_errors(
        self, tmp_path, capsys, command, schemes, flags, expected
    ):
        raw = base_config(schemes=schemes, sweep={"grid": {"p0_db": [20.0]}})
        cfg_path = write_config(tmp_path, raw)
        code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {expected}")
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key_names_key_and_section(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(activity_typo=1))
        code = main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown key 'activity_typo' in config section '<root>'" in capsys.readouterr().err

    def test_retired_episodes_per_segment_is_an_unknown_key(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(sim={"episodes_per_segment": 1}))
        code = main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: unknown key 'episodes_per_segment' in config section 'sim'\n")
        assert not (tmp_path / "o").exists()

    def test_wrongly_typed_value_names_key_and_section(self, tmp_path, capsys):
        raw = base_config(activity={"mode": "iid-bernoulli", "p_avail": "high"})
        cfg_path = write_config(tmp_path, raw)
        code = main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: key 'p_avail' in config section 'activity'")
        assert "Traceback" not in err

    def test_route_too_dense_to_place_is_an_exit_2_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(model={"nodes": 16, "alpha": 2.0}))
        started = time.perf_counter()
        code = main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert time.perf_counter() - started < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert "route too dense to place: 16 nodes over span 5 with min_gap 0.25" in err

    @pytest.mark.parametrize(
        "budget, expected",
        [
            ({"P0": 1e300}, "budget P0 1e+300 is above the largest power budget, 1e+100"),
            ({"P0": "1.1e100"}, "budget P0 1.1e+100 is above the largest power budget"),
            ({"P0_dB": 1000.5}, "budget P0_dB 1000.5 is above the largest power budget"),
        ],
        ids=["P0-1e300", "P0-string", "P0_dB-1000.5"],
    )
    def test_budget_above_the_largest_is_an_exit_2_error(self, tmp_path, capsys, budget,
                                                          expected):
        cfg_path = write_config(tmp_path, base_config(budget=budget))
        code = main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {expected}") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("budget", [{"P0": 1e100}, {"P0_dB": 1000.0}])
    def test_largest_budget_is_accepted(self, budget):
        assert parse_config(base_config(budget=budget)).spec.p0 == 1e100

    @pytest.mark.parametrize(
        "edits, expected",
        [
            ({"solver": {"p_floor_factor": 1e-320}},
             "p_floor_factor 9.99989e-321 at the power budget 100 gives the floor power an SNR"),
            ({"budget": {"P0": 1e-300}},
             "p_floor_factor 1e-06 at the power budget 1e-300 gives the floor power an SNR of "
             "4e-316 on the longest link, below 1e-100"),
            ({"model": {"positions": [0.0, 2.0, 5.0], "alpha": 1e300}},
             "alpha 1e+300 takes the path loss |x_i - x_j|**-alpha of a link between 0 and 5"),
            ({"model": {"positions": [0.0, 0.99, 1.001], "alpha": 1e5}},
             "alpha 100000 takes the path loss"),
            ({"solver": {"master": {"step_b": 1e-320}}},
             "the master's first step, step_a / step_b, overflows at step_b 9.99989e-321"),
        ],
        ids=["p_floor_factor", "P0", "alpha-underflow", "alpha-overflow", "step_b"],
    )
    def test_unworkable_hop_snr_or_step_is_an_exit_2_error(self, tmp_path, capsys, edits,
                                                          expected):
        cfg_path = write_config(tmp_path, base_config(**edits))
        code = main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {expected}") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_small_budget_above_the_floor_snr_bound_is_accepted(self):
        # 1e-6 x 1e-8 x P0 x 5**-2 is 4e-66 at P0 1e-50.
        assert parse_config(base_config(budget={"P0": 1e-50})).spec.p0 == 1e-50

    SPATIAL_5 = {"mode": "spatial-field", "rho_p": 0.4, "p_active": 0.5, "d0": 0.8,
                 "strip_width": 1.0}

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("d0", 1e300, "d0 1e+300 is above its bound, 1e+100"),
            ("strip_width", 1e300, "strip_width 1e+300 is above its bound, 1e+100"),
            ("rho_p", 1e300, "rho_p 1e+300 puts 6.6e+300 primaries in an epoch's field"),
            ("rho_p", 1e9, "rho_p 1e+09 puts 6.6e+09 primaries in an epoch's field"),
            ("rho_p", 1600.0, "rho_p 1600 puts 1.06e+04 primaries in an epoch's field"),
            ("d0", 1e100, "rho_p 0.4 puts 8e+99 primaries in an epoch's field"),
        ],
        ids=["d0-1e300", "strip_width-1e300", "rho_p-1e300", "rho_p-1e9", "rho_p-1600",
             "d0-1e100"],
    )
    def test_spatial_field_beyond_its_bounds_is_an_exit_2_error(
        self, tmp_path, capsys, key, value, expected
    ):
        # The window of a 5-node route 5 long, widened by d0 = 0.8 at both
        # ends, in a strip 1 wide: a measure of 6.6.
        raw = base_config(model={"positions": [0.0, 1.2, 2.5, 3.9, 5.0]},
                          activity={**self.SPATIAL_5, key: value})
        cfg_path = write_config(tmp_path, raw)
        code = main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {expected}") and "Traceback" not in err
        if key == "rho_p" or value == 1e100:
            assert "above the bound on rho_p x measure, 10000" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "changes",
        [{"rho_p": 1500.0}, {"d0": 1e100, "rho_p": 1e-100},
         {"strip_width": 1e100, "rho_p": 1e-100}],
        ids=["rho_p-1500", "d0-1e100", "strip_width-1e100"],
    )
    def test_spatial_field_at_its_bounds_calibrates(self, tmp_path, changes):
        raw = base_config(model={"positions": [0.0, 1.2, 2.5, 3.9, 5.0]},
                          activity={**self.SPATIAL_5, **changes},
                          solver={"mc_samples": 50, "episodes": 50,
                                  "master": {"max_iterations": 2}})
        cfg_path = write_config(tmp_path, raw)
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0

    def test_min_gap_of_zero_is_accepted(self):
        raw = base_config(model={"nodes": 4, "min_gap": 0.0, "alpha": 2.0})
        assert parse_config(raw).spec.route.min_gap == 0.0

    def test_negative_config_seed_is_an_exit_2_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(seed=-1))
        code = main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error: seed must be non-negative, not -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, seed", [
        ("calibrate", "-1"), ("simulate", "-3"), ("verify", "-1"),
    ])
    def test_negative_seed_flag_is_an_exit_2_error(self, tmp_path, capsys, command, seed):
        config = [] if command == "verify" else [
            "--config", str(write_config(tmp_path, base_config()))
        ]
        with pytest.raises(SystemExit) as exc:
            main([command, *config, "--out", str(tmp_path / "o"), "--seed", seed])
        assert exc.value.code == 2
        assert f"must be non-negative, not {seed}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "section, values, expected",
        [
            ("model", {"nodes": 4, "min_gap": NAN}, "key 'min_gap' in config section 'model'"),
            ("budget", {"P0": NAN}, "key 'P0' in config section 'budget'"),
            ("budget", {"P0": INF}, "key 'P0' in config section 'budget'"),
            ("budget", {"P0_dB": INF}, "key 'P0_dB' in config section 'budget'"),
            ("budget", {"P0_dB": 4000.0}, "budget P0_dB 4000 overflows"),
            ("model", {"positions": [0.0, 2.0, 5.0], "alpha": NAN},
             "key 'alpha' in config section 'model'"),
            ("model", {"positions": [0.0, 2.0, 5.0], "alpha": INF},
             "key 'alpha' in config section 'model'"),
            ("model", {"positions": [0.0, NAN, 5.0]}, "key 'positions' in config section 'model'"),
            ("model", {"positions": [0.0, 2.0, INF]}, "key 'positions' in config section 'model'"),
            ("model", {"nodes": 4, "span": NAN}, "key 'span' in config section 'model'"),
            ("model", {"nodes": 4, "span": INF}, "key 'span' in config section 'model'"),
            ("model", {"nodes": INF}, "key 'nodes' in config section 'model'"),
            ("sim", {"epochs": INF}, "key 'epochs' in config section 'sim'"),
            ("solver.master", {"step_a": INF}, "key 'step_a' in config section 'solver.master'"),
            ("solver", {"p_max_factor": INF}, "key 'p_max_factor' in config section 'solver'"),
            ("solver.master", {"pair_prob_cutoff": NAN},
             "key 'pair_prob_cutoff' in config section 'solver.master'"),
            ("activity", {**SPATIAL_ACTIVITY, "rho_p": NAN},
             "key 'rho_p' in config section 'activity'"),
            ("activity", {**SPATIAL_ACTIVITY, "rho_p": INF},
             "key 'rho_p' in config section 'activity'"),
            ("activity", {**SPATIAL_ACTIVITY, "d0": NAN}, "key 'd0' in config section 'activity'"),
            ("activity", {**SPATIAL_ACTIVITY, "d0": INF}, "key 'd0' in config section 'activity'"),
            ("activity", {**SPATIAL_ACTIVITY, "strip_width": NAN},
             "key 'strip_width' in config section 'activity'"),
            ("solver.master", {"step_b": INF}, "key 'step_b' in config section 'solver.master'"),
            ("solver.master", {"objective_tolerance": NAN},
             "key 'objective_tolerance' in config section 'solver.master'"),
            ("solver", {"power_tolerance": INF},
             "key 'power_tolerance' in config section 'solver'"),
            ("model", {"nodes": 4.7}, "key 'nodes' in config section 'model'"),
            ("<root>", {"seed": 3.9}, "key 'seed' in config section '<root>'"),
            ("<root>", {"seed": True}, "key 'seed' in config section '<root>'"),
            ("sim", {"epochs": True}, "key 'epochs' in config section 'sim'"),
            ("budget", {"P0": True}, "key 'P0' in config section 'budget'"),
            ("activity", {"mode": "iid-bernoulli", "p_avail": 0.8, "epoch_frames": True},
             "key 'epoch_frames' in config section 'activity'"),
            ("<root>", {"version": True}, "unsupported config version True"),
        ],
        ids=["min_gap-nan", "P0-nan", "P0-inf", "P0_dB-inf", "P0_dB-4000", "alpha-nan",
             "alpha-inf", "positions-nan", "positions-inf", "span-nan", "span-inf", "nodes-inf",
             "epochs-inf", "step_a-inf", "p_max_factor-inf", "pair_prob_cutoff-nan", "rho_p-nan",
             "rho_p-inf", "d0-nan", "d0-inf", "strip_width-nan", "step_b-inf",
             "objective_tolerance-nan", "power_tolerance-inf", "nodes-fraction",
             "seed-fraction", "seed-bool", "epochs-bool", "P0-bool", "epoch_frames-bool",
             "version-bool"],
    )
    def test_non_finite_fractional_and_boolean_numbers_are_exit_2_errors(
        self, tmp_path, capsys, section, values, expected
    ):
        raw = base_config()
        if section == "<root>":
            raw.update(values)
        elif section == "solver":
            raw["solver"].update(values)
        elif section == "solver.master":
            raw["solver"]["master"].update(values)
        else:
            raw[section] = values
        cfg_path = write_config(tmp_path, raw)  # json writes NaN and Infinity literals
        code = main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {expected}") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_bad_config_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        missing.write_text("{not json")
        code = main(["calibrate", "--config", str(missing), "--out", str(tmp_path / "o")])
        assert code == 2


# Config documents for the property test: small runs (at most 5 nodes, 20
# epochs, 50 samples, 2 master iterations, 0.4 primaries per unit of field).
_SMALL = {
    "version": 1,
    "seed": 3,
    "model": {"positions": [0.0, 1.5, 3.2, 5.0], "alpha": 2.0},
    "activity": {"mode": "iid-bernoulli", "p_avail": 0.8},
    "budget": {"P0_dB": 20.0},
    "schemes": ["proposed", "baseline1", "baseline2", "baseline3", "baseline4"],
    "solver": {"mc_samples": 50, "episodes": 50, "master": {"max_iterations": 2}},
    "sim": {"epochs": 20, "baseline_warmup": 4, "prob_samples": 50},
}
_COMMON_KEYS = [
    ("version",), ("seed",), ("schemes",), ("model",), ("model", "alpha"), ("activity",),
    ("activity", "mode"), ("activity", "epoch_frames"), ("budget",), ("budget", "P0_dB"),
    ("budget", "P0"), ("solver",), ("solver", "mc_samples"), ("solver", "episodes"),
    ("solver", "power_tolerance"), ("solver", "p_max_factor"), ("solver", "p_floor_factor"),
    ("solver", "master"), *(("solver", "master", key) for key in cogrelay.cli.MASTER_KEYS),
    ("sim",), ("sim", "epochs"), ("sim", "baseline_warmup"), ("sim", "prob_samples"),
    ("output",), ("output", "rate_units"), ("sweep",),
]
# Each base document, and the keys that the test sets on it.
DOCUMENT_BASES = [
    (_SMALL, [*_COMMON_KEYS, ("model", "positions"), ("activity", "p_avail")]),
    ({**_SMALL, "budget": {"P0": 100.0}},
     [*_COMMON_KEYS, ("model", "positions"), ("activity", "p_avail")]),
    ({**_SMALL, "activity": {**SPATIAL_ACTIVITY, "strip_width": 1.0}},
     [*_COMMON_KEYS, ("model", "positions"),
      *(("activity", key) for key in ("rho_p", "p_active", "d0", "strip_width"))]),
    ({**_SMALL, "model": {"nodes": 5, "span": 5.0, "min_gap": 0.25, "placement_seed": 7}},
     [*_COMMON_KEYS, ("activity", "p_avail"),
      *(("model", key) for key in ("nodes", "span", "min_gap", "placement_seed"))]),
]
# Keys that size a run keep their small value at most.
SIZE_CAPS = {("model", "nodes"): 5, ("sim", "epochs"): 20, ("solver", "mc_samples"): 50,
             ("solver", "episodes"): 50, ("solver", "master", "max_iterations"): 2,
             ("sim", "baseline_warmup"): 4, ("sim", "prob_samples"): 50}
MISSING = "<missing>"
EDGE_VALUES = [0, 0.0, -1, -0.5, -1e300, 1e-320, 5e-324, 1e300, 0.5, 1.5, 2, "x", "1",
               "1e300", True, False, None, [], {}, [1.0], MISSING]


def set_key(doc: dict, path: tuple[str, ...], value) -> None:
    """Set (or, for ``MISSING``, delete) ``path`` in ``doc``, unless a section on
    the way is not an object."""
    for key in path[:-1]:
        doc = doc.setdefault(key, {}) if isinstance(doc, dict) else None
    if not isinstance(doc, dict):
        return
    if path in SIZE_CAPS and type(value) in (int, float):
        value = min(value, SIZE_CAPS[path])
    if value == MISSING:
        doc.pop(path[-1], None)
    else:
        doc[path[-1]] = copy.deepcopy(value)  # a later edit may write into it


@st.composite
def config_documents(draw):
    base, keys = draw(st.sampled_from(DOCUMENT_BASES))
    doc = copy.deepcopy(base)
    edits = st.tuples(st.sampled_from(keys), st.sampled_from(EDGE_VALUES))
    for path, value in draw(st.lists(edits, min_size=1, max_size=3)):
        set_key(doc, path, value)
    return doc


class TestConfigDocuments:
    @seed(20260810)
    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config_documents())
    def test_calibrate_then_simulate_exits_0_or_2(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = write_config(Path(tmp), doc)
            for command in ("calibrate", "simulate"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main([command, "--config", str(cfg_path), "--out", f"{tmp}/o"])
                assert code in (0, 2), (command, code)
                assert code == 0 or err.getvalue().startswith("error:"), err.getvalue()
