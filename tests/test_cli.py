import csv
import json
import math
import time
from pathlib import Path

import jsonschema
import pytest

import cogrelay.cli
import cogrelay.master
from cogrelay.cli import (
    RESULT_COLUMNS,
    VERIFY_REPORT_SCHEMA,
    ConfigError,
    _pair_artifact_path,
    _parse_grid_flag,
    cmd_verify,
    config_hash,
    config_to_payload,
    db_to_linear,
    load_config,
    main,
    parse_config,
)
from cogrelay.sim import StudySpec
from cogrelay.subpolicy import CalibrationError


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
        ],
        ids=["baseline_warmup", "prob_samples", "placement_seed"],
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
        real = StudySpec.pair_probabilities

        def slow(self, topology):
            time.sleep(0.2)
            return real(self, topology)

        monkeypatch.setattr(StudySpec, "pair_probabilities", slow)
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert float(printed.split(" in ", 1)[1].split("s;", 1)[0]) >= 0.2
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["wall_seconds"] >= 0.2


class TestSweepCommand:
    def test_empty_grid_writes_header_only(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        text = (out / "sweep.csv").read_text()
        assert text.startswith("scheme,")
        assert len(text.strip().splitlines()) == 1

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

    def test_route_too_dense_to_place_is_a_failed_point(self, tmp_path):
        raw = base_config()
        raw["schemes"] = ["baseline3"]
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--grid", "nodes=3:16:13"])
        assert code == 1
        report = json.loads((out / "sweep_report.json").read_text())
        assert report["completed"] == 1
        [failure] = report["failures"]
        assert failure["point"] == {"nodes": 16.0}
        assert failure["error"].startswith("ValueError: route too dense to place: 16 nodes")

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

    def test_unknown_config_key_names_key_and_section(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(activity_typo=1))
        code = main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown key 'activity_typo' in config section '<root>'" in capsys.readouterr().err

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

    def test_bad_config_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        missing.write_text("{not json")
        code = main(["calibrate", "--config", str(missing), "--out", str(tmp_path / "o")])
        assert code == 2
