import csv
import json
import math
from pathlib import Path

import jsonschema
import pytest

import cogrelay.master
from cogrelay.cli import (
    RESULT_COLUMNS,
    VERIFY_REPORT_SCHEMA,
    ConfigError,
    _parse_grid_flag,
    cmd_verify,
    config_hash,
    config_to_payload,
    db_to_linear,
    linear_to_db,
    load_config,
    main,
    parse_config,
)


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
        assert linear_to_db(1000.0) == pytest.approx(30.0)
        with pytest.raises(ValueError):
            linear_to_db(0.0)

    def test_round_trip_is_identity(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        payload = config_to_payload(cfg)
        again = config_to_payload(parse_config(payload))
        assert payload == again
        assert config_hash(cfg) == config_hash(parse_config(payload))

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

    def test_cutoff_above_all_pairs_warns_and_succeeds(self, tmp_path, capsys):
        raw = base_config()
        raw["solver"]["master"] = {"max_iterations": 4, "pair_prob_cutoff": 1.0}
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert "nothing to calibrate" in capsys.readouterr().out
        manifest = json.loads((out / "calibration_manifest.json").read_text())
        assert manifest["pairs"] == []


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

    def test_bad_config_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        missing.write_text("{not json")
        code = main(["calibrate", "--config", str(missing), "--out", str(tmp_path / "o")])
        assert code == 2
