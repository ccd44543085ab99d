"""Tests of the benchmark's own check and metric code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spread  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402


def master_doc():
    # Sections 1..3 of a 4-node route; section 2 is the smallest.
    return {
        "section_rates": [3.0, 1.0, 2.0],
        "allocation": [
            {"pair": [0, 1], "prob": 0.5, "rate_se": 0.2},
            {"pair": [0, 3], "prob": 0.1, "rate_se": 0.4},
            {"pair": [1, 2], "prob": 0.2, "rate_se": 0.3},
        ],
    }


def calib_summary():
    return {
        "p0": 1000.0,
        "spent_budget": 1000.0,
        "u_min": 2.0,
        "u_min_se": 0.05,
        "pairs": {
            "0-1": {"rate": 5.0, "rate_se": 0.1, "entries": 2},
            "0-2": {"rate": 3.0, "rate_se": 0.1, "entries": 3},
        },
        "sha256": {"master.json": "aa"},
    }


def sim_summary():
    row = {"u_min": 2.0, "u_empirical": 3.0, "u_empirical_se": 0.1, "total_power": 1000.0,
           "p0": 1000.0}
    return {"rows": {"proposed": dict(row), "baseline3": dict(row)},
            "sha256": {"results.csv": "bb"}}


class TestChecks:
    def test_min_section_se_combines_straddling_pairs(self):
        # Section 2 is straddled by (0, 3) and (1, 2), not by (0, 1).
        expected = ((0.1 * 0.4) ** 2 + (0.2 * 0.3) ** 2) ** 0.5
        assert checks.min_section_se(master_doc()) == pytest.approx(expected)

    def test_within_se_edge(self):
        se = 0.3 * 2 ** 0.5
        assert checks.within_se(1.0 + 3.0 * se * 0.999, 0.3, 1.0, 0.3)
        assert not checks.within_se(1.0 + 3.0 * se * 1.001, 0.3, 1.0, 0.3)
        assert checks.within_se(1.0, 0.0, 1.0, 0.0)
        assert not checks.within_se(1.0 + 1e-15, 0.0, 1.0, 0.0)

    def test_identical_calibrate_passes(self):
        ref = calib_summary()
        results = checks.check_calibrate(copy.deepcopy(ref), ref, node_count=3)
        assert results == {"0-1": None, "0-2": None}

    def test_pair_rate_outside_tolerance_fails_that_pair(self):
        ref = calib_summary()
        got = copy.deepcopy(ref)
        got["pairs"]["0-2"]["rate"] += 3.0 * 0.1 * 2 ** 0.5 * 1.01
        results = checks.check_calibrate(got, ref, node_count=3)
        assert results["0-1"] is None
        assert "rate" in results["0-2"]

    @pytest.mark.parametrize(
        "mutate, word",
        [
            (lambda s: s.update(spent_budget=1000.01), "budget"),
            (lambda s: s.update(u_min=2.5), "u_min"),
            (lambda s: s["pairs"]["0-1"].update(entries=30), "bound"),
        ],
    )
    def test_global_failures_fail_every_pair(self, mutate, word):
        ref = calib_summary()
        got = copy.deepcopy(ref)
        mutate(got)
        results = checks.check_calibrate(got, ref, node_count=3)
        assert len(results) == 2
        assert all(word in why for why in results.values())

    def test_per_pair_footprint_and_missing_pairs(self):
        ref = calib_summary()
        got = copy.deepcopy(ref)
        got["pairs"]["0-1"]["entries"] = 4
        del got["pairs"]["0-2"]
        got["pairs"]["1-2"] = {"rate": 1.0, "rate_se": 0.1, "entries": 2}
        results = checks.check_calibrate(got, ref, node_count=3)
        assert "3 nodes" in results["0-1"]
        assert results["0-2"] == "pair artifact missing"
        assert results["1-2"] == "pair artifact not in the reference"

    def test_failed_command_fails_every_reference_op(self):
        assert len(checks.check_calibrate(None, calib_summary(), 3)) == 2
        assert len(checks.check_simulate(None, sim_summary(), 1000.0)) == 2

    def test_simulate_budget_rules(self):
        ref = sim_summary()
        assert checks.check_simulate(copy.deepcopy(ref), ref, 1000.0) == {
            "baseline3": None, "proposed": None,
        }
        # The proposed row is judged by the tables' spent budget, not its
        # measured power; a baseline by its total power.
        got = copy.deepcopy(ref)
        got["rows"]["proposed"]["total_power"] = 1100.0
        got["rows"]["baseline3"]["total_power"] = 1000.5
        results = checks.check_simulate(got, ref, 1000.0)
        assert results["proposed"] is None
        assert "budget" in results["baseline3"]
        assert "budget" in checks.check_simulate(ref, ref, 1000.5)["proposed"]

    def test_simulate_rate_rules(self):
        ref = sim_summary()
        got = copy.deepcopy(ref)
        got["rows"]["baseline3"]["u_empirical"] += 0.5
        results = checks.check_simulate(got, ref, 1000.0)
        assert "u_empirical" in results["baseline3"]
        got = copy.deepcopy(ref)
        got["rows"]["proposed"]["u_min"] -= 0.5
        assert "u_min" in checks.check_simulate(got, ref, 1000.0)["proposed"]


class TestCommandOutputs:
    """A tiny real calibrate + simulate summarizes and checks clean against
    itself."""

    def test_round_trip(self, tmp_path):
        from worker import run_cli

        raw = workloads.config_for("calib-readme", 3)
        raw["model"] = {"positions": [0.0, 2.0, 5.0], "alpha": 2.0}
        raw["solver"] = {"mc_samples": 100, "episodes": 100, "master": {"max_iterations": 2}}
        raw["sim"] = {"epochs": 50}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        tables, sim = tmp_path / "tables", tmp_path / "sim"
        assert run_cli(["calibrate", "--config", str(config), "--out", str(tables)])[0] == 0
        argv = ["simulate", "--config", str(config), "--out", str(sim), "--artifacts", str(tables)]
        assert run_cli(argv)[0] == 0
        cal, res = checks.summarize_calibrate(tables), checks.summarize_simulate(sim)
        assert sorted(cal["pairs"]) == ["0-1", "0-2", "1-2"]
        assert set(res["rows"]) == set(workloads.SCHEMES)
        assert not any(checks.check_calibrate(cal, cal, 3).values())
        assert not any(checks.check_simulate(res, res, cal["spent_budget"]).values())


def fake_package():
    """``fakepkg.a.outer`` calls ``inner``; ``fakepkg.b`` binds ``inner`` by
    ``from fakepkg.a import inner``."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def inner(x):
        return x + 1

    def outer(x):
        return a.inner(x) * 2

    a.inner, a.outer = inner, outer
    b.inner = inner
    return {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}


class TestTracer:
    def test_self_time_subtracts_direct_children_only(self):
        tracer = Tracer()
        tracer.start_run(0)
        # root [0, 100) > child [10, 60) > grandchild [20, 30); sibling in run 1.
        tracer.names = ["root", "child", "grand", "root"]
        tracer.starts = [0, 10, 20, 200]
        tracer.ends = [100, 60, 30, 205]
        tracer.parents = [-1, 0, 1, -1]
        tracer.runs = [0, 0, 0, 1]
        calls, total, self_ns = tracer.aggregate(0)
        assert calls == {"root": 1, "child": 1, "grand": 1}
        assert total == {"root": 100, "child": 50, "grand": 10}
        assert self_ns == {"root": 50, "child": 40, "grand": 10}
        assert tracer.aggregate(1)[1] == {"root": 5}

    def test_wraps_every_binding_and_restores(self, monkeypatch):
        modules = fake_package()
        for name, module in modules.items():
            monkeypatch.setitem(sys.modules, name, module)
        a, b = modules["fakepkg.a"], modules["fakepkg.b"]
        original = a.inner
        tracer = Tracer()
        tracer.start_run(0)
        targets = (("fakepkg.a", "inner", "inner", None), ("fakepkg.a", "outer", "outer", None))
        with tracer.installed(targets):
            assert a.inner is not original and b.inner is a.inner
            assert a.outer(1) == 4
            assert b.inner(1) == 2
        assert a.inner is original and b.inner is original
        assert tracer.names == ["outer", "inner", "inner"]
        assert tracer.parents == [-1, 0, -1]
        calls, _, _ = tracer.aggregate(0)
        assert calls == {"outer": 1, "inner": 2}

    def test_from_import_bindings_in_cogrelay_are_wrapped(self):
        from cogrelay import cli, master, sim, subpolicy

        bound = {
            (master, "calibrate_lambda"): subpolicy.calibrate_lambda,
            (sim, "_run_episode_batch"): subpolicy._run_episode_batch,
            (sim, "draw_episode_cube"): subpolicy.draw_episode_cube,
            (cli, "run_proposed"): sim.run_proposed,
            (cli, "run_baseline"): sim.run_baseline,
            (cli, "solve_master"): master.solve_master,
        }
        tracer = Tracer()
        with tracer.installed():
            for (module, name), original in bound.items():
                assert getattr(module, name) is not original
                assert getattr(module, name).__wrapped__ is original
        for (module, name), original in bound.items():
            assert getattr(module, name) is original

    def test_metrics_of_a_traced_calibrate(self, tmp_path):
        from worker import run_cli

        raw = workloads.config_for("calib-readme", 0)
        raw["model"] = {"positions": [0.0, 2.0, 5.0], "alpha": 2.0}
        raw["solver"] = {"mc_samples": 100, "episodes": 100, "master": {"max_iterations": 2}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        tracer = Tracer()
        tracer.start_run(7)
        with tracer.installed():
            assert run_cli(["calibrate", "--config", str(config), "--out", str(tmp_path)])[0] == 0
        m = tracer.metrics(7)
        assert set(m) | {"cli.outputs_bitwise", "trace.overhead_frac"} == {n for n, _ in PER_LAYER}
        # Three pairs, two iterations: three misses per iteration, and the
        # final evaluation of the best allocation hits the cache.
        assert m["master.iterations"] == 2
        assert m["subpolicy.calibrate_lambda.calls"] == 6
        assert m["master.evaluations"] == 9
        assert m["master.cache_hit_ratio"] == pytest.approx(3 / 9)
        assert m["subpolicy.calibrate_lambda.lambda_evals"] >= 6
        assert m["subpolicy.solve_optimal_power.ns_per_gain"] == pytest.approx(
            m["subpolicy.solve_optimal_power.s"] * 1e9 / m["subpolicy.solve_optimal_power.gains"]
        )
        assert m["sim.segment_episodes"] == 0
        assert m["cli.write.s"] > 0.0
        assert 0.0 < m["master.self_s"] < m["subpolicy.calibrate_lambda.self_s"] + 1.0


def test_spread_is_interquartile_range_over_median():
    values = [10.0, 11.0, 9.0, 12.0, 10.0, 8.0, 10.5, 9.5, 11.5, 10.0]
    stats = spread.summarize(values, bound=0.25)
    # Exclusive-method quartiles of the sorted values: 9.375 and 11.125.
    assert (stats["q1"], stats["median"], stats["q3"]) == (9.375, 10.0, 11.125)
    assert stats["spread"] == pytest.approx(0.175)


def test_variants_cycle_and_configs_differ_only_in_root_seed():
    assert [workloads.variant_of(15, k) for k in range(3)] == [15, 0, 1]
    a, b = workloads.config_for("sim-spatial", 0), workloads.config_for("sim-spatial", 1)
    assert a["seed"] != b["seed"]
    assert {**a, "seed": None} == {**b, "seed": None}


def test_times_are_rescaled_by_the_median_yardstick():
    import run

    samples = {"calibrate_s": [2.0, 4.0, 3.0], "setup_s": [0.3]}
    nominal = run.YARDSTICK_NOMINAL_S
    # The machine ran at two thirds of nominal speed (yardstick 1.5x slower).
    scaled = run.scaled_medians(samples, [nominal * 1.4, nominal * 1.5, nominal * 9.0])
    assert scaled == {"calibrate_s": pytest.approx(2.0), "setup_s": pytest.approx(0.2)}
