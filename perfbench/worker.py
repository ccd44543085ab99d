"""Benchmark worker: one fresh single-threaded Python process driving
``cogrelay.cli.main``.  Started by ``run.py``; not meant to be run by hand.

``setup`` generates and parses one variant's config (and, where the workload
simulates, calibrates its tables), then prints a ready line carrying the
monotonic clock reading so the parent can time set-up from process start.
``measure`` repeats the workload's commands until ``--seconds`` run out,
checks every output against the reference, and prints one JSON summary line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
from cogrelay import cli

import checks
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
YARDSTICK_LOOPS = 9000


def run_cli(argv: list[str]) -> tuple[int, float]:
    """Exit status and wall seconds of one ``cogrelay`` command."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
    except Exception:  # noqa: BLE001 - a traceback is a failed command, not a crashed benchmark
        traceback.print_exc()
        status = 1
    return status, time.perf_counter() - start


def yardstick() -> float:
    """Seconds a fixed CPU job takes: small-array numpy calls and an
    interpreter loop, the mix the program runs.  Sampled after every timed
    command, its median gauges how fast the shared machine ran."""
    x = np.linspace(1.0, 2.0, 2048)
    total = 0.0
    start = time.perf_counter()
    for i in range(YARDSTICK_LOOPS):
        total += float(np.log1p(x * (i % 7 + 1)).sum())
        for j in range(100):
            total += j
    return time.perf_counter() - start


def load_reference(workload: str) -> dict:
    return json.loads((HERE / "reference" / f"{workload}.json").read_text())["variants"]


def write_config(workload: str, variant: int, directory: Path) -> Path:
    path = directory / f"config_{variant:02d}.json"
    path.write_text(json.dumps(workloads.config_for(workload, variant), indent=2) + "\n")
    return path


def node_count(workload: str) -> int:
    return workloads.WORKLOADS[workload]["route"]["nodes"]


class Tally:
    """Checked ops, failures and byte-identity across a process's commands."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.bitwise = True

    def add(self, label: str, results: dict, summary: dict | None, ref: dict) -> None:
        self.attempted += len(results)
        self.failures += [f"{label} {op}: {why}" for op, why in results.items() if why]
        self.bitwise &= summary is not None and summary["sha256"] == ref["sha256"]

    def payload(self) -> dict:
        return {"attempted": self.attempted, "failures": self.failures, "bitwise": self.bitwise}


def calibrate_and_check(workload, variant, config, out, refs, tally, tracer=None):
    """Run ``calibrate`` (traced when ``tracer`` is given) and gate its outputs."""
    shutil.rmtree(out, ignore_errors=True)
    argv = ["calibrate", "--config", str(config), "--out", str(out), "--threads", "1"]
    if tracer is None:
        status, seconds = run_cli(argv)
    else:
        with tracer.installed():
            status, seconds = run_cli(argv)
    summary = checks.summarize_calibrate(out) if status == 0 else None
    ref = refs[str(variant)]["calibrate"]
    results = checks.check_calibrate(summary, ref, node_count(workload))
    tally.add(f"variant {variant} calibrate", results, summary, ref)
    return seconds, summary["spent_budget"] if summary else None


def simulate_and_check(variant, config, out, tables, tables_spent, refs, tally, tracer=None):
    """Run ``simulate`` on the tables in ``tables`` and gate ``results.csv``."""
    shutil.rmtree(out, ignore_errors=True)
    argv = ["simulate", "--config", str(config), "--out", str(out), "--artifacts", str(tables)]
    if tracer is None:
        status, seconds = run_cli(argv)
    else:
        with tracer.installed():
            status, seconds = run_cli(argv)
    summary = checks.summarize_simulate(out) if status == 0 else None
    ref = refs[str(variant)]["simulate"]
    results = checks.check_simulate(summary, ref, tables_spent)
    tally.add(f"variant {variant} simulate", results, summary, ref)
    return seconds


def cmd_setup(args) -> None:
    work = Path(args.dir)
    work.mkdir(parents=True, exist_ok=True)
    config = write_config(args.workload, args.variant, work)
    cli.load_config(config)
    ready = {"ready_at": time.monotonic()}
    if workloads.WORKLOADS[args.workload]["primary"] == "simulate":
        tally = Tally()
        refs = load_reference(args.workload)
        seconds, spent = calibrate_and_check(
            args.workload, args.variant, config, work / "tables", refs, tally
        )
        ready = {"ready_at": time.monotonic(), "calibrate_s": seconds, "spent_budget": spent,
                 **tally.payload()}
    ready["yardstick_s"] = [yardstick(), yardstick()]
    print(json.dumps(ready), flush=True)


def cmd_measure(args) -> None:
    workload = args.workload
    primary = workloads.WORKLOADS[workload]["primary"]
    refs = load_reference(workload)
    work = Path(args.dir)
    work.mkdir(parents=True, exist_ok=True)
    tables = json.loads(args.tables)  # [[variant, dir, spent], ...] from set-up
    tracer = Tracer() if args.trace else None
    tally = Tally()
    samples: dict[str, list[float]] = {"calibrate_s": [], "simulate_s": []}
    layers: list[dict] = []
    overheads: list[float] = []
    rep_seconds: list[float] = []
    yardsticks: list[float] = []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        started = time.perf_counter()
        out = work / "out"
        if primary == "calibrate":
            variant = workloads.variant_of(args.seed, k)
            config = write_config(workload, variant, work)
            seconds, spent = calibrate_and_check(workload, variant, config, out, refs, tally)
            samples["calibrate_s"].append(seconds)
            yardsticks.append(yardstick())
            if tracer is not None:
                tracer.start_run(k)
                traced, spent = calibrate_and_check(workload, variant, config, out, refs, tally,
                                                    tracer)
                overheads.append(traced / seconds - 1.0)
            for _ in range(workloads.WORKLOADS[workload]["simulate_repeats"]):
                samples["simulate_s"].append(
                    simulate_and_check(variant, config, work / "sim", out, spent, refs, tally)
                )
                yardsticks.append(yardstick())
        else:
            variant, table_dir, spent = tables[k % len(tables)]
            config = Path(table_dir).parent / f"config_{variant:02d}.json"
            seconds = simulate_and_check(variant, config, out, table_dir, spent, refs, tally)
            samples["simulate_s"].append(seconds)
            yardsticks.append(yardstick())
            if tracer is not None:
                tracer.start_run(k)
                traced = simulate_and_check(variant, config, out, table_dir, spent, refs, tally,
                                            tracer)
                overheads.append(traced / seconds - 1.0)
        if tracer is not None:
            layers.append(tracer.metrics(k))
        k += 1
        now = time.perf_counter()
        rep_seconds.append(now - started)
        if now + statistics.median(rep_seconds) > deadline:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_layer = {}
    if tracer is not None:
        per_layer = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        per_layer["trace.overhead_frac"] = statistics.median(overheads)
        tracer.dump(work / "spans.csv")
    print(json.dumps({
        "reps": k,
        "samples": samples,
        "peak_rss_mib": peak_rss_mib,
        "yardstick_s": yardsticks,
        "per_layer": per_layer,
        "numpy": np.__version__,
        **tally.payload(),
    }), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--variant", type=int, required=True)
    measure = sub.add_parser("measure")
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.add_argument("--tables", default="[]")
    for p in (setup, measure):
        p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
        p.add_argument("--dir", required=True)
    args = parser.parse_args()
    if args.mode == "setup":
        cmd_setup(args)
    else:
        cmd_measure(args)


if __name__ == "__main__":
    main()
