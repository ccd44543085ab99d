"""cogrelay benchmark: wall time of ``calibrate`` and ``simulate`` per workload.

Run from the repository root:

    python3 perfbench/run.py --workload calib-readme --seed 1 --seconds 30 --trace 0

Set-up is timed in ``setup_repeats`` fresh worker processes, from process
start to a parsed config (plus, on ``sim-spatial``, the calibrate that makes
its tables).  One further worker process then repeats the workload's commands
for ``--seconds`` and checks every output against ``reference/``.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of ``spans.py``.  The latest
run's files, its spans included, are kept under ``perfbench/.work/``.
Set-up, commands and tracing run single-threaded.

Times are medians of wall seconds, rescaled to a nominal machine speed.
The benchmark was defined on a shared machine whose speed drifts by a third
over minutes, for the program and for any fixed loop alike.  Each worker
therefore times a fixed CPU job (``worker.yardstick``) after every timed
command, and every time is multiplied by ``YARDSTICK_NOMINAL_S`` over the
run's median yardstick.  ``result.json`` keeps the unscaled medians.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import PER_LAYER  # noqa: E402

# Seconds of worker.yardstick on the machine the benchmark was defined on
# (2 vCPUs, x86_64, Python 3.11.7, numpy 2.4.6, when it ran unloaded).
YARDSTICK_NOMINAL_S = 0.16
# Every run must end within this many seconds of its start.
TIME_LIMIT_S = 170.0
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = (
    ("setup_s", "s"),
    ("calibrate_s", "s"),
    ("simulate_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class BenchmarkError(RuntimeError):
    pass


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def provenance() -> dict:
    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30,
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def worker(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; (monotonic start, last stdout JSON line)."""
    started = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {argv[0]} did not finish in time") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchmarkError(
            f"worker {argv[0]} exited with {done.returncode}:\n{done.stderr[-4000:]}"
        )
    if done.stderr:
        sys.stderr.write(done.stderr)
    return started, json.loads(done.stdout.strip().splitlines()[-1])


def scaled_medians(samples: dict[str, list[float]], yardsticks: list[float]) -> dict:
    """Median wall seconds per timed step, rescaled from the speed the machine
    ran at during this run (median yardstick) to the nominal speed."""
    scale = YARDSTICK_NOMINAL_S / statistics.median(yardsticks)
    return {name: statistics.median(values) * scale for name, values in samples.items()}


def run(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "cogrelay" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source at {ROOT / 'src' / 'cogrelay'}")
    env = pinned_env()
    for directory in (ROOT / "src" / "cogrelay", HERE):
        if not compileall.compile_dir(str(directory), quiet=1, maxlevels=0):
            raise BenchmarkError(f"byte-compiling {directory} failed")
    # Only the latest run's files are kept: traced runs leave large span dumps.
    shutil.rmtree(HERE / ".work", ignore_errors=True)
    work = HERE / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    work.mkdir(parents=True)
    primary = workloads.WORKLOADS[args.workload]["primary"]

    setup_s, calibrate_s, tables, yardsticks = [], [], [], []
    attempted, failures, bitwise = 0, [], True
    for k in range(workloads.WORKLOADS[args.workload]["setup_repeats"]):
        variant = workloads.variant_of(args.seed, k)
        probe = work / f"setup_{k}"
        started, ready = worker(
            ["setup", "--workload", args.workload, "--variant", str(variant), "--dir", str(probe)],
            env, deadline,
        )
        setup_s.append(ready["ready_at"] - started)
        yardsticks += ready["yardstick_s"]
        if primary == "simulate":
            calibrate_s.append(ready["calibrate_s"])
            tables.append([variant, str(probe / "tables"), ready["spent_budget"]])
            attempted += ready["attempted"]
            failures += ready["failures"]
            bitwise &= ready["bitwise"]

    _, measured = worker(
        ["measure", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--tables", json.dumps(tables), "--dir", str(work / "measure")],
        env, deadline,
    )
    yardsticks += measured["yardstick_s"]
    attempted += measured["attempted"]
    failures += measured["failures"]
    bitwise &= measured["bitwise"]
    samples = dict(measured["samples"], setup_s=setup_s)
    if primary == "simulate":
        samples["calibrate_s"] = calibrate_s
    if args.trace:
        values = dict(measured["per_layer"], **{"cli.outputs_bitwise": int(bitwise)})
        units = dict(PER_LAYER)
    else:
        values = dict(scaled_medians(samples, yardsticks),
                      peak_rss_mib=measured["peak_rss_mib"])
        units = dict(END_TO_END)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": dict(provenance(), numpy=measured["numpy"]),
        "reps": measured["reps"],
        "samples": samples,
        "yardstick_s": yardsticks,
        "wall_medians": {name: statistics.median(v) for name, v in samples.items()},
        "failures": failures,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        },
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description="cogrelay benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        record = run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for key, value in record["provenance"].items():
        print(f"# {key}: {value}")
    print(f"# workload {args.workload}, seed {args.seed}, {record['reps']} repetitions")
    for reason in record["failures"][:20]:
        print(f"# FAILED {reason}")
    result = record["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"ops attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
