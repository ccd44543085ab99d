"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs ``run.py`` once per seed and workload with tracing off and
``run_seconds`` from ``BENCHMARK.json``, then reports per metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"python": platform.python_version(), "run_seconds": bench["run_seconds"],
              "seeds": args.seeds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed = 0
        for seed in args.seeds:
            started = time.monotonic()
            done = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({time.monotonic() - started:.0f} s): "
                  + ", ".join(f"{n} {v[-1]:.4g}" for n, v in values.items()), flush=True)
        stats = {name: summarize(v, bounds[name]) for name, v in values.items()}
        report["workloads"][workload] = {"failed": failed, "metrics": stats}
        for name, s in stats.items():
            print(f"{workload:14s} {name:14s} median {s['median']:.4g}  "
                  f"spread {s['spread']:.3f}  bound {s['bound']}")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
