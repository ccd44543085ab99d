"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs every variant of each workload once (``calibrate``, then ``simulate`` on
the fresh tables) and writes ``perfbench/reference/<workload>.json``.  Record
only from a commit whose outputs are trusted: later commits are checked
against these values.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import THREAD_VARIABLES  # noqa: E402

os.environ.update({name: "1" for name in THREAD_VARIABLES})

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import run_cli, write_config  # noqa: E402


def record_variant(workload: str, variant: int, work: Path) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = write_config(workload, variant, work)
    tables, sim = work / "tables", work / "sim"
    status, _ = run_cli(["calibrate", "--config", str(config), "--out", str(tables)])
    if status != 0:
        raise SystemExit(f"{workload} variant {variant}: calibrate exited with {status}")
    status, _ = run_cli(
        ["simulate", "--config", str(config), "--out", str(sim), "--artifacts", str(tables)]
    )
    if status != 0:
        raise SystemExit(f"{workload} variant {variant}: simulate exited with {status}")
    return {
        "calibrate": checks.summarize_calibrate(tables),
        "simulate": checks.summarize_simulate(sim),
    }


def main(names: list[str]) -> None:
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    for workload in names or sorted(workloads.WORKLOADS):
        variants = {}
        for variant in range(workloads.VARIANTS):
            variants[str(variant)] = record_variant(
                workload, variant, HERE / ".work" / "record" / workload
            )
            print(f"{workload} variant {variant} recorded", flush=True)
        document = {
            "recorded_with": {
                "git_sha": sha,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "variants": variants,
        }
        path = HERE / "reference" / f"{workload}.json"
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
