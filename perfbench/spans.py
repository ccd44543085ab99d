"""Span tracer wrapped around the program's layer functions from outside.

``Tracer.installed()`` replaces each target function by a wrapper in every
loaded ``cogrelay`` namespace that binds it, so calls through ``from ...
import`` bindings (``master.calibrate_lambda``, ``sim._run_episode_batch``,
``cli.run_proposed`` ...) are recorded too, and restores the originals on
exit.  A span is (name, start, end, parent, run id); spans stay in memory
until ``dump``.  A span's self time is its duration minus that of its direct
child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter
from pathlib import Path


def _count_gains(counts, args, kwargs, result, parent):
    gain = args[0] if args else kwargs["gain"]
    counts["subpolicy.solve_optimal_power.gains"] += getattr(gain, "size", 1)


def _count_calibration(counts, args, kwargs, result, parent):
    report = result.report
    counts["subpolicy.calibrate_lambda.lambda_evals"] += report.iterations
    counts["subpolicy.calibrate_lambda.not_converged"] += int(not report.converged)
    counts["subpolicy.calibrate_lambda.budget_slack"] += int(report.budget_slack)
    if parent == "master.evaluate":
        counts["master.calibrations"] += 1


def _count_episodes(counts, args, kwargs, result, parent):
    cube = args[3] if len(args) > 3 else kwargs["cube"]
    counts["subpolicy.run_episode_batch.episodes"] += next(iter(cube.values())).shape[0]


def _count_segment_episodes(counts, args, kwargs, result, parent):
    if parent == "sim.run_proposed":
        counts["sim.segment_episodes"] += args[2] if len(args) > 2 else kwargs["episodes"]


def _count_iterations(counts, args, kwargs, result, parent):
    counts["master.iterations"] += result.iterations


# (module, attribute, span name, counting hook)
TARGETS = (
    ("cogrelay.cli", "main", "cli.main", None),
    ("cogrelay.cli", "_load_policies", "cli.load_policies", None),
    ("cogrelay.cli", "atomic_write_json", "cli.write", None),
    ("cogrelay.cli", "write_csv", "cli.write", None),
    ("cogrelay.master", "solve_master", "master.solve_master", _count_iterations),
    ("cogrelay.master", "RateModel.evaluate", "master.evaluate", None),
    ("cogrelay.sim", "run_proposed", "sim.run_proposed", None),
    ("cogrelay.sim", "run_baseline", "sim.run_baseline", None),
    ("cogrelay.sim", "transmit_mass", "sim.transmit_mass", None),
    ("cogrelay.subpolicy", "calibrate_lambda", "subpolicy.calibrate_lambda", _count_calibration),
    ("cogrelay.subpolicy", "offline_recursion", "subpolicy.offline_recursion", None),
    ("cogrelay.subpolicy", "_run_episode_batch", "subpolicy.run_episode_batch", _count_episodes),
    ("cogrelay.subpolicy", "draw_episode_cube", "subpolicy.draw_episode_cube",
     _count_segment_episodes),
    ("cogrelay.subpolicy", "solve_optimal_power", "subpolicy.solve_optimal_power", _count_gains),
    ("cogrelay.model", "segment_probabilities", "model.segment_probabilities", None),
    ("cogrelay.model", "sample_pu_activity", "model.sample_pu_activity", None),
    ("cogrelay.model", "partition_segments", "model.partition_segments", None),
    ("cogrelay.seeding", "stream", "seeding.stream", None),
)

# Per-layer metrics and their units, in report order.
PER_LAYER = (
    ("subpolicy.solve_optimal_power.calls", "count"),
    ("subpolicy.solve_optimal_power.gains", "count"),
    ("subpolicy.solve_optimal_power.s", "s"),
    ("subpolicy.solve_optimal_power.ns_per_gain", "ns"),
    ("subpolicy.calibrate_lambda.calls", "count"),
    ("subpolicy.calibrate_lambda.lambda_evals", "count"),
    ("subpolicy.calibrate_lambda.self_s", "s"),
    ("subpolicy.calibrate_lambda.not_converged", "count"),
    ("subpolicy.calibrate_lambda.budget_slack", "count"),
    ("subpolicy.offline_recursion.calls", "count"),
    ("subpolicy.offline_recursion.self_s", "s"),
    ("subpolicy.run_episode_batch.calls", "count"),
    ("subpolicy.run_episode_batch.episodes", "count"),
    ("subpolicy.run_episode_batch.self_s", "s"),
    ("master.iterations", "count"),
    ("master.evaluations", "count"),
    ("master.cache_hit_ratio", "ratio"),
    ("master.self_s", "s"),
    ("model.segment_probabilities.s", "s"),
    ("model.sample_pu_activity.calls", "count"),
    ("model.sample_pu_activity.s", "s"),
    ("model.partition_segments.s", "s"),
    ("seeding.stream.calls", "count"),
    ("seeding.stream.s", "s"),
    ("sim.run_proposed.self_s", "s"),
    ("sim.run_baseline.self_s", "s"),
    ("sim.transmit_mass.s", "s"),
    ("sim.segment_episodes", "count"),
    ("cli.load_policies.s", "s"),
    ("cli.write.s", "s"),
    ("cli.outputs_bitwise", "bool"),
    ("trace.overhead_frac", "ratio"),
)


def _resolve(owner, dotted: str):
    """(object holding the last attribute, attribute name, value)."""
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans and counters of the calls it wraps, per run id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.counts: dict[int, Counter] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def start_run(self, run_id: int) -> None:
        self.run_id = run_id
        self.counts[run_id] = Counter()

    def wrap(self, name: str, fn, hook=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, runs, stack = self.parents, self.runs, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            parent = stack[-1] if stack else -1
            names.append(name)
            parents.append(parent)
            runs.append(self.run_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts[self.run_id], args, kwargs, result,
                     names[parent] if parent >= 0 else None)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target in every loaded namespace of its package."""
        replaced = []
        try:
            for module_name, dotted, name, hook in targets:
                owner, attr, original = _resolve(importlib.import_module(module_name), dotted)
                wrapper = self.wrap(name, original, hook)
                package = module_name.split(".")[0]
                holders = [owner] if owner is not sys.modules[module_name] else [
                    mod for key, mod in list(sys.modules.items())
                    if key == package or key.startswith(package + ".")
                ]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            replaced.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(replaced):
                setattr(holder, key, original)

    def aggregate(self, run_id: int) -> tuple[Counter, Counter, Counter]:
        """Calls, total ns and self ns per span name for one run."""
        calls, total, child = Counter(), Counter(), Counter()
        own = [i for i, r in enumerate(self.runs) if r == run_id]
        for i in own:
            duration = self.ends[i] - self.starts[i]
            calls[self.names[i]] += 1
            total[self.names[i]] += duration
            if self.parents[i] >= 0:
                child[self.parents[i]] += duration
        self_ns = Counter()
        for i in own:
            self_ns[self.names[i]] += self.ends[i] - self.starts[i] - child[i]
        return calls, total, self_ns

    def metrics(self, run_id: int) -> dict[str, float]:
        """Per-layer metrics of one run, except the two the caller measures
        (``cli.outputs_bitwise`` and ``trace.overhead_frac``)."""
        calls, total, self_ns = self.aggregate(run_id)
        counts = self.counts.get(run_id, Counter())
        sec = 1e-9
        sop, cal = "subpolicy.solve_optimal_power", "subpolicy.calibrate_lambda"
        off, reb = "subpolicy.offline_recursion", "subpolicy.run_episode_batch"
        gains = counts[f"{sop}.gains"]
        evaluations = calls["master.evaluate"]
        return {
            f"{sop}.calls": calls[sop],
            f"{sop}.gains": gains,
            f"{sop}.s": total[sop] * sec,
            f"{sop}.ns_per_gain": total[sop] / gains if gains else 0.0,
            f"{cal}.calls": calls[cal],
            f"{cal}.lambda_evals": counts[f"{cal}.lambda_evals"],
            f"{cal}.self_s": self_ns[cal] * sec,
            f"{cal}.not_converged": counts[f"{cal}.not_converged"],
            f"{cal}.budget_slack": counts[f"{cal}.budget_slack"],
            f"{off}.calls": calls[off],
            f"{off}.self_s": self_ns[off] * sec,
            f"{reb}.calls": calls[reb],
            f"{reb}.episodes": counts[f"{reb}.episodes"],
            f"{reb}.self_s": self_ns[reb] * sec,
            "master.iterations": counts["master.iterations"],
            "master.evaluations": evaluations,
            "master.cache_hit_ratio": (
                (evaluations - counts["master.calibrations"]) / evaluations if evaluations else 0.0
            ),
            "master.self_s": (self_ns["master.solve_master"] + self_ns["master.evaluate"]) * sec,
            "model.segment_probabilities.s": total["model.segment_probabilities"] * sec,
            "model.sample_pu_activity.calls": calls["model.sample_pu_activity"],
            "model.sample_pu_activity.s": total["model.sample_pu_activity"] * sec,
            "model.partition_segments.s": total["model.partition_segments"] * sec,
            "seeding.stream.calls": calls["seeding.stream"],
            "seeding.stream.s": total["seeding.stream"] * sec,
            "sim.run_proposed.self_s": self_ns["sim.run_proposed"] * sec,
            "sim.run_baseline.self_s": self_ns["sim.run_baseline"] * sec,
            "sim.transmit_mass.s": total["sim.transmit_mass"] * sec,
            "sim.segment_episodes": counts["sim.segment_episodes"],
            "cli.load_policies.s": total["cli.load_policies"] * sec,
            "cli.write.s": total["cli.write"] * sec,
        }

    def dump(self, path: Path) -> None:
        """Write every recorded span as CSV: id, name, start, end, parent, run."""
        with path.open("w") as handle:
            handle.write("id,name,start_ns,end_ns,parent,run\n")
            for i, name in enumerate(self.names):
                handle.write(
                    f"{i},{name},{self.starts[i]},{self.ends[i]},{self.parents[i]},{self.runs[i]}\n"
                )
