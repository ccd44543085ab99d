"""Correctness gate: compare a command's outputs with the reference outputs
recorded for the same workload variant.

One op is one checked output: a pair artifact of ``calibrate`` or a scheme
row of ``simulate``'s ``results.csv``.  An op fails when the command exits
non-zero, the spent budget exceeds ``p0``, a table breaks the footprint bound,
or ``u_min`` or the pair rate lies more than ``SE_TOLERANCE`` standard errors
from the reference.  The standard error of a difference combines the one
reported with the output and the one stored in the reference.  Byte-identical
outputs are reported separately and are not required.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

SE_TOLERANCE = 3.0
# Budget checks allow the relative error of the bisections that set powers.
BUDGET_RTOL = 1e-6


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def min_section_se(master: dict) -> float:
    """Standard error of the smallest section rate in ``master.json``: the
    pairs straddling that section, each weighted by its probability."""
    rates = master["section_rates"]
    m = 1 + min(range(len(rates)), key=rates.__getitem__)
    var = sum(
        (a["prob"] * a["rate_se"]) ** 2
        for a in master["allocation"]
        if a["pair"][0] < m <= a["pair"][1]
    )
    return math.sqrt(var)


def summarize_calibrate(out: Path) -> dict:
    """The values of ``calibrate``'s outputs that the gate checks."""
    master = json.loads((out / "master.json").read_text())
    pairs = {}
    digests = {}
    for path in sorted((out / "policies").glob("pair_*.json")):
        payload = json.loads(path.read_text())
        pairs[f"{payload['head']}-{payload['end']}"] = {
            "rate": payload["rate"],
            "rate_se": payload["rate_se"],
            "entries": len(payload["values"]),
        }
        digests[f"policies/{path.name}"] = _sha256(path)
    for name in ("master.json", "calibration_manifest.json"):
        digests[name] = _sha256(out / name)
    return {
        "p0": master["p0"],
        "spent_budget": master["spent_budget"],
        "u_min": master["u_min"],
        "u_min_se": min_section_se(master),
        "pairs": pairs,
        "sha256": digests,
    }


def summarize_simulate(out: Path) -> dict:
    """The values of ``simulate``'s ``results.csv`` that the gate checks."""
    path = out / "results.csv"
    with path.open(newline="") as handle:
        rows = {
            row["scheme"]: {
                key: float(row[key])
                for key in ("u_min", "u_empirical", "u_empirical_se", "total_power", "p0")
            }
            for row in csv.DictReader(handle)
        }
    return {"rows": rows, "sha256": {"results.csv": _sha256(path)}}


def within_se(value: float, se: float, ref: float, ref_se: float) -> bool:
    return abs(value - ref) <= SE_TOLERANCE * math.hypot(se, ref_se)


def over_budget(spent: float, p0: float) -> bool:
    return spent > p0 * (1.0 + BUDGET_RTOL)


def check_calibrate(summary: dict | None, ref: dict, node_count: int) -> dict[str, str | None]:
    """Failure reason (or ``None``) per pair artifact; ``summary`` is ``None``
    when the command exited non-zero."""
    if summary is None:
        return {op: "calibrate exited non-zero" for op in sorted(ref["pairs"])}
    common = None
    total_entries = sum(p["entries"] for p in summary["pairs"].values())
    if over_budget(summary["spent_budget"], summary["p0"]):
        common = f"spent budget {summary['spent_budget']!r} exceeds p0 {summary['p0']!r}"
    elif total_entries > node_count**3:
        common = f"tables hold {total_entries} values, above the bound {node_count**3}"
    elif not within_se(summary["u_min"], summary["u_min_se"], ref["u_min"], ref["u_min_se"]):
        common = f"u_min {summary['u_min']!r} is off the reference {ref['u_min']!r}"
    results: dict[str, str | None] = {}
    for op in sorted(set(ref["pairs"]) | set(summary["pairs"])):
        got, want = summary["pairs"].get(op), ref["pairs"].get(op)
        if common is not None:
            results[op] = common
        elif got is None:
            results[op] = "pair artifact missing"
        elif want is None:
            results[op] = "pair artifact not in the reference"
        elif got["entries"] > node_count:
            results[op] = f"table holds {got['entries']} values for {node_count} nodes"
        elif not within_se(got["rate"], got["rate_se"], want["rate"], want["rate_se"]):
            results[op] = f"rate {got['rate']!r} is off the reference {want['rate']!r}"
        else:
            results[op] = None
    return results


def check_simulate(
    summary: dict | None, ref: dict, tables_spent: float | None
) -> dict[str, str | None]:
    """Failure reason (or ``None``) per scheme row.  The proposed scheme's
    spent budget is that of the tables it replays (``tables_spent``); a
    baseline's is its reported total power.  ``results.csv`` reports one
    standard error per row, ``u_empirical_se``, which scales both checks."""
    if summary is None:
        return {op: "simulate exited non-zero" for op in sorted(ref["rows"])}
    results: dict[str, str | None] = {}
    for op in sorted(set(ref["rows"]) | set(summary["rows"])):
        got, want = summary["rows"].get(op), ref["rows"].get(op)
        if got is None:
            results[op] = "row missing"
            continue
        if want is None:
            results[op] = "row not in the reference"
            continue
        spent = tables_spent if op == "proposed" else got["total_power"]
        se, ref_se = got["u_empirical_se"], want["u_empirical_se"]
        if spent is None or over_budget(spent, got["p0"]):
            results[op] = f"spent budget {spent!r} exceeds p0 {got['p0']!r}"
        elif not within_se(got["u_min"], se, want["u_min"], ref_se):
            results[op] = f"u_min {got['u_min']!r} is off the reference {want['u_min']!r}"
        elif not within_se(got["u_empirical"], se, want["u_empirical"], ref_se):
            results[op] = (
                f"u_empirical {got['u_empirical']!r} is off the reference {want['u_empirical']!r}"
            )
        else:
            results[op] = None
    return results
