"""File artifacts: CSV series, the solve report, and its shipped schema.

CSV files are comma-separated with a header row and 17 significant digits,
so reruns with identical flags produce byte-identical output.
"""

from __future__ import annotations

import csv
import json
from importlib import resources

import numpy as np

from .grids import ControlSchedule, ShootingPlan, control_times, grid_times
from .solver import SolveReport
from .transcription import OcProblem

_FMT = "%.17g"


def _write_rows(path, header, rows):
    """The header through csv.writer, then one %-format per row: numbers
    need no quoting, so each line is the values joined by commas. Rows are
    formatted one at a time; a list of all values as Python floats would
    hold some 32 bytes per value at once."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        line = ",".join([_FMT] * len(header)) + "\r\n"
        fh.writelines(line % tuple(row) for row in np.asarray(rows, dtype=float))


def write_controls_csv(path, plan: ShootingPlan, schedule: ControlSchedule):
    times = control_times(plan)
    stacked = schedule.stacked()
    header = ["t"] + [f"u_{c + 1}" for c in range(stacked.shape[1])]
    _write_rows(path, header, np.column_stack([times, stacked]))


def read_controls_csv(path, plan: ShootingPlan) -> ControlSchedule:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)  # the header; an empty file has no rows either
        rows = [[float(v) for v in row[1:]] for row in reader]
    return ControlSchedule.from_stacked(plan, np.asarray(rows))


def write_ensemble_stats_csv(path, plan: ShootingPlan, segments):
    """Per-node ensemble mean and stddev of every state coordinate."""
    stacked = np.concatenate(segments, axis=0)
    mean = stacked.mean(axis=1)
    std = stacked.std(axis=1)
    n = mean.shape[1]
    header = (
        ["t"] + [f"mean_{c + 1}" for c in range(n)] + [f"std_{c + 1}" for c in range(n)]
    )
    _write_rows(path, header, np.column_stack([grid_times(plan), mean, std]))


def report_to_dict(report: SolveReport, problem: OcProblem, source: str) -> dict:
    return {
        "status": report.status.value,
        "objective": report.objective,
        "continuity_residual": report.continuity_residual,
        "max_bound_violation": report.max_bound_violation,
        "grad_inf": report.grad_inf,
        "iterations": {"outer": report.outer_iterations, "inner": report.inner_iterations},
        "problem": {
            "source": source,
            "M": problem.M,
            "seed": problem.seed,
            "segments": problem.n_segments,
            "total_steps": problem.plan.total_steps,
            "state_dim": problem.model.n,
            "control_dim": problem.model.m,
        },
        "history": [
            {
                "outer": rec.outer,
                "mu": rec.mu,
                "rho": rec.rho,
                "nu": rec.nu,
                "merit": rec.merit,
                "objective": rec.objective,
                "continuity": rec.continuity,
                "grad_inf": rec.grad_inf,
                "inner_iterations": rec.inner_iterations,
            }
            for rec in report.history
        ],
    }


def write_report_json(path, report: SolveReport, problem: OcProblem, source: str):
    with open(path, "w") as fh:
        json.dump(report_to_dict(report, problem, source), fh, indent=2)
        fh.write("\n")


def load_report_schema() -> dict:
    text = resources.files("ensemble_oc").joinpath("schemas/report_schema.json").read_text()
    return json.loads(text)


def validate_schema(obj, schema, path="$"):
    """Check obj against the subset of JSON Schema used by the shipped files.

    Supports type, required, properties, items and enum; raises ValueError
    naming the offending path on the first mismatch.
    """
    kind = schema.get("type")
    checks = {
        "object": dict,
        "array": list,
        "string": str,
        "integer": int,
        "boolean": bool,
    }
    if kind == "number":
        if not isinstance(obj, (int, float)) or isinstance(obj, bool):
            raise ValueError(f"{path}: expected number, got {type(obj).__name__}")
    elif kind is not None:
        expected = checks[kind]
        if not isinstance(obj, expected) or (kind == "integer" and isinstance(obj, bool)):
            raise ValueError(f"{path}: expected {kind}, got {type(obj).__name__}")
    if "enum" in schema and obj not in schema["enum"]:
        raise ValueError(f"{path}: {obj!r} not in {schema['enum']}")
    if kind == "object":
        for key in schema.get("required", []):
            if key not in obj:
                raise ValueError(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                validate_schema(obj[key], sub, f"{path}.{key}")
    if kind == "array" and "items" in schema:
        for i, item in enumerate(obj):
            validate_schema(item, schema["items"], f"{path}[{i}]")
