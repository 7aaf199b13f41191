"""Correctness gates applied to every repetition.

A repetition passes when angiosim exited 0, its outputs keep the paper's
structural guarantees (completed run, mass ceiling, positivity, elliptic
residual within tolerance), its numbers agree with the reference outputs
recorded in perfbench/reference/ to |a - b| <= ATOL + RTOL |b|, and its files
are byte-identical to the other repetitions of the same command in the run.

Elliptic residuals are left out of the reference comparison: they measure
how far the solver went below its tolerance, which a different (still
correct) solver legitimately changes; the tolerance gate covers them.
"""
from __future__ import annotations

import hashlib
import math
import os

from workloads import ELLIPTIC_TOLERANCE

RTOL = 1e-8
ATOL = 1e-10
SOLVER_ACCURACY_KEYS = {"max_elliptic_residual", "elliptic_residual"}

RUN_FILES = ("trajectory.csv", "thresholds.txt", "thresholds.csv", "summary.txt")
SWEEP_FILES = ("sweep.csv",)
TRAJECTORY_SAMPLES = 20


def output_files(command: str) -> tuple[str, ...]:
    return RUN_FILES if command == "run" else SWEEP_FILES


def digest(out_dir: str, command: str) -> str:
    h = hashlib.sha256()
    for name in output_files(command):
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _read_summary(path: str) -> dict[str, str]:
    table = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition(" = ")
            table[key.strip()] = value.strip()
    return table


def observe(out_dir: str, command: str) -> dict:
    """The outputs a repetition is judged on, in the reference-file format."""
    if command == "sweep":
        header, rows = _read_csv(os.path.join(out_dir, "sweep.csv"))
        return {"header": header, "rows": rows}
    header, rows = _read_csv(os.path.join(out_dir, "trajectory.csv"))
    stride = max(1, len(rows) // TRAJECTORY_SAMPLES)
    picked = sorted(set(range(0, len(rows), stride)) | {len(rows) - 1})
    return {
        "summary": _read_summary(os.path.join(out_dir, "summary.txt")),
        "trajectory_header": header,
        "trajectory_rows": {str(i): rows[i] for i in picked},
    }


def _close(got: str, want: str) -> bool:
    """Numbers within tolerance (component-wise for 't0:t1' windows), else equal text."""
    got_parts, want_parts = got.split(":"), want.split(":")
    if len(got_parts) != len(want_parts):
        return False
    for g, w in zip(got_parts, want_parts):
        try:
            gf, wf = float(g), float(w)
        except ValueError:
            if g != w:
                return False
            continue
        if math.isnan(gf) or math.isnan(wf):
            if not (math.isnan(gf) and math.isnan(wf)):
                return False
        elif not abs(gf - wf) <= ATOL + RTOL * abs(wf):
            return False
    return True


def _row_problems(label, header, got, want) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} fields, reference has {len(want)}"]
    return [
        f"{label} {col}: {g} vs reference {w}"
        for col, g, w in zip(header, got, want)
        if col not in SOLVER_ACCURACY_KEYS and not _close(g, w)
    ]


def structural_problems(obs: dict, command: str) -> list[list[str]]:
    """Per point: the guarantees that must hold whatever the reference says."""
    if command == "sweep":
        col = {name: i for i, name in enumerate(obs["header"])}
        points = []
        for row in obs["rows"]:
            probs = []
            if row[col["termination"]] != "completed":
                probs.append(f"termination = {row[col['termination']]}")
            if row[col["error"]]:
                probs.append(f"error = {row[col['error']]}")
            mass = float(row[col["terminal_mass_u"]])
            if not (math.isfinite(mass) and mass > 0.0):
                probs.append(f"terminal_mass_u = {mass}")
            points.append(probs)
        return points
    s = obs["summary"]
    probs = []
    if s.get("termination") != "completed":
        probs.append(f"termination = {s.get('termination')}")
    if s.get("mass_ceiling_ok") != "yes":
        probs.append(f"mass_ceiling_ok = {s.get('mass_ceiling_ok')}")
    if not float(s.get("min_u_overall", "nan")) > 0.0:
        probs.append(f"min_u_overall = {s.get('min_u_overall')}")
    if not float(s.get("min_v_overall", "nan")) >= 0.0:
        probs.append(f"min_v_overall = {s.get('min_v_overall')}")
    if not float(s.get("max_elliptic_residual", "nan")) <= ELLIPTIC_TOLERANCE:
        probs.append(f"max_elliptic_residual = {s.get('max_elliptic_residual')}")
    return [probs]


def reference_problems(obs: dict, ref: dict, command: str) -> list[list[str]]:
    """Per point: disagreements with the recorded reference outputs."""
    if command == "sweep":
        if obs["header"] != ref["header"] or len(obs["rows"]) != len(ref["rows"]):
            return [["sweep.csv layout differs from the reference"]] * max(1, len(ref["rows"]))
        return [
            _row_problems(f"row {i}", obs["header"], got, want)
            for i, (got, want) in enumerate(zip(obs["rows"], ref["rows"]))
        ]
    probs = []
    if obs["summary"].keys() != ref["summary"].keys():
        probs.append("summary.txt keys differ from the reference")
    for key in obs["summary"].keys() & ref["summary"].keys():
        if key not in SOLVER_ACCURACY_KEYS and not _close(obs["summary"][key], ref["summary"][key]):
            probs.append(f"summary {key}: {obs['summary'][key]} vs reference {ref['summary'][key]}")
    if obs["trajectory_header"] != ref["trajectory_header"] \
            or obs["trajectory_rows"].keys() != ref["trajectory_rows"].keys():
        probs.append("trajectory.csv layout differs from the reference")
    else:
        for i, want in ref["trajectory_rows"].items():
            probs += _row_problems(f"trajectory row {i}", ref["trajectory_header"],
                                   obs["trajectory_rows"][i], want)
    return [probs]
