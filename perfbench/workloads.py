"""Workload table and the configs the benchmark hands to angiosim.

Every config is written from the benchmark's seed, so the same seed gives
the same inputs. The program only ever sees the generated files.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

# The C2 logistic preset's time step, written into every config explicitly so
# that t_end / dt (and hence the step count) is fixed by the benchmark alone.
DT = 0.002
# Written explicitly too; the correctness gate checks max_elliptic_residual
# against it.
ELLIPTIC_TOLERANCE = 1e-10
# run-2d draws u from config seed `seed % RUN2D_DRAWS`; the reference outputs
# hold one entry per draw, so every benchmark seed has a reference.
RUN2D_DRAWS = 8


@dataclass(frozen=True)
class Workload:
    """Why each workload exists: README.md and BENCHMARK.json."""

    name: str
    command: str  # angiosim subcommand: "run" or "sweep"
    steps: int  # time-loop steps per point in a full repetition
    points: int  # scenarios per repetition (1 for run, grid size for sweep)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("run-2d", "run", 30, 1),
        Workload("sweep", "sweep", 1000, 9),
    )
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def max_parallel() -> int:
    """The shipped sweep asks for 3 workers; never more than the cores."""
    return min(3, nproc())


def seed_class(wl: Workload, seed: int) -> str:
    """Key of the reference entry a seed is checked against."""
    return str(seed % RUN2D_DRAWS) if wl.name == "run-2d" else "any"


def _with_keys(text: str, updates: dict[str, str]) -> str:
    """Replace (or append) `key = value` lines of a config file."""
    kept = [
        line for line in text.splitlines()
        if line.split("#", 1)[0].split("=", 1)[0].strip() not in updates
    ]
    kept += [f"{key} = {value}" for key, value in updates.items()]
    return "\n".join(kept) + "\n"


def config_text(wl: Workload, root: str, seed: int, steps: int) -> str:
    """Config for `steps` time-loop steps per point of workload wl."""
    common = {
        "solver.dt": repr(DT),
        "solver.t_end": repr(steps * DT),
        "solver.elliptic_tolerance": repr(ELLIPTIC_TOLERANCE),
    }
    if wl.name == "run-2d":
        # v gets a smooth cosine bump so the random u cannot push the face
        # speeds past the CFL bound
        return _with_keys("preset = C2_logistic\n", {
            "seed": str(seed % RUN2D_DRAWS),
            "grid.dim": "2",
            "grid.lengths": "1.0, 1.0",
            "grid.cells": "256, 256",
            "init.profile": "random_positive",
            "init.base": "1.0",
            "init.amplitude": "0.2",
            "init.v_profile": "cosine_bump",
            "init.v_base": "1.0",
            "init.v_amplitude": "0.1",
            **common,
        })
    if wl.name == "sweep":
        with open(os.path.join(root, "configs", "sweep_chi_mu.cfg")) as fh:
            return _with_keys(fh.read(), {
                "seed": str(seed),
                "sweep.max_parallel": str(max_parallel()),
                **common,
            })
    raise ValueError(f"unknown workload {wl.name!r}")
