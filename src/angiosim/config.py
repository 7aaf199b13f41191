"""Key=value scenario configs, preset defaults, and sweep specs.

Format: one `key = value` per line, `#` starts a comment, dotted keys select
subsections (params.chi, solver.dt, grid.cells). Unknown keys, type errors,
and preset-constraint violations are reported with the offending key and line
number. Presets fill every key a file leaves unset; explicit keys override
preset defaults but still face the preset's constraints.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

from .dynamics import InitialSpec, ModelParams, SolverConfig
from .functionals import TRAJECTORY_COLUMNS
from .grid import Grid, build_grid

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "SweepSpec",
    "PRESETS",
    "parse_config",
    "parse_sweep",
    "scenario_with_overrides",
]


class ConfigError(ValueError):
    pass


PRESETS = (
    "C1_no_mitosis",
    "C2_logistic",
    "chi_zero_corollary",
    "R3_theta_gt1",
    "heat_oracle",
    "custom",
)

# preset -> key -> default (string form, same parser as file values)
_BASE_DEFAULTS = {
    "seed": "0",
    "out": "out",
    "grid.dim": "1",
    "grid.lengths": "1.0",
    "grid.cells": "128",
    "params.chi": "0.5",
    "params.xi1": "1.0",
    "params.xi2": "1.0",
    "params.d": "1.0",
    "params.a": "0.0",
    "params.mu": "0.0",
    "params.theta": "1.0",
    "solver.dt": "0.005",
    "solver.t_end": "10.0",
    "solver.cfl_safety": "0.5",
    "solver.flux_scheme": "upwind",
    "solver.blowup_threshold": "1e6",
    "solver.record_every": "10",
    "solver.elliptic_tolerance": "1e-10",
    "init.profile": "cosine_bump",
    "init.base": "1.0",
    "init.amplitude": "0.2",
    "init.v_profile": "same",
    "init.v_base": "same",
    "init.v_amplitude": "same",
    "fit.column": "l2_u_dev",
    "fit.window_start": "auto",
    "fit.window_end": "auto",
}

_PRESET_OVERRIDES = {
    "C1_no_mitosis": {
        "params.chi": "0.5", "params.xi1": "1.0", "params.xi2": "1.0",
        "params.d": "2.0", "params.a": "0.0", "params.mu": "0.0",
        "solver.dt": "0.005", "solver.t_end": "30.0",
        "init.v_profile": "constant", "init.v_base": "0.5", "init.v_amplitude": "0.0",
    },
    "C2_logistic": {
        "params.chi": "0.5", "params.xi1": "0.5", "params.xi2": "0.5",
        "params.d": "1.0", "params.a": "1.0", "params.mu": "1.0",
        "solver.dt": "0.002", "solver.t_end": "30.0",
        "init.v_profile": "cosine_bump", "init.v_base": "1.0", "init.v_amplitude": "0.1",
    },
    "chi_zero_corollary": {
        "params.chi": "0.0", "params.xi1": "1.0", "params.xi2": "1.0",
        "params.d": "1.0", "params.a": "0.0", "params.mu": "0.0",
        "solver.dt": "0.005", "solver.t_end": "50.0",
        "init.v_profile": "constant", "init.v_base": "0.5", "init.v_amplitude": "0.0",
    },
    # chi large enough that the xi1-dominance condition fails: the run is
    # covered by the theta>1 mitosis branch alone
    "R3_theta_gt1": {
        "params.chi": "1.0", "params.xi1": "0.5", "params.xi2": "0.5",
        "params.d": "1.0", "params.a": "1.0", "params.mu": "1.0", "params.theta": "2.0",
        "solver.dt": "0.002", "solver.t_end": "30.0",
        "init.v_profile": "cosine_bump", "init.v_base": "1.0", "init.v_amplitude": "0.1",
    },
    "heat_oracle": {
        "params.chi": "0.0", "params.xi1": "0.0", "params.xi2": "0.0",
        "params.d": "1.0", "params.a": "0.0", "params.mu": "0.0",
        "grid.cells": "256", "solver.dt": "0.0001", "solver.t_end": "1.0",
        "init.amplitude": "0.1", "init.v_profile": "constant",
        "init.v_base": "1.0", "init.v_amplitude": "0.0",
    },
    "custom": {},
}

_KNOWN_KEYS = {"preset", *_BASE_DEFAULTS}

# keys a sweep may vary (numeric scenario knobs)
_SWEEPABLE_PREFIXES = ("params.", "solver.", "init.")


@dataclass(frozen=True)
class ScenarioConfig:
    preset: str
    out_dir: str
    grid: Grid
    params: ModelParams
    solver: SolverConfig
    initial: InitialSpec
    fit_column: str = "l2_u_dev"
    fit_window: tuple[float, float] | None = None


@dataclass(frozen=True)
class SweepSpec:
    base: ScenarioConfig
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    max_points: int = 256
    base_keys: dict = field(default_factory=dict, compare=False)
    axis_lines: dict = field(default_factory=dict, compare=False)  # swept key -> its axis's line


def _read_kv(path, overrides=None):
    """File -> {key: (raw value, line number)}; duplicate keys rejected. The
    overrides {key: value} then replace or add keys (line number 0)."""
    table = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for ln, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {body!r}")
        key, raw = (s.strip() for s in body.split("=", 1))
        if not key or not raw:
            raise ConfigError(f"{path}:{ln}: empty key or value")
        if key in table:
            raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
        table[key] = (raw, ln)
    return _with_overrides(table, overrides or {})


def _with_overrides(table, overrides, lines=None):
    """table with overrides {key: value} replacing or adding keys, at the line
    lines {key: line number} gives them (0 when it gives none)."""
    lines = lines or {}
    return {**table, **{key: (str(value), lines.get(key, 0)) for key, value in overrides.items()}}


def _want_float(kv, key, positive=False, nonnegative=False):
    raw, ln = kv[key]
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"line {ln}: {key} = {raw!r} is not a number") from None
    if not math.isfinite(val):
        raise ConfigError(f"line {ln}: {key} must be finite, got {raw}")
    if positive and val <= 0:
        raise ConfigError(f"line {ln}: {key} must be > 0, got {raw}")
    if nonnegative and val < 0:
        raise ConfigError(f"line {ln}: {key} must be >= 0, got {raw}")
    return val


def _want_int(kv, key, minimum=None):
    raw, ln = kv[key]
    try:
        val = int(raw)
    except ValueError:
        raise ConfigError(f"line {ln}: {key} = {raw!r} is not an integer") from None
    if minimum is not None and val < minimum:
        raise ConfigError(f"line {ln}: {key} must be >= {minimum}, got {raw}")
    return val


def _want_list(kv, key, cast):
    raw, ln = kv[key]
    try:
        return [cast(tok.strip()) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"line {ln}: {key} = {raw!r} is not a comma list") from None


@contextlib.contextmanager
def _reported_as(section, kv):
    """Re-raise a ValueError of the model's own checks as a ConfigError. A message
    that opens with a field name reads as the key section.name at that key's line;
    any other is put under section. A ConfigError from a _want_* reader already
    names its key's line and passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        key = f"{section}.{str(exc).split(' ', 1)[0]}"
        where = f"line {kv[key][1]}: {section}." if key in kv else f"{section}: "
        raise ConfigError(f"{where}{exc}") from None


def _build_scenario(kv, path) -> ScenarioConfig:
    if "preset" not in kv:
        raise ConfigError(f"{path}: missing required key 'preset' (one of {PRESETS})")
    preset, preset_ln = kv["preset"]
    if preset not in PRESETS:
        raise ConfigError(
            f"line {preset_ln}: unknown preset {preset!r}; choose from {PRESETS}"
        )

    for key, (_raw, ln) in kv.items():
        if key != "preset" and key not in _KNOWN_KEYS:
            raise ConfigError(f"line {ln}: unknown key {key!r}")

    merged = dict(_BASE_DEFAULTS)
    merged.update(_PRESET_OVERRIDES[preset])
    filled = {k: (v, 0) for k, v in merged.items()}
    filled.update(kv)
    kv = filled

    dim = _want_int(kv, "grid.dim", minimum=1)
    if dim not in (1, 2):
        raise ConfigError(f"line {kv['grid.dim'][1]}: grid.dim must be 1 or 2")
    lengths = _want_list(kv, "grid.lengths", float)
    cells = _want_list(kv, "grid.cells", int)
    with _reported_as("grid", kv):
        grid = build_grid(dim, lengths, cells)
    # the Laplacian divides by h * h and its eigenvalues scale as 4 / h^2
    if not all(h * h > 0.0 and 0.0 < 4.0 / (h * h) < math.inf for h in grid.spacing):
        raise ConfigError(
            f"line {kv['grid.lengths'][1]}: grid.lengths = {kv['grid.lengths'][0]} gives cell "
            f"spacings {grid.spacing}, outside the float range of 4/h^2 (about 1e-150 < h < 1e150)")

    with _reported_as("params", kv):
        params = ModelParams(
            chi=_want_float(kv, "params.chi", nonnegative=True),
            xi1=_want_float(kv, "params.xi1", nonnegative=True),
            xi2=_want_float(kv, "params.xi2", nonnegative=True),
            d=_want_float(kv, "params.d", positive=True),
            a=_want_float(kv, "params.a", nonnegative=True),
            mu=_want_float(kv, "params.mu", nonnegative=True),
            theta=_want_float(kv, "params.theta"),
            n_dim=dim,
        )

    with _reported_as("solver", kv):
        solver = SolverConfig(
            dt=_want_float(kv, "solver.dt", positive=True),
            t_end=_want_float(kv, "solver.t_end", positive=True),
            cfl_safety=_want_float(kv, "solver.cfl_safety", positive=True),
            flux_scheme=kv["solver.flux_scheme"][0],
            blowup_threshold=_want_float(kv, "solver.blowup_threshold", positive=True),
            record_every=_want_int(kv, "solver.record_every", minimum=1),
            elliptic_tolerance=_want_float(kv, "solver.elliptic_tolerance", positive=True),
        )

    seed = _want_int(kv, "seed", minimum=0)

    with _reported_as("init", kv):
        initial = InitialSpec(
            profile=kv["init.profile"][0],
            base=_want_float(kv, "init.base"),
            amplitude=_want_float(kv, "init.amplitude"),
            seed=seed,
            v_profile=(None if kv["init.v_profile"][0] == "same" else kv["init.v_profile"][0]),
            v_base=(None if kv["init.v_base"][0] == "same" else _want_float(kv, "init.v_base")),
            v_amplitude=(None if kv["init.v_amplitude"][0] == "same" else _want_float(kv, "init.v_amplitude")),
        )

    fit_column, fit_ln = kv["fit.column"]
    if fit_column not in TRAJECTORY_COLUMNS:
        raise ConfigError(f"line {fit_ln}: fit.column = {fit_column!r} is not a trajectory "
                          f"column; choose from {TRAJECTORY_COLUMNS}")

    ws_raw = kv["fit.window_start"][0]
    we_raw = kv["fit.window_end"][0]
    if (ws_raw == "auto") != (we_raw == "auto"):
        raise ConfigError("fit.window_start and fit.window_end must be set together")
    fit_window = None
    if ws_raw != "auto":
        fit_window = (
            _want_float(kv, "fit.window_start"),
            _want_float(kv, "fit.window_end"),
        )
        if not fit_window[0] < fit_window[1]:
            raise ConfigError(f"fit window must satisfy start < end, got {fit_window}")

    cfg = ScenarioConfig(
        preset=preset,
        out_dir=kv["out"][0],
        grid=grid,
        params=params,
        solver=solver,
        initial=initial,
        fit_column=fit_column,
        fit_window=fit_window,
    )
    _check_preset_constraints(cfg)
    return cfg


def _check_preset_constraints(cfg: ScenarioConfig) -> None:
    p = cfg.params
    preset = cfg.preset
    if preset == "C1_no_mitosis" and (p.a != 0.0 or p.mu != 0.0):
        raise ConfigError(
            "preset C1_no_mitosis requires params.a = 0 and params.mu = 0 "
            "(growth-free convergence scenario)"
        )
    if preset == "C2_logistic":
        if p.a <= 0.0:
            raise ConfigError(
                "preset C2_logistic requires params.a > 0: the carrying state "
                "b = (a/mu)^(1/theta) degenerates to 0 at a = 0"
            )
        if p.mu <= 0.0:
            raise ConfigError("preset C2_logistic requires params.mu > 0")
        if p.theta < 1.0:
            raise ConfigError("preset C2_logistic requires params.theta >= 1")
    if preset == "chi_zero_corollary" and p.chi != 0.0:
        raise ConfigError("preset chi_zero_corollary requires params.chi = 0")
    if preset == "R3_theta_gt1":
        if p.theta <= 1.0:
            raise ConfigError("preset R3_theta_gt1 requires params.theta > 1")
        if p.mu <= 0.0:
            raise ConfigError("preset R3_theta_gt1 requires params.mu > 0")
    if preset == "heat_oracle" and (p.chi or p.xi1 or p.xi2 or p.a or p.mu):
        raise ConfigError(
            "preset heat_oracle requires chi = xi1 = xi2 = a = mu = 0 "
            "(pure diffusion oracle)"
        )


def parse_config(path, overrides=None) -> ScenarioConfig:
    """Parse a scenario file, with overrides {key: value} applied over its keys
    before validation. Files with sweep.* keys need the sweep command."""
    kv = _read_kv(path, overrides)
    sweep_keys = [k for k in kv if k.startswith("sweep.")]
    if sweep_keys:
        raise ConfigError(
            f"{path}: sweep keys {sweep_keys} present; use the 'sweep' subcommand"
        )
    return _build_scenario(kv, path)


def parse_sweep(path, overrides=None) -> SweepSpec:
    """Parse a sweep file: a scenario plus sweep.<param> = v1, v2, ... axes.
    overrides {key: value} apply over the file's keys, as in parse_config."""
    kv = _read_kv(path, overrides)
    axes, axis_lines = [], {}
    max_points = SweepSpec.max_points
    scenario_kv = {}
    for key, (raw, ln) in kv.items():
        if not key.startswith("sweep."):
            scenario_kv[key] = (raw, ln)
            continue
        target = key[len("sweep."):]
        if target == "max_parallel":
            # accepted for older configs and ignored: a sweep runs as batched
            # ensembles in one process
            _want_int(kv, key, minimum=1)
        elif target == "max_points":
            max_points = _want_int(kv, key, minimum=1)
        elif target.startswith(_SWEEPABLE_PREFIXES) and target in _KNOWN_KEYS:
            values = _want_list(kv, key, float)
            if not values:
                raise ConfigError(f"line {ln}: empty sweep axis {key}")
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"line {ln}: sweep axis {key} = {raw!r} must be finite")
            axes.append((target, tuple(values)))
            axis_lines[target] = ln
        else:
            raise ConfigError(f"line {ln}: {target!r} is not a sweepable key")
    if not axes:
        raise ConfigError(f"{path}: no sweep axes (add e.g. sweep.params.chi = 0.1, 0.5)")
    n_points = math.prod(len(vals) for _, vals in axes)
    if n_points > max_points:
        raise ConfigError(
            f"{path}: sweep has {n_points} points, above the cap {max_points}"
        )
    base = _build_scenario(dict(scenario_kv), path)
    return SweepSpec(base, tuple(axes), max_points, dict(scenario_kv), axis_lines)


def scenario_with_overrides(base_keys: dict, overrides: dict[str, float], path="<sweep>",
                            lines=None) -> ScenarioConfig:
    """Rebuild a scenario with swept values substituted (full revalidation). An error
    in a swept value names the line lines {key: line number} gives it, such as a
    SweepSpec's axis_lines, and line 0 without one."""
    return _build_scenario(_with_overrides(base_keys, overrides, lines), path)
