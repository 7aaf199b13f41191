"""Key=value scenario configs, preset defaults, and sweep specs.

Format: one `key = value` per line, `#` starts a comment, dotted keys select
subsections (params.chi, solver.dt, grid.cells). Unknown keys, type errors,
and preset-constraint violations are reported with the offending key and line
number. Presets fill every key a file leaves unset; explicit keys override
preset defaults but still face the preset's constraints.

_KEYS is the one place a key is declared: the section it belongs to, the
field it fills, its parser and its default, which is read from the dataclass
that holds the field wherever one does (SolverConfig, InitialSpec,
ScenarioConfig.fit_column). A sweep may vary a key that the table gives a
numeric parser in the params, solver or init section.

Config files are read as UTF-8 whatever the locale. This module is also the
one home of the value format: _fmt writes a swept value into a point's config
text and every cell of an output file, a float in round-trip form
(FLOAT_FMT).
"""
from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import InitialSpec, ModelParams, SolverConfig
from .elliptic import spectral_info
from .functionals import TRAJECTORY_COLUMNS
from .grid import Grid, build_grid

__all__ = ["FLOAT_FMT", "ConfigError", "ScenarioConfig", "SweepSpec", "PRESETS", "parse_config",
           "parse_sweep", "scenario_with_overrides"]


FLOAT_FMT = "%.17g"  # round-trips float64 exactly


def _fmt(v) -> str:
    """One value as config or output text: a bool as yes/no, a float in
    round-trip form, anything else as str."""
    if isinstance(v, (bool, np.bool_)):
        return "yes" if v else "no"
    if isinstance(v, float):
        return FLOAT_FMT % v
    return str(v)


class ConfigError(ValueError):
    pass


# preset -> key -> default (string form, same parser as file values)
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
PRESETS = tuple(_PRESET_OVERRIDES)


@dataclass(frozen=True)
class ScenarioConfig:
    """One validated scenario: the preset it was built from, out_dir (the `out`
    key) where run writes its files, the grid, the model parameters, the solver
    settings and the initial profiles, and the trajectory column that run fits a
    decay rate to over fit_window, (t0, t1) or None for the default window
    (functionals.fit_decay_rate)."""

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
    """A parsed sweep: base is the scenario of the file's own keys and axes the
    (swept key, its values) pairs in declaration order, whose product gives at
    most max_points points. base_keys holds the file's non-sweep keys as
    {key: (raw value, line)}, from which each point's scenario is built again
    with its overrides (scenario_with_overrides), and axis_lines maps each swept
    key to its axis's line, which a point's error message names."""

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
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
    lines {key: line number} gives them (0 when it gives none). Each value is
    written by _fmt, a float in round-trip form, so a swept 5.0 reads as the
    integer 5 too."""
    lines = lines or {}
    return {**table, **{key: (_fmt(value), lines.get(key, 0)) for key, value in overrides.items()}}


# Each parser takes kv {key: (raw value, line)} and a key, and returns the key's
# value or raises a ConfigError that names the key and its line.

def _text(kv, key):
    return kv[key][0]


def _want_preset(kv, key):
    preset, ln = kv[key]
    if preset not in PRESETS:
        raise ConfigError(f"line {ln}: unknown preset {preset!r}; choose from {PRESETS}")
    return preset


def _want_column(kv, key):
    column, ln = kv[key]
    if column not in TRAJECTORY_COLUMNS:
        raise ConfigError(f"line {ln}: {key} = {column!r} is not a trajectory "
                          f"column; choose from {TRAJECTORY_COLUMNS}")
    return column


def _want_float(kv, key):
    """A finite float; its range is the model classes' check."""
    raw, ln = kv[key]
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"line {ln}: {key} = {raw!r} is not a number") from None
    if not math.isfinite(val):
        raise ConfigError(f"line {ln}: {key} must be finite, got {raw}")
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


def _unless(word, parse):
    """A parser that reads word as None and anything else as parse does."""
    def parse_unless(kv, key):
        return None if kv[key][0] == word else parse(kv, key)
    return parse_unless


_want_seed = functools.partial(_want_int, minimum=0)
_want_floats, _want_ints = (functools.partial(_want_list, cast=c) for c in (float, int))
_same_or_text, _same_or_float = _unless("same", _text), _unless("same", _want_float)
_auto_or_float = _unless("auto", _want_float)  # auto: fit_decay_rate's default window


class _Key(NamedTuple):
    section: str  # scenario, grid, params, solver, seed, init or fit_window
    field: str  # the name the section's builder takes the value by
    parse: object  # a parser above
    default: str | None  # its text, None for the required preset


def _declare(key, section, name, parse, default):
    """A table row; a dataclass as default gives its field's default ("same" for None)."""
    if isinstance(default, type):
        value = default.__dataclass_fields__[name].default
        default = "same" if value is None else str(value)
    return key, _Key(section, name, parse, default)


# The one place a key is declared: key -> (section, field, parser, default).
# _build_scenario builds each section from its keys in this order.
_KEYS = dict([
    _declare("preset", "scenario", "preset", _want_preset, None),
    _declare("out", "scenario", "out_dir", _text, "out"),
    _declare("grid.dim", "grid", "dim", _want_int, "1"),
    _declare("grid.lengths", "grid", "lengths", _want_floats, "1.0"),
    _declare("grid.cells", "grid", "cells", _want_ints, "128"),
    _declare("params.chi", "params", "chi", _want_float, "0.5"),
    _declare("params.xi1", "params", "xi1", _want_float, "1.0"),
    _declare("params.xi2", "params", "xi2", _want_float, "1.0"),
    _declare("params.d", "params", "d", _want_float, "1.0"),
    _declare("params.a", "params", "a", _want_float, "0.0"),
    _declare("params.mu", "params", "mu", _want_float, "0.0"),
    _declare("params.theta", "params", "theta", _want_float, "1.0"),
    _declare("solver.dt", "solver", "dt", _want_float, "0.005"),
    _declare("solver.t_end", "solver", "t_end", _want_float, "10.0"),
    _declare("solver.cfl_safety", "solver", "cfl_safety", _want_float, SolverConfig),
    _declare("solver.flux_scheme", "solver", "flux_scheme", _text, SolverConfig),
    _declare("solver.blowup_threshold", "solver", "blowup_threshold", _want_float, SolverConfig),
    _declare("solver.record_every", "solver", "record_every", _want_int, SolverConfig),
    _declare("solver.elliptic_tolerance", "solver", "elliptic_tolerance", _want_float,
             SolverConfig),
    _declare("seed", "seed", "seed", _want_seed, InitialSpec),
    _declare("init.profile", "init", "profile", _text, InitialSpec),
    _declare("init.base", "init", "base", _want_float, InitialSpec),
    _declare("init.amplitude", "init", "amplitude", _want_float, InitialSpec),
    _declare("init.v_profile", "init", "v_profile", _same_or_text, InitialSpec),
    _declare("init.v_base", "init", "v_base", _same_or_float, InitialSpec),
    _declare("init.v_amplitude", "init", "v_amplitude", _same_or_float, InitialSpec),
    _declare("fit.column", "scenario", "fit_column", _want_column, ScenarioConfig),
    _declare("fit.window_start", "fit_window", "start", _auto_or_float, "auto"),
    _declare("fit.window_end", "fit_window", "end", _auto_or_float, "auto"),
])

# the keys a sweep may vary: the numeric knobs of the model, solver and profiles
_SWEEPABLE = {key for key, k in _KEYS.items() if k.section in ("params", "solver", "init")
              and k.parse in (_want_float, _want_int, _same_or_float)}


def _section(kv, section):
    """{field: value} of a section's keys, parsed in table order."""
    return {k.field: k.parse(kv, key) for key, k in _KEYS.items() if k.section == section}


@contextlib.contextmanager
def _reported_as(section, kv):
    """Re-raise a ValueError of the model's own checks as a ConfigError. A message
    that opens with a field name reads as the key section.name at that key's line;
    any other is put under section. A ConfigError from a parser already names its
    key's line and passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        key = f"{section}.{str(exc).split(' ', 1)[0]}"
        where = f"line {kv[key][1]}: {section}." if key in kv else f"{section}: "
        raise ConfigError(f"{where}{exc}") from None


# Largest condition number times machine epsilon of an accepted grid's
# Laplacian. An exact potential solve's relative residual measured at most
# about 0.5 kappa eps (0.2-0.5 on a cosine from 1D-128 to 1D-65536, 4e-3 on
# random data on a stretched 2D box), so every accepted grid can meet the
# loosest elliptic_tolerance, 1e-4.
_KAPPA_EPS_BOUND = 1e-6


def _check_conditioning(grid: Grid, kv) -> None:
    """Reject a grid no float64 potential solve can serve: a spacing whose 4/h^2
    leaves the float range, or a Laplacian condition number kappa = sum_k(4/h_k^2)
    / lambda1 that is not finite or too large. The error names grid.lengths and
    grid.cells at the lines that set them, and an unset grid.lengths as the preset's."""
    named = [f"line {kv[k][1]}: {k} = {kv[k][0]}" for k in ("grid.lengths", "grid.cells")
             if kv[k][1]]
    raw, ln = kv["grid.lengths"]
    if not ln:  # a spacing is a length, whoever set it
        named.append(f"grid.lengths = {raw} (the {kv['preset'][0]} preset's default)")
    where = f"{' with '.join(named)} gives cell spacings {grid.spacing}"
    # the Laplacian divides by h * h and its eigenvalues scale as 4 / h^2
    if not all(h * h > 0.0 and 0.0 < 4.0 / (h * h) < math.inf for h in grid.spacing):
        raise ConfigError(f"{where}, outside the float range of 4/h^2 (about 1e-150 < h < 1e150)")
    lam = spectral_info(grid).lambda1
    kappa = sum(4.0 / (h * h) for h in grid.spacing) / lam if lam > 0.0 else math.inf
    if not kappa * math.ulp(1.0) <= _KAPPA_EPS_BOUND:
        raise ConfigError(
            f"{where}, whose Laplacian's condition number kappa = {kappa:.3g} puts kappa * eps "
            f"above {_KAPPA_EPS_BOUND:g}, beyond what a float64 potential solve can meet")


def _build_scenario(kv, path) -> ScenarioConfig:
    if "preset" not in kv:
        raise ConfigError(f"{path}: missing required key 'preset' (one of {PRESETS})")
    preset = _want_preset(kv, "preset")

    for key, (_raw, ln) in kv.items():
        if key not in _KEYS:
            raise ConfigError(f"line {ln}: unknown key {key!r}")

    kv = {**{key: (k.default, 0) for key, k in _KEYS.items()},
          **{key: (raw, 0) for key, raw in _PRESET_OVERRIDES[preset].items()}, **kv}

    with _reported_as("grid", kv):
        grid = build_grid(**_section(kv, "grid"))
    _check_conditioning(grid, kv)

    with _reported_as("params", kv):
        params = ModelParams(**_section(kv, "params"), n_dim=grid.dim)

    with _reported_as("solver", kv):
        solver = SolverConfig(**_section(kv, "solver"))

    with _reported_as("init", kv):
        initial = InitialSpec(**_section(kv, "seed"), **_section(kv, "init"))

    scenario = _section(kv, "scenario")  # preset, out_dir, fit_column

    (start, start_ln), (end, end_ln) = kv["fit.window_start"], kv["fit.window_end"]
    if (start == "auto") != (end == "auto"):
        raise ConfigError(f"line {end_ln if start == 'auto' else start_ln}: "
                          "fit.window_start and fit.window_end must be set together")
    fit_window = None if start == "auto" else tuple(_section(kv, "fit_window").values())
    if fit_window and not fit_window[0] < fit_window[1]:
        raise ConfigError(f"line {end_ln}: fit window must satisfy start < end, got {fit_window}")

    cfg = ScenarioConfig(**scenario, grid=grid, params=params, solver=solver, initial=initial,
                         fit_window=fit_window)
    _check_preset_constraints(cfg, kv)
    return cfg


def _check_preset_constraints(cfg: ScenarioConfig, kv) -> None:
    """Reject the parameters a preset's scenario excludes, at the line of the
    first key at fault."""
    p = cfg.params
    heat = "chi = xi1 = xi2 = a = mu = 0 (pure diffusion oracle)"
    # preset -> (key, whether its value breaks the rule, the rule) in check order
    rules = {
        "C1_no_mitosis": [("params.a" if p.a else "params.mu", p.growth.name != "growth-free",
                           "params.a = 0 and params.mu = 0 (growth-free convergence scenario)")],
        "C2_logistic": [
            ("params.a", p.a <= 0.0, "params.a > 0: the carrying state "
             "b = (a/mu)^(1/theta) degenerates to 0 at a = 0"),
            ("params.mu", p.mu <= 0.0, "params.mu > 0"),
            ("params.theta", p.theta < 1.0, "params.theta >= 1")],
        "chi_zero_corollary": [("params.chi", p.chi != 0.0, "params.chi = 0")],
        "R3_theta_gt1": [("params.theta", p.theta <= 1.0, "params.theta > 1"),
                         ("params.mu", p.mu <= 0.0, "params.mu > 0")],
        "heat_oracle": [(f"params.{name}", getattr(p, name) != 0.0, heat)
                        for name in ("chi", "xi1", "xi2", "a", "mu")],
    }
    for key, broken, rule in rules.get(cfg.preset, ()):
        if broken:
            raise ConfigError(f"line {kv[key][1]}: preset {cfg.preset} requires {rule}")


def parse_config(path, overrides=None) -> ScenarioConfig:
    """Parse a scenario file, with overrides {key: value} applied over its keys
    before validation. Files with sweep.* keys need the sweep command."""
    kv = _read_kv(path, overrides)
    sweep_keys = [k for k in kv if k.startswith("sweep.")]
    if sweep_keys:
        raise ConfigError(f"{path}: sweep keys {sweep_keys} present; use the 'sweep' subcommand")
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
        elif target in _SWEEPABLE:
            values = _want_floats(kv, key)
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
        raise ConfigError(f"{path}: sweep has {n_points} points, above the cap {max_points}")
    base = _build_scenario(dict(scenario_kv), path)
    return SweepSpec(base, tuple(axes), max_points, dict(scenario_kv), axis_lines)


def scenario_with_overrides(base_keys: dict, overrides: dict[str, float], path="<sweep>",
                            lines=None) -> ScenarioConfig:
    """Rebuild a scenario with swept values substituted (full revalidation). An error
    in a swept value names the line lines {key: line number} gives it, such as a
    SweepSpec's axis_lines, and line 0 without one."""
    return _build_scenario(_with_overrides(base_keys, overrides, lines), path)
