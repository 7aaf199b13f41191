import contextlib
import gc
import itertools
import math
import os
import subprocess
import sys
import textwrap
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from angiosim import config, dynamics, harness
from angiosim.cli import main
from angiosim.config import (
    ConfigError,
    parse_config,
    parse_sweep,
    scenario_with_overrides,
)
from angiosim.functionals import TRAJECTORY_COLUMNS, InequalityCheck

FAST_RUN = """
    preset = custom
    grid.cells = 32
    solver.dt = 0.001
    solver.t_end = 0.02
    solver.record_every = 5
    init.profile = random_positive
    init.amplitude = 0.3
"""

FAST_SWEEP = """
    preset = custom
    grid.cells = 32
    params.chi = 0.0
    params.xi1 = 0.0
    params.xi2 = 0.0
    solver.dt = 0.005
    solver.t_end = 0.05
    solver.record_every = 1
    init.profile = random_positive
    init.amplitude = 0.3
    sweep.params.d = 1.0, 2.0
"""


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


# ---------------------------------------------------------------------------
# scenario parsing

def test_minimal_custom_config_gets_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "preset = custom\n"))
    assert cfg.preset == "custom"
    assert cfg.initial.seed == 0
    assert cfg.out_dir == "out"
    assert cfg.grid.dim == 1 and cfg.grid.n_cells == 128
    assert cfg.params.chi == 0.5
    assert cfg.solver.dt == 0.005
    assert cfg.initial.profile == "cosine_bump"
    assert cfg.fit_column == "l2_u_dev"
    assert cfg.fit_window is None
    # the preset table's defaults are the dataclasses' own
    assert cfg.solver == dynamics.SolverConfig(dt=0.005, t_end=10.0)
    assert cfg.initial == dynamics.InitialSpec()


def test_overrides_apply_before_validation(tmp_path):
    path = write_cfg(tmp_path, "preset = custom\nseed = 2\nout = a\n")
    cfg = parse_config(path, {"seed": 7, "out": "b"})
    assert (cfg.initial.seed, cfg.out_dir) == (7, "b")
    with pytest.raises(ConfigError, match="params.d must be > 0"):
        parse_config(path, {"params.d": 0})
    spec = parse_sweep(write_cfg(tmp_path, FAST_SWEEP, "s.cfg"), {"seed": 7, "out": "b"})
    assert (spec.base.initial.seed, spec.base.out_dir) == (7, "b")
    assert (spec.base_keys["seed"], spec.base_keys["out"]) == (("7", 0), ("b", 0))


def test_preset_defaults_and_overrides(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "preset = heat_oracle\n"))
    assert cfg.params.chi == 0.0 and cfg.params.xi1 == 0.0
    assert cfg.grid.n_cells == 256
    assert cfg.solver.dt == 1e-4
    cfg2 = parse_config(write_cfg(tmp_path, """
        preset = heat_oracle
        grid.cells = 64   # coarser, still pure diffusion
    """, name="o.cfg"))
    assert cfg2.grid.n_cells == 64
    assert cfg2.params.chi == 0.0


def test_two_dimensional_grid_lists(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
        preset = custom
        grid.dim = 2
        grid.lengths = 1.0, 2.0
        grid.cells = 8, 16
    """))
    assert cfg.grid.cells == (8, 16)
    assert cfg.grid.measure == pytest.approx(2.0)


def test_fit_window_pair(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
        preset = custom
        fit.window_start = 2.0
        fit.window_end = 8.0
    """))
    assert cfg.fit_window == (2.0, 8.0)


def test_the_readme_key_table_is_the_config_table():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    # {key: default text}, in README's order
    documented = dict(tuple(cell.strip().strip("`") for cell in row.split("|")[1:3]) for row in rows)
    assert list(documented) == list(config._KEYS)
    for key, k in config._KEYS.items():
        if k.default is None:  # the preset
            assert documented[key] == "required"
        else:
            as_documented = k.parse({key: (documented[key], 0)}, key)
            assert as_documented == k.parse({key: (k.default, 0)}, key), key


@pytest.mark.parametrize("body, fragment", [
    ("", "missing required key 'preset'"),
    ("preset = bogus\n", "unknown preset"),
    ("preset = custom\nwhatever = 3\n", "unknown key"),
    ("preset = custom\nsolver.elliptic_max_iterations = 5\n", "unknown key"),
    ("preset = custom\nseed = 1\nseed = 2\n", "duplicate key"),
    ("preset = custom\njust words\n", "expected 'key = value'"),
    ("preset = custom\nsolver.dt = fast\n", "not a number"),
    ("preset = custom\nparams.mu = -1\n", "params.mu must be >= 0"),
    ("preset = custom\ngrid.dim = 3\n", "grid.dim must be 1 or 2"),
    ("preset = custom\nfit.window_start = 1.0\n", "must be set together"),
    ("preset = custom\nfit.window_start = 5\nfit.window_end = 1\n", "start < end"),
    ("preset = custom\nsweep.params.chi = 1, 2\n", "use the 'sweep' subcommand"),
    ("preset = custom\nfit.column = bogus\n", "line 2: fit.column = 'bogus' is not a trajectory"),
    # non-finite numbers the parser let through before: they ended in a
    # traceback, in exit 0, or in a blow-up or numerical-failure exit
    *[(f"preset = custom\n{key} = {value}\n", f"line 2: {key} must be finite")
      for key, value in [("solver.dt", "nan"), ("solver.t_end", "nan"), ("solver.t_end", "inf"),
                         ("params.theta", "nan"), ("solver.blowup_threshold", "nan"),
                         ("params.chi", "nan"), ("params.mu", "nan"), ("params.d", "inf"),
                         ("init.base", "nan")]],
    ("preset = custom\nfit.window_start = -inf\nfit.window_end = 1\n",
     "line 2: fit.window_start must be finite"),
    ("preset = custom\nsolver.dt =\n", ":2: empty key or value"),
])
def test_config_rejections(tmp_path, body, fragment):
    with pytest.raises(ConfigError, match=fragment.replace("'", ".")):
        parse_config(write_cfg(tmp_path, body))


def test_non_finite_sweep_axis_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="line 2: sweep axis sweep.params.chi"):
        parse_sweep(write_cfg(tmp_path, "preset = custom\nsweep.params.chi = 0.5, nan\n"))
    with pytest.raises(ConfigError, match="line 2: empty sweep axis sweep.params.chi"):
        parse_sweep(write_cfg(tmp_path, "preset = custom\nsweep.params.chi = ,\n"))


def test_cli_run_infinite_t_end_exits_1_in_one_line(tmp_path):
    cfg = write_cfg(tmp_path, "preset = custom\nsolver.t_end = inf\n")
    proc = subprocess.run(
        [sys.executable, "-m", "angiosim.cli", "run", cfg, "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith("config error: ") and "line 2: solver.t_end must be finite" in line


@pytest.mark.parametrize("body, message", [
    ("preset = custom\n\nsolver.t_end = inf\n", "line 3: solver.t_end must be finite, got inf"),
    ("preset = custom\nparams.chi = -1\n", "line 2: params.chi must be >= 0, got -1.0"),
    ("preset = custom\nparams.d = x\n", "line 2: params.d = 'x' is not a number"),
    # the model classes' own checks name the key at fault, at its own line
    ("preset = custom\nsolver.cfl_safety = 2\n",
     "line 2: solver.cfl_safety must be in (0, 1], got 2.0"),
    ("preset = custom\nsolver.dt = 0.001\nsolver.flux_scheme = quick\n",
     "line 3: solver.flux_scheme must be one of ('upwind', 'central'), got 'quick'"),
    ("preset = custom\nsolver.flux_scheme = central\n\nsolver.elliptic_tolerance = 0.1\n",
     "line 4: solver.elliptic_tolerance must be in (0, 1e-4], got 0.1"),
    ("preset = custom\n# damping\nparams.theta = -1\n",
     "line 3: params.theta must be > 0 (the damping exponent), got -1.0"),
    ("preset = custom\ninit.v_profile = bumps\n",
     "line 2: init.v_profile must be one of "
     "('constant', 'cosine_bump', 'gaussian_bump', 'random_positive'), got 'bumps'"),
    # a step count past the float range, which ended in an OverflowError traceback
    ("preset = custom\nsolver.dt = 1e-300\nsolver.t_end = 1e300\n",
     "line 3: solver.t_end / dt must be finite, got 1e+300 / 1e-300"),
    # grid checks inside build_grid keep their section's name
    ("preset = custom\ngrid.cells = 2\n", "grid: need at least 4 cells per axis, got (2,)"),
    ("preset = custom\nsolver.record_every = 2.5\n",
     "line 2: solver.record_every = '2.5' is not an integer"),
    ("preset = custom\nseed = -1\n", "line 2: seed must be >= 0, got -1"),
    ("preset = custom\ngrid.cells = 64, x\n", "line 2: grid.cells = '64, x' is not a comma list"),
    # a window set by one key alone is at fault at that key's line, and an
    # empty window at fit.window_end's
    ("preset = custom\n\nfit.window_start = 1.0\n",
     "line 3: fit.window_start and fit.window_end must be set together"),
    ("preset = custom\nfit.window_end = 1.0\n",
     "line 2: fit.window_start and fit.window_end must be set together"),
    ("preset = custom\nfit.window_end = 1.0\nfit.window_start = 2.0\n",
     "line 2: fit window must satisfy start < end, got (2.0, 1.0)"),
    # a preset's constraint names the first key that breaks it
    ("preset = C1_no_mitosis\nparams.a = 1.0\n",
     "line 2: preset C1_no_mitosis requires params.a = 0 and params.mu = 0 "
     "(growth-free convergence scenario)"),
    ("preset = C1_no_mitosis\n\nparams.mu = 1.0\n",
     "line 3: preset C1_no_mitosis requires params.a = 0 and params.mu = 0 "
     "(growth-free convergence scenario)"),
    ("preset = C2_logistic\nparams.a = 0.0\n",
     "line 2: preset C2_logistic requires params.a > 0: the carrying state "
     "b = (a/mu)^(1/theta) degenerates to 0 at a = 0"),
    ("preset = C2_logistic\nparams.mu = 0\n",
     "line 2: preset C2_logistic requires params.mu > 0"),
    ("preset = C2_logistic\nparams.theta = 0.5\n",
     "line 2: preset C2_logistic requires params.theta >= 1"),
    ("preset = chi_zero_corollary\nparams.chi = 0.5\n",
     "line 2: preset chi_zero_corollary requires params.chi = 0"),
    ("preset = R3_theta_gt1\nparams.theta = 1.0\n",
     "line 2: preset R3_theta_gt1 requires params.theta > 1"),
    ("preset = R3_theta_gt1\nparams.mu = 0.0\n",
     "line 2: preset R3_theta_gt1 requires params.mu > 0"),
    ("preset = heat_oracle\nparams.a = 1\n\nparams.xi2 = 0.5\n",
     "line 4: preset heat_oracle requires chi = xi1 = xi2 = a = mu = 0 (pure diffusion oracle)"),
])
def test_config_error_names_its_key_once(tmp_path, body, message):
    with pytest.raises(ConfigError) as info:
        parse_config(write_cfg(tmp_path, body))
    assert str(info.value) == message


@pytest.mark.parametrize("lengths", ["1e160", "1e-160", "1.0, 1e-160", "1e160, 1e160",
                                     "1e140, 1e-140", "1e3, 1e-3"])
def test_cli_run_rejects_spacings_beyond_the_float_range(tmp_path, lengths):
    # 4/h^2 must be finite and positive, or the Laplacian reads 0 or inf; and its
    # condition number kappa must be finite (1e140, 1e-140 overflows it) with
    # kappa * eps at most 1e-6 (1e3, 1e-3 at 128^2 has 1.5)
    dim = lengths.count(",") + 1
    cfg = write_cfg(tmp_path, f"preset = custom\ngrid.dim = {dim}\ngrid.lengths = {lengths}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "angiosim.cli", "run", cfg, "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"config error: line 3: grid.lengths = {lengths} gives cell spacings")


@pytest.mark.parametrize("grid, accepted", [
    ("grid.cells = 16384", True),  # kappa * eps = 2.4e-8
    ("grid.cells = 65536", True),  # 3.9e-7
    ("grid.cells = 131072", False),  # 1.5e-6
    ("grid.dim = 2\ngrid.cells = 16\ngrid.lengths = 1e2, 1e-2", False),  # 2.3e-6
])
def test_conditioning_bound_on_fine_and_stretched_grids(tmp_path, grid, accepted):
    path = write_cfg(tmp_path, f"preset = custom\n{grid}\n")
    if accepted:
        parse_config(path)
        return
    with pytest.raises(ConfigError, match="grid.lengths = .* gives cell spacings .* condition number"):
        parse_config(path)


@pytest.mark.parametrize("body, lead", [
    # only grid.cells set: the lengths are the preset's, not a line 0
    ("preset = custom\ngrid.cells = 20000000\n",
     "line 2: grid.cells = 20000000 with grid.lengths = 1.0 (the custom preset's default) "
     "gives cell spacings (5e-08,), whose Laplacian's condition number"),
    ("preset = C2_logistic\n\ngrid.cells = 131072\n",
     "line 3: grid.cells = 131072 with grid.lengths = 1.0 (the C2_logistic preset's default) "
     "gives cell spacings (7.62939453125e-06,), whose Laplacian's condition number"),
    ("preset = custom\ngrid.dim = 2\ngrid.cells = 16\ngrid.lengths = 1e2, 1e-2\n",
     "line 4: grid.lengths = 1e2, 1e-2 with line 3: grid.cells = 16 gives cell spacings "
     "(6.25, 0.000625), whose Laplacian's condition number"),
])
def test_conditioning_error_names_the_grid_keys_the_file_set(tmp_path, body, lead):
    with pytest.raises(ConfigError) as info:
        parse_config(write_cfg(tmp_path, body))
    assert str(info.value).startswith(lead)
    assert "line 0" not in str(info.value)


def test_a_spacing_whose_square_is_subnormal_is_outside_the_float_range(tmp_path):
    # h = 1e-160: h * h is a positive subnormal, so only 4/h^2 = inf rejects it;
    # taken for finite, the grid would fail on its condition number instead
    h = 4e-160 / 4
    assert 0.0 < h * h < sys.float_info.min and 4.0 / (h * h) == math.inf
    with pytest.raises(ConfigError) as info:
        parse_config(write_cfg(tmp_path, "preset = custom\ngrid.lengths = 4e-160\ngrid.cells = 4\n"))
    assert str(info.value) == (
        "line 2: grid.lengths = 4e-160 with line 3: grid.cells = 4 gives cell spacings (1e-160,), "
        "outside the float range of 4/h^2 (about 1e-150 < h < 1e150)")


# one out-of-range value per range-checked field, each caught by the model class
RANGE_CHECKED = [
    ("params.chi", "-1", "must be >= 0, got -1.0"),
    ("params.xi1", "-1", "must be >= 0, got -1.0"),
    ("params.xi2", "-0.5", "must be >= 0, got -0.5"),
    ("params.d", "0", "must be > 0, got 0.0"),
    ("params.a", "-1", "must be >= 0, got -1.0"),
    ("params.mu", "-1", "must be >= 0, got -1.0"),
    ("params.theta", "0", "must be > 0 (the damping exponent), got 0.0"),
    ("solver.dt", "0", "must be > 0, got 0.0"),
    ("solver.t_end", "-1", "must be > 0, got -1.0"),
    ("solver.cfl_safety", "2", "must be in (0, 1], got 2.0"),
    ("solver.blowup_threshold", "0", "must be > 0, got 0.0"),
    ("solver.record_every", "0", "must be >= 1, got 0"),
    ("solver.elliptic_tolerance", "0.1", "must be in (0, 1e-4], got 0.1"),
]


@pytest.mark.parametrize("key, value, rule", RANGE_CHECKED)
def test_each_range_checked_field_names_its_own_key_and_line(tmp_path, key, value, rule):
    with pytest.raises(ConfigError) as info:
        parse_config(write_cfg(tmp_path, f"preset = custom\n\n{key} = {value}\n"))
    assert str(info.value) == f"line 3: {key} {rule}"
    spec = parse_sweep(write_cfg(tmp_path, f"preset = custom\nsweep.{key} = {value}\n", "s.cfg"))
    with pytest.raises(ConfigError) as info:
        scenario_with_overrides(spec.base_keys, {key: float(value)}, lines=spec.axis_lines)
    assert str(info.value) == f"line 2: {key} {rule}"


def test_a_swept_value_a_preset_rejects_names_its_axis_line(tmp_path):
    spec = parse_sweep(write_cfg(tmp_path, "preset = C2_logistic\n\nsweep.params.a = 0, 1\n"))
    with pytest.raises(ConfigError) as info:
        scenario_with_overrides(spec.base_keys, {"params.a": 0.0}, lines=spec.axis_lines)
    assert str(info.value).startswith("line 3: preset C2_logistic requires params.a > 0")


def test_sweep_over_an_integer_key(tmp_path):
    spec = parse_sweep(write_cfg(tmp_path, "preset = custom\nsweep.solver.record_every = 1, 5\n"))
    assert [scenario_with_overrides(spec.base_keys, {"solver.record_every": v}).solver.record_every
            for _key, values in spec.axes for v in values] == [1, 5]


def test_error_carries_line_number(tmp_path):
    path = write_cfg(tmp_path, "preset = custom\n\nmystery.key = 1\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(path)


@pytest.mark.parametrize("body, fragment", [
    ("preset = C1_no_mitosis\nparams.a = 1.0\n", "requires params.a = 0"),
    ("preset = C2_logistic\nparams.a = 0.0\n", "degenerates"),
    ("preset = C2_logistic\nparams.theta = 0.5\n", "theta >= 1"),
    ("preset = chi_zero_corollary\nparams.chi = 0.5\n", "requires params.chi = 0"),
    ("preset = R3_theta_gt1\nparams.theta = 1.0\n", "theta > 1"),
    ("preset = R3_theta_gt1\nparams.mu = 0.0\n", "mu > 0"),
    ("preset = heat_oracle\nparams.chi = 0.5\n", "pure diffusion"),
])
def test_preset_constraints(tmp_path, body, fragment):
    with pytest.raises(ConfigError, match=fragment.replace("(", ".").replace(")", ".")):
        parse_config(write_cfg(tmp_path, body))


def test_all_bundled_presets_parse(tmp_path):
    for preset in ("C1_no_mitosis", "C2_logistic", "chi_zero_corollary",
                   "R3_theta_gt1", "heat_oracle", "custom"):
        cfg = parse_config(write_cfg(tmp_path, f"preset = {preset}\n", name=f"{preset}.cfg"))
        assert cfg.preset == preset


# ---------------------------------------------------------------------------
# sweep parsing

def test_sweep_axes_and_defaults(tmp_path):
    spec = parse_sweep(write_cfg(tmp_path, FAST_SWEEP))
    assert spec.axes == (("params.d", (1.0, 2.0)),)
    assert spec.max_points == 256
    assert spec.base.grid.n_cells == 32


def test_sweep_rejects_unsweepable_key(tmp_path):
    # only a numeric key of params, solver or init can be swept: a sweep over
    # init.profile was accepted, with an error in every row, and one over
    # solver.flux_scheme said its values were not a comma list
    for key, values in [("out", "a, b"), ("seed", "1, 2"), ("init.profile", "1, 2"),
                        ("solver.flux_scheme", "upwind, central"),
                        ("init.v_profile", "constant, same"), ("fit.column", "t, mass_u")]:
        body = f"preset = custom\ngrid.cells = 16\nsweep.{key} = {values}\n"
        with pytest.raises(ConfigError) as info:
            parse_sweep(write_cfg(tmp_path, body))
        assert str(info.value) == f"line 3: {key!r} is not a sweepable key"


def test_sweep_requires_axes(tmp_path):
    with pytest.raises(ConfigError, match="no sweep axes"):
        parse_sweep(write_cfg(tmp_path, "preset = custom\nsweep.max_parallel = 2\n"))


def test_sweep_point_cap(tmp_path):
    with pytest.raises(ConfigError, match="above the cap"):
        parse_sweep(write_cfg(tmp_path, """
            preset = custom
            sweep.params.chi = 0.1, 0.2, 0.3
            sweep.params.d = 1, 2, 3
            sweep.max_points = 8
        """))


def test_sweep_overrides_revalidate(tmp_path):
    spec = parse_sweep(write_cfg(tmp_path, FAST_SWEEP))
    cfg = scenario_with_overrides(spec.base_keys, {"params.d": 2.0})
    assert cfg.params.d == 2.0
    with pytest.raises(ConfigError, match="params.d must be > 0"):
        scenario_with_overrides(spec.base_keys, {"params.d": 0.0})


# ---------------------------------------------------------------------------
# CLI: run

def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_RUN)
    out = tmp_path / "res"
    assert main(["run", cfg, "--out", str(out)]) == 0
    names = ("trajectory.csv", "thresholds.txt", "thresholds.csv", "summary.txt")
    for name in names:
        assert (out / name).is_file()
    stdout = capsys.readouterr().out
    assert "termination = completed" in stdout
    assert stdout == (out / "summary.txt").read_bytes().decode()
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,mass_u,mass_v,")
    # every output file ends in exactly one newline and holds no carriage return
    assert main(["sweep", write_cfg(tmp_path, FAST_SWEEP, "s.cfg"), "--out", str(tmp_path / "s"),
                 "--quiet"]) == 0
    assert main(["verify", "--out", str(tmp_path / "v"), "--quiet"]) == 0
    for path in [out / name for name in names] + [tmp_path / "s" / "sweep.csv",
                                                  tmp_path / "v" / "inequalities.csv"]:
        data = path.read_bytes()
        assert data.endswith(b"\n") and not data.endswith(b"\n\n"), path.name
        assert b"\r" not in data, path.name


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_config_that_is_not_utf8_exits_1_in_one_line(tmp_path, command, capsys):
    # a latin-1 byte in a comment: the file is read as UTF-8 under any locale
    axis = b"sweep.params.chi = 0.25, 0.5\n" if command == "sweep" else b""
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"preset = C2_logistic\n# caf\xe9\n" + axis)
    assert main([command, str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {path}: ")
    assert "0xe9" in err and err.count("\n") == 1


def test_cli_run_quiet_silences_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_RUN)
    assert main(["run", cfg, "--out", str(tmp_path / "q"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_run_is_deterministic_and_seed_sensitive(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RUN)
    outs = {}
    for tag, seed in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / tag
        assert main(["run", cfg, "--out", str(out), "--seed", seed, "--quiet"]) == 0
        outs[tag] = (out / "trajectory.csv").read_bytes()
    assert outs["a"] == outs["b"]
    assert outs["a"] != outs["c"]


def test_cli_run_blowup_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
        preset = custom
        grid.cells = 64
        params.a = 2.0
        params.mu = 0.0
        solver.dt = 0.002
        solver.t_end = 2.0
        solver.blowup_threshold = 3.0
    """)
    assert main(["run", cfg, "--out", str(tmp_path / "b"), "--quiet"]) == 2
    summary = (tmp_path / "b" / "summary.txt").read_text()
    assert "termination = blowup_detected" in summary


def test_cli_run_step_failure_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, """
        preset = custom
        grid.cells = 32
        solver.dt = 0.9
        solver.t_end = 2.0
    """)
    assert main(["run", cfg, "--out", str(tmp_path / "f"), "--quiet"]) == 3


def test_cli_run_initial_solve_failure_exit_code(tmp_path):
    # at 16384 cells the potential's float64 residual (about 1e-8) misses a
    # 1e-14 tolerance, and its backward error (about 1e-16) the floor of 1e-4
    # times it, already in the initial state
    cfg = write_cfg(tmp_path, """
        preset = custom
        grid.cells = 16384
        solver.t_end = 0.01
        solver.elliptic_tolerance = 1e-14
    """)
    proc = subprocess.run(
        [sys.executable, "-m", "angiosim.cli", "run", cfg, "--out", str(tmp_path / "fine")],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "relative residual" in lines[0]


def test_cli_run_on_a_grid_past_the_relative_gate_completes(tmp_path):
    # at 2048 cells an exact solve's relative residual (1.3e-10 in the initial
    # state) misses 1e-10; its backward error (about 1e-16) passes the gate
    cfg = write_cfg(tmp_path, """
        preset = C2_logistic
        grid.cells = 2048
        solver.dt = 2e-5
        solver.t_end = 0.002
    """)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    summary = (tmp_path / "o" / "summary.txt").read_text()
    assert "termination = completed" in summary
    residual = float(summary.split("max_elliptic_residual = ")[1].split()[0])
    assert residual > 1e-10  # the recorded residual stays the relative one


def test_cli_run_nonpositive_initial_u_exit_code(tmp_path):
    # a cosine bump of amplitude 1.5 on base 1 dips below zero
    cfg = write_cfg(tmp_path, """
        preset = custom
        init.amplitude = 1.5
    """)
    proc = subprocess.run(
        [sys.executable, "-m", "angiosim.cli", "run", cfg, "--out", str(tmp_path / "neg")],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "strictly positive" in lines[0]


@pytest.mark.parametrize("body, message", [
    ("init.v_profile = constant\ninit.v_base = -1\n", "initial v must be nonnegative (min -1)"),
    ("init.profile = gaussian_bump\ninit.base = 1e308\ninit.amplitude = 1e308\n",
     "initial u and v must be finite; base + amplitude overflows float64"),
    ("init.profile = constant\ninit.base = 1e307\n",
     "the initial u sums past the float64 range over its 128 cells; lower init.base"),
], ids=["negative-v", "overflow", "sum-overflow"])
def test_cli_run_invalid_initial_state_exits_3_in_process(tmp_path, capsys, body, message):
    # the checks the subprocess tests around this one also reach, run in this process
    cfg = write_cfg(tmp_path, "preset = custom\n" + body)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical failure in the initial state: {message}\n"


def test_cli_run_non_finite_initial_state_exit_code(tmp_path):
    # base + amplitude overflows to inf at the bump's peak
    cfg = write_cfg(tmp_path, """
        preset = custom
        init.profile = gaussian_bump
        init.base = 1e308
        init.amplitude = 1e308
    """)
    proc = subprocess.run(
        [sys.executable, "-m", "angiosim.cli", "run", cfg, "--out", str(tmp_path / "inf")],
        capture_output=True, text=True)
    assert proc.returncode == 3
    [line] = proc.stderr.splitlines()
    assert line.startswith("numerical failure in the initial state: ")


def test_cli_run_initial_u_whose_sum_overflows_exit_code(tmp_path):
    # every value is finite, but 128 of them sum past the float range, which
    # would leave the potential's right-hand side nan
    cfg = write_cfg(tmp_path, """
        preset = custom
        init.profile = constant
        init.base = 1e307
    """)
    proc = subprocess.run(
        [sys.executable, "-m", "angiosim.cli", "run", cfg, "--out", str(tmp_path / "sum")],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "numerical failure in the initial state: the initial u sums past the float64 range "
        "over its 128 cells; lower init.base"]


def test_a_failed_time_loop_set_up_ends_run_and_sweep_alike(tmp_path, capsys, monkeypatch):
    # a grid too large for the machine's memory fails in the stepper's set-up,
    # after the initial state: run exits 3 with one stderr line, a sweep keeps
    # the message in each point's row
    message = ("Unable to allocate 122. MiB for an array with shape (4000, 4000) "
               "and data type float64")

    def out_of_memory(self, *args):
        raise MemoryError(message)

    monkeypatch.setattr(dynamics.Stepper, "__init__", out_of_memory)
    assert main(["run", write_cfg(tmp_path, FAST_RUN), "--out", str(tmp_path / "r")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"numerical failure: {message}\n"

    sweep = write_cfg(tmp_path, FAST_SWEEP, name="sweep.cfg")
    assert main(["sweep", sweep, "--out", str(tmp_path / "s"), "--quiet"]) == 0
    assert capsys.readouterr() == ("", "")
    header, *rows = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2
    for row in rows:
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["termination"] == "error"
        assert cells["error"] == message.replace(",", ";")


BLOWUP_RUN = """
    preset = custom
    grid.cells = 16
    params.a = 1000
    params.mu = 0
    params.chi = 0
    params.xi1 = 0
    params.xi2 = 0
    solver.dt = 0.0004
    solver.t_end = 1
    solver.blowup_threshold = 1e308
"""


def test_cli_blowup_exits_2_without_runtime_warnings(tmp_path):
    # u' = 1000 u overflows float64 well before t_end; the overflow is the
    # blow-up verdict, so numpy must not also warn about it on stderr
    cases = (("run", BLOWUP_RUN, 2), ("sweep", BLOWUP_RUN + "sweep.params.d = 1.0, 2.0\n", 0))
    for command, text, code in cases:
        cfg = write_cfg(tmp_path, text, f"{command}.cfg")
        proc = subprocess.run(
            [sys.executable, "-m", "angiosim.cli", command, cfg,
             "--out", str(tmp_path / command), "--quiet"],
            capture_output=True, text=True)
        assert proc.returncode == code
        assert proc.stderr == ""
    assert "termination = blowup_detected" in (tmp_path / "run" / "summary.txt").read_text()
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["blowup_detected"] * 2


def test_blowup_run_records_the_potential_residual_past_1e154(tmp_path):
    # |u - mean u| beyond ~1e154 overflows the squares of the residual's
    # norms; the recorded residual must stay the solve's true one
    cfg = write_cfg(tmp_path, BLOWUP_RUN)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    header, *rows = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
    col = header.split(",").index("elliptic_residual")
    linf = header.split(",").index("linf_u")
    residuals = [float(row.split(",")[col]) for row in rows]
    assert max(float(row.split(",")[linf]) for row in rows) > 1e170
    assert all(0.0 < r < 1e-13 for r in residuals[1:])


GROWTH_PAST_1E300 = """
    preset = custom
    grid.cells = 16
    params.a = 1
    params.mu = 0
    params.chi = 0
    params.xi1 = 0
    params.xi2 = 0
    solver.dt = 0.25
    solver.t_end = 800
    solver.blowup_threshold = 1e308
"""


@pytest.mark.parametrize("text", [BLOWUP_RUN, GROWTH_PAST_1E300], ids=["blowup", "growth"])
def test_deviation_norms_stay_finite_past_1e154(tmp_path, text):
    # once |u - target| passes ~1.3e154 its square overflows; the recorded
    # norms are taken at a power-of-two scale instead of reading inf
    cfg = write_cfg(tmp_path, text)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    header, *rows = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
    cols = header.split(",")
    table = [[float(x) for x in row.split(",")] for row in rows]
    for name in ("l2_u_dev", "l2_v_dev"):
        values = [rec[cols.index(name)] for rec in table]
        assert all(math.isfinite(x) for x in values) and max(values) > 1e170


@pytest.mark.parametrize("extra, field, value", [
    ("params.a = 1\nparams.mu = 1\ninit.v_base = 1e200\n", "lambda_of_z", "inf"),
    ("init.base = 1e200\ninit.amplitude = 1e199\n", "d0_check_value", "-inf"),
], ids=["sup_v", "sup_grad_w"])
def test_report_of_measured_sups_past_1e154(tmp_path, capsys, extra, field, value):
    # the squares of the measured sups overflow; the report reads inf where
    # Python's float power raised
    cfg = write_cfg(tmp_path, "preset = custom\ngrid.cells = 16\nsolver.t_end = 0.05\n"
                    "solver.blowup_threshold = 1e300\n" + extra)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3
    assert capsys.readouterr().err == ""
    report = dict(line.split(" = ") for line in
                  (tmp_path / "o" / "thresholds.txt").read_text().splitlines())
    assert report[field] == value


def test_cli_run_on_the_r2_floor_reports_its_bounds(tmp_path):
    # the 1D floor max{1, chi^(10/6)} mu0 chi^(2/6) is 1 at chi = 1: a run on it
    # is R2, and its gradient bounds are those of the R2 branch, not nan
    cfg = write_cfg(tmp_path, """
        preset = C2_logistic
        params.chi = 1.0
        params.mu = 1.0
        grid.cells = 32
        solver.t_end = 0.05
    """)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    summary = (tmp_path / "o" / "summary.txt").read_text()
    assert "regime = R2\n" in summary
    report = dict(line.split(" = ") for line in
                  (tmp_path / "o" / "thresholds.txt").read_text().splitlines())
    for name in ("M1c", "M_mu", "gradw_bound"):
        assert math.isfinite(float(report[name])), name


def test_cli_run_theta_below_one_reports_nan_thresholds(tmp_path, capsys):
    # the parser accepts theta < 1, where the mu threshold and sigma are undefined
    cfg = write_cfg(tmp_path, FAST_RUN + "params.a = 1\nparams.mu = 1\nparams.theta = 0.5\n")
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    summary = dict(line.split(" = ", 1)
                   for line in (tmp_path / "o" / "summary.txt").read_text().splitlines())
    assert summary["mu_threshold"] == "nan"
    assert "mu_above_threshold" not in summary  # no verdict against an undefined threshold
    assert summary["sigma"] == "nan"


DAMPING_ONLY_RUN = """
    preset = custom
    params.a = 0
    params.mu = 1
    params.theta = 2
    grid.cells = 64
    solver.t_end = 1
"""


def test_cli_run_damping_without_growth_reports_neither_regime(tmp_path, capsys):
    # a = 0 < mu is neither growth-free nor logistic: no F1, F2, carrying state
    # or empirical threshold applies, while the mass ceiling does; u and v are
    # measured against 0, and u decays, at no exponential rate the summary claims
    cfg = write_cfg(tmp_path, DAMPING_ONLY_RUN)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    header, *rows = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
    cols = header.split(",")
    assert rows
    for row in rows:
        cells = row.split(",")
        assert (cells[cols.index("F1")], cells[cols.index("F2")]) == ("nan", "nan")
    report = dict(line.split(" = ") for line in
                  (tmp_path / "o" / "thresholds.txt").read_text().splitlines())
    for name in ("b", "lambda_of_z", "mu_threshold", "sigma", "d0_check_value"):
        assert report[name] == "nan", name
    summary = dict(line.split(" = ", 1)
                   for line in (tmp_path / "o" / "summary.txt").read_text().splitlines())
    assert summary["mass_ceiling_ok"] == "yes"
    assert "b" not in summary and "d0_check" not in summary
    assert summary["exponential_rate"] == "not claimed: u decays to 0 like t^(-1/theta)"
    assert float(summary["fitted_rate"]) > 0.0
    first, last = (dict(zip(cols, row.split(","))) for row in (rows[0], rows[-1]))
    for name in ("u", "v"):  # the deviation from 0 is the L2 norm, which falls
        assert float(first[f"l2_{name}_dev"]) > float(last[f"l2_{name}_dev"])


def test_cli_run_reports_an_overflowing_gradient_bound_as_inf(tmp_path, capsys):
    # M0 is about 1e100, so M0^(2n+2) overflows; the bound read nan when it
    # multiplied that by the convex box's zero domain term
    cfg = write_cfg(tmp_path, FAST_RUN + "params.mu = 1e-80\nparams.theta = 2\n")
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    report = dict(line.split(" = ") for line in
                  (tmp_path / "o" / "thresholds.txt").read_text().splitlines())
    assert (report["M1c"], report["gradw_bound"]) == ("inf", "inf")


def test_cli_run_config_error_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "preset = custom\nparams.d = 0\n")
    assert main(["run", cfg]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 1
    assert "absent.cfg" in capsys.readouterr().err


def test_cli_run_rejects_unknown_fit_column_before_stepping(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_RUN + "fit.column = bogus\n")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "line 9: fit.column = 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    sweep = write_cfg(tmp_path, FAST_SWEEP + "fit.column = bogus\n", "s.cfg")
    assert main(["sweep", sweep, "--out", str(tmp_path / "s")]) == 1
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command", ["run", "sweep", "verify"])
def test_cli_out_naming_a_file_exits_1_in_one_line(tmp_path, command, capsys):
    cfg = {"run": [write_cfg(tmp_path, FAST_RUN)],
           "sweep": [write_cfg(tmp_path, FAST_SWEEP, "s.cfg")], "verify": []}[command]
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):  # the file itself, then a directory under it
        assert main([command, *cfg, "--out", str(out), "--quiet"]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"cannot use {out}: ")
    assert taken.read_text() == ""


@pytest.mark.parametrize("argv", [["run"], ["run", "x.cfg", "--fast"],
                                  ["run", "x.cfg", "--seed", "abc"], ["fit", "x.csv"]])
def test_cli_usage_errors_exit_1(argv, capsys):
    # argparse's own exit code, 2, is the blow-up code here
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    assert main(["run", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_cli_rejects_negative_seed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_RUN)
    assert main(["run", cfg, "--seed", "-4"]) == 1
    assert "--seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: sweep

def test_cli_sweep_rows_and_determinism(tmp_path):
    serial = write_cfg(tmp_path, FAST_SWEEP, name="serial.cfg")
    parallel = write_cfg(tmp_path, FAST_SWEEP + "sweep.max_parallel = 2\n",
                         name="parallel.cfg")
    assert main(["sweep", serial, "--out", str(tmp_path / "s"), "--quiet"]) == 0
    assert main(["sweep", parallel, "--out", str(tmp_path / "p"), "--quiet"]) == 0
    s_bytes = (tmp_path / "s" / "sweep.csv").read_bytes()
    assert s_bytes == (tmp_path / "p" / "sweep.csv").read_bytes()
    lines = s_bytes.decode().splitlines()
    assert lines[0].split(",")[0] == "sweep:params.d"
    assert len(lines) == 3
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[1] == "completed"
        assert cells[-1] == ""  # error column empty


def test_cli_sweep_names_its_row_count_and_file_unless_quiet(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["sweep", write_cfg(tmp_path, FAST_SWEEP), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"2 sweep rows -> {out / 'sweep.csv'}\n"


def test_cli_sweep_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, FAST_SWEEP)
    for tag, seed in (("s7", "7"), ("s7b", "7"), ("s8", "8")):
        assert main(["sweep", cfg, "--out", str(tmp_path / tag),
                     "--seed", seed, "--quiet"]) == 0
    a = (tmp_path / "s7" / "sweep.csv").read_bytes()
    assert a == (tmp_path / "s7b" / "sweep.csv").read_bytes()
    assert a != (tmp_path / "s8" / "sweep.csv").read_bytes()
    assert b"error" in a.splitlines()[0]
    assert all(row.endswith(b",") for row in a.splitlines()[1:])


def test_cli_sweep_seed_reaches_base_keys_and_every_point(tmp_path, monkeypatch):
    import angiosim.cli as cli

    parsed, points = [], []

    def keep(path, overrides=None):
        parsed.append(parse_sweep(path, overrides))
        return parsed[-1]

    def point(base_keys, overrides, **kwargs):
        points.append(scenario_with_overrides(base_keys, overrides, **kwargs))
        return points[-1]

    monkeypatch.setattr(cli, "parse_sweep", keep)
    monkeypatch.setattr(harness, "scenario_with_overrides", point)
    text = textwrap.dedent(FAST_SWEEP) + "seed = 4\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["sweep", cfg, "--out", str(tmp_path / "s"), "--seed", "9", "--quiet"]) == 0
    assert parsed[0].base_keys["seed"] == ("9", 0)
    assert parsed[0].base.initial.seed == 9
    assert [pt.initial.seed for pt in points] == [9, 9]
    assert [pt.out_dir for pt in points] == [str(tmp_path / "s")] * 2
    assert (tmp_path / "s" / "sweep.csv").exists()
    with open(cfg) as fh:
        assert fh.read() == text


def test_cli_sweep_groups_by_solver_in_declaration_order(tmp_path, monkeypatch):
    # chi is declared first, so the two dt groups interleave in the output
    base = FAST_SWEEP.replace("sweep.params.d = 1.0, 2.0",
                              "sweep.params.chi = 0.0, 0.5\nsweep.solver.dt = 0.005, 0.0025")
    cfg = write_cfg(tmp_path, base)
    for tag in ("a", "b"):
        assert main(["sweep", cfg, "--out", str(tmp_path / tag), "--quiet"]) == 0
    blob = (tmp_path / "a" / "sweep.csv").read_bytes()
    assert blob == (tmp_path / "b" / "sweep.csv").read_bytes()
    # a 32-cell cap splits each group into batches of one; the rows stay the same
    monkeypatch.setattr(harness, "_ENSEMBLE_CELLS", 32)
    assert main(["sweep", cfg, "--out", str(tmp_path / "split"), "--quiet"]) == 0
    assert blob == (tmp_path / "split" / "sweep.csv").read_bytes()
    header, *rows = blob.decode().splitlines()
    assert header.startswith("sweep:params.chi,sweep:solver.dt,")
    assert [tuple(map(float, r.split(",")[:2])) for r in rows] == \
        [(0.0, 0.005), (0.0, 0.0025), (0.5, 0.005), (0.5, 0.0025)]
    # each row is the row of its point swept on its own
    for i, row in enumerate(rows):
        chi, dt = row.split(",")[:2]
        single = base.replace("sweep.params.chi = 0.0, 0.5", f"sweep.params.chi = {chi}")
        single = single.replace("sweep.solver.dt = 0.005, 0.0025", f"sweep.solver.dt = {dt}")
        one = write_cfg(tmp_path, single, name=f"one{i}.cfg")
        assert main(["sweep", one, "--out", str(tmp_path / f"one{i}"), "--quiet"]) == 0
        assert (tmp_path / f"one{i}" / "sweep.csv").read_text().splitlines()[1] == row


def test_cli_sweep_honours_fit_window(tmp_path):
    base = textwrap.dedent("""
        preset = custom
        grid.cells = 32
        solver.dt = 0.001
        solver.t_end = 0.05
        solver.record_every = 1
        init.profile = random_positive
        init.amplitude = 0.3
    """)
    window = "fit.window_start = 0.01\nfit.window_end = 0.03\n"
    run_cfg = write_cfg(tmp_path, base + window, name="run.cfg")
    sweep_cfg = write_cfg(tmp_path, base + window + "sweep.params.chi = 0.5\n", name="sweep.cfg")
    auto_cfg = write_cfg(tmp_path, base + "sweep.params.chi = 0.5\n", name="auto.cfg")
    assert main(["run", run_cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 0
    assert main(["sweep", sweep_cfg, "--out", str(tmp_path / "s"), "--quiet"]) == 0
    assert main(["sweep", auto_cfg, "--out", str(tmp_path / "a"), "--quiet"]) == 0
    summary = dict(line.split(" = ", 1)
                   for line in (tmp_path / "r" / "summary.txt").read_text().splitlines())

    def sweep_rate(tag):
        header, row = (tmp_path / tag / "sweep.csv").read_text().splitlines()
        return dict(zip(header.split(","), row.split(",")))["fitted_rate"]

    assert summary["fitted_window"] == "0.01:0.029999999999999999"
    assert sweep_rate("s") == summary["fitted_rate"]
    assert sweep_rate("a") != summary["fitted_rate"]  # the window matters here


def test_cli_sweep_keeps_failed_points_in_row(tmp_path):
    base = """
        preset = C2_logistic
        grid.cells = 16
        solver.t_end = 0.05
        solver.record_every = 5
    """
    cfg = write_cfg(tmp_path, base + "sweep.params.mu = 0, 1\nsweep.init.amplitude = 0.2, 1.5\n")
    assert main(["sweep", cfg, "--out", str(tmp_path / "s"), "--quiet"]) == 0
    header, *rows = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
    cells = [dict(zip(header.split(","), row.split(","))) for row in rows]
    assert [c["termination"] for c in cells] == ["error", "error", "completed", "error"]
    assert "requires params.mu > 0" in cells[0]["error"]
    assert "requires params.mu > 0" in cells[1]["error"]
    assert "initial u must be strictly positive" in cells[3]["error"]
    assert cells[2]["error"] == ""
    one = write_cfg(tmp_path, base + "sweep.params.mu = 1\nsweep.init.amplitude = 0.2\n", "one.cfg")
    assert main(["sweep", one, "--out", str(tmp_path / "one"), "--quiet"]) == 0
    assert (tmp_path / "one" / "sweep.csv").read_text().splitlines()[1] == rows[2]


def test_cli_sweep_error_column_says_why_a_point_stopped(tmp_path):
    # CI's 1D sweep that loses members by both routes: the mu = 0.5 points at
    # chi = 0.25 and 4 blow up past 1.3, and the four points at chi = 8 and 16
    # fail the stability bound at t = 0
    cfg = write_cfg(tmp_path, """
        preset = C2_logistic
        solver.t_end = 3
        solver.blowup_threshold = 1.3
        sweep.params.chi = 0.25, 4, 8, 16
        sweep.params.mu = 0.5, 2
    """)
    assert main(["sweep", cfg, "--out", str(tmp_path / "s"), "--quiet"]) == 0
    header, *rows = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
    assert all(row.count(",") == header.count(",") for row in rows)
    errors = {}
    for row in rows:
        cells = dict(zip(header.split(","), row.split(",")))
        errors.setdefault(cells["termination"], []).append(cells["error"])
    assert errors["completed"] == ["", ""]
    assert errors["blowup_detected"] == ["||u||_inf beyond 1.3 at t=0.62",
                                         "||u||_inf beyond 1.3 at t=0.586"]
    assert len(errors["step_failure"]) == 4
    for error in errors["step_failure"]:
        assert error.startswith("dt=2.000e-03 exceeds stability bound ")
        assert error.endswith(" at t=0")


def test_sweep_point_rejected_by_a_model_check_names_its_axis_line(tmp_path):
    cfg = write_cfg(tmp_path, """
        preset = custom
        grid.cells = 16
        solver.t_end = 0.01
        sweep.solver.cfl_safety = 0.5, 2
        sweep.params.d = 1, -1
    """)
    assert main(["sweep", cfg, "--out", str(tmp_path / "s"), "--quiet"]) == 0
    header, *rows = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
    errors = [dict(zip(header.split(","), row.split(",")))["error"] for row in rows]
    # line 1 of the dedented file is blank
    assert errors == ["", "line 6: params.d must be > 0; got -1.0",
                      "line 5: solver.cfl_safety must be in (0; 1]; got 2.0",
                      "line 6: params.d must be > 0; got -1.0"]


def test_cli_sweep_on_plain_config_fails(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_RUN)
    assert main(["sweep", cfg]) == 1
    assert "no sweep axes" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: verify and fit

def test_cli_verify_passes_and_writes_csv(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path / "v")]) == 0
    stdout = capsys.readouterr().out
    assert "verification cases passed" in stdout
    assert "FAIL" not in stdout
    ineq = (tmp_path / "v" / "inequalities.csv").read_text().splitlines()
    assert ineq[0] == "test_id,p,inequality,lhs,rhs,margin,pass"
    assert len(ineq) >= 51  # at least 50 recorded inequality cases


def test_cli_verify_broken_tolerance_fails(tmp_path, capsys, monkeypatch):
    # one violated inequality fails the battery loudly
    monkeypatch.setattr(harness, "verify_interpolation_inequalities",
                        lambda *_: [InequalityCheck("forced", 2.0, 1.0)])
    code = main(["verify", "--out", str(tmp_path / "vb"), "--quiet"])
    assert code == 3
    assert "FAILED" in capsys.readouterr().out


@pytest.fixture(scope="module")
def decay_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fitrun")
    cfg = tmp / "heatish.cfg"
    cfg.write_text(textwrap.dedent("""
        preset = custom
        grid.cells = 64
        params.chi = 0.0
        params.xi1 = 0.0
        params.xi2 = 0.0
        solver.dt = 0.001
        solver.t_end = 0.5
        solver.record_every = 10
    """))
    assert main(["run", str(cfg), "--out", str(tmp / "o"), "--quiet"]) == 0
    return str(tmp / "o" / "trajectory.csv")


def test_cli_fit_recovers_diffusive_rate(decay_csv, capsys):
    assert main(["fit", decay_csv, "--column", "l2_u_dev",
                 "--window", "0.1:0.4"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert fields["column"] == "l2_u_dev"
    rate = float(fields["rate"])
    assert rate == pytest.approx(9.8696, rel=0.02)  # lowest diffusive mode
    assert float(fields["r_squared"]) > 0.999


@pytest.mark.parametrize("t_end", ["0.5", "4"], ids=["decaying", "plateau"])
def test_cli_fit_default_window_reproduces_the_summary(tmp_path, t_end, capsys):
    # fit without --window uses the run's own default window; at t_end = 4
    # the column reaches the round-off plateau, where that window ends
    cfg = write_cfg(tmp_path, f"""
        preset = custom
        grid.cells = 16
        params.chi = 0.0
        params.xi1 = 0.0
        params.xi2 = 0.0
        solver.t_end = {t_end}
        solver.record_every = 5
    """)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    summary = dict(line.split(" = ") for line in
                   (tmp_path / "o" / "summary.txt").read_text().splitlines())
    assert main(["fit", str(tmp_path / "o" / "trajectory.csv"), "--column", "l2_u_dev"]) == 0
    fields = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert fields["window"] == summary["fitted_window"]
    assert fields["rate"] == summary["fitted_rate"]


def test_cli_fit_unknown_column(decay_csv, capsys):
    assert main(["fit", decay_csv, "--column", "no_such", "--window", "0:1"]) == 1
    assert "available" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["3", "5:1", "a:b"])
def test_cli_fit_bad_window(decay_csv, window, capsys):
    assert main(["fit", decay_csv, "--column", "l2_u_dev", "--window", window]) == 1
    assert "--window" in capsys.readouterr().err


def test_cli_fit_missing_file(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "nope.csv"), "--column", "l2_u_dev",
                 "--window", "0:1"]) == 1


def test_a_fit_over_a_nan_column_fails_in_the_summary_and_in_fit(tmp_path, capsys):
    # F1 is recorded as nan on a logistic run
    cfg = write_cfg(tmp_path, """
        preset = C2_logistic
        grid.cells = 32
        solver.t_end = 0.5
        solver.record_every = 5
        fit.column = F1
    """)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    summary = dict(line.split(" = ") for line in (out / "summary.txt").read_text().splitlines())
    assert summary["fit_error"].startswith("non-finite or nonpositive values in window")
    assert "fitted_rate" not in summary
    capsys.readouterr()
    assert main(["fit", str(out / "trajectory.csv"), "--column", "F1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line == f"fit failed: {summary['fit_error']}"


@pytest.mark.parametrize("body", ["t,l2_u_dev\n0,abc\n", "t,l2_u_dev\n0,1\n1,2,3\n", "",
                                  "t,l2_u_dev,F1\n0,1\n1,2\n"],
                         ids=["non-numeric", "ragged", "empty", "short-rows"])
def test_cli_fit_unreadable_csv_exits_1_in_one_line(tmp_path, body, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["fit", str(path), "--column", "l2_u_dev"]) == 1
    assert caught == []
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"cannot read {path}: ")


# ---------------------------------------------------------------------------
# installed entry point

def test_runs_and_sweeps_leave_scipy_unloaded(tmp_path):
    # every transform goes through numpy.fft, in 1D and 2D alike; scipy.fft
    # would itself load concurrent.futures. A random profile's draw loads
    # angiosim.pcg64 and no run or sweep loads numpy.random: only verify's
    # battery, which draws normals, does.
    cosine = "init.profile = cosine_bump"
    run_cfg = write_cfg(tmp_path, FAST_RUN, "run.cfg")
    cosine_cfg = write_cfg(tmp_path, FAST_RUN.replace("init.profile = random_positive", cosine),
                           "cosine.cfg")
    sweep_cfg = write_cfg(tmp_path, FAST_SWEEP.replace("init.profile = random_positive", cosine),
                          "sweep.cfg")
    cfg_2d = write_cfg(tmp_path, """
        preset = custom
        grid.dim = 2
        grid.cells = 8
        solver.dt = 0.001
        solver.t_end = 0.005
    """, "run2d.cfg")
    out = str(tmp_path)
    script = textwrap.dedent(f"""
        import sys
        def unwanted():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                          or m in ("concurrent.futures", "multiprocessing"))
        def drawn():
            return "numpy.random" in sys.modules, "angiosim.pcg64" in sys.modules
        from angiosim.cli import main
        print(unwanted(), drawn())
        print(main(["run", {cosine_cfg!r}, "--out", {out!r} + "/r1", "--quiet"]))
        print(main(["sweep", {sweep_cfg!r}, "--out", {out!r} + "/s1", "--quiet"]))
        print(main(["run", {cfg_2d!r}, "--out", {out!r} + "/r2", "--quiet"]))
        print(unwanted(), drawn())
        print(main(["run", {run_cfg!r}, "--out", {out!r} + "/r3", "--quiet"]))
        print(drawn())
        print(main(["verify", "--out", {out!r} + "/v", "--quiet"]))
        print(unwanted(), drawn())
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[] (False, False)", "0", "0", "0", "[] (False, False)",
                                        "0", "(False, True)", "0", "[] (True, True)"]


def test_the_cli_freezes_the_collector_at_exit_and_only_there(tmp_path):
    # main registers gc.freeze with atexit, so the interpreter's closing
    # collections skip what the imports left tracked. atexit runs the last
    # registered first: main's handler, then `between`, then the first observer.
    # `between` leaves new tracked objects, which a second gc.freeze (a handler
    # left by the first call) would add to the count the first observer reads
    cfg = write_cfg(tmp_path, FAST_RUN)
    out = str(tmp_path)
    script = textwrap.dedent(f"""
        import atexit, gc
        frozen = []
        atexit.register(lambda: print(frozen[0] > 0, gc.get_freeze_count() == frozen[0]))
        from angiosim.cli import main
        print(main(["run", {cfg!r}, "--out", {out!r} + "/s1", "--quiet"]))
        def between():
            frozen.append(gc.get_freeze_count())
            frozen.append([[] for _ in range(100)])
        atexit.register(between)
        print(main(["run", {cfg!r}, "--out", {out!r} + "/s2", "--quiet"]))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0", "0", "True True"]
    # in this process: the calls themselves freeze nothing and leave the collector on
    enabled = gc.isenabled()
    for k in (1, 2):
        assert main(["run", cfg, "--out", str(tmp_path / f"in{k}"), "--quiet"]) == 0
    assert gc.get_freeze_count() == 0
    assert gc.isenabled() == enabled


def test_console_script_usage_error():
    proc = subprocess.run([sys.executable, "-m", "angiosim.cli", "run", "/no/such.cfg"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "such.cfg" in proc.stderr


# ---------------------------------------------------------------------------
# every config the parser accepts ends in a documented exit code

SPECIAL = [0.0, -1.0, math.nan, math.inf, -math.inf]
FLOATS = st.floats(-10.0, 10.0) | st.sampled_from(SPECIAL + [1e308])
WORDS = st.sampled_from(config.PRESETS + dynamics.FLUX_SCHEMES + dynamics.INITIAL_PROFILES
                        + ("same", "auto", "bogus"))
# one strategy per parser of the config table: in-range values, 0, negatives,
# 1e308, the non-finite values and words of the wrong key
DRAWS = {
    config._text: WORDS,
    config._want_preset: st.sampled_from(config.PRESETS + ("bogus",)),
    config._want_column: st.sampled_from(TRAJECTORY_COLUMNS + ("bogus",)),
    config._want_float: FLOATS,
    config._want_int: st.sampled_from([1, 2]) | st.integers(-1, 64),
    config._want_seed: st.integers(-1, 2**70),
    # one or two lengths, and 4e-160, whose spacing over 4 cells has a subnormal square
    config._want_floats: st.lists(FLOATS | st.just(4e-160), min_size=1, max_size=2),
    # one or two cell counts: 1-64 an axis, 0 and negatives
    config._want_ints: st.lists(st.integers(1, 64) | st.sampled_from([0, -1, -64]),
                                min_size=1, max_size=2),
    config._same_or_text: st.just("same") | WORDS,
    config._same_or_float: st.just("same") | FLOATS,
    config._auto_or_float: st.just("auto") | FLOATS,
}
# no run takes more than 100 steps of the base dt = 0.005 (t_end <= 0.5) nor a smaller dt
BY_KEY = {"solver.t_end": st.floats(1e-3, 0.5) | st.sampled_from(SPECIAL),
          "solver.dt": st.floats(0.005, 1e308) | st.sampled_from(SPECIAL)}
# dt and t_end are always set, since a preset's own pair may take 10,000 steps
BASE = {"preset": "custom", "grid.cells": [16], "solver.dt": 0.005, "solver.t_end": 0.05,
        "solver.record_every": 5}
ENTRY = st.sampled_from(list(config._KEYS)).flatmap(lambda key: st.tuples(
    st.just(key), BY_KEY[key] if key in BY_KEY else DRAWS[config._KEYS[key].parse]))


def test_the_fuzz_has_a_strategy_for_every_parser():
    assert {k.parse for k in config._KEYS.values()} <= DRAWS.keys()


def config_line(key, value):
    if isinstance(value, list):
        return f"{key} = {', '.join(map(repr, value))}\n"
    return f"{key} = {value if isinstance(value, str) else repr(value)}\n"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(entries=st.lists(ENTRY, min_size=1, max_size=3, unique_by=lambda e: e[0]))
@example(entries=[("solver.dt", math.nan)])
@example(entries=[("solver.t_end", math.nan)])
@example(entries=[("solver.t_end", math.inf)])
@example(entries=[("params.theta", math.nan)])
@example(entries=[("solver.blowup_threshold", math.nan)])
@example(entries=[("params.chi", math.nan)])
@example(entries=[("params.mu", math.nan)])
@example(entries=[("params.d", math.inf)])
@example(entries=[("init.base", math.nan)])
# chi^2 and the floor's powers overflow, and so does (1/mu)^((n+1)/theta)
@example(entries=[("params.chi", 1e308)])
@example(entries=[("params.mu", 3.26e-184)])
@example(entries=[("params.chi", 1.0), ("grid.dim", 2), ("grid.cells", [64, 64]),
                  ("grid.lengths", [1.0, 1.0])])
@example(entries=[("grid.cells", [4]), ("grid.lengths", [4e-160])])
@example(entries=[("grid.dim", 2), ("grid.cells", [0, -1])])
@example(entries=[("grid.dim", 3)])
@example(entries=[("solver.record_every", 0)])
@example(entries=[("seed", -1)])
@example(entries=[("fit.window_start", 1.0)])
@example(entries=[("fit.column", "bogus")])
@example(entries=[("init.profile", "random_positive"), ("grid.dim", 2)])
@example(entries=[("preset", "heat_oracle")])
def test_every_config_ends_in_a_documented_exit_code(tmp_path, entries, capsys):
    # a drawn key replaces the base one, which would otherwise be a duplicate key
    text = "".join(config_line(key, value) for key, value in {**BASE, **dict(entries)}.items())
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    with contextlib.suppress(ConfigError):
        solver = parse_config(str(cfg)).solver
        assert solver.t_end / solver.dt <= 100
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    assert code in (0, 1, 2, 3)
    assert caught == []  # every failure is told by the exit code and stderr alone
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and "Traceback" not in err
    assert len(lines) == 1 if code == 1 else len(lines) <= 1
