import math
import subprocess
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from angiosim import harness
from angiosim.cli import main
from angiosim.config import (
    ConfigError,
    parse_config,
    parse_sweep,
    scenario_with_overrides,
)

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
])
def test_config_rejections(tmp_path, body, fragment):
    with pytest.raises(ConfigError, match=fragment.replace("'", ".")):
        parse_config(write_cfg(tmp_path, body))


def test_non_finite_sweep_axis_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="line 2: sweep axis sweep.params.chi"):
        parse_sweep(write_cfg(tmp_path, "preset = custom\nsweep.params.chi = 0.5, nan\n"))


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
    ("preset = custom\nparams.chi = -1\n", "line 2: params.chi must be >= 0, got -1"),
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
    # grid checks inside build_grid keep their section's name
    ("preset = custom\ngrid.cells = 2\n", "grid: need at least 4 cells per axis, got (2,)"),
])
def test_config_error_names_its_key_once(tmp_path, body, message):
    with pytest.raises(ConfigError) as info:
        parse_config(write_cfg(tmp_path, body))
    assert str(info.value) == message


@pytest.mark.parametrize("lengths", ["1e160", "1e-160", "1.0, 1e-160"])
def test_cli_run_rejects_spacings_beyond_the_float_range(tmp_path, lengths):
    # 4/h^2 must be finite and positive, or the Laplacian reads 0 or inf
    dim = lengths.count(",") + 1
    cfg = write_cfg(tmp_path, f"preset = custom\ngrid.dim = {dim}\ngrid.lengths = {lengths}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "angiosim.cli", "run", cfg, "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"config error: line 3: grid.lengths = {lengths} gives cell spacings")


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
    with pytest.raises(ConfigError, match="not a sweepable key"):
        parse_sweep(write_cfg(tmp_path, "preset = custom\nsweep.out = a, b\n"))


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
    for name in ("trajectory.csv", "thresholds.txt", "thresholds.csv", "summary.txt"):
        assert (out / name).is_file()
    stdout = capsys.readouterr().out
    assert "termination = completed" in stdout
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,mass_u,mass_v,")


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
    # at 16384 cells the potential's float64 residual (about 1e-8) misses
    # the 1e-10 gate already in the initial state
    cfg = write_cfg(tmp_path, """
        preset = custom
        grid.cells = 16384
        solver.t_end = 0.01
    """)
    proc = subprocess.run(
        [sys.executable, "-m", "angiosim.cli", "run", cfg, "--out", str(tmp_path / "fine")],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "relative residual" in lines[0]


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
    assert summary["mu_above_threshold"] == "no"
    assert summary["sigma"] == "nan"


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


def test_cli_verify_broken_tolerance_fails(tmp_path, capsys):
    code = main(["verify", "--out", str(tmp_path / "vb"), "--quiet",
                 "--debug-broken-tolerance"])
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


# ---------------------------------------------------------------------------
# installed entry point

def test_runs_and_sweeps_leave_scipy_unloaded(tmp_path):
    # every transform goes through numpy.fft, in 1D and 2D alike; scipy.fft
    # would itself load concurrent.futures
    run_cfg = write_cfg(tmp_path, FAST_RUN, "run.cfg")
    sweep_cfg = write_cfg(tmp_path, FAST_SWEEP, "sweep.cfg")
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
        from angiosim.cli import main
        print(unwanted())
        print(main(["run", {run_cfg!r}, "--out", {out!r} + "/r1", "--quiet"]))
        print(main(["sweep", {sweep_cfg!r}, "--out", {out!r} + "/s1", "--quiet"]))
        print(unwanted())
        print(main(["run", {cfg_2d!r}, "--out", {out!r} + "/r2", "--quiet"]))
        print(main(["verify", "--out", {out!r} + "/v", "--quiet"]))
        print(unwanted())
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "0", "0", "[]", "0", "0", "[]"]


def test_console_script_usage_error():
    proc = subprocess.run([sys.executable, "-m", "angiosim.cli", "run", "/no/such.cfg"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "such.cfg" in proc.stderr


# ---------------------------------------------------------------------------
# every config the parser accepts ends in a documented exit code

FLOAT_KEYS = ("params.chi", "params.xi1", "params.xi2", "params.d", "params.a",
              "params.mu", "params.theta", "solver.cfl_safety", "solver.blowup_threshold",
              "solver.elliptic_tolerance", "init.base", "init.amplitude",
              "init.v_base", "init.v_amplitude")
SPECIAL = [0.0, -1.0, math.nan, math.inf, -math.inf]


def values_for(key):
    """Finite in-range numbers, 0, negatives, 1e308 and the non-finite values,
    bounded so that no run takes more than 100 steps of the base dt = 0.005
    (t_end <= 0.5) nor a smaller dt."""
    if key == "solver.t_end":
        return st.floats(1e-3, 0.5) | st.sampled_from(SPECIAL)
    if key == "solver.dt":
        return st.floats(0.005, 1e308) | st.sampled_from(SPECIAL)
    return st.floats(-10.0, 10.0) | st.sampled_from(SPECIAL + [1e308])


ENTRY = st.sampled_from(FLOAT_KEYS + ("solver.dt", "solver.t_end")).flatmap(
    lambda key: st.tuples(st.just(key), values_for(key)))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(entries=st.lists(ENTRY, min_size=1, max_size=2, unique_by=lambda e: e[0]))
@example(entries=[("solver.dt", math.nan)])
@example(entries=[("solver.t_end", math.nan)])
@example(entries=[("solver.t_end", math.inf)])
@example(entries=[("params.theta", math.nan)])
@example(entries=[("solver.blowup_threshold", math.nan)])
@example(entries=[("params.chi", math.nan)])
@example(entries=[("params.mu", math.nan)])
@example(entries=[("params.d", math.inf)])
@example(entries=[("init.base", math.nan)])
@example(entries=[("params.chi", 1e308)])  # chi^2 and the floor's powers overflow
@example(entries=[("params.mu", 3.26e-184)])  # so does (1/mu)^((n+1)/theta)
def test_every_config_ends_in_a_documented_exit_code(tmp_path, entries, capsys):
    body = "preset = custom\ngrid.cells = 16\nsolver.t_end = 0.05\nsolver.record_every = 5\n"
    text = body + "".join(f"{key} = {value!r}\n" for key, value in entries)
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) in (0, 1, 2, 3)
    capsys.readouterr()
