"""Scenario driver, sweep driver, verification battery, and rate-fit tool.

Everything here is deterministic for a fixed config and seed: output files
carry no timestamps, floats serialize at 17 significant digits. A sweep runs
in this one process: its points step together as batched ensembles, and its
rows are emitted in axis declaration order.

Exit codes (shared with the CLI): 0 success, 1 usage/config error, 2 blow-up
detected, 3 numerical failure (invalid initial state, stability violation or
solver breakdown).
"""
from __future__ import annotations

import itertools
import math
import os
import sys

import numpy as np

from .config import ScenarioConfig, SweepSpec, scenario_with_overrides
from .dynamics import Trajectory, make_initial, run, run_ensemble, write_trajectory_csv
from .elliptic import EllipticSolveError, elliptic_residual, solve_w, spectral_info
from .functionals import (
    entropy_sandwich_check,
    fit_decay_rate,
    grad_l2,
    relative_entropy,
    verify_interpolation_inequalities,
)
from .grid import FLOAT_FMT, Field, build_grid, integrate, lp_norm
from .thresholds import (
    GenericConstants,
    ThresholdReport,
    _measured_sups,
    compute_m1,
    condition_presets,
    empirical_d0_check,
    empirical_mu_threshold,
    lambda_of_z,
    m1c_value,
    report_csv,
    report_text,
    sigma_rate,
    structural_M0,
    structural_gradw_bound,
)

__all__ = ["EXIT_OK", "EXIT_USAGE", "EXIT_BLOWUP", "EXIT_NUMERICAL",
           "run_scenario", "run_sweep", "verify_suite", "fit_report"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BLOWUP = 2
EXIT_NUMERICAL = 3

# A run that blows up overflows on its way past blowup_threshold; that is
# reported as its termination reason, so numpy's warnings would only repeat it.
# Bounds on extreme parameters read inf or nan for the same reason.
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore", divide="ignore")

# Cells one sweep ensemble holds at most, so that a batch's step temporaries
# stay about the size of one 256 x 256 run's however many points a sweep has.
_ENSEMBLE_CELLS = 256 * 256


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "yes" if v else "no"
    if isinstance(v, float):
        return FLOAT_FMT % v
    return str(v)


def _fit_column(recs, column: str, window):
    """Decay fit of one trajectory column over window (None: the default
    window); raises ValueError when the fit fails."""
    return fit_decay_rate([(r.t, getattr(r, column)) for r in recs], window)


def _build_report(cfg: ScenarioConfig, traj: Trajectory, cp: float) -> ThresholdReport:
    p = cfg.params
    vals = {}
    mass_u0 = traj.records[0].mass_u
    vals["m1"] = compute_m1(mass_u0, p, cfg.grid.measure)
    g = GenericConstants()
    if p.xi2 > 0.0:
        vals["M0"] = structural_M0(p, vals["m1"], g)
        try:
            m1c, m_mu = m1c_value(p, vals["M0"], g)
            vals["M1c"] = m1c
            if not math.isnan(m_mu):
                vals["M_mu"] = m_mu
            vals["gradw_bound"] = structural_gradw_bound(p, vals["M0"], g)
        except ValueError:
            pass  # no gradient-bound branch applies; fields stay nan

    A, B = _measured_sups(traj)
    vals["empirical_A"], vals["empirical_B"] = A, B

    if p.a == 0.0 and p.mu == 0.0 and p.xi1 > 0.0:
        chk = empirical_d0_check(traj, p)
        vals["d0_check_value"] = chk.check_value
        vals["epsilon1"] = chk.epsilon1
    if p.a > 0.0 and p.mu > 0.0:
        vals["b"] = (p.a / p.mu) ** (1.0 / p.theta)
        vals["lambda_of_z"] = lambda_of_z(p, cp, A * A)
        try:  # both need theta >= 1; sigma also needs mu above its bracket
            vals["mu_threshold"] = empirical_mu_threshold(traj, p, cp)
            vals["sigma"] = sigma_rate(p, cp, A)
        except ValueError:
            pass
    return ThresholdReport(**vals)


def _verdict_lines(cfg: ScenarioConfig, traj: Trajectory, rep: ThresholdReport, cp: float):
    p = cfg.params
    recs = traj.records
    lines = [
        ("preset", cfg.preset),
        ("regime", condition_presets(p) if not p.off_regime else "off_regime"),
        ("termination", traj.termination_reason),
        ("records", len(recs)),
        ("poincare_cp", cp),
        ("sup_linf_u", max(r.linf_u for r in recs)),
        ("min_u_overall", min(r.min_u for r in recs)),
        ("min_v_overall", min(r.min_v for r in recs)),
        ("max_elliptic_residual", max(r.elliptic_residual for r in recs)),
    ]
    if traj.failure_detail:
        lines.append(("failure_detail", traj.failure_detail))

    if p.mu > 0.0 or p.a == 0.0:
        ceiling_ok = max(r.mass_u for r in recs) <= rep.m1 * (1.0 + 1e-9) + 1e-12
        lines.append(("mass_ceiling_ok", ceiling_ok))

    if p.a == 0.0 and p.mu == 0.0:
        if not math.isnan(rep.d0_check_value):
            lines.append(("d0_check", "pass" if rep.d0_check_value >= 0.0 else "fail"))
            lines.append(("d0_check_value", rep.d0_check_value))
            lines.append(("epsilon1", rep.epsilon1))
        f1 = [(r.t, r.F1) for r in recs if r.t >= 1.0 and not math.isnan(r.F1)]
        if len(f1) >= 2:
            slack = 1e-8 * f1[0][1]
            mono = all(b[1] <= a[1] + slack for a, b in zip(f1, f1[1:]))
            lines.append(("f1_monotone_after_t1", mono))

    if p.a > 0.0 and p.mu > 0.0:
        lines.append(("b", rep.b))
        lines.append(("mu_threshold", rep.mu_threshold))
        lines.append(("mu_above_threshold", p.mu >= rep.mu_threshold))
        lines.append(("sigma", rep.sigma))

    try:
        fit = _fit_column(recs, cfg.fit_column, cfg.fit_window)
    except ValueError as exc:
        lines.append(("fit_error", str(exc)))
        return lines
    lines.append(("fitted_column", cfg.fit_column))
    lines.append(("fitted_window", f"{_fmt(fit.window[0])}:{_fmt(fit.window[1])}"))
    lines.append(("fitted_rate", fit.rate))
    lines.append(("fitted_r_squared", fit.r_squared))
    return lines


@_QUIET_OVERFLOW
def run_scenario(cfg: ScenarioConfig, quiet: bool = False) -> int:
    """Run one scenario, write trajectory/thresholds/summary files, map the
    termination reason onto the exit code."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    try:
        initial = make_initial(cfg.grid, cfg.initial, cfg.solver.elliptic_tolerance)
    except (EllipticSolveError, ValueError) as exc:
        print(f"numerical failure in the initial state: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    spec = spectral_info(cfg.grid)
    traj = run(initial, cfg.params, cfg.solver)

    write_trajectory_csv(traj, os.path.join(cfg.out_dir, "trajectory.csv"))
    rep = _build_report(cfg, traj, spec.poincare_cp)
    with open(os.path.join(cfg.out_dir, "thresholds.txt"), "w", newline="") as fh:
        fh.write(report_text(rep))
    with open(os.path.join(cfg.out_dir, "thresholds.csv"), "w", newline="") as fh:
        fh.write(report_csv(rep))

    lines = _verdict_lines(cfg, traj, rep, spec.poincare_cp)
    text = "\n".join(f"{k} = {_fmt(v)}" for k, v in lines) + "\n"
    with open(os.path.join(cfg.out_dir, "summary.txt"), "w", newline="") as fh:
        fh.write(text)
    if not quiet:
        print(text, end="")

    if traj.termination_reason == "blowup_detected":
        return EXIT_BLOWUP
    if traj.termination_reason == "step_failure":
        return EXIT_NUMERICAL
    return EXIT_OK


def _sweep_row(overrides: dict, cfg, outcome) -> dict:
    """The CSV row of one sweep point, from its Trajectory or from the
    exception that stopped it (failures stay in-row, never abort the sweep)."""
    row = {f"sweep:{k}": v for k, v in overrides.items()}
    row.update(termination="error", terminal_linf_u=math.nan, terminal_l2_u_dev=math.nan,
               terminal_mass_u=math.nan, fitted_rate=math.nan, fitted_r_squared=math.nan,
               error="")
    if isinstance(outcome, Exception):
        row["error"] = str(outcome).replace(",", ";").replace("\n", " ")
        return row
    last = outcome.records[-1]
    row["termination"] = outcome.termination_reason
    row["terminal_linf_u"] = last.linf_u
    row["terminal_l2_u_dev"] = last.l2_u_dev
    row["terminal_mass_u"] = last.mass_u
    try:
        fit = _fit_column(outcome.records, cfg.fit_column, cfg.fit_window)
        row["fitted_rate"] = fit.rate
        row["fitted_r_squared"] = fit.r_squared
    except ValueError:
        pass  # no fit: the rate columns stay nan
    return row


def _ensemble_outcomes(cfgs, solver) -> list:
    """Integrate points that share a grid and a SolverConfig as one ensemble
    -> per point its Trajectory, or the exception that stopped it."""
    outcomes, initials, started = [], [], []
    for j, cfg in enumerate(cfgs):
        try:
            initials.append(make_initial(cfg.grid, cfg.initial, solver.elliptic_tolerance))
            started.append(j)
            outcomes.append(None)
        except Exception as exc:  # failures stay in-row, never abort the sweep
            outcomes.append(exc)
    if started:
        try:
            trajs = run_ensemble(initials, [cfgs[j].params for j in started], solver)
        except Exception as exc:
            trajs = [exc] * len(started)
        for j, traj in zip(started, trajs):
            outcomes[j] = traj
    return outcomes


@_QUIET_OVERFLOW
def run_sweep(spec: SweepSpec, quiet: bool = False) -> int:
    """Cartesian sweep into spec.base.out_dir; one CSV row per point in axis
    declaration order.

    Points that share a grid and a SolverConfig step together as one batched
    ensemble in this process, at most _ENSEMBLE_CELLS cells at a time; every
    row is byte-identical to a run of its point on its own.
    """
    out_dir = spec.base.out_dir
    os.makedirs(out_dir, exist_ok=True)
    names = [name for name, _ in spec.axes]
    points = [dict(zip(names, combo))
              for combo in itertools.product(*(vals for _, vals in spec.axes))]
    rows = [None] * len(points)
    groups = {}
    for i, overrides in enumerate(points):
        try:
            cfg = scenario_with_overrides(spec.base_keys, overrides, lines=spec.axis_lines)
        except Exception as exc:  # failures stay in-row, never abort the sweep
            rows[i] = _sweep_row(overrides, None, exc)
            continue
        groups.setdefault((cfg.grid, cfg.solver), []).append((i, cfg))
    for (grid, solver), members in groups.items():
        size = max(1, _ENSEMBLE_CELLS // grid.n_cells)
        for start in range(0, len(members), size):
            chunk = members[start:start + size]
            outcomes = _ensemble_outcomes([cfg for _, cfg in chunk], solver)
            for (i, cfg), outcome in zip(chunk, outcomes):
                rows[i] = _sweep_row(points[i], cfg, outcome)

    columns = [f"sweep:{n}" for n in names] + [
        "termination", "terminal_linf_u", "terminal_l2_u_dev", "terminal_mass_u",
        "fitted_rate", "fitted_r_squared", "error",
    ]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    if not quiet:
        print(f"{len(rows)} sweep rows -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification battery

def _battery_grids():
    return (build_grid(1, 1.0, 512), build_grid(2, (1.0, 1.0), (128, 128)))


def verify_suite(out_dir: str = "out", quiet: bool = False, broken_tolerance: bool = False) -> int:
    """Run the inequality battery, entropy sandwich, Poincare, and elliptic
    oracles; print pass/fail per case; nonzero exit if anything fails.

    broken_tolerance deliberately wrecks the inequality tolerance so the
    failure path itself can be exercised (the battery must then fail loudly).
    """
    os.makedirs(out_dir, exist_ok=True)
    failures = 0
    cases = 0

    def report(name, ok, margin):
        nonlocal failures, cases
        cases += 1
        if not ok:
            failures += 1
        if not quiet or not ok:
            print(f"{'PASS' if ok else 'FAIL'} {name} margin={FLOAT_FMT % margin}")

    csv_lines = ["test_id,p,inequality,lhs,rhs,margin,pass"]
    exponents = (1.0, 1.5, 2.0, 3.0)
    for grid in _battery_grids():
        h = grid.max_spacing
        tol = 1e-6 if broken_tolerance else 1.0 + 5.0 * h
        for test_id in range(7):
            for p_exp in exponents:
                checks = verify_interpolation_inequalities(test_id, p_exp, grid)
                for chk in checks:
                    margin = chk.rhs * tol - chk.lhs
                    ok = chk.lhs <= chk.rhs * tol
                    csv_lines.append(
                        f"{test_id},{FLOAT_FMT % p_exp},{chk.name},"
                        f"{FLOAT_FMT % chk.lhs},{FLOAT_FMT % chk.rhs},"
                        f"{FLOAT_FMT % margin},{int(ok)}"
                    )
                    report(f"{grid.dim}d id={test_id} p={p_exp:g} {chk.name}", ok, margin)
    with open(os.path.join(out_dir, "inequalities.csv"), "w", newline="") as fh:
        fh.write("\n".join(csv_lines) + "\n")

    # entropy sandwich on random positive fields (unit-measure grids)
    rng = np.random.default_rng(20240817)
    grids = (build_grid(1, 1.0, 64), build_grid(2, (1.0, 1.0), (16, 16)))
    worst_lo = math.inf
    worst_hi = math.inf
    for i in range(1000):
        grid = grids[i % 2]
        base = rng.uniform(0.5, 3.0)
        amp = rng.uniform(0.0, 0.95) * base if i % 7 else 1e-6
        u = Field(grid, base + amp * rng.uniform(-1.0, 1.0, grid.n_cells))
        lo, hi = entropy_sandwich_check(u)
        scale = max(1.0, relative_entropy(u))
        worst_lo = min(worst_lo, lo / scale)
        worst_hi = min(worst_hi, hi / scale)
    report("entropy_sandwich_lower x1000", worst_lo >= -1e-10, worst_lo)
    report("entropy_sandwich_upper x1000", worst_hi >= -1e-10, worst_hi)

    # discrete Poincare with the computed sharp constant
    for grid in (build_grid(1, 1.0, 128), build_grid(2, (1.0, 1.0), (32, 32))):
        cp = spectral_info(grid).poincare_cp
        bound = cp + 3.0 * grid.max_spacing
        worst = math.inf
        for _ in range(250):
            f = rng.standard_normal(grid.n_cells)
            f -= f.mean()
            fld = Field(grid, f)
            worst = min(worst, bound * grad_l2(fld) - lp_norm(fld, 2))
        report(f"poincare_{grid.dim}d x250", worst >= 0.0, worst)

    # elliptic oracles
    g1 = build_grid(1, 1.0, 256)
    x = g1.cell_coordinates()[0]
    u = Field(g1, 2.0 + np.cos(math.pi * x))
    w = solve_w(u)
    exact = np.cos(math.pi * x) / math.pi ** 2
    err = float(np.max(np.abs(w.values - exact))) / float(np.max(np.abs(exact)))
    report("elliptic_cosine_mode", err <= 1e-3, 1e-3 - err)
    report("elliptic_gauge", abs(integrate(w)) <= 1e-12 * max(1.0, lp_norm(w, math.inf)),
           1e-12 - abs(integrate(w)))

    g2 = build_grid(1, 1.0, 128)
    ru = Field(g2, rng.uniform(0.5, 2.0, g2.n_cells))
    rw = solve_w(ru)
    res = elliptic_residual(ru.values, rw.values, g2)
    report("elliptic_random_residual", res <= 1e-10, 1e-10 - res)

    lam = spectral_info(g1).lambda1
    rel = abs(lam - math.pi ** 2) / math.pi ** 2
    report("spectral_interval", rel <= 1e-3, 1e-3 - rel)
    lam_rect = spectral_info(build_grid(2, (1.0, 2.0), (32, 64))).lambda1
    rel = abs(lam_rect - (math.pi / 2.0) ** 2) / (math.pi / 2.0) ** 2
    report("spectral_rectangle", rel <= 2e-3, 2e-3 - rel)

    if failures:
        print(f"{failures} of {cases} verification cases FAILED")
        return EXIT_NUMERICAL
    if not quiet:
        print(f"all {cases} verification cases passed")
    return EXIT_OK


def fit_report(csv_path: str, column: str, window: tuple[float, float] | None = None) -> int:
    """Fit an exponential rate to one trajectory CSV column, over window or,
    when it is None, over the default window run and sweep use."""
    try:
        with open(csv_path) as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        print(f"cannot read {csv_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if column not in header:
        print(f"column {column!r} not in {csv_path}; available: {', '.join(header)}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        fit = fit_decay_rate(data[:, [header.index("t"), header.index(column)]], window)
    except ValueError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"column = {column}")
    print(f"window = {_fmt(fit.window[0])}:{_fmt(fit.window[1])}")
    print(f"n_samples = {fit.n_samples}")
    print(f"rate = {_fmt(fit.rate)}")
    print(f"intercept = {_fmt(fit.intercept)}")
    print(f"r_squared = {_fmt(fit.r_squared)}")
    return EXIT_OK
