"""Scenario driver, sweep driver, verification battery, and rate-fit tool.

Everything here is deterministic for a fixed config and seed: output files
carry no timestamps, and each value in them is written by config._fmt, a float
at 17 significant digits. This is the one module that writes output files, all
of them through _write: UTF-8, lines ended by a single \n. A sweep runs in this
one process: its points step together as batched ensembles, and its rows are
emitted in axis declaration order.

Exit codes (shared with the CLI): 0 success, 1 usage/config error, 2 blow-up
detected, 3 numerical failure (invalid initial state, stability violation,
solver breakdown, or running out of memory or any other failure in the time
loop's set-up): one stderr line of a run, or the error cell of a sweep's row.
"""
from __future__ import annotations

import itertools
import math
import os
import sys
import warnings

import numpy as np

from .config import ScenarioConfig, SweepSpec, _fmt, scenario_with_overrides
from .dynamics import Trajectory, make_initial, run_ensemble
from .elliptic import (
    EllipticSolveError,
    elliptic_residual,
    solve_neumann_poisson,
    spectral_info,
)
from .functionals import (
    TRAJECTORY_COLUMNS,
    entropy_sandwich_check,
    fit_decay_rate,
    grad_l2,
    relative_entropy,
    verify_interpolation_inequalities,
)
from .grid import build_grid, integrate, lp_norm
from .thresholds import (
    REPORT_FIELDS,
    ThresholdReport,
    compute_m1,
    condition_presets,
    empirical_d0_check,
    empirical_mu_threshold,
    lambda_of_z,
    m1c_value,
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


def _write(path, lines) -> None:
    """Write an output file: lines, each ended by one \n, as UTF-8. Every
    output file is written here."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _row(cells) -> str:
    """One CSV line: cells written by _fmt, joined by commas."""
    return ",".join(_fmt(c) for c in cells)


def _fit_column(recs, column: str, window):
    """Decay fit of one trajectory column over window (None: the default
    window); raises ValueError when the fit fails."""
    return fit_decay_rate([(r.t, getattr(r, column)) for r in recs], window)


def _build_report(cfg: ScenarioConfig, traj: Trajectory, cp: float) -> ThresholdReport:
    p, recs = cfg.params, traj.records
    vals = {}
    vals["m1"] = compute_m1(recs[0].mass_u, p, cfg.grid.measure)
    if p.xi2 > 0.0:
        vals["M0"] = structural_M0(p)
        try:
            m1c, m_mu = m1c_value(p, vals["M0"])
            vals["M1c"] = m1c
            if not math.isnan(m_mu):
                vals["M_mu"] = m_mu
            vals["gradw_bound"] = structural_gradw_bound(p, vals["M0"])
        except ValueError:
            pass  # no gradient-bound branch applies; fields stay nan

    A = np.float64(max(r.linf_v for r in recs))
    B = np.float64(max(r.linf_grad_w for r in recs))
    vals["empirical_A"], vals["empirical_B"] = A, B

    if p.growth_free and p.xi1 > 0.0:
        vals["d0_check_value"], vals["epsilon1"] = empirical_d0_check(p, A, B)
    if p.logistic:
        vals["b"] = p.carrying_state
        vals["lambda_of_z"] = lambda_of_z(p, cp, A * A)
        try:  # both need theta >= 1; sigma also needs mu above its bracket
            vals["mu_threshold"] = empirical_mu_threshold(p, cp, A)
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

    if p.growth_free:
        if not math.isnan(rep.d0_check_value):
            lines.append(("d0_check", "pass" if rep.d0_check_value >= 0.0 else "fail"))
            lines.append(("d0_check_value", rep.d0_check_value))
            lines.append(("epsilon1", rep.epsilon1))
        f1 = [(r.t, r.F1) for r in recs if r.t >= 1.0 and not math.isnan(r.F1)]
        if len(f1) >= 2:
            slack = 1e-8 * f1[0][1]
            mono = all(b[1] <= a[1] + slack for a, b in zip(f1, f1[1:]))
            lines.append(("f1_monotone_after_t1", mono))

    if p.logistic:
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
    """Run one scenario as a one-point ensemble, write trajectory/thresholds/summary
    files, map its termination reason, or the exception that stopped it, onto the
    exit code; the exception is one stderr line."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    traj = _ensemble_outcomes([cfg], cfg.solver)[0]
    if isinstance(traj, Exception):
        at = " in the initial state" if isinstance(traj, (ValueError, EllipticSolveError)) else ""
        print(f"numerical failure{at}: {_one_line(str(traj))}", file=sys.stderr)
        return EXIT_NUMERICAL
    spec = spectral_info(cfg.grid)

    out = cfg.out_dir
    _write(os.path.join(out, "trajectory.csv"),
           [_row(TRAJECTORY_COLUMNS)] + [_row(rec.csv_values()) for rec in traj.records])
    rep = _build_report(cfg, traj, spec.poincare_cp)
    values = [getattr(rep, k) for k in REPORT_FIELDS]
    _write(os.path.join(out, "thresholds.txt"),
           [f"{k} = {_fmt(v)}" for k, v in zip(REPORT_FIELDS, values)])
    _write(os.path.join(out, "thresholds.csv"), [_row(REPORT_FIELDS), _row(values)])

    lines = [f"{k} = {_fmt(v)}" for k, v in _verdict_lines(cfg, traj, rep, spec.poincare_cp)]
    _write(os.path.join(out, "summary.txt"), lines)
    if not quiet:
        print("\n".join(lines))

    if traj.termination_reason == "blowup_detected":
        return EXIT_BLOWUP
    if traj.termination_reason == "step_failure":
        return EXIT_NUMERICAL
    return EXIT_OK


def _one_line(text: str) -> str:
    return text.replace("\n", " ")  # for a run's stderr line and a sweep row's error cell


def _sweep_row(overrides: dict, cfg, outcome) -> dict:
    """The CSV row of one sweep point, from its Trajectory or from the
    exception that stopped it (failures stay in-row, never abort the sweep).
    error says why the point stopped: the exception's message, or the
    trajectory's failure_detail, empty for a completed one."""
    row = {f"sweep:{k}": v for k, v in overrides.items()}
    row.update(termination="error", terminal_linf_u=math.nan, terminal_l2_u_dev=math.nan,
               terminal_mass_u=math.nan, fitted_rate=math.nan, fitted_r_squared=math.nan)
    why = str(outcome) if isinstance(outcome, Exception) else outcome.failure_detail
    row["error"] = _one_line(why).replace(",", ";")  # one CSV cell
    if isinstance(outcome, Exception):
        return row
    last = outcome.records[-1]
    row.update(termination=outcome.termination_reason, terminal_linf_u=last.linf_u,
               terminal_l2_u_dev=last.l2_u_dev, terminal_mass_u=last.mass_u)
    try:
        fit = _fit_column(outcome.records, cfg.fit_column, cfg.fit_window)
        row["fitted_rate"] = fit.rate
        row["fitted_r_squared"] = fit.r_squared
    except ValueError:
        pass  # no fit: the rate columns stay nan
    return row


def _emptied(items: list) -> list:
    """A new list of items' entries, items left empty, so that only the new list
    keeps them."""
    moved = items[:]
    items.clear()
    return moved


def _ensemble_outcomes(cfgs, solver) -> list:
    """Integrate points that share a grid and a SolverConfig as one ensemble
    -> per point its Trajectory, or the exception that stopped it: its initial
    state's, or the time loop's for every point started, such as a MemoryError
    in its set-up. A sweep point and run_scenario's one point fail only here.
    The initial states are handed over in a list that nothing here keeps, so the
    time loop frees them before it builds its stepper."""
    outcomes, initials, started = [], [], []
    for j, cfg in enumerate(cfgs):
        try:
            initials.append(make_initial(cfg.grid, cfg.initial, solver.elliptic_tolerance))
            started.append(j)
            outcomes.append(None)
        except Exception as exc:  # failures end in the outcome, never in a traceback
            outcomes.append(exc)
    if started:
        try:
            trajs = run_ensemble(_emptied(initials), [cfgs[j].params for j in started], solver)
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
    path = os.path.join(out_dir, "sweep.csv")
    _write(path, [_row(columns)] + [_row(row[c] for c in columns) for row in rows])
    if not quiet:
        print(f"{len(rows)} sweep rows -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification battery

def verify_suite(out_dir: str = "out", quiet: bool = False) -> int:
    """Run the inequality battery, entropy sandwich, Poincare, and elliptic
    oracles; print pass/fail per case; nonzero exit if anything fails."""
    os.makedirs(out_dir, exist_ok=True)
    failures = cases = 0

    def report(name, ok, margin):
        nonlocal failures, cases
        cases += 1
        if not ok:
            failures += 1
        if not quiet or not ok:
            print(f"{'PASS' if ok else 'FAIL'} {name} margin={_fmt(margin)}")

    csv_lines = ["test_id,p,inequality,lhs,rhs,margin,pass"]
    exponents = (1.0, 1.5, 2.0, 3.0)
    for grid in (build_grid(1, 1.0, 512), build_grid(2, (1.0, 1.0), (128, 128))):
        tol = 1.0 + 5.0 * grid.max_spacing
        for test_id in range(7):
            for p_exp in exponents:
                checks = verify_interpolation_inequalities(test_id, p_exp, grid)
                for chk in checks:
                    margin = chk.rhs * tol - chk.lhs
                    ok = chk.lhs <= chk.rhs * tol
                    csv_lines.append(
                        _row((test_id, p_exp, chk.name, chk.lhs, chk.rhs, margin, int(ok))))
                    report(f"{grid.dim}d id={test_id} p={p_exp:g} {chk.name}", ok, margin)
    _write(os.path.join(out_dir, "inequalities.csv"), csv_lines)

    # entropy sandwich on random positive fields (unit-measure grids)
    rng = np.random.default_rng(20240817)
    grids = (build_grid(1, 1.0, 64), build_grid(2, (1.0, 1.0), (16, 16)))
    worst_lo = math.inf
    worst_hi = math.inf
    for i in range(1000):
        grid = grids[i % 2]
        base = rng.uniform(0.5, 3.0)
        amp = rng.uniform(0.0, 0.95) * base if i % 7 else 1e-6
        u = base + amp * rng.uniform(-1.0, 1.0, grid.cells)
        lo, hi = entropy_sandwich_check(u, grid)
        scale = max(1.0, relative_entropy(u, grid))
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
            f = rng.standard_normal(grid.cells)
            f -= f.mean()
            worst = min(worst, bound * grad_l2(f, grid) - lp_norm(f, grid, 2))
        report(f"poincare_{grid.dim}d x250", worst >= 0.0, worst)

    # elliptic oracles
    g1 = build_grid(1, 1.0, 256)
    x, = g1.cell_coordinates()
    w = solve_neumann_poisson(g1, 2.0 + np.cos(math.pi * x), 1e-10)[0]
    exact = np.cos(math.pi * x) / math.pi ** 2
    err = float(np.max(np.abs(w - exact))) / float(np.max(np.abs(exact)))
    report("elliptic_cosine_mode", err <= 1e-3, 1e-3 - err)
    gauge = abs(integrate(w, g1))
    report("elliptic_gauge", gauge <= 1e-12 * max(1.0, lp_norm(w, g1, math.inf)),
           1e-12 - gauge)

    g2 = build_grid(1, 1.0, 128)
    ru = rng.uniform(0.5, 2.0, g2.cells)
    res = elliptic_residual(ru, solve_neumann_poisson(g2, ru, 1e-10)[0], g2)
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
        with open(csv_path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a file without rows
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if not data.size:
            raise ValueError("no data rows")
        if data.shape[1] != len(header):
            raise ValueError(f"{len(header)} header columns but {data.shape[1]} in each row")
    except (OSError, ValueError) as exc:
        print(f"cannot read {csv_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for name in ("t", column):
        if name not in header:
            print(f"column {name!r} not in {csv_path}; available: {', '.join(header)}",
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
