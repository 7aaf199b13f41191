"""End-to-end acceptance battery.

One test per criterion; each prints a single PASS/FAIL line with the measured
margin so a transcript of this module doubles as the verification report
(run with `pytest -s tests/test_acceptance.py` to see the lines; plain pytest
captures stdout of passing tests). Long runs are shared through module-scoped
fixtures; every timed criterion also checks its wall-clock budget.
"""
import math
import pathlib
import time
from dataclasses import replace

import numpy as np
import pytest

from angiosim.cli import main
from angiosim.config import parse_config
from angiosim.dynamics import (
    InitialSpec,
    ModelParams,
    SolverConfig,
    make_initial,
    run,
)
from angiosim.elliptic import elliptic_residual, solve_neumann_poisson, spectral_info
from angiosim.functionals import (
    entropy_sandwich_check,
    fit_decay_rate,
    relative_entropy,
    verify_interpolation_inequalities,
)
from angiosim.grid import build_grid, integrate, lp_norm
from angiosim.thresholds import (
    empirical_d0_check,
    empirical_mu_threshold,
    sigma_rate,
)
from oracles import mass_balance_residual, u_power_integral

LOGISTIC_U1 = 2.0 / (2.0 - math.exp(-1.0))  # u' = u(1-u), u(0) = 2, at t = 1
PI2 = math.pi ** 2


def check(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def smooth_initial(grid, v_const=None):
    if v_const is None:
        return make_initial(grid, InitialSpec(profile="cosine_bump", base=1.0, amplitude=0.2))
    return make_initial(grid, InitialSpec(
        profile="cosine_bump", base=1.0, amplitude=0.2,
        v_profile="constant", v_base=v_const, v_amplitude=0.0))


class Timed:
    def __init__(self, traj, elapsed, **extras):
        self.traj = traj
        self.elapsed = elapsed
        self.extras = extras


def timed_run(initial, params, cfg, on_record=None):
    t0 = time.perf_counter()
    traj = run(initial, params, cfg, on_record=on_record)
    elapsed = time.perf_counter() - t0
    assert traj.termination_reason == "completed", traj.failure_detail
    return traj, elapsed


# ---------------------------------------------------------------------------
# shared long runs

@pytest.fixture(scope="module")
def mass_run():
    # coupled growth-free run for the exact mass law, every step recorded
    g = build_grid(1, 1.0, 128)
    p = ModelParams(chi=0.5, xi1=1.0, xi2=1.0, d=1.0, a=0.0, mu=0.0, theta=1.0, n_dim=1)
    powers = []
    traj, elapsed = timed_run(
        smooth_initial(g), p, SolverConfig(dt=1e-3, t_end=10.0, record_every=1),
        on_record=lambda state: powers.append(u_power_integral(state, p.theta)))
    return Timed(traj, elapsed, params=p, powers=powers)


@pytest.fixture(scope="module")
def heat_run():
    g = build_grid(1, 1.0, 256)
    p = ModelParams(chi=0.0, xi1=0.0, xi2=0.0, d=1.0, a=0.0, mu=0.0, theta=1.0, n_dim=1)
    st = make_initial(g, InitialSpec(
        profile="cosine_bump", base=1.0, amplitude=0.1,
        v_profile="constant", v_base=1.0, v_amplitude=0.0))
    traj, elapsed = timed_run(st, p, SolverConfig(dt=1e-4, t_end=1.0, record_every=10))
    return Timed(traj, elapsed)


@pytest.fixture(scope="module")
def relax_run():
    # growth-free coupled run with distinct initial means, horizon 5
    g = build_grid(1, 1.0, 128)
    p = ModelParams(chi=0.5, xi1=1.0, xi2=1.0, d=2.0, a=0.0, mu=0.0, theta=1.0, n_dim=1)
    traj, elapsed = timed_run(
        smooth_initial(g, v_const=0.5), p,
        SolverConfig(dt=5e-3, t_end=5.0, record_every=10))
    return Timed(traj, elapsed, measure=g.measure, dt=5e-3)


@pytest.fixture(scope="module")
def c1_run():
    g = build_grid(1, 1.0, 128)
    p = ModelParams(chi=0.5, xi1=1.0, xi2=1.0, d=2.0, a=0.0, mu=0.0, theta=1.0, n_dim=1)
    st = smooth_initial(g, v_const=0.5)
    u0_mean = float(st.u.mean())
    l1_series = []

    def collect(state):
        l1_series.append((state.t, integrate(np.abs(state.u - u0_mean), state.grid)))

    traj, elapsed = timed_run(
        st, p, SolverConfig(dt=5e-3, t_end=30.0, record_every=10), on_record=collect)
    return Timed(traj, elapsed, params=p, u0_mean=u0_mean, l1_series=l1_series)


@pytest.fixture(scope="module")
def c2_run():
    g = build_grid(1, 1.0, 128)
    p = ModelParams(chi=0.5, xi1=0.5, xi2=0.5, d=1.0, a=1.0, mu=1.0, theta=1.0, n_dim=1)
    st = make_initial(g, InitialSpec(
        profile="cosine_bump", base=1.0, amplitude=0.2,
        v_profile="cosine_bump", v_base=1.0, v_amplitude=0.1))
    traj, elapsed = timed_run(st, p, SolverConfig(dt=2e-3, t_end=30.0, record_every=10))
    cp = spectral_info(g).poincare_cp
    return Timed(traj, elapsed, params=p, cp=cp)


@pytest.fixture(scope="module")
def chi_zero_run():
    g = build_grid(1, 1.0, 128)
    p = ModelParams(chi=0.0, xi1=1.0, xi2=1.0, d=1.0, a=0.0, mu=0.0, theta=1.0, n_dim=1)
    st = smooth_initial(g, v_const=0.5)
    traj, elapsed = timed_run(st, p, SolverConfig(dt=5e-3, t_end=50.0, record_every=10))
    return Timed(traj, elapsed,
                 u0_linf=float(np.max(np.abs(st.u))),
                 u0_mean=float(st.u.mean()))


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_elliptic_cosine_mode():
    t0 = time.perf_counter()
    g = build_grid(1, 1.0, 256)
    x, = g.cell_coordinates()
    u = 2.0 + np.cos(math.pi * x)
    w = solve_neumann_poisson(g, u, 1e-10)[0]
    exact = np.cos(math.pi * x) / PI2
    rel_err = float(np.max(np.abs(w - exact))) / float(np.max(np.abs(exact)))
    gauge = abs(integrate(w, g))
    scale = max(1.0, lp_norm(w, g, math.inf))
    res = elliptic_residual(u, w, g)
    elapsed = time.perf_counter() - t0
    ok = rel_err <= 1e-3 and gauge <= 1e-12 * scale and res <= 1e-10 and elapsed < 1.0
    check(1, ok, f"potential matches cosine mode: rel_linf={rel_err:.2e} (<=1e-3), "
                 f"gauge={gauge:.1e}, residual={res:.1e}, {elapsed:.2f}s")


def test_criterion_02_poincare_eigenvalue():
    t0 = time.perf_counter()
    lam = spectral_info(build_grid(1, 1.0, 256)).lambda1
    rel = abs(lam - PI2) / PI2
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-3 and elapsed < 5.0
    check(2, ok, f"lambda1={lam:.9f} vs pi^2, rel err {rel:.2e} (<=1e-3), {elapsed:.2f}s")


def test_criterion_03_exact_mass_law(mass_run):
    mass0 = mass_run.traj.records[0].mass_u
    worst = mass_balance_residual(mass_run.traj.records, mass_run.extras["powers"],
                                  mass_run.extras["params"])
    ok = worst <= 1e-10 * mass0 and mass_run.elapsed < 10.0
    check(3, ok, f"per-step mass residual {worst:.2e} <= 1e-10*mass0={1e-10 * mass0:.1e}, "
                 f"T=10 at dt=1e-3, {mass_run.elapsed:.1f}s")


def test_criterion_04_logistic_mass_ode():
    t0 = time.perf_counter()
    g = build_grid(1, 1.0, 16)
    p = ModelParams(chi=0.0, xi1=0.0, xi2=0.0, d=1.0, a=1.0, mu=1.0, theta=1.0, n_dim=1)
    st = make_initial(g, InitialSpec(profile="constant", base=2.0))
    dt = 1e-3
    traj, _ = timed_run(st, p, SolverConfig(dt=dt, t_end=1.0, record_every=1000))
    u1 = float(traj.terminal.u[0])
    err = abs(u1 - LOGISTIC_U1)
    elapsed = time.perf_counter() - t0
    ok = err <= 5.0 * dt and elapsed < 1.0
    check(4, ok, f"u(1)={u1:.8f} vs 2/(2-e^-1)={LOGISTIC_U1:.8f}, "
                 f"err {err:.2e} <= 5dt={5 * dt:.0e}, {elapsed:.2f}s")


def test_criterion_05_heat_decay_rate(heat_run):
    series = [(r.t, r.l2_u_dev) for r in heat_run.traj.records]
    fit = fit_decay_rate(series, (0.1, 1.0))
    rel = abs(fit.rate - PI2) / PI2
    ok = rel <= 0.02 and heat_run.elapsed < 30.0
    check(5, ok, f"fitted diffusive rate {fit.rate:.4f} vs pi^2, rel err {rel:.2%} (<=2%), "
                 f"r^2={fit.r_squared:.6f}, {heat_run.elapsed:.1f}s")


def test_criterion_06_mean_relaxation(relax_run):
    recs = relax_run.traj.records
    measure = relax_run.extras["measure"]
    ubar0 = recs[0].mass_u / measure
    vbar0 = recs[0].mass_v / measure
    assert abs(vbar0 - ubar0) > 0.1  # premise: distinct initial means
    worst = max(
        abs(r.mass_v / measure - ubar0 - (vbar0 - ubar0) * math.exp(-r.t))
        for r in recs if r.t <= 5.0
    )
    budget = 10.0 * relax_run.extras["dt"]
    ok = worst <= budget and relax_run.elapsed < 10.0
    check(6, ok, f"mean of v tracks exponential relaxation: worst dev {worst:.2e} "
                 f"<= 10dt={budget:.0e}, {relax_run.elapsed:.1f}s")


def test_criterion_07_positivity(mass_run, relax_run, c1_run, c2_run, chi_zero_run):
    worst_u = math.inf
    worst_v = math.inf
    runs = {"mass": mass_run, "relax": relax_run, "c1": c1_run,
            "c2": c2_run, "chi0": chi_zero_run}
    for timed in runs.values():
        worst_u = min(worst_u, min(r.min_u for r in timed.traj.records))
        worst_v = min(worst_v, min(r.min_v for r in timed.traj.records))
    ok = worst_u > 0.0 and worst_v >= 0.0
    check(7, ok, f"all {len(runs)} upwind runs keep min u={worst_u:.3e} > 0 "
                 f"and min v={worst_v:.3e} >= 0 at every record")


def test_criterion_08_entropy_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    grids = (build_grid(1, 1.0, 64), build_grid(2, (1.0, 1.0), (16, 16)))
    worst = math.inf
    for i in range(1000):
        g = grids[i % 2]
        base = rng.uniform(0.5, 3.0)
        amp = rng.uniform(0.0, 0.95) * base if i % 9 else 1e-7
        u = base + amp * rng.uniform(-1.0, 1.0, g.cells)
        lo, hi = entropy_sandwich_check(u, g)
        scale = max(1.0, relative_entropy(u, g))
        worst = min(worst, lo / scale, hi / scale)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-10 and elapsed < 5.0
    check(8, ok, f"1000 random fields, worst sandwich gap {worst:.2e} >= -1e-10, "
                 f"{elapsed:.1f}s")


def test_criterion_09_interpolation_inequalities():
    t0 = time.perf_counter()
    cases = 0
    worst = math.inf
    for grid in (build_grid(1, 1.0, 512), build_grid(2, (1.0, 1.0), (128, 128))):
        tol = 1.0 + 5.0 * grid.max_spacing
        for test_id in range(7):
            for p_exp in (1.0, 1.5, 2.0, 3.0):
                for chk in verify_interpolation_inequalities(test_id, p_exp, grid):
                    cases += 1
                    worst = min(worst, chk.rhs * tol - chk.lhs)
    elapsed = time.perf_counter() - t0
    ok = cases >= 50 and worst >= 0.0 and elapsed < 60.0
    check(9, ok, f"{cases} inequality cases (>=50), worst margin {worst:.3e} >= 0 "
                 f"at tol (1+5h), {elapsed:.1f}s")


def test_criterion_10_growth_free_convergence(c1_run):
    traj = c1_run.traj
    p = c1_run.extras["params"]
    u0_mean = c1_run.extras["u0_mean"]
    A = max(r.linf_v for r in traj.records)
    B = max(r.linf_grad_w for r in traj.records)
    check_value, _eps1 = empirical_d0_check(p, A, B)
    f1 = [(r.t, r.F1) for r in traj.records if r.t >= 1.0 and not math.isnan(r.F1)]
    slack = 1e-8 * f1[0][1]
    monotone = all(later <= earlier + slack
                   for (_, earlier), (_, later) in zip(f1, f1[1:]))
    linf_dev = float(np.max(np.abs(traj.terminal.u - u0_mean)))
    fit = fit_decay_rate(c1_run.extras["l1_series"], (0.5, 2.0))
    ok = (check_value > 0.0 and monotone
          and linf_dev < 1e-3 and fit.rate > 0.0 and fit.r_squared >= 0.95
          and c1_run.elapsed < 120.0)
    check(10, ok, f"dissipation check {check_value:.3f} > 0, F1 nonincreasing past "
                  f"t=1: {monotone}, |u-mean|_inf(T)={linf_dev:.1e} < 1e-3, L1 rate "
                  f"{fit.rate:.2f} with r^2={fit.r_squared:.5f}, {c1_run.elapsed:.1f}s")


def test_criterion_11_logistic_convergence(c2_run):
    traj = c2_run.traj
    p = c2_run.extras["params"]
    cp = c2_run.extras["cp"]
    b = p.carrying_state
    A = max(r.linf_v for r in traj.records)
    mu_thr = empirical_mu_threshold(p, cp, A)
    margin_ok = p.mu >= 1.5 * mu_thr
    sigma = sigma_rate(p, cp, A)
    u_dev = float(np.max(np.abs(traj.terminal.u - b)))
    v_dev = float(np.max(np.abs(traj.terminal.v - b)))
    f2 = [(r.t, r.F2) for r in traj.records if not math.isnan(r.F2)]
    fit = fit_decay_rate(f2, (4.0, 14.0))
    ok = (margin_ok and u_dev < 1e-3 and v_dev < 1e-3
          and fit.rate >= 0.9 * sigma and c2_run.elapsed < 120.0)
    check(11, ok, f"mu={p.mu} >= 1.5*threshold={1.5 * mu_thr:.3f}, "
                  f"|u-b|_inf={u_dev:.1e}, |v-b|_inf={v_dev:.1e} (<1e-3), F2 rate "
                  f"{fit.rate:.3f} >= 0.9*sigma={0.9 * sigma:.3f}, {c2_run.elapsed:.1f}s")


def test_criterion_12_no_attraction_corollary(chi_zero_run):
    traj = chi_zero_run.traj
    sup_linf = max(r.linf_u for r in traj.records)
    cap = 2.0 * chi_zero_run.extras["u0_linf"]
    linf_dev = float(np.max(np.abs(traj.terminal.u - chi_zero_run.extras["u0_mean"])))
    ok = sup_linf <= cap and linf_dev < 1e-3 and chi_zero_run.elapsed < 120.0
    check(12, ok, f"sup_t |u|_inf={sup_linf:.5f} <= 2|u0|_inf={cap:.2f} over T=50, "
                  f"|u-mean|_inf(T)={linf_dev:.1e} < 1e-3, {chi_zero_run.elapsed:.1f}s")


def test_criterion_13_convergence_orders():
    t0 = time.perf_counter()
    p = ModelParams(chi=0.5, xi1=1.0, xi2=1.0, d=1.0, a=0.0, mu=0.0, theta=1.0, n_dim=1)

    def terminal_u(cells, dt, t_end, scheme):
        g = build_grid(1, 1.0, cells)
        st = smooth_initial(g)
        traj, _ = timed_run(st, p, SolverConfig(
            dt=dt, t_end=t_end, record_every=10 ** 9, flux_scheme=scheme))
        return traj.terminal.u

    def restrict(fine):  # cell-average restriction onto the coarser grid
        return 0.5 * (fine[0::2] + fine[1::2])

    u32 = terminal_u(32, 1e-4, 0.25, "central")
    u64 = terminal_u(64, 1e-4, 0.25, "central")
    u128 = terminal_u(128, 1e-4, 0.25, "central")
    e_coarse = math.sqrt(float(np.sum((restrict(u64) - u32) ** 2)) / 32)
    e_fine = math.sqrt(float(np.sum((restrict(u128) - u64) ** 2)) / 64)
    order = math.log2(e_coarse / e_fine)

    ref = terminal_u(64, 6.25e-5, 0.5, "upwind")  # dt/32 reference
    e1 = math.sqrt(float(np.sum((terminal_u(64, 2e-3, 0.5, "upwind") - ref) ** 2)) / 64)
    e2 = math.sqrt(float(np.sum((terminal_u(64, 1e-3, 0.5, "upwind") - ref) ** 2)) / 64)
    ratio = e1 / e2

    elapsed = time.perf_counter() - t0
    ok = 1.7 <= order <= 2.2 and 1.7 <= ratio <= 2.3 and elapsed < 300.0
    check(13, ok, f"spatial Richardson order {order:.3f} in [1.7, 2.2], temporal "
                  f"halving ratio {ratio:.3f} in [1.7, 2.3], {elapsed:.1f}s")


def test_criterion_13_spatial_order_on_an_anisotropic_2d_box():
    # the same Richardson check on a 1.0 x 0.6 box, whose two axes differ in
    # length, cell count and spacing, so that it guards the per-axis handling
    t0 = time.perf_counter()
    p = ModelParams(chi=0.5, xi1=1.0, xi2=1.0, d=1.0, a=0.0, mu=0.0, theta=1.0, n_dim=2)

    def terminal_u(cells):
        g = build_grid(2, (1.0, 0.6), cells)
        traj, _ = timed_run(smooth_initial(g), p, SolverConfig(
            dt=1e-4, t_end=0.1, record_every=10 ** 9, flux_scheme="central"))
        return traj.terminal.u

    def restrict(fine):  # cell-average restriction onto the coarser grid
        return 0.25 * (fine[0::2, 0::2] + fine[1::2, 0::2] + fine[0::2, 1::2] + fine[1::2, 1::2])

    u_coarse, u_mid, u_fine = (terminal_u(cells) for cells in ((24, 16), (48, 32), (96, 64)))
    e_coarse = math.sqrt(float(np.sum((restrict(u_mid) - u_coarse) ** 2)) / u_coarse.size)
    e_fine = math.sqrt(float(np.sum((restrict(u_fine) - u_mid) ** 2)) / u_mid.size)
    order = math.log2(e_coarse / e_fine)
    elapsed = time.perf_counter() - t0
    ok = 1.7 <= order <= 2.2 and elapsed < 300.0
    check(13, ok, f"spatial Richardson order {order:.3f} in [1.7, 2.2] on a 1.0 x 0.6 box "
                  f"from 24x16 to 96x64 cells, {elapsed:.1f}s")


def test_criterion_14_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "repeat.cfg"
    cfg.write_text(
        "preset = custom\n"
        "grid.cells = 64\n"
        "solver.dt = 0.0005\n"
        "solver.t_end = 0.05\n"
        "solver.record_every = 10\n"
        "init.profile = random_positive\n"
        "init.amplitude = 0.1\n"
    )
    blobs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert main(["run", str(cfg), "--out", str(out), "--seed", "3", "--quiet"]) == 0
        blobs.append(tuple(
            (out / name).read_bytes()
            for name in ("trajectory.csv", "thresholds.csv", "summary.txt")))
    ok = blobs[0] == blobs[1]
    check(14, ok, "same config and seed give byte-identical trajectory, "
                  "threshold, and summary files across runs")


# ---------------------------------------------------------------------------
# the bundled configs' verdicts

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def record_rows(records):
    return np.array([r.csv_values() for r in records]).tobytes()


@pytest.fixture(scope="module")
def bundled_columns(c1_run, c2_run, chi_zero_run, heat_run):
    """Each bundled run config's fitted (t, value) column. Four of them are the
    criteria's shared runs, checked against their config over the first records."""
    shared = {"c1_no_mitosis": c1_run, "c2_logistic": c2_run,
              "chi_zero": chi_zero_run, "heat_oracle": heat_run}
    columns = {}
    for path in sorted(CONFIGS.glob("*.cfg")):
        if path.stem.startswith("sweep"):
            continue
        cfg = parse_config(path)
        initial = make_initial(cfg.grid, cfg.initial, cfg.solver.elliptic_tolerance)
        if path.stem in shared:
            records = shared[path.stem].traj.records
            head = replace(cfg.solver, t_end=2 * cfg.solver.record_every * cfg.solver.dt)
            first = run(initial, cfg.params, head).records
            assert record_rows(first) == record_rows(records[:len(first)])
        else:
            records = run(initial, cfg.params, cfg.solver).records
        columns[path.stem] = np.array([(r.t, getattr(r, cfg.fit_column)) for r in records])
    return columns


def test_fitted_rates_of_bundled_configs_ignore_round_off(bundled_columns):
    # the default window stops where the column drops below 1e-8 of its start,
    # clear of the round-off plateau: noise of 1e-12 of the column's scale
    # moves no fitted rate by 1e-5 relative
    assert set(bundled_columns) == {"blowup_probe", "c1_no_mitosis", "c2_logistic",
                                    "c2_logistic_2d", "chi_zero", "heat_oracle",
                                    "r3_strong_damping"}
    rng = np.random.default_rng(12)
    for name, column in bundled_columns.items():
        rate = fit_decay_rate(column).rate
        scale = np.max(np.abs(column[:, 1]))
        for _ in range(20):
            noisy = column.copy()
            noisy[:, 1] += 1e-12 * scale * rng.uniform(-1.0, 1.0, len(column))
            move = abs(fit_decay_rate(noisy).rate - rate) / abs(rate)
            assert move < 1e-5, f"{name}: fitted rate moved {move:.2e} relative"
