import itertools
import math
import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from angiosim import dynamics, elliptic
from angiosim.config import parse_config, parse_sweep, scenario_with_overrides
from angiosim.dynamics import (
    InitialSpec,
    ModelParams,
    SimState,
    SolverConfig,
    StepFailure,
    Stepper,
    _ended_rows,
    _face_speeds,
    make_initial,
    run,
    run_ensemble,
    stable_dt,
    write_trajectory_csv,
)
from angiosim.elliptic import (
    apply_packed,
    elliptic_residual,
    grid_axes,
    neumann_eigenvalues,
    pack_multiplier,
    solve_neumann_poisson,
)
from angiosim.functionals import TRAJECTORY_COLUMNS, diagnostics_record
from angiosim.grid import Field, build_grid, divergence_arrays
import oracles
from oracles import mass_balance_residual, u_power_integral

LOGISTIC_U1 = 2.0 / (2.0 - math.exp(-1.0))  # u' = u(1-u), u(0) = 2, at t = 1

OFF = ModelParams(chi=0.0, xi1=0.0, xi2=0.0, d=1.0, a=0.0, mu=0.0, theta=1.0, n_dim=1)
COUPLED = ModelParams(chi=0.5, xi1=1.0, xi2=1.0, d=1.0, a=0.0, mu=0.0, theta=1.0, n_dim=1)


def params(**kw):
    base = dict(chi=0.5, xi1=1.0, xi2=1.0, d=1.0, a=0.0, mu=0.0, theta=1.0, n_dim=1)
    base.update(kw)
    return ModelParams(**base)


def constant_state(grid, c):
    u = np.full(grid.cells, c)
    return SimState(0.0, grid, u, u, np.zeros(grid.cells))


def one_member(state):
    """state's (u, v, w) as a batch of one."""
    return tuple(a[np.newaxis] for a in (state.u, state.v, state.w))


def member_bound(state, p, cfg):
    """stable_dt of a one-member batch holding state."""
    g = state.grid
    u, v, w = one_member(state)
    col = (1,) + (1,) * g.dim
    speeds = _face_speeds(g, v, w, *(np.full(col, c) for c in (p.chi, p.xi1, p.xi2)))
    bound = stable_dt(g, u, speeds, [p], cfg)
    assert bound.shape == (1,)
    return bound[0]


def one_step(state, p, cfg):
    """One Stepper step of state as a batch of one."""
    g = state.grid
    u, v, w = Stepper(g, [p], cfg).step(state.t, *one_member(state))
    return SimState(state.t + cfg.dt, g, u[0], v[0], w[0])


def assert_same_trajectory(a, b):
    """Byte equality of records, termination and terminal state."""
    assert (a.termination_reason, a.failure_detail) == (b.termination_reason, b.failure_detail)
    assert len(a.records) == len(b.records)
    rows = [np.array([r.csv_values() for r in t.records]).tobytes() for t in (a, b)]
    assert rows[0] == rows[1]
    assert a.terminal.t == b.terminal.t
    for name in "uvw":
        assert getattr(a.terminal, name).tobytes() == getattr(b.terminal, name).tobytes()


# ---------------------------------------------------------------------------
# parameter and config validation

def test_model_params_validation():
    with pytest.raises(ValueError, match="chi"):
        params(chi=-0.1)
    with pytest.raises(ValueError, match="diffusivity"):
        params(d=0.0)
    with pytest.raises(ValueError, match="theta"):
        params(theta=0.0)
    with pytest.raises(ValueError, match="mu"):
        params(mu=-1.0)
    # theta in (0, 1) is a legal model, only some threshold formulas need >= 1
    assert params(theta=0.5).theta == 0.5


def test_off_regime_flag():
    assert params(xi1=0.0).off_regime
    assert params(xi2=0.0).off_regime
    assert not params().off_regime


def test_solver_config_validation():
    with pytest.raises(ValueError, match="dt"):
        SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError, match="cfl"):
        SolverConfig(dt=0.01, t_end=1.0, cfl_safety=1.5)
    with pytest.raises(ValueError, match="flux_scheme"):
        SolverConfig(dt=0.01, t_end=1.0, flux_scheme="quick")
    with pytest.raises(ValueError, match="record_every"):
        SolverConfig(dt=0.01, t_end=1.0, record_every=0)


@pytest.mark.parametrize("field", ["chi", "xi1", "xi2", "d", "a", "mu", "theta"])
def test_model_params_reject_nan(field):
    with pytest.raises(ValueError, match=field):
        params(**{field: math.nan})


@pytest.mark.parametrize("field", ["dt", "t_end", "cfl_safety", "blowup_threshold",
                                   "elliptic_tolerance"])
def test_solver_config_rejects_nan(field):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{"dt": 0.01, "t_end": 1.0, field: math.nan})


# ---------------------------------------------------------------------------
# initial data

def test_make_initial_constant_profile():
    g = build_grid(1, 1.0, 64)
    st = make_initial(g, InitialSpec(profile="constant", base=1.0))
    assert np.all(st.u == 1.0)
    assert np.all(st.v == 1.0)
    assert np.all(st.w == 0.0)


def test_make_initial_cosine_bump_bounds():
    g = build_grid(1, 1.0, 64)
    st = make_initial(g, InitialSpec(profile="cosine_bump", base=1.0, amplitude=0.5))
    assert st.u.min() == pytest.approx(0.5, abs=1e-3)
    assert st.u.min() > 0.0


def test_make_initial_rejects_nonpositive_u():
    g = build_grid(1, 1.0, 64)
    with pytest.raises(ValueError, match="strictly positive"):
        make_initial(g, InitialSpec(profile="cosine_bump", base=1.0, amplitude=1.5))


def test_make_initial_v_settings_default_to_u_settings():
    g = build_grid(1, 1.0, 64)
    st = make_initial(g, InitialSpec(profile="cosine_bump", base=1.0, amplitude=0.2))
    assert np.array_equal(st.u, st.v)
    st2 = make_initial(
        g, InitialSpec(profile="cosine_bump", base=1.0, amplitude=0.2,
                       v_profile="constant", v_base=0.25, v_amplitude=0.0))
    assert np.all(st2.v == 0.25)


def test_make_initial_random_positive_seeded():
    g = build_grid(2, 1.0, (8, 8))
    a = make_initial(g, InitialSpec(profile="random_positive", seed=3, amplitude=0.4))
    b = make_initial(g, InitialSpec(profile="random_positive", seed=3, amplitude=0.4))
    assert np.array_equal(a.u, b.u)
    assert a.u.min() > 0.0
    with pytest.raises(ValueError, match="profile must be one of"):
        InitialSpec(profile="bumps")


# ---------------------------------------------------------------------------
# stability bound

def test_stable_dt_quiescent_state():
    st = constant_state(build_grid(1, 1.0, 64), 1.0)
    assert member_bound(st, OFF, SolverConfig(dt=0.01, t_end=1.0)) == 0.5
    assert member_bound(st, OFF, SolverConfig(dt=0.01, t_end=1.0, cfl_safety=1.0)) == 1.0


def test_stable_dt_advective_bound():
    # v = 2x with chi = 1 gives face speed exactly 2; h = 0.01
    g = build_grid(1, 1.0, 100)
    st = SimState(0.0, g, np.ones(100), 2.0 * g.axis_centers(0), np.zeros(100))
    p = params(chi=1.0, xi1=0.0, xi2=0.0)
    cfg = SolverConfig(dt=1e-4, t_end=1.0, cfl_safety=1.0)
    assert member_bound(st, p, cfg) == pytest.approx(0.005, rel=1e-12)
    g2 = build_grid(1, 1.0, 200)
    st2 = SimState(0.0, g2, np.ones(200), 2.0 * g2.axis_centers(0), np.zeros(200))
    assert member_bound(st2, p, cfg) == pytest.approx(0.0025, rel=1e-12)


def test_stable_dt_reaction_bound():
    st = constant_state(build_grid(1, 1.0, 64), 2.0)
    p = params(a=1.0, mu=1.0, theta=1.0)
    cfg = SolverConfig(dt=1e-4, t_end=1.0, cfl_safety=1.0)
    assert member_bound(st, p, cfg) == pytest.approx(1.0 / 4.0, rel=1e-12)


# ---------------------------------------------------------------------------
# single steps

def test_constant_state_is_steady():
    g = build_grid(1, 1.0, 64)
    st = constant_state(g, 1.7)
    out = one_step(st, COUPLED, SolverConfig(dt=0.01, t_end=1.0))
    assert np.max(np.abs(out.u - 1.7)) <= 1e-13
    assert np.max(np.abs(out.v - 1.7)) <= 1e-13
    assert np.max(np.abs(out.w)) <= 1e-13


def test_carrying_state_is_fixed_point():
    p = params(a=2.0, mu=0.5, theta=2.0, chi=0.5, xi1=1.0, xi2=1.0)
    b = (p.a / p.mu) ** (1.0 / p.theta)
    g = build_grid(1, 1.0, 64)
    st = constant_state(g, b)
    out = one_step(st, p, SolverConfig(dt=0.01, t_end=1.0))
    assert np.max(np.abs(out.u - b)) <= 1e-10
    assert np.max(np.abs(out.v - b)) <= 1e-10


def test_spatially_constant_logistic_tracks_ode():
    p = params(chi=0.0, xi1=0.0, xi2=0.0, a=1.0, mu=1.0, theta=1.0)
    g = build_grid(1, 1.0, 16)
    dt = 1e-3
    cfg = SolverConfig(dt=dt, t_end=1.0, record_every=1000)
    traj = run(constant_state(g, 2.0), p, cfg)
    assert traj.termination_reason == "completed"
    u1 = float(traj.terminal.u[0])
    assert abs(u1 - LOGISTIC_U1) <= 5.0 * dt
    assert np.max(traj.terminal.u) - np.min(traj.terminal.u) <= 1e-13


def test_step_rejects_unstable_dt():
    g = build_grid(1, 1.0, 64)
    st = make_initial(g, InitialSpec(amplitude=0.3))
    with pytest.raises(StepFailure, match="stability bound") as err:
        one_step(st, COUPLED, SolverConfig(dt=0.9, t_end=1.0))
    assert list(err.value.reasons) == [0]


# ---------------------------------------------------------------------------
# discrete balance laws

def test_exact_mass_conservation_per_step():
    g = build_grid(1, 1.0, 128)
    st = make_initial(g, InitialSpec(profile="random_positive", amplitude=0.4, seed=2))
    cfg = SolverConfig(dt=5e-5, t_end=0.002, record_every=1)
    powers = []
    traj = run(st, COUPLED, cfg, lambda state: powers.append(u_power_integral(state, 1.0)))
    assert traj.termination_reason == "completed"
    m0 = traj.records[0].mass_u
    assert mass_balance_residual(traj.records, powers, COUPLED) <= 1e-13 * m0


def test_exact_logistic_mass_law_per_step():
    p = params(a=1.0, mu=0.5, theta=2.0)
    g = build_grid(1, 1.0, 128)
    st = make_initial(g, InitialSpec(amplitude=0.3))
    cfg = SolverConfig(dt=1e-3, t_end=0.05, record_every=1)
    powers = []
    traj = run(st, p, cfg, lambda state: powers.append(u_power_integral(state, p.theta)))
    assert traj.termination_reason == "completed"
    assert mass_balance_residual(traj.records, powers, p) <= 1e-13 * traj.records[0].mass_u


def test_exact_factor_mass_law_per_step():
    # (1 + dt) int v(k+1) = int v(k) + dt int u(k), from the implicit -v fold
    g = build_grid(2, 1.0, (16, 16))
    st = make_initial(g, InitialSpec(amplitude=0.3, v_amplitude=0.1))
    cfg = SolverConfig(dt=2e-3, t_end=0.05, record_every=1)
    traj = run(st, COUPLED, cfg)
    for r0, r1 in zip(traj.records, traj.records[1:]):
        defect = (1.0 + cfg.dt) * r1.mass_v - r0.mass_v - cfg.dt * r0.mass_u
        assert abs(defect) <= 1e-13


def test_mean_relaxation_identity():
    # vbar(k) - ubar0 = (vbar0 - ubar0) / (1+dt)^k exactly; tracks e^{-t} to O(dt)
    g = build_grid(1, 1.0, 128)
    st = make_initial(g, InitialSpec(
        amplitude=0.2, v_profile="constant", v_base=0.5, v_amplitude=0.0))
    dt = 1e-3
    cfg = SolverConfig(dt=dt, t_end=2.0, record_every=100)
    traj = run(st, COUPLED, cfg)
    ubar0 = traj.records[0].mass_u / g.measure
    vbar0 = traj.records[0].mass_v / g.measure
    for rec in traj.records:
        k = round(rec.t / dt)
        exact_discrete = ubar0 + (vbar0 - ubar0) / (1.0 + dt) ** k
        assert abs(rec.mass_v / g.measure - exact_discrete) <= 1e-11
        continuum = ubar0 + (vbar0 - ubar0) * math.exp(-rec.t)
        assert abs(rec.mass_v / g.measure - continuum) <= 10.0 * dt


def test_upwind_positivity_under_strong_advection():
    g = build_grid(1, 1.0, 128)
    p = params(chi=2.0, xi1=0.5, xi2=0.5)
    st = make_initial(g, InitialSpec(profile="gaussian_bump", base=0.05, amplitude=1.0))
    cfg = SolverConfig(dt=2e-4, t_end=0.5, record_every=50)
    traj = run(st, p, cfg)
    assert traj.termination_reason == "completed"
    assert all(r.min_u > 0.0 for r in traj.records)
    assert all(r.min_v >= 0.0 for r in traj.records)


# ---------------------------------------------------------------------------
# run orchestration

def test_run_records_cadence_and_final_time():
    g = build_grid(1, 1.0, 64)
    st = make_initial(g, InitialSpec(amplitude=0.2))
    cfg = SolverConfig(dt=0.01, t_end=0.25, record_every=5)
    traj = run(st, OFF, cfg)
    assert traj.termination_reason == "completed"
    t = [r.t for r in traj.records]
    assert t[0] == 0.0
    assert t == sorted(t)
    assert traj.terminal.t == pytest.approx(0.25, abs=1e-12)
    assert len(traj.records) == 6  # t = 0, .05, .10, .15, .20, .25


def test_run_flags_unstable_config_as_step_failure():
    g = build_grid(1, 1.0, 64)
    st = make_initial(g, InitialSpec(amplitude=0.3))
    traj = run(st, COUPLED, SolverConfig(dt=0.9, t_end=3.0))
    assert traj.termination_reason == "step_failure"
    assert "stability bound" in traj.failure_detail
    assert len(traj.records) == 1  # the initial record survives


def test_run_detects_blowup_and_keeps_partial_records():
    g = build_grid(1, 1.0, 64)
    p = params(a=2.0, mu=0.0, chi=0.5)
    st = make_initial(g, InitialSpec(amplitude=0.2))
    cfg = SolverConfig(dt=1e-3, t_end=5.0, record_every=100, blowup_threshold=4.0)
    traj = run(st, p, cfg)
    assert traj.termination_reason == "blowup_detected"
    assert "4" in traj.failure_detail
    assert 1 < len(traj.records)
    assert traj.terminal.t < 5.0
    # growth rate 2: threshold 4 from max ~1.2 is reached near t = ln(4/1.2)/2
    assert traj.terminal.t == pytest.approx(math.log(4.0 / 1.2) / 2.0, abs=0.1)


def test_restart_continues_the_clock_and_the_state():
    # split at the record t = 0.04: the second leg starts its clock there
    g = build_grid(1, 1.0, 64)
    st = make_initial(g, InitialSpec(amplitude=0.3))
    cfg = SolverConfig(dt=1e-3, t_end=0.1, record_every=20)
    whole = run(st, COUPLED, cfg)
    first = run(st, COUPLED, replace(cfg, t_end=0.04))
    rest = run(first.terminal, COUPLED, cfg)
    assert whole.termination_reason == rest.termination_reason == "completed"
    for name in "uvw":
        assert getattr(rest.terminal, name).tobytes() == getattr(whole.terminal, name).tobytes()
    joined = first.records + rest.records[1:]
    assert len(joined) == len(whole.records)
    assert np.allclose([r.t for r in joined], [r.t for r in whole.records], rtol=0.0, atol=1e-15)
    # l2_*_dev measure deviation from each leg's own starting mean
    same = [i for i, c in enumerate(TRAJECTORY_COLUMNS) if c not in ("t", "l2_u_dev", "l2_v_dev")]
    values = [np.array([r.csv_values() for r in recs])[:, same] for recs in (joined, whole.records)]
    assert values[0].tobytes() == values[1].tobytes()


@pytest.mark.parametrize("flux_scheme", ["upwind", "central"])
def test_ended_rows_classifies_each_row(flux_scheme):
    g = build_grid(1, 1.0, 8)
    cfg = SolverConfig(dt=1e-3, t_end=1.0, flux_scheme=flux_scheme, blowup_threshold=10.0)
    u, v = np.ones((9, 8)), np.ones((9, 8))
    u[1, 2] = 0.0        # u <= 0
    v[2, 5] = -1e-3      # v < 0
    u[3, 0] = np.nan
    v[4, 7] = np.inf
    u[5, 4] = -np.inf
    u[6, 1] = 11.0       # beyond the threshold, either sign
    u[7, 3] = -11.0
    v[8, 6] = 0.0        # v = 0 is allowed
    ended = _ended_rows(u, v, grid_axes(g), 0.5, cfg)
    lost = {1, 2} if flux_scheme == "upwind" else set()
    assert set(ended) == {3, 4, 5, 6, 7} | lost
    for row, (reason, detail) in ended.items():
        if row in lost:
            assert reason == "step_failure" and "positivity lost at t=0.5" in detail
        else:
            assert reason == "blowup_detected" and "beyond 10 at t=0.5" in detail


def test_stepper_zeroes_the_potential_of_a_non_finite_member():
    g = build_grid(1, 1.0, 32)
    members = [make_initial(g, InitialSpec(profile="random_positive", amplitude=0.3, seed=s))
               for s in (1, 2, 3)]
    u, v, w = (np.concatenate(a) for a in zip(*map(one_member, members)))
    u[1, 5] = np.inf
    cfg = SolverConfig(dt=1e-3, t_end=1.0)
    with np.errstate(invalid="ignore"):
        stepped = Stepper(g, [COUPLED] * 3, cfg).step(0.0, u, v, w)
    assert not np.isfinite(stepped[0][1]).all()
    assert np.all(stepped[2][1] == 0.0)
    for row in (0, 2):
        lone = Stepper(g, [COUPLED], cfg).step(0.0, *one_member(members[row]))
        for a, b in zip(stepped, lone):
            assert a[row].tobytes() == b[0].tobytes()


def test_central_scheme_runs_smooth_problems():
    g = build_grid(1, 1.0, 128)
    st = make_initial(g, InitialSpec(amplitude=0.1))
    cfg = SolverConfig(dt=1e-3, t_end=0.2, flux_scheme="central")
    traj = run(st, COUPLED, cfg)
    assert traj.termination_reason == "completed"


def test_elliptic_consistency_along_trajectory():
    # every recorded state carries w solved against its own u
    g = build_grid(1, 1.0, 128)
    st = make_initial(g, InitialSpec(amplitude=0.3))
    cfg = SolverConfig(dt=1e-3, t_end=0.3, record_every=50)
    traj = run(st, COUPLED, cfg)
    for rec in traj.records:
        assert rec.elliptic_residual <= 1e-10


def test_trajectory_csv_layout(tmp_path):
    g = build_grid(1, 1.0, 64)
    st = make_initial(g, InitialSpec(amplitude=0.2))
    traj = run(st, OFF, SolverConfig(dt=0.01, t_end=0.1, record_every=2))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
    assert len(lines) == 1 + len(traj.records)
    first = dict(zip(TRAJECTORY_COLUMNS, lines[1].split(",")))
    assert float(first["t"]) == 0.0
    assert float(first["mass_u"]) == pytest.approx(traj.records[0].mass_u, rel=1e-16)


# ---------------------------------------------------------------------------
# ensembles: every member gets the trajectory of a run of its own

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def test_ensemble_of_shipped_sweep_matches_standalone_runs():
    spec = parse_sweep(CONFIGS / "sweep_chi_mu.cfg")
    names = [name for name, _ in spec.axes]
    cfgs = [scenario_with_overrides(spec.base_keys, {**dict(zip(names, combo)), "solver.t_end": 0.2})
            for combo in itertools.product(*(vals for _, vals in spec.axes))]
    assert len(cfgs) == 9 and len({c.solver for c in cfgs}) == 1
    initials = [make_initial(c.grid, c.initial, c.solver.elliptic_tolerance) for c in cfgs]
    batch = run_ensemble(initials, [c.params for c in cfgs], cfgs[0].solver)
    for c, initial, traj in zip(cfgs, initials, batch):
        assert traj.termination_reason == "completed"
        assert_same_trajectory(traj, run(initial, c.params, c.solver))


def test_ensemble_isolates_failing_members():
    probe = parse_config(CONFIGS / "blowup_probe.cfg")
    cfg = replace(probe.solver, t_end=1.0)
    params = [probe.params,                           # grows past the threshold
              replace(probe.params, chi=20.0),        # dt above its stability bound
              replace(probe.params, a=1.0, mu=1.0)]   # calm logistic member
    initial = make_initial(probe.grid, probe.initial)
    batch = run_ensemble([initial] * 3, params, cfg)
    assert [t.termination_reason for t in batch] == \
        ["blowup_detected", "step_failure", "completed"]
    assert "stability bound" in batch[1].failure_detail
    for p, traj in zip(params, batch):
        assert_same_trajectory(traj, run(initial, p, cfg))


def test_stepper_names_only_the_member_that_misses_the_potential_gate():
    g = build_grid(1, 1.0, 128)
    members = [make_initial(g, InitialSpec(profile="random_positive", amplitude=0.4, seed=s))
               for s in (1, 2)]
    batch = tuple(np.concatenate(a) for a in zip(*map(one_member, members)))
    cfg = SolverConfig(dt=2e-5, t_end=1.0)
    u1, _v1, _w1 = Stepper(g, [COUPLED] * 2, cfg).step(0.0, *batch)
    residuals = [solve_neumann_poisson(g, u - u.mean(), 1e-10)[1] for u in u1]
    lo, hi = np.argsort(residuals)
    tol = 0.5 * (residuals[lo] + residuals[hi])
    assert residuals[lo] < tol < residuals[hi]
    tight = replace(cfg, elliptic_tolerance=tol)
    with pytest.raises(StepFailure) as err:
        Stepper(g, [COUPLED] * 2, tight).step(0.0, *batch)
    assert list(err.value.reasons) == [hi]
    assert "missed tolerance" in err.value.reasons[hi]


def test_make_initial_run_and_run_ensemble_build_no_field(monkeypatch):
    built = []
    field_init = Field.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        field_init(self, *args, **kwargs)

    monkeypatch.setattr(Field, "__init__", counting_init)
    g = build_grid(1, 1.0, 32)
    initials = [make_initial(g, InitialSpec(amplitude=a)) for a in (0.1, 0.2)]
    members = [COUPLED, params(a=1.0, mu=1.0)]
    cfg = SolverConfig(dt=1e-3, t_end=0.02, record_every=5)  # records at steps 0, 5, ..., 20
    plain = run_ensemble(initials, members, cfg)
    seen = []
    hooked = run_ensemble(initials, members, cfg, lambda b, state: seen.append((b, state)))
    alone = run(initials[0], members[0], cfg, lambda state: None)
    assert built == []
    monkeypatch.undo()

    assert_same_trajectory(alone, plain[0])
    assert [b for b, _ in seen] == [0, 1] * 5
    for b, (p, traj) in enumerate(zip(members, hooked)):
        assert_same_trajectory(traj, plain[b])
        states = [state for who, state in seen if who == b]
        assert states[0] is initials[b] and states[-1] is traj.terminal
        u0_mean = float(initials[b].u.mean())
        for state, rec in zip(states, traj.records, strict=True):
            assert state.t == rec.t
            again = diagnostics_record(state, p, u0_mean)
            assert np.array(again.csv_values()).tobytes() == np.array(rec.csv_values()).tobytes()


@pytest.mark.parametrize("dim, cells", [(1, 16), (2, (6, 10))])
def test_sim_state_holds_read_only_arrays_shaped_like_the_grid(dim, cells):
    g = build_grid(dim, 1.0, cells)
    flat = np.ones(g.n_cells)
    u = flat.reshape(g.cells)
    st = SimState(0.5, g, u, 2 * u, np.zeros(g.cells))
    for name in "uvw":
        arr = getattr(st, name)
        assert arr.shape == g.cells and arr.dtype == np.float64
        with pytest.raises(ValueError):
            arr[(0,) * dim] = 3.0
    u[(0,) * dim] = 5.0  # the state holds copies
    assert st.u[(0,) * dim] == 1.0
    terminal = run(st, COUPLED, SolverConfig(dt=1e-3, t_end=0.002)).terminal
    assert not terminal.u.flags.writeable and terminal.u.shape == g.cells


def test_sim_state_rejects_a_wrongly_shaped_array():
    g = build_grid(2, 1.0, (6, 10))
    good = np.ones(g.cells)
    for bad in (np.ones(g.n_cells), np.ones((10, 6)), np.ones((1, 6, 10))):
        with pytest.raises(ValueError, match="shape"):
            SimState(0.0, g, good, good, bad)
    with pytest.raises(ValueError, match="shape"):
        SimState(0.0, build_grid(1, 1.0, 8), np.ones(7), np.ones(8), np.ones(8))


def separate_diffusions_step(stepper, u, v, w):
    """A step with the u and v diffusions as two transform pairs and the face
    slices indexed per call."""
    cfg, g = stepper.cfg, stepper.grid
    a_u, a_v = _face_speeds(g, v, w, *stepper._cols[:3])

    def advect(c, speeds):
        fluxes = []
        for k, a in enumerate(speeds):
            lo, hi = [slice(None)] * c.ndim, [slice(None)] * c.ndim
            lo[1 + k], hi[1 + k] = slice(0, -1), slice(1, None)
            c_lo, c_hi = c[tuple(lo)], c[tuple(hi)]
            if cfg.flux_scheme == "upwind":
                face = np.where(a > 0.0, c_lo, c_hi)
            else:
                face = 0.5 * (c_lo + c_hi)
            fluxes.append(a * face)
        return divergence_arrays(fluxes, g.spacing, c.shape)

    lam = neumann_eigenvalues(g)
    d = np.array([p.d for p in stepper.params]).reshape((-1,) + (1,) * g.dim)
    u_star = u - cfg.dt * advect(u, a_u) + cfg.dt * stepper._reaction(u)
    v_star = v - cfg.dt * advect(v, a_v) + cfg.dt * u
    u_new = apply_packed(u_star, pack_multiplier(1.0 / (1.0 + cfg.dt * lam), g.dim))
    v_new = apply_packed(v_star, pack_multiplier(1.0 / (1.0 + cfg.dt + cfg.dt * d * lam), g.dim))
    return u_new, v_new, stepper._potential(u_new, v_new)


@pytest.mark.parametrize("flux_scheme", ["upwind", "central"])
@pytest.mark.parametrize("dim, cells, n_members", [(1, 128, 9), (2, (12, 20), 3)])
def test_stacked_diffusion_step_matches_separate_transforms(flux_scheme, dim, cells, n_members):
    g = build_grid(dim, (1.0, 1.5)[:dim], cells)
    kinds = [dict(), dict(a=1.0, mu=1.0), dict(a=1.0, mu=0.5, theta=2.0)]
    members = [params(chi=0.25 * (1 + j % 4), d=0.5 + 0.5 * j, n_dim=dim, **kinds[j % 3])
               for j in range(n_members)]
    initials = [make_initial(g, InitialSpec(profile="random_positive", amplitude=0.3, seed=j))
                for j in range(n_members)]
    batch = tuple(np.stack([getattr(s, name) for s in initials]) for name in "uvw")
    stepper = Stepper(g, members, SolverConfig(dt=2e-5, t_end=1.0, flux_scheme=flux_scheme))
    for rows in (range(n_members), [n_members - 1, 0]):  # all members, then after keep
        if len(rows) < n_members:
            stepper.keep(rows)
            batch = tuple(a[rows] for a in batch)
        expected = separate_diffusions_step(stepper, *batch)
        stepped = stepper.step(0.0, *batch)
        for got, want in zip(stepped, expected):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def mixed_batch(dim, cells, n_members):
    """A grid, n_members members (growth-free, theta = 1 and theta = 2 in turn,
    with their own chi and d) and their random initial states as a batch."""
    g = build_grid(dim, (1.0, 1.5)[:dim], cells)
    kinds = [dict(), dict(a=1.0, mu=1.0), dict(a=1.0, mu=0.5, theta=2.0)]
    if n_members == 1:
        members = [params(chi=0.75, d=2.0, n_dim=dim, a=1.0, mu=1.5, theta=1.5)]
    else:
        members = [params(chi=0.25 * (1 + j % 4), d=0.5 + 0.5 * j, n_dim=dim, **kinds[j % 3])
                   for j in range(n_members)]
    initials = [make_initial(g, InitialSpec(profile="random_positive", amplitude=0.3, seed=j))
                for j in range(n_members)]
    return g, members, tuple(np.stack([getattr(s, name) for s in initials]) for name in "uvw")


@pytest.mark.parametrize("flux_scheme", ["upwind", "central"])
@pytest.mark.parametrize("n_members", [1, 9])
@pytest.mark.parametrize("dim, cells", [(1, 128), (2, (16, 16)), (2, (16, 24))])
def test_step_transport_matches_the_allocating_oracle(flux_scheme, n_members, dim, cells):
    # on 16 x 24 the two axes' face arrays differ in shape
    g, members, batch = mixed_batch(dim, cells, n_members)
    cfg = SolverConfig(dt=2e-5, t_end=1.0, flux_scheme=flux_scheme)
    stepper = Stepper(g, members, cfg)
    kept = list(range(n_members))
    for k in range(4):
        if k == 2 and n_members > 1:  # the batch shrinks, and with it the work arrays
            rows = [n_members - 1, 3, 0]
            stepper.keep(rows)
            kept = [kept[r] for r in rows]
            batch = tuple(a[rows] for a in batch)
        now = [members[b] for b in kept]
        want = oracles.allocating_transport(g, now, cfg, *batch)
        stepped = stepper.step(0.0, *batch)
        for got, expected in zip(stepped[:2], want):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        # the parts whose last bits a step of 2e-5 hides, written into the step's
        # own work arrays: the face speeds and the reaction
        buf = stepper._work(batch[0].shape)
        speeds = _face_speeds(g, *batch[1:], *stepper._cols[:3], out=(*buf.speeds, buf.face))
        want = oracles.face_speeds(g, now, *batch[1:])
        assert [[a.tobytes() for a in species] for species in speeds] == \
            [[a.tobytes() for a in species] for species in want]
        if any(p.a or p.mu for p in now):
            react = stepper._reaction(batch[0], out=buf.stacked[len(now):])
            assert react.tobytes() == oracles.reaction(now, batch[0]).tobytes()
        batch = stepped


def step_buffers(stepper):
    """Every work array the stepper and this thread's 2D transform pair hold."""
    arrays = list(getattr(elliptic._local, "buffers", ()))
    for value in vars(stepper._buffers).values():
        if isinstance(value, list):
            arrays += [a for item in value for a in (item if isinstance(item, list) else [item])]
        elif isinstance(value, np.ndarray):
            arrays.append(value)
    return arrays


@pytest.mark.parametrize("dim, cells, n_members", [(1, 64, 1), (1, 64, 9), (2, (16, 24), 1),
                                                   (2, (16, 24), 3)])
def test_step_gates_the_residual_of_fresh_outputs(monkeypatch, dim, cells, n_members):
    gated = []

    def recording_solve(*args, **kwargs):
        out = solve_neumann_poisson(*args, **kwargs)
        gated.append(out[1])
        return out

    monkeypatch.setattr(dynamics, "solve_neumann_poisson", recording_solve)
    g, members, batch = mixed_batch(dim, cells, n_members)
    stepper = Stepper(g, members, SolverConfig(dt=2e-5, t_end=1.0))
    for k in range(3):
        stepped = stepper.step(0.0, *batch)
        u, _v, w = stepped
        # the one centring the gate uses is elliptic_residual's own
        assert gated[-1] == max(elliptic_residual(u[b], w[b], g) for b in range(n_members))
        for out in stepped:
            assert out.flags.c_contiguous
            for other in step_buffers(stepper) + list(batch):
                assert not np.shares_memory(out, other)
        batch = stepped


def test_a_2d_step_allocates_only_the_arrays_it_returns():
    g = build_grid(2, 1.0, (256, 256))
    initial = make_initial(g, InitialSpec(profile="random_positive", amplitude=0.1))
    stepper = Stepper(g, [params(a=1.0, mu=1.0, n_dim=2)], SolverConfig(dt=1e-5, t_end=1.0))
    batch = stepper.step(0.0, *one_member(initial))  # builds the work arrays
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stepped = stepper.step(0.0, *batch)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in stepped)  # three half-megabyte arrays
    # slack of two such arrays for numpy's own temporaries; a step that builds
    # its intermediates afresh peaks about eight arrays higher
    assert peak <= returned + 2 * batch[0].nbytes
