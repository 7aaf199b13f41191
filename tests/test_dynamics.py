import itertools
import math
import pathlib
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angiosim import dynamics, elliptic, harness, pcg64
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
    _speed_views,
    growth_columns,
    make_initial,
    run,
    run_ensemble,
    stable_dt,
)
from angiosim.elliptic import (
    apply_packed,
    elliptic_residual,
    neumann_eigenvalues,
    pack_multiplier,
    solve_neumann_poisson,
)
from angiosim.functionals import (
    TRAJECTORY_COLUMNS,
    diagnostics_batch,
    diagnostics_record,
    row_extrema,
)
from angiosim.grid import (
    Field,
    build_grid,
    divergence_arrays,
    face_strides,
    laplacian_array,
    laplacian_views,
    padded_faces,
)
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
    """stable_dt of a one-member batch holding state, its face speeds written
    into views built the way a stepper's _Buffers builds them."""
    g = state.grid
    u, v, w = one_member(state)
    col = (1,) + (1,) * g.dim
    shape = (2,) + g.cells
    out = (_speed_views(padded_faces(shape, g.dim), shape, g.dim), np.empty(v.shape))
    speeds = _face_speeds(g, v, w, *(np.full(col, c) for c in (p.chi, p.xi1, -p.xi2)), out=out)
    bound = stable_dt(g, u.max(axis=g.axes), speeds, growth_columns([p]), cfg)
    assert bound.shape == (1,)
    return bound[0]


def stacked(states):
    """The (uv, w) state of a batch of the given SimStates, as Stepper steps it:
    u's rows, then v's, in one array."""
    return np.stack([s.u for s in states] + [s.v for s in states]), np.stack([s.w for s in states])


def kept(uv, w, rows):
    """The (uv, w) state of the given batch rows, in that order."""
    n = len(w)
    return uv[list(rows) + [n + r for r in rows]], w[rows]


def member(uv, w, row):
    """Member row's (u, v, w) in a (uv, w) state."""
    return uv[row], uv[len(w) + row], w[row]


def one_step(state, p, cfg):
    """One Stepper step of state as a batch of one."""
    g = state.grid
    uv, w = Stepper(g, [p], cfg).step(state.t, *stacked([state]))
    return SimState(state.t + cfg.dt, g, *member(uv, w, 0))


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
    with pytest.raises(ValueError, match="d must be > 0, got 0.0"):
        params(d=0.0)
    with pytest.raises(ValueError, match="theta"):
        params(theta=0.0)
    with pytest.raises(ValueError, match="mu"):
        params(mu=-1.0)
    with pytest.raises(ValueError, match="n_dim must be a positive integer"):
        params(n_dim=0)
    # theta in (0, 1) is a legal model, only some threshold formulas need >= 1
    assert params(theta=0.5).theta == 0.5


def test_off_regime_flag():
    assert params(xi1=0.0).off_regime
    assert params(xi2=0.0).off_regime
    assert not params().off_regime


# each growth regime's row of GROWTH: deviation target of a member whose u has
# initial mean 0.75 ("b": its carrying state), functional, whether u reacts,
# whether the mass ceiling holds, whether an exponential rate is claimed
GROWTH_ROWS = {
    "growth-free": (0.75, "F1", False, True, True),
    "logistic": ("b", "F2", True, True, True),
    "damping-only": (0.0, None, True, True, False),
    "growing": (0.75, None, True, False, True),
}


@pytest.mark.parametrize("a, mu, regime", [
    pytest.param(a, mu, regime, id=f"{a}-{mu}") for a, mu, regime in [
        (0.0, 0.0, "growth-free"), (0.0, 2.0, "damping-only"), (8.0, 0.0, "growing"),
        (8.0, 2.0, "logistic"), (-0.0, 0.0, "growth-free"), (1e-300, 0.0, "growing"),
        (0.0, 1e-300, "damping-only"), (1e-300, 1e-300, "logistic")]])
def test_growth_regime_of_each_sign_pattern(a, mu, regime):
    p = params(a=a, mu=mu, theta=2.0)
    target, *row = GROWTH_ROWS[regime]
    assert p.growth.name == regime
    assert [p.growth.functional, p.growth.reacts, p.growth.mass_ceiling,
            p.growth.claims_rate] == row
    if regime == "logistic":
        assert p.carrying_state == math.sqrt(a / mu)  # 2 or 1
        target = p.carrying_state
    else:
        assert math.isnan(p.carrying_state)
    assert p.growth.target(p, 0.75) == target


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


def test_each_initial_profile_builds_its_own_values():
    # the Gaussian bump is the last branch of the profile builder, so a name that
    # no branch before it takes would build a Gaussian bump: each name must give
    # its own values, and only random_positive may draw
    g = build_grid(2, 1.0, (8, 6))
    values = set()
    for name in dynamics.INITIAL_PROFILES:
        draws = []

        def rng():
            draws.append(name)
            return np.random.default_rng(0)

        values.add(dynamics._profile_values(g, name, 1.0, 0.3, rng).tobytes())
        assert bool(draws) == (name == "random_positive"), name
    assert len(values) == len(dynamics.INITIAL_PROFILES)


@pytest.mark.parametrize("profile", ["cosine_bump", "gaussian_bump"])
@pytest.mark.parametrize("dim, lengths, cells", [(1, 1.0, 33), (1, 2.5, 64),
                                                 (2, (1.0, 0.75), (32, 24)),
                                                 (2, (2.0, 1.3), (17, 9)), (2, 0.5, (8, 7))])
def test_a_bump_has_the_bits_of_its_coordinate_grid_formula(profile, dim, lengths, cells):
    # the bumps are built from one factor per axis, broadcast against each other;
    # each cell keeps the bits it had on the full coordinate grids, with odd and
    # even cell counts, in 1D and on non-square 2D grids
    g = build_grid(dim, lengths, cells)
    for base, amp in ((1.0, 0.2), (0.3, 0.25), (2.0, -0.7)):
        got = dynamics._profile_values(g, profile, base, amp, None)
        want = oracles.bump_profile(g, profile, base, amp)
        assert got.shape == g.cells and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def test_make_initial_builds_each_grid_array_once():
    # a 256^2 cosine state is three 0.52 MB arrays, and the potential solve's
    # work array is 1.6 MB: the bumps take no coordinate grids, and the state
    # holds the arrays make_initial built rather than copies of them
    g = build_grid(2, 1.0, (256, 256))
    spec = InitialSpec(profile="cosine_bump", amplitude=0.2)
    make_initial(g, spec)  # builds the plan caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        state = make_initial(g, spec)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert all(not a.flags.writeable and a.base is None for a in (state.u, state.v, state.w))
    assert peak <= 3.35e6


@pytest.mark.parametrize("u_profile, v_profile", [("random_positive", "random_positive"),
                                                   ("cosine_bump", "random_positive"),
                                                   ("random_positive", "cosine_bump")])
def test_make_initial_draws_u_then_v_from_one_generator(u_profile, v_profile):
    # the generator is built on the first draw, and the stream stays the one
    # numpy's Generator built up front gives: u's draw first, then v's
    g = build_grid(2, 1.0, (8, 6))
    spec = InitialSpec(profile=u_profile, v_profile=v_profile, base=1.0, amplitude=0.3,
                       v_base=2.0, v_amplitude=0.5, seed=7)
    st = make_initial(g, spec)
    cosine = make_initial(g, replace(spec, profile="cosine_bump", v_profile="cosine_bump"))
    rng = np.random.default_rng(7)
    if u_profile == "random_positive":
        want_u = (1.0 + 0.3 * rng.uniform(-1.0, 1.0, size=g.n_cells)).reshape(g.cells)
    else:
        want_u = cosine.u
    if v_profile == "random_positive":
        want_v = (2.0 + 0.5 * rng.uniform(-1.0, 1.0, size=g.n_cells)).reshape(g.cells)
    else:
        want_v = cosine.v
    assert st.u.tobytes() == want_u.tobytes()
    assert st.v.tobytes() == want_v.tobytes()


@pytest.mark.parametrize("cells", [4096, 16384])
def test_initial_solve_passes_on_fine_1d_grids(cells):
    # the relative residual of an exact solve grows with the Laplacian's
    # condition number past 1e-10 (5.8e-10 and 1.1e-8 here); its backward
    # error stays near eps, under the gate's floor
    g = build_grid(1, 1.0, cells)
    st = make_initial(g, InitialSpec(amplitude=0.2))
    assert elliptic_residual(st.u, st.w, g) > 1e-10


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
    u, v = np.ones((10, 8)), np.ones((10, 8))
    u[1, 2] = 0.0        # u <= 0
    v[2, 5] = -1e-3      # v < 0
    u[3, 0] = np.nan
    v[4, 7] = np.inf
    u[5, 4] = -np.inf
    u[6, 1] = 11.0       # beyond the threshold, either sign
    u[7, 3] = -11.0
    v[8, 6] = 0.0        # v = 0 is allowed
    u[9, 0], v[9, 7] = -2e-3, -5e-4  # both
    ended = _ended_rows(row_extrema(np.concatenate([u, v]), g.dim), 0.5, cfg)
    # the detail names each species that lost positivity, with its minimum
    lost = {1: "min u 0.000e+00", 2: "min v -1.000e-03",
            9: "min u -2.000e-03, min v -5.000e-04"} if flux_scheme == "upwind" else {}
    assert set(ended) == {3, 4, 5, 6, 7} | set(lost)
    for row, (reason, detail) in ended.items():
        if row in lost:
            assert (reason, detail) == ("step_failure", f"positivity lost at t=0.5 ({lost[row]})")
        elif row in (3, 4, 5):  # nan or inf, also in v beside a small u (row 4)
            assert (reason, detail) == ("blowup_detected", "non-finite u or v at t=0.5")
        else:
            assert (reason, detail) == ("blowup_detected", "||u||_inf beyond 10 at t=0.5")


def test_stepper_zeroes_the_potential_of_a_non_finite_member():
    g = build_grid(1, 1.0, 32)
    members = [make_initial(g, InitialSpec(profile="random_positive", amplitude=0.3, seed=s))
               for s in (1, 2, 3)]
    uv, w = stacked(members)
    uv[1, 5] = np.inf
    cfg = SolverConfig(dt=1e-3, t_end=1.0)
    with np.errstate(invalid="ignore"):
        stepped = Stepper(g, [COUPLED] * 3, cfg).step(0.0, uv, w)
    assert not np.isfinite(member(*stepped, 1)[0]).all()
    assert np.all(member(*stepped, 1)[2] == 0.0)
    for row in (0, 2):
        lone = Stepper(g, [COUPLED], cfg).step(0.0, *stacked([members[row]]))
        for a, b in zip(member(*stepped, row), member(*lone, 0)):
            assert a.tobytes() == b.tobytes()


def test_potential_zeroes_a_member_whose_v_alone_is_non_finite():
    # a step cannot make v alone non-finite (0 * inf face speeds turn u nan too),
    # so _potential gets a crafted state: member 1's v holds an inf, its u stays finite
    g = build_grid(1, 1.0, 32)
    members = [make_initial(g, InitialSpec(profile="random_positive", amplitude=0.3, seed=s))
               for s in (1, 2, 3)]
    uv, _w = stacked(members)
    uv[3 + 1, 5] = np.inf
    cfg = SolverConfig(dt=1e-3, t_end=1.0)
    w = Stepper(g, [COUPLED] * 3, cfg)._potential(0.0, uv, row_extrema(uv, g.dim))
    assert np.isfinite(uv[1]).all() and np.ptp(uv[1]) > 0.0  # its own w would not be 0
    assert np.all(w[1] == 0.0)
    for row in (0, 2):
        alone = solve_neumann_poisson(g, uv[row], cfg.elliptic_tolerance)[0]
        assert w[row].tobytes() == alone.tobytes()


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
    # trajectory.csv as run_scenario writes it, against a run of the same state
    path = tmp_path / "off.cfg"
    path.write_text("preset = custom\ngrid.cells = 64\nparams.chi = 0.0\nparams.xi1 = 0.0\n"
                    "params.xi2 = 0.0\ninit.amplitude = 0.2\nsolver.dt = 0.01\n"
                    "solver.t_end = 0.1\nsolver.record_every = 2\n")
    cfg = parse_config(str(path), {"out": str(tmp_path / "res")})
    assert cfg.params == OFF
    assert harness.run_scenario(cfg, quiet=True) == 0
    st = make_initial(cfg.grid, cfg.initial, cfg.solver.elliptic_tolerance)
    traj = run(st, OFF, cfg.solver)
    lines = (tmp_path / "res" / "trajectory.csv").read_text().splitlines()
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


def test_run_ensemble_rejects_members_on_other_grids_or_start_times():
    g = build_grid(1, 1.0, 32)
    first = make_initial(g, InitialSpec())
    for other in (make_initial(build_grid(1, 1.0, 64), InitialSpec()), replace(first, t=1.0)):
        with pytest.raises(ValueError, match="must share a grid and a start time"):
            run_ensemble([first, other], [COUPLED] * 2, SolverConfig(dt=0.001, t_end=0.01))


def test_ensemble_isolates_failing_members():
    # every step is recorded, the steps where members leave too
    probe = parse_config(CONFIGS / "blowup_probe.cfg")
    cfg = replace(probe.solver, t_end=1.0, record_every=1)
    params = [probe.params,                           # grows past the threshold
              replace(probe.params, chi=20.0),        # dt above its stability bound
              replace(probe.params, a=1.0, mu=1.0),   # calm logistic member
              replace(probe.params, d=4.0)]           # misses the potential gate mid-run
    initial = make_initial(probe.grid, probe.initial)
    # the gate's tolerance between the other members' largest residual and the
    # last one's, whose first step passes
    every = [run(initial, p, cfg).records[1:] for p in params]
    others = max(r.elliptic_residual for records in every[:3] for r in records)
    last = [r.elliptic_residual for r in every[3]]
    cfg = replace(cfg, elliptic_tolerance=0.5 * (others + max(last)))
    assert last[0] < cfg.elliptic_tolerance < max(last)
    batch = run_ensemble([initial] * 4, params, cfg)
    assert [t.termination_reason for t in batch] == \
        ["blowup_detected", "step_failure", "completed", "step_failure"]
    assert "stability bound" in batch[1].failure_detail
    assert batch[3].failure_detail.startswith("potential solve missed tolerance")
    for p, traj in zip(params, batch):
        assert_same_trajectory(traj, run(initial, p, cfg))


def test_stepper_names_only_the_member_that_misses_the_potential_gate():
    g = build_grid(1, 1.0, 128)
    members = [make_initial(g, InitialSpec(profile="random_positive", amplitude=0.4, seed=s))
               for s in (1, 2)]
    batch = stacked(members)
    cfg = SolverConfig(dt=2e-5, t_end=1.0)
    uv1, _w1 = Stepper(g, [COUPLED] * 2, cfg).step(0.0, *batch)
    residuals = [solve_neumann_poisson(g, u - u.mean(), 1e-10)[1] for u in uv1[:2]]
    lo, hi = np.argsort(residuals)
    tol = 0.5 * (residuals[lo] + residuals[hi])
    assert residuals[lo] < tol < residuals[hi]
    tight = replace(cfg, elliptic_tolerance=tol)
    with pytest.raises(StepFailure) as err:
        Stepper(g, [COUPLED] * 2, tight).step(0.25, *batch)  # t enters only the reasons
    assert list(err.value.reasons) == [hi]
    assert err.value.reasons[hi].startswith("potential solve missed tolerance")
    assert err.value.reasons[hi].endswith(" at t=0.25")


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


def separate_diffusions_step(stepper, uv, w):
    """A step with the u and v diffusions as two transform pairs and the face
    slices indexed per call."""
    cfg, g = stepper.cfg, stepper.grid
    n = len(w)
    u, v = uv[:n], uv[n:]
    speeds = oracles.stacked_face_speeds(g, v, w, *stepper._couplings)
    a_u, a_v = [a[:n] for a in speeds], [a[n:] for a in speeds]

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
        return oracles.divergence_arrays(fluxes, g.spacing, c.shape)

    lam = neumann_eigenvalues(g)
    d = np.array([p.d for p in stepper.params]).reshape((-1,) + (1,) * g.dim)
    u_star = u - cfg.dt * advect(u, a_u) + stepper._reaction(u, cfg.dt, np.empty_like(u))
    v_star = v - cfg.dt * advect(v, a_v) + cfg.dt * u
    u_new = apply_packed(u_star, pack_multiplier(1.0 / (1.0 + cfg.dt * lam), g.dim))
    v_new = apply_packed(v_star, pack_multiplier(1.0 / (1.0 + cfg.dt + cfg.dt * d * lam), g.dim))
    uv_new = np.concatenate([u_new, v_new])
    return uv_new, stepper._potential(0.0, uv_new, row_extrema(uv_new, g.dim))


@pytest.mark.parametrize("flux_scheme", ["upwind", "central"])
@pytest.mark.parametrize("dim, cells, n_members", [(1, 128, 9), (2, (12, 20), 3)])
def test_stacked_diffusion_step_matches_separate_transforms(flux_scheme, dim, cells, n_members):
    g = build_grid(dim, (1.0, 1.5)[:dim], cells)
    kinds = [dict(), dict(a=1.0, mu=1.0), dict(a=1.0, mu=0.5, theta=2.0)]
    members = [params(chi=0.25 * (1 + j % 4), d=0.5 + 0.5 * j, n_dim=dim, **kinds[j % 3])
               for j in range(n_members)]
    initials = [make_initial(g, InitialSpec(profile="random_positive", amplitude=0.3, seed=j))
                for j in range(n_members)]
    cfg = SolverConfig(dt=2e-5, t_end=1.0, flux_scheme=flux_scheme)
    for rows in (range(n_members), [n_members - 1, 0]):  # all members, then two
        stepper = Stepper(g, [members[r] for r in rows], cfg)
        batch = kept(*stacked(initials), rows)
        expected = separate_diffusions_step(stepper, *batch)
        stepped = stepper.step(0.0, *batch)
        for got, want in zip(stepped, expected):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def mixed_batch(dim, cells, n_members):
    """A grid, n_members members (growth-free, theta = 1 and theta = 2 in turn,
    with their own chi and d) and their random initial states as a (uv, w) batch."""
    g = build_grid(dim, (1.0, 1.5)[:dim], cells)
    kinds = [dict(), dict(a=1.0, mu=1.0), dict(a=1.0, mu=0.5, theta=2.0)]
    if n_members == 1:
        members = [params(chi=0.75, d=2.0, n_dim=dim, a=1.0, mu=1.5, theta=1.5)]
    else:
        members = [params(chi=0.25 * (1 + j % 4), d=0.5 + 0.5 * j, n_dim=dim, **kinds[j % 3])
                   for j in range(n_members)]
    initials = [make_initial(g, InitialSpec(profile="random_positive", amplitude=0.3, seed=j))
                for j in range(n_members)]
    return g, members, stacked(initials)


@pytest.mark.parametrize("flux_scheme", ["upwind", "central"])
@pytest.mark.parametrize("n_members", [1, 9])
@pytest.mark.parametrize("dim, cells", [(1, 128), (2, (16, 16)), (2, (16, 24))])
def test_step_transport_matches_the_allocating_oracle(flux_scheme, n_members, dim, cells):
    # on 16 x 24 the two axes' face arrays differ in shape
    g, members, batch = mixed_batch(dim, cells, n_members)
    cfg = SolverConfig(dt=2e-5, t_end=1.0, flux_scheme=flux_scheme)
    stepper = Stepper(g, members, cfg)
    held = list(range(n_members))
    for k in range(4):
        if k == 2 and n_members > 1:  # members leave: a stepper for the rest
            rows = [n_members - 1, 3, 0]
            held = [held[r] for r in rows]
            stepper = Stepper(g, [members[b] for b in held], cfg)
            batch = kept(*batch, rows)
        now = [members[b] for b in held]
        uv, w = batch
        n = len(w)
        want = oracles.allocating_transport(g, now, cfg, uv[:n], uv[n:], w)
        stepped = stepper.step(0.0, *batch)
        assert stepped[0].shape == uv.shape
        assert stepped[0].tobytes() == np.concatenate(want).tobytes()
        # the parts whose last bits a step of 2e-5 hides, written where the step
        # writes them: the face speeds into its padded work arrays, compared on
        # their interior faces, and the reaction into the start of the flat array
        buf = stepper._buffers
        _face_speeds(g, uv[n:], w, *stepper._couplings, out=(buf.speed_views, np.empty(w.shape)))
        want = oracles.face_speeds(g, now, uv[n:], w)
        assert [oracles.interior(a, uv.shape, g.dim, k).tobytes()
                for k, a in enumerate(buf.speeds)] == \
            [np.concatenate([a_u, a_v]).tobytes() for a_u, a_v in zip(*want)]
        # one theta for every row (n_members = 1), by group otherwise, and a batch
        # without growth, which adds the float 0.0
        react = stepper._reaction(uv[:n], cfg.dt, buf.scratch)
        assert react.tobytes() == (cfg.dt * oracles.reaction(now, uv[:n])).tobytes()
        growth_free = Stepper(g, [replace(p, a=0.0, mu=0.0) for p in now], cfg)
        react = growth_free._reaction(uv[:n], cfg.dt, buf.scratch)
        assert type(react) is float and react == 0.0 and math.copysign(1.0, react) == 1.0
        batch = stepped


def step_buffers(stepper):
    """Every work array the stepper holds (_Buffers), its transform pairs' buffers
    included."""
    arrays = []

    def collect(value):
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                collect(item)

    collect(list(vars(stepper._buffers).values()))
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
        uv, w = stepped
        # the one centring the gate uses is elliptic_residual's own, and the
        # residuals the stepper hands on are the gate's
        residuals = [elliptic_residual(uv[b], w[b], g) for b in range(n_members)]
        assert gated[-1] == max(residuals)
        assert stepper.residuals.tolist() == residuals
        for out in stepped:
            assert out.flags.c_contiguous
            for other in step_buffers(stepper) + list(batch):
                assert not np.shares_memory(out, other)
        batch = stepped


@pytest.mark.parametrize("dim, cells, n_members", [(1, 64, 1), (1, 65, 3), (2, (16, 24), 1),
                                                   (2, (15, 9), 3), (2, (33, 4), 1)])
def test_a_step_runs_its_transforms_in_idle_work_arrays(monkeypatch, dim, cells, n_members):
    # each transform pair of a step works in buffers carved out of the stepper's
    # flat work array that share no memory with its input or output, nor with
    # each other but for the spectrum's float view and the q term in the
    # reordered input's memory, and a step reads no work array before writing
    # it: filled with NaN before each step, they change no output byte; on 33 x 4
    # the q term outgrows the reordered input whose memory it shares
    pairs = []
    running = []

    def checked_apply(vals, packed, out=None, buffers=None):
        result = apply_packed(vals, packed, out, buffers)
        assert buffers is not None
        for buf in buffers:
            assert buf.size == 0 or np.shares_memory(buf, running[-1]._buffers.flat)  # 1D: no q term
            assert not np.shares_memory(buf, vals) and not np.shares_memory(buf, result)
        v, z, zf, t = buffers
        for spectrum in (z, zf):
            assert not np.shares_memory(spectrum, v) and not np.shares_memory(spectrum, t)
        assert t.size == 0 or np.shares_memory(t, v)
        pairs.append(len(vals))
        return result

    g, members, batch = mixed_batch(dim, cells, n_members)
    monkeypatch.setattr(dynamics, "apply_packed", checked_apply)
    monkeypatch.setattr(elliptic, "apply_packed", checked_apply)
    cfg = SolverConfig(dt=2e-5, t_end=1.0)
    plain, poisoned = Stepper(g, members, cfg), Stepper(g, members, cfg)
    for k in range(3):
        if k == 2 and n_members > 1:  # members leave: steppers for the two left
            rest = [members[2], members[0]]
            plain, poisoned = Stepper(g, rest, cfg), Stepper(g, rest, cfg)
            batch = kept(*batch, [2, 0])
        for a in step_buffers(poisoned):
            a[...] = True if a.dtype == bool else np.nan
        pairs.clear()
        running.append(plain)
        want = plain.step(0.0, *batch)
        running.append(poisoned)
        got = poisoned.step(0.0, *batch)
        n = len(batch[1])
        assert pairs == [2 * n, n] * 2  # each stepper's stacked diffusion, then potential
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        batch = got


def test_a_2d_step_allocates_only_the_arrays_it_returns():
    g = build_grid(2, 1.0, (256, 256))
    initial = make_initial(g, InitialSpec(profile="random_positive", amplitude=0.1))
    stepper = Stepper(g, [params(a=1.0, mu=1.0, n_dim=2)], SolverConfig(dt=1e-5, t_end=1.0))
    batch = stepper.step(0.0, *stacked([initial]))  # warms the FFT plan and potential caches
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
    assert peak <= returned + 2 * batch[1].nbytes


def test_a_2d_stepper_holds_only_its_multipliers_and_work_arrays():
    # at 256^2 u's and v's packed multipliers are 1.06 MB, half their rows, the
    # flat work array 2.11 MB and the upwind signs 0.13 MB, and the stepper holds
    # no other grid-sized array
    g = build_grid(2, 1.0, (256, 256))
    members = [params(a=1.0, mu=1.0, n_dim=2)]
    Stepper(g, members, SolverConfig(dt=1e-5, t_end=1.0))  # warms the plan caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stepper = Stepper(g, members, SolverConfig(dt=1e-5, t_end=1.0))
        held, peak = (m - start for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    buf = stepper._buffers
    assert sum(a.nbytes for a in stepper._packed_uv) + buf.flat.nbytes + buf.mask[0].nbytes \
        <= held <= 3.40e6
    # the multipliers are formed in place in one (2, *cells) array (1.05 MB) and
    # packed straight from strided views of it into their arrays: building costs
    # that array and numpy's own ufunc buffers, not a copy per packed term
    assert peak <= held + 1.5e6


def test_a_2d_run_holds_no_transform_workspace():
    # a one-member 256^2 run over two steps, every array it makes counted: the
    # initial state and the batch, the stepper's multipliers and work arrays, the
    # potential's multiplier and twiddle table, and a step's returned arrays peak
    # at 9.36 MB; transform buffers held beside the work arrays add 1.57 MB
    pcg64.Generator(0)  # the generator module's import is not the run's
    elliptic._pseudo_inverse.cache_clear()
    elliptic._makhoul_plan_2d.cache_clear()
    g = build_grid(2, 1.0, (256, 256))
    spec = InitialSpec(profile="random_positive", amplitude=0.1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        traj = run(make_initial(g, spec), params(a=1.0, mu=1.0, n_dim=2),
                   SolverConfig(dt=1e-5, t_end=2e-5))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert traj.termination_reason == "completed" and len(traj.records) == 2
    assert peak <= 9.46e6


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_scenario_frees_its_initial_states_before_a_stepper_is_built(tmp_path, monkeypatch,
                                                                       command):
    # run_scenario and run_sweep hand their initial states to the time loop, which
    # copies them into its batch and drops them before it builds the stepper; the
    # sweep's chi = 12 point blows up at the first step, so a second stepper is
    # built for the point left
    path = tmp_path / "rand2d.cfg"
    path.write_text("preset = C2_logistic\ngrid.dim = 2\ngrid.cells = 32, 24\n"
                    "init.profile = random_positive\ninit.amplitude = 0.05\n"
                    "solver.blowup_threshold = 1.08\nsolver.t_end = 0.02\n"
                    + ("sweep.params.chi = 0.5, 12\n" if command == "sweep" else ""))
    refs, alive = [], []

    def tracked_initial(*args):
        state = make_initial(*args)
        refs.append(weakref.ref(state))
        return state

    class Watched(Stepper):
        def __init__(self, *args):
            alive.append([ref() is not None for ref in refs])
            super().__init__(*args)

    monkeypatch.setattr(harness, "make_initial", tracked_initial)
    monkeypatch.setattr(dynamics, "Stepper", Watched)
    overrides = {"out": str(tmp_path / "res")}
    if command == "run":
        assert harness.run_scenario(parse_config(str(path), overrides), quiet=True) == 0
        assert alive == [[False]]
    else:
        assert harness.run_sweep(parse_sweep(str(path), overrides), quiet=True) == 0
        assert alive == [[False, False]] * 2
        rows = (tmp_path / "res" / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["completed", "blowup_detected"]


def test_a_member_leaving_frees_the_old_stepper_before_the_new_one_is_built(monkeypatch):
    # a 2D 64^2 pair whose growing member passes the blow-up threshold at the first
    # step: the stepper for the member left is built once the pair's is dropped, so
    # its build peaks below the pair's; building it beside the pair's peaks 0.4 MB
    # higher, above the pair's build
    g = build_grid(2, 1.0, (64, 64))
    initials = [make_initial(g, InitialSpec(amplitude=0.05))] * 2
    members = [params(n_dim=2), params(a=100.0, mu=1.0, n_dim=2)]
    cfg = SolverConfig(dt=1e-3, t_end=5e-3, blowup_threshold=1.08)
    run_ensemble(initials, members, cfg)  # warms the plan caches
    peaks = []

    class Measured(Stepper):
        def __init__(self, *args):
            tracemalloc.reset_peak()
            super().__init__(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(dynamics, "Stepper", Measured)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trajs = run_ensemble(initials, members, cfg)
    finally:
        tracemalloc.stop()
    assert [traj.termination_reason for traj in trajs] == ["completed", "blowup_detected"]
    assert len(trajs[1].records) == 1 and len(peaks) == 2
    assert peaks[1] < peaks[0]


def test_the_last_record_is_taken_without_a_stepper(monkeypatch):
    # the time loop drops its stepper once the last step has returned, so the
    # last record, the terminal states and the trajectories are made without its
    # arrays; a member that leaves at the last step gets no stepper for the rest
    g = build_grid(1, 1.0, 32)
    refs, alive = [], []

    class Watched(Stepper):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    def watched_batch(*args):
        alive.append(any(ref() is not None for ref in refs))
        return diagnostics_batch(*args)

    monkeypatch.setattr(dynamics, "Stepper", Watched)
    monkeypatch.setattr(dynamics, "diagnostics_batch", watched_batch)
    seen = []
    traj = run(make_initial(g, InitialSpec(amplitude=0.05)), params(),
               SolverConfig(dt=1e-3, t_end=5e-3, record_every=2),
               lambda _state: seen.append(any(ref() is not None for ref in refs)))
    assert traj.termination_reason == "completed" and len(traj.records) == 4
    assert alive == seen == [False, True, True, False] and len(refs) == 1
    refs.clear(), alive.clear()
    initial = make_initial(g, InitialSpec(amplitude=0.05))
    trajs = run_ensemble([initial] * 2, [params(), params(a=100.0, mu=1.0)],
                         SolverConfig(dt=1e-3, t_end=1e-3, blowup_threshold=1.08))
    assert [traj.termination_reason for traj in trajs] == ["completed", "blowup_detected"]
    assert alive == [False, False] and len(refs) == 1


def test_a_1d_step_reuses_its_transform_buffers(monkeypatch):
    g, members, batch = mixed_batch(1, 128, 9)
    stepper = Stepper(g, members, SolverConfig(dt=2e-5, t_end=1.0))
    batch = stepper.step(0.0, *batch)  # warms the FFT plan and potential caches
    pairs = []

    def traced_apply(vals, packed, out=None, buffers=None):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = apply_packed(vals, packed, out, buffers)
        fresh_output = 0 if out is not None else result.nbytes  # the potential's w
        pairs.append((len(vals), tracemalloc.get_traced_memory()[1] - before - fresh_output))
        return result

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stepped = stepper.step(0.0, *batch)
        peak = tracemalloc.get_traced_memory()[1] - start
        monkeypatch.setattr(dynamics, "apply_packed", traced_apply)
        monkeypatch.setattr(elliptic, "apply_packed", traced_apply)
        stepper.step(0.0, *stepped)
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in stepped)  # the (18, 128) uv and the (9, 128) w
    # every face pass is contiguous, so numpy's buffered iterator allocates no
    # scratch; the step peaks at 40.0 KB, in the stacked pair, whose inverse FFT
    # copies the (18, 65) half spectrum
    assert peak <= returned + 18 * (128 // 2 + 1) * 16
    # each pair, the stacked diffusion and the potential, allocates besides a fresh
    # output only numpy's copy of its half spectrum in the inverse FFT; pairs that
    # build their reordered input and spectrum afresh allocate about three times that
    assert [rows for rows, _peak in pairs] == [18, 9]
    for rows, pair_peak in pairs:
        assert pair_peak <= 1.25 * rows * (128 // 2 + 1) * 16


@pytest.mark.parametrize("thetas", [(0.5,), (1.0,), (2.0,), (0.5, 1.0, 2.0), (2.0, 1.0)])
def test_stable_dt_takes_the_member_by_member_reaction_bound_bit_for_bit(thetas):
    # with zero face speeds and cfl_safety = 1, stable_dt is the reaction bound;
    # the batches mix members without growth (a = mu = 0), u maxima from 1e-3
    # to 1e3, zero, negative (central fluxes) and one whose u^theta overflows
    g = build_grid(1, 1.0, 8)
    rng = np.random.default_rng(len(thetas))
    n = 64
    umax = np.concatenate([10.0 ** rng.uniform(-3.0, 3.0, n - 3), [0.0, -1.5, 1e200]])
    levels = [0.0, 0.5, 3.0]
    members = [params(a=levels[b % 3], mu=levels[b // 3 % 3], theta=thetas[b % len(thetas)])
               for b in range(n)]
    speeds = [np.zeros((2, n, 8))]
    cfg = SolverConfig(dt=1e-3, t_end=1.0, cfl_safety=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        got = stable_dt(g, umax, speeds, growth_columns(members), cfg)
        want = oracles.reaction_bounds(members, umax)
    assert got.tobytes() == want.tobytes()
    assert all(got[b] == 1.0 for b, p in enumerate(members) if p.a == p.mu == 0.0)


def test_stable_dt_reaction_bound_is_within_4_ulp_for_any_theta():
    # np.float_power is libm's pow, as the scalar power is; a numpy whose
    # float_power took a SIMD pow would move the bound by a few ulp at most
    g = build_grid(1, 1.0, 8)
    rng = np.random.default_rng(5)
    n = 64
    umax = 10.0 ** rng.uniform(-3.0, 3.0, n)
    members = [params(a=0.5, mu=1.5, theta=rng.uniform(0.25, 3.0)) for _ in range(n)]
    speeds = [np.zeros((2, n, 8))]
    cfg = SolverConfig(dt=1e-3, t_end=1.0, cfl_safety=1.0)
    got = stable_dt(g, umax, speeds, growth_columns(members), cfg)
    want = oracles.reaction_bounds(members, umax)
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 4


@st.composite
def cfl_cases(draw):
    """(grid, members, umax, per-axis (2, B, *cells) speeds, cfl_safety) of a batch
    of 1 to 5 members on a 1D or 2D grid: each species row is random at a scale of
    1, 1e-300 or 1e300, all +0.0 and -0.0, or one value repeated, with about a
    quarter of its entries replaced by one of +-0.0, nan, +-inf and +-1e+-300."""
    dim = draw(st.sampled_from([1, 2]), label="dim")
    cells = tuple(draw(st.integers(4, 12), label=f"cells[{k}]") for k in range(dim))
    n = draw(st.integers(1, 5), label="members")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    g = build_grid(dim, (1.0, 0.6)[:dim], cells)
    specials = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                         1e300, -1e300, 1e-300, -1e-300])
    levels = [0.0, 0.5, 3.0]
    members = [params(a=rng.choice(levels), mu=rng.choice(levels),
                      theta=rng.choice([0.5, 1.0, 2.0]), n_dim=dim) for _ in range(n)]
    umax = 10.0 ** rng.uniform(-3.0, 3.0, n)
    speeds = []
    for _ in range(dim):
        stacked = np.empty((2, n) + cells)
        for row in stacked.reshape(2 * n, -1):
            kind = rng.integers(3)
            if kind == 0:
                row[:] = rng.normal(size=row.shape) * rng.choice([1.0, 1e-300, 1e300])
            elif kind == 1:
                row[:] = np.where(rng.random(row.shape) < 0.5, 0.0, -0.0)
            else:
                row[:] = rng.choice(specials)
            hit = rng.random(row.shape) < 0.25
            row[hit] = rng.choice(specials, size=row.shape)[hit]
        speeds.append(stacked)
    return g, members, umax, speeds, draw(st.sampled_from([0.1, 0.5, 1.0]), label="cfl_safety")


@settings(max_examples=200, deadline=None)
@given(case=cfl_cases())
def test_stable_dt_cfl_bound_matches_the_member_by_member_oracle(case):
    # stable_dt takes a member's max and min over its u and v rows in one
    # reduction each; max and min are exact, and a zero or nan max |speed| sets
    # no bound, so the bound has the bits of the per-species formula
    g, members, umax, speeds, safety = case
    cfg = SolverConfig(dt=1e-3, t_end=1.0, cfl_safety=safety)
    with np.errstate(invalid="ignore"):
        got = stable_dt(g, umax, speeds, growth_columns(members), cfg)
        want = oracles.stable_dt_bounds(g, members, umax, speeds, safety)
    assert got.shape == (len(members),)
    assert got.tobytes() == want.tobytes()


@st.composite
def face_kernel_cases(draw):
    """(stepper, uv, w) of a batch of 1 to 5 members on a 1D or 2D grid of 4 to 40
    cells per axis, under either flux scheme, with values drawn at one of the
    scales 1, 1e-300, 1e300 and 1e308 (where some overflow to inf): about a
    third of them equal to the scale, which gives zero faces and -0.0 speeds, and
    a fifth +0.0 or -0.0."""
    dim = draw(st.sampled_from([1, 2]), label="dim")
    cells = tuple(draw(st.integers(4, 40), label=f"cells[{k}]") for k in range(dim))
    n = draw(st.integers(1, 5), label="members")
    scheme = draw(st.sampled_from(["upwind", "central"]), label="flux_scheme")
    scale = draw(st.sampled_from([1.0, 1e-300, 1e300, 1e308]), label="scale")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    g = build_grid(dim, (1.0, 0.6)[:dim], cells)
    couplings = [0.0, 0.5, 2.0]
    members = [params(chi=rng.choice(couplings), xi1=rng.choice(couplings),
                      xi2=rng.choice(couplings), n_dim=dim) for _ in range(n)]

    def values(shape):
        with np.errstate(over="ignore"):
            x = rng.normal(size=shape) * scale
        x[rng.random(shape) < 0.3] = scale
        zero = rng.random(shape) < 0.2
        x[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
        return x

    cfg = SolverConfig(dt=1e-3, t_end=1.0, flux_scheme=scheme)
    return Stepper(g, members, cfg), values((2 * n,) + cells), values((n,) + cells)


@settings(max_examples=60, deadline=None)
@given(case=face_kernel_cases())
def test_padded_face_kernels_match_the_interior_face_oracles_byte_for_byte(case):
    # the face speeds, the fluxes with their divergence and the Laplacian of the
    # step, in padded face arrays whose pads start as NaN, against the kernels as
    # they ran on interior-face arrays
    stepper, uv, w = case
    g, n = stepper.grid, len(w)
    cols = stepper._couplings
    buf = stepper._buffers
    buf.flat[...] = np.nan
    with np.errstate(all="ignore"):
        _face_speeds(g, uv[n:], w, *cols, out=(buf.speed_views, np.empty(w.shape)))
        want = oracles.stacked_face_speeds(g, uv[n:], w, *cols)
        assert [oracles.interior(a, uv.shape, g.dim, k).tobytes()
                for k, a in enumerate(buf.speeds)] == [a.tobytes() for a in want]
        faces = (np.full(uv.size, np.nan), np.full(uv.size, np.nan))
        div = divergence_arrays(stepper._fluxes(uv, faces), g.spacing, uv.shape)
        want = oracles.divergence_arrays(
            oracles.fluxes(uv, want, g.dim, stepper.cfg.flux_scheme), g.spacing, uv.shape)
        assert div.tobytes() == want.tobytes()
        for vals in (uv, w):
            faces = np.full(vals.size + max(face_strides(vals.shape, g.dim)), np.nan)
            got = laplacian_array(vals, g.spacing, np.full(vals.shape, np.nan),
                                  laplacian_views(faces, vals.shape, g.dim))
            assert got.tobytes() == oracles.laplacian_array(vals, g.spacing).tobytes()


# ---------------------------------------------------------------------------
# properties over random grids (1D and 2D, 4-512 cells per axis), random
# admissible ModelParams and any dt up to stable_dt


def admissible_params(dim):
    """ModelParams anywhere in the ranges the model classes accept, bounded."""
    coupling = st.floats(0.0, 5.0)
    return st.builds(ModelParams, chi=coupling, xi1=coupling, xi2=coupling,
                     d=st.floats(0.05, 5.0), a=st.floats(0.0, 3.0), mu=st.floats(0.0, 3.0),
                     theta=st.floats(0.25, 3.0), n_dim=st.just(dim))


@st.composite
def scenarios(draw, dims=(1, 2)):
    """(initial state, params of two members, solver config of two steps) with dt
    a fraction in [1e-6, 1] of the first member's stable_dt at the initial state."""
    dim = draw(st.sampled_from(dims), label="dim")
    cells = [draw(st.integers(4, 512), label=f"cells[{k}]") for k in range(dim)]
    lengths = [draw(st.floats(0.5, 2.0), label=f"lengths[{k}]") for k in range(dim)]
    grid = build_grid(dim, lengths, cells)
    amplitude = st.floats(0.0, 0.95)
    initial = make_initial(grid, InitialSpec(
        profile="random_positive", base=1.0, amplitude=draw(amplitude, label="amplitude"),
        v_profile=draw(st.sampled_from(["random_positive", "cosine_bump"]), label="v_profile"),
        v_base=1.0, v_amplitude=draw(amplitude, label="v_amplitude"),
        seed=draw(st.integers(0, 2**32 - 1), label="seed")))
    members = [draw(admissible_params(dim), label=f"params[{b}]") for b in range(2)]
    fraction = draw(st.floats(1e-6, 1.0), label="dt / stable_dt")
    with np.errstate(over="ignore"):  # a subnormal top speed has an infinite face CFL
        dt = fraction * member_bound(initial, members[0], SolverConfig(dt=1.0, t_end=1.0))
    return initial, members, SolverConfig(dt=dt, t_end=2 * dt, record_every=1)


@settings(max_examples=20, deadline=None)
@given(scenario=scenarios())
def test_a_step_under_stable_dt_keeps_the_mass_laws_and_the_gauge(scenario):
    initial, (p, _other), cfg = scenario
    dt, vol = cfg.dt, initial.grid.cell_volume

    def mass(a):
        return float(np.sum(a) * vol)

    with np.errstate(over="ignore", invalid="ignore"):
        stepped = one_step(initial, p, cfg)
    mass_u, mass_v = mass(initial.u), mass(initial.v)
    # int u(1) - int u(0) = dt (a int u(0) - mu int u(0)^(theta+1))
    power = u_power_integral(initial, p.theta)
    defect = mass(stepped.u) - mass_u - dt * (p.a * mass_u - p.mu * power)
    assert abs(defect) <= 1e-13 * (mass_u + dt * (p.a * mass_u + p.mu * power))
    # (1 + dt) int v(1) = int v(0) + dt int u(0)
    defect = (1.0 + dt) * mass(stepped.v) - mass_v - dt * mass_u
    assert abs(defect) <= 1e-13 * (mass_v + dt * mass_u)
    # int w = 0
    assert abs(mass(stepped.w)) <= 1e-12 * max(1.0, float(np.max(np.abs(stepped.w))))


@settings(max_examples=20, deadline=None)
@given(scenario=scenarios())
def test_an_ensemble_member_matches_its_standalone_run(scenario):
    # the other member may stop early at its own stable_dt, and either may stop
    # where positivity is lost; the first member's run is the same either way
    initial, (p, other), cfg = scenario
    # a cell of u far below the carrying state reads an infinite F2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        traj, _ = run_ensemble([initial, initial], [p, other], cfg)
        assert_same_trajectory(traj, run(initial, p, cfg))


@settings(max_examples=50, deadline=None)
@given(scenario=scenarios(dims=(1,)))
def test_an_upwind_step_under_stable_dt_keeps_u_positive_and_v_nonnegative_in_1d(scenario):
    initial, (p, _other), cfg = scenario
    with np.errstate(over="ignore"):
        stepped = one_step(initial, p, cfg)
    assert stepped.u.min() > 0.0 and stepped.v.min() >= 0.0


@pytest.mark.xfail(strict=True, reason="stable_dt bounds each axis's face CFL on its own; "
                   "a 2D cell whose four faces all flow out at the top speed loses up to "
                   "twice its content in the explicit update")
def test_an_upwind_step_under_stable_dt_keeps_u_positive_in_2d():
    # pure attraction from a constant u up a rough v on a 5 x 4 grid, at dt = stable_dt:
    # u goes to about -0.08 in the cell at a local minimum of v
    grid = build_grid(2, 1.0, (5, 4))
    p = params(chi=4.4, xi1=0.0, xi2=0.0, n_dim=2)
    initial = make_initial(grid, InitialSpec(profile="constant", base=1.0, amplitude=0.0,
                                             v_profile="random_positive", v_base=1.0,
                                             v_amplitude=0.8, seed=719))
    dt = member_bound(initial, p, SolverConfig(dt=1.0, t_end=1.0))
    assert one_step(initial, p, SolverConfig(dt=dt, t_end=dt)).u.min() > 0.0


@pytest.mark.xfail(strict=True, reason="stable_dt takes the face CFL and the reaction bound "
                   "on their own; at cfl_safety = 1 a 1D cell whose two faces both flow out "
                   "at the top speed loses up to twice its content in the explicit update")
def test_an_upwind_step_under_stable_dt_keeps_u_positive_in_1d_at_cfl_safety_1():
    # pure attraction from a constant u up a rough v on 64 cells, at dt = stable_dt
    # with cfl_safety = 1: u goes to about -0.21 in the cell at a local minimum of v
    # (31 of the seeds 0-39 take u to zero or below)
    grid = build_grid(1, 1.0, 64)
    p = params(chi=4.0, xi1=0.0, xi2=0.0)
    initial = make_initial(grid, InitialSpec(profile="constant", base=1.0, amplitude=0.0,
                                             v_profile="random_positive", v_base=1.0,
                                             v_amplitude=0.8, seed=0))
    dt = member_bound(initial, p, SolverConfig(dt=1.0, t_end=1.0, cfl_safety=1.0))
    assert one_step(initial, p, SolverConfig(dt=dt, t_end=dt, cfl_safety=1.0)).u.min() > 0.0


# ---------------------------------------------------------------------------
# metamorphic relations: a transformed run against the run it transforms

def recorded_states(initial, p):
    """Every recorded state of a C2-like run from initial, dt = 0.002 to t = 0.2."""
    states = []
    traj = run(initial, p, SolverConfig(dt=0.002, t_end=0.2), states.append)
    assert traj.termination_reason == "completed"
    return states


def random_c2_start(grid, seed):
    """Random u and v on the relations' grids (1D-64 and 1D-128, 2D 32 x 24 on
    1 x 0.75 or 1 x 0.6); v's amplitude keeps the face CFL of the first steps at
    dt = 0.002 under the stability bound."""
    return make_initial(grid, InitialSpec(profile="random_positive", amplitude=0.2, seed=seed,
                                          v_amplitude=0.005 if grid.dim == 1 else 0.1))


def assert_related(got, want, exact, tol=1e-10, scale=None):
    """got is want bit for bit (exact), or within tol of max |scale| (by
    default, of max |want|)."""
    if exact:
        assert got.tobytes() == want.tobytes()
    else:
        scale = want if scale is None else scale
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(scale))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), theta=st.sampled_from([1.0, 1.5, 2.0]))
def test_scaling_the_state_by_4_scales_the_run_by_4(seed, theta):
    # (u, v, w) -> c (u, v, w) with chi, xi1, xi2 divided by c and mu by c^theta:
    # every term of the model scales by c, and c = 4 is a power of two, so every
    # rounding scales with it. Only u^theta does not: numpy's power is not
    # correctly rounded, and (4x)^1.5 differs from 8 x^1.5 in the last bit for
    # about 3 in 10^4 arguments near 1, so at theta = 1.5 a run parts from the
    # relation's bits in about a third of the seeds in 2D and 3 in 100 in 1D
    # (by at most 2.6e-12 of an array's max)
    c = 4.0
    for grid in (build_grid(1, 1.0, 128), build_grid(2, (1.0, 0.75), (32, 24))):
        p = params(chi=0.5, xi1=0.5, xi2=0.5, a=1.0, mu=1.0, theta=theta, n_dim=grid.dim)
        scaled = replace(p, chi=p.chi / c, xi1=p.xi1 / c, xi2=p.xi2 / c, mu=p.mu / c ** theta)
        s = random_c2_start(grid, seed)
        for a, b in zip(recorded_states(s, p),
                        recorded_states(SimState(0.0, grid, c * s.u, c * s.v, c * s.w), scaled),
                        strict=True):
            for x, y in ((a.u, b.u), (a.v, b.v), (a.w, b.w)):
                assert_related(y / c, x, exact=theta != 1.5)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), theta=st.sampled_from([1.0, 1.5, 2.0]))
def test_mirroring_the_state_mirrors_the_run(seed, theta):
    # x -> L - x on 1D-128. The transform pair maps a mirrored right-hand side to
    # the mirrored potential bit for bit, but the potential's two means, of u and
    # of w (its gauge), sum in the other order: w parts from the mirror's bits (at
    # most 2e-13 of max |w| over 200 seeds), and u and v follow it in most runs
    # (at most 3e-15)
    grid = build_grid(1, 1.0, 128)
    p = params(chi=0.5, xi1=0.5, xi2=0.5, a=1.0, mu=1.0, theta=theta)
    s = random_c2_start(grid, seed)
    for a, b in zip(recorded_states(s, p),
                    recorded_states(SimState(0.0, grid, s.u[::-1], s.v[::-1], s.w[::-1]), p),
                    strict=True):
        for x, y in ((a.u, b.u), (a.v, b.v), (a.w, b.w)):
            assert_related(y[::-1], x, exact=False)


# The 2D relations below are not bit for bit: the transform pair takes an axis's
# sums in another order once that axis is the other one. Over 300 seeds, u, v and
# w kept within 3.4e-15 of the run's max u under dimension reduction and 5.8e-15
# under transposition. w is held to max u, not to its own max: its error stays
# near 1e-16 of max u while max |w| falls to 5e-6 as u relaxes.
RELATED_2D = 2e-14


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_2d_run_constant_along_one_axis_is_the_1d_run(seed):
    # 1D-64 against 64 x 8 and 8 x 64: the 2D state stays constant along its
    # constant axis bit for bit, and each of its lines is the 1D run
    s = random_c2_start(build_grid(1, 1.0, 64), seed)
    want = recorded_states(s, params(chi=0.5, xi1=0.5, xi2=0.5, a=1.0, mu=1.0))
    p = params(chi=0.5, xi1=0.5, xi2=0.5, a=1.0, mu=1.0, n_dim=2)
    for axis in (0, 1):
        cells, lengths = [64, 64], [1.0, 1.0]
        cells[axis], lengths[axis] = 8, 0.5

        def spread(line):
            return np.repeat(np.expand_dims(line, axis), 8, axis)

        grid = build_grid(2, tuple(lengths), tuple(cells))
        got = recorded_states(SimState(0.0, grid, spread(s.u), spread(s.v), spread(s.w)), p)
        for a, b in zip(want, got, strict=True):
            for x, y in ((a.u, b.u), (a.v, b.v), (a.w, b.w)):
                line = np.take(y, 0, axis)
                assert_related(y, spread(line), exact=True)
                assert_related(line, x, exact=False, tol=RELATED_2D, scale=a.u)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_transposing_the_state_and_the_box_transposes_the_run(seed):
    # 32 x 24 on 1 x 0.6 against 24 x 32 on 0.6 x 1: the spacings differ, 1/32 and 1/40
    p = params(chi=0.5, xi1=0.5, xi2=0.5, a=1.0, mu=1.0, n_dim=2)
    s = random_c2_start(build_grid(2, (1.0, 0.6), (32, 24)), seed)
    swapped = build_grid(2, (0.6, 1.0), (24, 32))
    for a, b in zip(recorded_states(s, p),
                    recorded_states(SimState(0.0, swapped, s.u.T, s.v.T, s.w.T), p),
                    strict=True):
        for x, y in ((a.u, b.u), (a.v, b.v), (a.w, b.w)):
            assert_related(y.T, x, exact=False, tol=RELATED_2D, scale=a.u)
