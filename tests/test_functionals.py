import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angiosim.dynamics import ModelParams, SimState
from angiosim.elliptic import elliptic_residual, solve_neumann_poisson
from angiosim.functionals import (
    TRAJECTORY_COLUMNS,
    CosineTestFunction,
    DiagnosticsRecord,
    diagnostics_batch,
    diagnostics_record,
    entropy_sandwich_check,
    fit_decay_rate,
    grad_l2,
    relative_entropy,
    row_extrema,
    verify_interpolation_inequalities,
)
from angiosim.grid import build_grid, gradient_arrays
from oracles import (
    entropy,
    gradient_norm,
    lyap_F1,
    lyap_F2,
    mass_balance_residual,
    row_minima_and_sup_norms,
    u_power_integral,
)

# high-resolution quadrature oracle for int (1+cos(pi x)/2) ln(1+cos(pi x)/2)
ENTROPY_COS_HALF = 0.0646381320204874430

OFF = ModelParams(chi=0.0, xi1=0.0, xi2=0.0, d=1.0, a=0.0, mu=0.0, theta=1.0, n_dim=1)


def state_of(grid, u, v):
    """The t = 0 SimState of u and v, with w solved from u."""
    return SimState(0.0, grid, u, v, solve_neumann_poisson(grid, u, 1e-10)[0])


def constant_state(grid, c=1.5):
    u = np.full(grid.cells, c)
    return state_of(grid, u, u)


# ---------------------------------------------------------------------------
# entropy

def test_entropy_of_constant_is_zero():
    g = build_grid(1, 1.0, 64)
    assert relative_entropy(np.full(64, 2.5), g) == 0.0


def test_entropy_matches_quadrature_oracle():
    g = build_grid(1, 1.0, 256)
    x = g.axis_centers(0)
    u = 1.0 + 0.5 * np.cos(np.pi * x)
    # the even periodic extension is smooth, so midpoint quadrature is exact
    assert relative_entropy(u, g) == pytest.approx(ENTROPY_COS_HALF, abs=1e-12)


def test_entropy_rejects_nonpositive_cells():
    g = build_grid(1, 1.0, 64)
    vals = np.ones(64)
    vals[3] = 0.0
    with pytest.raises(ValueError, match="positive"):
        relative_entropy(vals, g)


def test_entropy_is_nonnegative_and_zero_only_at_constants():
    g = build_grid(1, 1.0, 64)
    rng = np.random.default_rng(8)
    for _ in range(50):
        u = rng.uniform(0.2, 3.0, 64)
        assert relative_entropy(u, g) > 0.0


def test_sandwich_gaps_on_random_fields():
    rng = np.random.default_rng(77)
    for dim, cells in ((1, 64), (2, (12, 12))):
        g = build_grid(dim, 1.0, cells)
        for _ in range(100):
            u = rng.uniform(0.1, 4.0, g.cells)
            lower, upper = entropy_sandwich_check(u, g)
            scale = relative_entropy(u, g)
            assert lower >= -1e-10 * max(1.0, scale)
            assert upper >= -1e-10 * max(1.0, scale)


def test_sandwich_degenerates_cleanly_near_constant():
    g = build_grid(1, 1.0, 128)
    rng = np.random.default_rng(5)
    u = 1.0 + 1e-6 * rng.uniform(-1.0, 1.0, 128)
    lower, upper = entropy_sandwich_check(u, g)
    assert 0.0 <= lower <= 1e-9
    assert 0.0 <= upper <= 1e-9


def test_sandwich_constant_field_is_exactly_zero():
    g = build_grid(1, 1.0, 64)
    lower, upper = entropy_sandwich_check(np.full(64, 3.0), g)
    assert lower == 0.0 and upper == 0.0


# ---------------------------------------------------------------------------
# Lyapunov functionals

def test_f1_zero_at_constant_state():
    st = constant_state(build_grid(1, 1.0, 64))
    assert lyap_F1(st, chi=0.5) == 0.0


def test_f1_chi_zero_reduces_to_entropy():
    g = build_grid(1, 1.0, 128)
    x = g.axis_centers(0)
    u = 1.0 + 0.3 * np.cos(np.pi * x)
    v = 1.0 + 0.2 * np.cos(np.pi * x)
    st = state_of(g, u, v)
    assert lyap_F1(st, chi=0.0) == relative_entropy(u, g)
    assert lyap_F1(st, chi=1.0) > relative_entropy(u, g)


def test_f2_zero_at_carrying_state():
    p = ModelParams(chi=0.5, xi1=0.5, xi2=0.5, d=1.0, a=2.0, mu=0.5, theta=2.0, n_dim=1)
    b = (p.a / p.mu) ** (1.0 / p.theta)
    st = constant_state(build_grid(1, 1.0, 64), c=b)
    assert lyap_F2(st, p) == 0.0


def test_f2_chi_zero_drops_gradient_term():
    g = build_grid(1, 1.0, 128)
    x = g.axis_centers(0)
    u = 1.0 + 0.3 * np.cos(np.pi * x)
    v = 2.0 + 0.2 * np.cos(np.pi * x)
    st = state_of(g, u, v)
    p0 = ModelParams(chi=0.0, xi1=0.5, xi2=0.5, d=1.0, a=1.0, mu=1.0, theta=1.0, n_dim=1)
    p1 = ModelParams(chi=1.0, xi1=0.5, xi2=0.5, d=1.0, a=1.0, mu=1.0, theta=1.0, n_dim=1)
    assert lyap_F2(st, p1) > lyap_F2(st, p0) > 0.0


def test_f2_requires_positive_a_and_mu():
    st = constant_state(build_grid(1, 1.0, 64))
    bad = ModelParams(chi=0.5, xi1=0.5, xi2=0.5, d=1.0, a=0.0, mu=1.0, theta=1.0, n_dim=1)
    with pytest.raises(ValueError, match="b degenerate"):
        lyap_F2(st, bad)


def test_grad_l2_examples():
    g = build_grid(1, 1.0, 256)
    assert grad_l2(np.full(256, 2.0), g) == 0.0
    x = g.axis_centers(0)
    f = np.cos(np.pi * x)
    assert grad_l2(f, g) == pytest.approx(np.pi / math.sqrt(2.0), abs=1e-3)
    assert grad_l2(3.0 * f, g) == pytest.approx(3.0 * grad_l2(f, g), rel=1e-13)


@pytest.mark.parametrize("dim, cells", [(1, 64), (2, (12, 20))])
def test_battery_functionals_match_plain_numpy(dim, cells):
    g = build_grid(dim, (1.0, 1.5)[:dim], cells)
    u = np.random.default_rng(dim).uniform(0.2, 3.0, g.cells)
    assert relative_entropy(u, g) == entropy(u, g)
    assert grad_l2(u, g) == gradient_norm(u, g)
    # past the square range the norm is taken at a power-of-two scale
    big = 2.0 ** 540
    with np.errstate(over="ignore"):
        assert grad_l2(big * u, g) == big * grad_l2(u, g)


# ---------------------------------------------------------------------------
# mass balance and rate fits

def _record(t, mass):
    return DiagnosticsRecord(
        t=t, mass_u=mass, mass_v=1.0, linf_u=1.0, linf_v=1.0,
        l2_u_dev=0.0, l2_v_dev=0.0, l2_grad_v=0.0, linf_grad_w=0.0,
        F1=math.nan, F2=math.nan, elliptic_residual=0.0,
        min_u=1.0, min_v=1.0,
    )


def test_mass_balance_residual_single_record_is_zero():
    assert mass_balance_residual([_record(0.0, 2.0)], [0.0], OFF) == 0.0


def test_mass_balance_residual_detects_defect():
    p = ModelParams(chi=0.0, xi1=0.0, xi2=0.0, d=1.0, a=1.0, mu=0.5, theta=1.0, n_dim=1)
    recs = [_record(0.0, 2.0)]
    # exact law: mass(dt) = mass + dt*(a*mass - mu*int u^2) = 2 + 0.1*(2-2)
    recs.append(_record(0.1, 2.0))
    assert mass_balance_residual(recs, [4.0, 4.0], p) == 0.0
    recs[1] = _record(0.1, 2.013)
    assert mass_balance_residual(recs, [4.0, 4.0], p) == pytest.approx(0.013)


def test_fit_decay_rate_exact_exponential():
    t = np.linspace(0.0, 5.0, 101)
    series = list(zip(t, np.exp(-2.0 * t)))
    fit = fit_decay_rate(series, (0.0, 5.0))
    assert fit.rate == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_samples == 101


def test_fit_decay_rate_constant_series():
    t = np.linspace(0.0, 5.0, 60)
    fit = fit_decay_rate(list(zip(t, np.full(60, 3.0))), (0.0, 5.0))
    assert abs(fit.rate) <= 1e-12
    assert fit.r_squared == 1.0  # zero residual on zero-variance data


def test_fit_decay_rate_default_window_skips_the_transient():
    # the default window, shared by run, sweep and fit: the first tenth is
    # skipped, and a series that never reaches the round-off plateau runs to
    # its end; one that does stops there, and a window of fewer than 10
    # samples falls back to the last half
    t = np.linspace(0.0, 10.0, 201)
    fit = fit_decay_rate(list(zip(t, np.exp(-0.7 * t))))
    assert fit.window == (1.0, 10.0)
    assert fit.rate == pytest.approx(0.7, abs=1e-9)
    fit = fit_decay_rate(list(zip(t, np.exp(-5.0 * t))))
    assert fit.window == pytest.approx((0.2 * 3.7, 3.7))  # e^-5t < 1e-8 from t = 3.7
    assert fit.rate == pytest.approx(5.0, rel=1e-9)
    fit = fit_decay_rate(list(zip(t, np.exp(-50.0 * t))))  # 7 samples up to t = 0.4
    assert fit.window == (5.0, 10.0)


def test_fit_decay_rate_rejects_nonpositive_and_short_windows():
    t = np.linspace(0.0, 1.0, 50)
    vals = np.exp(-t)
    for bad in (0.0, np.nan, np.inf):
        vals[30] = bad
        with pytest.raises(ValueError, match="non-finite or nonpositive values in window"):
            fit_decay_rate(list(zip(t, vals)), (0.0, 1.0))
    with pytest.raises(ValueError, match=">= 10"):
        fit_decay_rate(list(zip(t[:5], vals[:5])), (0.0, 1.0))
    with pytest.raises(ValueError, match="bad fit window"):
        fit_decay_rate(list(zip(t, np.exp(-t))), (1.0, 0.0))
    with pytest.raises(ValueError, match=r"series must be \(t, value\) pairs"):
        fit_decay_rate([(0, 1, 2)])


# ---------------------------------------------------------------------------
# interpolation inequality battery

def test_cosine_family_sampling_matches_analytic_1d():
    f = CosineTestFunction([1.0], [0.5, 1.0, 0.0, -0.25])
    g = build_grid(1, 1.0, 128)
    x = g.axis_centers(0)
    vals, grad, hess = f.sample(g)
    exact = 0.5 + np.cos(np.pi * x) - 0.25 * np.cos(3 * np.pi * x)
    dexact = -np.pi * np.sin(np.pi * x) + 0.75 * np.pi * np.sin(3 * np.pi * x)
    assert vals.shape == g.cells and grad.shape == (1, *g.cells)
    assert hess.shape == (1, 1, *g.cells)
    assert np.allclose(vals, exact, atol=1e-13)
    assert np.allclose(grad[0], dexact, atol=1e-12)
    assert np.allclose(hess[0, 0],
                       -np.pi**2 * np.cos(np.pi * x)
                       + 2.25 * np.pi**2 * np.cos(3 * np.pi * x), atol=1e-11)
    with pytest.raises(ValueError, match="grid/function dimension mismatch"):
        f.sample(build_grid(2, 1.0, (8, 8)))


def test_cosine_family_sampling_2d_hessian_symmetry():
    rng = np.random.default_rng(40)
    f = CosineTestFunction.random([1.0, 2.0], rng)
    g = build_grid(2, [1.0, 2.0], [32, 32])
    vals, grad, hess = f.sample(g)
    assert vals.shape == (32, 32)
    assert grad.shape == (2, 32, 32) and hess.shape == (2, 2, 32, 32)
    assert np.array_equal(hess[0, 1], hess[1, 0])
    # mixed partial of cos(k0 pi x)cos(k1 pi y/2) at a spot check
    x, y = g.cell_coordinates()
    k0 = k1 = 1
    single = CosineTestFunction([1.0, 2.0], np.eye(4, 4)[1][:, None] * np.eye(4, 4)[1][None, :])
    _, _, hs = single.sample(g)
    man = np.pi * (np.pi / 2.0) * np.sin(np.pi * x) * np.sin(np.pi * y / 2.0)
    assert np.allclose(hs[0, 1], man, atol=1e-12)


def test_inter3_closed_form_example():
    # g = cos(pi x) on [0,1], p = 1: both sides have exact trig integrals
    f = CosineTestFunction([1.0], [0.0, 1.0, 0.0, 0.0])
    g = build_grid(1, 1.0, 512)
    _, grad, hess = f.sample(g)
    vol = g.cell_volume
    lhs = float(np.sum(np.abs(grad[0]) ** 4) * vol)
    rhs = (2.0 + 1.0) ** 2 * 1.0 * float(np.sum(hess[0, 0] ** 2) * vol)
    assert lhs == pytest.approx(3.0 * np.pi**4 / 8.0, rel=1e-12)
    assert rhs == pytest.approx(9.0 * np.pi**4 / 2.0, rel=1e-12)
    assert lhs <= rhs


def test_inequality_battery_holds_with_h_tolerance():
    for grid in (build_grid(1, 1.0, 512), build_grid(2, 1.0, (128, 128))):
        tol = 1.0 + 5.0 * grid.max_spacing
        for test_id in (0, 1, 2):
            for p in (1.0, 1.5, 2.0, 3.0):
                for chk in verify_interpolation_inequalities(test_id, p, grid):
                    assert chk.lhs <= chk.rhs * tol, (grid.dim, test_id, p, chk)


def test_inequality_battery_deterministic_and_finite():
    g = build_grid(1, 1.0, 512)
    a = verify_interpolation_inequalities(17, 1.5, g)
    b = verify_interpolation_inequalities(17, 1.5, g)
    assert [(c.name, c.lhs, c.rhs) for c in a] == [(c.name, c.lhs, c.rhs) for c in b]
    assert all(math.isfinite(c.lhs) and math.isfinite(c.rhs) for c in a)
    assert [c.name for c in a] == ["grad_pairing", "div_pairing", "grad_power"]


def test_inequality_battery_rejects_bad_exponent():
    with pytest.raises(ValueError, match="p must be"):
        verify_interpolation_inequalities(0, 0.5, build_grid(1, 1.0, 512))


# ---------------------------------------------------------------------------
# diagnostics assembly

def test_diagnostics_record_constant_state():
    g = build_grid(1, 1.0, 64)
    st = constant_state(g, c=2.0)
    rec = diagnostics_record(st, OFF, u0_mean=2.0)
    assert rec.mass_u == pytest.approx(2.0, abs=1e-13)
    assert rec.l2_u_dev == 0.0
    assert rec.F1 == 0.0
    assert math.isnan(rec.F2)
    assert rec.linf_grad_w == 0.0
    assert rec.min_u == 2.0
    assert rec.elliptic_residual == 0.0


def test_diagnostics_record_logistic_targets_b():
    p = ModelParams(chi=0.0, xi1=0.0, xi2=0.0, d=1.0, a=4.0, mu=1.0, theta=2.0, n_dim=1)
    g = build_grid(1, 1.0, 64)
    st = constant_state(g, c=2.0)  # b = (4/1)^(1/2) = 2
    rec = diagnostics_record(st, p, u0_mean=1.0)
    assert rec.l2_u_dev == 0.0
    assert rec.F2 == 0.0
    assert math.isnan(rec.F1)
    assert u_power_integral(st, p.theta) == pytest.approx(8.0, abs=1e-12)


def test_csv_values_align_with_column_names():
    rec = _record(1.25, 2.0)
    vals = rec.csv_values()
    assert len(vals) == len(TRAJECTORY_COLUMNS)
    assert vals[0] == 1.25
    assert vals[TRAJECTORY_COLUMNS.index("mass_u")] == 2.0


# ---------------------------------------------------------------------------
# batched diagnostics: every row is the record of its member alone

def reference_record(state, p, u0_mean):
    """A lone member's record, column by column from plain-numpy formulas."""
    grid, vol = state.grid, state.grid.cell_volume
    u, v = state.u.ravel(), state.v.ravel()
    if p.a > 0.0 and p.mu > 0.0:
        target = (p.a / p.mu) ** (1.0 / p.theta)
    else:  # damping alone takes u to 0; otherwise u keeps its mean or grows
        target = 0.0 if p.mu > 0.0 else u0_mean
    min_u = float(state.u.min())
    f1 = f2 = math.nan
    if min_u > 0.0 and p.a == 0.0 and p.mu == 0.0:
        f1 = lyap_F1(state, p.chi)
    elif min_u > 0.0 and p.a > 0.0 and p.mu > 0.0:
        f2 = lyap_F2(state, p)
    return DiagnosticsRecord(
        t=state.t,
        mass_u=float(np.sum(u) * vol),
        mass_v=float(np.sum(v) * vol),
        linf_u=float(np.max(np.abs(u))),
        linf_v=float(np.max(np.abs(v))),
        l2_u_dev=float(np.sum((u - target) ** 2) * vol) ** 0.5,
        l2_v_dev=float(np.sum((v - target) ** 2) * vol) ** 0.5,
        l2_grad_v=gradient_norm(state.v, grid),
        linf_grad_w=max(float(np.max(np.abs(g)))
                        for g in gradient_arrays(state.w, grid.spacing)),
        F1=f1,
        F2=f2,
        elliptic_residual=elliptic_residual(state.u, state.w, grid),
        min_u=min_u,
        min_v=float(state.v.min()),
    )


def record_bytes(rec):
    return np.array(rec.csv_values()).tobytes()


def loop_state(u, v, w, grid):
    """(uv, w, extrema, residuals) of (B, *cells) arrays u, v and w, as the time
    loop holds them: u's rows then v's in one array, that array's per-row max and
    min, and each member's potential residual, as the gate takes it."""
    uv = np.concatenate([u, v])
    residuals = np.array([elliptic_residual(ub, wb, grid) for ub, wb in zip(u, w)])
    return uv, w, row_extrema(uv, grid.dim), residuals


MEMBER_KINDS = {
    "growth_free": dict(a=0.0, mu=0.0, theta=1.0),       # F1
    "logistic_theta1": dict(a=1.0, mu=2.0, theta=1.0),   # F2
    "logistic_theta2": dict(a=1.5, mu=0.5, theta=2.0),   # F2
    "growth_only": dict(a=1.0, mu=0.0, theta=1.0),       # growing: neither
    "damping_only": dict(a=0.0, mu=1.0, theta=1.5),      # neither, measured against 0
}


def random_member(grid, kind, nonpositive, seed):
    """(state, params, u0_mean); nonpositive puts a u <= 0 cell in, as the
    central flux scheme can."""
    rng = np.random.default_rng(seed)
    u = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, grid.n_cells)
    if nonpositive:
        u[rng.integers(grid.n_cells)] = -0.1 * rng.uniform()
    v = 0.5 + 0.4 * rng.uniform(-1.0, 1.0, grid.n_cells)
    w, _res, _it = solve_neumann_poisson(grid, u.reshape(grid.cells) - u.mean(), 1e-10)
    state = SimState(0.375, grid, u.reshape(grid.cells), v.reshape(grid.cells), w)
    # with chi = 0, F1 and F2 are the entropy alone, and keep its last bits
    chi = 0.0 if rng.uniform() < 0.5 else rng.uniform(0.0, 2.0)
    p = ModelParams(chi=chi, xi1=1.0, xi2=1.0, d=rng.uniform(0.5, 3.0),
                    n_dim=grid.dim, **MEMBER_KINDS[kind])
    return state, p, float(rng.uniform(0.5, 1.5))


def assert_batch_matches_lone_members(grid, members):
    """-> the batch's records, checked row by row against each member alone."""
    states, ps, u0s = zip(*members)
    batch = loop_state(*(np.stack([getattr(s, name) for s in states]) for name in "uvw"), grid)
    with np.errstate(invalid="ignore"):  # u <= 0 to a fractional power is nan either way
        rows = diagnostics_batch(0.375, *batch, grid, ps, u0s)
        assert len(rows) == len(members)
        for row, state, p, u0 in zip(rows, states, ps, u0s):
            expected = record_bytes(reference_record(state, p, u0))
            assert record_bytes(diagnostics_record(state, p, u0)) == expected
            assert record_bytes(row) == expected
    return rows


@pytest.mark.parametrize("dim, cells", [(1, 50), (2, (12, 20))])
def test_diagnostics_batch_of_every_member_kind(dim, cells):
    grid = build_grid(dim, (1.0, 1.5)[:dim], cells)
    kinds = list(MEMBER_KINDS) * 3 + ["growth_free", "logistic_theta2"]
    nonpositive = [False] * (len(kinds) - 2) + [True] * 2
    members = [random_member(grid, kind, nonpos, seed)
               for seed, (kind, nonpos) in enumerate(zip(kinds, nonpositive))]
    # one batch holds all four growth regimes
    assert {p.growth.name for _, p, _ in members} == {
        "growth-free", "logistic", "damping-only", "growing"}
    rows = assert_batch_matches_lone_members(grid, members)
    for rec, (state, _, _), kind, nonpos in zip(rows, members, kinds, nonpositive):
        assert math.isnan(rec.F1) != (kind == "growth_free" and not nonpos)
        assert math.isnan(rec.F2) != (kind.startswith("logistic") and not nonpos)
        if kind == "damping_only":
            assert rec.l2_u_dev == float(np.sum(state.u ** 2) * grid.cell_volume) ** 0.5


@settings(max_examples=100, deadline=None)
@given(dim=st.sampled_from([1, 2]), data=st.data())
def test_diagnostics_batch_rows_match_lone_members(dim, data):
    cells = tuple(data.draw(st.integers(4, 64), label=f"cells[{k}]") for k in range(dim))
    grid = build_grid(dim, (1.0, 1.5)[:dim], cells)
    kinds = data.draw(st.lists(st.sampled_from(sorted(MEMBER_KINDS)), min_size=1, max_size=5),
                      label="kinds")
    members = [random_member(grid, kind, data.draw(st.booleans(), label="nonpositive"),
                             data.draw(st.integers(0, 2**32 - 1), label="seed"))
               for kind in kinds]
    assert_batch_matches_lone_members(grid, members)


ROW_KINDS = ("positive", "signed_zeros", "negative", "non_finite", "huge", "tiny")


def extreme_row(kind, shape, rng):
    """One row of values of the given kind, shaped like the cells."""
    if kind == "signed_zeros":  # +0.0 and -0.0 mixed
        return np.where(rng.uniform(size=shape) < 0.5, 0.0, -0.0)
    if kind == "negative":  # the central scheme can take u and v below 0
        return rng.uniform(-1.0, 0.5, shape)
    if kind == "huge":
        return rng.uniform(-1.0, 1.0, shape) * 1e300
    if kind == "tiny":
        return rng.uniform(-1.0, 1.0, shape) * 1e-300
    row = rng.uniform(0.5, 1.5, shape)
    if kind == "non_finite":  # -nan too: inf - inf reads nan with its sign bit set
        cells = rng.choice(row.size, size=rng.integers(1, 4), replace=False)
        row.flat[cells] = rng.choice([np.nan, -np.nan, np.inf, -np.inf], size=len(cells))
    return row


@settings(max_examples=100, deadline=None)
@given(dim=st.sampled_from([1, 2]), data=st.data())
def test_record_minima_and_sup_norms_are_the_row_passes(dim, data):
    # min_* and linf_* come from the step's per-row extrema; they keep the bits
    # of a min pass and an |.| max pass over each row, signed zeros and nan too
    cells = tuple(data.draw(st.integers(4, 24), label=f"cells[{k}]") for k in range(dim))
    grid = build_grid(dim, (1.0, 1.5)[:dim], cells)
    n = data.draw(st.integers(1, 5), label="B")
    kinds = data.draw(st.lists(st.sampled_from(ROW_KINDS), min_size=2 * n, max_size=2 * n),
                      label="row kinds")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    uv = np.stack([extreme_row(kind, grid.cells, rng) for kind in kinds])
    w = rng.uniform(-1.0, 1.0, (n,) + grid.cells)
    params = [ModelParams(chi=0.5, xi1=1.0, xi2=1.0, d=1.0, n_dim=dim,
                          **MEMBER_KINDS[data.draw(st.sampled_from(sorted(MEMBER_KINDS)),
                                                   label="kind")])
              for _ in range(n)]
    with np.errstate(all="ignore"):
        rows = diagnostics_batch(0.0, uv, w, row_extrema(uv, dim), np.zeros(n), grid, params,
                                 [1.0] * n)
    mins, sups = row_minima_and_sup_norms(uv)
    got_mins = [r.min_u for r in rows] + [r.min_v for r in rows]
    got_sups = [r.linf_u for r in rows] + [r.linf_v for r in rows]
    assert np.array(got_mins).tobytes() == mins.tobytes()
    assert np.array(got_sups).tobytes() == sups.tobytes()


def test_deviation_norms_of_a_member_beyond_the_square_range():
    # |u - target| ~ 2^540 ~ 3.6e162 overflows its square: that member's norms
    # are taken at a power-of-two scale, so they are its unscaled twin's norms
    # times 2^540 exactly, and its neighbour keeps the bits of its lone call
    grid = build_grid(1, 1.0, 64)
    lone, p, u0 = random_member(grid, "growth_only", False, 3)
    big = 2.0 ** 540
    batch = loop_state(*(np.stack([a, big * a]) for a in (lone.u, lone.v, lone.w)), grid)
    with np.errstate(over="ignore", invalid="ignore"):
        near, far = diagnostics_batch(lone.t, *batch, grid, [p, p], [u0, big * u0])
    assert record_bytes(near) == record_bytes(diagnostics_record(lone, p, u0))
    assert far.l2_u_dev == big * near.l2_u_dev and far.l2_v_dev == big * near.l2_v_dev


@pytest.mark.parametrize("dim", [1, 2])
def test_gradient_norm_of_a_member_beyond_the_square_range(dim):
    # |grad v| ~ 2^540 overflows its square: l2_grad_v is taken at a
    # power-of-two scale over all axes, so it is the twin's times 2^540 exactly
    grid = build_grid(dim, (1.0, 1.5)[:dim], (64, 48)[:dim])
    lone, p, u0 = random_member(grid, "growth_free", False, 5)
    big = 2.0 ** 540
    batch = loop_state(*(np.stack([a, big * a]) for a in (lone.u, lone.v, lone.w)), grid)
    with np.errstate(over="ignore", invalid="ignore"):
        near, far = diagnostics_batch(lone.t, *batch, grid, [p, p], [u0, big * u0])
    assert record_bytes(near) == record_bytes(diagnostics_record(lone, p, u0))
    assert math.isfinite(far.l2_grad_v) and far.l2_grad_v == big * near.l2_grad_v


@pytest.mark.parametrize("theta", [1.0, 2.0])
def test_f2_of_a_cell_far_below_the_carrying_state_is_finite(theta):
    # at u = 1e-17 b, z = u/b - 1 rounds to -1 and log1p(z) would read -inf;
    # the integrand u - b - b log(u/b) is finite there, and the other members
    # keep the bytes of their lone records
    grid = build_grid(1, 1.0, 8)
    p = ModelParams(chi=0.5, xi1=1.0, xi2=1.0, d=1.5, a=2.0, mu=0.5, theta=theta, n_dim=1)
    b = (p.a / p.mu) ** (1.0 / p.theta)
    u = np.linspace(0.5, 1.5, 8) * b
    u[3] = 1e-17 * b
    low = state_of(grid, u, np.full(8, 0.7))
    high, q, u0 = random_member(grid, "logistic_theta2", False, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = diagnostics_record(low, p, 1.0)
        batch = loop_state(*(np.stack([getattr(s, name) for s in (high, low)])
                             for name in "uvw"), grid)
        rows = diagnostics_batch(0.375, *batch, grid, [q, p], [u0, 1.0])
    assert math.isfinite(rec.F2) and rec.F2 > 0.0
    assert record_bytes(rec) == record_bytes(reference_record(low, p, 1.0))
    assert record_bytes(rows[1]) == record_bytes(dataclasses.replace(rec, t=0.375))
    assert record_bytes(rows[0]) == record_bytes(diagnostics_record(high, q, u0))


def test_f1_of_a_cell_far_below_the_mean_is_finite():
    # at u = 1e-17 ubar, z = u/ubar - 1 rounds to -1 and (1 + z) log1p(z) would
    # read 0 * -inf; the term (1 + z) log(u/ubar) - z is about 1 there, and the
    # other members keep the bytes of their lone records
    grid = build_grid(1, 1.0, 8)
    p = ModelParams(chi=0.5, xi1=1.0, xi2=1.0, d=1.5, a=0.0, mu=0.0, theta=1.0, n_dim=1)
    u = np.linspace(0.5, 1.5, 8)
    u[3] = 1e-17 * u.mean()
    low = state_of(grid, u, np.linspace(0.6, 0.9, 8))
    high, q, u0 = random_member(grid, "growth_free", False, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ent = relative_entropy(u, grid)
        rec = diagnostics_record(low, p, 1.0)
        batch = loop_state(*(np.stack([getattr(s, name) for s in (high, low)])
                             for name in "uvw"), grid)
        rows = diagnostics_batch(0.375, *batch, grid, [q, p], [u0, 1.0])
        expected = reference_record(low, p, 1.0)
    assert math.isfinite(ent) and ent > 0.0 and ent == entropy(u, grid)
    assert math.isfinite(rec.F1) and rec.F1 > ent
    assert record_bytes(rec) == record_bytes(expected)
    assert record_bytes(rows[1]) == record_bytes(dataclasses.replace(rec, t=0.375))
    assert record_bytes(rows[0]) == record_bytes(diagnostics_record(high, q, u0))


def test_a_2d_record_stays_within_three_grid_arrays():
    # two scratch arrays shared by every column, and a third only for squares
    # and F1's 1 + z: three grid arrays, 1.57 MB at 256^2, on the state as the
    # time loop holds it
    grid = build_grid(2, 1.0, (256, 256))
    rng = np.random.default_rng(4)
    u = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, grid.cells)
    state = state_of(grid, u, 1.0 + 0.1 * rng.uniform(-1.0, 1.0, grid.cells))
    p = ModelParams(chi=0.5, xi1=1.0, xi2=1.0, d=1.0, a=1.0, mu=1.0, theta=1.0, n_dim=2)
    batch = loop_state(*(a[np.newaxis] for a in (state.u, state.v, state.w)), grid)
    diagnostics_batch(state.t, *batch, grid, [p], [1.0])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        diagnostics_batch(state.t, *batch, grid, [p], [1.0])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.6e6


def test_a_record_costs_about_linear_time_in_its_members():
    # on 1D-16 a sweep ensemble holds up to 4096 members; a record whose per-member
    # work scanned a list of the F1 or F2 rows took 22 to 24 times as long at 4096
    # members as at 512, where linear work takes 8 to 9 times as long. The ratio of
    # the fastest of several calls cancels the host's speed, and a call slowed by
    # another process does not count.
    grid = build_grid(1, 1.0, 16)
    rng = np.random.default_rng(5)
    growth_free = ModelParams(chi=0.5, xi1=1.0, xi2=1.0, d=1.0, a=0.0, mu=0.0, theta=1.0, n_dim=1)
    logistic = dataclasses.replace(growth_free, a=1.0, mu=1.0)

    def fastest_time(n):
        batch = loop_state(*(rng.uniform(0.5, 1.5, (n,) + grid.cells) for _ in range(3)), grid)
        params = [growth_free, logistic] * (n // 2)
        times = []
        for _ in range(9):
            start = time.perf_counter()
            diagnostics_batch(0.0, *batch, grid, params, [1.0] * n)
            times.append(time.perf_counter() - start)
        return min(times)

    fastest_time(512)  # warm-up
    assert fastest_time(4096) <= 15 * fastest_time(512)
