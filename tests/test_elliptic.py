import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import dct, dctn, idct, idctn
from scipy.sparse.linalg import spsolve

from angiosim import elliptic
from angiosim.dynamics import ModelParams, SolverConfig, Stepper
from angiosim.elliptic import (
    EllipticSolveError,
    apply_packed,
    elliptic_residual,
    neumann_eigenvalues,
    pack_multiplier,
    solve_neumann_poisson,
    spectral_info,
)
from angiosim.functionals import grad_l2
from angiosim.grid import (
    build_grid,
    integrate,
    laplacian_array,
    lp_norm,
)
import oracles

TOL = 1e-10


def random_positive_field(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 2.0, grid.cells)


def test_config_validation():
    for bad in (0.1, 0.0, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            SolverConfig(dt=0.01, t_end=1.0, elliptic_tolerance=bad)


def test_cosine_mode_has_explicit_potential():
    # -w'' = cos(pi x) with zero flux: w = cos(pi x)/pi^2
    g = build_grid(1, 1.0, 256)
    x = g.axis_centers(0)
    u = 1.0 + np.cos(np.pi * x)
    w = solve_neumann_poisson(g, u, TOL)[0]
    exact = np.cos(np.pi * x) / np.pi**2
    rel = np.max(np.abs(w - exact)) / np.max(np.abs(exact))
    assert rel <= 1e-3
    assert abs(integrate(w, g)) <= 1e-12 * max(1.0, lp_norm(w, g, math.inf))
    assert elliptic_residual(u, w, g) <= 1e-10


def test_constant_density_gives_zero_potential():
    g = build_grid(2, 1.0, (16, 16))
    w = solve_neumann_poisson(g, np.full(g.cells, 1.3), TOL)[0]
    assert np.max(np.abs(w)) == 0.0


def test_random_density_residual_and_gauge():
    for dim, cells in ((1, 128), (2, (24, 24))):
        g = build_grid(dim, 1.0, cells)
        u = random_positive_field(g, seed=dim)
        w = solve_neumann_poisson(g, u, TOL)[0]
        assert elliptic_residual(u, w, g) <= 1e-10
        assert abs(integrate(w, g)) <= 1e-12 * max(1.0, lp_norm(w, g, math.inf))


def test_solve_is_linear():
    g = build_grid(1, 1.0, 128)
    u1 = random_positive_field(g, 3)
    u2 = random_positive_field(g, 4)
    w_combo = solve_neumann_poisson(g, 2.0 * u1 - 0.5 * u2, TOL)[0]
    w_sum = (2.0 * solve_neumann_poisson(g, u1, TOL)[0]
             - 0.5 * solve_neumann_poisson(g, u2, TOL)[0])
    assert np.max(np.abs(w_combo - w_sum)) <= 1e-8


def test_missed_tolerance_raises_at_once_with_residual():
    # a 1e-17 tolerance is below float64's reach: the single transform pair
    # misses, and the error reports exactly the residual that pair achieved
    g = build_grid(1, 1.0, 128)
    rhs = random_positive_field(g, 5)
    _w, achieved, passes = solve_neumann_poisson(g, rhs, 1e-4)
    assert passes == 1
    with pytest.raises(EllipticSolveError, match="relative residual") as err:
        solve_neumann_poisson(g, rhs, 1e-17)
    assert err.value.achieved_residual == achieved > 1e-17


@pytest.mark.parametrize("g", [build_grid(1, 1.0, 128), build_grid(2, (1.0, 2.0), (12, 20))],
                         ids=["128", "12x20"])
def test_batched_solve_matches_single_solves_and_gates_each_member(g):
    # each member of a (B, *cells) batch gets the bits of its own solve, and
    # the gate reports every member's residual
    members = [random_positive_field(g, seed) for seed in (6, 7, 8)]
    members[1] = np.full(g.cells, 1.5)  # a member with zero right-hand side
    w, worst, passes = solve_neumann_poisson(g, np.stack(members), TOL)
    singles = [solve_neumann_poisson(g, m, TOL) for m in members]
    assert passes == 1 and worst == max(res for _w, res, _p in singles)
    for wb, (ws, _res, _p) in zip(w, singles):
        assert wb.tobytes() == ws.tobytes()
    tol = 0.5 * (singles[0][1] + singles[2][1])  # between the two nonzero members
    lo, hi = sorted((0, 2), key=lambda i: singles[i][1])
    assert singles[lo][1] < tol < singles[hi][1]
    with pytest.raises(EllipticSolveError) as err:
        solve_neumann_poisson(g, np.stack(members), tol)
    assert list(err.value.residuals) == [singles[i][1] for i in range(3)]
    assert err.value.achieved_residual == singles[hi][1]
    assert "%.3e" % singles[lo][1] in err.value.member_message(lo)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rhs_fails_the_gate(bad):
    g = build_grid(1, 1.0, 64)
    rhs = random_positive_field(g, 9)
    rhs[3] = bad
    good = random_positive_field(g, 10)
    with np.errstate(invalid="ignore"):
        with pytest.raises(EllipticSolveError):
            solve_neumann_poisson(g, rhs, TOL)
        with pytest.raises(EllipticSolveError) as err:
            solve_neumann_poisson(g, np.stack([good, rhs]), TOL)
    assert err.value.residuals[0] <= TOL
    assert np.isnan(err.value.residuals[1])


def test_residual_of_a_member_beyond_the_square_range():
    # |rhs| ~ 1e160 overflows rhs * rhs; that member is rescaled by a power
    # of two, and its neighbour keeps the bits of its lone residual
    g = build_grid(1, 1.0, 128)
    lone = random_positive_field(g, 11)
    u = np.stack([lone, 1e160 * random_positive_field(g, 12)])
    res = np.empty(2)  # the gate's own residuals, its work's last slot
    w, worst, _p = solve_neumann_poisson(g, u, TOL, (None,) * 5 + (res,))
    assert 0.0 < res[1] < 1e-13 and worst == res.max()
    assert res[0] == elliptic_residual(lone, w[0], g)
    # a power-of-two scale is exact: the residual is the unscaled one's
    big = 2.0 ** 540
    assert elliptic_residual(big * lone, big * w[0], g) == res[0]


def mutant_inverse(g, mode):
    """The potential's packed multiplier with one mode's 1/lambda off by 1e-6."""
    lam = neumann_eigenvalues(g)
    mult = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0.0)
    mult[mode] *= 1.0 + 1e-6
    return pack_multiplier(mult, g.dim)


def gate_data(g, data):
    """A cosine bump or uniform random data on a 1D grid."""
    return 1.0 + 0.2 * np.cos(np.pi * g.axis_centers(0)) if data == "cosine" else \
        np.random.default_rng(0).uniform(0.5, 2.0, g.cells)


@pytest.mark.parametrize("data, mode, cells", [
    (data, mode, cells)
    for data, mode in (("cosine", "lowest"), ("random", "lowest"), ("random", "middle"))
    for cells in (128, 2048)
] + [("cosine", "lowest", 16384), ("random", "lowest", 16384)])
def test_a_multiplier_off_by_1e6_fails_the_gate(monkeypatch, cells, data, mode):
    # an exact solve passes at 2048 cells only on its backward error (about
    # 1e-16 against a relative residual of 1.3e-10 on the cosine); one mode
    # off by 1e-6 reads a backward error of 1e-13 or more there, 1e-10 at 128
    # cells and 9e-15 at 16384, against the floor of 1e-15
    g = build_grid(1, 1.0, cells)
    u = gate_data(g, data)
    solve_neumann_poisson(g, u, TOL)
    monkeypatch.setattr(elliptic, "_pseudo_inverse",
                        lambda grid: mutant_inverse(grid, 1 if mode == "lowest" else cells // 2))
    with pytest.raises(EllipticSolveError):
        solve_neumann_poisson(g, u, TOL)


@pytest.mark.parametrize("data", ["cosine", "random"])
def test_an_exact_solve_at_65536_cells_passes_the_gate(data):
    # the finest 1D grid the floor was measured on: the relative residual
    # misses 1e-10, and the backward error reads 2e-16 or less
    g = build_grid(1, 1.0, 65536)
    _w, res, _p = solve_neumann_poisson(g, gate_data(g, data), TOL)
    assert res > TOL


def test_the_backward_error_floor_follows_a_tighter_tolerance():
    # at 2048 cells the cosine's exact solve misses 1e-10 on its relative
    # residual and passes on its backward error; below 1e-10 the floor is
    # 1e-4 of the tolerance, so a 1e-13 tolerance refuses the same solve
    g = build_grid(1, 1.0, 2048)
    u = 1.0 + 0.2 * np.cos(np.pi * g.axis_centers(0))
    _w, res, _p = solve_neumann_poisson(g, u, TOL)
    assert res > TOL
    with pytest.raises(EllipticSolveError):
        solve_neumann_poisson(g, u, 1e-13)


def test_a_member_passing_on_its_backward_error_is_not_reported():
    # the cosine member misses 1e-10 on its relative residual and passes on
    # its backward error; the error marks and names only the non-finite one
    g = build_grid(1, 1.0, 2048)
    cosine = 1.0 + 0.2 * np.cos(np.pi * g.axis_centers(0))
    bad = cosine.copy()
    bad[3] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(EllipticSolveError) as err:
        solve_neumann_poisson(g, np.stack([cosine, bad]), TOL)
    assert err.value.residuals[0] > TOL
    assert list(err.value.failed) == [False, True]
    assert str(err.value) == err.value.member_message(1)


@pytest.mark.parametrize("cells", [(128,), (7,), (12, 20)], ids=["128", "7", "12x20"])
def test_zero_rhs_solves_to_positive_zero(cells):
    # the general path needs no zero shortcut: its one transform pair maps a
    # zero right-hand side to +0.0 everywhere, single and batched
    g = build_grid(len(cells), (1.0,) * len(cells), cells)
    for rhs in (np.zeros(g.cells), np.zeros((3, *g.cells))):
        w, res, it = solve_neumann_poisson(g, rhs, TOL)
        assert w.shape == rhs.shape and res == 0.0 and it == 1
        assert np.all(w == 0.0) and not np.signbit(w).any()


# ---------------------------------------------------------------------------
# spectral constants

def test_lambda1_interval_matches_continuum_and_dispersion():
    g = build_grid(1, 1.0, 256)
    info = spectral_info(g)
    assert abs(info.lambda1 - np.pi**2) / np.pi**2 <= 1e-3
    # the closed form is the discrete eigenvalue, not the continuum one
    n, h = 256, 1.0 / 256
    discrete = 2.0 / h**2 * (1.0 - np.cos(np.pi * h))
    assert abs(info.lambda1 - discrete) / discrete <= 1e-6
    assert info.poincare_cp == pytest.approx(info.lambda1 ** -0.5, rel=1e-14)


def test_lambda1_rectangle_longest_axis_mode():
    g = build_grid(2, [1.0, 2.0], [32, 64])
    info = spectral_info(g)
    assert abs(info.lambda1 - (np.pi / 2.0) ** 2) / (np.pi / 2.0) ** 2 <= 2e-3


def test_lambda1_square_degenerate_pair():
    g = build_grid(2, 1.0, (48, 48))
    info = spectral_info(g)
    assert abs(info.lambda1 - np.pi**2) / np.pi**2 <= 2e-3


def test_discrete_poincare_on_random_fields():
    # ||f||_2 <= (cp + 3h) ||grad f||_2 for zero-mean f; 500 draws
    for dim, cells, n_draws, seed in ((1, 128, 250, 10), (2, (32, 32), 250, 11)):
        g = build_grid(dim, 1.0, cells)
        info = spectral_info(g)
        bound = info.poincare_cp + 3.0 * g.max_spacing
        rng = np.random.default_rng(seed)
        for _ in range(n_draws):
            f = rng.normal(size=g.cells)
            f -= f.mean()
            l2 = lp_norm(f, g, 2)
            gn = grad_l2(f, g)
            assert l2 <= bound * gn


def test_potential_gradient_and_laplacian_bounds():
    # ||grad w|| <= C_p ||u - b|| and ||lap w|| <= ||u - b|| for b = mean, 1
    g = build_grid(1, 1.0, 128)
    info = spectral_info(g)
    cp = info.poincare_cp + 3.0 * g.max_spacing
    for seed in range(6):
        u = random_positive_field(g, 100 + seed)
        w = solve_neumann_poisson(g, u, TOL)[0]
        gw = grad_l2(w, g)
        lw = lp_norm(laplacian_array(w, g.spacing), g, 2)
        for b in (float(u.mean()), 1.0):
            # equality holds at b = mean up to the 1e-10 solve tolerance
            dev = lp_norm(u - b, g, 2)
            assert gw <= cp * dev * (1.0 + 1e-9) + 1e-12
            assert lw <= dev * (1.0 + 1e-9) + 1e-12


# ---------------------------------------------------------------------------
# the DCT-II operator against an assembled sparse matrix

def neumann_laplacian_matrix(grid):
    """Sparse matrix form of `laplacian_array` (flattened row-major ordering)."""
    mats = []
    for n, h in zip(grid.cells, grid.spacing):
        main = -2.0 * np.ones(n)
        main[0] = -1.0  # mirror ghost: boundary row loses one neighbor
        main[-1] = -1.0
        off = np.ones(n - 1)
        mats.append(sp.diags([off, main, off], [-1, 0, 1]) / (h * h))
    if grid.dim == 1:
        return mats[0].tocsc()
    eye0 = sp.identity(grid.cells[0])
    eye1 = sp.identity(grid.cells[1])
    return (sp.kron(mats[0], eye1) + sp.kron(eye0, mats[1])).tocsc()


ORACLE_GRIDS = [
    build_grid(1, 1.0, 4),
    build_grid(1, 1.0, 7),
    build_grid(2, (1.0, 2.0), (5, 7)),
]


@pytest.mark.parametrize("g", ORACLE_GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
def test_eigenvalues_match_matrix_spectrum(g):
    lap = neumann_laplacian_matrix(g).toarray()
    dense = np.sort(np.linalg.eigvalsh(-lap))
    lam = neumann_eigenvalues(g)
    assert lam.shape == g.cells and lam.flat[0] == 0.0
    assert np.allclose(np.sort(lam.ravel()), dense, rtol=0.0, atol=1e-12 * dense[-1])
    assert spectral_info(g).lambda1 == pytest.approx(dense[1], rel=1e-12)


@pytest.mark.parametrize("g", ORACLE_GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
def test_potential_solve_matches_sparse_oracle(g):
    u = random_positive_field(g, 21)
    rhs = (u - u.mean()).ravel()
    # -lap + (1/N) 11^T is nonsingular and maps zero-mean w to -lap w
    oracle = spsolve(sp.csc_matrix(-neumann_laplacian_matrix(g).toarray() + 1.0 / g.n_cells), rhs)
    w = solve_neumann_poisson(g, u, TOL)[0]
    assert np.max(np.abs(w.ravel() - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    assert elliptic_residual(u, w, g) <= 1e-12
    assert abs(integrate(w, g)) <= 1e-14 * max(1.0, lp_norm(w, g, math.inf))


@pytest.mark.parametrize("g", ORACLE_GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
def test_implicit_diffusions_match_sparse_oracle(g):
    # with every coupling and the reaction off, one step is exactly
    # u1 = (I - dt lap)^-1 u0 and v1 = ((1+dt) I - dt d lap)^-1 (v0 + dt u0)
    dt, d = 0.05, 0.7
    p = ModelParams(chi=0.0, xi1=0.0, xi2=0.0, d=d, a=0.0, mu=0.0, theta=1.0, n_dim=g.dim)
    u0 = random_positive_field(g, 31)
    v0 = random_positive_field(g, 32)
    uv0, w0 = np.stack([u0, v0]), solve_neumann_poisson(g, u0, TOL)[0][np.newaxis]
    (u1, v1), _w1 = Stepper(g, [p], SolverConfig(dt=dt, t_end=1.0)).step(0.0, uv0, w0)

    lap = neumann_laplacian_matrix(g)
    eye = sp.identity(g.n_cells, format="csc")
    u_ref = spsolve((eye - dt * lap).tocsc(), u0.ravel())
    v_ref = spsolve(((1.0 + dt) * eye - dt * d * lap).tocsc(), (v0 + dt * u0).ravel())
    assert np.max(np.abs(u1.ravel() - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
    assert np.max(np.abs(v1.ravel() - v_ref)) <= 1e-12 * np.max(np.abs(v_ref))


def packed_row(stepper, row):
    """Row row of the stepper's packed diffusion multipliers: u's are rows 0..B-1,
    v's B..2B-1."""
    return tuple(arr[row] for arr in stepper._packed_uv)


def test_zero_mode_multipliers_are_exact():
    # the packed arrays open with (M(0), M(-0)) on 1D grids and (M(0,0), M(0,-0))
    # on 2D grids: both halves of the constant mode
    dt = 0.013
    for g in ORACLE_GRIDS:
        p = ModelParams(chi=0.5, xi1=1.0, xi2=1.0, d=2.5, a=0.0, mu=0.0, theta=1.0, n_dim=g.dim)
        stepper = Stepper(g, [p], SolverConfig(dt=dt, t_end=1.0))
        u_mult, v_mult = (packed_row(stepper, row)[0].ravel()[:2] for row in (0, 1))
        assert u_mult.tolist() == [1.0, 1.0]
        assert v_mult.tolist() == [1.0 / (1.0 + dt)] * 2


# ---------------------------------------------------------------------------
# the 1D transform pair (numpy.fft, Makhoul reordering) against scipy.fft

MAKHOUL_SIZES = [4, 5, 7, 8, 128, 129]


@pytest.mark.parametrize("n", MAKHOUL_SIZES)
def test_1d_operator_matches_scipy_dct(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((3, n))
    per_member = rng.uniform(0.1, 2.0, (3, n))
    for mult in (per_member[0], per_member):  # shared and per-member multipliers
        oracle = idct(dct(x, type=2, norm="ortho") * mult, type=2, norm="ortho")
        y = apply_packed(x, pack_multiplier(mult, 1))
        assert y.flags.c_contiguous
        assert np.max(np.abs(y - oracle)) <= 1e-14 * np.max(np.abs(oracle))
        for b in range(3):
            row = apply_packed(x[b], pack_multiplier(mult if mult.ndim == 1 else mult[b], 1))
            assert y[b].tobytes() == row.tobytes()


@pytest.mark.parametrize("n", MAKHOUL_SIZES)
def test_1d_zero_mode_multipliers_keep_mass_laws(n):
    # sum(u1) = sum(u*) through 1/(1 + dt lam), (1+dt) sum(v1) = sum(v*) through
    # 1/(1 + dt + dt d lam)
    dt = 0.013
    g = build_grid(1, 1.0, n)
    p = ModelParams(chi=0.5, xi1=1.0, xi2=1.0, d=2.5, a=0.0, mu=0.0, theta=1.0, n_dim=1)
    stepper = Stepper(g, [p], SolverConfig(dt=dt, t_end=1.0))
    x = np.stack([random_positive_field(g, seed) for seed in (n, n + 1)])
    mass = x.sum(axis=-1)
    u1 = apply_packed(x, packed_row(stepper, 0)).sum(axis=-1)
    v1 = apply_packed(x, packed_row(stepper, 1)).sum(axis=-1)
    assert np.all(np.abs(u1 - mass) <= 1e-13 * mass)
    assert np.all(np.abs((1.0 + dt) * v1 - mass) <= 1e-13 * mass)


# ---------------------------------------------------------------------------
# the 2D transform pair (numpy.fft, Makhoul reordering of both axes) against scipy.fft

MAKHOUL_SHAPES_2D = [(4, 6), (5, 7), (7, 12), (6, 5), (8, 8), (9, 9), (256, 256)]


@pytest.mark.parametrize("shape", MAKHOUL_SHAPES_2D)
def test_2d_operator_matches_scipy_dctn(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal((3,) + shape)
    per_member = rng.uniform(0.1, 2.0, (3,) + shape)
    for mult in (per_member[0], per_member):  # shared and per-member multipliers
        oracle = idctn(dctn(x, type=2, norm="ortho", axes=(-2, -1)) * mult,
                       type=2, norm="ortho", axes=(-2, -1))
        y = apply_packed(x, pack_multiplier(mult, 2))
        assert y.flags.c_contiguous
        assert np.max(np.abs(y - oracle)) <= 1e-14 * np.max(np.abs(oracle))
        for b in range(3):
            row = apply_packed(x[b], pack_multiplier(mult if mult.ndim == 2 else mult[b], 2))
            assert y[b].tobytes() == row.tobytes()


@pytest.mark.parametrize("shape", MAKHOUL_SHAPES_2D[:-1])
def test_2d_zero_mode_multipliers_keep_mass_laws(shape):
    dt = 0.013
    g = build_grid(2, (1.0, 1.5), shape)
    p = ModelParams(chi=0.5, xi1=1.0, xi2=1.0, d=2.5, a=0.0, mu=0.0, theta=1.0, n_dim=2)
    stepper = Stepper(g, [p], SolverConfig(dt=dt, t_end=1.0))
    x = np.stack([random_positive_field(g, seed) for seed in (7, 8)])
    mass = x.sum(axis=(-2, -1))
    u1 = apply_packed(x, packed_row(stepper, 0)).sum(axis=(-2, -1))
    v1 = apply_packed(x, packed_row(stepper, 1)).sum(axis=(-2, -1))
    assert np.all(np.abs(u1 - mass) <= 1e-13 * mass)
    assert np.all(np.abs((1.0 + dt) * v1 - mass) <= 1e-13 * mass)


@pytest.mark.parametrize("cells", [(7,), (8,), (5, 7), (6, 8), (9, 4)],
                         ids=lambda c: "x".join(map(str, c)))
def test_apply_packed_in_place_matches_the_allocating_call(cells):
    rng = np.random.default_rng(sum(cells))
    x = rng.standard_normal((3,) + cells)
    for mult in (rng.uniform(0.1, 2.0, cells), rng.uniform(0.1, 2.0, (3,) + cells)):
        packed = pack_multiplier(mult, len(cells))
        want = apply_packed(x, packed)
        y = x.copy()
        assert apply_packed(y, packed, out=y) is y
        assert y.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_members", [1, 3])
@pytest.mark.parametrize("cells", [(7,), (8,), (5, 7), (6, 8), (9, 4)],
                         ids=lambda c: "x".join(map(str, c)))
def test_apply_packed_with_caller_buffers_matches_the_fresh_buffer_call(cells, n_members):
    # the buffers hold NaN before each call, so a value read before it is written
    # would show; they are also carved from a longer flat array, as a stepper passes
    # them, sized for the whole batch, with the butterfly's terms in the reordered
    # input's memory; and each row of the batched call has the bytes of its lone call, with
    # a shared multiplier and with a row per member
    rng = np.random.default_rng(sum(cells) + n_members)
    shape = (n_members,) + cells
    x = rng.standard_normal(shape)
    fresh = elliptic.transform_buffers(shape, len(cells))
    memory = np.empty(elliptic.transform_floats(shape, len(cells)) + 6)[2:]
    carved = elliptic.transform_buffers(shape, len(cells), memory)
    assert all(np.shares_memory(a, memory) for a in carved if a.size)
    assert (len(cells) == 1) == (carved[3].size == 0)  # 1D has no butterfly
    for buffers in (fresh, carved):
        v, z, zf, t = buffers
        assert np.shares_memory(z, zf) and not np.shares_memory(z, v)
        assert t.size == 0 or np.shares_memory(t, v)
    sets = [fresh, carved]
    for mult in (rng.uniform(0.1, 2.0, cells), rng.uniform(0.1, 2.0, shape)):
        packed = pack_multiplier(mult, len(cells))
        want = apply_packed(x, packed)
        for b in range(n_members):
            row = packed if mult.ndim == len(cells) else tuple(a[b] for a in packed)
            assert apply_packed(x[b], row).tobytes() == want[b].tobytes()
        for buffers in sets:
            for out in (None, x.copy()):
                for a in buffers:
                    a[...] = np.nan
                vals = x if out is None else out  # the second call runs in place
                got = apply_packed(vals, packed, out=out, buffers=buffers)
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", MAKHOUL_SHAPES_2D[:-1] + [(4, 4), (5, 4), (33, 17)])
def test_2d_packing_matches_the_fancy_index_oracle(shape):
    # the packing keeps p's rows 0..n1 // 2 and q's rows 1..n1 // 2, since row
    # n1 - k of either is row k with its halves swapped, bit for bit; the oracle
    # gathers every row, and its q starts at row 1
    rng = np.random.default_rng(sum(shape))
    rows = shape[0] // 2
    for mult in (rng.uniform(0.1, 2.0, shape), rng.uniform(0.1, 2.0, (3,) + shape)):
        (p, q), (oracle_p, oracle_q) = pack_multiplier(mult, 2), oracles.pack_2d(mult)
        for got, want in ((p, oracle_p[..., :rows + 1, :, :]), (q, oracle_q[..., :rows, :, :])):
            assert got.shape == want.shape and got.flags.c_contiguous and not got.flags.writeable
            assert got.tobytes() == want.tobytes()
        for k in range(1, shape[0]):
            assert oracle_p[..., -k, :, :].tobytes() == oracle_p[..., k, :, ::-1].tobytes()
            assert oracle_q[..., -k, :, :].tobytes() == oracle_q[..., k - 1, :, ::-1].tobytes()


@pytest.mark.parametrize("shape", MAKHOUL_SHAPES_2D + [(33, 24), (64, 64)])
def test_2d_butterfly_has_the_bytes_of_the_pair_on_every_row(shape):
    # the pair takes the packed rows j and n1 - j as one butterfly, with a middle
    # row paired with itself only for an even n1; with shared and per-member
    # multipliers, fresh, carved and in-place calls each give the bytes of the pair
    # on every row of the fancy-index packing
    rng = np.random.default_rng(sum(shape) + 1)
    batch = (3,) + shape
    x = np.stack([rng.standard_normal(shape), np.where(rng.random(shape) < 0.5, 0.0, -0.0),
                  np.full(shape, rng.standard_normal())])
    memory = np.empty(elliptic.transform_floats(batch, 2) + 6)[2:]
    carved = elliptic.transform_buffers(batch, 2, memory)
    for mult in (rng.uniform(0.1, 2.0, shape), rng.uniform(0.1, 2.0, batch)):
        packed = pack_multiplier(mult, 2)
        want = oracles.apply_2d(x, *oracles.pack_2d(mult))
        for a in carved:
            a[...] = np.nan
        y = x.copy()
        for got in (apply_packed(x, packed), apply_packed(x, packed, buffers=carved),
                    apply_packed(y, packed, out=y)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 10))
def test_reorder_slices_take_the_evens_then_the_odds_backwards(n):
    # the original slices pick each point once, in Makhoul's order, and the
    # reordered ones tile the axis in order; a one-point axis has no odd run
    x = np.arange(n)
    slices = elliptic._reorder_slices(n)
    assert np.concatenate([x[frm] for _to, frm in slices]).tolist() == \
        np.concatenate([x[::2], x[1::2][::-1]]).tolist()
    assert np.concatenate([x[to] for to, _frm in slices]).tolist() == x.tolist()


ROW_KINDS = st.sampled_from(["random", "signed zeros", "constant"])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 4096), kinds=st.lists(ROW_KINDS, min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@example(n=65536, kinds=["random", "signed zeros", "constant"], seed=0)
def test_1d_pair_has_the_bytes_of_the_former_1d_pair(n, kinds, seed):
    # a 1D batch runs through the 2D pair as one row of cells; with shared and
    # per-row multipliers, fresh, carved and in-place calls each give the bytes
    # of the former 1D pair, kept in oracles.apply_1d
    rng = np.random.default_rng(seed)
    x = np.stack([rng.standard_normal(n) if kind == "random" else
                  np.where(rng.random(n) < 0.5, 0.0, -0.0) if kind == "signed zeros" else
                  np.full(n, rng.standard_normal()) for kind in kinds])
    shape = x.shape
    fresh = elliptic.transform_buffers(shape, 1)
    carved = elliptic.transform_buffers(shape, 1, np.empty(elliptic.transform_floats(shape, 1) + 6)[2:])
    for mult in (rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, shape)):
        packed = pack_multiplier(mult, 1)
        oracle_p = oracles.pack_1d(mult)
        assert packed[0].tobytes() == oracle_p.tobytes() and packed[1].size == 0
        want = oracles.apply_1d(x, oracle_p, np.empty(shape), np.empty(shape),
                                np.empty(shape[:-1] + (n // 2 + 1,), np.complex128))
        for buffers in (carved, fresh):
            for a in buffers:
                a[...] = np.nan
        y = x.copy()
        got = [apply_packed(x, packed), apply_packed(x, packed, buffers=carved),
               apply_packed(y, packed, out=y, buffers=fresh)]
        assert got[2] is y
        for result in got:
            assert result.tobytes() == want.tobytes()


@pytest.mark.parametrize("g", [build_grid(1, 1.0, 33), build_grid(2, (1.0, 1.5), (6, 9))],
                         ids=["33", "6x9"])
def test_a_stepper_for_some_members_packs_their_rows_of_the_batch(g):
    # run_ensemble builds a stepper for the members left in a batch, which must
    # hold the same packed multiplier bytes as their rows of the batch's stepper
    members = [ModelParams(chi=0.5, xi1=1.0, xi2=1.0, d=0.5 + j, a=0.0, mu=0.0, theta=1.0,
                           n_dim=g.dim) for j in range(5)]
    cfg = SolverConfig(dt=0.013, t_end=1.0)
    batch = Stepper(g, members, cfg)
    for rows in ([4, 1, 2], [2, 0], [3]):
        stepper = Stepper(g, [members[r] for r in rows], cfg)
        stacked = rows + [len(members) + r for r in rows]  # u's rows, then v's
        assert [a.tobytes() for a in stepper._packed_uv] == \
            [a[stacked].tobytes() for a in batch._packed_uv]
        assert not any(a.flags.writeable for a in stepper._packed_uv)
