import math

import numpy as np
import pytest

from angiosim.functionals import grad_l2
from angiosim.grid import (
    Field,
    build_grid,
    divergence_arrays,
    face_strides,
    gradient_arrays,
    integrate,
    laplacian_array,
    laplacian_views,
    lp_norm,
)
from oracles import padded as padded_faces_of


def cosine_field(grid):
    """prod_k cos(pi x_k / L_k), shaped like the grid."""
    bump = np.ones(grid.cells)
    for x, L in zip(grid.cell_coordinates(), grid.lengths):
        bump = bump * np.cos(np.pi * x / L)
    return bump


def random_field(grid, seed=0, lo=0.5, hi=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, grid.cells)


def lap(f, grid):
    return laplacian_array(f, grid.spacing)


def grad(f, grid):
    return gradient_arrays(f, grid.spacing)


# ---------------------------------------------------------------------------
# construction

def test_build_grid_1d_geometry():
    g = build_grid(1, [1.0], [8])
    assert g.spacing == (0.125,)
    assert g.measure == 1.0
    assert g.n_cells == 8
    assert g.cell_volume == 0.125


def test_build_grid_2d_geometry():
    g = build_grid(2, [1.0, 2.0], [4, 8])
    assert g.spacing == (0.25, 0.25)
    assert g.measure == 2.0
    assert g.n_cells == 32


def test_build_grid_rejects_bad_inputs():
    with pytest.raises(ValueError, match="dim"):
        build_grid(3, [1, 1, 1], [4, 4, 4])
    with pytest.raises(ValueError, match="positive"):
        build_grid(1, [-1.0], [8])
    with pytest.raises(ValueError, match="at least 4"):
        build_grid(1, [1.0], [3])


def test_axis_centers_are_midpoints():
    g = build_grid(1, 1.0, 4)
    assert np.allclose(g.axis_centers(0), [0.125, 0.375, 0.625, 0.875])


def test_cell_coordinates_are_shaped_like_the_cells():
    g = build_grid(1, 1.0, 4)
    x, = g.cell_coordinates()
    assert x.tobytes() == g.axis_centers(0).tobytes()
    g = build_grid(2, (1.0, 2.0), (4, 6))
    x, y = g.cell_coordinates()
    assert x.shape == y.shape == (4, 6)
    assert (x == g.axis_centers(0)[:, None]).all() and (y == g.axis_centers(1)).all()


def test_field_rejects_wrong_size_and_nonfinite():
    g = build_grid(1, 1.0, 8)
    with pytest.raises(ValueError, match="expected 8"):
        Field(g, np.ones(7))
    with pytest.raises(ValueError, match="non-finite"):
        Field(g, [1.0] * 7 + [np.nan])


def test_field_values_frozen():
    f = Field(build_grid(1, 1.0, 8), np.ones(8))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_gradient_arrays_face_shapes():
    # one array per axis, that axis one shorter: the interior faces only
    g = build_grid(2, 1.0, (4, 6))
    flux = grad(random_field(g, 1), g)
    assert [a.shape for a in flux] == [(3, 6), (4, 5)]


# ---------------------------------------------------------------------------
# laplacian

def test_laplacian_of_constant_is_zero():
    g = build_grid(2, 1.0, (8, 8))
    out = lap(np.full(g.cells, 3.7), g)
    assert np.max(np.abs(out)) == 0.0


def test_laplacian_cosine_eigenmode_1d():
    g = build_grid(1, 2.0, 256)
    f = cosine_field(g)
    out = lap(f, g)
    lam = (np.pi / 2.0) ** 2
    rel = np.max(np.abs(out + lam * f)) / lam
    assert rel <= 1e-3


def test_laplacian_cosine_eigenmode_2d():
    g = build_grid(2, 1.0, (64, 64))
    f = cosine_field(g)
    lam = 2.0 * np.pi**2
    rel = np.max(np.abs(lap(f, g) + lam * f)) / lam
    assert rel <= 1e-3


def test_laplacian_integral_vanishes():
    for dim, cells in ((1, 128), (2, (16, 24))):
        g = build_grid(dim, 1.0, cells)
        f = random_field(g, seed=dim)
        total = integrate(lap(f, g), g)
        assert abs(total) <= 1e-12 * g.n_cells * lp_norm(f, g, math.inf)


# ---------------------------------------------------------------------------
# gradient / divergence

def test_gradient_of_constant_is_zero():
    g = build_grid(1, 1.0, 16)
    flux = grad(np.full(16, 2.0), g)
    assert np.max(np.abs(flux[0])) == 0.0


def test_gradient_of_linear_ramp_is_one():
    g = build_grid(1, 1.0, 16)
    flux = grad(g.axis_centers(0), g)
    assert np.allclose(flux[0], 1.0, atol=1e-14)


def test_gradient_cosine_matches_analytic_faces():
    g = build_grid(1, 1.0, 256)
    h = g.spacing[0]
    faces = (np.arange(1, 256)) * h
    flux = grad(cosine_field(g), g)
    exact = -np.pi * np.sin(np.pi * faces)
    assert np.max(np.abs(flux[0] - exact)) <= 10 * h**2


def test_divergence_of_gradient_is_laplacian():
    for dim, cells in ((1, 64), (2, (12, 20))):
        g = build_grid(dim, 1.5, cells)
        f = random_field(g, seed=dim + 5)
        a = divergence_arrays(padded_faces_of(grad(f, g), g.cells, dim), g.spacing, g.cells)
        b = lap(f, g)
        assert np.max(np.abs(a - b)) <= 1e-14 * max(1.0, np.max(np.abs(b)))


def test_divergence_integral_telescopes():
    g = build_grid(2, 1.0, (8, 8))
    rng = np.random.default_rng(7)
    arbitrary = [rng.normal(size=a.shape) for a in grad(random_field(g, 11), g)]
    fluxes = padded_faces_of(arbitrary, g.cells, 2)
    total = integrate(divergence_arrays(fluxes, g.spacing, g.cells), g)
    assert abs(total) <= 1e-12


@pytest.mark.parametrize("shape, spacing", [((16,), (0.1,)), ((3, 16), (0.1,)),
                                            ((6, 9), (0.3, 0.2)), ((3, 6, 9), (0.3, 0.2))])
def test_slice_kernels_match_diff_formula_bit_for_bit(shape, spacing):
    # the np.diff forms the slice kernels replace, on plain and batched arrays
    rng = np.random.default_rng(len(shape))
    vals = rng.normal(size=shape)
    dim = len(spacing)

    def padded(a, axis, before, after):
        width = [(0, 0)] * a.ndim
        width[axis] = (before, after)
        return np.pad(a, width)

    grads = [np.diff(vals, axis=k - dim) / h for k, h in enumerate(spacing)]
    div = np.zeros(shape)
    lap = np.zeros(shape)
    for k, (g, h) in enumerate(zip(grads, spacing)):
        div += np.diff(g, axis=k - dim, prepend=0.0, append=0.0) / h
        d = np.diff(vals, axis=k - dim) / (h * h)
        lap += padded(d, k - dim, 0, 1)
        lap -= padded(d, k - dim, 1, 0)
    got = gradient_arrays(vals, spacing)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in grads]
    fluxes = padded_faces_of(grads, shape, dim)
    assert divergence_arrays(fluxes, spacing, shape).tobytes() == div.tobytes()
    assert laplacian_array(vals, spacing).tobytes() == lap.tobytes()
    # a batch row is byte-equal to that row on its own, as ensemble members
    # must be to standalone runs
    batch = shape[0] if len(shape) > dim else 0
    for b in range(batch):
        row = vals[b]
        assert ([a.tobytes() for a in gradient_arrays(row, spacing)]
                == [a[b].tobytes() for a in got])
        assert (divergence_arrays(padded_faces_of([g[b] for g in grads], row.shape, dim), spacing,
                                  row.shape).tobytes() == div[b].tobytes())
        assert laplacian_array(row, spacing).tobytes() == lap[b].tobytes()


@pytest.mark.parametrize("shape, spacing", [((3, 16), (0.1,)), ((3, 6, 9), (0.3, 0.2))])
def test_slice_kernels_write_the_same_bytes_into_given_arrays(shape, spacing):
    rng = np.random.default_rng(7)
    vals = rng.normal(size=shape)
    fluxes = gradient_arrays(vals, spacing)
    for g in fluxes:
        g[0] = -0.0  # the net fluxes are sums from +0.0, so -0.0 ones read +0.0
    fluxes = padded_faces_of(fluxes, shape, len(spacing))
    div = divergence_arrays(fluxes, spacing, shape)
    assert not np.signbit(div[0]).any()
    lap = laplacian_array(vals, spacing)
    out, net = np.full(shape, np.nan), np.full(shape, np.nan)
    assert divergence_arrays(fluxes, spacing, shape, out, net) is out
    assert out.tobytes() == div.tobytes()
    faces = np.full(max(face_strides(shape, len(spacing))) + vals.size, np.nan)  # pads too
    assert laplacian_array(vals, spacing, out, laplacian_views(faces, shape, len(spacing))) is out
    assert out.tobytes() == lap.tobytes()


# ---------------------------------------------------------------------------
# quadrature

def test_integrate_constant():
    g = build_grid(2, [1.0, 2.0], [8, 8])
    assert integrate(np.full(g.cells, 3.0), g) == pytest.approx(6.0, abs=1e-13)


def test_integrate_cosine_is_zero_by_symmetry():
    g = build_grid(1, 1.0, 128)
    assert abs(integrate(cosine_field(g), g)) <= 1e-12


def test_integrate_x_squared():
    g = build_grid(1, 1.0, 128)
    x = g.axis_centers(0)
    assert integrate(x * x, g) == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_mean_examples():
    # the mean is integrate / measure
    g = build_grid(1, 1.0, 128)
    assert integrate(np.full(128, 4.2), g) / g.measure == pytest.approx(4.2, abs=1e-13)
    assert abs(integrate(cosine_field(g), g) / g.measure) <= 1e-12
    x = g.axis_centers(0)
    assert integrate(1.0 + x, g) / g.measure == pytest.approx(1.5, abs=1e-6)


def test_lp_norm_examples():
    g = build_grid(1, 1.0, 256)
    assert lp_norm(np.full(256, 2.0), g, 2) == pytest.approx(2.0, abs=1e-13)
    x = g.axis_centers(0)
    sin_f = np.sin(np.pi * x)
    assert lp_norm(sin_f, g, 2) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)
    g4 = build_grid(1, 1.0, 4)
    assert lp_norm(np.array([-3.0, 1.0, 2.0, 0.0]), g4, math.inf) == 3.0
    with pytest.raises(ValueError, match="p must be"):
        lp_norm(sin_f, g, 0.5)


# ---------------------------------------------------------------------------
# operator structure

def test_laplacian_is_symmetric():
    g = build_grid(2, 1.0, (10, 14))
    f = random_field(g, 21)
    q = random_field(g, 22)
    lhs = np.vdot(lap(f, g), q)
    rhs = np.vdot(f, lap(q, g))
    scale = np.max(np.abs(f)) * np.max(np.abs(q)) * g.n_cells
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_laplacian_negative_semidefinite():
    for seed in range(5):
        g = build_grid(1, 1.0, 64)
        f = random_field(g, seed, lo=-1.0, hi=1.0)
        assert np.dot(lap(f, g), f) <= 1e-12


def test_pairing_equals_face_gradient_norm():
    # discrete integration by parts: <-lap f, f> * vol == ||grad f||^2 exactly
    g = build_grid(2, 1.0, (12, 12))
    f = random_field(g, 31)
    pairing = -np.vdot(lap(f, g), f) * g.cell_volume
    gn = grad_l2(f, g)
    assert pairing == pytest.approx(gn * gn, rel=1e-12)


def test_laplacian_second_order_refinement():
    # smooth Neumann-compatible field; error vs analytic -pi^2 cos drops 4x
    errs = []
    for n in (64, 128, 256):
        g = build_grid(1, 1.0, n)
        f = cosine_field(g)
        err = lap(f, g) + np.pi**2 * f
        errs.append(np.max(np.abs(err)))
    assert 3.4 <= errs[0] / errs[1] <= 4.6
    assert 3.4 <= errs[1] / errs[2] <= 4.6
