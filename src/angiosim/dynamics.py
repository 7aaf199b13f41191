"""Time integration of the coupled cell/factor/potential system.

State (u, v, w): cell density u, diffusible factor v, repulsive potential w,
held by a SimState as read-only arrays shaped like the grid's cells.

    u_t = lap u - chi div(u grad v) + xi1 div(u grad w) + u (a - mu u^theta)
    v_t = d lap v + xi2 div(v grad w) + u - v
    0   = lap w + u - mean(u),  int w = 0

with zero-flux boundaries. One step splits as:

  1. explicit conservative advection with per-face upwinding on the transport
     velocity (chi grad v - xi1 grad w for u; -xi2 grad w for v), plus the
     explicit logistic term for u and the +u source for v;
  2. implicit backward-Euler diffusion: (I - dt lap) u and
     ((1+dt) I - dt d lap) v -- the -v decay rides the implicit solve. Both
     operators are diagonal in the DCT-II basis (see elliptic), so both
     solves are one transform pair over the rows of u and v, with a per-mode
     multiplier per row;
  3. a fresh potential solve for w from the updated u.

The explicit fluxes telescope and the implicit multipliers are exactly 1 and
1/(1+dt) on the constant mode, so per step, exactly up to transform round-off:
    int u(k+1) - int u(k) = dt (a int u(k) - mu int u(k)^(theta+1))
    (1+dt) int v(k+1) = int v(k) + dt int u(k).
Upwinding is meant to keep u > 0, v >= 0 whenever dt respects stable_dt, and
does so in 1D at cfl_safety <= 0.5, the default, in the property tests. Above
0.5 a 1D step at the bound can lose positivity, and on 2D grids so can one at
any cfl_safety, since stable_dt bounds each axis's face CFL on its own; either
ends that run as a step failure. The `central` flux scheme gives up
positivity for second-order spatial accuracy and is meant for smooth
short-time order studies only.

There is one time loop, run_ensemble. It advances B members that share a grid
and a SolverConfig as a state (uv, w): uv one (2B, *cells) array, u's rows
then v's, so that each per-species phase of a step runs once over both, and w
a (B, *cells) array. The model parameters are per-member columns, so a sweep
steps all its points together. Every operation is row by row, so each
member's trajectory is byte-identical to a run of its own; run is the B = 1
case.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .elliptic import (
    EllipticSolveError,
    apply_packed,
    elliptic_residual,
    grid_mean,
    neumann_eigenvalues,
    pack_multiplier,
    potential_floats,
    potential_work,
    solve_neumann_poisson,
    transform_buffers,
    transform_floats,
)
from .functionals import DiagnosticsRecord, diagnostics_batch, row_extrema
from .grid import (
    Grid,
    divergence_arrays,
    face_pads,
    face_strides,
    padded_faces,
)

__all__ = [
    "ModelParams",
    "SimState",
    "SolverConfig",
    "InitialSpec",
    "Trajectory",
    "StepFailure",
    "Stepper",
    "make_initial",
    "stable_dt",
    "run",
    "run_ensemble",
]

INITIAL_PROFILES = ("constant", "cosine_bump", "gaussian_bump", "random_positive")
FLUX_SCHEMES = ("upwind", "central")


@dataclass(frozen=True)
class ModelParams:
    """chi: attraction, xi1/xi2: repulsion couplings, d: factor diffusivity,
    a/mu/theta: logistic growth, n_dim: dimension entering structural bounds.

    The analysis regime needs xi1, xi2 > 0; zero values are permitted for
    oracle runs and flagged off_regime. The paper's convergence results split by
    growth regime, and every part of the package reads the split from here:
    growth_free (a = mu = 0, convergence to the initial mean of u), logistic
    (a, mu > 0, convergence to carrying_state, b = (a/mu)^(1/theta)) or neither.
    The numbers are held as numpy float64, so formulas on them read inf past the
    float range where Python floats raise.
    """

    chi: float
    xi1: float
    xi2: float
    d: float
    a: float
    mu: float
    theta: float
    n_dim: int

    def __post_init__(self):
        for name in ("chi", "xi1", "xi2", "d", "a", "mu", "theta"):
            object.__setattr__(self, name, np.float64(getattr(self, name)))
        for name in ("chi", "xi1", "xi2", "a", "mu"):
            if not getattr(self, name) >= 0:  # nan fails too
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.d > 0:
            raise ValueError(f"d must be > 0, got {self.d}")
        if not self.theta > 0:
            raise ValueError(f"theta must be > 0 (the damping exponent), got {self.theta}")
        if self.n_dim < 1:
            raise ValueError("n_dim must be a positive integer")

    @property
    def off_regime(self) -> bool:
        return self.xi1 == 0.0 or self.xi2 == 0.0

    @property
    def growth_free(self) -> bool:
        return bool(self.a == 0.0 and self.mu == 0.0)

    @property
    def logistic(self) -> bool:
        return bool(self.a > 0.0 and self.mu > 0.0)

    @property
    def carrying_state(self) -> float:
        """b = (a/mu)^(1/theta) of a logistic member, nan otherwise."""
        return (self.a / self.mu) ** (1.0 / self.theta) if self.logistic else math.nan


@dataclass(frozen=True, eq=False)
class SimState:
    """Snapshot at time t: u, v, w as read-only float64 copies of the given
    arrays, each shaped like grid.cells. Invariants maintained by the upwind
    stepper: u > 0, v >= 0, int w = 0 and w solves the potential equation for u."""

    t: float
    grid: Grid
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name in "uvw":
            arr = np.array(getattr(self, name), dtype=np.float64)
            if arr.shape != self.grid.cells:
                raise ValueError(f"{name} has shape {arr.shape}, not the grid's {self.grid.cells}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping settings shared by every member of a batch: the step dt and
    the end time t_end; cfl_safety, the fraction of the stability bound a step may
    use (stable_dt); flux_scheme, "upwind" or "central"; blowup_threshold, the
    ||u||_inf past which a run ends as blown up; record_every, the steps between
    diagnostics records; and elliptic_tolerance, the relative residual the
    potential solve's gate accepts."""

    dt: float
    t_end: float
    cfl_safety: float = 0.5
    flux_scheme: str = "upwind"
    blowup_threshold: float = 1e6
    record_every: int = 10
    elliptic_tolerance: float = 1e-10  # accepted relative residual of the potential solve

    def __post_init__(self):
        for name in ("dt", "t_end"):
            if not getattr(self, name) > 0:  # nan fails too
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not math.isfinite(self.t_end / self.dt):  # the step count
            raise ValueError(f"t_end / dt must be finite, got {self.t_end:g} / {self.dt:g}")
        if not (0 < self.cfl_safety <= 1):
            raise ValueError(f"cfl_safety must be in (0, 1], got {self.cfl_safety}")
        if self.flux_scheme not in FLUX_SCHEMES:
            raise ValueError(f"flux_scheme must be one of {FLUX_SCHEMES}, got {self.flux_scheme!r}")
        if not self.blowup_threshold > 0:
            raise ValueError(f"blowup_threshold must be > 0, got {self.blowup_threshold}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if not (0 < self.elliptic_tolerance <= 1e-4):
            raise ValueError(f"elliptic_tolerance must be in (0, 1e-4], got {self.elliptic_tolerance}")


@dataclass(frozen=True)
class InitialSpec:
    """Named initial profiles for u (and v, defaulting to the u settings)."""

    profile: str = "cosine_bump"
    base: float = 1.0
    amplitude: float = 0.2
    seed: int = 0
    v_profile: str | None = None
    v_base: float | None = None
    v_amplitude: float | None = None

    def __post_init__(self):
        if self.profile not in INITIAL_PROFILES:
            raise ValueError(f"profile must be one of {INITIAL_PROFILES}, got {self.profile!r}")
        vp = self.v_profile if self.v_profile is not None else self.profile
        if vp not in INITIAL_PROFILES:
            raise ValueError(f"v_profile must be one of {INITIAL_PROFILES}, got {vp!r}")


@dataclass
class Trajectory:
    """One member's run: its diagnostics records in time order, the state it
    ended on, why it ended (completed, blowup_detected or step_failure) and,
    unless it completed, a one-line failure_detail."""

    records: list[DiagnosticsRecord]
    terminal: SimState
    termination_reason: str  # completed | blowup_detected | step_failure
    failure_detail: str = ""


class StepFailure(RuntimeError):
    """Members of a batch that could not take a step: reasons maps each one's
    batch row to why."""

    def __init__(self, reasons: dict[int, str]):
        super().__init__("; ".join(reasons.values()))
        self.reasons = reasons


def _profile_values(grid: Grid, profile: str, base: float, amp: float, rng) -> np.ndarray:
    """A profile's cell values, shaped like the grid; rng() returns the Generator
    that random profiles draw from, and only they call it. Only the bumps build the
    cell coordinates."""
    if profile == "constant":
        vals = np.full(grid.cells, base)
    elif profile == "cosine_bump":
        vals = np.full(grid.cells, base)
        bump = np.ones(grid.cells)
        for x, L in zip(grid.cell_coordinates(), grid.lengths):
            bump = bump * np.cos(math.pi * x / L)
        vals += amp * bump
    elif profile == "gaussian_bump":
        r2 = np.zeros(grid.cells)
        for x, L in zip(grid.cell_coordinates(), grid.lengths):
            s = L / 8.0
            r2 += ((x - 0.5 * L) / s) ** 2
        vals = base + amp * np.exp(-0.5 * r2)
    else:  # random_positive, the last name InitialSpec accepts
        vals = rng().uniform(-1.0, 1.0, size=grid.cells)
        vals *= amp  # base + amp * draw, in place: the same bits
        vals += base
    return vals


def make_initial(grid: Grid, spec: InitialSpec,
                 tolerance: float = SolverConfig.elliptic_tolerance) -> SimState:
    """Build the t=0 state: u > 0, v >= 0, w solved from u.

    Random profiles draw from one pcg64.Generator seeded with spec.seed, u before
    v: the values of numpy's default_rng(spec.seed), without numpy's random module
    and the 5 MB it imports. pcg64 is imported and the Generator built on the first
    draw, so a run without one never loads it."""

    @functools.cache
    def rng():
        from .pcg64 import Generator
        return Generator(spec.seed)

    u_vals = _profile_values(grid, spec.profile, spec.base, spec.amplitude, rng)
    v_vals = _profile_values(
        grid,
        spec.v_profile if spec.v_profile is not None else spec.profile,
        spec.v_base if spec.v_base is not None else spec.base,
        spec.v_amplitude if spec.v_amplitude is not None else spec.amplitude,
        rng,
    )
    if u_vals.min() <= 0.0:
        raise ValueError(
            f"initial u must be strictly positive (min {u_vals.min():.3g}); "
            "lower the amplitude or raise the base"
        )
    if v_vals.min() < 0.0:
        raise ValueError(f"initial v must be nonnegative (min {v_vals.min():.3g})")
    # the run checks only the states it steps to, so overflow is caught here
    if not (np.isfinite(u_vals).all() and np.isfinite(v_vals).all()):
        raise ValueError("initial u and v must be finite; base + amplitude overflows float64")
    # the potential solve centres u on its mean, which would read inf or nan
    if not np.isfinite(grid_mean(u_vals, grid)).all():
        raise ValueError(f"the initial u sums past the float64 range over its {grid.n_cells} "
                         "cells; lower init.base")
    w, _res, _it = solve_neumann_poisson(grid, u_vals, tolerance)
    return SimState(0.0, grid, u_vals, v_vals, w)


def _shared(values, shape):
    """One value per member as a float when all have the same bits, otherwise as
    an array of this shape. A small ufunc call takes about half the time with a
    scalar as with a (B, 1) column, and gives the same bits."""
    arr = np.array(values, dtype=np.float64)
    bits = arr.view(np.uint64)
    return float(arr[0]) if (bits == bits[0]).all() else arr.reshape(shape)


# The views that _face_speeds takes of one grid axis's padded face array for a
# (2B, *cells) batch: the axis's flat stride s; the u rows' faces [s, size/2) and
# the v rows' [size/2 + s, size), which receive the differences of v and of w; the
# pads (face_pads); every face above a cell, [s, s + size), flat and as a
# (2, B, *cells) array; and that array's u and v halves.
_SpeedViews = namedtuple("SpeedViews", "stride grad_v grad_w pads faces stacked u_rows v_rows")


def _speed_views(speeds, shape, dim: int) -> list[_SpeedViews]:
    """Per grid axis, the _SpeedViews of its padded face array in speeds for a
    (2B, *cells) batch shape. A stepper builds them once."""
    size = math.prod(shape)
    half = size // 2
    member = (shape[0] // 2,) + shape[1:]
    views = []
    for k, (s, a) in enumerate(zip(face_strides(shape, dim), speeds)):
        stacked = a[s:s + size].reshape((2,) + member)
        views.append(_SpeedViews(s, a[s:half], a[half + s:size], face_pads(a, shape, dim, k),
                                a[s:s + size], stacked, stacked[0], stacked[1]))
    return views


def _face_speeds(grid: Grid, v: np.ndarray, w: np.ndarray, chi, xi1, minus_xi2, out):
    """Per grid axis, the transport speeds of a batch's u and v on the face above
    each cell, as a (2, B, *cells) view of a padded face array (grid.padded_faces)
    whose pads read +0.0 or -0.0: u's rows, chi grad v - xi1 grad w, then v's rows,
    -xi2 grad w. v and w are C-contiguous (B, *cells) arrays, and the couplings chi,
    xi1 and minus_xi2 = -xi2 are floats or (B, 1[, 1]) columns. out is
    (_speed_views of the padded arrays, a (B, *cells) scratch array), which a
    stepper builds once. Every pass runs over the whole batch as one contiguous
    call: the differences across a pad are garbage, zeroed before they are
    scaled."""
    views, scratch = out
    fv, fw = v.reshape(-1), w.reshape(-1)
    for h, (s, grad_v, grad_w, pads, faces, _stacked, a_u, a_v) in zip(grid.spacing, views):
        np.subtract(fw[s:], fw[:-s], out=grad_w)
        np.subtract(fv[s:], fv[:-s], out=grad_v)  # chi grad v - xi1 grad w
        pads.fill(0.0)
        faces /= h
        a_u *= chi
        a_u -= np.multiply(a_v, xi1, out=scratch)
        a_v *= minus_xi2
    return [view.stacked for view in views]


def growth_columns(params) -> tuple:
    """The rows a, mu and theta of a batch's members, for stable_dt: each a (B,)
    array, or a float when every member shares it."""
    n = len(params)
    return tuple(_shared([getattr(p, name) for p in params], (n,)) for name in ("a", "mu", "theta"))


def stable_dt(grid: Grid, umax: np.ndarray, speeds, growth, cfg: SolverConfig) -> np.ndarray:
    """Per member: cfl_safety * min(face CFL per axis, reaction bound, factor-source bound).

    umax is each member's max of u, a (B,) array, speeds are per grid axis the
    batch's speeds on the face above each cell as a (2, B, *cells) array, as
    _face_speeds returns them, and growth is growth_columns of the members.
    Face CFL is h / max|speed| per axis over both transported species, taken as
    max(max, -min) with one reduction each over a member's u and v rows: max and
    min are exact, so the bound has the bits of a per-species formula, and where
    max|speed| is zero or nan the axis sets no bound. The reaction bound
    1/(a + mu max(umax, 0)^theta + 1) keeps the explicit logistic update positive;
    the factor-source bound is 1. The reaction bound is taken
    for the whole batch at once. Its power is np.float_power, which calls libm's
    pow as a float64 scalar power does, so the bound has the bits of the formula
    taken member by member. np.power, and ndarray ** with its square and
    square-root shortcuts, may differ from libm by an ulp, for theta = 0.5 and 2
    too; a numpy whose float_power did so would move the bound by a few ulp.
    A step at the bound keeps u > 0 and v >= 0 only in 1D at cfl_safety <= 0.5:
    each bound is taken on its own, while an upwind cell loses the outflow
    through all its faces and its damping at once.
    """
    a, mu, theta = growth
    bound = np.float_power(np.maximum(umax, 0.0), theta)
    bound *= mu
    bound += a
    bound += 1.0
    np.divide(1.0, bound, out=bound)
    np.fmin(bound, 1.0, out=bound)  # the v-source bound; a nan reaction bound reads 1
    axes = ((0, 2), (0, 2, 3))[grid.dim - 1]  # the species and the cells of a member
    for h, stacked in zip(grid.spacing, speeds):
        smax = np.maximum.reduce(stacked, axis=axes)
        smin = np.minimum.reduce(stacked, axis=axes)
        np.negative(smin, out=smin)
        np.maximum(smax, smin, out=smax)  # max |speed|, with no |speed| array
        moving = np.greater(smax, 0.0)
        np.divide(h, smax, out=smax, where=moving)
        np.minimum(bound, smax, out=bound, where=moving)
    bound *= cfg.cfl_safety
    return bound


class _Buffers:
    """The work arrays of a step of a batch whose (u, v) state is shaped (2B, *cells),
    built once with its Stepper, reused from step to step and shared by the step's
    phases, with the views that the step's kernels take of them. At 2D-256^2 a
    fresh full-grid temporary is half a megabyte, and a step that makes a dozen of
    them faults hundreds of pages back in; at 1D-128 x 9 a step is mostly the fixed
    cost of its small calls, and each view built once is one that no step builds.
    A step's outputs are never among them.

    They are one flat float array and the upwind signs:

    - speeds: per grid axis k, the stacked face speeds as a padded face array
      (grid.padded_faces) of s_k + 2B grid arrays' floats, the axes' one after the
      other from the start; speed_views, the views that _face_speeds writes
      (_speed_views), and fluxes, per axis (the padded array, its faces with a cell
      below, the axis's upwind signs in mask, its pads, s_k) for _fluxes; mask is
      per axis a view of one bool array. Each speed array becomes its
      axis's flux in place. In 2D the start (net) then takes the second axis's face
      values and the divergence's net flux, once the first axis's speeds are used
      up; once the advection is done, its start (scratch) takes B grid arrays of
      u's reaction and v's source;
    - diffusion: the transform pair's buffers (elliptic.transform_buffers) for all
      2B rows, from the start of the flat array;
    - potential: the potential's centred u, Laplacian, squares, the laplacian_views
      of its padded face differences and the pair's buffers for B rows, as
      elliptic.potential_work carves them from the start of the flat array, and, in
      an array of its own, the (B,) relative residuals that the gate takes and the
      record reads.

    The flat array holds the largest of these, about 4B grid arrays in 1D and 2D:
    the speeds need 4B in 2D, a stacked pair a little over 4B and the potential a
    little over 3B.
    """

    def __init__(self, shape):
        rows, cells = shape[0], shape[1:]
        dim, n = len(cells), rows // 2
        size = math.prod(cells)
        strides = face_strides(shape, dim)
        potential = (n,) + cells
        flat = np.empty(max(dim * rows * size + sum(strides), transform_floats(shape, dim),
                            potential_floats(potential, dim)))
        self.speeds = padded_faces(shape, dim, flat)
        self.speed_views = _speed_views(self.speeds, shape, dim)
        signs = np.empty(rows * size, dtype=bool)
        self.mask = [signs[:rows * size - s] for s in strides]
        self.fluxes = [(a, a[s:rows * size], mask, view.pads, s)
                       for a, s, mask, view in zip(self.speeds, strides, self.mask, self.speed_views)]
        self.net = flat[:rows * size].reshape(shape) if dim > 1 else None
        self.scratch = flat[:n * size].reshape(potential)
        self.diffusion = transform_buffers(shape, dim, flat)
        self.potential = potential_work(potential, dim, flat) + (np.empty(n),)
        self.flat = flat


class Stepper:
    """Advances a batch of B members that share a grid and a SolverConfig.

    The state is (uv, w): uv one C-contiguous (2B, *cells) array, u's rows then
    v's, and w a (B, *cells) array. Each member has its own ModelParams. A
    parameter is held as (B, 1[, 1]) columns, or as (B,) rows for the reaction
    bound's a, mu and theta (growth_columns), and as a float when every member
    shares it; either way a member gets the same bits. The logistic term is one
    _reaction call for every batch: by theta group, and 0.0 when none has growth.
    Every per-species phase of a step runs once over all 2B rows of uv: the face
    speeds (one stacked array per axis) and their stability bound, the
    advection, both implicit diffusions and the new state's per-row max and min.
    Face speeds and fluxes live in padded face arrays (grid.padded_faces), so each
    stencil pass is one contiguous call over the batch. The max and min are taken
    once, as one (2, 2B) array (row_extrema), and serve four ends: the potential's
    finite check, one isfinite call over all of them, the caller's end checks
    (_ended_rows, through extrema), its diagnostics record (diagnostics_batch)
    and, passed back as umax, the next step's reaction bound.
    The potential's gate writes each member's relative residual into residuals.
    The implicit operators are diagonal in the DCT-II basis: u takes the shared
    multiplier 1/(1 + dt lambda), v the per-member 1/(1 + dt + dt d_b lambda),
    and the stepper holds them only packed for the transform pair, a row per
    member and species. The diffusions run in place on the (2B, *cells) array
    that receives the explicit update and that the step returns, in one pair
    over its 2B rows; the potential solve is one more pair of B rows. Every
    operation is row by row, so a member gets the same numbers whatever else is
    in the batch. A stepper serves one batch for its whole life: it builds its
    parameters, -xi2 included, its multipliers, its work arrays and the views
    its kernels take of them (_Buffers) once, and a step allocates only the
    arrays it returns and a few (B,) ones. run_ensemble builds it only once its
    batch holds the initial states' values and it has dropped the states, so no
    initial state is held beside the stepper's arrays; when members leave, it drops
    the stepper before it builds one for the rest.
    """

    def __init__(self, grid: Grid, params, cfg: SolverConfig):
        self.grid = grid
        self.cfg = cfg
        self.params = tuple(params)
        n = len(self.params)
        column = (n,) + (1,) * grid.dim
        chi, xi1, xi2 = (_shared([getattr(p, name) for p in self.params], column)
                         for name in ("chi", "xi1", "xi2"))
        self._couplings = (chi, xi1, -xi2)  # as _face_speeds takes them
        self._growth_rows = growth_columns(self.params)
        # members with a logistic term, by exponent, with their a and mu: u^theta
        # keeps a scalar exponent, as for a member on its own
        growth = {}
        for row, p in enumerate(self.params):
            if not p.growth_free:
                growth.setdefault(p.theta, []).append(row)
        self._growth = [
            (rows, theta, *(_shared([getattr(self.params[r], name) for r in rows],
                                    (len(rows),) + column[1:]) for name in ("a", "mu")))
            for theta, rows in growth.items()]
        self._upwind = cfg.flux_scheme == "upwind"
        self._buffers = _Buffers((2 * n,) + grid.cells)
        self.extrema = None  # the per-row (max, min) of the uv that step last returned
        # the gate's residuals of the w that step last returned, or of a step that raised
        self.residuals = self._buffers.potential[-1]
        # the diffusion multipliers of the stacked (u, v) batch, row by row,
        # 1/(1 + dt lambda) and 1/(1 + dt + dt d lambda) formed in place with the
        # bits of those formulas, and kept only packed
        lam = neumann_eigenvalues(grid)
        d = np.array([p.d for p in self.params]).reshape(column)
        mult_uv = np.empty((2 * n,) + grid.cells)
        u_rows, v_rows = mult_uv[:n], mult_uv[n:]
        np.multiply(cfg.dt, lam, out=u_rows)
        u_rows += 1.0
        np.multiply(cfg.dt * d, lam, out=v_rows)
        v_rows += 1.0 + cfg.dt
        del lam  # before packing, the peak of the build
        np.divide(1.0, mult_uv, out=mult_uv)
        self._packed_uv = pack_multiplier(mult_uv, grid.dim)

    def _fluxes(self, uv: np.ndarray, faces):
        """Per grid axis, speed * upwind or centred face value of every row of uv,
        formed in place in the axis's padded speed array, whose pads then read +0.0;
        faces[k], a flat float array, receives axis k's face values once the
        previous flux is used up. Each pass runs over every face with a cell on
        both sides, and the pads between rows among them, in one call."""
        flat = uv.reshape(-1)
        size = flat.size
        for (a, flux, mask, pads, s), face in zip(self._buffers.fluxes, faces):
            face = face[:size - s]
            if self._upwind:
                np.greater(flux, 0.0, out=mask)
                np.copyto(face, flat[s:])
                np.copyto(face, flat[:-s], where=mask)
            else:
                np.add(flat[:-s], flat[s:], out=face)
                face *= 0.5
            flux *= face
            pads.fill(0.0)
            yield a

    def _reaction(self, u: np.ndarray, dt: float, out: np.ndarray):
        """dt u (a - mu u^theta) per member into out, shaped like u: exactly 0 for
        members without growth, and the float 0.0, out unwritten, if none has it."""
        if not self._growth:
            return 0.0
        if len(self._growth) == 1 and len(self._growth[0][0]) == len(u):
            (_rows, theta, a, mu), = self._growth
            np.copyto(out, u)
            out **= theta  # as u ** theta, with its fast paths
            out *= mu
            np.subtract(a, out, out=out)
            out *= u
        else:
            out[...] = 0.0
            for rows, theta, a, mu in self._growth:
                ur = u[rows]
                out[rows] = ur * (a - mu * ur ** theta)
        out *= dt
        return out

    def _transport(self, t: float, uv: np.ndarray, w: np.ndarray, umax) -> np.ndarray:
        """Stability check, explicit advection and reaction, implicit diffusion of
        both species -> their new (2B, *cells) array."""
        cfg, grid = self.cfg, self.grid
        n = len(w)
        u = uv[:n]
        buf = self._buffers
        out = np.empty(uv.shape)
        if umax is None:
            umax = row_extrema(u, grid.dim)[0]
        # the face speeds' scratch and the first axis's face values go at the start
        # of out, which the advection then overwrites
        speeds = _face_speeds(grid, uv[n:], w, *self._couplings, out=(buf.speed_views, out[:n]))
        bound = stable_dt(grid, umax, speeds, self._growth_rows, cfg)
        if cfg.dt > bound.min():  # the bound is never nan
            raise StepFailure({
                int(r): f"dt={cfg.dt:.3e} exceeds stability bound {bound[r]:.3e} at t={t:.6g}"
                for r in np.flatnonzero(cfg.dt > bound)
            })
        # the second axis's face values go where its net flux will
        faces = (out.reshape(-1), buf.flat)
        divergence_arrays(self._fluxes(uv, faces), grid.spacing, uv.shape, out, buf.net)
        out *= cfg.dt
        np.subtract(uv, out, out=out)  # uv - dt div(flux)
        u_star, v_star = out[:n], out[n:]
        # the speeds are used up, so their start is free; a batch without growth
        # adds 0.0, which turns -0.0 into +0.0
        u_star += self._reaction(u, cfg.dt, buf.scratch)
        v_star += np.multiply(u, cfg.dt, out=buf.scratch)
        apply_packed(out, self._packed_uv, out=out, buffers=buf.diffusion)
        return out

    def _potential(self, t: float, uv: np.ndarray, extrema) -> np.ndarray:
        """w solved from each member's u, the step from t's; 0 for members gone
        non-finite, which the caller classifies as blown up. extrema are uv's
        per-row max and min as row_extrema takes them."""
        n = len(uv) // 2
        u = uv[:n]
        if not np.isfinite(extrema).all():  # max and min propagate nan and reach any inf
            finite = np.isfinite(extrema).all(axis=0)
            finite = finite[:n] & finite[n:]  # a zero row solves to w = 0
            u = np.where(finite.reshape((-1,) + (1,) * self.grid.dim), u, 0.0)
        try:  # the face speeds are used up, so their slots are free
            w, _res, _it = solve_neumann_poisson(
                self.grid, u, self.cfg.elliptic_tolerance, self._buffers.potential)
        except EllipticSolveError as exc:
            missed = np.flatnonzero(exc.failed)
            raise StepFailure({int(r): f"{exc.member_message(r)} at t={t:.6g}"
                               for r in missed}) from exc
        return w

    def step(self, t: float, uv: np.ndarray, w: np.ndarray, umax=None):
        """Advance every member one dt from time t -> the new (uv, w), whose
        per-row max and min are then extrema and whose potential residuals are
        then residuals.

        umax, if given, is each member's max of u in uv, as the previous step's
        extrema hold it; it is computed otherwise. Raises StepFailure naming the
        rows that exceed their stability bound or miss the potential-solve
        tolerance; the other rows are unaffected, and the caller steps them again
        without the failed ones.
        """
        uv_new = self._transport(t, uv, w, umax)
        self.extrema = row_extrema(uv_new, self.grid.dim)
        return uv_new, self._potential(t, uv_new, self.extrema)


def _member_state(grid: Grid, t: float, uv: np.ndarray, w: np.ndarray, row: int) -> SimState:
    """One row of a (uv, w) state as a SimState."""
    return SimState(t, grid, uv[row], uv[len(w) + row], w[row])


def _ended_rows(extrema, t: float, cfg: SolverConfig) -> dict:
    """Rows of a (2B, *cells) (u, v) state, given its per-row max and min
    (row_extrema), whose member blew up (non-finite u or v, or ||u||_inf above
    threshold) or, under upwinding, lost positivity -> {member row: (termination
    reason, detail)}."""
    ended = {}
    # max and min propagate nan and reach any inf, so they tell finiteness too
    highs, lows = extrema.tolist()
    n = len(highs) // 2
    finite = math.isfinite
    for row, (umax, umin, vmax, vmin) in enumerate(zip(highs[:n], lows[:n], highs[n:], lows[n:])):
        if not (finite(umax) and finite(umin) and finite(vmax) and finite(vmin)):
            ended[row] = ("blowup_detected", f"non-finite u or v at t={t:.6g}")
        elif max(umax, -umin) > cfg.blowup_threshold:
            ended[row] = ("blowup_detected",
                          f"||u||_inf beyond {cfg.blowup_threshold:g} at t={t:.6g}")
        elif cfg.flux_scheme == "upwind" and (umin <= 0.0 or vmin < 0.0):
            ended[row] = ("step_failure", f"positivity lost at t={t:.6g} (min u {umin:.3e})")
    return ended


def run_ensemble(initials, params, cfg: SolverConfig, on_record=None) -> list[Trajectory]:
    """Integrate B members that share a grid, a start time and cfg to t_end
    as one batch, with diagnostics every record_every steps.

    Member b starts from initials[b] with params[b] and gets exactly the
    Trajectory it would get alone: its termination_reason is "completed",
    "blowup_detected" (||u||_inf above threshold or non-finite values; the
    offending partial state is kept), or "step_failure" (stability violation,
    solver breakdown or lost positivity; diagnostics up to the failure are
    kept). A member that stops leaves the batch and the rest carry on.

    The batch is held as (uv, w), as Stepper steps it, and each record reads it as
    held, with the per-row extrema and the potential residuals the step took
    (diagnostics_batch), at t0 elliptic_residual of each initial member. Only a
    step that returned feeds a record: one that raised may have left its
    residuals in the stepper's. A SimState
    is built only for a member's terminal state and, when on_record is given, for
    each record: on_record(b, state) is then called with each recorded SimState,
    the initial one included.

    Once the batch is filled and the first record taken, the time loop drops its
    references to initials, and only then builds its stepper: a caller that holds
    neither the list nor its states frees them there. The list itself is left as
    it was given. When members leave, the stepper for the rest is built after the
    old one is dropped.
    """
    grid, t0 = initials[0].grid, initials[0].t
    if any(s.grid != grid or s.t != t0 for s in initials):
        raise ValueError("ensemble members must share a grid and a start time")
    params = tuple(params)
    n_steps = max(1, math.ceil((cfg.t_end - t0) / cfg.dt - 1e-9))
    t = t0
    u0_means = [float(s.u.mean()) for s in initials]
    records: list[list[DiagnosticsRecord]] = [[] for _ in initials]
    trajectories: list[Trajectory | None] = [None] * len(initials)
    members = list(range(len(initials)))  # the member held in each batch row

    def record(t, uv, w, extrema, residuals):
        rows = diagnostics_batch(t, uv, w, extrema, residuals, grid,
                                 [params[b] for b in members], [u0_means[b] for b in members])
        for b, rec in zip(members, rows):
            records[b].append(rec)

    def leave(ended, t, uv, w, extrema, residuals):
        """Close the trajectories of the ended rows; return the (uv, w) of the rest,
        their extrema and their residuals."""
        nonlocal members, stepper
        for row, (reason, detail) in ended.items():
            b = members[row]
            trajectories[b] = Trajectory(
                records[b], _member_state(grid, t, uv, w, row), reason, detail)
        n = len(members)
        kept = [row for row in range(n) if row not in ended]
        members = [members[row] for row in kept]
        stepper = None  # before its successor's arrays are made
        if kept:
            stepper = Stepper(grid, [params[b] for b in members], cfg)
        rows = kept + [n + row for row in kept]
        return uv[rows], w[kept], extrema[:, rows], residuals[kept]

    n = len(initials)
    uv = np.empty((2 * n,) + grid.cells)
    w = np.empty((n,) + grid.cells)
    for b in range(n):  # no loop variable keeps a state
        uv[b], uv[n + b], w[b] = initials[b].u, initials[b].v, initials[b].w
    extrema = row_extrema(uv, grid.dim)  # then each step's, which it passes on
    residuals = np.array([elliptic_residual(s.u, s.w, grid) for s in initials])  # likewise
    record(t, uv, w, extrema, residuals)
    if on_record is not None:
        for b in range(n):
            on_record(b, initials[b])
    del initials  # the batch holds their values
    stepper = Stepper(grid, params, cfg)
    for k in range(1, n_steps + 1):
        stepped = None
        while members and stepped is None:
            try:
                stepped = stepper.step(t, uv, w, extrema[0][:len(w)])
            except StepFailure as exc:
                failed = exc.reasons  # left outside the handler, whose traceback holds the stepper
            if stepped is None:
                uv, w, extrema, residuals = leave(
                    {row: ("step_failure", why) for row, why in failed.items()},
                    t, uv, w, extrema, residuals)
        if not members:
            break
        t = t0 + k * cfg.dt  # exact time grid, no float drift
        uv, w = stepped
        extrema, residuals = stepper.extrema, stepper.residuals
        ended = _ended_rows(extrema, t, cfg)
        if ended:
            uv, w, extrema, residuals = leave(ended, t, uv, w, extrema, residuals)
            if not members:
                break
        if k % cfg.record_every == 0 or k == n_steps:
            record(t, uv, w, extrema, residuals)
            if on_record is not None or k == n_steps:
                for row, b in enumerate(members):
                    state = _member_state(grid, t, uv, w, row)
                    if on_record is not None:
                        on_record(b, state)
                    if k == n_steps:
                        trajectories[b] = Trajectory(records[b], state, "completed")
    return trajectories


def run(initial: SimState, p: ModelParams, cfg: SolverConfig, on_record=None) -> Trajectory:
    """Integrate one member to t_end: run_ensemble with B = 1 (see there for
    the termination reasons). on_record, if given, is called with each
    recorded SimState."""
    hook = None if on_record is None else (lambda _b, state: on_record(state))
    return run_ensemble([initial], [p], cfg, hook)[0]
