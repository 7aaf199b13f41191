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
     operators are diagonal in the DCT-II basis (see elliptic), so the two
     solves share one transform pair: u and v are stacked, each row with its
     own per-mode multiplier;
  3. a fresh potential solve for w from the updated u.

The explicit fluxes telescope and the implicit multipliers are exactly 1 and
1/(1+dt) on the constant mode, so per step, exactly up to transform round-off:
    int u(k+1) - int u(k) = dt (a int u(k) - mu int u(k)^(theta+1))
    (1+dt) int v(k+1) = int v(k) + dt int u(k).
Upwinding keeps u > 0, v >= 0 whenever dt respects stable_dt; the `central`
flux scheme trades that guarantee for second-order spatial accuracy and is
meant for smooth short-time order studies only.

There is one time loop, run_ensemble. It advances B members that share a grid
and a SolverConfig as (B, *cells) arrays, with the model parameters as
per-member columns, so a sweep steps all its points together. Every operation
is row by row, so each member's trajectory is byte-identical to a run of its
own; run is the B = 1 case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import (
    EllipticSolveError,
    apply_packed,
    grid_axes,
    grid_mean,
    neumann_eigenvalues,
    pack_multiplier,
    solve_neumann_poisson,
)
from .functionals import TRAJECTORY_COLUMNS, DiagnosticsRecord, diagnostics_batch
from .grid import FLOAT_FMT, Grid, divergence_arrays, face_slices

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
    "write_trajectory_csv",
]

INITIAL_PROFILES = ("constant", "cosine_bump", "gaussian_bump", "random_positive")
FLUX_SCHEMES = ("upwind", "central")


@dataclass(frozen=True)
class ModelParams:
    """chi: attraction, xi1/xi2: repulsion couplings, d: factor diffusivity,
    a/mu/theta: logistic growth, n_dim: dimension entering structural bounds.

    The analysis regime needs xi1, xi2 > 0; zero values are permitted for
    oracle runs and flagged off_regime. The numbers are held as numpy float64, so
    formulas on them read inf past the float range where Python floats raise.
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
        if not (self.chi >= 0 and self.xi1 >= 0 and self.xi2 >= 0):  # nan fails too
            raise ValueError("couplings chi, xi1, xi2 must be >= 0")
        if not self.d > 0:
            raise ValueError(f"diffusivity d must be > 0, got {self.d}")
        if not (self.a >= 0 and self.mu >= 0):
            raise ValueError("growth a and damping mu must be >= 0")
        if not self.theta > 0:
            raise ValueError(f"theta must be > 0 (the damping exponent), got {self.theta}")
        if self.n_dim < 1:
            raise ValueError("n_dim must be a positive integer")

    @property
    def off_regime(self) -> bool:
        return self.xi1 == 0.0 or self.xi2 == 0.0


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
    dt: float
    t_end: float
    cfl_safety: float = 0.5
    flux_scheme: str = "upwind"
    blowup_threshold: float = 1e6
    record_every: int = 10
    elliptic_tolerance: float = 1e-10  # accepted relative residual of the potential solve

    def __post_init__(self):
        if not (self.dt > 0 and self.t_end > 0):  # nan fails too
            raise ValueError("dt and t_end must be > 0")
        if not (0 < self.cfl_safety <= 1):
            raise ValueError(f"cfl_safety must be in (0, 1], got {self.cfl_safety}")
        if self.flux_scheme not in FLUX_SCHEMES:
            raise ValueError(f"flux_scheme must be one of {FLUX_SCHEMES}, got {self.flux_scheme!r}")
        if not self.blowup_threshold > 0:
            raise ValueError("blowup_threshold must be > 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
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
    coords = grid.cell_coordinates()
    if profile == "constant":
        vals = np.full(grid.n_cells, base)
    elif profile == "cosine_bump":
        vals = np.full(grid.n_cells, base)
        bump = np.ones(grid.n_cells)
        for x, L in zip(coords, grid.lengths):
            bump = bump * np.cos(math.pi * x / L)
        vals += amp * bump
    elif profile == "gaussian_bump":
        r2 = np.zeros(grid.n_cells)
        for x, L in zip(coords, grid.lengths):
            s = L / 8.0
            r2 += ((x - 0.5 * L) / s) ** 2
        vals = base + amp * np.exp(-0.5 * r2)
    elif profile == "random_positive":
        vals = base + amp * rng.uniform(-1.0, 1.0, size=grid.n_cells)
    else:  # pragma: no cover - InitialSpec already validated
        raise ValueError(profile)
    return vals


def make_initial(grid: Grid, spec: InitialSpec, tolerance: float = 1e-10) -> SimState:
    """Build the t=0 state: u > 0, v >= 0, w solved from u."""
    rng = np.random.default_rng(spec.seed)
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
    u = u_vals.reshape(grid.cells)
    # the potential solve centres u on its mean, which would read inf or nan
    if not np.isfinite(grid_mean(u, grid)).all():
        raise ValueError(f"the initial u sums past the float64 range over its {grid.n_cells} "
                         "cells; lower init.base")
    w, _res, _it = solve_neumann_poisson(grid, u, tolerance)
    return SimState(0.0, grid, u, v_vals.reshape(grid.cells), w)


def _face_speeds(grid: Grid, v: np.ndarray, w: np.ndarray, chi, xi1, xi2, out=None):
    """Per-axis interior-face transport speeds for u and v of a batch; the
    couplings are (B, 1[, 1]) columns. out, if given, is (u's speeds, v's
    speeds, scratch), each a list with an array shaped like each axis's faces,
    and receives them; the speeds are fresh arrays otherwise."""
    slices = face_slices(grid.dim)
    if out is None:
        out = tuple([np.empty(w[lo].shape) for lo, _hi in slices] for _ in range(3))
    for (lo, hi), h, a_u, a_v, scratch in zip(slices, grid.spacing, *out):
        np.subtract(w[hi], w[lo], out=a_v)  # grad w
        a_v /= h
        np.subtract(v[hi], v[lo], out=a_u)  # chi grad v - xi1 grad w
        a_u /= h
        a_u *= chi
        a_u -= np.multiply(a_v, xi1, out=scratch)
        a_v *= -xi2
    return out[0], out[1]


def stable_dt(grid: Grid, u: np.ndarray, speeds, params, cfg: SolverConfig) -> np.ndarray:
    """Per member: cfl_safety * min(face CFL per axis, reaction bound, factor-source bound).

    u is a (B, *cells) batch, params holds one ModelParams per member and
    speeds are the batch's face speeds from _face_speeds. Face CFL is
    h / max|speed| per axis over both transported species; the reaction bound
    1/(a + mu ||u||_inf^theta + 1) keeps the explicit logistic update positive;
    the factor-source bound is 1.
    """
    axes = grid_axes(grid)
    # reaction bound in float arithmetic, member by member, capped by the v-source bound
    bound = np.array([
        min(1.0, 1.0 / (p.a + p.mu * max(umax, 0.0) ** p.theta + 1.0))
        for p, umax in zip(params, u.max(axis=axes).tolist())
    ])
    for h, a_u, a_v in zip(grid.spacing, *speeds):
        # max |speed| as max(max, -min), with no |speed| array
        smax = np.maximum(np.maximum(a_u.max(axis=axes), -a_u.min(axis=axes)),
                          np.maximum(a_v.max(axis=axes), -a_v.min(axis=axes)))
        cfl = np.divide(h, smax, out=np.full_like(smax, np.inf), where=smax > 0.0)
        bound = np.minimum(bound, cfl)
    return cfg.cfl_safety * bound


class _Buffers:
    """The work arrays of a step of a (B, *cells) batch, reused from step to step
    and shared by the step's phases. At 2D-256^2 a fresh full-grid temporary is half
    a megabyte, and a step that makes a dozen of them faults hundreds of pages back
    in. A step's outputs are never among them.

    - speeds: u's and v's face speeds per grid axis, each in a block the size of the
      batch, so that a block whose speeds are used up can hold a batch array (spare);
    - face and mask: one axis's face values or fluxes, and the upwind sign;
    - stacked: the (2B, *cells) explicit update of u and v. Until it is written, v's
      half holds the net flux of u's advection and then the reaction; once the
      diffusion pair has read it, its halves hold the potential's centred u and
      residual.
    """

    def __init__(self, shape):
        self.shape = shape
        dim = len(shape) - 1
        faces = [shape[:1 + k] + (shape[1 + k] - 1,) + shape[2 + k:] for k in range(dim)]
        blocks = np.empty((2, dim, math.prod(shape)))
        self.speeds = [[block[:math.prod(f)].reshape(f) for block, f in zip(species, faces)]
                       for species in blocks]
        self.spare = blocks[0, 0].reshape(shape)
        size = max(map(math.prod, faces))
        face, mask = np.empty(size), np.empty(size, dtype=bool)
        self.face = [face[:math.prod(f)].reshape(f) for f in faces]
        self.mask = [mask[:math.prod(f)].reshape(f) for f in faces]
        self.stacked = np.empty((2 * shape[0],) + shape[1:])


class Stepper:
    """Advances a batch of B members that share a grid and a SolverConfig.

    The state is three (B, *cells) arrays u, v, w, and each member has its own
    ModelParams, held as (B, 1[, 1]) columns. The implicit operators are
    diagonal in the DCT-II basis: u takes the shared multiplier
    1/(1 + dt lambda), v the per-member 1/(1 + dt + dt d_b lambda). A step
    costs two batched transform pairs: one for both diffusions, with u and v
    stacked as (2B, *cells), and one for the potential solve. Every operation
    is row by row, so a member gets the same numbers whatever else is in the
    batch. The work arrays (_Buffers) are kept for the batch's shape; a step
    allocates only the arrays it returns.
    """

    def __init__(self, grid: Grid, params, cfg: SolverConfig):
        self.grid = grid
        self.cfg = cfg
        self._lam = neumann_eigenvalues(grid)
        self._mult_u = 1.0 / (1.0 + cfg.dt * self._lam)
        self._set_params(params)

    def _set_params(self, params):
        self.params = tuple(params)
        self._buffers = None
        column = (len(self.params),) + (1,) * self.grid.dim
        names = ("chi", "xi1", "xi2", "a", "mu")
        cols = [[getattr(p, name) for p in self.params] for name in names]
        self._cols = np.array(cols).reshape((5,) + column)
        d = np.array([p.d for p in self.params]).reshape(column)
        # the diffusion multipliers of the stacked (u, v) batch, row by row,
        # packed once; _mult_u and _mult_v are views of the unpacked ones
        n = len(self.params)
        mult_uv = np.empty((2 * n,) + self.grid.cells)
        mult_uv[:n] = self._mult_u
        mult_uv[n:] = 1.0 / (1.0 + self.cfg.dt + self.cfg.dt * d * self._lam)
        self._mult_u, self._mult_v = mult_uv[0], mult_uv[n:]
        self._packed_uv = pack_multiplier(mult_uv, self.grid.dim)
        # members with a logistic term, by exponent: u^theta keeps a scalar
        # exponent, as for a member on its own
        growth = {}
        for row, p in enumerate(self.params):
            if p.a or p.mu:
                growth.setdefault(p.theta, []).append(row)
        self._growth = [(rows, theta) for theta, rows in growth.items()]

    def keep(self, rows):
        """Keep only the members in the given batch rows, in that order."""
        self._set_params([self.params[r] for r in rows])

    def _work(self, shape) -> _Buffers:
        """The work arrays for a batch of this shape, built on first use."""
        if self._buffers is None or self._buffers.shape != shape:
            self._buffers = _Buffers(shape)
        return self._buffers

    def _fluxes(self, carrier: np.ndarray, speeds):
        """Per grid axis, speed * upwind or centred face value, each written into
        the one face array when it is asked for."""
        buf = self._buffers
        for (lo, hi), a, face, mask in zip(face_slices(self.grid.dim), speeds, buf.face, buf.mask):
            if self.cfg.flux_scheme == "upwind":
                np.greater(a, 0.0, out=mask)
                np.copyto(face, carrier[hi])
                np.copyto(face, carrier[lo], where=mask)
            else:
                np.add(carrier[lo], carrier[hi], out=face)
                face *= 0.5
            face *= a
            yield face

    def _advect(self, out: np.ndarray, carrier: np.ndarray, speeds, net: np.ndarray) -> None:
        """out = carrier - dt div(speed * face value), the divergence built in out
        itself; net is a free array shaped like out."""
        divergence_arrays(self._fluxes(carrier, speeds), self.grid.spacing, out.shape, out, net)
        out *= self.cfg.dt
        np.subtract(carrier, out, out=out)

    def _reaction(self, u: np.ndarray, out=None):
        """u (a - mu u^theta) per member, into out if given; exactly 0 for members
        without growth."""
        if not self._growth:
            return 0.0
        a, mu = self._cols[3], self._cols[4]
        react = np.empty_like(u) if out is None else out
        if len(self._growth) == 1 and len(self._growth[0][0]) == len(u):
            np.copyto(react, u)
            react **= self._growth[0][1]  # as u ** theta, with its fast paths
            react *= mu
            np.subtract(a, react, out=react)
            react *= u
            return react
        react[...] = 0.0
        for rows, theta in self._growth:
            ur = u[rows]
            react[rows] = ur * (a[rows] - mu[rows] * ur ** theta)
        return react

    def _transport(self, t: float, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        """Stability check, explicit advection and reaction, implicit diffusion."""
        cfg, grid = self.cfg, self.grid
        buf = self._work(u.shape)
        a_u, a_v = speeds = _face_speeds(grid, v, w, *self._cols[:3],
                                         out=(*buf.speeds, buf.face))
        bound = stable_dt(grid, u, speeds, self.params, cfg)
        unstable = np.flatnonzero(cfg.dt > bound)
        if unstable.size:
            raise StepFailure({
                int(r): f"dt={cfg.dt:.3e} exceeds stability bound {bound[r]:.3e} at t={t:.6g}"
                for r in unstable
            })
        n = len(u)
        u_star, v_star = buf.stacked[:n], buf.stacked[n:]
        self._advect(u_star, u, a_u, net=v_star)
        if self._growth:
            react = self._reaction(u, out=v_star)
            react *= cfg.dt
            u_star += react
        else:
            u_star += 0.0  # dt times the zero reaction, which turns -0.0 into +0.0
        # u's speeds are used up, so their block is free
        self._advect(v_star, v, a_v, net=buf.spare)
        v_star += np.multiply(u, cfg.dt, out=buf.spare)
        out = apply_packed(buf.stacked, self._packed_uv)
        return out[:n], out[n:]

    def _potential(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """w solved from each member's u; 0 for members gone non-finite, which
        the caller classifies as blown up."""
        axes = grid_axes(self.grid)
        finite = np.isfinite(u).all(axis=axes) & np.isfinite(v).all(axis=axes)
        if not finite.all():  # a zero row solves to w = 0
            u = np.where(finite.reshape((-1,) + (1,) * self.grid.dim), u, 0.0)
        buf, n = self._work(u.shape), len(u)
        work = (buf.stacked[:n], buf.stacked[n:], buf.spare, buf.face)
        try:
            w, _res, _it = solve_neumann_poisson(
                self.grid, u, self.cfg.elliptic_tolerance, work)
        except EllipticSolveError as exc:
            missed = np.flatnonzero(~(exc.residuals <= exc.tolerance))
            raise StepFailure({int(r): exc.member_message(r) for r in missed}) from exc
        return w

    def step(self, t: float, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        """Advance every member one dt from time t -> new (u, v, w) batch.

        Raises StepFailure naming the rows that exceed their stability bound
        or miss the potential-solve tolerance; the other rows are unaffected,
        and the caller steps them again without the failed ones.
        """
        u_new, v_new = self._transport(t, u, v, w)
        return u_new, v_new, self._potential(u_new, v_new)


def _member_state(grid: Grid, t: float, batch, row: int) -> SimState:
    """One row of a (u, v, w) batch as a SimState."""
    return SimState(t, grid, *(a[row] for a in batch))


def _ended_rows(u: np.ndarray, v: np.ndarray, axes, t: float, cfg: SolverConfig) -> dict:
    """Rows that blew up (non-finite, or ||u||_inf above threshold) or, under
    upwinding, lost positivity -> {row: (termination reason, detail)}."""
    ended = {}
    extremes = (a.tolist() for a in (u.max(axis=axes), u.min(axis=axes),
                                     v.max(axis=axes), v.min(axis=axes)))
    # max and min propagate nan and reach any inf, so they tell finiteness too
    for row, (umax, umin, vmax, vmin) in enumerate(zip(*extremes)):
        if not all(map(math.isfinite, (umax, umin, vmax, vmin))) \
                or max(umax, -umin) > cfg.blowup_threshold:
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

    The records come straight from the batch arrays (diagnostics_batch).
    A SimState is built only for a member's terminal state and, when
    on_record is given, for each record: on_record(b, state) is then called
    with each recorded SimState, the initial one included.
    """
    grid, t0 = initials[0].grid, initials[0].t
    if any(s.grid != grid or s.t != t0 for s in initials):
        raise ValueError("ensemble members must share a grid and a start time")
    axes = grid_axes(grid)
    n_steps = max(1, math.ceil((cfg.t_end - t0) / cfg.dt - 1e-9))
    t = t0
    u0_means = [float(s.u.mean()) for s in initials]
    records: list[list[DiagnosticsRecord]] = [[] for _ in initials]
    trajectories: list[Trajectory | None] = [None] * len(initials)
    members = list(range(len(initials)))  # the member held in each batch row
    stepper = Stepper(grid, params, cfg)

    def record(t, batch):
        rows = diagnostics_batch(t, *batch, grid, stepper.params, [u0_means[b] for b in members])
        for b, rec in zip(members, rows):
            records[b].append(rec)

    def leave(ended, t, batch):
        """Close the trajectories of the ended rows; return the batch of the rest."""
        nonlocal members
        for row, (reason, detail) in ended.items():
            b = members[row]
            trajectories[b] = Trajectory(
                records[b], _member_state(grid, t, batch, row), reason, detail)
        kept = [row for row in range(len(members)) if row not in ended]
        members = [members[row] for row in kept]
        if kept:
            stepper.keep(kept)
        return tuple(a[kept] for a in batch)

    batch = tuple(np.stack([getattr(s, name) for s in initials]) for name in "uvw")
    record(t, batch)
    if on_record is not None:
        for b, state in enumerate(initials):
            on_record(b, state)
    for k in range(1, n_steps + 1):
        stepped = None
        while members and stepped is None:
            try:
                stepped = stepper.step(t, *batch)
            except StepFailure as exc:
                batch = leave({row: ("step_failure", why) for row, why in exc.reasons.items()},
                              t, batch)
        if not members:
            break
        t = t0 + k * cfg.dt  # exact time grid, no float drift
        batch = stepped
        ended = _ended_rows(batch[0], batch[1], axes, t, cfg)
        if ended:
            batch = leave(ended, t, batch)
            if not members:
                break
        if k % cfg.record_every == 0 or k == n_steps:
            record(t, batch)
            if on_record is not None or k == n_steps:
                for row, b in enumerate(members):
                    state = _member_state(grid, t, batch, row)
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


def write_trajectory_csv(traj: Trajectory, path) -> None:
    lines = [",".join(TRAJECTORY_COLUMNS)]
    for rec in traj.records:
        lines.append(",".join(FLOAT_FMT % v for v in rec.csv_values()))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
