"""Time integration of the coupled cell/factor/potential system.

State (u, v, w): cell density u, diffusible factor v, repulsive potential w.

    u_t = lap u - chi div(u grad v) + xi1 div(u grad w) + u (a - mu u^theta)
    v_t = d lap v + xi2 div(v grad w) + u - v
    0   = lap w + u - mean(u),  int w = 0

with zero-flux boundaries. One step splits as:

  1. explicit conservative advection with per-face upwinding on the transport
     velocity (chi grad v - xi1 grad w for u; -xi2 grad w for v), plus the
     explicit logistic term for u and the +u source for v;
  2. implicit backward-Euler diffusion: (I - dt lap) u and
     ((1+dt) I - dt d lap) v -- the -v decay rides the implicit solve. Both
     operators are diagonal in the DCT-II basis (see elliptic), so each
     solve is one transform pair with a per-mode multiplier;
  3. a fresh potential solve for w from the updated u.

The explicit fluxes telescope and the implicit multipliers are exactly 1 and
1/(1+dt) on the constant mode, so per step, exactly up to transform round-off:
    int u(k+1) - int u(k) = dt (a int u(k) - mu int u(k)^(theta+1))
    (1+dt) int v(k+1) = int v(k) + dt int u(k).
Upwinding keeps u > 0, v >= 0 whenever dt respects stable_dt; the `central`
flux scheme trades that guarantee for second-order spatial accuracy and is
meant for smooth short-time order studies only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .elliptic import (
    EllipticConfig,
    EllipticSolveError,
    neumann_eigenvalues,
    solve_neumann_poisson,
    spectral_apply,
)
from .functionals import DiagnosticsRecord, diagnostics_record
from .grid import (
    FLOAT_FMT,
    Field,
    Grid,
    divergence_arrays,
    gradient_arrays,
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
    "step",
    "run",
    "write_trajectory_csv",
]

INITIAL_PROFILES = ("constant", "cosine_bump", "gaussian_bump", "random_positive")
FLUX_SCHEMES = ("upwind", "central")


@dataclass(frozen=True)
class ModelParams:
    """chi: attraction, xi1/xi2: repulsion couplings, d: factor diffusivity,
    a/mu/theta: logistic growth, n_dim: dimension entering structural bounds.

    The analysis regime needs xi1, xi2 > 0; zero values are permitted for
    oracle runs and flagged off_regime.
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
        if self.chi < 0 or self.xi1 < 0 or self.xi2 < 0:
            raise ValueError("couplings chi, xi1, xi2 must be >= 0")
        if self.d <= 0:
            raise ValueError(f"diffusivity d must be > 0, got {self.d}")
        if self.a < 0 or self.mu < 0:
            raise ValueError("growth a and damping mu must be >= 0")
        if self.theta <= 0:
            raise ValueError(f"damping exponent theta must be > 0, got {self.theta}")
        if self.n_dim < 1:
            raise ValueError("n_dim must be a positive integer")

    @property
    def off_regime(self) -> bool:
        return self.xi1 == 0.0 or self.xi2 == 0.0


@dataclass(frozen=True)
class SimState:
    """Snapshot at time t. Invariants maintained by the upwind stepper:
    u > 0, v >= 0, int w = 0 and w solves the potential equation for u."""

    t: float
    u: Field
    v: Field
    w: Field


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    cfl_safety: float = 0.5
    flux_scheme: str = "upwind"
    blowup_threshold: float = 1e6
    record_every: int = 10
    elliptic: EllipticConfig = EllipticConfig()

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be > 0")
        if not (0 < self.cfl_safety <= 1):
            raise ValueError(f"cfl_safety must be in (0, 1], got {self.cfl_safety}")
        if self.flux_scheme not in FLUX_SCHEMES:
            raise ValueError(f"flux_scheme must be one of {FLUX_SCHEMES}")
        if self.blowup_threshold <= 0:
            raise ValueError("blowup_threshold must be > 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


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
            raise ValueError(f"unknown profile {self.profile!r}; use {INITIAL_PROFILES}")
        vp = self.v_profile if self.v_profile is not None else self.profile
        if vp not in INITIAL_PROFILES:
            raise ValueError(f"unknown v_profile {vp!r}; use {INITIAL_PROFILES}")


@dataclass
class Trajectory:
    records: list[DiagnosticsRecord]
    terminal: SimState
    termination_reason: str  # completed | blowup_detected | step_failure
    failure_detail: str = ""


class StepFailure(RuntimeError):
    pass


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


def make_initial(grid: Grid, spec: InitialSpec, elliptic: EllipticConfig = EllipticConfig()) -> SimState:
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
    u = Field(grid, u_vals)
    w_arr, _res, _it = solve_neumann_poisson(
        grid, u_vals.reshape(grid.cells) - u_vals.mean(), elliptic
    )
    return SimState(0.0, u, Field(grid, v_vals), Field(grid, w_arr))


def _face_speeds(state: SimState, p: ModelParams):
    """Per-axis interior-face transport speeds for u and v (shaped arrays)."""
    spacing = state.u.grid.spacing
    gv = gradient_arrays(state.v.shaped(), spacing)
    gw = gradient_arrays(state.w.shaped(), spacing)
    a_u = [p.chi * a - p.xi1 * b for a, b in zip(gv, gw)]
    a_v = [-p.xi2 * b for b in gw]
    return a_u, a_v


def stable_dt(state: SimState, p: ModelParams, cfg: SolverConfig) -> float:
    """cfl_safety * min(face CFL per axis, reaction bound, factor-source bound).

    Face CFL is h / max|speed| per axis over both transported species; the
    reaction bound 1/(a + mu ||u||_inf^theta + 1) keeps the explicit logistic
    update positive; the factor-source bound is 1.
    """
    a_u, a_v = _face_speeds(state, p)
    bound = 1.0  # v-source bound
    umax = float(np.max(state.u.values))
    bound = min(bound, 1.0 / (p.a + p.mu * max(umax, 0.0) ** p.theta + 1.0))
    for k, h in enumerate(state.u.grid.spacing):
        smax = max(float(np.max(np.abs(a_u[k]))), float(np.max(np.abs(a_v[k]))))
        if smax > 0.0:
            bound = min(bound, h / smax)
    return cfg.cfl_safety * bound


class Stepper:
    """Holds the per-run implicit multipliers and advances one dt.

    The implicit operators depend only on (grid, dt, d). In the DCT-II basis
    they are the per-mode multipliers 1/(1 + dt lambda) for u and
    1/(1 + dt + dt d lambda) for v, built once per run, so a step costs
    three transform pairs: two diffusions and the potential solve.
    """

    def __init__(self, grid: Grid, p: ModelParams, cfg: SolverConfig):
        self.grid = grid
        self.p = p
        self.cfg = cfg
        lam = neumann_eigenvalues(grid)
        self._mult_u = 1.0 / (1.0 + cfg.dt * lam)
        self._mult_v = 1.0 / (1.0 + cfg.dt + cfg.dt * p.d * lam)

    def _advect(self, carrier: np.ndarray, speeds) -> np.ndarray:
        """div(speed * face value) with upwind or centered face values."""
        grid = self.grid
        fluxes = []
        for k, a in enumerate(speeds):
            lo = [slice(None)] * grid.dim
            hi = [slice(None)] * grid.dim
            lo[k] = slice(0, -1)
            hi[k] = slice(1, None)
            c_lo = carrier[tuple(lo)]
            c_hi = carrier[tuple(hi)]
            if self.cfg.flux_scheme == "upwind":
                face = np.where(a > 0.0, c_lo, c_hi)
            else:
                face = 0.5 * (c_lo + c_hi)
            fluxes.append(a * face)
        return divergence_arrays(fluxes, grid.spacing, grid.cells)

    def step(self, state: SimState) -> SimState:
        p, cfg, grid = self.p, self.cfg, self.grid
        bound = stable_dt(state, p, cfg)
        if cfg.dt > bound:
            raise StepFailure(
                f"dt={cfg.dt:.3e} exceeds stability bound {bound:.3e} at t={state.t:.6g}"
            )
        u = state.u.shaped()
        v = state.v.shaped()
        a_u, a_v = _face_speeds(state, p)

        react = u * (p.a - p.mu * u ** p.theta) if (p.a or p.mu) else 0.0
        u_star = u - cfg.dt * self._advect(u, a_u) + cfg.dt * react
        v_star = v - cfg.dt * self._advect(v, a_v) + cfg.dt * u

        u_new = spectral_apply(u_star, self._mult_u)
        v_new = spectral_apply(v_star, self._mult_v)

        if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
            # hand the non-finite state back; run() classifies it as blow-up
            return SimState(
                state.t + cfg.dt,
                Field(grid, u_new, validate=False),
                Field(grid, v_new, validate=False),
                Field(grid, np.zeros(grid.n_cells), validate=False),
            )
        w_new, _res, _it = solve_neumann_poisson(grid, u_new - u_new.mean(), cfg.elliptic)
        return SimState(
            state.t + cfg.dt, Field(grid, u_new), Field(grid, v_new), Field(grid, w_new)
        )


def step(state: SimState, p: ModelParams, cfg: SolverConfig) -> SimState:
    """Advance one dt (one-shot; run() reuses a Stepper for whole runs)."""
    return Stepper(state.u.grid, p, cfg).step(state)


def run(initial: SimState, p: ModelParams, cfg: SolverConfig, on_record=None) -> Trajectory:
    """Integrate to t_end with diagnostics every record_every steps.

    Returns a Trajectory whose termination_reason is "completed",
    "blowup_detected" (||u||_inf above threshold or non-finite values; the
    offending partial state is kept), or "step_failure" (stability violation
    or solver breakdown; diagnostics up to the failure are kept).
    on_record, if given, is called with each recorded SimState.
    """
    grid = initial.u.grid
    u0_mean = float(initial.u.values.mean())
    stepper = Stepper(grid, p, cfg)
    n_steps = max(1, math.ceil(cfg.t_end / cfg.dt - 1e-9))

    def record(state):
        rec = diagnostics_record(state, p, u0_mean)
        records.append(rec)
        if on_record is not None:
            on_record(state)

    records: list[DiagnosticsRecord] = []
    record(initial)
    state = initial
    for k in range(1, n_steps + 1):
        try:
            state = stepper.step(state)
        except (StepFailure, EllipticSolveError) as exc:
            return Trajectory(records, state, "step_failure", str(exc))
        state = replace(state, t=k * cfg.dt)  # exact time grid, no float drift
        bad = not np.all(np.isfinite(state.u.values)) \
            or not np.all(np.isfinite(state.v.values)) \
            or float(np.max(np.abs(state.u.values))) > cfg.blowup_threshold
        if bad:
            return Trajectory(
                records, state, "blowup_detected",
                f"||u||_inf beyond {cfg.blowup_threshold:g} at t={state.t:.6g}",
            )
        if cfg.flux_scheme == "upwind" and (
            state.u.values.min() <= 0.0 or state.v.values.min() < 0.0
        ):
            return Trajectory(
                records, state, "step_failure",
                f"positivity lost at t={state.t:.6g} (min u {state.u.values.min():.3e})",
            )
        if k % cfg.record_every == 0 or k == n_steps:
            record(state)
    return Trajectory(records, state, "completed")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    from .functionals import TRAJECTORY_COLUMNS

    lines = [",".join(TRAJECTORY_COLUMNS)]
    for rec in traj.records:
        lines.append(",".join(FLOAT_FMT % v for v in rec.csv_values()))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
