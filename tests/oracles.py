"""Array oracles the tests check the simulator against: the Lyapunov
functionals of one SimState, the discrete mass law of u between records, and
a step's transport computed with a fresh array for every intermediate."""
import numpy as np

from angiosim.elliptic import apply_packed, neumann_eigenvalues, pack_multiplier
from angiosim.functionals import grad_l2, relative_entropy
from angiosim.grid import Field, face_slices, gradient_arrays


def lyap_F1(state, chi: float) -> float:
    """Entropy energy for growth-free runs: int u log(u/ubar) + (chi/2)||grad v||^2."""
    return relative_entropy(Field(state.grid, state.u)) \
        + 0.5 * chi * grad_l2(Field(state.grid, state.v)) ** 2


def lyap_F2(state, p) -> float:
    """Equilibrium entropy for logistic runs, centered on b = (a/mu)^(1/theta).

    int (u - b - b log(u/b)) + (b chi^2 / 2d) int (v - b)^2; needs a, mu > 0.
    """
    if p.a <= 0.0 or p.mu <= 0.0:
        raise ValueError("F2 requires a > 0 and mu > 0 (carrying state b degenerate)")
    b = (p.a / p.mu) ** (1.0 / p.theta)
    uvals = state.u.ravel()
    if uvals.min() <= 0.0:
        raise ValueError("F2 needs a strictly positive cell density")
    z = uvals / b - 1.0
    vol = state.grid.cell_volume
    ent = float(b * np.sum(z - np.log1p(z)) * vol)
    vdev = state.v.ravel() - b
    return ent + (b * p.chi ** 2 / (2.0 * p.d)) * float(np.sum(vdev * vdev) * vol)


def u_power_integral(state, theta: float) -> float:
    """int u^(theta+1), the damping term's integral in the mass law of u."""
    return float(np.sum(state.u.ravel() ** (theta + 1.0)) * state.grid.cell_volume)


def mass_balance_residual(records, power_integrals, p) -> float:
    """Max over consecutive records of the discrete mass-law defect for u.

    |mass_u(k+1) - mass_u(k) - dt_k * (a * mass_u(k) - mu * int u^(theta+1)(k))|,
    with the right side evaluated at the earlier record (the explicit stage of
    the scheme); power_integrals[k] is int u^(theta+1) at record k. Single-record
    trajectories return 0.
    """
    assert len(power_integrals) == len(records)
    worst = 0.0
    for r0, r1, power0 in zip(records, records[1:], power_integrals):
        dt = r1.t - r0.t
        rhs = p.a * r0.mass_u - p.mu * power0
        worst = max(worst, abs(r1.mass_u - r0.mass_u - dt * rhs))
    return worst


def _divergence(fluxes, spacing, shape):
    """Divergence of interior-face fluxes as a sum of per-axis net fluxes,
    starting from zeros."""
    out = np.zeros(shape)
    net = np.empty(shape)
    for (lo, hi), g, h in zip(face_slices(len(spacing)), fluxes, spacing):
        net.fill(0.0)
        net[lo] = g
        net[hi] -= g
        net /= h
        out += net
    return out


def face_speeds(grid, params, v, w):
    """Per grid axis, the face speeds chi grad v - xi1 grad w of u and -xi2 grad w
    of v, for a (B, *cells) batch with params[b] for member b."""
    column = (len(params),) + (1,) * grid.dim
    chi, xi1, xi2 = (np.array([getattr(p, name) for p in params]).reshape(column)
                     for name in ("chi", "xi1", "xi2"))
    a_u = gradient_arrays(v, grid.spacing)
    grad_w = gradient_arrays(w, grid.spacing)
    a_v = [-xi2 * g for g in grad_w]
    for s, g in zip(a_u, grad_w):
        s *= chi
        g *= xi1
        s -= g
    return a_u, a_v


def reaction(params, u):
    """u (a - mu u^theta) per member of a (B, *cells) batch; 0 without growth."""
    react = np.zeros_like(u)
    for b, p in enumerate(params):
        if p.a or p.mu:
            react[b] = u[b] * (p.a - p.mu * u[b] ** p.theta)
    return react


def allocating_transport(grid, params, cfg, u, v, w):
    """(u, v) of a (B, *cells) batch after one step's transport, allocating.

    The face speeds above, face values by np.where (upwind) or the face mean
    (central), the explicit update u - dt div(flux) + dt u (a - mu u^theta) and
    v - dt div(flux) + dt u, then both implicit diffusions as one stacked
    transform pair.
    """
    n, dt = len(params), cfg.dt
    d = np.array([p.d for p in params]).reshape((n,) + (1,) * grid.dim)
    a_u, a_v = face_speeds(grid, params, v, w)

    def advect(c, speeds):
        fluxes = []
        for (lo, hi), s in zip(face_slices(grid.dim), speeds):
            if cfg.flux_scheme == "upwind":
                face = np.where(s > 0.0, c[lo], c[hi])
            else:
                face = c[lo] + c[hi]
                face *= 0.5
            face *= s
            fluxes.append(face)
        return _divergence(fluxes, grid.spacing, c.shape)

    stacked = np.empty((2 * n,) + u.shape[1:])
    sources = (reaction(params, u), u)
    for half, c, speeds, source in zip((stacked[:n], stacked[n:]), (u, v), (a_u, a_v), sources):
        adv = advect(c, speeds)
        adv *= dt
        np.subtract(c, adv, out=half)
        half += dt * source
    lam = neumann_eigenvalues(grid)
    mult = np.concatenate([np.broadcast_to(1.0 / (1.0 + dt * lam), u.shape),
                           1.0 / (1.0 + dt + dt * d * lam)])
    out = apply_packed(stacked, pack_multiplier(mult, grid.dim))
    return out[:n], out[n:]
