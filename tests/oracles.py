"""Array oracles the tests check the simulator against: the Lyapunov
functionals of one SimState and the discrete mass law of u between records."""
import numpy as np

from angiosim.functionals import grad_l2, relative_entropy
from angiosim.grid import Field


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
