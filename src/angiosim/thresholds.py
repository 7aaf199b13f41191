"""Structural bounds, regime classification, and empirical threshold checks.

The structural formulas reproduce the boundedness/convergence conditions of
the model exactly as stated. The paper proves them for generic positive
constants it never gives values for: the multipliers K1, K2 of the sup-norm
bounds and the regime thresholds xi0, mu0. They are fixed at 1 here, as the
module constants K1, K2, XI0 and MU0. Empirical checks take the sups a run
measured, A and B below, as float64 numbers (a square past the float range
reads inf) and evaluate the same expressions, so a report pairs each
structural value with the run it was checked against.

Notation used by the report fields: m1 = L1 mass ceiling, M0 = sup-norm bound
for v, b = (a/mu)^(1/theta) logistic carrying state, A/B = measured sup v /
sup |grad w|, epsilon1 = factor-gradient dissipation weight, sigma = entropy
decay rate floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ThresholdReport",
    "compute_m1",
    "structural_M0",
    "structural_gradw_bound",
    "lambda_of_z",
    "empirical_mu_threshold",
    "empirical_d0_check",
    "sigma_rate",
    "condition_presets",
    "mitosis_regime_floor",
    "m1c_value",
]


K1 = K2 = XI0 = MU0 = 1.0  # the paper's generic constants (see above)


@dataclass(frozen=True)
class ThresholdReport:
    """Flat bundle of structural and empirical threshold values.

    Fields that do not apply to a scenario (e.g. sigma on a growth-free run)
    hold nan and serialize as such.
    """

    m1: float = math.nan
    M0: float = math.nan
    gradw_bound: float = math.nan
    M1c: float = math.nan
    M_mu: float = math.nan
    lambda_of_z: float = math.nan
    mu_threshold: float = math.nan
    empirical_A: float = math.nan
    empirical_B: float = math.nan
    d0_check_value: float = math.nan
    epsilon1: float = math.nan
    sigma: float = math.nan
    b: float = math.nan


REPORT_FIELDS = tuple(f.name for f in fields(ThresholdReport))


def compute_m1(u0_mass: float, p, omega_measure: float) -> float:
    """L1 ceiling for the cell mass. Exact conservation value when mu = 0;
    with damping, the initial mass plus the logistic saturation excess."""
    if u0_mass < 0 or omega_measure <= 0:
        raise ValueError("need u0_mass >= 0 and a positive domain measure")
    if p.mu == 0.0:
        return u0_mass
    th = p.theta
    excess = (
        (1.0 + p.a) ** ((1.0 + th) / th)
        * (1.0 / p.mu) ** (1.0 / th)
        * (2.0 / (th + 1.0)) ** (1.0 / th)
        * (th / (th + 1.0))
        * omega_measure
    )
    return u0_mass + excess


def structural_M0(p) -> float:
    """Structural sup-norm bound for the factor v. The mass ceiling m1 of the
    underlying bound is folded into the damping branch's (1/mu)^(1/theta) factors."""
    if p.xi2 <= 0.0:
        raise ValueError("structural_M0 needs xi2 > 0")
    n = p.n_dim
    if p.mu == 0.0:
        return K1 * (1.0 + 1.0 / p.xi2) * (
            1.0 + p.xi2 + (1.0 / p.d) ** (n / 2.0) * p.xi2 ** (1.0 + n / 2.0)
        )
    r = (1.0 / p.mu) ** (1.0 / p.theta)
    return K1 * (1.0 + r + 1.0 / p.xi2) * (
        1.0 + r * p.xi2 + (1.0 / p.d) ** (n / 2.0) * (r * p.xi2) ** (1.0 + n / 2.0)
    )


def mitosis_regime_floor(chi: float, n_dim: int) -> float:
    """Damping floor for the theta = 1 regime: max{1, chi^((8+2n)/(5+n))} * mu0 * chi^(2/(5+n))."""
    n = n_dim
    return max(1.0, chi ** ((8.0 + 2.0 * n) / (5.0 + n))) * MU0 * chi ** (2.0 / (5.0 + n))


def m1c_value(p, M0: float) -> tuple[float, float]:
    """(M1c, M_mu) per the applicable regime branch; errors if none applies."""
    n = p.n_dim
    if p.mu == 0.0:
        if p.xi1 >= XI0 * p.chi ** 2:
            return p.xi1, math.nan
        raise ValueError(
            f"no gradient-bound branch applies: mu = 0 needs xi1 >= xi0*chi^2 "
            f"({p.xi1} < {XI0 * p.chi ** 2})"
        )
    r = (1.0 / p.mu) ** (1.0 / p.theta)
    m_mu = (1.0 + p.xi1 * r + r) * (1.0 / p.mu) ** ((n + 1.0) / p.theta)
    if p.theta == 1.0:
        floor = mitosis_regime_floor(p.chi, n)
        if p.mu >= floor:  # the paper's condition (2), as condition_presets reads it
            return m_mu, m_mu
        raise ValueError(
            f"no gradient-bound branch applies: theta = 1 needs mu >= {floor:.6g} "
            f"(mu = {p.mu})"
        )
    if p.theta > 1.0:
        tail = ((p.theta - 1.0) / p.mu ** ((n + 2.0) / (p.theta - 1.0))) * (
            (1.0 + 1.0 / p.d ** (n + 2.0)) * (1.0 + M0 * p.xi2) * M0 * p.chi ** 2
        ) ** ((n + 1.0 + p.theta) / (p.theta - 1.0))
        return m_mu + tail, m_mu
    raise ValueError("no gradient-bound branch applies to this (xi1, mu, theta)")


def structural_gradw_bound(p, M0: float) -> float:
    """Structural sup-norm bound for |grad w| on a convex domain, where the
    bound's domain term d_Omega M0^(2n+2) vanishes; every simulated box is convex."""
    n = p.n_dim
    m1c, _ = m1c_value(p, M0)
    inner = 1.0 + 1.0 / p.d * p.chi ** 2 * M0 ** (1.0 - n) + m1c
    return K2 * inner ** (1.0 / (n + 1.0))


def lambda_of_z(p, cp: float, z: float) -> float:
    """Damping-threshold kernel (d chi^2 + d^2 cp^2 xi1^2 + cp^2 xi2^2 z) / (2 d^2 a^((theta-2)/theta))."""
    if p.a <= 0.0:
        raise ValueError("lambda_of_z needs a > 0")
    num = p.d * p.chi ** 2 + p.d ** 2 * cp ** 2 * p.xi1 ** 2 + cp ** 2 * p.xi2 ** 2 * z
    return num / (2.0 * p.d ** 2 * p.a ** ((p.theta - 2.0) / p.theta))


def empirical_mu_threshold(p, cp: float, A: float) -> float:
    """Damping threshold lambda(A^2)^(theta/2) with A = measured sup_t ||v||_inf."""
    if p.growth.name != "logistic" or p.theta < 1.0:
        raise ValueError("mu threshold needs a > 0, mu > 0, theta >= 1")
    A = np.float64(A)
    return lambda_of_z(p, cp, A * A) ** (p.theta / 2.0)


def empirical_d0_check(p, A: float, B: float) -> tuple[float, float]:
    """(check_value, epsilon1) of the growth-free dissipation check, from the
    measured sups A = sup||v||, B = sup|grad w|.

    check_value = (d - (2 + A xi2)^2 chi / (4 xi1) - B^2 xi2^2 / 4) * chi;
    chi = 0 gives 0 for every d. epsilon1 is the dissipation weight, 0 unless
    check_value > 0.
    """
    if p.growth.name != "growth-free":
        raise ValueError("d0 check applies to growth-free runs (a = mu = 0)")
    if p.xi1 <= 0.0:
        raise ValueError("d0 check needs xi1 > 0")
    A, B = np.float64(A), np.float64(B)
    core = p.d - (2.0 + A * p.xi2) ** 2 * p.chi / (4.0 * p.xi1) - B ** 2 * p.xi2 ** 2 / 4.0
    check_value = core * p.chi
    if check_value > 0.0:
        eps1 = 0.5 * core / (p.d - (2.0 + A * p.xi2) ** 2 * p.chi / (4.0 * p.xi1))
    else:
        eps1 = 0.0
    return check_value, eps1


def sigma_rate(p, cp: float, A: float) -> float:
    """Entropy decay rate floor min{1, b^theta (mu - bracket)} for logistic runs.

    bracket = ((1 + cp^2 xi2^2 A^2 / d) chi^2 / d + cp^2 xi1^2) / (2 b^(theta-2)),
    A the measured sup_t ||v||_inf. Errors when the floor is nonpositive
    (damping below the regime).
    """
    if p.growth.name != "logistic" or p.theta < 1.0:
        raise ValueError("sigma_rate needs a > 0, mu > 0, theta >= 1")
    b = p.carrying_state
    A = np.float64(A)
    bracket = p.mu - (
        (1.0 + cp ** 2 * p.xi2 ** 2 * A ** 2 / p.d) * p.chi ** 2 / p.d
        + cp ** 2 * p.xi1 ** 2
    ) / (2.0 * b ** (p.theta - 2.0))
    if bracket <= 0.0:
        raise ValueError(
            f"damping below the decay regime: mu - threshold bracket = {bracket:.6g} <= 0"
        )
    return min(1.0, b ** p.theta * bracket)


def condition_presets(p) -> str:
    """Classify params into the global-boundedness regimes.

    R1: repulsion dominates (xi1 >= xi0 chi^2); R2: theta = 1 with damping
    above the mitosis floor; R3: theta > 1 with any positive damping; open:
    none of the above (no boundedness claim).
    """
    if p.xi1 >= XI0 * p.chi ** 2:
        return "R1"
    if p.theta == 1.0 and p.mu >= mitosis_regime_floor(p.chi, p.n_dim):
        return "R2"
    if p.theta > 1.0 and p.mu > 0.0:
        return "R3"
    return "open"
