"""Diagnostics: entropies, Lyapunov functionals, decay fits, inequality checks.

diagnostics_batch reads the trajectory columns straight off a run's
(B, *cells) state arrays. The Lyapunov functionals it records are
    F1 = int u log(u/ubar) + (chi/2) ||grad v||^2              (a = mu = 0)
    F2 = int (u - b - b log(u/b)) + (b chi^2 / 2d) int (v - b)^2   (a, mu > 0)
with b = (a/mu)^(1/theta) the logistic carrying state. The entropy helpers
that take a grid.Field serve the verification battery.

Entropy-like integrands are evaluated in shifted form so every term is
nonnegative and the quadrature never cancels: u*log(u/ubar) integrates to the
same value as u*log(u/ubar) - (u - ubar) because the linear part integrates to
zero exactly under midpoint quadrature, and the shifted integrand is a convex
distance from the mean. Same trick for the logistic equilibrium entropy. This
keeps the functionals clean down to ~1e-14 relative to field scale, which the
late-time decay fits rely on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import _residuals, _sums_of_squares
from .grid import (
    Field,
    Grid,
    gradient_arrays,
    lp_norm,
    mean,
)

__all__ = [
    "TRAJECTORY_COLUMNS",
    "DiagnosticsRecord",
    "RateFit",
    "InequalityCheck",
    "INEQUALITY_NAMES",
    "relative_entropy",
    "entropy_sandwich_check",
    "grad_l2",
    "fit_decay_rate",
    "CosineTestFunction",
    "verify_interpolation_inequalities",
    "diagnostics_batch",
    "diagnostics_record",
]

# trajectory CSV schema, one column per DiagnosticsRecord field
TRAJECTORY_COLUMNS = (
    "t", "mass_u", "mass_v", "linf_u", "linf_v", "l2_u_dev", "l2_v_dev",
    "l2_grad_v", "linf_grad_w", "F1", "F2", "elliptic_residual",
    "min_u", "min_v",
)


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    mass_u: float
    mass_v: float
    linf_u: float
    linf_v: float
    l2_u_dev: float
    l2_v_dev: float
    l2_grad_v: float
    linf_grad_w: float
    F1: float
    F2: float
    elliptic_residual: float
    min_u: float
    min_v: float

    def csv_values(self):
        return [getattr(self, name) for name in TRAJECTORY_COLUMNS]


@dataclass(frozen=True)
class RateFit:
    rate: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    n_samples: int


def relative_entropy(u: Field) -> float:
    """int u log(u / mean u) >= 0. Requires u > 0 cell-wise."""
    vals = u.values
    if vals.min() <= 0.0:
        raise ValueError("relative entropy needs a strictly positive field")
    ubar = float(vals.mean())  # uniform cells: arithmetic mean == field mean
    z = vals / ubar - 1.0
    # (1+z)log1p(z) - z >= 0, no cancellation across cells
    return float(ubar * np.sum((1.0 + z) * np.log1p(z) - z) * u.grid.cell_volume)


def entropy_sandwich_check(u: Field) -> tuple[float, float]:
    """Gaps of the L1/L2 entropy sandwich; both >= 0 up to round-off.

    lower_gap  = entropy - ||u-ubar||_1^2 / (2 ubar)
    upper_gap  = ||u-ubar||_2^2 / ubar - entropy
    The L1 lower constant is sharp only for domains of measure <= 1; the
    shipped presets all use unit-measure boxes.
    """
    ent = relative_entropy(u)
    ubar = mean(u)
    dev = Field(u.grid, u.values - ubar)
    l1 = lp_norm(dev, 1)
    l2 = lp_norm(dev, 2)
    return ent - l1 * l1 / (2.0 * ubar), l2 * l2 / ubar - ent


def grad_l2(f: Field) -> float:
    """L2 norm of the face gradient (one cell volume per interior face)."""
    s = 0.0
    for g in gradient_arrays(f.shaped(), f.grid.spacing):
        s += float(np.sum(g * g))
    return math.sqrt(s * f.grid.cell_volume)


def _default_window(arr: np.ndarray) -> tuple[float, float]:
    """Fit window for a decaying (N, 2) array of (t, value) rows: skip the initial
    transient, stop before the round-off plateau, or fall back to the last half if
    < 10 samples remain. The plateau starts where values drop below 1e-8 of the start:
    nearer round-off, a trajectory change in the last bits moves the fitted rate."""
    t, v = arr[:, 0], arr[:, 1]
    t0, t1 = float(t[0]), float(t[-1])
    below = np.flatnonzero((t > t0) & (v < v[0] * 1e-8)) if v[0] > 0.0 else ()
    hi = float(t[below[0]]) if len(below) else t1
    lo = t0 + (0.2 if len(below) else 0.1) * (hi - t0)
    enough = np.count_nonzero((t >= lo) & (t <= hi)) >= 10
    return (lo, hi) if enough else (t0 + 0.5 * (t1 - t0), t1)


def fit_decay_rate(series, window=None) -> RateFit:
    """Least-squares exponential rate on (t, value) pairs inside [t0, t1].

    Fits log(value) = intercept - rate * t. Needs >= 10 samples in the
    window, all strictly positive (shrink the window to dodge the round-off
    floor of deeply converged functionals). window=None fits over
    _default_window, the window run, sweep and fit all default to.
    """
    arr = np.asarray(list(series), dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("series must be (t, value) pairs")
    if window is None:
        window = _default_window(arr)
    t0, t1 = float(window[0]), float(window[1])
    if not t0 < t1:
        raise ValueError(f"bad fit window ({t0}, {t1})")
    sel = (arr[:, 0] >= t0) & (arr[:, 0] <= t1)
    t = arr[sel, 0]
    v = arr[sel, 1]
    if t.size < 10:
        raise ValueError(f"only {t.size} samples in window ({t0}, {t1}); need >= 10")
    if np.any(v <= 0.0):
        raise ValueError(
            f"nonpositive values in window ({t0}, {t1}); shrink the window"
        )
    y = np.log(v)
    tm = t.mean()
    ym = y.mean()
    stt = float(np.sum((t - tm) ** 2))
    slope = float(np.sum((t - tm) * (y - ym)) / stt)
    intercept = ym - slope * tm
    ss_res = float(np.sum((y - (intercept + slope * t)) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-20 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RateFit(-slope, intercept, r2, (t0, t1), int(t.size))


# ---------------------------------------------------------------------------
# interpolation-inequality battery

INEQUALITY_NAMES = ("grad_pairing", "div_pairing", "grad_power")


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float


class CosineTestFunction:
    """Neumann-compatible trig polynomial: sum_k c_k prod_i cos(k_i pi x_i / L_i).

    Modes k_i <= 3 per axis. Zero normal derivative on every box face, so the
    integration-by-parts identities behind the inequality battery apply.
    Derivatives are analytic; the battery samples them at cell centers.
    """

    MAX_MODE = 3

    def __init__(self, lengths, coeffs):
        self.lengths = tuple(float(l) for l in lengths)
        self.dim = len(self.lengths)
        shape = (self.MAX_MODE + 1,) * self.dim
        c = np.asarray(coeffs, dtype=np.float64).reshape(shape)
        self.coeffs = c

    @classmethod
    def random(cls, lengths, rng):
        dim = len(lengths)
        n = (cls.MAX_MODE + 1) ** dim
        return cls(lengths, rng.uniform(-1.0, 1.0, size=n))

    def _tables(self, grid: Grid, axis: int):
        x = grid.axis_centers(axis)
        ks = np.arange(self.MAX_MODE + 1)
        omega = ks * math.pi / self.lengths[axis]
        arg = np.outer(omega, x)
        return np.cos(arg), np.sin(arg), omega

    def sample(self, grid: Grid):
        """Values, gradients, Hessians at cell centers (flat row-major).

        Returns (vals (M,), grad (M,dim), hess (M,dim,dim)).
        """
        if grid.dim != self.dim:
            raise ValueError("grid/function dimension mismatch")
        if grid.dim == 1:
            C, S, om = self._tables(grid, 0)
            c = self.coeffs
            vals = c @ C
            grad = (-(c * om)) @ S
            hess = (-(c * om * om)) @ C
            return vals, grad[:, None], hess[:, None, None]

        C0, S0, om0 = self._tables(grid, 0)
        C1, S1, om1 = self._tables(grid, 1)
        c = self.coeffs
        n0, n1 = grid.cells
        m = grid.n_cells
        vals = np.zeros((n0, n1))
        gx = np.zeros((n0, n1))
        gy = np.zeros((n0, n1))
        hxx = np.zeros((n0, n1))
        hyy = np.zeros((n0, n1))
        hxy = np.zeros((n0, n1))
        for k0 in range(self.MAX_MODE + 1):
            for k1 in range(self.MAX_MODE + 1):
                ck = c[k0, k1]
                if ck == 0.0:
                    continue
                cc = np.outer(C0[k0], C1[k1])
                vals += ck * cc
                gx += -ck * om0[k0] * np.outer(S0[k0], C1[k1])
                gy += -ck * om1[k1] * np.outer(C0[k0], S1[k1])
                hxx += -ck * om0[k0] ** 2 * cc
                hyy += -ck * om1[k1] ** 2 * cc
                hxy += ck * om0[k0] * om1[k1] * np.outer(S0[k0], S1[k1])
        grad = np.stack([gx.ravel(), gy.ravel()], axis=1)
        hess = np.empty((m, 2, 2))
        hess[:, 0, 0] = hxx.ravel()
        hess[:, 1, 1] = hyy.ravel()
        hess[:, 0, 1] = hxy.ravel()
        hess[:, 1, 0] = hxy.ravel()
        return vals.ravel(), grad, hess


def verify_interpolation_inequalities(test_id: int, p: float, grid: Grid):
    """Evaluate both sides of the three gradient-interpolation inequalities.

    test_id seeds the coefficient draw for the (g, h) pair; p >= 1 is the
    exponent. Returns three InequalityCheck entries; the caller asserts
    lhs <= rhs * (1 + 5h) (h = max spacing) to absorb quadrature error.
    """
    if p < 1.0:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    rng = np.random.default_rng(int(test_id))
    g = CosineTestFunction.random(grid.lengths, rng)
    h = CosineTestFunction.random(grid.lengths, rng)

    gv, gg, gH = g.sample(grid)
    hv, hg, hH = h.sample(grid)
    vol = grid.cell_volume
    rootn = math.sqrt(grid.dim)

    def quad(f):
        return float(np.sum(f) * vol)

    def lq_norm(f, q):
        return quad(np.abs(f) ** q) ** (1.0 / q)

    gmag = np.sqrt(np.sum(gg * gg, axis=1))
    lap_g = np.trace(gH, axis1=1, axis2=2)
    lap_h = np.trace(hH, axis1=1, axis2=2)
    frob_g = np.sqrt(np.sum(gH * gH, axis=(1, 2)))
    frob_h = np.sqrt(np.sum(hH * hH, axis=(1, 2)))
    g_sup = float(np.max(np.abs(gv)))

    # |grad g|^(2p-2) grad g . grad(grad g . grad h)
    mixed = np.einsum("mij,mj->mi", gH, hg) + np.einsum("mij,mj->mi", hH, gg)
    pair = np.einsum("mi,mi->m", gg, mixed)
    lhs1 = abs(quad(gmag ** (2.0 * p - 2.0) * pair))
    rhs1 = (rootn / (2.0 * p) + 1.0) * lq_norm(gmag, 2.0 * (p + 1.0)) ** (2.0 * p) \
        * lq_norm(frob_h, p + 1.0)

    # g * lap h * div(|grad g|^(2p-2) grad g)
    div_flux = gmag ** (2.0 * p - 2.0) * lap_g
    if p > 1.0:
        qform = np.einsum("mi,mij,mj->m", gg, gH, gg)
        pos = gmag > 0.0
        extra = np.zeros_like(gmag)
        extra[pos] = gmag[pos] ** (2.0 * p - 4.0) * qform[pos]
        div_flux = div_flux + (2.0 * p - 2.0) * extra
    lhs2 = abs(quad(gv * lap_h * div_flux))
    rhs2 = (2.0 * (p - 1.0) + rootn) * g_sup \
        * lq_norm(gmag, 2.0 * (p + 1.0)) ** (p - 1.0) \
        * lq_norm(lap_h, p + 1.0) \
        * math.sqrt(quad(gmag ** (2.0 * p - 2.0) * frob_g ** 2))

    # |grad g|^(2(p+1)) vs Hessian-weighted lower power
    lhs3 = quad(gmag ** (2.0 * (p + 1.0)))
    rhs3 = (2.0 * p + rootn) ** 2 * g_sup ** 2 \
        * quad(gmag ** (2.0 * (p - 1.0)) * frob_g ** 2)

    return [
        InequalityCheck("grad_pairing", lhs1, rhs1),
        InequalityCheck("div_pairing", lhs2, rhs2),
        InequalityCheck("grad_power", lhs3, rhs3),
    ]


# ---------------------------------------------------------------------------
# per-state diagnostics

def _rows(arr: np.ndarray, rows: list[int], n: int) -> np.ndarray:
    """arr restricted to the given batch rows; all n rows is arr itself."""
    return arr if len(rows) == n else arr[rows]


def _row_sums(arr: np.ndarray) -> list[float]:
    return np.add.reduce(arr.reshape(len(arr), -1), axis=-1).tolist()


def _l2_rows(arr: np.ndarray, vol: float) -> list[float]:
    """L2 norm of each row of a (B, m) array, finite wherever the true norm is."""
    (sums,), e = _sums_of_squares([arr], (-1,))
    return np.ldexp([(s * vol) ** 0.5 for s in sums.tolist()], e).tolist()


def diagnostics_batch(t, u, v, w, grid: Grid, params, u0_means) -> list[DiagnosticsRecord]:
    """The diagnostics row of every member of a (B, *cells) batch at time t.

    Member b has ModelParams params[b] and initial mean u0_means[b]; see
    diagnostics_record for what each column holds. The array work runs once
    for the batch, or for the rows a column applies to (F1 or F2), and the
    scalar arithmetic runs per member in Python floats. Every reduction sums
    one member's C-contiguous row, in the order the flat values of a lone
    member sum, so each row is byte-identical to the record of its member alone.
    """
    u, v, w = (np.ascontiguousarray(a) for a in (u, v, w))
    n, m, vol = len(params), grid.n_cells, grid.cell_volume
    fu, fv = u.reshape(n, m), v.reshape(n, m)
    targets = [(p.a / p.mu) ** (1.0 / p.theta) if p.a > 0.0 and p.mu > 0.0 else u0
               for p, u0 in zip(params, u0_means)]
    column = np.array(targets).reshape(n, 1)
    sum_u, sum_v = _row_sums(fu), _row_sums(fv)
    min_u, min_v = fu.min(axis=-1).tolist(), fv.min(axis=-1).tolist()
    linf_u, linf_v = (np.abs(f).max(axis=-1).tolist() for f in (fu, fv))
    l2_dev_u, l2_dev_v = (_l2_rows(f - column, vol) for f in (fu, fv))
    # per axis, scaled by 2**-grad_e where the squares overflow
    grad_sums, grad_e = _sums_of_squares(
        [g.reshape(n, -1) for g in gradient_arrays(v, grid.spacing)], (-1,))
    grad_v, grad_e = [a.tolist() for a in grad_sums], grad_e.tolist()
    grad_w = [np.abs(g).reshape(n, -1).max(axis=-1).tolist()
              for g in gradient_arrays(w, grid.spacing)]
    # the potential solve gated these same numbers bit for bit; taking them from
    # it would change solve_neumann_poisson's return, which perfbench's tracer
    # unpacks as three values, so that waits for the in-package spans (ROADMAP 1)
    residual = _residuals(u, w, grid).tolist()

    # F1 on growth-free members, F2 on logistic ones, where u > 0
    ent = [math.nan] * n
    f1_rows = [b for b, p in enumerate(params) if min_u[b] > 0.0 and p.a == 0.0 and p.mu == 0.0]
    if f1_rows:
        ubar = [sum_u[b] / m for b in f1_rows]
        z = _rows(fu, f1_rows, n) / np.array(ubar).reshape(-1, 1) - 1.0
        for b, mean_b, s in zip(f1_rows, ubar, _row_sums((1.0 + z) * np.log1p(z) - z)):
            ent[b] = mean_b * s * vol
    f2_rows = [b for b, p in enumerate(params) if min_u[b] > 0.0 and p.a > 0.0 and p.mu > 0.0]
    vdev = [0.0] * n
    if f2_rows:
        carry = _rows(column, f2_rows, n)
        z = _rows(fu, f2_rows, n) / carry - 1.0
        d = _rows(fv, f2_rows, n) - carry
        for b, s, sv in zip(f2_rows, _row_sums(z - np.log1p(z)), _row_sums(d * d)):
            ent[b] = targets[b] * s * vol
            vdev[b] = sv * vol
    records = []
    for b, p in enumerate(params):
        s = 0.0
        for axis_sums in grad_v:
            s += axis_sums[b]
        l2_grad_v = float(np.ldexp(math.sqrt(s * vol), grad_e[b]))  # inf past the range
        f1 = f2 = math.nan
        if b in f1_rows:
            # numpy's power, the same libm pow as Python's, reads inf where Python's raises
            f1 = ent[b] + 0.5 * p.chi * np.float64(l2_grad_v) ** 2
        elif b in f2_rows:
            f2 = ent[b] + (targets[b] * p.chi ** 2 / (2.0 * p.d)) * vdev[b]
        records.append(DiagnosticsRecord(
            t=t,
            mass_u=sum_u[b] * vol,
            mass_v=sum_v[b] * vol,
            linf_u=linf_u[b],
            linf_v=linf_v[b],
            l2_u_dev=l2_dev_u[b],
            l2_v_dev=l2_dev_v[b],
            l2_grad_v=l2_grad_v,
            linf_grad_w=max(axis_max[b] for axis_max in grad_w),
            F1=f1,
            F2=f2,
            elliptic_residual=residual[b],
            min_u=min_u[b],
            min_v=min_v[b],
        ))
    return records


def diagnostics_record(state, p, u0_mean: float) -> DiagnosticsRecord:
    """The diagnostics row of one SimState: diagnostics_batch with one member.

    Deviation target is the logistic carrying state b = (a/mu)^(1/theta) when
    a, mu > 0, otherwise the (conserved) initial mean. F1 is recorded on
    growth-free runs, F2 on logistic runs; either is nan when its positivity
    precondition fails (possible under the central flux scheme).
    """
    batch = (a[np.newaxis] for a in (state.u, state.v, state.w))
    return diagnostics_batch(state.t, *batch, state.grid, [p], [u0_mean])[0]
