"""Diagnostics: entropies, Lyapunov functionals, decay fits, inequality checks.

diagnostics_batch reads the trajectory columns straight off the time loop's
state: the stacked (2B, *cells) (u, v) array, w, the per-row max and min that
the step took of the first (row_extrema) and the relative residuals its
potential gate took of w. Its Lyapunov functionals, each recorded in the growth
regime (dynamics.GROWTH) named beside it, are
    F1 = int u log(u/ubar) + (chi/2) ||grad v||^2              (growth-free)
    F2 = int (u - b - b log(u/b)) + (b chi^2 / 2d) int (v - b)^2   (logistic)
with b = (a/mu)^(1/theta) the logistic carrying state. The verification
battery's functionals (relative_entropy, entropy_sandwich_check, grad_l2 and
the interpolation inequalities) take arrays shaped like grid.cells, and the
first three share their kernels with diagnostics_batch.

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
from dataclasses import dataclass, fields

import numpy as np

from .elliptic import _sums_of_squares, elliptic_residual
from .grid import Grid, face_views, gradient_arrays, integrate, lp_norm

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
    "row_extrema",
    "diagnostics_batch",
    "diagnostics_record",
]

@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of a trajectory, taken of a state at time t; the fields are the
    columns of trajectory.csv, in order (TRAJECTORY_COLUMNS).

    mass_u, mass_v: int u and int v; linf_u, linf_v: their max norms; l2_u_dev,
    l2_v_dev: ||u - target||_2 and ||v - target||_2, the target being the growth
    regime's (dynamics.GROWTH): b = (a/mu)^(1/theta) on logistic runs, 0 on
    damping-only ones and the initial mean of u otherwise; l2_grad_v:
    ||grad v||_2 on the faces; linf_grad_w: the largest |grad w| on a face; F1,
    F2: the Lyapunov functionals (module docstring), nan where they do not apply;
    elliptic_residual: the potential's relative residual
    |lap w + u - mean u| / |u - mean u|; min_u, min_v: the smallest cell values.
    """

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


# trajectory CSV schema, one column per DiagnosticsRecord field
TRAJECTORY_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


@dataclass(frozen=True)
class RateFit:
    """An exponential fit value ~ exp(intercept - rate t) (fit_decay_rate): its
    decay rate, log-space intercept and r_squared over the n_samples samples in
    the (t0, t1) window."""

    rate: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    n_samples: int


def relative_entropy(vals: np.ndarray, grid: Grid) -> float:
    """int u log(u / mean u) >= 0 of values u shaped like the grid. Requires u > 0
    cell-wise."""
    if vals.min() <= 0.0:
        raise ValueError("relative entropy needs a strictly positive field")
    flat = vals.reshape(1, -1)
    return _entropies(flat, [_row_sums(flat)[0] / grid.n_cells], grid.cell_volume)[0]


def entropy_sandwich_check(vals: np.ndarray, grid: Grid) -> tuple[float, float]:
    """Gaps of the L1/L2 entropy sandwich of values u shaped like the grid; both
    >= 0 up to round-off.

    lower_gap  = entropy - ||u-ubar||_1^2 / (2 ubar)
    upper_gap  = ||u-ubar||_2^2 / ubar - entropy
    The L1 lower constant is sharp only for domains of measure <= 1; the
    shipped presets all use unit-measure boxes.
    """
    ent = relative_entropy(vals, grid)
    ubar = integrate(vals, grid) / grid.measure
    l1, l2 = (lp_norm(vals - ubar, grid, p) for p in (1, 2))
    return ent - l1 * l1 / (2.0 * ubar), l2 * l2 / ubar - ent


def grad_l2(vals: np.ndarray, grid: Grid) -> float:
    """L2 norm of the face gradient of values shaped like the grid (one cell
    volume per interior face); finite wherever the true norm is."""
    return _grad_l2_rows(vals[np.newaxis], grid)[0]


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
    window, all finite and strictly positive (shrink the window to dodge the
    round-off floor of deeply converged functionals). window=None fits over
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
    if not np.all((v > 0.0) & (v < np.inf)):  # nan fails too
        raise ValueError(f"non-finite or nonpositive values in window ({t0}, {t1})")
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
    """Both sides of one interpolation inequality, lhs <= rhs up to quadrature
    error; name is one of INEQUALITY_NAMES."""

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
        """The mode-by-cell tables of cos(w_k x) and its first and second derivatives
        along one axis, w_k = k pi / L."""
        omega = np.arange(self.MAX_MODE + 1) * math.pi / self.lengths[axis]
        arg = np.outer(omega, grid.axis_centers(axis))
        cos = np.cos(arg)
        return cos, -omega[:, None] * np.sin(arg), -(omega * omega)[:, None] * cos

    def _contract(self, tables) -> np.ndarray:
        """The coefficients contracted with one mode-by-cell table per axis."""
        out = self.coeffs
        for table in tables:
            out = np.tensordot(out, table, axes=(0, 0))
        return out

    def sample(self, grid: Grid):
        """Values, gradient and Hessian at the cell centres: (vals shaped like
        cells, grad (dim, *cells), hess (dim, dim, *cells))."""
        if grid.dim != self.dim:
            raise ValueError("grid/function dimension mismatch")
        tables = [self._tables(grid, axis) for axis in range(self.dim)]

        def derivative(*axes):
            """The partial derivative along the given axes, one per order."""
            return self._contract(t[axes.count(k)] for k, t in enumerate(tables))

        grad = np.stack([derivative(i) for i in range(self.dim)])
        hess = np.empty((self.dim,) + grad.shape)
        for i in range(self.dim):
            for j in range(i, self.dim):
                hess[i, j] = hess[j, i] = derivative(i, j)
        return derivative(), grad, hess


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
    _, hg, hH = h.sample(grid)
    rootn = math.sqrt(grid.dim)

    # the vector and matrix indices lead, the cell axes trail
    gmag = np.sqrt(np.sum(gg * gg, axis=0))
    lap_g = np.trace(gH)
    lap_h = np.trace(hH)
    frob_g = np.sqrt(np.sum(gH * gH, axis=(0, 1)))
    frob_h = np.sqrt(np.sum(hH * hH, axis=(0, 1)))
    g_sup = float(np.max(np.abs(gv)))

    # |grad g|^(2p-2) grad g . grad(grad g . grad h)
    mixed = np.einsum("ij...,j...->i...", gH, hg) + np.einsum("ij...,j...->i...", hH, gg)
    pair = np.einsum("i...,i...->...", gg, mixed)
    lhs1 = abs(integrate(gmag ** (2.0 * p - 2.0) * pair, grid))
    rhs1 = (rootn / (2.0 * p) + 1.0) * lp_norm(gmag, grid, 2.0 * (p + 1.0)) ** (2.0 * p) \
        * lp_norm(frob_h, grid, p + 1.0)

    # g * lap h * div(|grad g|^(2p-2) grad g)
    div_flux = gmag ** (2.0 * p - 2.0) * lap_g
    if p > 1.0:
        qform = np.einsum("i...,ij...,j...->...", gg, gH, gg)
        pos = gmag > 0.0
        extra = np.zeros_like(gmag)
        extra[pos] = gmag[pos] ** (2.0 * p - 4.0) * qform[pos]
        div_flux = div_flux + (2.0 * p - 2.0) * extra
    lhs2 = abs(integrate(gv * lap_h * div_flux, grid))
    rhs2 = (2.0 * (p - 1.0) + rootn) * g_sup \
        * lp_norm(gmag, grid, 2.0 * (p + 1.0)) ** (p - 1.0) \
        * lp_norm(lap_h, grid, p + 1.0) \
        * math.sqrt(integrate(gmag ** (2.0 * p - 2.0) * frob_g ** 2, grid))

    # |grad g|^(2(p+1)) vs Hessian-weighted lower power
    lhs3 = integrate(gmag ** (2.0 * (p + 1.0)), grid)
    rhs3 = (2.0 * p + rootn) ** 2 * g_sup ** 2 \
        * integrate(gmag ** (2.0 * (p - 1.0)) * frob_g ** 2, grid)

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


def _entropies(fu: np.ndarray, means, vol: float, scratch=None) -> list[float]:
    """int u log(u / ubar) of each row of a positive (B, m) array, given the rows'
    means, summed as ubar ((1 + z) log1p(z) - z) >= 0 with z = u / ubar - 1: no
    cancellation across cells. scratch, if given, is two arrays shaped like fu,
    which receive z and the integrand. A cell where z rounds to -1 adds 1, its
    (1 + z) log(u / ubar) being 0 (see _log_ratio)."""
    z, term = (None, None) if scratch is None else scratch
    column = np.array(means).reshape(-1, 1)
    z = np.divide(fu, column, out=z)
    z -= 1.0
    term = _log_ratio(fu, column, z, term)
    term *= 1.0 + z
    term -= z
    return [mean * s * vol for mean, s in zip(means, _row_sums(term))]


def _grad_l2_rows(v: np.ndarray, grid: Grid, faces=None) -> list[float]:
    """L2 norm of the face gradient of each member of a (B, *cells) batch, finite
    wherever the true norm is; faces, if given, receive the gradients (see
    gradient_arrays). The axes' sums add in axis order and each sqrt and ldexp is
    exact or correctly rounded, so one vector call has the bits of a member's
    scalar formula."""
    n = len(v)
    # per axis, scaled by 2**-e where the squares overflow
    sums, e = _sums_of_squares(
        [g.reshape(n, -1) for g in gradient_arrays(v, grid.spacing, faces)], (-1,))
    total = sums[0]
    for axis_sums in sums[1:]:
        total = total + axis_sums
    with np.errstate(over="ignore"):  # inf past the range
        return np.ldexp(np.sqrt(total * grid.cell_volume), e).tolist()


def _l2_rows(arr: np.ndarray, vol: float, squares: np.ndarray) -> list[float]:
    """L2 norm of each row of a (B, m) array, finite wherever the true norm is;
    squares is scratch shaped like arr."""
    (sums,), e = _sums_of_squares([arr], (-1,), squares)
    return np.ldexp([(s * vol) ** 0.5 for s in sums.tolist()], e).tolist()


def _log_ratio(fu: np.ndarray, column: np.ndarray, z: np.ndarray, out=None) -> np.ndarray:
    """log(u/c) of a positive (B, m) array, c being the row's entry of the (B, 1)
    column, given z = u/c - 1, into out if given: log1p(z), except in a cell where
    z rounds to -1 (u below about 1e-16 c). log1p(z) would read -inf there, and
    log(u) - log(c) is taken, with no warning."""
    if z.min() > -1.0:
        return np.log1p(z, out=out)
    low = z == -1.0
    out = np.log1p(z, out=out, where=~low)
    return np.subtract(np.log(fu), np.log(column), out=out, where=low)


def _equilibrium_sums(fu: np.ndarray, carry: np.ndarray, z, log1p) -> list[float]:
    """Per row of a positive (B, m) array, the sum of u/b - 1 - log(u/b) >= 0,
    b being the row's entry of the (B, 1) column carry. It is summed as
    z - log(u/b), z = u/b - 1, with z and log(u/b) (_log_ratio) in the given
    scratch arrays shaped like fu."""
    np.divide(fu, carry, out=z)
    z -= 1.0
    z -= _log_ratio(fu, carry, z, log1p)
    return _row_sums(z)


def row_extrema(uv: np.ndarray, dim: int) -> np.ndarray:
    """The per-row max and min of a (rows, *cells) batch with dim cell axes, as one
    (2, rows) array, so that one ufunc call tests them all; they propagate nan and
    reach any inf."""
    axes = ((-1,), (-2, -1))[dim - 1]  # Grid.axes of a dim-D grid
    extrema = np.empty((2, len(uv)))
    np.maximum.reduce(uv, axis=axes, out=extrema[0])
    np.minimum.reduce(uv, axis=axes, out=extrema[1])
    return extrema


def diagnostics_batch(t, uv, w, extrema, residuals, grid: Grid, params,
                      u0_means) -> list[DiagnosticsRecord]:
    """The diagnostics row of every member of a batch at time t, from the state
    the time loop holds: uv its C-contiguous (2B, *cells) array of u's rows then
    v's, w its (B, *cells) potential, extrema uv's per-row (max, min) and
    residuals the (B,) array of each member's elliptic_residual, as the
    potential's gate took it.

    Member b has ModelParams params[b] and initial mean u0_means[b]; see
    DiagnosticsRecord for what each column holds. The minima and the F1/F2
    positivity test read extrema, and the sup norms are |max(max, -min)|, with
    the bits of max |row|. Every reduction sums one member's C-contiguous row in
    the order a lone member's flat values sum, so each row is byte-identical to
    its member's record alone. The intermediate arrays share two scratch arrays
    shaped like w. A third is made only for a column's squares and for F1's
    1 + z, where no ufunc runs over a strided grid axis: numpy buffers those in
    arrays of its own.
    """
    uv, w = np.ascontiguousarray(uv), np.ascontiguousarray(w)
    n, m, vol = len(params), grid.n_cells, grid.cell_volume
    v, fu, fv = uv[n:], *uv.reshape(2, n, m)
    scratch = np.empty((2,) + w.shape)
    flat = scratch.reshape(2, n, m)
    targets = [p.growth.target(p, u0) for p, u0 in zip(params, u0_means)]
    column = np.array(targets).reshape(n, 1)
    linf = np.abs(np.maximum(extrema[0], -extrema[1])).tolist()  # as max |row|: +0.0, nan unsigned
    lows, sums, residual = extrema[1].tolist(), _row_sums(uv), residuals.tolist()
    l2_dev_u, l2_dev_v = (_l2_rows(np.subtract(f, column, out=flat[0]), vol, flat[1])
                          for f in (fu, fv))
    faces = face_views(scratch[:grid.dim], w.shape)  # an axis's face values per block
    l2_grad_v = _grad_l2_rows(v, grid, faces)
    grad_w = [np.abs(g, out=g).max(axis=grid.axes).tolist()
              for g in gradient_arrays(w, grid.spacing, faces)]

    # each member's functional, where u > 0
    f1, f2 = [math.nan] * n, [math.nan] * n
    f1_rows = [b for b, p in enumerate(params) if lows[b] > 0.0 and p.growth.functional == "F1"]
    if f1_rows:
        ents = _entropies(_rows(fu, f1_rows, n), [sums[b] / m for b in f1_rows], vol,
                          flat[:, :len(f1_rows)])
        for b, e in zip(f1_rows, ents):
            # numpy's power, the same libm pow as Python's, reads inf where Python's raises
            f1[b] = e + 0.5 * params[b].chi * np.float64(l2_grad_v[b]) ** 2
    f2_rows = [b for b, p in enumerate(params) if lows[b] > 0.0 and p.growth.functional == "F2"]
    if f2_rows:
        k = len(f2_rows)
        carry = _rows(column, f2_rows, n)
        ents = _equilibrium_sums(_rows(fu, f2_rows, n), carry, flat[0, :k], flat[1, :k])
        d = np.subtract(_rows(fv, f2_rows, n), carry, out=flat[0, :k])
        for b, s, sv in zip(f2_rows, ents, _row_sums(np.multiply(d, d, out=flat[1, :k]))):
            p, target = params[b], targets[b]
            f2[b] = target * s * vol + (target * p.chi ** 2 / (2.0 * p.d)) * (sv * vol)
    return [DiagnosticsRecord(
        t=t,
        mass_u=sums[b] * vol,
        mass_v=sums[n + b] * vol,
        linf_u=linf[b],
        linf_v=linf[n + b],
        l2_u_dev=l2_dev_u[b],
        l2_v_dev=l2_dev_v[b],
        l2_grad_v=l2_grad_v[b],
        linf_grad_w=max(axis_max),
        F1=f1[b],
        F2=f2[b],
        elliptic_residual=residual[b],
        min_u=lows[b],
        min_v=lows[n + b],
    ) for b, axis_max in enumerate(zip(*grad_w))]


def diagnostics_record(state, p, u0_mean: float) -> DiagnosticsRecord:
    """The diagnostics row of one SimState: diagnostics_batch with one member,
    its u and v stacked as a (2, *cells) array and its elliptic_residual taken.

    The deviation target and the functional are p's growth regime's (see
    DiagnosticsRecord); F1 or F2 is nan when its positivity precondition fails
    (possible under the central flux scheme).
    """
    uv = np.stack((state.u, state.v))
    extrema = row_extrema(uv, state.grid.dim)
    residual = np.array([elliptic_residual(state.u, state.w, state.grid)])
    return diagnostics_batch(state.t, uv, state.w[np.newaxis], extrema, residual, state.grid,
                             [p], [u0_mean])[0]
