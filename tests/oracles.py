"""Array oracles the tests check the simulator against: the entropy, the
gradient norm and the Lyapunov functionals of one SimState in plain numpy, a
record's minima and sup norms as its own min and |.| max passes took them
before it read the step's per-row extrema, the discrete mass law of u between
records, a step's transport computed with a fresh array for every
intermediate, the 2D multiplier packing by fancy indices, the 2D transform
pair as it ran on every row of that packing, before it took the rows j and
n1 - j as one butterfly, the 1D transform pair as it ran before 1D grids went
through the 2D pair as one row of cells,
the face kernels of the step (face speeds, fluxes, divergence and Laplacian)
as they ran on interior-face arrays before the padded face arrays, and the
stability bound member by member and species by species."""
import functools
import math

import numpy as np

from angiosim.elliptic import _makhoul_plan_2d, apply_packed, neumann_eigenvalues, pack_multiplier
from angiosim.grid import face_slices, face_strides, gradient_arrays, padded_faces


def entropy(vals, grid) -> float:
    """int u log(u/ubar) of positive values u, summed as ubar ((1 + z) log1p(z) - z)
    with z = u/ubar - 1."""
    u = vals.ravel()
    ubar = float(u.mean())
    z = u / ubar - 1.0
    return ubar * float(np.sum((1.0 + z) * log_ratio(u, ubar, z) - z)) * grid.cell_volume


def log_ratio(u, c, z):
    """log(u/c) as log1p(z), z = u/c - 1, except where z rounds to -1 (u below
    about 1e-16 c): log1p(z) reads -inf there, and log(u/c) is log(u) - log(c)."""
    low = z == -1.0
    out = np.log1p(np.where(low, 0.0, z))
    out[low] = np.log(u[low]) - np.log(c)
    return out


def gradient_norm(vals, grid) -> float:
    """L2 norm of the face differences np.diff(vals) / h, one cell volume per face."""
    s = 0.0
    for axis, h in enumerate(grid.spacing):
        d = np.diff(vals, axis=axis) / h
        s += float(np.sum(d * d))
    return math.sqrt(s * grid.cell_volume)


def row_minima_and_sup_norms(uv):
    """Each row's min and max |value| of a (rows, *cells) array, as (rows,)
    arrays: a min pass, and a max pass over the row's |values|."""
    flat = uv.reshape(len(uv), -1)
    return flat.min(axis=-1), np.abs(flat).max(axis=-1)


def lyap_F1(state, chi: float) -> float:
    """Entropy energy for growth-free runs: int u log(u/ubar) + (chi/2)||grad v||^2."""
    return entropy(state.u, state.grid) + 0.5 * chi * gradient_norm(state.v, state.grid) ** 2


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
    ent = float(b * np.sum(z - log_ratio(uvals, b, z)) * vol)
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


def reaction_bounds(params, umax):
    """Per member, the reaction bound of the stability bound as it was taken member
    by member in float64 scalars: min(1, 1 / (a + mu max(umax, 0)^theta + 1))."""
    return np.array([min(1.0, 1.0 / (p.a + p.mu * max(m, 0.0) ** p.theta + 1.0))
                     for p, m in zip(params, umax.tolist())])


def stable_dt_bounds(grid, params, umax, speeds, cfl_safety):
    """Per member, the stability bound as it was taken before one reduction ran
    over a member's u and v rows, in float64 scalars: the reaction bound
    (reaction_bounds), then per grid axis and species the row's max |speed| as
    max(max, -min), the larger of u's and v's, and h / max|speed| where that is
    positive, else inf; speeds are per axis (2, B, *cells) arrays."""
    bounds = []
    for b, bound in enumerate(reaction_bounds(params, umax)):
        for h, stacked in zip(grid.spacing, speeds):
            smax = np.maximum(*(np.maximum(row.max(), -row.min())
                                for row in (stacked[0, b], stacked[1, b])))
            bound = np.minimum(bound, h / smax if smax > 0.0 else np.inf)
        bounds.append(cfl_safety * bound)
    return np.array(bounds)


def allocating_transport(grid, params, cfg, u, v, w):
    """(u, v) of a (B, *cells) batch after one step's transport, allocating.

    The face speeds above, face values by np.where (upwind) or the face mean
    (central), the explicit update u - dt div(flux) + dt u (a - mu u^theta) and
    v - dt div(flux) + dt u, then both implicit diffusions in one stacked
    (2B, *cells) transform pair, a row per member and species, built afresh; each
    row has the bytes of the step's pair in its work arrays.
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


def pack_2d(m):
    """(p, q) of a 2D multiplier as elliptic._pack_2d documents them, each half
    gathered by fancy indices and stacked."""
    n1, n2 = m.shape[-2:]
    k2 = np.arange(n2 // 2 + 1)
    flip1 = -np.arange(n1) % n1
    at = m[..., :, k2]                  # M(k1, k2)
    at_neg2 = m[..., :, -k2 % n2]       # M(k1, -k2)
    at_neg1 = at[..., flip1, :]         # M(-k1, k2)
    at_neg = at_neg2[..., flip1, :]     # M(-k1, -k2)
    p = np.stack(((at + at_neg) / 2, (at_neg1 + at_neg2) / 2), axis=-1)
    p[..., 0, :, 0] = at[..., 0, :]
    p[..., 0, :, 1] = at_neg2[..., 0, :]
    q = np.stack(((at_neg - at) / 2, (at_neg2 - at_neg1) / 2), axis=-1)[..., 1:, :, :]
    return p, np.ascontiguousarray(q)


def apply_2d(vals: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """apply_packed over the last two axes with pack_2d's (p, q), every row of them,
    in fresh arrays: the output's Z is p (Re Z, Im Z) + q (Im Z', Re Z') on rows
    1..n1 - 1, Z'(k1, .) = Z(n1 - k1, .), and p (Re Z, Im Z) on row 0 (see
    elliptic._apply_2d)."""
    n1, n2 = vals.shape[-2:]
    quadrants, up = _makhoul_plan_2d(n1, n2)
    v = np.empty(vals.shape)
    for reordered, original in quadrants:
        v[reordered] = vals[original]
    z = np.fft.fft(np.fft.rfft(v), axis=-2)
    z = np.conjugate(np.conjugate(z) * up)
    zf = z.view(np.float64).reshape(z.shape + (2,))
    t = np.empty(z.shape[:-2] + (n1 - 1,) + z.shape[-1:] + (2,))
    tc = t.view(np.complex128)[..., 0]
    np.conjugate(z[..., :0:-1, :], out=tc)  # i conj(Z') = (Im Z', Re Z')
    tc *= 1j
    t *= q
    zf *= p
    zf[..., 1:, :, :] += t
    z *= up
    v = np.fft.irfft(np.fft.ifft(z, axis=-2), n2)
    out = np.empty(vals.shape)
    for reordered, original in quadrants:
        out[original] = v[reordered]
    return out


@functools.lru_cache(maxsize=8)
def _makhoul_plan(n: int):
    """For n points and each half-spectrum mode k: the multiplier indices (k, n - k mod n),
    interleaved like a complex array's real and imaginary parts, and exp(-+ i pi k / 2n)."""
    k = np.arange(n // 2 + 1)
    twiddle = np.exp(0.5j * np.pi / n * k)
    plan = (np.stack((k, -k % n), axis=-1).ravel(), twiddle.conj(), twiddle)
    for arr in plan:
        arr.flags.writeable = False
    return plan


def pack_1d(m):
    """The interleaved multiplier p of apply_1d: M(k), M(-k) per half-spectrum mode."""
    pairs, _down, _up = _makhoul_plan(m.shape[-1])
    return m[..., pairs]


def apply_1d(vals: np.ndarray, p: np.ndarray, out: np.ndarray, v: np.ndarray,
             z: np.ndarray) -> np.ndarray:
    """apply_packed over the last axis, through one real FFT pair.

    With the last axis reordered to x[0::2], x[1::2][::-1] and V = rfft of that,
    Z_k = exp(-i pi k / 2n) V_k = X_k - i X_{n-k} on the half spectrum, X being the
    unnormalised DCT-II (X_n = 0). Scaling Re Z_k by m_k and Im Z_k by m_{n-k}
    (m_n = m_0), which p holds interleaved, and rotating back gives the reordered
    output's spectrum. No normalisation constants enter. The reordering and both
    FFTs write into the caller's buffers v and z, shaped like vals and like its half
    spectrum, which hold all of vals before out is written.
    """
    n = vals.shape[-1]
    half = (n + 1) // 2
    _pairs, down, up = _makhoul_plan(n)
    v[..., :half] = vals[..., ::2]
    v[..., half:] = vals[..., 1::2][..., ::-1]
    np.fft.rfft(v, out=z)
    z *= down
    z.view(np.float64)[...] *= p
    z *= up
    np.fft.irfft(z, n, out=v)
    out[..., ::2] = v[..., :half]
    out[..., 1::2] = v[..., :half - 1:-1]
    return out


# ---------------------------------------------------------------------------
# the face kernels on interior-face arrays: per grid axis, the n - 1 faces that
# have a cell on each side, indexed through grid.face_slices

def padded(faces, shape, dim):
    """Interior-face arrays, one per grid axis, as padded face arrays
    (grid.padded_faces) with +0.0 pads."""
    out = padded_faces(shape, dim)
    for k, (a, g) in enumerate(zip(out, faces)):
        a[...] = 0.0
        interior(a, shape, dim, k)[...] = g
    return out


def interior(a, shape, dim, k):
    """The interior faces of grid axis k's padded face array a, as a view shaped
    like them."""
    s = face_strides(shape, dim)[k]
    return a[s:s + math.prod(shape)].reshape(shape)[face_slices(dim)[k][0]]


@functools.lru_cache(maxsize=None)
def _edge_slices(dim: int) -> tuple:
    """Per grid axis, the index tuples of its first cells, its inner cells and
    its last cells, anchored on the trailing axes."""
    out = []
    for k in range(dim):
        rest = (slice(None),) * (dim - 1 - k)
        out.append(tuple((..., s) + rest
                         for s in (slice(0, 1), slice(1, -1), slice(-1, None))))
    return tuple(out)


def divergence_arrays(fluxes, spacing, shape, out=None, net=None):
    """Discrete divergence of interior-face fluxes, each axis written in three
    pieces: g[0], g[1:] - g[:-1] and 0 - g[-1] along the axis."""
    dim = len(spacing)
    out = np.empty(shape) if out is None else out
    if net is None and dim > 1:
        net = np.empty(shape)
    for k, (g, h) in enumerate(zip(fluxes, spacing)):
        (lo, hi), (first, inner, last) = face_slices(dim)[k], _edge_slices(dim)[k]
        dst = out if k == 0 else net
        dst[first] = g[first]
        np.subtract(g[hi], g[lo], out=dst[inner])
        np.subtract(0.0, g[last], out=dst[last])
        dst /= h
        out += 0.0 if k == 0 else net
    return out


def laplacian_array(vals, spacing, out=None, faces=None):
    """The zero-flux Laplacian from zeros, through strided views: per axis,
    out[lo] += d, then out[hi] -= d, d = (vals[hi] - vals[lo]) / h^2 on the
    interior faces (into faces[k], if given)."""
    if out is None:
        out = np.zeros_like(vals)
    else:
        out[...] = 0.0
    for k, ((lo, hi), h) in enumerate(zip(face_slices(len(spacing)), spacing)):
        d = np.subtract(vals[hi], vals[lo], out=None if faces is None else faces[k])
        d /= h * h
        out[lo] += d
        out[hi] -= d
    return out


def stacked_face_speeds(grid, v, w, chi, xi1, minus_xi2):
    """Per grid axis, the interior-face speeds of a batch's u and v as one
    (2B, *faces) array: u's rows, chi grad v - xi1 grad w, then v's rows,
    -xi2 grad w, the couplings chi, xi1 and minus_xi2 = -xi2 floats or
    (B, 1[, 1]) columns."""
    n = len(v)
    speeds = []
    for (lo, hi), h in zip(face_slices(grid.dim), grid.spacing):
        a = np.empty((2 * n,) + w[lo].shape[1:])
        a_u, a_v = a[:n], a[n:]
        np.subtract(w[hi], w[lo], out=a_v)
        a_v /= h
        np.subtract(v[hi], v[lo], out=a_u)
        a_u /= h
        a_u *= chi
        a_u -= np.multiply(a_v, xi1)
        a_v *= minus_xi2
        speeds.append(a)
    return speeds


def fluxes(uv, speeds, dim, flux_scheme):
    """Per grid axis, speed * upwind or centred face value of every row of uv on
    the interior faces, formed in place in the axis's speed array."""
    for (lo, hi), a in zip(face_slices(dim), speeds):
        face = np.empty(a.shape)
        if flux_scheme == "upwind":
            np.copyto(face, uv[hi])
            np.copyto(face, uv[lo], where=a > 0.0)
        else:
            np.add(uv[lo], uv[hi], out=face)
            face *= 0.5
        a *= face
        yield a
