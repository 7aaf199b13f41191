"""Zero-flux Laplacian solves in the DCT-II basis, and the spectral constants.

On a uniform cell-centred box with mirror ghosts the orthonormal DCT-II diagonalizes
the 3/5-point zero-flux Laplacian: -lap has eigenvalue sum_k (4/h_k^2) sin^2(pi j_k / 2n_k)
on mode j, exactly 0 on the constant mode. A solve is one transform pair with a per-mode
multiplier; the potential's is 1/lambda, with 0 on the constant mode for the gauge int w = 0.
Arrays are shaped like the grid or batched as (B, *cells): the transforms and reductions run
over the trailing grid axes, so every member of a batch gets the same numbers as a single solve.

The transform pair is one numpy.fft family: a real FFT pair with Makhoul's even/odd
reordering of every grid axis (J. Makhoul, IEEE TASSP 28, 1980), in a 1D form over the
last axis and a 2D form over the last two (_apply_1d, _apply_2d). A multiplier enters
it packed once (pack_multiplier) into the real and imaginary parts of the twiddled half
spectrum. numpy.fft imports in milliseconds and scipy.fft in about a third of a second,
which would be most of a run's or a sweep's start-up.
"""
import functools
import math
import threading
from collections import namedtuple

import numpy as np

from .grid import Field, Grid, laplacian_array

__all__ = [
    "EllipticSolveError",
    "SpectralInfo",
    "solve_neumann_poisson",
    "solve_w",
    "elliptic_residual",
    "spectral_info",
]


SpectralInfo = namedtuple("SpectralInfo", "lambda1 poincare_cp")


class EllipticSolveError(RuntimeError):
    """A potential solve missed its tolerance. residuals holds each member's relative
    residual (one for an unbatched solve), achieved_residual the worst of them."""

    def __init__(self, tolerance, residuals):
        self.tolerance = tolerance
        self.residuals = np.atleast_1d(residuals)
        self.achieved_residual = float(self.residuals.max())
        super().__init__(self.member_message(int(self.residuals.argmax())))

    def member_message(self, row):
        return (f"potential solve missed tolerance {self.tolerance:.1e} "
                f"(relative residual {self.residuals[row]:.3e})")


def grid_axes(grid: Grid) -> tuple[int, ...]:
    """The trailing axes that hold the cells of a shaped or batched array."""
    return tuple(range(-grid.dim, 0))


def grid_mean(vals: np.ndarray, grid: Grid) -> np.ndarray:
    """Mean over the grid axes, kept as length-1 axes. The same sum / n as
    ndarray.mean, without its per-call overhead on small arrays."""
    return np.add.reduce(vals, axis=grid_axes(grid), keepdims=True) / math.prod(grid.cells)


def neumann_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of -lap per DCT-II mode, shaped like the grid."""
    axes = [(4.0 / (h * h)) * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
            for n, h in zip(grid.cells, grid.spacing)]
    return axes[0] if grid.dim == 1 else np.add.outer(axes[0], axes[1])


def pack_multiplier(multiplier: np.ndarray, dim: int) -> tuple:
    """A per-mode multiplier, shaped like the grid or (B, *cells) with a row per member,
    in the form the transform pair applies: (p,) on 1D grids and (p, q) on 2D grids,
    on the float view of the twiddled half spectrum (see _apply_1d and _apply_2d).
    The arrays are read-only."""
    if dim == 1:
        pairs, _down, _up = _makhoul_plan(multiplier.shape[-1])
        packed = (multiplier[..., pairs],)
    else:
        packed = _pack_2d(multiplier)
    for arr in packed:
        arr.flags.writeable = False
    return packed


def apply_packed(vals: np.ndarray, packed: tuple) -> np.ndarray:
    """DCT-II, multiply by a pack_multiplier multiplier, inverse DCT-II over the trailing
    grid axes. The output is C-contiguous: a fancy index would hand back another memory
    layout, and np.add.reduce over it would sum in another order."""
    return _apply_1d(vals, *packed) if len(packed) == 1 else _apply_2d(vals, *packed)


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


def _apply_1d(vals: np.ndarray, p: np.ndarray) -> np.ndarray:
    """apply_packed over the last axis, through one real FFT pair.

    With the last axis reordered to x[0::2], x[1::2][::-1] and V = rfft of that,
    Z_k = exp(-i pi k / 2n) V_k = X_k - i X_{n-k} on the half spectrum, X being the
    unnormalised DCT-II (X_n = 0). Scaling Re Z_k by m_k and Im Z_k by m_{n-k}
    (m_n = m_0), which p holds interleaved, and rotating back gives the reordered
    output's spectrum. No normalisation constants enter.
    """
    n = vals.shape[-1]
    half = (n + 1) // 2
    _pairs, down, up = _makhoul_plan(n)
    z = np.fft.rfft(np.concatenate((vals[..., ::2], vals[..., 1::2][..., ::-1]), axis=-1))
    z *= down
    z.view(np.float64)[...] *= p
    z *= up
    r = np.fft.irfft(z, n)
    out = np.empty(r.shape)
    out[..., ::2] = r[..., :half]
    out[..., 1::2] = r[..., :half - 1:-1]
    return out


def _reorder_slices(n: int):
    """(reordered, original) index pairs of Makhoul's reordering of one axis:
    the even points in order, then the odd ones backwards."""
    half = (n + 1) // 2
    return ((slice(None, half), slice(None, None, 2)),
            (slice(half, None), slice(n - 1 - n % 2, None, -2)))


@functools.lru_cache(maxsize=8)
def _makhoul_plan_2d(n1: int, n2: int):
    """For an n1 x n2 grid: the reordering's four quadrants as (reordered, original)
    index pairs of strided slices, and exp(-+ i pi (k1 / 2n1 + k2 / 2n2)) on the
    half spectrum."""
    quadrants = tuple(((a, b), (c, d))
                      for a, c in _reorder_slices(n1) for b, d in _reorder_slices(n2))
    up = np.multiply.outer(np.exp(0.5j * np.pi / n1 * np.arange(n1)),
                           np.exp(0.5j * np.pi / n2 * np.arange(n2 // 2 + 1)))
    down = up.conj()
    for arr in (up, down):
        arr.flags.writeable = False
    return quadrants, down, up


def _pack_2d(m: np.ndarray):
    """(p, q) of a 2D multiplier, shaped (..., n1, n2 // 2 + 1, 2) and (..., n1 - 1,
    n2 // 2 + 1, 2): on row k1 >= 1, with indices mod n,
    p = ((M(k1,k2) + M(-k1,-k2))/2, (M(-k1,k2) + M(k1,-k2))/2) and
    q = ((M(-k1,-k2) - M(k1,k2))/2, (M(k1,-k2) - M(-k1,k2))/2);
    on row 0, p = (M(0,k2), M(0,-k2)) and there is no q row."""
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


def _apply_2d(vals: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """apply_packed over the last two axes, through one real 2D FFT pair.

    With both axes reordered as in _apply_1d and V = fft(rfft(v), axis=-2),
    Z = exp(-i pi k1 / 2n1) exp(-i pi k2 / 2n2) V on the half spectrum is
    Z(k1,k2) = X(k1,k2) - X(n1-k1,n2-k2) - i (X(n1-k1,k2) + X(k1,n2-k2)), X being the
    unnormalised 2D DCT-II (X = 0 at index n). Z and Z'(k1, .) = Z(n1-k1, .) determine
    the four X's of a mode quartet, so on the float view the output's Z is
    p (Re Z, Im Z) + q (Im Z', Re Z'). Row 0 pairs with the mode index n1, where X is
    0, not with FFT row 0 again: Z(0,k2) = X(0,k2) - i X(0,n2-k2) as in 1D, and p alone
    scales Re Z by M(0,k2) and Im Z by M(0,-k2).
    Each member runs on its own in this thread's reused buffers (_workspace), so a batch
    row gets the bytes of a single call. The FFTs write in place (out=), and the
    reorderings are strided slice copies, which cost tens of times less than a fancy index.
    """
    n1, n2 = vals.shape[-2:]
    quadrants, down, up = _makhoul_plan_2d(n1, n2)
    out = np.empty(vals.shape)
    batch = vals.shape[:-2]
    p = np.broadcast_to(p, batch + p.shape[-3:])
    q = np.broadcast_to(q, batch + q.shape[-3:])
    v, z, t = _workspace(n1, n2)
    zf = z.view(np.float64).reshape(z.shape + (2,))
    tc = t.view(np.complex128)[..., 0]
    for row in np.ndindex(batch):
        x = vals[row]
        for reordered, original in quadrants:
            v[reordered] = x[original]
        np.fft.rfft(v, out=z)
        np.fft.fft(z, axis=0, out=z)
        z *= down
        np.conjugate(z[:0:-1], out=tc)  # i conj(Z') = (Im Z', Re Z'), rows 1..n1-1
        tc *= 1j
        t *= q[row]
        zf *= p[row]
        zf[1:] += t
        z *= up
        np.fft.ifft(z, axis=0, out=z)
        np.fft.irfft(z, n2, out=v)
        y = out[row]
        for reordered, original in quadrants:
            y[original] = v[reordered]
    return out


_local = threading.local()


def _workspace(n1: int, n2: int):
    """This thread's buffers for one n1 x n2 member of a 2D pair: the reordered grid,
    the half spectrum and the q term. They are reused from call to call, since each
    fresh half-megabyte array at 256 x 256 costs a hundred-odd page faults."""
    if getattr(_local, "key", None) != (n1, n2):
        _local.key = (n1, n2)
        _local.buffers = (np.empty((n1, n2)), np.empty((n1, n2 // 2 + 1), np.complex128),
                          np.empty((n1 - 1, n2 // 2 + 1, 2)))
    return _local.buffers


@functools.lru_cache(maxsize=8)
def _pseudo_inverse(grid: Grid) -> tuple:
    """The packed multiplier of the potential solve: 1/lambda, 0 on the constant mode."""
    lam = neumann_eigenvalues(grid)
    mult = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0.0)
    return pack_multiplier(mult, grid.dim)


def solve_neumann_poisson(grid: Grid, u: np.ndarray, tolerance: float, work=None):
    """-lap w = u - mean(u), int w = 0 -> (w, worst member's relative residual,
    transform pairs). u is centred once, and each member is accepted only on its
    own recomputed true residual, at most tolerance, which is elliptic_residual of
    the member's u and w bit for bit; a miss raises at once with every member's
    residual. work, if given, is (centred u, Laplacian, squares, face differences
    per axis): three arrays shaped like u and a list as laplacian_array's faces,
    all of them overwritten. w is always a fresh array."""
    u = np.asarray(u, dtype=np.float64)
    rhs, lap, squares, faces = (None,) * 4 if work is None else work
    b = np.subtract(u, grid_mean(u, grid), out=rhs)
    w = apply_packed(b, _pseudo_inverse(grid))
    w -= grid_mean(w, grid)
    res = _centred_residuals(b, w, grid, lap, squares, faces)
    if not np.all(res <= tolerance):  # a nan residual fails too
        raise EllipticSolveError(tolerance, res)
    return w, float(np.max(res)), 1


def solve_w(u: Field, tolerance: float = 1e-10) -> Field:
    """Potential of the cell-density deviation: -lap w = u - mean(u), int w = 0."""
    return Field(u.grid, solve_neumann_poisson(u.grid, u.shaped(), tolerance)[0])


def elliptic_residual(u_vals: np.ndarray, w_vals: np.ndarray, grid: Grid) -> float:
    """Relative residual of -lap w = u - mean(u) (the solve_w oracle)."""
    return float(_residuals(u_vals.reshape(grid.cells), w_vals.reshape(grid.cells), grid))


def _residuals(u: np.ndarray, w: np.ndarray, grid: Grid) -> np.ndarray:
    """elliptic_residual per member of shaped or batched arrays."""
    return _centred_residuals(u - grid_mean(u, grid), w, grid)


def _centred_residuals(rhs, w, grid, lap=None, squares=None, faces=None) -> np.ndarray:
    """Relative residual of -lap w = rhs per member, rhs being centred; lap, squares
    and faces are optional scratch (see solve_neumann_poisson)."""
    r = laplacian_array(w, grid.spacing, lap, faces)
    r += rhs
    r -= grid_mean(r, grid)  # zero in exact arithmetic; kills the round-off constant
    (ss, rr), _ = _sums_of_squares([rhs, r], grid_axes(grid), squares)  # ratio is scale-free
    return np.sqrt(rr / np.maximum(ss, 1e-60))  # rhs ~ 0 guard


def _sums_of_squares(arrays, axes, scratch=None):
    """Per-member sums of squares of arrays over axes -> (sums, e), each array
    reducing to the same member shape. Members whose sums overflow (|values| past
    ~1e154) are summed scaled by 2**-e, which brings their largest |value| over all
    the arrays into [0.5, 1); the rest keep e = 0 and their bits. scratch, if given,
    is shaped like every array and holds the squares."""
    def sumsq(a):
        return np.add.reduce(np.multiply(a, a, out=scratch), axis=axes)

    with np.errstate(over="ignore"):
        sums = [sumsq(a) for a in arrays]
        finite = np.isfinite(sum(sums))
    if finite.all():
        return sums, np.zeros(finite.shape, dtype=int)
    _, e = np.frexp(np.max([np.max(np.abs(a), axis=axes) for a in arrays], axis=0))
    e = np.where(finite, 0, e)
    scale = np.ldexp(1.0, -e).reshape(finite.shape + (1,) * len(axes))
    return [sumsq(a * scale) for a in arrays], e


def spectral_info(grid: Grid) -> SpectralInfo:
    """lambda1 = min_k (4/h_k^2) sin^2(pi/2n_k) and the sharp Poincare constant."""
    lam = min(4.0 / (h * h) * math.sin(math.pi / (2 * n)) ** 2
              for n, h in zip(grid.cells, grid.spacing))
    return SpectralInfo(lam, lam ** -0.5)
