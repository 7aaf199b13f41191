"""Zero-flux Laplacian solves in the DCT-II basis, and the spectral constants.

On a uniform cell-centred box with mirror ghosts the orthonormal DCT-II diagonalizes
the 3/5-point zero-flux Laplacian: -lap has eigenvalue sum_k (4/h_k^2) sin^2(pi j_k / 2n_k)
on mode j, exactly 0 on the constant mode. A solve is one transform pair with a per-mode
multiplier; the potential's is 1/lambda, with 0 on the constant mode for the gauge int w = 0.
Arrays are shaped like the grid or batched as (B, *cells): the transforms and reductions run
over the trailing grid axes, so every member of a batch gets the same numbers as a single solve.

The transform pair has two paths, chosen by the grid's dimension. On 1D grids it is one
numpy.fft real FFT pair with Makhoul's even/odd reordering (J. Makhoul, IEEE TASSP 28,
1980). numpy.fft imports in milliseconds and scipy.fft in about a third of a second, which
would be most of a short 1D run's or sweep's start-up. On 2D grids it is scipy.fft's
dctn/idctn, imported by the first 2D transform: there a numpy.fft pair is 1.7x slower or
more at 256 x 256, its FFTs along the leading grid axis being strided, and the steps
outweigh the import.
"""
import functools
import math
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


def spectral_apply(vals: np.ndarray, multiplier: np.ndarray, axes) -> np.ndarray:
    """Apply the operator with the given per-mode multiplier over the trailing grid axes."""
    if len(axes) == 1:
        return _spectral_apply_1d(vals, multiplier)
    from scipy.fft import dctn, idctn

    coeffs = dctn(vals, type=2, norm="ortho", axes=axes) * multiplier
    return idctn(coeffs, type=2, norm="ortho", axes=axes, overwrite_x=True)


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


def _spectral_apply_1d(vals: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """DCT-II, multiply, inverse DCT-II over the last axis through one real FFT pair.

    With the last axis reordered to x[0::2], x[1::2][::-1] and V = rfft of that,
    Z_k = exp(-i pi k / 2n) V_k = X_k - i X_{n-k} on the half spectrum, X being the
    unnormalised DCT-II (X_n = 0). Scaling Re Z_k by m_k and Im Z_k by m_{n-k}
    (m_n = m_0) and rotating back gives the reordered output's spectrum,
    (m_k + m_{n-k})/2 V_k + (m_k - m_{n-k})/2 exp(i pi k / n) conj(V_k).
    No normalisation constants enter, and the output is C-contiguous: a fancy
    index would hand back another memory layout, and np.add.reduce over it
    would sum in another order.
    """
    n = vals.shape[-1]
    half = (n + 1) // 2
    pairs, down, up = _makhoul_plan(n)
    z = np.fft.rfft(np.concatenate((vals[..., ::2], vals[..., 1::2][..., ::-1]), axis=-1))
    z *= down
    z.view(np.float64)[...] *= multiplier[..., pairs]
    z *= up
    r = np.fft.irfft(z, n)
    out = np.empty(r.shape)
    out[..., ::2] = r[..., :half]
    out[..., 1::2] = r[..., :half - 1:-1]
    return out


@functools.lru_cache(maxsize=8)
def _pseudo_inverse(grid: Grid) -> np.ndarray:
    lam = neumann_eigenvalues(grid)
    mult = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0.0)
    mult.flags.writeable = False
    return mult


def solve_neumann_poisson(grid: Grid, rhs: np.ndarray, tolerance: float):
    """-lap w = rhs - mean(rhs), int w = 0 -> (w, worst member's relative residual,
    transform pairs). Each member is accepted only on its own recomputed true
    residual, at most tolerance; a miss raises at once with every member's residual."""
    rhs = np.asarray(rhs, dtype=np.float64)
    b = rhs - grid_mean(rhs, grid)
    w = spectral_apply(b, _pseudo_inverse(grid), grid_axes(grid))
    w -= grid_mean(w, grid)
    res = _residuals(b, w, grid)
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
    axes = grid_axes(grid)
    rhs = u - grid_mean(u, grid)
    r = laplacian_array(w, grid.spacing) + rhs
    r -= grid_mean(r, grid)  # zero in exact arithmetic; kills the round-off constant
    (ss, rr), _ = _sums_of_squares([rhs, r], axes)  # the ratio is free of the scale
    return np.sqrt(rr / np.maximum(ss, 1e-60))  # rhs ~ 0 guard


def _sums_of_squares(arrays, axes):
    """Per-member sums of squares of equal-shaped arrays over axes -> (sums, e).
    Members whose sums overflow (|values| past ~1e154) are summed scaled by 2**-e,
    which brings their max|arrays[0]| into [0.5, 1); the rest keep e = 0 and their bits."""
    def sumsq(a):
        return np.add.reduce(a * a, axis=axes)

    with np.errstate(over="ignore"):
        sums = [sumsq(a) for a in arrays]
        finite = np.isfinite(sum(sums))
    if finite.all():
        return sums, np.zeros(finite.shape, dtype=int)
    _, e = np.frexp(np.max(np.abs(arrays[0]), axis=axes))
    e = np.where(finite, 0, e)
    scale = np.ldexp(1.0, -e).reshape(finite.shape + (1,) * len(axes))
    return [sumsq(a * scale) for a in arrays], e


def spectral_info(grid: Grid) -> SpectralInfo:
    """lambda1 = min_k (4/h_k^2) sin^2(pi/2n_k) and the sharp Poincare constant."""
    lam = min(4.0 / (h * h) * math.sin(math.pi / (2 * n)) ** 2
              for n, h in zip(grid.cells, grid.spacing))
    return SpectralInfo(lam, lam ** -0.5)
