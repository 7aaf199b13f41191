"""Zero-flux Laplacian solves in the DCT-II basis, and the spectral constants.

On a uniform cell-centred box with mirror ghosts the orthonormal DCT-II diagonalizes
the 3/5-point zero-flux Laplacian: -lap has eigenvalue sum_k (4/h_k^2) sin^2(pi j_k / 2n_k)
on mode j, exactly 0 on the constant mode. A solve is one transform pair with a per-mode
multiplier; the potential's is 1/lambda, with 0 on the constant mode for the gauge int w = 0.
"""
import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn, idctn

from .grid import Field, Grid, laplacian_array


@dataclass(frozen=True)
class EllipticConfig:
    tolerance: float = 1e-10  # accepted relative residual of the potential solve

    def __post_init__(self):
        if not (0.0 < self.tolerance <= 1e-4):
            raise ValueError(f"tolerance must be in (0, 1e-4], got {self.tolerance}")


SpectralInfo = namedtuple("SpectralInfo", "lambda1 poincare_cp")


class EllipticSolveError(RuntimeError):
    def __init__(self, message, achieved_residual):
        super().__init__(f"{message} (relative residual {achieved_residual:.3e})")
        self.achieved_residual = achieved_residual


def neumann_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of -lap per DCT-II mode, shaped like the grid."""
    axes = [(4.0 / (h * h)) * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
            for n, h in zip(grid.cells, grid.spacing)]
    return axes[0] if grid.dim == 1 else np.add.outer(axes[0], axes[1])


def spectral_apply(vals: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """Apply the operator with the given per-mode multiplier to a shaped array."""
    coeffs = dctn(vals, type=2, norm="ortho") * multiplier
    return idctn(coeffs, type=2, norm="ortho", overwrite_x=True)


@functools.lru_cache(maxsize=8)
def _pseudo_inverse(grid: Grid) -> np.ndarray:
    lam = neumann_eigenvalues(grid)
    mult = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0.0)
    mult.flags.writeable = False
    return mult


def solve_neumann_poisson(grid: Grid, rhs: np.ndarray, cfg: EllipticConfig):
    """-lap w = rhs - mean(rhs), int w = 0 -> (w, relative residual, transform pairs).
    w is accepted only on the recomputed true residual; a miss raises at once."""
    b = np.asarray(rhs, dtype=np.float64) - np.mean(rhs)
    if not np.any(b):
        return np.zeros_like(b), 0.0, 0
    w = spectral_apply(b, _pseudo_inverse(grid))
    w -= w.mean()
    res = elliptic_residual(b, w, grid)
    if res > cfg.tolerance:
        raise EllipticSolveError(f"potential solve missed tolerance {cfg.tolerance:.1e}", res)
    return w, res, 1


def solve_w(u: Field, cfg: EllipticConfig = EllipticConfig()) -> Field:
    """Potential of the cell-density deviation: -lap w = u - mean(u), int w = 0."""
    return Field(u.grid, solve_neumann_poisson(u.grid, u.shaped(), cfg)[0])


def elliptic_residual(u_vals: np.ndarray, w_vals: np.ndarray, grid: Grid) -> float:
    """Relative residual of -lap w = u - mean(u) (the solve_w oracle)."""
    rhs = u_vals.reshape(grid.cells) - float(u_vals.mean())
    r = laplacian_array(w_vals.reshape(grid.cells), grid.spacing) + rhs
    r -= r.mean()  # zero in exact arithmetic; kills the round-off constant
    return math.sqrt(float(np.sum(r * r)) / max(float(np.sum(rhs * rhs)), 1e-60))  # rhs ~ 0 guard


def spectral_info(grid: Grid) -> SpectralInfo:
    """lambda1 = min_k (4/h_k^2) sin^2(pi/2n_k) and the sharp Poincare constant."""
    lam = min(4.0 / (h * h) * math.sin(math.pi / (2 * n)) ** 2
              for n, h in zip(grid.cells, grid.spacing))
    return SpectralInfo(lam, lam ** -0.5)
