"""Uniform cell-centered tensor grids with zero-flux boundary operators.

Cells are uniform intervals (1D) or axis-aligned rectangles (2D), values live
at cell centers, fluxes live on faces. Boundary faces always carry zero flux
(mirror ghost cells), which makes divergence_arrays(gradient_arrays(f))
telescope: the integral of any divergence vanishes to round-off, so the
discrete conservation identities downstream hold exactly rather than to
truncation order.

Quadrature is midpoint: integrate(f) = sum(values) * cell_volume. Face-norm
quadrature assigns each interior face one cell volume, which makes
<-laplacian_array(f), f> equal grad-norm squared exactly (discrete integration
by parts with no boundary term).

The kernels take arrays shaped like grid.cells, or batches (B, *cells); a
simulation state is three such arrays. Field, a flat finite-checked wrapper,
serves the verification battery's quadratures (integrate, mean, lp_norm).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FLOAT_FMT",
    "Grid",
    "Field",
    "build_grid",
    "face_slices",
    "laplacian_array",
    "gradient_arrays",
    "divergence_arrays",
    "integrate",
    "mean",
    "lp_norm",
]

FLOAT_FMT = "%.17g"  # round-trips float64 exactly


@dataclass(frozen=True)
class Grid:
    """Static mesh geometry. Use build_grid; the constructor trusts its args.

    Attributes
    ----------
    dim : 1 or 2
    lengths : side length per axis
    cells : cell count per axis
    spacing : lengths[k] / cells[k]
    measure : domain volume (product of lengths)
    """

    dim: int
    lengths: tuple[float, ...]
    cells: tuple[int, ...]
    spacing: tuple[float, ...]
    measure: float

    @property
    def n_cells(self) -> int:
        return math.prod(self.cells)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @property
    def max_spacing(self) -> float:
        return max(self.spacing)

    def axis_centers(self, axis: int) -> np.ndarray:
        n = self.cells[axis]
        h = self.spacing[axis]
        return (np.arange(n) + 0.5) * h

    def cell_coordinates(self) -> tuple[np.ndarray, ...]:
        """Flat coordinate arrays (row-major cell order), one per axis."""
        axes = [self.axis_centers(k) for k in range(self.dim)]
        if self.dim == 1:
            return (axes[0],)
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        return (xx.ravel(), yy.ravel())


def build_grid(dim, lengths, cells) -> Grid:
    """Validate and assemble a Grid. lengths/cells are scalars or per-axis."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    lengths = tuple(float(l) for l in np.atleast_1d(lengths))
    cells = tuple(int(c) for c in np.atleast_1d(cells))
    if len(lengths) == 1 and dim == 2:
        lengths = lengths * 2
    if len(cells) == 1 and dim == 2:
        cells = cells * 2
    if len(lengths) != dim or len(cells) != dim:
        raise ValueError(
            f"need {dim} lengths and cell counts, got {lengths} / {cells}"
        )
    if any(l <= 0 or not math.isfinite(l) for l in lengths):
        raise ValueError(f"side lengths must be positive finite, got {lengths}")
    if any(c < 4 for c in cells):
        raise ValueError(f"need at least 4 cells per axis, got {cells}")
    spacing = tuple(l / c for l, c in zip(lengths, cells))
    measure = float(np.prod(lengths))
    return Grid(dim, lengths, cells, spacing, measure)


@dataclass(frozen=True)
class Field:
    """One finite scalar value per cell, flat row-major, immutable after build.
    The verification battery's functionals take Fields; a SimState holds
    shaped arrays instead."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64).ravel()
        if vals.size != self.grid.n_cells:
            raise ValueError(
                f"expected {self.grid.n_cells} values, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def shaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.cells)


# ---------------------------------------------------------------------------
# array kernels (shaped arrays in, shaped arrays out; no Field wrapping). The
# grid axes are the trailing ones, so a batch (B, *cells) works the same way.

@functools.lru_cache(maxsize=None)
def face_slices(dim: int) -> tuple:
    """Per grid axis, the (lo, hi) index tuples of the cells below and above
    its interior faces, anchored on the trailing axes."""
    out = []
    for k in range(dim):
        rest = (slice(None),) * (dim - 1 - k)
        out.append(((..., slice(0, -1)) + rest, (..., slice(1, None)) + rest))
    return tuple(out)


def laplacian_array(vals: np.ndarray, spacing) -> np.ndarray:
    """Second-order zero-flux Laplacian (3/5-point stencil, mirror ghosts)."""
    # telescoped face-difference form; mirror ghosts make boundary fluxes zero
    out = np.zeros_like(vals)
    for (lo, hi), h in zip(face_slices(len(spacing)), spacing):
        d = (vals[hi] - vals[lo]) / (h * h)
        out[lo] += d
        out[hi] -= d
    return out


def gradient_arrays(vals: np.ndarray, spacing) -> list[np.ndarray]:
    """Centered normal derivative on the interior faces, one array per axis."""
    return [(vals[hi] - vals[lo]) / h
            for (lo, hi), h in zip(face_slices(len(spacing)), spacing)]


def divergence_arrays(fluxes, spacing, shape) -> np.ndarray:
    """Discrete divergence of interior-face fluxes; boundary faces carry zero."""
    out = np.zeros(shape)
    net = np.empty(shape)
    for (lo, hi), g, h in zip(face_slices(len(spacing)), fluxes, spacing):
        # net = g[0], g[1:] - g[:-1], 0 - g[-1] along the axis
        net.fill(0.0)
        net[lo] = g
        net[hi] -= g
        net /= h
        out += net
    return out


def integrate(f: Field) -> float:
    return float(np.sum(f.values) * f.grid.cell_volume)


def mean(f: Field) -> float:
    return integrate(f) / f.grid.measure


def lp_norm(f: Field, p) -> float:
    """L^p quadrature norm; p = math.inf gives the cell-wise max norm."""
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    s = float(np.sum(np.abs(f.values) ** p) * f.grid.cell_volume)
    return s ** (1.0 / p)
