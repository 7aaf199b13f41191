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


def laplacian_array(vals: np.ndarray, spacing, out=None, faces=None) -> np.ndarray:
    """Second-order zero-flux Laplacian (3/5-point stencil, mirror ghosts).
    out, shaped like vals, receives it, and faces, one array per axis shaped
    like its interior faces, hold the face differences; fresh when not given."""
    # telescoped face-difference form; mirror ghosts make boundary fluxes zero
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


def gradient_arrays(vals: np.ndarray, spacing) -> list[np.ndarray]:
    """Centered normal derivative on the interior faces, one array per axis."""
    return [(vals[hi] - vals[lo]) / h
            for (lo, hi), h in zip(face_slices(len(spacing)), spacing)]


def divergence_arrays(fluxes, spacing, shape, out=None, net=None) -> np.ndarray:
    """Discrete divergence of interior-face fluxes; boundary faces carry zero.

    out receives it and net, of the same shape, holds one axis's net flux on 2D
    grids; both are fresh when not given. fluxes may be a generator: an axis's
    flux is asked for only once the previous one is used up, so all can share
    one buffer.
    """
    dim = len(spacing)
    out = np.empty(shape) if out is None else out
    if net is None and dim > 1:
        net = np.empty(shape)
    for k, (g, h) in enumerate(zip(fluxes, spacing)):
        (lo, hi), (first, inner, last) = face_slices(dim)[k], _edge_slices(dim)[k]
        # g[0], g[1:] - g[:-1], 0 - g[-1] along the axis
        dst = out if k == 0 else net
        dst[first] = g[first]
        np.subtract(g[hi], g[lo], out=dst[inner])
        np.subtract(0.0, g[last], out=dst[last])
        dst /= h
        # the sum starts from +0.0, which turns a -0.0 net flux into +0.0
        out += 0.0 if k == 0 else net
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
