"""Uniform cell-centered tensor grids with zero-flux boundary operators.

Cells are uniform intervals (1D) or axis-aligned rectangles (2D), values live
at cell centers, fluxes live on faces. Boundary faces always carry zero flux
(mirror ghost cells), which makes divergence_arrays(gradient_arrays(f))
telescope: the integral of any divergence vanishes to round-off, so the
discrete conservation identities downstream hold exactly rather than to
truncation order.

Quadrature is midpoint: integrate(vals, grid) = sum(vals) * cell_volume.
Face-norm quadrature assigns each interior face one cell volume, which makes
<-laplacian_array(f), f> equal grad-norm squared exactly (discrete integration
by parts with no boundary term).

Values are arrays shaped like grid.cells, and the face kernels also take
batches (B, *cells); a simulation state is three such arrays, and the
verification battery's quadratures (integrate, lp_norm) take them too.
gradient_arrays writes each axis's interior faces. The stencils of the time
step, divergence_arrays and laplacian_array hold them as padded face arrays
(padded_faces): the flat batch shifted by the axis's stride, with +0.0 on the
boundary faces, so that each of their face passes is one contiguous ufunc.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "build_grid",
    "laplacian_array",
    "gradient_arrays",
    "divergence_arrays",
    "integrate",
    "lp_norm",
]


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

    n_cells and axes, the trailing axes that hold the cells of a shaped or
    batched array, are worked out on first use and kept: the potential solve
    reads them at every step.
    """

    dim: int
    lengths: tuple[float, ...]
    cells: tuple[int, ...]
    spacing: tuple[float, ...]
    measure: float

    @functools.cached_property
    def n_cells(self) -> int:
        return math.prod(self.cells)

    @functools.cached_property
    def axes(self) -> tuple[int, ...]:
        return ((-1,), (-2, -1))[self.dim - 1]

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
        """The cell centres' coordinates, one array shaped like cells per axis."""
        return tuple(np.meshgrid(*map(self.axis_centers, range(self.dim)), indexing="ij"))


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
    measure = math.prod(lengths)
    return Grid(dim, lengths, cells, spacing, measure)


@dataclass(frozen=True)
class Field:
    """One finite scalar value per cell, flat row-major, immutable after build.
    Nothing in the package builds one: it is kept only because the benchmark's
    tracer patches Field.__init__, and it goes once the tracer stops doing so
    (ROADMAP item 1)."""

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


# ---------------------------------------------------------------------------
# array kernels (shaped arrays in, shaped arrays out). The grid axes are the
# trailing ones, so a batch (B, *cells) works the same way.

@functools.lru_cache(maxsize=None)
def face_slices(dim: int) -> tuple:
    """Per grid axis, the (lo, hi) index tuples of the cells below and above
    its interior faces, anchored on the trailing axes."""
    out = []
    for k in range(dim):
        rest = (slice(None),) * (dim - 1 - k)
        out.append(((..., slice(0, -1)) + rest, (..., slice(1, None)) + rest))
    return tuple(out)


@functools.lru_cache(maxsize=64)
def face_strides(shape: tuple, dim: int) -> tuple[int, ...]:
    """Per grid axis, its flat stride in a C-contiguous array of this shape, a
    tuple, whose trailing dim axes are the grid's."""
    return tuple(math.prod(shape[len(shape) - dim + k + 1:]) for k in range(dim))


def padded_faces(shape, dim: int, memory=None) -> list[np.ndarray]:
    """Per grid axis k, the padded face array of a C-contiguous array of this shape
    whose trailing dim axes are the grid's: flat, s_k + size floats, s_k the axis's
    flat stride (face_strides). Entry s_k + i is the face above flat cell i along
    axis k, so entries [s_k, s_k + size) line up with the cells' upper faces and
    entries [0, size) with their lower faces. The first s_k entries and those above
    each last cell of the axis are its pads (face_pads): the zero-flux boundary
    faces, which also separate the rows of a batch. With them every face pass over
    a batch is one contiguous ufunc call. The arrays are carved one after another
    out of memory, a flat float array, or are fresh; either way the pads hold
    whatever was there, and each kernel writes +0.0 into them before it reads them."""
    size = math.prod(shape)
    lengths = [s + size for s in face_strides(shape, dim)]
    if memory is None:
        return [np.empty(n) for n in lengths]
    ends = np.cumsum(lengths).tolist()
    return [memory[end - n:end] for n, end in zip(lengths, ends)]


def face_pads(faces: np.ndarray, shape, dim: int, k: int) -> np.ndarray:
    """The pads of grid axis k's padded face array (see padded_faces) as a strided
    view: every n_k-th block of s_k entries, n_k the axis's cell count."""
    s = face_strides(shape, dim)[k]
    return faces[:s + math.prod(shape)].reshape(-1, s)[::shape[len(shape) - dim + k]]


def laplacian_views(faces: np.ndarray, shape, dim: int) -> list[tuple]:
    """Per grid axis k, the views that laplacian_array takes of faces, a flat float
    array of at least max_k s_k + size floats, for arrays of this shape: (s_k, the
    face differences, entries [s_k, size) of axis k's padded face array, its pads
    (face_pads), and its upper and lower faces shaped like the array). A caller that
    takes many Laplacians of one shape builds them once."""
    size = math.prod(shape)
    views = []
    for k, s in enumerate(face_strides(shape, dim)):
        d = faces[:s + size]
        views.append((s, d[s:size], face_pads(d, shape, dim, k),
                      d[s:].reshape(shape), d[:size].reshape(shape)))
    return views


def laplacian_array(vals: np.ndarray, spacing, out=None, faces=None) -> np.ndarray:
    """Second-order zero-flux Laplacian (3/5-point stencil, mirror ghosts).
    out, shaped like vals, receives it, and faces, laplacian_views of a flat float
    array for vals' shape, holds each axis's face differences in turn as a padded
    face array (padded_faces); both are fresh when not given.

    Per axis it adds each cell's upper face difference and then subtracts its lower
    one, in place, from an out of +0.0. The +0.0 pads make each of these one
    contiguous pass with the bits of skipping a cell's missing face."""
    # telescoped face-difference form; mirror ghosts make boundary fluxes zero
    flat = vals.reshape(-1)
    out = np.empty(vals.shape) if out is None else out
    if faces is None:
        dim = len(spacing)
        faces = laplacian_views(np.empty(max(face_strides(vals.shape, dim)) + vals.size),
                                vals.shape, dim)
    for k, ((s, diff, pads, d_hi, d_lo), h) in enumerate(zip(faces, spacing)):
        # the differences across a pad are garbage, zeroed before they are scaled
        np.subtract(flat[s:], flat[:-s], out=diff)
        pads.fill(0.0)
        diff /= h * h
        if k == 0:
            np.add(0.0, d_hi, out=out)
        else:
            out += d_hi
        out -= d_lo
    return out


def face_views(buffers, shape) -> list[np.ndarray]:
    """Per grid axis k, a C-contiguous view of the start of the contiguous array
    buffers[k], shaped like the interior faces of an array of this shape whose
    trailing len(buffers) axes are the grid's. One buffer may serve axes that
    are used one at a time."""
    dim = len(buffers)
    views = []
    for k, buffer in enumerate(buffers):
        axis = len(shape) - dim + k
        faces = shape[:axis] + (shape[axis] - 1,) + shape[axis + 1:]
        views.append(buffer.reshape(-1)[:math.prod(faces)].reshape(faces))
    return views


def gradient_arrays(vals: np.ndarray, spacing, out=None) -> list[np.ndarray]:
    """Centered normal derivative on the interior faces, one array per axis;
    out, if given, holds an array per axis shaped like its faces, which receive
    them."""
    if out is None:
        out = [None] * len(spacing)
    grads = []
    for (lo, hi), h, dst in zip(face_slices(len(spacing)), spacing, out):
        g = np.subtract(vals[hi], vals[lo], out=dst)
        g /= h
        grads.append(g)
    return grads


def divergence_arrays(fluxes, spacing, shape, out=None, net=None) -> np.ndarray:
    """Discrete divergence of fluxes given as padded face arrays (padded_faces)
    with +0.0 on their pads, which carry the boundary faces' zero flux.

    out receives it and net, of the same shape, holds one axis's net flux on 2D
    grids; both are fresh when not given. fluxes may be a generator: an axis's
    flux is asked for only once the previous one is used up, so all can share
    one buffer. Each axis's net flux is one contiguous difference of the upper
    and the lower faces: g[0] - 0 and 0 - g[-1] at the ends, which have the bits
    of g[0] and np.subtract(0.0, g[-1])."""
    dim, size = len(spacing), math.prod(shape)
    out = np.empty(shape) if out is None else out
    if net is None and dim > 1:
        net = np.empty(shape)
    for k, (g, h, s) in enumerate(zip(fluxes, spacing, face_strides(shape, dim))):
        dst = out if k == 0 else net
        np.subtract(g[s:s + size].reshape(shape), g[:size].reshape(shape), out=dst)
        dst /= h
        # the sum starts from +0.0, which turns a -0.0 net flux into +0.0
        out += 0.0 if k == 0 else net
    return out


def integrate(vals: np.ndarray, grid: Grid) -> float:
    return float(np.sum(vals) * grid.cell_volume)


def lp_norm(vals: np.ndarray, grid: Grid, p) -> float:
    """L^p quadrature norm; p = math.inf gives the cell-wise max norm."""
    if p == math.inf:
        return float(np.max(np.abs(vals)))
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return integrate(np.abs(vals) ** p, grid) ** (1.0 / p)
