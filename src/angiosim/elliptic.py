"""Zero-flux Laplacian solves in the DCT-II basis, and the spectral constants.

On a uniform cell-centred box with mirror ghosts the orthonormal DCT-II diagonalizes
the 3/5-point zero-flux Laplacian: -lap has eigenvalue sum_k (4/h_k^2) sin^2(pi j_k / 2n_k)
on mode j, exactly 0 on the constant mode. A solve is one transform pair with a per-mode
multiplier; the potential's is 1/lambda, with 0 on the constant mode for the gauge int w = 0.
Arrays are shaped like the grid or batched as (B, *cells): the transforms and reductions run
over the trailing grid axes, so every member of a batch gets the same numbers as a single solve.

The transform pair is one numpy.fft family: a real FFT pair with Makhoul's even/odd
reordering of every grid axis (J. Makhoul, IEEE TASSP 28, 1980) over the last two axes
(_apply_2d), running a whole batch in one call; a 1D grid runs as one row of cells.
A multiplier enters it packed once (pack_multiplier) into the real and imaginary parts
of the twiddled half spectrum, shared by the batch or with a row per member, and on
half its rows, since the other half are the same numbers with their halves swapped.
The pair works in buffers sized for the batch that its caller passes
(transform_buffers): a time stepper carves them out of work arrays that are idle while
the pair runs, and a potential solve without any carves them and its own work arrays
out of one fresh flat array (potential_work) that dies with the call.
numpy.fft imports in milliseconds and scipy.fft in about a third of a second, which
would be most of a run's or a sweep's start-up.
"""
import functools
import math
from collections import namedtuple

import numpy as np

from .grid import Grid, face_strides, laplacian_array, laplacian_views

__all__ = [
    "EllipticSolveError",
    "SpectralInfo",
    "solve_neumann_poisson",
    "elliptic_residual",
    "spectral_info",
]


SpectralInfo = namedtuple("SpectralInfo", "lambda1 poincare_cp")


class EllipticSolveError(RuntimeError):
    """A potential solve missed its tolerance. residuals holds each member's relative
    residual (one for an unbatched solve), achieved_residual the worst of them, and
    failed marks the members that the gate refused."""

    def __init__(self, tolerance, residuals, failed):
        self.tolerance = tolerance
        self.residuals = np.array(residuals, ndmin=1)  # a copy: the gate's may be work memory
        self.failed = np.atleast_1d(failed)
        self.achieved_residual = float(self.residuals.max())
        worst = np.where(self.failed, self.residuals, -np.inf).argmax()  # argmax picks a nan first
        super().__init__(self.member_message(int(worst)))

    def member_message(self, row):
        return (f"potential solve missed tolerance {self.tolerance:.1e} "
                f"(relative residual {self.residuals[row]:.3e})")


def grid_mean(vals: np.ndarray, grid: Grid) -> np.ndarray:
    """Mean over the grid axes, kept as length-1 axes. The same sum / n as
    ndarray.mean, without its per-call overhead on small arrays."""
    return np.add.reduce(vals, axis=grid.axes, keepdims=True) / grid.n_cells


def neumann_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of -lap per DCT-II mode, shaped like the grid."""
    axes = [(4.0 / (h * h)) * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
            for n, h in zip(grid.cells, grid.spacing)]
    return functools.reduce(np.add.outer, axes)


def pack_multiplier(multiplier: np.ndarray, dim: int) -> tuple:
    """A per-mode multiplier, shaped like the grid or (B, *cells) with a row per member,
    in the form the transform pair applies: (p, q) on the float view of the twiddled
    half spectrum, for the rows k1 = 0..n1 // 2 and 1..n1 // 2 only, which are about
    one grid array's floats between them (see _pack_2d and _apply_2d). A 1D
    multiplier is packed as a grid of one row of cells, whose p interleaves M(k) and
    M(-k) and whose q has no rows. The arrays are read-only."""
    packed = _pack_2d(multiplier[..., None, :] if dim == 1 else multiplier)
    for arr in packed:
        arr.flags.writeable = False
    return packed


def apply_packed(vals: np.ndarray, packed: tuple, out=None, buffers=None) -> np.ndarray:
    """DCT-II, multiply by a pack_multiplier multiplier, inverse DCT-II over the trailing
    grid axes, into out: a C-contiguous array shaped like vals, which may be vals itself,
    or a fresh C-contiguous one. The output is never a fancy index's, which would have
    another memory layout, and np.add.reduce over it would sum in another order.
    A 1D batch runs as one row of cells, through views with a length-1 axis before the
    last; a multiplier packed with one row is 1D, since a grid axis has 4 cells or more.
    buffers, if given, are the pair's work arrays as transform_buffers makes them for
    vals.shape, all overwritten; they must share no memory with vals or out. Fresh ones
    are made otherwise. Either way the output has the same bytes."""
    if out is None:
        out = np.empty(vals.shape)
    rows = (..., None, slice(None)) if packed[0].shape[-3] == 1 else ...
    if buffers is None:
        buffers = transform_buffers(vals[rows].shape, 2)
    _apply_2d(vals[rows], *packed, out[rows], *buffers)
    return out


def _pair_shapes(shape, dim):
    """The transform pair's array shapes for arrays of this shape on a grid of n1 x n2
    cells, n1 = 1 in 1D (a length-1 axis is inserted before the last): the reordered
    input (..., n1, n2), the half spectrum (..., n1, n2 // 2 + 1) and the butterfly's
    terms (..., n1 - 1, n2 // 2 + 1, 2), and the floats of the reordered input's region,
    which also holds the terms, rounded up to keep the spectrum 16-byte aligned."""
    if dim == 1:
        shape = shape[:-1] + (1, shape[-1])
    half = shape[-1] // 2 + 1
    spectrum = shape[:-1] + (half,)
    terms = shape[:-2] + (shape[-2] - 1, half, 2)
    region = max(math.prod(shape), math.prod(terms))
    return shape, spectrum, terms, region + region % 2


def transform_floats(shape, dim: int) -> int:
    """The floats of the flat memory that transform_buffers carves for this shape."""
    _shape, spectrum, _terms, region = _pair_shapes(shape, dim)
    return region + 2 * math.prod(spectrum)


def transform_buffers(shape, dim: int, memory=None) -> tuple:
    """The work arrays of the transform pair over the last dim axes of arrays of this
    shape, whole batch at once, for a grid of n1 x n2 cells, n1 = 1 in 1D (a length-1
    axis is inserted before the last): the reordered input, which also receives the
    inverse, shaped (..., n1, n2); the half spectrum, (..., n1, n2 // 2 + 1), and its
    float view, (..., n1, n2 // 2 + 1, 2); and the butterfly's terms, (..., n1 - 1,
    n2 // 2 + 1, 2), empty in 1D (see _apply_2d). The terms share the reordered
    input's memory, which is idle between the forward and the inverse FFT, so the
    input's region holds max(n1 n2, 2 (n1 - 1) (n2 // 2 + 1)) floats a row. They are
    carved out of memory, a flat float array of at least transform_floats(shape, dim)
    floats that starts 16-byte aligned, the spectrum after the input's region, or out
    of one fresh such array."""
    if memory is None:
        memory = np.empty(transform_floats(shape, dim))
    shape, spectrum, terms, region = _pair_shapes(shape, dim)
    v = memory[:region]
    zf = memory[region:region + 2 * math.prod(spectrum)].reshape(spectrum + (2,))
    return (v[:math.prod(shape)].reshape(shape), zf.view(np.complex128)[..., 0], zf,
            v[:math.prod(terms)].reshape(terms))


def potential_floats(shape, dim: int) -> int:
    """The floats of the flat memory that potential_work carves for this shape."""
    size = math.prod(shape)
    return max(3 * size + max(face_strides(shape, dim)),
               size + size % 2 + transform_floats(shape, dim))


def potential_work(shape, dim: int, memory=None) -> tuple:
    """The work arrays of solve_neumann_poisson for u of this shape, the residuals
    aside: (centred u, Laplacian, squares, face differences, transform buffers),
    carved out of memory, a flat float array of at least potential_floats(shape, dim)
    floats that starts 16-byte aligned, or out of one fresh such array. The centred
    u, the Laplacian and the squares come first, one after the other, and the face
    differences (laplacian_views) start at the squares, which are written after the
    Laplacian is taken. The pair reads only the centred u, so its buffers start past
    it, with 16-byte alignment, and overlap the rest, which is written after it."""
    size = math.prod(shape)
    if memory is None:
        memory = np.empty(potential_floats(shape, dim))
    rhs, lap, squares = memory[:3 * size].reshape((3,) + tuple(shape))
    return (rhs, lap, squares, laplacian_views(memory[2 * size:], shape, dim),
            transform_buffers(shape, dim, memory[size + size % 2:]))


def _reorder_slices(n: int):
    """(reordered, original) index pairs of Makhoul's reordering of one axis:
    the even points in order, then the odd ones backwards."""
    half = (n + 1) // 2
    return ((slice(None, half), slice(None, None, 2)),
            (slice(half, None), slice(n - 1 - n % 2, 0, -2)))


@functools.lru_cache(maxsize=8)
def _makhoul_plan_2d(n1: int, n2: int):
    """For an n1 x n2 grid: the reordering's nonempty quadrants as (reordered,
    original) index pairs of strided slices of the last two axes (one row, n1 = 1,
    has no odd rows), and exp(+i pi (k1 / 2n1 + k2 / 2n2)) on the half spectrum.
    Only this up table is kept: z * conj(up) is taken as conj(conj(z) * up), the
    same bytes, for two conjugations per forward transform and one table fewer
    (half a megabyte at 256 x 256)."""
    quadrants = tuple(((..., a, b), (..., c, d))
                      for a, c in _reorder_slices(n1) for b, d in _reorder_slices(n2)
                      if range(n1)[a] and range(n2)[b])
    up = np.multiply.outer(np.exp(0.5j * np.pi / n1 * np.arange(n1)),
                           np.exp(0.5j * np.pi / n2 * np.arange(n2 // 2 + 1)))
    up.flags.writeable = False
    return quadrants, up


def _pack_2d(m: np.ndarray):
    """(p, q) of a 2D multiplier on half its rows, shaped (..., n1 // 2 + 1,
    n2 // 2 + 1, 2) and (..., n1 // 2, n2 // 2 + 1, 2) for the rows k1 = 0..n1 // 2
    and 1..n1 // 2: on row k1 >= 1, with indices mod n,
    p = ((M(k1,k2) + M(-k1,-k2))/2, (M(-k1,k2) + M(k1,-k2))/2) and
    q = ((M(-k1,-k2) - M(k1,k2))/2, (M(k1,-k2) - M(-k1,k2))/2);
    on row 0, p = (M(0,k2), M(0,-k2)) and there is no q row. Row n1 - k1 of either
    is row k1 with its two halves swapped, bit for bit, since its sums and
    differences take the same two operands, so it is not kept (see _apply_2d).
    Every term is a strided view of m, since -k mod n runs n - 1 down to 1 for
    k >= 1, and the sums are written straight into p and q: M(k1,-k2) is column 0
    for k2 = 0 and m[..., n2 - 1:n2 - half:-1] for the others, so the two column
    ranges are packed one after the other."""
    n1, n2 = m.shape[-2:]
    half, rows = n2 // 2 + 1, n1 // 2
    p = np.empty(m.shape[:-2] + (rows + 1, half, 2))
    q = np.empty(m.shape[:-2] + (rows, half, 2))
    lo, hi = slice(1, rows + 1), slice(n1 - 1, n1 - 1 - rows, -1)  # rows k1 and -k1
    for at2, neg2 in ((slice(0, 1), slice(0, 1)), (slice(1, half), slice(n2 - 1, n2 - half, -1))):
        at, at_neg1 = m[..., lo, at2], m[..., hi, at2]        # M(k1, k2), M(-k1, k2)
        at_neg2, at_neg = m[..., lo, neg2], m[..., hi, neg2]  # M(k1, -k2), M(-k1, -k2)
        np.add(at, at_neg, out=p[..., 1:, at2, 0])
        np.add(at_neg1, at_neg2, out=p[..., 1:, at2, 1])
        np.subtract(at_neg, at, out=q[..., at2, 0])
        np.subtract(at_neg2, at_neg1, out=q[..., at2, 1])
        p[..., 0, at2, 0] = m[..., 0, at2]
        p[..., 0, at2, 1] = m[..., 0, neg2]
    p[..., 1:, :, :] /= 2
    q /= 2
    return p, q


def _apply_2d(vals: np.ndarray, p: np.ndarray, q: np.ndarray, out: np.ndarray,
              v: np.ndarray, z: np.ndarray, zf: np.ndarray, t: np.ndarray) -> np.ndarray:
    """apply_packed over the last two axes, through one real 2D FFT pair; a 1D grid
    is its one-row case.

    With each axis reordered to x[0::2], x[1::2][::-1] and V = fft(rfft(v), axis=-2),
    Z = exp(-i pi k1 / 2n1) exp(-i pi k2 / 2n2) V on the half spectrum is
    Z(k1,k2) = X(k1,k2) - X(n1-k1,n2-k2) - i (X(n1-k1,k2) + X(k1,n2-k2)), X being the
    unnormalised 2D DCT-II (X = 0 at index n). Z and Z'(k1, .) = Z(n1-k1, .) determine
    the four X's of a mode quartet, so on the float view the output's Z is
    p (Re Z, Im Z) + q (Im Z', Re Z'). Row 0 pairs with the mode index n1, where X is
    0, not with FFT row 0 again: Z(0,k2) = X(0,k2) - i X(0,n2-k2), and p alone
    scales Re Z by M(0,k2) and Im Z by M(0,-k2). No normalisation constants enter.
    One row, n1 = 1, is row 0 alone, the 1D transform: its column FFTs are the
    identity and its q term is empty, so both are skipped.

    p and q hold the rows j = 0..n1 // 2 and 1..n1 // 2 only (_pack_2d), so the rows
    j and n1 - j, 1 <= j < n1 - j, are one butterfly: with swap exchanging the two
    halves of the float view and T(j) = swap(Z(n1-j)),
    Z_out(j) = p(j) Z(j) + q(j) T(j) and swap(Z_out(n1-j)) = p(j) T(j) + q(j) Z(j),
    the bits of the products with the rows' own p and q, since swapping commutes
    with every product and sum. Row n1 / 2 of an even n1 pairs with itself and takes
    the first form alone. T(j), j = 1..n1 // 2, is i conj(Z(n1-j)); the second form's
    p term is written to t's other rows and its q term to Z's rows above n1 // 2,
    whose values T holds by then, and their sum is copied back swapped, two strided
    copies. Each product and sum takes its operands in the order of the row's own
    form, Z before p and the p term before the q term.

    The whole batch runs at once in the caller's buffers (transform_buffers): v, the
    reordered input, z its half spectrum, zf z's float view and t the butterfly's
    terms, which are written after the forward FFT has read v and read before the
    inverse one writes it, so the two may share memory. p and q are shared or hold
    a row per member, and broadcasting applies either. vals is read whole before out
    is written. The FFTs write in place (out=), and the reorderings are strided slice
    copies, which cost tens of times less than a fancy index. Every product runs
    over rows that are contiguous along the last axis, as p and q are.
    """
    n1, n2 = vals.shape[-2:]
    quadrants, up = _makhoul_plan_2d(n1, n2)
    for reordered, original in quadrants:
        v[reordered] = vals[original]
    np.fft.rfft(v, out=z)
    if n1 > 1:
        np.fft.fft(z, axis=-2, out=z)
    np.conjugate(z, out=z)  # z * conj(up)
    z *= up
    np.conjugate(z, out=z)
    if n1 > 1:
        rows = n1 // 2
        pairs = n1 - 1 - rows  # the rows j with j < n1 - j
        swapped, second = t[..., :rows, :, :], t[..., rows:, :, :]
        tc = swapped.view(np.complex128)[..., 0]
        np.conjugate(z[..., n1 - 1:n1 - 1 - rows:-1, :], out=tc)  # T(j), j = 1..n1 // 2
        tc *= 1j
        upper = zf[..., rows + 1:, :, :]  # rows n1 - j, j = pairs down to 1
        np.multiply(swapped[..., :pairs, :, :], p[..., 1:pairs + 1, :, :], out=second)
        np.multiply(zf[..., 1:pairs + 1, :, :], q[..., :pairs, :, :], out=upper)
        second += upper  # swap(Z_out(n1 - j)), j = 1..pairs
        upper[..., ::-1, :, 0] = second[..., 1]
        upper[..., ::-1, :, 1] = second[..., 0]
        lower = zf[..., :rows + 1, :, :]
        lower *= p
        swapped *= q
        lower[..., 1:, :, :] += swapped
        z *= up
        np.fft.ifft(z, axis=-2, out=z)
    else:
        zf *= p
        z *= up
    np.fft.irfft(z, n2, out=v)
    for reordered, original in quadrants:
        out[original] = v[reordered]
    return out


@functools.lru_cache(maxsize=8)
def _pseudo_inverse(grid: Grid) -> tuple:
    """The packed multiplier of the potential solve: 1/lambda, 0 on the constant mode."""
    lam = neumann_eigenvalues(grid)
    mult = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0.0)
    return pack_multiplier(mult, grid.dim)


# the gate's backward-error floor, about 4.5 eps: exact solves read at most 2e-16
# from 1D-128 to 1D-65536 and on 2D boxes up to 512 x 512; the lowest mode's
# multiplier off by 1e-6 reads 1.4e-10 at 1D-128, 5.9e-13 at 1D-2048 and 9.2e-15
# at 1D-16384, but 5.9e-16 at 1D-65536, where the floor no longer catches it
BACKWARD_ERROR_FLOOR = 1e-15


def solve_neumann_poisson(grid: Grid, u: np.ndarray, tolerance: float, work=None):
    """-lap w = u - mean(u), int w = 0 -> (w, worst member's relative residual,
    transform pairs). u is centred once, and each member is gated on its own
    recomputed true residual r, which raises at once with every member's residual
    unless the member passes one of two tests:

    - its relative residual |r|/|f|, elliptic_residual of the member's u and w bit
      for bit, is at most tolerance;
    - or its normwise backward error |r| / (|lap| |w| + |f|), with
      |lap| = sum_k 4/h_k^2 (Rigal & Gaches 1967; Higham, Accuracy and Stability of
      Numerical Algorithms, 7.1), is at most BACKWARD_ERROR_FLOOR, and at most
      1e-4 times tolerance so that a tighter tolerance stays tighter.

    An exact solve scores up to about 0.4 eps kappa on the first, kappa = |lap| /
    lambda1, so a cosine bump passes 1e-10 only up to about 1D-1800; it scores about
    eps on the second.
    The second is computed only for members that fail the first.

    The gate first compares the worst member with tolerance and tests the members
    one by one only when that fails.

    work, if given, is (centred u, Laplacian, squares, face differences, transform
    buffers, residuals): three arrays shaped like u, laplacian_array's faces (the
    laplacian_views of a flat array, which a time stepper builds once), the transform
    pair's buffers (transform_buffers) and a (B,) array that receives each member's
    relative residual, before the gate may raise. All are overwritten. The pair reads
    only the centred u, so its buffers may share memory with the Laplacian, the
    squares and the faces, which are written after it. Without work, as in
    make_initial, all but the residuals are carved out of one fresh flat array
    (potential_work). glibc raises its mmap threshold to the size of a large array
    it frees, and a 2D 256 x 256 run (perfbench's run-2d) peaks 0.45 MB lower in RSS
    after this one 1.6 MB array than after six fresh arrays of up to 0.5 MB each
    (39.24 against 39.69 MB, tools/ab.py, 10 pairs on a 2-core x86-64 VM); with the
    threshold pinned (MALLOC_MMAP_THRESHOLD_) the two read the same. w is always a
    fresh array."""
    u = np.asarray(u, dtype=np.float64)
    if work is None:
        work = potential_work(u.shape, grid.dim) + (None,)
    rhs, lap, squares, faces, buffers, res = work
    b = np.subtract(u, grid_mean(u, grid), out=rhs)
    w = apply_packed(b, _pseudo_inverse(grid), buffers=buffers)
    w -= grid_mean(w, grid)
    r, res = _gate_residuals(b, w, grid, res, (lap, faces, squares))
    worst = res.max()
    if not worst <= tolerance:  # a nan residual fails too
        passed = res <= tolerance
        floor = min(BACKWARD_ERROR_FLOOR, 1e-4 * tolerance)
        failed = ~(passed | (_backward_errors(b, w, r, grid, squares) <= floor))
        if failed.any():
            raise EllipticSolveError(tolerance, res, failed)
    return w, float(worst), 1


def elliptic_residual(u_vals: np.ndarray, w_vals: np.ndarray, grid: Grid) -> float:
    """Relative residual of -lap w = u - mean(u), u and w shaped like the grid."""
    return float(_gate_residuals(u_vals - grid_mean(u_vals, grid), w_vals, grid)[1])


def _gate_residuals(rhs, w, grid, out=None, work=(None, None, None)) -> tuple:
    """The potential gate's residual of w for a centred rhs, shaped or batched ->
    (r, |r| / |rhs| per member, in out if given). r = lap w + rhs, with its round-off
    mean removed, is in the Laplacian's array. work, if given, is (Laplacian, faces,
    squares) as solve_neumann_poisson's work holds them."""
    lap, faces, squares = work
    r = laplacian_array(w, grid.spacing, lap, faces)
    r += rhs
    r -= grid_mean(r, grid)  # zero in exact arithmetic; kills the round-off constant
    (ss, rr), _ = _sums_of_squares([rhs, r], grid.axes, squares)  # ratio is scale-free
    return r, np.sqrt(rr / np.maximum(ss, 1e-60), out=out)  # rhs ~ 0 guard


def _backward_errors(rhs, w, r, grid, squares=None) -> np.ndarray:
    """|r| / (|lap| |w| + |rhs|) per member, |lap| = sum_k 4/h_k^2 bounding the
    Laplacian's 2-norm; squares is optional scratch shaped like r."""
    (ss, ww, rr), _ = _sums_of_squares([rhs, w, r], grid.axes, squares)
    norm_lap = sum(4.0 / (h * h) for h in grid.spacing)
    with np.errstate(invalid="ignore"):  # 0/0 on a zero member, which the relative test passes
        return np.sqrt(rr) / (norm_lap * np.sqrt(ww) + np.sqrt(ss))


def _sums_of_squares(arrays, axes, scratch=None):
    """Per-member sums of squares of arrays over axes -> (sums, e), each array
    reducing to the same member shape. Members whose sums overflow (|values| past
    ~1e154), or the sum of whose sums does, are summed scaled by 2**-e, which brings
    their largest |value| over all the arrays into [0.5, 1); the rest keep e = 0 and
    their bits. e is the int 0 when no member is scaled, and an int array otherwise.
    scratch, if given, is shaped like every array and holds the squares."""
    def sumsq(a):
        return np.add.reduce(np.multiply(a, a, out=scratch), axis=axes)

    with np.errstate(over="ignore"):
        sums = [sumsq(a) for a in arrays]
        total = sums[0]
        for s in sums[1:]:
            total = total + s
    finite = np.isfinite(total)
    if finite.all():
        return sums, 0
    _, e = np.frexp(np.max([np.max(np.abs(a), axis=axes) for a in arrays], axis=0))
    e = np.where(finite, 0, e)
    scale = np.ldexp(1.0, -e).reshape(finite.shape + (1,) * len(axes))
    return [sumsq(a * scale) for a in arrays], e


def spectral_info(grid: Grid) -> SpectralInfo:
    """lambda1 = min_k (4/h_k^2) sin^2(pi/2n_k) and the sharp Poincare constant."""
    lam = min(4.0 / (h * h) * math.sin(math.pi / (2 * n)) ** 2
              for n, h in zip(grid.cells, grid.spacing))
    return SpectralInfo(lam, lam ** -0.5)
