"""Reflection-coefficient synthesis: truncated-SVD Tikhonov inversion + power scaling.

The kernel K = U Sigma V^H is decomposed once and reused across every mask of
a measurement set; the regularized inverse maps each ideal mask b to the
coefficient vector p = V Lambda U^H b that best reproduces it under the
quadratic penalty, and each vector is then scaled onto the aperture power
budget ||p||^2 = N * P_I.

The decomposition runs sector by sector. A plane kernel carries its mirror
structure (``KernelMatrix.symmetry``): K = a F diag(phase) with a real, and F
unchanged when the x-mirror or the y-mirror acts on both centred grids, so
K K^H commutes with the target mirrors. One mirror map folds and unfolds
(:func:`_butterfly`): a pair (i, n-1-i) goes to v_i +- v_{n-1-i}, and an odd
length's centre line is kept. The map is symmetric and squares to twice the
identity, so with the weight 1/sqrt(2) per pair it is orthonormal and its own
inverse. A grid folded along x and y keeps each axis's even part in its head
and its odd part in its tail read backwards (:func:`_part`), and in that
basis K is block diagonal with four sectors of about M/4 x N/4 (symmetry-
adapted block diagonalisation). Each sector block is a times one quarter of
the target rows of F folded over the aperture and weighted, so the full
kernel is never folded, and neither J_x nor its phase is ever applied to
those rows: J_x times the conjugate phase is a. The stored quadrant rows
are folded over the aperture as they arrive, by the one fold that volume
kernels use too (:func:`_table_stacks`), and each block is a row-scaled
view of its aperture sector's columns there (:func:`_sector_blocks`). A
kernel without mirror structure is one identity sector holding K itself and
goes through the same code.

When each grid has the same coordinates along x as along y, F is also
unchanged when x and y swap on both grids, and the mirrors and the swap
generate the dihedral group D4 (Fassler & Stiefel, Group Theoretical Methods
and Their Applications, 1992). The swap maps the even-even and the odd-odd
sector onto itself, so each of those blocks splits again into a swap-
symmetric and a swap-antisymmetric part (a swapped pair of quadrant points
gives (e_p +- e_q) / sqrt(2), a diagonal point joins the symmetric part with
weight 1), and it carries the (x-odd, y-even) block onto the (x-even, y-odd)
one with its quadrants transposed. So five blocks are decomposed, the
mixed-parity one once, and each part's U is put back together in its mirror
sector's own row basis: everything after the decomposition sees the same
four sectors either way.

A volume kernel K = (sum_t D_t F_t) J_x weights each target row of its
three E-field tables F_t by the receiver's Green row (``em_core``), which
breaks the mirror symmetry of K, but each table keeps it up to the sign of
its parity pi_t: t_xx is even/even, t_xy odd/odd and t_xz odd/even. So the
aperture still splits into the four mirror sectors: each table's stored
quadrant rows folded over the aperture, as a plane kernel's are, give one
stack X_s of 3M/4 rows per aperture sector s (:func:`_table_stacks`), and
K diag(conj phase) P_s = W_s X_s, where W_s is a D_t times the +-1 mirror
expansion of the quadrant for the target parity s + pi_t
(:func:`_table_weights`), one entry per table in each row. With S_s the small triangular factor of X_s
(X_s X_s^H = S_s S_s^H), K K^H = L L^H for L = [W_s S_s]_s, so U and sigma
come from one QR of L^T and an M x M SVD (:func:`_table_spectrum`; Chan's
R-SVD, ACM TOMS 8(1), 1982). The target side stays one sector, which
realizes masks with no fold or unfold, and the stacks are the block that
maps solutions back to the aperture. There is no swap split, as t_xx is not
swap-symmetric.

Only the target-side factors U and sigma of each block are kept. A wide
block B = R^T Q^T (QR of B^T) shares them with its square triangular factor
R^T, so the SVD runs on that factor. A block wide enough for two pieces of
max(4M, ``em_core.BLOCK_ENTRIES`` / M) aperture columns (about 1 MiB a piece), so
at least eight times wider than tall, is factored as a tall-skinny QR over
those pieces (:func:`_spectral_factor`): each piece gives its own triangular
factor, and one more QR of those factors stacked gives R, so no QR copies
the whole block. A narrower block is one piece, its R from one QR of B^T:
a plane sector is about four times wider than tall, and a
``volume-zsweep`` stack (48 x 1,024) narrower than two pieces of 1,365
columns. Every mask b gives per sector
c_s = lambda_s U_s^H fold_s(b) over the retained modes, whose norm ||c|| is
the solution norm ||p||. That is b @ A_s with A_s = conj(unfold_s(w_s U_s))
lambda_s, the retained columns of U_s put onto the grid by a signed row
gather, so the masks are never folded: one ``mask_design.project`` call
forms b @ [A_1 ... A_k] for every mask into the leading columns of an
array, whichever kind of set it is (a designed set never builds its (I, M)
mask stack there). Every norm ||c|| is formed first, and then, a block of
rows at a time (``em_core.block_rows``, as in every row-block pass), c is
mapped (:func:`_map_rows`). The unit-budget mask U diag(sigma) c is
unfolded on the target side into one reused buffer, and every reader of
the complex masks (receiver fields, the export, the summary's misfit)
takes each block in that pass, with each row's budget scale
s = sqrt(N P_I) / ||c||, which makes it the realized mask K p
(:func:`realize_masks`), so they never exist whole and none is scaled
for the readers. A designed
set of M = 2^k points and at least 2M masks has R = 2M distinct rows in
pairs: row i + M is row i with its last point switched off
(``MaskSet.paired``), so c_{i+M} = c_i - v for one row v, and only the
first M rows are staged, by a Hadamard transform of order M, and mapped;
each partner mask is its row's unscaled mask minus the one mapped row of
v. c is staged at the tail of the array whose head then takes what the
set keeps, the magnitudes of a plane set or the masks of a volume set, so
the two never exist side by side.

The coefficient profiles p are unfolded on the aperture side from V_s c_s,
with V_s = B_s^H U_s / sigma_s built per sector from the block the inverse
keeps (for a volume kernel, X_s^H W_s^H U / sigma per aperture sector,
unfolded onto the aperture once), so a profile is never formed through a
dense K^H product. A mask set's profiles come only from its export, one
more reader of the realization pass (:func:`profile_writer`), which maps
each block's c scaled onto the budget, so it stages no c of its own and the
(I, N) profiles never exist whole; :meth:`RegularizedInverse.apply` maps
the unscaled c of its right-hand sides in one product. The blocks are
formed once, at decomposition, from the kernel's stored rows or from the
stream of them as they are assembled (``em_core.KernelStream``), so a
streamed kernel never exists whole, and the inverse holds no reference to
the kernel. Realizing masks reads only U, sigma and lambda, so a caller
that maps no solution back to the aperture drops the blocks
(:meth:`RegularizedInverse.without_blocks`), which are about the kernel's
size.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import em_core
from .em_core import (
    KIND_Y3D,
    KIND_Z2D,
    KernelMatrix,
    KernelStream,
    MirrorSymmetry,
    small_ufunc_buffers,
    text_file_writer,
)
from .errors import DimensionMismatch, KindMismatch, MalformedConfig, SvdFailure, ZeroSolution
from .mask_design import KIND_MASK2D, KIND_MASK3D, MaskSet, mask_file_writer, project

TRUNCATE_SIGMA_SQ = "sigma_sq"  # drop modes with sigma^2 < factor * gamma (default)
TRUNCATE_SIGMA = "sigma"  # drop modes with sigma < factor * gamma (literal reading)

DEFAULT_THRESHOLD_FACTOR = 1e-5

_KERNEL_TO_MASK_KIND = {KIND_Z2D: KIND_MASK2D, KIND_Y3D: KIND_MASK3D}


# Sector order: (x parity, y parity), 0 even and 1 odd.
_PARITIES = ((0, 0), (1, 0), (0, 1), (1, 1))
_HALF = math.sqrt(0.5)
# The aperture fold of every kernel with mirror structure (:func:`_table_stacks`):
# row s, in ``_PARITIES`` order, takes a quadrant sample's images (itself, its
# y-mirror, its x-mirror, both) into sector s, each pair weighted 1/sqrt(2)
# along each axis.
_IMAGE_MAP = 0.5 * np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=np.float64)
# sigma**2 overflows at and above this singular value.
_SIGMA_LIMIT = math.sqrt(sys.float_info.max)

# What :func:`realize_masks` hands each block of realized rows to:
# reader(rows, masks, scales, coefficients), the unit-budget masks and
# coefficients of the rows and each row's budget scale, the blocks not
# always in row order.
Reader = Callable[[slice, np.ndarray, np.ndarray, np.ndarray], None]


@dataclass(frozen=True)
class Sector:
    """One diagonal block of the kernel and its regularized spectrum.

    ``block`` (rows, cols) is the read-only block itself (:func:`_sector_blocks`):
    for a plane kernel a view of one aperture sector's columns of the folded
    stored rows (:func:`_table_stacks`), for a volume kernel those stacks
    whole. It maps solutions back to the aperture side, or is None once the
    inverse has dropped it (:meth:`RegularizedInverse.without_blocks`). ``u`` (rows, K) and
    ``sigma`` (K,) are its left singular vectors and singular values,
    descending; ``inv_sigma`` holds sigma / (sigma^2 + gamma) for retained
    values and exactly zero for truncated ones, which come last since sigma
    descends.
    """

    block: np.ndarray | None
    u: np.ndarray
    sigma: np.ndarray
    inv_sigma: np.ndarray

    @property
    def retained(self) -> int:
        return int(np.count_nonzero(self.inv_sigma))


@dataclass(frozen=True)
class RegularizedInverse:
    """Truncated-SVD Tikhonov pseudo-inverse of a propagation kernel.

    ``kind``, ``symmetry`` and ``shape`` (M, N) are the kernel's; ``sectors``
    follow ``_PARITIES`` order for a plane kernel with mirror structure and
    are one target-side sector otherwise (for a volume kernel, over its four
    aperture sectors); ``retained_rank`` sums their retained modes.
    The kernel itself is not kept, and neither are the right singular
    vectors: each sector's block maps back to the aperture side where a
    solution is needed (:meth:`apply`, :func:`profile_writer` and the
    sector lines of :func:`write_synthesis_summary`). An inverse without its blocks
    (:meth:`without_blocks`) still realizes masks, and those readers raise
    ``ValueError`` on it.
    """

    kind: str
    symmetry: MirrorSymmetry | None
    shape: tuple[int, int]
    sectors: tuple[Sector, ...]
    gamma: float
    threshold_factor: float
    truncation_mode: str
    retained_rank: int

    def without_blocks(self) -> RegularizedInverse:
        """The same inverse without its sector blocks: it realizes masks
        alike, and holds only the target-side factors."""
        return replace(self, sectors=tuple(replace(s, block=None) for s in self.sectors))

    def _blocks(self) -> list[np.ndarray]:
        """Every sector's block; ``ValueError`` if the inverse has dropped them."""
        if any(s.block is None for s in self.sectors):
            raise ValueError(
                "this inverse is without its sector blocks (without_blocks), so it cannot map "
                "solutions back to the aperture; use the inverse tikhonov_inverse returns"
            )
        return [s.block for s in self.sectors]

    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        sigma = np.concatenate([s.sigma for s in self.sectors])
        inv_sigma = np.concatenate([s.inv_sigma for s in self.sectors])
        order = np.argsort(-sigma, kind="stable")
        return sigma[order], inv_sigma[order]

    @property
    def sigma(self) -> np.ndarray:
        """Singular values of every sector, descending."""
        return self._spectrum()[0]

    @property
    def inv_sigma(self) -> np.ndarray:
        """Regularized weights aligned with :attr:`sigma`."""
        return self._spectrum()[1]

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        """Regularized solution V Lambda U^H rhs for one vector or a stack.

        Evaluated sector by sector as V_s c_s with c_s = lambda_s U_s^H rhs_s
        over the retained modes (:func:`_stage_coefficients` of the
        right-hand sides held as a stored mask set, staged in the leading
        columns of the solutions) and V_s = B_s^H U_s / sigma_s,
        unfolded on the aperture side (:func:`aperture_factors`), in one
        product for every right-hand side.
        """
        rhs = np.asarray(rhs, dtype=np.complex128)
        vectors = rhs.reshape(rhs.shape[0], -1).T  # (k, M)
        solution = np.empty((len(vectors), self.shape[1]), dtype=np.complex128)
        staged = MaskSet(kind=_KERNEL_TO_MASK_KIND[self.kind], stored=vectors)
        _stage_coefficients(self, _folded_factors(self), staged, solution)
        right, shape, phase = aperture_factors(self)
        _map_rows(solution[:, : self.retained_rank], right, shape, solution, phase)
        return solution[0] if rhs.ndim == 1 else solution.T


def check_gamma(gamma: float) -> None:
    """Reject a regularization weight that is not a finite number > 0 (an
    infinite one zeroes every regularized weight, so no mask is realizable)."""
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise MalformedConfig(f"gamma must be a finite number > 0, got {gamma!r}")


def check_threshold_factor(threshold_factor: float) -> None:
    """Reject a truncation threshold factor that is not a finite number >= 0
    (an infinite one would truncate every mode)."""
    if not (math.isfinite(threshold_factor) and threshold_factor >= 0.0):
        raise MalformedConfig(f"threshold_factor must be a finite number >= 0, got {threshold_factor!r}")


def _along(axis: int, index: slice) -> tuple:
    """Index tuple applying ``index`` to the trailing ``axis`` (-1 or -2)."""
    return (Ellipsis, index) + (slice(None),) * (-1 - axis)


def _part(n: int, parity: int) -> slice:
    """Where a folded axis of length ``n`` keeps its even (0) or odd (1) part:
    the head, an odd length's centre line last, or the tail read backwards.
    Index i of either part belongs to the mirror pair (i, n-1-i)."""
    h = n // 2
    return slice(0, n - h) if parity == 0 else slice(n - 1, n - h - 1, -1)


def _butterfly(even: np.ndarray, odd: np.ndarray, axis: int, out: np.ndarray) -> None:
    """The unnormalised mirror map along ``axis``, written into ``out``, which
    must not overlap the inputs: even_i + odd_i at i and even_i - odd_i at
    n-1-i for i < n // 2; an odd length's centre line copies the last even
    index. It unfolds the parts of a folded grid (:func:`_sector_unfold`)."""
    h, n = odd.shape[axis], out.shape[axis]
    paired = even[_along(axis, slice(0, h))]
    np.add(paired, odd, out=out[_along(axis, slice(0, h))])
    np.subtract(paired, odd, out=out[_along(axis, _part(n, 1))])
    out[_along(axis, slice(h, n - h))] = even[_along(axis, slice(h, None))]


def _sector_unfold(parts: Iterator[np.ndarray], shape: tuple[int, int] | None, out: np.ndarray) -> None:
    """Unfold the sector arrays (..., rows_s) drawn from ``parts`` in
    ``_PARITIES`` order into ``out`` (..., nx * ny), x fastest: the
    transpose of the folded sectors. Every part is drawn before ``out`` is
    written. Without a grid shape, ``out`` takes the one array of the
    identity sector."""
    if shape is None:
        out[...] = next(parts)
        return
    nx, ny = shape
    lead = out.shape[:-1]

    def y_line(y_rows: int) -> np.ndarray:
        even, odd = next(parts), next(parts)
        line = np.empty(lead + (y_rows, nx), dtype=out.dtype)
        _butterfly(even.reshape(lead + (y_rows, nx - nx // 2)), odd.reshape(lead + (y_rows, nx // 2)), -1, line)
        return line

    _butterfly(y_line(ny - ny // 2), y_line(ny // 2), -2, out.reshape(lead + (ny, nx)))


def _pair_norms(n: int, parity: int) -> np.ndarray:
    """Orthonormalising weight of each line of one axis's even (0) or odd (1)
    part: 1/sqrt(2) per mirror pair, 1 for an odd length's centre line."""
    norms = np.full(n, _HALF)
    norms[n // 2 : n - n // 2] = 1.0
    return norms[_part(n, parity)]


def _sector_norms(shape: tuple[int, int] | None) -> list[np.ndarray | None]:
    """Per-sector row weights w_s that make w_s * fold_s an orthonormal map.

    The split of U^H b is then (w_s * U_s)^H fold_s(b) and its join
    unfold_s(w_s * U_s z), so the weights act on the small factors, never on
    the mask stack. None for the identity sector.
    """
    if shape is None:
        return [None]
    nx, ny = shape
    return [np.outer(_pair_norms(ny, py), _pair_norms(nx, px)).ravel() for px, py in _PARITIES]


def _sector_gathers(shape: tuple[int, int] | None) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """Per sector, the signed row gather that is the transpose of its fold.

    Point m of the grid (x fastest) goes to row ``rows[m]`` of the sector
    with weight ``signs[m]`` (0 where the sector leaves the point out), so a
    sector array z (rows_s, ...) unfolds with the other sectors zero to
    signs[:, None] * z[rows]. Read off :func:`_sector_unfold` of the row
    numbers 1..rows_s. None for the identity sector.
    """
    if shape is None:
        return [None]
    sizes = [len(norms) for norms in _sector_norms(shape)]
    gathers = []
    for s in range(len(sizes)):
        parts = (np.arange(1.0, n + 1) if k == s else np.zeros(n) for k, n in enumerate(sizes))
        numbered = np.empty(sum(sizes))  # +-(row + 1), or 0
        _sector_unfold(parts, shape, numbered)
        gathers.append((np.maximum(np.abs(numbered).astype(np.intp) - 1, 0), np.sign(numbered)))
    return gathers


def _target_shape(inv: RegularizedInverse) -> tuple[int, int] | None:
    """The target grid a plane inverse's sectors fold; None for one target-side sector."""
    symmetry = inv.symmetry
    return symmetry.target_shape if symmetry is not None and symmetry.weights is None else None


class _Factor(NamedTuple):
    """One sector's retained target-side factors."""

    u: np.ndarray  # (rows, r) retained columns of U with the fold weights w_s applied
    sigma: np.ndarray  # (r,) retained singular values
    inv_sigma: np.ndarray  # (r,) their regularized weights lambda_s


def _folded_factors(inv: RegularizedInverse) -> list[_Factor]:
    """Per sector, the retained columns of U with the fold weights applied."""
    factors = []
    for sector, norms in zip(inv.sectors, _sector_norms(_target_shape(inv))):
        r = sector.retained
        u = sector.u[:, :r] if norms is None else norms[:, None] * sector.u[:, :r]
        factors.append(_Factor(u, sector.sigma[:r], sector.inv_sigma[:r]))
    return factors


def _sector_blocks(kernel: KernelMatrix | KernelStream) -> list[np.ndarray]:
    """The kernel's diagonal blocks, in ``_PARITIES`` order.

    Block s is Q_s^T K diag(conj phase) P_s for the sector's orthonormal
    target and aperture bases Q_s and P_s; the phase factor drops out of the
    left singular vectors and values, and what is left of J_x is its real
    amplitude a (``MirrorSymmetry.amplitude``, of either sign), so block s
    is a Q_s^T F P_s. Since F is mirror-invariant, the target-side fold of a
    row reduces to the weight 1 / w_s on its quadrant row, so block s is
    a / w_s times the quadrant rows of the sector folded over the aperture:
    the rows of aperture sector s in the stored rows' stacks
    (:func:`_table_stacks`), scaled in place, so every block is a view of
    one array. An odd target's x-odd sectors leave each line's centre pixel
    out, so their rows are first moved up line by line within their own
    columns. A volume kernel's one block is its stacks. Every block is
    read-only; the identity sector's is the kernel's entries, or a view of
    them when the caller's entries are writable.
    """
    symmetry = kernel.symmetry
    if symmetry is None:  # a hand-built kernel: every stream carries its mirror structure
        entries = kernel.entries
        block = entries.view() if entries.flags.writeable else entries
        block.setflags(write=False)
        return [block]
    stacks = _table_stacks(kernel)
    if symmetry.weights is not None:
        stacks.setflags(write=False)
        return [stacks]
    (nx, ny), (ex, ey) = symmetry.target_shape, symmetry.quadrant_shape
    hx = nx // 2
    blocks = []
    for (px, py), norms, (lo, hi) in zip(_PARITIES, _sector_norms((nx, ny)), _sector_bounds(symmetry.aperture_shape)):
        band = stacks[:, lo:hi]
        if px and hx < ex:  # an odd line's centre pixel has no x-odd part
            for iy in range(1, (ey, ny - ey)[py]):
                band[iy * hx : (iy + 1) * hx] = band[iy * ex : iy * ex + hx]
        block = band[: len(norms)]
        block *= (symmetry.amplitude / norms)[:, None]
        blocks.append(block)
    for block in (stacks, *blocks):
        block.setflags(write=False)
    return blocks


def _aperture_sectors(shape: tuple[int, int]) -> list[tuple[int, int]]:
    """The (x, y) extent of each aperture sector's folded grid, in
    ``_PARITIES`` order: each axis's even part, centre line included, or its
    odd part."""
    ax, ay = shape
    return [((ax - ax // 2, ax // 2)[px], (ay - ay // 2, ay // 2)[py]) for px, py in _PARITIES]


def _sector_bounds(shape: tuple[int, int]) -> list[tuple[int, int]]:
    """The columns of each aperture sector in the folded stored rows (:func:`_table_stacks`)."""
    ends = np.cumsum([0] + [x * y for x, y in _aperture_sectors(shape)])
    return list(zip(ends[:-1].tolist(), ends[1:].tolist()))


def _table_stacks(kernel: KernelMatrix | KernelStream) -> np.ndarray:
    """The kernel's stored rows folded over the aperture: the stacks X_s.

    Row j of the (rows, N) result is stored row j (``KernelMatrix.stored``)
    in the orthonormal mirror basis P of the aperture, the columns of each
    aperture sector s together in ``_PARITIES`` order (:func:`_sector_bounds`),
    each sector's grid folded as :func:`_part` lays it out. Each block of
    rows is folded as it arrives: the four mirror images of every quadrant
    aperture sample are gathered into one contiguous array, and one real
    product with the weighted 4 x 4 map :data:`_IMAGE_MAP` takes the sums
    and differences of all four at once, so no strided or reversed view of
    a row is read. An even aperture's four sectors are each a quadrant, so
    the product is written straight into the stacks; an odd one's odd parts
    leave the centre lines out, so the product goes through a second buffer.
    The rows are folded in steps of ``em_core.block_rows`` over the stacks,
    counting both buffers of an odd aperture's rows, and never more rows
    than the quadrant has. Raises
    :class:`DimensionMismatch` unless there are as many rows as the mirror
    quadrant has, and counts those beyond it without folding them.
    """
    symmetry = kernel.symmetry
    (ax, ay), n = symmetry.aperture_shape, kernel.shape[1]
    shapes = _aperture_sectors((ax, ay))
    ex, ey = shapes[0]
    # each quadrant sample, its y-mirror, its x-mirror and both
    xs, ys = (np.arange(ex), ax - 1 - np.arange(ex)), (np.arange(ey), ay - 1 - np.arange(ey))
    images = np.stack([(y[:, None] * ax + x).ravel() for x in xs for y in ys])
    total = symmetry.stored_rows
    stacks = np.empty((total, n), dtype=np.complex128)
    sectors = [stacks[:, lo:hi].reshape(total, y, x) for (lo, hi), (x, y) in zip(_sector_bounds((ax, ay)), shapes)]
    direct = ax % 2 == 0 and ay % 2 == 0
    step = min(total, em_core.block_rows(n if direct else 2 * n, total * n))
    gathered = np.empty((step, 4, ey * ex), dtype=np.complex128)
    folded = None if direct else np.empty_like(gathered)
    filled = 0
    for block in kernel.blocks if isinstance(kernel, KernelStream) else (kernel.stored,):
        for start in range(0, min(len(block), total - filled), step):
            part = block[start : min(start + step, total - filled)]
            rows = slice(filled + start, filled + start + len(part))
            images_of = gathered[: len(part)]
            part.take(images, axis=1, out=images_of, mode="clip")  # valid indices: no staging copy
            # an odd length's centre line is its own mirror image: its sum of two
            # takes 1/2 where a pair's takes 1/sqrt(2)
            lines = images_of.reshape(len(part), 4, ey, ex)
            if ax % 2:
                lines[..., ex - 1] *= _HALF
            if ay % 2:
                lines[..., ey - 1, :] *= _HALF
            out = stacks[rows] if direct else folded[: len(part)]
            np.matmul(_IMAGE_MAP, images_of.view(np.float64), out=out.view(np.float64).reshape(len(part), 4, -1))
            if not direct:
                for sector, (x, y), parts in zip(sectors, shapes, out.reshape(len(part), 4, ey, ex).swapaxes(0, 1)):
                    sector[rows] = parts[:, :y, :x]
        filled += len(block)
    if filled != total:
        raise DimensionMismatch(f"{filled} stored kernel rows for the {total} rows of the mirror quadrant")
    return stacks


def _table_weights(symmetry: MirrorSymmetry) -> tuple[list[np.ndarray], list[list[np.ndarray]]]:
    """The sparse factor W_s with K diag(conj phase) P_s = W_s X_s of a volume
    kernel, per aperture sector s.

    Row m of F_t P_s is the stack row (:func:`_table_stacks`) of m's mirror
    image in the quadrant of table t, times +-1: a mirror that takes the
    quadrant point to m gives -1 where the target parity s + parity(t) is
    odd. So W_s has one entry per table in each row: returns ``rows[t]``,
    the stack row of each target point for table t, and ``weights[s][t]``,
    the entry, the sign times a * D_t (``MirrorSymmetry.weights``).
    """
    (nx, ny), (ex, ey), tables = symmetry.target_shape, symmetry.quadrant_shape, symmetry.tables
    iz, iy, ix = np.indices((symmetry.depth, ny, nx)).reshape(3, -1)
    qx, qy = np.minimum(ix, nx - 1 - ix), np.minimum(iy, ny - 1 - iy)
    mirrored_x, mirrored_y = ix >= ex, iy >= ey
    rows = [((iz * len(tables) + t) * ey + qy) * ex + qx for t in range(len(tables))]
    scaled = symmetry.amplitude * symmetry.weights
    weights = []
    for px, py in _PARITIES:
        flips = [(mirrored_x & bool(px ^ tx)) ^ (mirrored_y & bool(py ^ ty)) for tx, ty in tables]
        weights.append([np.where(flip, -w, w) for flip, w in zip(flips, scaled)])
    return rows, weights


def _table_spectrum(symmetry: MirrorSymmetry, stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values, descending, of a volume kernel.

    K K^H = sum_s (W_s X_s)(W_s X_s)^H over the aperture sectors
    (:func:`_table_weights`), and X_s X_s^H = S_s S_s^H with S_s the small
    triangular factor of the stack (:func:`_spectral_factor`), so
    K K^H = L L^H with L = [W_s S_s]_s, at most M x 3M, whose SVD gives U and
    sigma. W_s S_s is gathered row by row, never formed through a dense W_s.
    """
    rows, weights = _table_weights(symmetry)
    parts = []
    for (lo, hi), sector in zip(_sector_bounds(symmetry.aperture_shape), weights):
        factor = _spectral_factor(stacks[:, lo:hi])
        part = factor[rows[0]]
        part *= sector[0][:, None]
        for row, weight in zip(rows[1:], sector[1:]):
            part += weight[:, None] * factor[row]
        parts.append(part)
    return _left_svd(np.concatenate(parts, axis=1))


def _spectral_factor(entries: np.ndarray) -> np.ndarray:
    """A matrix with the block's left singular vectors and singular values.

    For a wide M x N block that is the M x M factor R^T of B^T = Q R
    (B B^H = R^T conj(R), as Q^H Q = I), so the SVD never touches an N-long
    dimension; otherwise the block itself. The QR runs on B^T in pieces of
    at least max(4M, ``em_core.BLOCK_ENTRIES`` / M) of its rows (``np.linspace``
    bounds), a tall-skinny QR (Demmel, Grigori, Hoemmen & Langou, SIAM J.
    Sci. Comput. 34(1), 2012): each piece gives its M x M triangular factor
    R_i, and the QR of the R_i stacked gives R, since B^T = diag(Q_i)
    [R_1; R_2; ...]. So each copy the QR makes of its input is one piece,
    about 1 MiB, never the whole block. The piece width decides the bits of
    sigma, not only memory, so it reads the constant rather than
    ``em_core.block_rows``. A block narrower than two pieces is
    one piece, its R from one QR of B^T, as a plane sector's is. ``entries.T``
    is a view, so no conjugated copy of the block is made.
    """
    m, n = entries.shape
    if m >= n:
        return entries
    pieces = max(1, n // max(4 * m, em_core.BLOCK_ENTRIES // max(m, 1)))
    bounds = np.linspace(0, n, pieces + 1).astype(int)
    factors = [np.linalg.qr(entries[:, a:b].T, mode="r") for a, b in zip(bounds[:-1], bounds[1:])]
    return (factors[0] if pieces == 1 else np.linalg.qr(np.concatenate(factors), mode="r")).T


def _left_svd(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values, descending, of one block."""
    try:
        u, sigma, _ = np.linalg.svd(_spectral_factor(block), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge on a {block.shape} kernel block") from exc
    return u, sigma


def _swap_pairs(side: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices iy * side + ix of a side x side quadrant under the swap ix <-> iy.

    Returns the diagonal, then per swapped pair its point with ix < iy and
    its partner, in the same order.
    """
    iy, ix = np.tril_indices(side, -1)
    return np.arange(side) * (side + 1), iy * side + ix, ix * side + iy


def _swap_split(block: np.ndarray, side: int, cols_side: int) -> tuple[np.ndarray, np.ndarray]:
    """Swap-symmetric and antisymmetric parts of a swap-invariant sector block.

    The block's rows and columns are square quadrants of ``side`` and
    ``cols_side`` points a side (:func:`_swap_pairs`). In the orthonormal
    basis where a swapped pair (p, q) gives (e_p +- e_q) / sqrt(2) and a
    diagonal point e_p joins the symmetric part with weight 1, the block is
    diagonal with these two parts. As the block is unchanged when the swap
    acts on both sides, each part reads only the diagonal rows and the rows
    of one point per pair, weighted by sqrt(2).
    """
    rows_diag, rows_low, _ = _swap_pairs(side)
    diag, low, up = _swap_pairs(cols_side)
    rows = block[np.concatenate([rows_diag, rows_low])]
    sym = np.empty((len(rows), cols_side + len(low)), dtype=block.dtype)
    sym[:, :cols_side] = rows[:, diag]
    np.add(rows[:, low], rows[:, up], out=sym[:, cols_side:])
    sym[:side, cols_side:] *= _HALF
    sym[side:, :cols_side] *= math.sqrt(2.0)
    pairs = rows[side:]
    return sym, pairs[:, low] - pairs[:, up]


def _swap_sector(block: np.ndarray, side: int, cols_side: int) -> tuple[np.ndarray, np.ndarray]:
    """U and sigma of a swap-invariant sector block from the SVDs of its two parts.

    Each part's U is put back in the sector's own row basis (:func:`_swap_split`
    read backwards), and the columns are sorted by sigma, descending and stably.
    """
    (u_sym, s_sym), (u_anti, s_anti) = (_left_svd(part) for part in _swap_split(block, side, cols_side))
    diag, low, up = _swap_pairs(side)
    k = s_sym.size
    u = np.zeros((side * side, k + s_anti.size), dtype=np.result_type(u_sym, u_anti))
    u[diag, :k] = u_sym[:side]
    u[low, :k] = u[up, :k] = _HALF * u_sym[side:]
    u[low, k:] = _HALF * u_anti
    u[up, k:] = -u[low, k:]
    sigma = np.concatenate([s_sym, s_anti])
    order = np.argsort(-sigma, kind="stable")
    return u[:, order], sigma[order]


def _sector_spectra(kernel: KernelMatrix | KernelStream, blocks: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Left singular vectors and singular values, descending, of each of the
    kernel's ``blocks`` (:func:`_sector_blocks`).

    A volume kernel's one block, its stacks, goes through
    :func:`_table_spectrum`. Under the swap, the even-even and odd-odd
    blocks split into their symmetric and antisymmetric parts
    (:func:`_swap_sector`), and the swap carries the (x-odd, y-even) block
    onto the (x-even, y-odd) one with the row and column quadrants
    transposed: that sector takes the same sigma and the same U with its
    rows transposed.
    """
    symmetry = kernel.symmetry
    if symmetry is not None and symmetry.weights is not None:
        return [_table_spectrum(symmetry, blocks[0])]
    if symmetry is None or not symmetry.swap:
        return [_left_svd(block) for block in blocks]
    n, n_cols = symmetry.target_shape[0], symmetry.aperture_shape[0]
    even, odd = n - n // 2, n // 2
    ee = _swap_sector(blocks[0], even, n_cols - n_cols // 2)
    u_oe, sigma_oe = _left_svd(blocks[1])
    rank = sigma_oe.size
    u_eo = u_oe.reshape(even, odd, rank).transpose(1, 0, 2).reshape(odd * even, rank)
    oo = _swap_sector(blocks[3], odd, n_cols // 2)
    return [ee, (u_oe, sigma_oe), (u_eo, sigma_oe), oo]


def tikhonov_inverse(
    kernel: KernelMatrix | KernelStream,
    gamma: float,
    threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
    truncation_mode: str = TRUNCATE_SIGMA_SQ,
) -> RegularizedInverse:
    """Decompose each sector block (:func:`_sector_spectra`) and build the
    regularized inverse spectrum. The inverse keeps the blocks, not ``kernel``,
    which may be a stream of its stored rows (:class:`em_core.KernelStream`):
    the blocks are then formed as the rows are assembled, and the stream is
    drawn to its end.

    Modes whose singular value falls below the truncation threshold are zeroed
    outright; raising ``threshold_factor`` can only shrink the retained rank.
    Raises :class:`MalformedConfig` for a ``gamma`` (:func:`check_gamma`), a
    ``threshold_factor`` (:func:`check_threshold_factor`) or a
    ``truncation_mode`` out of range, and :class:`SvdFailure` for a singular
    value whose square overflows (a kernel scaled up by ``incident_amplitude``).
    """
    check_gamma(gamma)
    check_threshold_factor(threshold_factor)
    if truncation_mode not in (TRUNCATE_SIGMA_SQ, TRUNCATE_SIGMA):
        raise MalformedConfig(f"unknown truncation mode {truncation_mode!r}")
    sectors = []
    blocks = _sector_blocks(kernel)
    for block, (u, sigma) in zip(blocks, _sector_spectra(kernel, blocks)):
        largest = float(sigma.max(initial=0.0))
        if largest >= _SIGMA_LIMIT:
            raise SvdFailure(
                f"kernel singular value {largest!r} is too large to square: the kernel "
                f"scale (incident_amplitude) must keep every singular value below {_SIGMA_LIMIT!r}"
            )
        if truncation_mode == TRUNCATE_SIGMA_SQ:
            keep = sigma**2 >= threshold_factor * gamma
        else:
            keep = sigma >= threshold_factor * gamma
        inv_sigma = np.where(keep, sigma / (sigma**2 + gamma), 0.0)
        inv_sigma.setflags(write=False)
        sectors.append(Sector(block=block, u=u, sigma=sigma, inv_sigma=inv_sigma))
    return RegularizedInverse(
        kind=kernel.kind,
        symmetry=kernel.symmetry,
        shape=kernel.shape,
        sectors=tuple(sectors),
        gamma=gamma,
        threshold_factor=threshold_factor,
        truncation_mode=truncation_mode,
        retained_rank=sum(s.retained for s in sectors),
    )


def _stage_coefficients(
    inv: RegularizedInverse, factors: list[_Factor], masks: MaskSet, out: np.ndarray
) -> np.ndarray | None:
    """Stage the coefficients c of every distinct mask (``MaskSet.distinct_rows``)
    in the leading sum r_s columns of the first rows of ``out``.

    Per sector c_s = lambda_s (w_s U_s)^H fold_s(b) = b @ A_s over the
    retained modes, with A_s = conj(w_s U_s) lambda_s gathered onto the grid
    (:func:`_sector_gathers`); one ``mask_design.project`` call fills the
    columns sector after sector. The A_s are formed one at a time as
    ``project`` draws them, so only one is alive at once. A set whose rows pair
    (``MaskSet.paired``) has only its first R/2 rows staged
    (:func:`_staged_rows`), and the row v with c_{i+R/2} = c_i - v is
    returned; None for any other set. Raises :class:`DimensionMismatch`
    unless the masks have length M.
    """
    m = inv.shape[0]
    if masks.points != m:
        raise DimensionMismatch(f"vectors of length {masks.points} do not match M={m}")

    def gathered() -> Iterator[np.ndarray]:
        for factor, gather in zip(factors, _sector_gathers(_target_shape(inv))):
            if factor.sigma.size == 0:  # a sector may have no rows to gather from
                continue
            weighted = factor.u.conj()
            weighted *= factor.inv_sigma
            if gather is not None:
                rows, signs = gather
                weighted = weighted[rows]
                weighted *= signs[:, None]
            yield weighted

    return project(masks, gathered(), out)


def _staged_rows(masks: MaskSet) -> int:
    """The rows of c that :func:`_stage_coefficients` stages: the R distinct
    rows, or R/2 of a set whose rows pair."""
    return masks.distinct_rows // 2 if masks.paired else masks.distinct_rows


def _pair_blocks(
    staged: np.ndarray, partner: np.ndarray | None, step: int
) -> Iterator[list[tuple[slice, np.ndarray]]]:
    """The staged coefficients c in blocks of ``step`` rows, each with its partner rows.

    Yields [(rows, c)], c a view of ``staged``, and for a set whose rows pair
    (``partner`` the row v of :func:`_stage_coefficients`) also
    (rows + h, c - v), h = len(staged), formed in one reused buffer that is
    valid until the next block. The partner rows are formed before the
    block is yielded, so its consumer may overwrite c.
    """
    half = len(staged)
    buffer = None if partner is None else np.empty((min(step, half), staged.shape[1]), dtype=np.complex128)
    for start in range(0, half, step):
        c = staged[start : start + step]
        rows = slice(start, start + len(c))
        if buffer is None:
            yield [(rows, c)]
            continue
        pair = buffer[: len(c)]
        np.subtract(c, partner, out=pair)
        yield [(rows, c), (slice(rows.start + half, rows.stop + half), pair)]


def _budget_scales(
    staged: np.ndarray, partner: np.ndarray | None, step: int, budget: float
) -> tuple[np.ndarray, np.ndarray]:
    """The norm ||c|| of every row of :func:`_pair_blocks`, all R of them
    indexed by row, and budget / ||c||; a zero ||c|| raises
    :class:`ZeroSolution`, naming the lowest such row."""
    norms = np.empty(len(staged) * (1 if partner is None else 2))
    for parts in _pair_blocks(staged, partner, step):
        for rows, c in parts:
            values = c.view(np.float64)
            norms[rows] = np.sqrt(np.einsum("ik,ik->i", values, values))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        mask = int(zero[0])
        raise ZeroSolution(f"mask {mask} lies outside the retained kernel range", mask)
    return norms, budget / norms


def _map_rows(
    c: np.ndarray, right: list[np.ndarray], shape: tuple[int, int] | None, out: np.ndarray, phase=None
) -> None:
    """Write unfold(sum_s c_s right_s) of the coefficient rows ``c`` into ``out``.

    ``right`` holds one (r_s, width_s) matrix per sector and ``shape`` is
    the grid the sectors unfold onto; with a ``phase``, the unfolded rows
    are multiplied by it. Every product is formed before ``out`` is written,
    so ``out`` may hold ``c`` itself.
    """
    bounds = np.cumsum([0] + [len(r) for r in right])
    _sector_unfold((c[:, lo:hi] @ r for lo, hi, r in zip(bounds, bounds[1:], right)), shape, out)
    if phase is not None:
        out *= phase


def aperture_factors(
    inv: RegularizedInverse,
) -> tuple[list[np.ndarray], tuple[int, int] | None, np.ndarray | None]:
    """What :func:`_map_rows` needs to map coefficients c onto solutions: per
    sector the transpose of W_s = a_s * B_s^H U_s[:, :r_s] / sigma_s,
    (r_s, cols), the aperture grid they unfold onto and the conjugate J_x
    phase (None for the identity sector).

    W_s is the sector's retained V_s with the aperture fold weights a_s
    applied, so unfold_s(W_s c_s) is the sector's share of V Sigma^-1 c
    before the J_x phase. For the identity sector it is K^H U / sigma,
    formed without a conjugated copy of K.
    """
    symmetry = inv.symmetry
    shape = symmetry.aperture_shape if symmetry is not None else None
    if symmetry is not None and symmetry.weights is not None:
        return [_table_factor(inv)], None, symmetry.phase.conj()
    factors = []
    for sector, block, norms in zip(inv.sectors, inv._blocks(), _sector_norms(shape)):
        r = sector.retained
        w_t = (sector.u[:, :r] / sector.sigma[:r]).conj().T @ block
        np.conjugate(w_t, out=w_t)
        if norms is not None:
            w_t *= norms
        factors.append(w_t)
    return factors, shape, symmetry.phase.conj() if symmetry is not None else None


def _table_factor(inv: RegularizedInverse) -> np.ndarray:
    """The one factor of :func:`aperture_factors` for a volume inverse: the
    transpose of K^H U[:, :r] / sigma before the J_x phase, (r, N) on the
    aperture grid. Per aperture sector s that is X_s^H (W_s^H U / sigma)
    times the aperture fold weights, the target-side factor W_s
    (:func:`_table_weights`) summed into the stack rows first, so no (M, N)
    product is formed; the sectors are unfolded onto the grid once, here,
    so a coefficient row maps onto its solution in one product."""
    (sector,) = inv.sectors
    stacks = inv._blocks()[0]
    r = sector.retained
    scaled = sector.u[:, :r] / sector.sigma[:r]
    rows, weights = _table_weights(inv.symmetry)
    shape = inv.symmetry.aperture_shape

    def parts() -> Iterator[np.ndarray]:
        for (lo, hi), sector_weights, norms in zip(_sector_bounds(shape), weights, _sector_norms(shape)):
            left = np.zeros((len(stacks), r), dtype=np.complex128)  # W_s^H U / sigma
            for row, weight in zip(rows, sector_weights):
                np.add.at(left, row, weight.conj()[:, None] * scaled)
            w_t = left.conj().T @ stacks[:, lo:hi]
            np.conjugate(w_t, out=w_t)
            w_t *= norms
            yield w_t

    factor = np.empty((r, stacks.shape[1]), dtype=np.complex128)
    _sector_unfold(parts(), shape, factor)
    return factor


def realize_masks(
    inv: RegularizedInverse,
    masks: MaskSet,
    amplification: float,
    readers: Iterable[Reader] = (),
) -> MaskSet:
    """The masks that power-normalised synthesized profiles produce, for
    the R distinct rows of ``masks`` (``MaskSet.distinct_rows``): the new
    set stores R rows and repeats them as ``masks`` does.

    With the coefficients c of :func:`_stage_coefficients`, the solution
    norm is ||c||, the budget scale s = sqrt(N * P_I) / ||c||, and the
    realized mask is s times the unit-budget mask P, the unfolded
    U diag(sigma) c. Every norm is formed before any row is mapped, so a
    zero one raises :class:`ZeroSolution` naming the lowest such row before
    any reader runs. Then, a block of rows at a time, c is mapped
    (:func:`_map_rows`) into one reused buffer, and the block goes to each
    of ``readers`` as ``reader(rows, masks, scales, coefficients)``: the
    slice it covers, its unit-budget masks P, their scales s and their
    unscaled c, valid until the reader returns, so a reader applies s to
    what it keeps and nothing is scaled for the readers; a set's complex
    masks never exist whole.

    A set whose rows pair (``MaskSet.paired``) stages and maps only its
    first h = R/2 rows: partner row i + h has c_i - v, so its unit-budget
    mask is P_i - q, with P_i that of row i and q = unfold(v U diag(sigma))
    mapped once, and only the sector products of h rows and their unfold
    are formed. Each block of rows goes to the readers, then its partner
    rows, with their own ``rows`` slice: readers must place rows by that
    slice, not by arrival order.

    One array holds c and what the set keeps: c is staged at its tail, and
    the kept rows, P s of a volume set or the magnitudes |P s| of a plane
    set (``MaskSet.magnitudes_only``), those of the exported masks, are
    written from its head once the block's readers are done, where they
    overlap only rows of c already read; a plane block is scaled as real
    and imaginary parts in its buffer first. A plane set keeps
    w = ceil(M / 2) complex entries a row, so the array is (R - h) w +
    h max(sum r_s, w) complex entries, h the staged rows, not c beside the
    magnitudes. Returns the new set.
    """
    if _KERNEL_TO_MASK_KIND.get(inv.kind) != masks.kind:
        raise KindMismatch(f"kernel kind {inv.kind!r} cannot realize {masks.kind!r} masks")
    n_targets, n_samples = inv.shape
    count, half, rank = masks.distinct_rows, _staged_rows(masks), inv.retained_rank
    keeps_values = masks.kind == KIND_MASK3D
    width = n_targets if keeps_values else -(-n_targets // 2)
    held = np.empty((count - half) * width + half * max(rank, width), dtype=np.complex128)
    staged = held[len(held) - half * rank :].reshape(half, rank)
    stored = (held if keeps_values else held.view(np.float64))[: count * n_targets].reshape(count, n_targets)
    factors = _folded_factors(inv)
    partner = _stage_coefficients(inv, factors, masks, staged)
    right = [(f.u * f.sigma).T for f in factors]
    del factors
    shape = _target_shape(inv)
    step = em_core.block_rows(n_targets, count * n_targets)
    norms, scales = _budget_scales(staged, partner, step, np.sqrt(n_samples * amplification))
    buffers = np.empty((1 if partner is None else 2, min(step, half), n_targets), dtype=np.complex128)
    if partner is not None:
        partner_mask = np.empty((1, n_targets), dtype=np.complex128)
        _map_rows(partner[None], right, shape, partner_mask)
    for parts in _pair_blocks(staged, partner, step):
        lower = parts[0][1]
        blocks = buffers[:, : len(lower)]
        with small_ufunc_buffers():
            _map_rows(lower, right, shape, blocks[0])
            if partner is not None:
                np.subtract(blocks[0], partner_mask, out=blocks[1])
        for (rows, c), block in zip(parts, blocks):
            for reader in readers:
                reader(rows, block, scales[rows], c)
            # only now: these rows of the head overlap rows of c, but none not yet read
            with small_ufunc_buffers():
                if keeps_values:
                    np.multiply(block, scales[rows, None], out=stored[rows])
                else:  # |P s| of the exported P s; the readers are done with the block
                    reals = block.view(np.float64)
                    reals *= scales[rows, None]
                    np.abs(block, out=stored[rows])
    stored.setflags(write=False)
    repeats = masks.count // count
    norms = np.tile(norms, repeats)
    return replace(masks, stored=stored, design=None, phase=None, solution_norms=norms, repeats=repeats)


class RealizedMisfit:
    """``values[i]`` = ||P_i - ideal_i|| / ||ideal_i||, how far each
    unit-budget realized mask P_i misses its ``ideal`` one, taken by
    :meth:`add` as a reader of :func:`realize_masks`: one value per
    distinct row of ``ideal``."""

    def __init__(self, ideal: MaskSet):
        self.ideal = ideal
        self.values = np.empty(ideal.distinct_rows)

    def add(self, rows: slice, masks: np.ndarray, *_) -> None:
        """Take the unit-budget realized ``masks`` of ``rows``."""
        ideal_rows = self.ideal.block(rows)
        self.values[rows] = np.linalg.norm(masks - ideal_rows, axis=1) / np.linalg.norm(ideal_rows, axis=1)


@contextmanager
def profile_writer(
    path: str | Path,
    inv: RegularizedInverse,
    count: int,
    fingerprint: str,
    period: int | None = None,
    factors: tuple | None = None,
) -> Iterator[Reader]:
    """A reader of :func:`realize_masks` that exports the ``count`` profiles
    of its pass, in the binary layout of mask exports. With a ``period``,
    the pass realizes that many distinct rows, which the file repeats
    (:func:`mask_design.mask_file_writer`).

    Each block's coefficients c are scaled onto the power budget in a small
    buffer and mapped onto the aperture through ``factors``, those of
    :func:`aperture_factors`, formed here unless given, so the writers of
    one pass can share them. The rows are scaled, mapped and written at
    their own row offset, whatever order the blocks come in, in pieces of
    ``em_core.block_rows`` over the profile rows of one period, counted
    from each block's first row, so a pass writes the same bytes in any
    block order.
    The (I, N) profiles never exist whole, and c is not staged again. The
    file replaces ``path`` when the context ends; a pass that fails leaves
    any earlier file in place (:func:`mask_design.mask_file_writer`).
    """
    right, shape, phase = aperture_factors(inv) if factors is None else factors
    n = inv.shape[1]
    step = em_core.block_rows(n, (period or count) * n)
    rows_held = min(step, period or count)
    profiles = np.empty((rows_held, n), dtype=np.complex128)
    scaled = np.empty((rows_held, inv.retained_rank), dtype=np.complex128)
    with mask_file_writer(path, "profiles", (count, n), fingerprint, period) as write:

        def add(rows: slice, _masks: np.ndarray, scales: np.ndarray, c: np.ndarray) -> None:
            for start in range(0, len(c), step):
                part = c[start : start + step]
                with small_ufunc_buffers():
                    budget = np.multiply(part, scales[start : start + step, None], out=scaled[: len(part)])
                piece = profiles[: len(part)]
                _map_rows(budget, right, shape, piece, phase)
                write(piece, rows.start + start)

        yield add


def save_profiles(
    path: str | Path,
    inv: RegularizedInverse,
    masks: MaskSet,
    amplification: float,
    fingerprint: str,
) -> None:
    """Export the power-normalised coefficient profiles (I, N) that realize
    the ideal ``masks``: every row has ||p||^2 = N * amplification, and
    K p is the realized mask, s P of the unit-budget mask P and the scale s
    that :func:`realize_masks` hands to its readers. One realization pass
    whose one reader is :func:`profile_writer`, so the profiles never exist
    whole; a set that repeats its distinct rows has their profiles
    repeated. A failing pass leaves any earlier file in place.
    """
    with profile_writer(path, inv, masks.count, fingerprint, masks.distinct_rows) as add:
        realize_masks(inv, masks, amplification, [add])


def write_synthesis_summary(
    path: str | Path, inv: RegularizedInverse, realized: MaskSet, rel_err: np.ndarray
) -> None:
    """Human-readable record: retained rank, gamma, singular-value range, mask
    fidelity, the size and retained rank of each sector block, and per-mask
    solution norms.

    ``realized_rel_err_mean`` and ``_max`` summarise ``rel_err``, the
    misfits taken in the realization pass (:class:`RealizedMisfit`), so the
    summary reads no mask; the misfits of a set's distinct rows stand for
    every row that repeats them.
    """
    rel_err = np.tile(rel_err, realized.count // len(rel_err))
    sigma, inv_sigma = inv.sigma, inv.inv_sigma
    retained = sigma[inv_sigma > 0.0]
    lines = [
        f"retained_rank = {inv.retained_rank}",
        f"gamma = {inv.gamma!r}",
        f"threshold_factor = {inv.threshold_factor!r}",
        f"truncation_mode = {inv.truncation_mode}",
        f"sigma_max = {float(sigma[0])!r}",
        f"sigma_min_retained = {float(retained.min()) if retained.size else 0.0!r}",
        f"realized_rel_err_mean = {float(rel_err.mean())!r}",
        f"realized_rel_err_max = {float(rel_err.max())!r}",
    ]
    lines.extend(
        f"sector[{k}] = {s.u.shape[0]}x{block.shape[1]} retained={s.retained}"
        for k, (s, block) in enumerate(zip(inv.sectors, inv._blocks()))
    )
    # Python floats, whose repr is a bare number under every numpy version
    lines.extend(f"solution_norm[{i}] = {norm!r}" for i, norm in enumerate(realized.solution_norms.tolist()))
    with text_file_writer(path) as fh:
        fh.write("\n".join(lines) + "\n")
