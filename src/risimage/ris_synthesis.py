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
adapted block diagonalisation). Each sector block is a weighted view of one
quarter of the target rows folded over the aperture, so the full kernel is
never folded. Any other kernel, volume kernels included, is one identity
sector holding K itself and goes through the same code.

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

Only the target-side factors U and sigma of each block are kept. A wide
block B = R^T Q^T (QR of B^T) shares them with its square triangular factor
R^T, so the SVD runs on that factor. Every mask b gives per sector
c_s = lambda_s U_s^H fold_s(b) over the retained modes, whose norm ||c|| is
the solution norm ||p||. That is b @ A_s with A_s = conj(unfold_s(w_s U_s))
lambda_s, the retained columns of U_s put onto the grid by a signed row
gather, so the masks are never folded: one ``mask_design.project`` call
forms b @ [A_1 ... A_k] for every mask into the leading columns of the
output, whichever kind of set it is (a designed set never builds its (I, M)
mask stack there). Each block of rows then takes its norms ||c|| and
overwrites its coefficients with its result. The realized mask
K p = U diag(sigma) c is unfolded on the target side. The coefficient
profiles p, formed only by :meth:`apply` and when profiles are exported, are
unfolded on the aperture side from V_s c_s, with V_s = B_s^H U_s / sigma_s
built per sector from the kernel at that moment, so a profile is never
formed through a dense K^H product.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .em_core import KIND_Y3D, KIND_Z2D, KernelMatrix, write_complex_file
from .errors import DimensionMismatch, KindMismatch, MalformedConfig, SvdFailure, ZeroSolution
from .mask_design import KIND_MASK2D, KIND_MASK3D, MaskSet, project

TRUNCATE_SIGMA_SQ = "sigma_sq"  # drop modes with sigma^2 < factor * gamma (default)
TRUNCATE_SIGMA = "sigma"  # drop modes with sigma < factor * gamma (literal reading)

DEFAULT_THRESHOLD_FACTOR = 1e-5

_KERNEL_TO_MASK_KIND = {KIND_Z2D: KIND_MASK2D, KIND_Y3D: KIND_MASK3D}


# Sector order: (x parity, y parity), 0 even and 1 odd.
_PARITIES = ((0, 0), (1, 0), (0, 1), (1, 1))
_HALF = math.sqrt(0.5)
# Coefficients are mapped back in blocks of rows whose output holds about
# this many entries (1 MiB).
_CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Sector:
    """One diagonal block of the kernel and its regularized spectrum.

    ``u`` (rows, K) and ``sigma`` (K,) are the block's left singular vectors
    and singular values, descending; ``inv_sigma`` holds sigma / (sigma^2 +
    gamma) for retained values and exactly zero for truncated ones, which
    come last since sigma descends. ``cols`` is the block's aperture width.
    """

    cols: int
    u: np.ndarray
    sigma: np.ndarray
    inv_sigma: np.ndarray

    @property
    def retained(self) -> int:
        return int(np.count_nonzero(self.inv_sigma))


@dataclass(frozen=True)
class RegularizedInverse:
    """Truncated-SVD Tikhonov pseudo-inverse of a propagation kernel.

    ``sectors`` follow ``_PARITIES`` order for a kernel with mirror
    structure and are one identity sector otherwise; ``retained_rank`` sums
    their retained modes. The right singular vectors are never stored:
    ``kernel`` maps back to the aperture side where a solution is needed.
    """

    kernel: KernelMatrix
    sectors: tuple[Sector, ...]
    gamma: float
    threshold_factor: float
    truncation_mode: str
    retained_rank: int

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
        over the retained modes and V_s = B_s^H U_s / sigma_s, unfolded on
        the aperture side (:func:`_solutions`).
        """
        rhs = np.asarray(rhs, dtype=np.complex128)
        solution = _solutions(self, rhs.reshape(rhs.shape[0], -1).T)  # (k, N)
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
    index. It folds a grid (:func:`_fold`) and unfolds the parts alike."""
    h, n = odd.shape[axis], out.shape[axis]
    paired = even[_along(axis, slice(0, h))]
    np.add(paired, odd, out=out[_along(axis, slice(0, h))])
    np.subtract(paired, odd, out=out[_along(axis, _part(n, 1))])
    out[_along(axis, slice(h, n - h))] = even[_along(axis, slice(h, None))]


def _fold(values: np.ndarray, axis: int, out: np.ndarray) -> None:
    """Mirror parts of ``values`` along ``axis``, written into ``out`` in the
    folded layout of :func:`_part`: v_i + v_{n-1-i} at i, v_i - v_{n-1-i} at
    n-1-i, the centre line unchanged."""
    n = values.shape[axis]
    _butterfly(values[_along(axis, _part(n, 0))], values[_along(axis, _part(n, 1))], axis, out)


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
    """Orthonormalising weight of one axis's even (0) or odd (1) part:
    1/sqrt(2) per mirror pair, 1 for an odd length's centre line."""
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


def _target_shape(kernel: KernelMatrix) -> tuple[int, int] | None:
    return kernel.symmetry.target_shape if kernel.symmetry is not None else None


class _Factor(NamedTuple):
    """One sector's retained target-side factors."""

    u: np.ndarray  # (rows, r) retained columns of U with the fold weights w_s applied
    sigma: np.ndarray  # (r,) retained singular values
    inv_sigma: np.ndarray  # (r,) their regularized weights lambda_s


def _folded_factors(inv: RegularizedInverse) -> list[_Factor]:
    """Per sector, the retained columns of U with the fold weights applied."""
    factors = []
    for sector, norms in zip(inv.sectors, _sector_norms(_target_shape(inv.kernel))):
        r = sector.retained
        u = sector.u[:, :r] if norms is None else norms[:, None] * sector.u[:, :r]
        factors.append(_Factor(u, sector.sigma[:r], sector.inv_sigma[:r]))
    return factors


def _sector_blocks(kernel: KernelMatrix) -> list[np.ndarray]:
    """The kernel's diagonal blocks, in ``_PARITIES`` order.

    Block s is Q_s^T K diag(conj phase) P_s for the sector's orthonormal
    target and aperture bases Q_s and P_s; the phase factor drops out of the
    left singular vectors and values. Since F is mirror-invariant, the
    target-side fold of a row reduces to the weight 1 / w_s on its quadrant
    row, so only the quarter of K with ix < nx - nx // 2 and
    iy < ny - ny // 2 is read. Each of its rows is folded over the aperture
    in place, along y and then x, and each block is a weighted copy of one
    :func:`_part` view of the folded quadrant.
    """
    symmetry = kernel.symmetry
    if symmetry is None:
        return [kernel.entries]
    (nx, ny), (ax, ay) = symmetry.target_shape, symmetry.aperture_shape
    ex, ey = nx - nx // 2, ny - ny // 2
    quadrant = kernel.entries.reshape(ny, nx, ay, ax)[:ey, :ex] * symmetry.phase.conj().reshape(ay, ax)
    buffer = np.empty((ay, ax), dtype=quadrant.dtype)
    for row in quadrant.reshape(ey * ex, ay, ax):
        _fold(row, -2, buffer)
        _fold(buffer, -1, row)
    blocks = []
    for (px, py), t_norms, a_norms in zip(
        _PARITIES, _sector_norms(symmetry.target_shape), _sector_norms(symmetry.aperture_shape)
    ):
        rows_x, rows_y = (ex, nx - ex)[px], (ey, ny - ey)[py]
        part = quadrant[:rows_y, :rows_x, _part(ay, py), _part(ax, px)]
        weights = a_norms.reshape(part.shape[2:]) / t_norms.reshape(rows_y, rows_x, 1, 1)
        block = np.empty((t_norms.size, a_norms.size), dtype=quadrant.dtype)
        np.multiply(part, weights, out=block.reshape(part.shape))
        blocks.append(block)
    return blocks


def _spectral_factor(entries: np.ndarray) -> np.ndarray:
    """A matrix with the block's left singular vectors and singular values.

    For a wide M x N block that is the M x M factor R^T of B^T = Q R
    (B B^H = R^T conj(R), as Q^H Q = I), so the SVD never touches an N-long
    dimension; otherwise the block itself. ``entries.T`` is a view, so no
    conjugated copy of the block is made.
    """
    m, n = entries.shape
    if m < n:
        return np.linalg.qr(entries.T, mode="r").T
    return entries


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


def _sector_spectra(kernel: KernelMatrix, blocks: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Left singular vectors and singular values, descending, of each of the
    kernel's ``blocks`` (:func:`_sector_blocks`).

    Under the swap, the even-even and odd-odd blocks split into their
    symmetric and antisymmetric parts (:func:`_swap_sector`), and the swap
    carries the (x-odd, y-even) block onto the (x-even, y-odd) one with the
    row and column quadrants transposed: that sector takes the same sigma
    and the same U with its rows transposed.
    """
    symmetry = kernel.symmetry
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
    kernel: KernelMatrix,
    gamma: float,
    threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
    truncation_mode: str = TRUNCATE_SIGMA_SQ,
) -> RegularizedInverse:
    """Decompose each sector block (:func:`_sector_spectra`) and build the
    regularized inverse spectrum.

    Modes whose singular value falls below the truncation threshold are zeroed
    outright; raising ``threshold_factor`` can only shrink the retained rank.
    Raises :class:`MalformedConfig` for a ``gamma`` (:func:`check_gamma`), a
    ``threshold_factor`` (:func:`check_threshold_factor`) or a
    ``truncation_mode`` out of range.
    """
    check_gamma(gamma)
    check_threshold_factor(threshold_factor)
    if truncation_mode not in (TRUNCATE_SIGMA_SQ, TRUNCATE_SIGMA):
        raise MalformedConfig(f"unknown truncation mode {truncation_mode!r}")
    sectors = []
    blocks = _sector_blocks(kernel)
    for block, (u, sigma) in zip(blocks, _sector_spectra(kernel, blocks)):
        if truncation_mode == TRUNCATE_SIGMA_SQ:
            keep = sigma**2 >= threshold_factor * gamma
        else:
            keep = sigma >= threshold_factor * gamma
        inv_sigma = np.where(keep, sigma / (sigma**2 + gamma), 0.0)
        inv_sigma.setflags(write=False)
        sectors.append(Sector(cols=block.shape[1], u=u, sigma=sigma, inv_sigma=inv_sigma))
    return RegularizedInverse(
        kernel=kernel,
        sectors=tuple(sectors),
        gamma=gamma,
        threshold_factor=threshold_factor,
        truncation_mode=truncation_mode,
        retained_rank=sum(s.retained for s in sectors),
    )


def _stage_coefficients(
    inv: RegularizedInverse, factors: list[_Factor], masks: MaskSet | np.ndarray, width: int
) -> np.ndarray:
    """The coefficients c of every mask, staged in a new (I, width) array.

    Per sector c_s = lambda_s (w_s U_s)^H fold_s(b) = b @ A_s over the
    retained modes, with A_s = conj(w_s U_s) lambda_s gathered onto the grid
    (:func:`_sector_gathers`); one ``mask_design.project`` call fills the
    leading sum r_s <= ``width`` columns, sector after sector, for a mask
    set or a plain (I, M) stack of right-hand sides. Raises
    :class:`DimensionMismatch` unless the masks have length M.
    """
    count, points = (masks.count, masks.points) if isinstance(masks, MaskSet) else masks.shape
    m = inv.kernel.entries.shape[0]
    if points != m:
        raise DimensionMismatch(f"vectors of length {points} do not match M={m}")
    gathered = []
    for factor, gather in zip(factors, _sector_gathers(_target_shape(inv.kernel))):
        if factor.sigma.size == 0:  # a sector may have no rows to gather from
            continue
        weighted = factor.u.conj()
        weighted *= factor.inv_sigma
        if gather is not None:
            rows, signs = gather
            weighted = weighted[rows]
            weighted *= signs[:, None]
        gathered.append(weighted)
    out = np.empty((count, width), dtype=np.complex128)
    project(masks, gathered, out)
    return out


def _map_rows(
    out: np.ndarray,
    right: list[np.ndarray],
    shape: tuple[int, int] | None,
    budget: float | None = None,
    phase: np.ndarray | None = None,
) -> np.ndarray:
    """Overwrite each row's staged coefficients with unfold(sum_s c_s right_s).

    ``right`` holds one (r_s, width_s) matrix per sector, and ``shape`` is
    the grid the sectors unfold onto. Runs one block of about
    ``_CHUNK_ENTRIES`` output entries at a time, each block's coefficients
    read before its rows are written. Returns ||c|| per row, taken from each
    block before it is overwritten. With a ``budget``, each block's
    coefficients are first scaled in place by budget / ||c||, so no pass
    over the output rescales it, and a zero ||c|| raises
    :class:`ZeroSolution`; with a ``phase``, the unfolded rows are
    multiplied by it.
    """
    bounds = np.cumsum([0] + [len(r) for r in right])
    norms = np.empty(len(out))
    step = max(1, _CHUNK_ENTRIES // out.shape[1])
    for start in range(0, len(out), step):
        chunk = slice(start, start + step)
        c = out[chunk, : bounds[-1]]
        parts = c.view(np.float64)
        norms[chunk] = np.sqrt(np.einsum("ik,ik->i", parts, parts))
        if budget is not None:
            zero = np.flatnonzero(norms[chunk] == 0.0)
            if zero.size:
                raise ZeroSolution(f"mask {start + int(zero[0])} lies outside the retained kernel range")
            c *= (budget / norms[chunk])[:, None]
        rows = out[chunk]
        _sector_unfold((c[:, lo:hi] @ r for lo, hi, r in zip(bounds, bounds[1:], right)), shape, rows)
        if phase is not None:
            rows *= phase
    return norms


def _aperture_factors(inv: RegularizedInverse) -> list[np.ndarray]:
    """Per sector the transpose of W_s = a_s * B_s^H U_s[:, :r_s] / sigma_s, (r_s, cols).

    W_s is the sector's retained V_s with the aperture fold weights a_s
    applied, so unfold_s(W_s c_s) is the sector's share of V Sigma^-1 c
    before the J_x phase. For the identity sector it is K^H U / sigma,
    formed without a conjugated copy of K.
    """
    symmetry = inv.kernel.symmetry
    aperture_norms = _sector_norms(symmetry.aperture_shape if symmetry is not None else None)
    factors = []
    for sector, block, norms in zip(inv.sectors, _sector_blocks(inv.kernel), aperture_norms):
        r = sector.retained
        w_t = (sector.u[:, :r] / sector.sigma[:r]).conj().T @ block
        np.conjugate(w_t, out=w_t)
        if norms is not None:
            w_t *= norms
        factors.append(w_t)
    return factors


def _solutions(
    inv: RegularizedInverse, masks: MaskSet | np.ndarray, budget: float | None = None
) -> np.ndarray:
    """Regularized solutions (I, N), C-ordered, for a mask set or the rows of an (I, M) array.

    The coefficients of :func:`_stage_coefficients` are mapped back per
    sector through :func:`_aperture_factors`, unfolded on the aperture side
    and multiplied by the conjugate J_x phase. With a ``budget``, every
    solution is scaled to norm ``budget``.
    """
    symmetry = inv.kernel.symmetry
    aperture_shape = symmetry.aperture_shape if symmetry is not None else None
    phase = symmetry.phase.conj() if symmetry is not None else None
    aperture = _aperture_factors(inv)
    out = _stage_coefficients(inv, _folded_factors(inv), masks, inv.kernel.entries.shape[1])
    _map_rows(out, aperture, aperture_shape, budget, phase)
    return out


def realize_masks(inv: RegularizedInverse, masks: MaskSet, amplification: float) -> MaskSet:
    """The masks that power-normalised synthesized profiles produce.

    Works in the target-side range space of each sector: with the
    coefficients c of :func:`_stage_coefficients`, the solution norm is
    ||c|| and the realized mask is the unfolded U diag(sigma) c, scaled onto
    the power budget. The coefficients are staged in the output's leading
    columns, which each block of rows then overwrites, so the only other
    memory is a block's temporaries. Returns a new set whose ``vectors`` are
    the realized masks.
    """
    kind = inv.kernel.kind
    if _KERNEL_TO_MASK_KIND.get(kind) != masks.kind:
        raise KindMismatch(f"kernel kind {kind!r} cannot realize {masks.kind!r} masks")
    n_targets, n_samples = inv.kernel.entries.shape
    factors = _folded_factors(inv)
    realized = _stage_coefficients(inv, factors, masks, n_targets)
    right = [(f.u * f.sigma).T for f in factors]
    norms = _map_rows(realized, right, _target_shape(inv.kernel), np.sqrt(n_samples * amplification))
    realized.setflags(write=False)
    return replace(masks, vectors=realized, amplitudes=None, solution_norms=norms)


def synthesis_profiles(inv: RegularizedInverse, masks: MaskSet, amplification: float) -> np.ndarray:
    """Power-normalised coefficient vectors (I, N), C-ordered, realizing each mask of ``masks``.

    Each row has ||p||^2 = N * amplification; for the ideal set, K p is the
    matching row of the masks returned by :func:`realize_masks`.
    """
    n_samples = inv.kernel.entries.shape[1]
    return _solutions(inv, masks, np.sqrt(n_samples * amplification))


def save_profiles(
    path: str | Path,
    inv: RegularizedInverse,
    masks: MaskSet,
    amplification: float,
    fingerprint: str,
) -> None:
    """Per-measurement coefficient vectors realizing the ideal ``masks``, same
    binary layout as mask exports."""
    profiles = synthesis_profiles(inv, masks, amplification)
    count, n = profiles.shape
    header = f"kind=profiles count={count} points={n} fingerprint={fingerprint}\n"
    write_complex_file(path, header, profiles)


def write_synthesis_summary(
    path: str | Path,
    inv: RegularizedInverse,
    ideal: MaskSet,
    realized: MaskSet,
    amplification: float,
) -> None:
    """Human-readable record: retained rank, gamma, singular-value range, mask
    fidelity, the size and retained rank of each sector block, and per-mask
    solution norms.

    ``realized_rel_err`` is ||realized * norm / sqrt(N * P_I) - ideal|| / ||ideal||
    per mask: how far the unnormalised realized mask misses the ideal one.
    """
    sigma, inv_sigma = inv.sigma, inv.inv_sigma
    retained = sigma[inv_sigma > 0.0]
    budget = np.sqrt(inv.kernel.entries.shape[1] * amplification)
    fitted = realized.vectors * (realized.solution_norms / budget)[:, None]
    ideal_vectors = ideal.vectors  # a designed set forms its stack on each read
    rel_err = np.linalg.norm(fitted - ideal_vectors, axis=1) / np.linalg.norm(ideal_vectors, axis=1)
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
        f"sector[{k}] = {s.u.shape[0]}x{s.cols} retained={s.retained}" for k, s in enumerate(inv.sectors)
    )
    lines.extend(f"solution_norm[{i}] = {norm!r}" for i, norm in enumerate(realized.solution_norms))
    Path(path).write_text("\n".join(lines) + "\n")
