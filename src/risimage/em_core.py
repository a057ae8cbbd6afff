"""Closed-form electromagnetic quantities and discretised propagation kernels.

Sign convention: time-harmonic with outgoing waves carrying exp(-jkR)
everywhere, including the scalar Green function g = exp(-jkR) / (4 pi R).
All distances are computed in double precision. A kernel entry depends on
its aperture sample and target point only through their offset, times the
aperture current, so assembly evaluates the entry formula once per distinct
offset in each target slice and gathers the matrix from that table a block of
target rows at a time. Those blocks are handed over as they are formed
(:func:`kernel_stream`, whose kind the scene's target picks): a reader that
needs each row once, as the decomposition and the kernel file do, takes the
stream, so the kernel never exists whole, and :func:`assemble_kernel`
collects it into a :class:`KernelMatrix`.

Every kernel carries its mirror structure (:class:`MirrorSymmetry`): both
grids are centred on the origin, and a kernel is a sum of offset tables,
each row weighted, times J_x. A plane kernel has one table, whose entry
depends on the aperture sample only through its distance to the pixel, and
no weights, so synthesis can split the kernel into the even/odd sectors of
the x- and y-mirrors, and, when each grid has the same coordinates along x
as along y, further under the swap of x and y. A volume kernel has the three
E-field tables of the x-directed current, each even or odd under each
mirror, weighted per voxel by the receiver's Green row: the weights break
the mirror symmetry of the kernel, not that of its tables. The same
structure lets a kernel store only the phase-free, unweighted rows of one
mirror quadrant of each table, about a quarter of a plane kernel and three
quarters of a volume kernel: every other row of a table is a mirror image of
one of them, up to the sign of the table's parity (:class:`KernelMatrix`).
"""

from __future__ import annotations

import errno
import math
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TextIO

import numpy as np

from .constants import FREE_SPACE_IMPEDANCE
from .errors import (
    CacheMismatch,
    CoincidentPoints,
    DimensionMismatch,
    KernelSizeError,
    MissingFile,
    NonFiniteKernel,
)
from .scene import SampleGrids, ValidatedScene

KIND_Z2D = "Z_2d"
KIND_Y3D = "Y_3d"

# Complex128 entries; 2**26 entries is ~1 GiB. Checked on the full M x N before a
# kernel is allocated, though a kernel stores only about a quarter (plane) or three
# quarters (volume) of them,
# and on I x M before any (I, M) mask array exists (mask_design).
ENTRY_CAP = 1 << 26
# Kernels are assembled in row blocks of about this many entries, so each
# temporary stays near 512 KiB: a sweep that frees one distance's kernel before
# building the next then reuses heap memory instead of faulting in fresh pages.
_CHUNK_ENTRIES = 1 << 15
# Entries of numpy's ufunc buffers in the passes over kernel rows
# (:func:`small_ufunc_buffers`); numpy's default is 8,192.
_UFUNC_BUFFER = 1 << 10
# The (x, y) parities of a volume kernel's three E-field tables t_xx, t_xy and
# t_xz under the x- and y-mirrors, 0 even and 1 odd: t_xx is even in both
# offsets, t_xy odd in both, t_xz odd in x only.
TABLE_PARITIES = ((0, 0), (1, 1), (1, 0))


@dataclass(frozen=True)
class MirrorSymmetry:
    """Mirror structure of a kernel K = (sum_t D_t F_t) diag(J_x), J_x = amplitude * phase.

    Both grids are cell-centred on the origin with flat index ``ix + nx * iy``
    (plus ``nx * ny * iz`` over the slices of a volume), and each table
    F_t(m, n) depends only on the offset from aperture sample n to point m
    within m's slice, so F_t is unchanged when the x-mirror (or the
    y-mirror) is applied to both grids at once, up to the sign of its parity
    (:attr:`tables`). A plane kernel has one even table, whose entry depends
    only on the distance, and no D_t. A volume kernel has the three E-field
    tables of :data:`TABLE_PARITIES`, and D_t holds ``weights[t]``, the
    receiver Green-row entry of table t at each of the M target points:
    those break the mirror symmetry of K, not that of its tables. J_x at each
    aperture sample is the real ``amplitude`` (:func:`incident_current`, any
    nonzero sign) times ``phase``, its unit phase ramp along y. ``swap`` is
    set for a plane kernel whose grids each have the same array of x
    coordinates as of y coordinates: F is then also unchanged when x and y
    swap on both grids, and the mirrors and the swap generate the dihedral
    group D4.
    """

    target_shape: tuple[int, int]  # (nx, ny)
    aperture_shape: tuple[int, int]  # (Nx, Ny)
    phase: np.ndarray  # (N,) complex128, |phase| = 1
    amplitude: float  # real factor of J_x
    swap: bool = False
    weights: np.ndarray | None = None  # (3, M) complex128 D_t of a volume kernel

    @property
    def quadrant_shape(self) -> tuple[int, int]:
        """(ex, ey): the pixels with ix < ex and iy < ey are the mirror
        quadrant, which holds one pixel of every mirror orbit."""
        nx, ny = self.target_shape
        return nx - nx // 2, ny - ny // 2

    @property
    def tables(self) -> tuple[tuple[int, int], ...]:
        """The (x, y) mirror parity of each table."""
        return ((0, 0),) if self.weights is None else TABLE_PARITIES

    @property
    def depth(self) -> int:
        """Target slices: one for a plane kernel."""
        return 1 if self.weights is None else self.weights.shape[1] // math.prod(self.target_shape)

    @property
    def stored_rows(self) -> int:
        """Rows the kernel stores: the mirror quadrant's of each table in each slice."""
        return len(self.tables) * self.depth * math.prod(self.quadrant_shape)


@dataclass(frozen=True)
class KernelMatrix:
    """Discretised propagation operator from aperture samples to target samples.

    ``entries[m, n]`` maps the reflection coefficient at aperture sample n to
    the field quantity at target sample m. ``symmetry`` is the kernel's
    mirror structure, or None for a matrix without one, and says what
    ``stored`` holds: without it, the (M, N) matrix itself; with it, only
    the rows of each table F_t (:class:`MirrorSymmetry`) at the pixels of the
    mirror quadrant, without D_t or J_x: per slice, the quadrant rows
    ``ix + ex * iy`` of each table in turn. Reading ``entries`` then forms
    the full matrix anew: every row of a table is a mirrored quadrant row
    (the x-mirror reverses the aperture x order, the y-mirror the y order),
    negated under a mirror the table is odd in; the tables are summed with
    their weights and multiplied by J_x = ``amplitude * phase``, the product
    :func:`incident_current` takes, so only the reader keeps it. Read-only
    after assembly.
    """

    stored: np.ndarray  # (M, N) complex128, or (T * depth * ex * ey, N) quadrant rows of T tables
    kind: str  # KIND_Z2D | KIND_Y3D
    fingerprint: str
    symmetry: MirrorSymmetry | None = None

    @property
    def shape(self) -> tuple[int, int]:
        """(M, N) of the full matrix, whatever is stored."""
        if self.symmetry is None:
            return self.stored.shape
        return math.prod(self.symmetry.target_shape) * self.symmetry.depth, self.stored.shape[1]

    @property
    def entries(self) -> np.ndarray:
        """The (M, N) matrix: ``stored`` itself, or a new read-only array
        formed from the quadrant rows of the tables."""
        symmetry = self.symmetry
        if symmetry is None:
            return self.stored
        (nx, ny), (ax, ay) = symmetry.target_shape, symmetry.aperture_shape
        ex, ey = symmetry.quadrant_shape
        depth, tables = symmetry.depth, symmetry.tables
        quadrants = self.stored.reshape(depth, len(tables), ey, ex, ay, ax)
        entries = full = np.empty((depth, ny, nx, ay, ax), dtype=np.complex128)
        for t, (px, py) in enumerate(tables):
            if t == 1:
                full = np.empty_like(entries)
            full[:, :ey, :ex] = quadrants[:, t]
            _mirror(full[:, :ey, : nx - ex][:, :, ::-1, :, ::-1], px, full[:, :ey, ex:])
            _mirror(full[:, : ny - ey][:, ::-1, :, ::-1, :], py, full[:, ey:])
            if symmetry.weights is not None:
                full *= symmetry.weights[t].reshape(depth, ny, nx, 1, 1)
                if t:
                    entries += full
        entries = entries.reshape(-1, ax * ay)
        entries *= symmetry.amplitude * symmetry.phase
        entries.setflags(write=False)
        return entries


def _mirror(image: np.ndarray, parity: int, out: np.ndarray) -> None:
    """Write a mirror ``image`` into ``out``, negated for an odd ``parity``."""
    if parity:
        np.negative(image, out=out)
    else:
        out[...] = image


@contextmanager
def small_ufunc_buffers() -> Iterator[None]:
    """numpy's ufunc buffers of :data:`_UFUNC_BUFFER` entries within the context.

    numpy stages each strided or broadcast ufunc operand in a buffer, by
    default of 8,192 entries (128 KiB of complex128) allocated anew per
    call; 1,024 keeps the temporaries of a pass over kernel rows small and
    the calls faster. The size is restored when the context ends, so the
    context must not span a ``yield``.
    """
    size = np.setbufsize(_UFUNC_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(size)


def incident_current(scene: ValidatedScene, y: np.ndarray) -> np.ndarray:
    """Equivalent electric current density induced on the aperture sheet (A/m).

    Only the y-coordinate matters: the obliquely incident plane wave advances
    its phase along y. The x-directed density at (x, y, 0) is
    (2 E0 / eta) cos(theta_in) exp(-j k sin(theta_in) y), evaluated at every
    ordinate of ``y``.
    """
    return _incident_amplitude(scene) * _incident_phase(scene, y)


def _incident_amplitude(scene: ValidatedScene) -> float:
    cfg = scene.config
    return 2.0 * cfg.incident_amplitude / FREE_SPACE_IMPEDANCE * math.cos(cfg.incident_elevation)


def _incident_phase(scene: ValidatedScene, y: np.ndarray) -> np.ndarray:
    k = scene.wavenumber
    return np.exp(-1j * k * math.sin(scene.config.incident_elevation) * np.asarray(y, dtype=float))


def _same_axes(points: np.ndarray, nx: int, n_slice: int) -> bool:
    """Whether an x-fastest grid's x coordinates equal its y coordinates, value for value."""
    return np.array_equal(points[:nx, 0], points[:n_slice:nx, 1])


def _mirror_symmetry(scene: ValidatedScene, grids: SampleGrids) -> MirrorSymmetry:
    """Mirror structure of ``scene``'s kernel (:class:`MirrorSymmetry`).

    A volume kernel's receiver Green row per voxel breaks the mirror
    symmetry of the kernel, so it comes as the weights of the three tables,
    which keep it: the x-row of the Green tensor from each target point to
    the receiver. Nor is the kernel swap-symmetric, as t_xx is not. A plane
    kernel's swap is read off the grids themselves, not off the
    configuration.
    """
    cfg = scene.config
    phase = _incident_phase(scene, grids.ris_points[:, 1])
    phase.setflags(write=False)
    weights = None
    if scene.is_3d:
        receiver = np.asarray(cfg.receiver_pos, dtype=float)
        weights = green_tensor(receiver, grids.target_points, scene.wavenumber)[:, 0].T.copy()
        weights.setflags(write=False)
    swap = (
        weights is None
        and _same_axes(grids.target_points, cfg.n_target_x, scene.n_target)
        and _same_axes(grids.ris_points, cfg.n_ris_x, scene.n_ris)
    )
    return MirrorSymmetry(
        target_shape=(cfg.n_target_x, cfg.n_target_y),
        aperture_shape=(cfg.n_ris_x, cfg.n_ris_y),
        phase=phase,
        amplitude=_incident_amplitude(scene),
        swap=swap,
        weights=weights,
    )


def _axis_offsets(targets: np.ndarray, aperture: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct offsets ``targets[i] - aperture[j]`` along one axis, and the
    (len(targets), len(aperture)) index of each pair's offset in them."""
    values, index = np.unique(targets[:, None] - aperture[None, :], return_inverse=True)
    return values, index.reshape(targets.size, aperture.size)


def _magnitude_expansion(dx: np.ndarray, dy: np.ndarray) -> tuple:
    """The distinct |dx| and |dy| of a (len(dy), len(dx)) offset table, the
    flat index of each signed offset's magnitude in the table over them, and
    the sign bits of dx (1, len(dx)) and dy (len(dy), 1), for the mirror
    parities of :func:`_expand_table`."""
    (x_magnitudes, x_index), (y_magnitudes, y_index) = (
        np.unique(np.abs(offsets), return_inverse=True) for offsets in (dx, dy)
    )
    expand = (y_index[:, None] * x_magnitudes.size + x_index[None, :]).reshape(-1)
    return x_magnitudes, y_magnitudes, expand, (np.signbit(dx)[None, :], np.signbit(dy)[:, None])


def _expand_table(
    table: np.ndarray, expand: np.ndarray, signs: tuple[np.ndarray, np.ndarray], parity: tuple[int, int]
) -> np.ndarray:
    """The flat table over signed offsets from ``table`` over their
    magnitudes (:func:`_magnitude_expansion`): each entry gathered from its
    magnitude's, and negated where the offset's sign is odd under the
    table's (x, y) ``parity``. The formulas read an offset only through its
    square or a product with it, so this gives the bits of evaluating the
    signed offsets themselves, signed zeros included."""
    signed = table.take(expand)
    (x_negative, y_negative), (px, py) = signs, parity
    flip = (x_negative & bool(px)) ^ (y_negative & bool(py))
    if flip.any():
        np.negative(signed, out=signed, where=flip.reshape(-1))
    return signed


def _table_index(y_index: np.ndarray, x_index: np.ndarray, iy: np.ndarray, ix: np.ndarray) -> np.ndarray:
    """Flat offset-table index (len(iy), N) of the target pixels (iy, ix) of
    one slice against every aperture sample, from the per-axis indices of
    :func:`_axis_offsets` (``y_index`` times the table's row length): entry
    (i, jx + Nx * jy) is y_index[iy_i, jy] + x_index[ix_i, jx]."""
    return (y_index[iy][:, :, None] + x_index[ix][:, None, :]).reshape(len(iy), -1)


def _stored_rows(symmetry: MirrorSymmetry | None, n_rows: int) -> int:
    """Rows a kernel of ``n_rows`` target rows stores: all of them, or those
    its mirror structure says."""
    return n_rows if symmetry is None else symmetry.stored_rows


@dataclass(frozen=True)
class KernelStream:
    """A kernel's stored rows, handed over a block at a time as they are assembled.

    ``blocks`` yields, in order, the rows that :attr:`KernelMatrix.stored`
    holds, each block a new array, and can be drawn once; ``kind``,
    ``fingerprint``, ``symmetry`` and ``shape`` (M, N) are the kernel's. A
    reader that needs each row once, as ``ris_synthesis.tikhonov_inverse``
    does, takes the stream itself, so the stored rows never exist whole;
    :meth:`collect` assembles the :class:`KernelMatrix`.
    """

    kind: str
    fingerprint: str
    symmetry: MirrorSymmetry | None
    shape: tuple[int, int]
    blocks: Iterator[np.ndarray]

    def collect(self) -> KernelMatrix:
        """Draw every block into the read-only kernel."""
        stored = np.empty((_stored_rows(self.symmetry, self.shape[0]), self.shape[1]), dtype=np.complex128)
        filled = 0
        for block in self.blocks:
            stored[filled : filled + len(block)] = block
            filled += len(block)
        stored.setflags(write=False)
        return KernelMatrix(stored=stored, kind=self.kind, fingerprint=self.fingerprint, symmetry=self.symmetry)

    def saved_to(self, path: str | Path) -> KernelStream:
        """The same stream, each block also written to ``path`` as it is
        drawn, in the :func:`save_kernel` layout: the file replaces any old
        one once the last block is drawn, and a stream left undrawn or failing
        leaves the old file (:func:`complex_file_writer`)."""
        body = (_stored_rows(self.symmetry, self.shape[0]), self.shape[1])

        def written() -> Iterator[np.ndarray]:
            with complex_file_writer(path, _kernel_header(self), body) as write:
                for block in self.blocks:
                    write(block)
                    yield block

        return replace(self, blocks=written())


def _assemble(scene: ValidatedScene, grids: SampleGrids, kind: str, offset_tables) -> KernelStream:
    """The row-block loop behind every kernel, as a stream of its stored rows.

    Checks at once that the full kernel fits under :data:`ENTRY_CAP`; the
    rows are formed as the stream is drawn. Per target slice at height z,
    ``offset_tables(dx, dy, z, r)`` evaluates the entry formula on the
    (Ky, Kx) table of distinct offsets (``dx`` (1, Kx), ``dy`` (Ky, 1), ``r``
    their lengths) and returns the kernel's T tables of that shape
    (``MirrorSymmetry.tables``). The stored rows of each table, those of the
    mirror quadrant's pixels (:class:`KernelMatrix`), are then gathered a
    block at a time through the flat table index of :func:`_table_index`:
    entry (m, n) is the table entry at the offset of (m, n), without the
    row's weight or J_x. Tables and blocks are formed with small ufunc
    buffers (:func:`small_ufunc_buffers`).

    The distinct offsets are the floats target - aperture along x and along
    y, so any pitches work: on commensurate grids they form a lattice much
    smaller than the kernel, and on incommensurate ones a slice's table is
    still no larger than that slice's kernel rows. A table entry that is not
    a finite number raises :class:`NonFiniteKernel` before any row of its
    slice is handed over. The stream carries the mirror structure; a plane
    kernel without one stores every row times J_x.
    """
    cfg = scene.config
    ris = grids.ris_points
    targets = grids.target_points
    n_rows, n_cols = targets.shape[0], ris.shape[0]
    if n_rows * n_cols > ENTRY_CAP:
        raise KernelSizeError(
            f"kernel of {n_rows} x {n_cols} = {n_rows * n_cols} entries exceeds the "
            f"cap of {ENTRY_CAP}; use coarser aperture or target grids"
        )
    symmetry = _mirror_symmetry(scene, grids)

    def blocks() -> Iterator[np.ndarray]:
        # 1-D coordinates of the x-fastest, then y, then z grids
        nx, n_slice = cfg.n_target_x, cfg.n_target_x * cfg.n_target_y
        n_ris_x = cfg.n_ris_x
        dx, x_index = _axis_offsets(targets[:nx, 0], ris[:n_ris_x, 0])
        dy, y_index = _axis_offsets(targets[:n_slice:nx, 1], ris[::n_ris_x, 1])
        y_index *= dx.size  # the y part of a flat table index
        # the tables are evaluated on the offset magnitudes and expanded by their parities
        x_magnitudes, y_magnitudes, expand, signs = _magnitude_expansion(dx, dy)
        dx, dy = x_magnitudes[None, :], y_magnitudes[:, None]
        planar = dx**2 + dy**2
        parities = ((0, 0),) if symmetry is None else symmetry.tables

        # the pixels stored per slice: a quadrant of ex x ey, or all nx x ny
        width, height = (nx, cfg.n_target_y) if symmetry is None else symmetry.quadrant_shape
        n_stored = width * height
        step = max(1, _CHUNK_ENTRIES // n_cols)
        starts = range(0, n_stored, step)

        def index(start: int) -> np.ndarray:
            pixels = np.divmod(np.arange(start, min(start + step, n_stored)), width)
            return _table_index(y_index, x_index, *pixels)

        # every slice and table gathers through the same pixel blocks' indices: a kernel
        # with more than one keeps them, one that reads each once forms it as it goes
        n_reads = len(parities) * (n_rows // n_slice)
        indices = [index(start) for start in starts] if n_reads > 1 else None
        for first in range(0, n_rows, n_slice):
            z = targets[first, 2] - ris[0, 2]
            # an overflow leaves a non-finite entry, checked next
            with small_ufunc_buffers(), np.errstate(all="ignore"):
                tables = offset_tables(dx, dy, z, np.sqrt(planar + z**2)).reshape(-1, planar.size)
            if not np.isfinite(tables).all():
                raise NonFiniteKernel(
                    f"kernel entries at wavelength {cfg.wavelength!r} m and {float(z)!r} m from the "
                    "aperture are not finite numbers"
                )
            for table, parity in zip(tables, parities):
                table = _expand_table(table, expand, signs, parity)
                for k, start in enumerate(starts):
                    with small_ufunc_buffers():
                        block = table.take(index(start) if indices is None else indices[k])
                        if symmetry is None:
                            block *= incident_current(scene, ris[:, 1])
                    yield block

    return KernelStream(
        kind=kind, fingerprint=scene.fingerprint, symmetry=symmetry, shape=(n_rows, n_cols), blocks=blocks()
    )


def _plane_rows(scene: ValidatedScene, grids: SampleGrids) -> KernelStream:
    """The plane-target kernel: target-plane tangential H per unit coefficient.

    Entry (m, n) is
    -(1 + jkR) / (4 pi R^3) * dx dy * z' * J_x(r_n) * exp(-jkR),
    with R the distance from aperture sample n to target pixel m.
    """
    k = scene.wavenumber
    z_prime = scene.config.target_distance
    cell = grids.ris_cell_area

    def offset_tables(dx, dy, z, r):
        return -(1.0 + 1j * k * r) / (4.0 * math.pi * r**3) * cell * z_prime * np.exp(-1j * k * r)

    return _assemble(scene, grids, KIND_Z2D, offset_tables)


def psf_vector(scene: ValidatedScene, target_points: np.ndarray) -> np.ndarray:
    """Point spread function: propagation weight from each target point to the receiver.

    K = k eta / (4 pi j) * exp(-jkR') / R', so |K| = k eta / (4 pi R') and
    arg K = -pi/2 - kR' (mod 2 pi).
    """
    receiver = np.asarray(scene.config.receiver_pos)
    diff = np.asarray(target_points, dtype=float) - receiver[None, :]
    r = np.sqrt(np.einsum("mi,mi->m", diff, diff))
    if np.any(r == 0.0):
        raise CoincidentPoints("receiver coincides with a target sample")
    k = scene.wavenumber
    return (k * FREE_SPACE_IMPEDANCE / (4.0 * math.pi * 1j)) * np.exp(-1j * k * r) / r


def green_tensor(observation, sources: np.ndarray, k: float) -> np.ndarray:
    """Free-space dyadic Green tensor (M, 3, 3) from each of M ``sources`` to ``observation``.

    Equals (I + grad grad / k^2) g with g = exp(-jkR') / (4 pi R'); in closed
    form, with Rhat the unit vector from source to observation,

    [(3/(kR')^2 + 3j/(kR') - 1) Rhat Rhat^T - (1/(kR')^2 + j/(kR') - 1) I] g.

    Entry (a, b) with a <= b is evaluated as (radial Rhat_a) Rhat_b and mirrored
    to (b, a), so each tensor is exactly symmetric.
    """
    diff = np.asarray(observation, dtype=float)[None, :] - np.asarray(sources, dtype=float)
    dist = np.sqrt(np.einsum("mi,mi->m", diff, diff))
    if np.any(dist == 0.0):
        raise CoincidentPoints("Green tensor is singular at zero separation")
    rhat = diff / dist[:, None]
    kr = k * dist
    g = np.exp(-1j * kr) / (4.0 * math.pi * dist)
    with np.errstate(over="ignore"):  # far enough away, 1 / kr**2 is its limit 0
        radial = 3.0 / kr**2 + 3j / kr - 1.0
        transverse = 1.0 / kr**2 + 1j / kr - 1.0
    tensor = (radial[:, None] * rhat)[:, :, None] * rhat[:, None, :]
    a, b = np.triu_indices(3, 1)
    tensor[:, b, a] = tensor[:, a, b]
    tensor[:, range(3), range(3)] -= transverse[:, None]
    return tensor * g[:, None, None]


def _volume_rows(scene: ValidatedScene, grids: SampleGrids) -> KernelStream:
    """The volume-target kernel: receiver-weighted scattering coefficient.

    Entry (m, n) combines the three aperture E-field integrands at voxel m with
    the receiver Green-tensor row, so that ``entries @ p`` gives the per-voxel
    coefficient whose contrast-weighted sum (times k^2 and the voxel volume)
    is the received x-polarised field. The stream holds the integrand tables'
    quadrant rows; the Green rows come with the mirror structure
    (:func:`_mirror_symmetry`), which ``KernelMatrix.entries`` weights them by.
    """
    k = scene.wavenumber
    # the prefactor -j eta dA / (4 pi k) is j p, p real
    p = -FREE_SPACE_IMPEDANCE / (4.0 * math.pi * k) * grids.ris_cell_area

    def offset_tables(dx, dy, z, r):
        # E-field integrand factors of the x-directed aperture current, in real arithmetic:
        # with a = j p e^{-jkr} / r^3 = p (sin kr + j cos kr) / r^3,
        # t_xx = a ((kr^2 - 1 - jkr) + n dx^2), t_xy = a n dy dx, t_xz = a n z dx,
        # n = (3 - kr^2 + 3jkr) / r^2
        kr = k * r
        inv_r2 = 1.0 / (r * r)
        a_scale = p * inv_r2 / r
        a_re, a_im = np.sin(kr), np.cos(kr)
        a_re *= a_scale
        a_im *= a_scale
        n_re = (3.0 - kr * kr) * inv_r2
        n_im = 3.0 * kr * inv_r2
        an_re = a_re * n_re - a_im * n_im
        an_im = a_re * n_im + a_im * n_re
        far_re = kr * kr - 1.0
        tables = np.empty((3,) + r.shape, dtype=np.complex128)
        dx2 = dx * dx
        tables[0].real = a_re * far_re + a_im * kr + an_re * dx2
        tables[0].imag = a_im * far_re - a_re * kr + an_im * dx2
        for table, offsets in zip(tables[1:], (dy * dx, z * dx)):
            np.multiply(an_re, offsets, out=table.real)
            np.multiply(an_im, offsets, out=table.imag)
        return tables

    return _assemble(scene, grids, KIND_Y3D, offset_tables)


def kernel_stream(scene: ValidatedScene, grids: SampleGrids) -> KernelStream:
    """The stored rows of the scene's kernel as they are assembled
    (:class:`KernelStream`): the plane kernel (:func:`_plane_rows`) or the
    volume kernel (:func:`_volume_rows`), as the scene's target picks."""
    return _volume_rows(scene, grids) if scene.is_3d else _plane_rows(scene, grids)


def assemble_kernel(scene: ValidatedScene, grids: SampleGrids) -> KernelMatrix:
    """Kernel of the kind matching the scene's target, assembled whole."""
    return kernel_stream(scene, grids).collect()


# --- binary files -------------------------------------------------------------
#
# One ASCII header line of key=value pairs ("kind=<kind> m=<M> n=<N>
# fingerprint=<hex>\n" for kernels) followed by row-major little-endian
# complex128 entries (re, im float64 pairs). Mask and profile exports use the
# same layout with ``count``/``points`` as the dimensions. A kernel file's body
# is what the kernel stores (``KernelMatrix.stored``), so its body holds the
# quadrant rows of its tables while its header names the full (M, N); a volume
# kernel's header adds "tables=3" before the fingerprint, which a volume file
# of the weighted-row layout lacks, as some grids give both layouts one length.


@contextmanager
def complex_file_writer(
    path: str | Path, header: str, shape: tuple[int, int], period: int | None = None, preallocate: bool = False
) -> Iterator[Callable[[np.ndarray], None]]:
    """Write an ASCII ``header`` line and a little-endian complex128 (rows,
    cols) body of ``shape``, handed over a block of rows at a time.

    The context gives ``write(block, start)``, which writes one (rows, cols)
    block of rows from row ``start`` on before it returns, so a caller can
    reuse one buffer, and blocks may come in any row order; without a
    ``start`` a block follows the one before. With a ``period`` that divides
    the row count, the blocks cover that many rows, and row i of the body is
    row i mod ``period``: each block is written at every offset where its
    rows repeat. The bytes go to a temporary file in the same directory,
    which replaces ``path`` when the context ends: a reader sees the old
    file or the whole new one, never a partial write. If the context raises,
    a write comes up short (:class:`OSError`), or the blocks do not write
    every row of the period exactly once (:class:`DimensionMismatch`), the
    temporary file is removed and the old file stays. Each block is written
    from its array's own buffer, so C-ordered little-endian complex128
    values are not copied.

    With ``preallocate``, the temporary file is given its final size before
    the first block (``os.posix_fallocate``, where the platform has it), so
    its blocks are allocated when it replaces the old file: ext4 starts
    writing back a file whose blocks are still to be allocated when it is
    renamed over another, and that would hold up the caller. A file system
    that cannot preallocate (``EINVAL``, ``EOPNOTSUPP``) gets the file
    written without it; any other :class:`OSError` from the allocation, such
    as a full disk, fails the write like any other. Without that writeback a
    crash can leave the renamed file at its full length with a body of
    zeros, so a kernel export, whose length is all :func:`load_kernel`
    checks of its body, is not preallocated.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    period = shape[0] if period is None else period
    if period != shape[0] and (period <= 0 or shape[0] % period):
        raise DimensionMismatch(f"a period of {period} rows does not divide the {shape[0]} rows of the body")
    head = header.encode("ascii")
    row_bytes = 16 * shape[1]
    size = len(head) + row_bytes * shape[0]
    written = np.zeros(period, dtype=bool)
    rows = 0  # where a block without a start goes

    def write_at(data, offset: int) -> None:
        count = os.pwrite(fd, data, offset)
        if count != len(data):
            raise OSError(f"wrote {count} of {len(data)} bytes at offset {offset} of {tmp}")

    def write(block: np.ndarray, start: int | None = None) -> None:
        nonlocal rows
        start = rows if start is None else start
        stop = start + len(block)
        if block.shape[1:] != shape[1:] or not 0 <= start <= stop <= period or written[start:stop].any():
            raise DimensionMismatch(
                f"a {block.shape} block at row {start} does not fit the rows still to write "
                f"of the {period}-row period of the {shape} body"
            )
        data = np.ascontiguousarray(block, dtype="<c16").reshape(-1).view(np.uint8)
        for offset in range(len(head) + start * row_bytes, size, max(period * row_bytes, 1)):
            write_at(data, offset)
        written[start:stop] = True
        rows = stop

    try:
        with open(tmp, "wb", buffering=0) as fh:
            fd = fh.fileno()
            if preallocate and hasattr(os, "posix_fallocate") and size:
                try:
                    os.posix_fallocate(fd, 0, size)
                except OSError as exc:
                    if exc.errno not in (errno.EINVAL, errno.EOPNOTSUPP):
                        raise
            write_at(head, 0)
            yield write
            if not written.all():
                raise DimensionMismatch(
                    f"blocks of {np.count_nonzero(written)} rows for the {period} rows of the body's period"
                )
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def text_file_writer(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """A text file handle that writes ``path`` anew, ``newline`` as for :func:`open`.

    The old file is removed first and the new one created in its place,
    never truncated: ext4 starts writing back a file that was truncated to
    nothing when it is closed, and that would hold up the caller. While it
    is written, a reader finds no file or a part of the new one. If the
    context or the closing raises, the part written is removed.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    fh = open(path, "x", newline=newline)
    try:
        with fh:
            yield fh
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _table_count(symmetry: MirrorSymmetry | None) -> dict[str, str]:
    """The header key of a volume kernel file: the number of its tables."""
    return {} if symmetry is None or symmetry.weights is None else {"tables": str(len(symmetry.tables))}


def _kernel_header(kernel: KernelMatrix | KernelStream) -> str:
    m, n = kernel.shape
    tables = "".join(f"{key}={value} " for key, value in _table_count(kernel.symmetry).items())
    return f"kind={kernel.kind} m={m} n={n} {tables}fingerprint={kernel.fingerprint}\n"


def save_kernel(path: str | Path, kernel: KernelMatrix) -> None:
    """Write the rows ``kernel`` stores, as one block (:func:`complex_file_writer`)."""
    with complex_file_writer(path, _kernel_header(kernel), kernel.stored.shape) as write:
        write(kernel.stored)


def read_complex_file(
    path: str | Path,
    shape_keys: tuple[str, str],
    body_rows: int | None = None,
    expected: dict[str, str] | None = None,
) -> tuple[str, str, np.ndarray]:
    """Read a file written by :func:`complex_file_writer`.

    The header is ``key=value`` pairs that include ``kind``, ``fingerprint``
    and the two integer dimensions named by ``shape_keys``; returns the kind,
    the fingerprint and the read-only (rows, cols) complex128 body. The body
    holds the header's rows, or ``body_rows`` rows when given, and the
    header must hold the ``expected`` pairs; both are checked before the
    body is read.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError as exc:
        raise MissingFile(f"no such file: {path}") from exc
    with fh:
        header = fh.readline()
        try:
            meta = dict(item.split("=", 1) for item in header.decode("ascii").split())
            kind, fingerprint = meta["kind"], meta["fingerprint"]
            rows, cols = (int(meta[key]) for key in shape_keys)
            if min(rows, cols) < 0:
                raise ValueError("negative size")
        except (KeyError, ValueError) as exc:
            raise CacheMismatch(f"unreadable header {header!r} in {path}") from exc
        if body_rows is not None:
            rows = body_rows
        # the body is read straight into the result: one copy in memory
        body_bytes = os.fstat(fh.fileno()).st_size - len(header)
        if body_bytes != 16 * rows * cols:
            raise CacheMismatch(f"{path} body holds {body_bytes} bytes, expected {16 * rows * cols}")
        for key, value in (expected or {}).items():
            if meta.get(key) != value:
                raise CacheMismatch(f"header {header!r} of {path} does not give {key}={value}")
        values = np.empty((rows, cols), dtype="<c16")
        if fh.readinto(values.reshape(-1).view(np.uint8)) != body_bytes:
            raise CacheMismatch(f"{path} changed while it was read")
    values = values.astype(np.complex128, copy=False)
    values.setflags(write=False)
    return kind, fingerprint, values


def load_kernel(path: str | Path, scene: ValidatedScene, grids: SampleGrids) -> KernelMatrix:
    """Read ``scene``'s kernel from a file written by :func:`save_kernel`.

    Raises :class:`CacheMismatch` for an unreadable or truncated file, for
    another scene's kernel, and for a kernel file whose body holds the rows
    of an older layout (a plane kernel's full matrix instead of its quadrant
    rows, a volume kernel's weighted rows instead of its tables' quadrant
    rows), which is rejected by its length, or for a volume kernel by its
    header's missing table count, before its body is read; the kernel comes
    back with its mirror structure.
    """
    symmetry = _mirror_symmetry(scene, grids)
    rows = _stored_rows(symmetry, scene.n_target)
    kind, fp, stored = read_complex_file(path, ("m", "n"), rows, _table_count(symmetry))
    if kind not in (KIND_Z2D, KIND_Y3D):
        raise CacheMismatch(f"unknown kernel kind {kind!r}")
    if fp != scene.fingerprint:
        raise CacheMismatch(f"kernel file fingerprint {fp} does not match the scene ({scene.fingerprint})")
    return KernelMatrix(stored=stored, kind=kind, fingerprint=scene.fingerprint, symmetry=symmetry)
