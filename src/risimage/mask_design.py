"""Ideal virtual-mask design: orthogonal amplitude patterns and phase profiles.

For plane targets each mask is a {0,1} amplitude pattern times a common phase
profile chosen so the target-to-receiver propagation phase cancels; for volume
targets the masks are the real {0,1} patterns themselves. Amplitude patterns
come from distinct Hadamard-matrix columns, which makes the empirical mask
covariance exactly (1/4) times the one-point indicator.

Point m takes column (m + 1) mod I (:func:`hadamard_columns`), so mask i at
point m is (1 + H[i, (m + 1) mod I]) / 2 times the phase. This module is the
one place that layout is read: :func:`project`, the one product of a mask set
with a matrix, turns a designed set's product into a Walsh-Hadamard transform
of a small matrix with one row per point, and :func:`hadamard_transform`
applies H_I as the Kronecker product H_a (x) H_b of two Sylvester matrices,
two real matrix products with no butterfly loop. A designed set, plane or
volume, stores no (I, M) mask stack; it is formed when its ``vectors`` are
read, or a block of rows at a time by :meth:`MaskSet.row_blocks`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from pathlib import Path

import numpy as np

from .em_core import read_complex_file, write_complex_file
from .errors import (
    DimensionMismatch,
    EmptyMaskSet,
    InsufficientMeasurements,
    KindMismatch,
    UnsupportedOrder,
)
from .scene import PLANE_2D, SampleGrids, ValidatedScene

KIND_MASK2D = "mask2d"
KIND_MASK3D = "mask3d"

PHASE_TAYLOR = "taylor"
PHASE_EXACT = "exact"


# Stored sets go through :func:`project` in blocks of rows, and designed sets
# in blocks of columns, whose output holds about this many entries (1 MiB);
# mask moments are summed in blocks of rows of about this many entries, and
# :meth:`MaskSet.row_blocks` yields blocks of a quarter of it.
_CHUNK_ENTRIES = 1 << 16


def _designed_stack(amplitudes: np.ndarray, phasor: np.ndarray | None) -> np.ndarray:
    """The designed masks amplitudes * e^{j phase}, from the (M,) ``phasor``
    e^{j phase}, or the amplitudes as complex without one: a new read-only
    array of the amplitudes' shape."""
    stack = amplitudes.astype(np.complex128) if phasor is None else amplitudes * phasor
    stack.setflags(write=False)
    return stack


def _phasor(phase: np.ndarray | None) -> np.ndarray | None:
    return None if phase is None else np.exp(1j * phase)


class _FormedOnRead:
    """The ``vectors`` field of :class:`MaskSet` (a descriptor-typed field).

    Reads return the stored (I, M) stack. A designed set stores none, since
    :func:`project` reads its ``amplitudes`` and ``phase`` instead, so a read
    forms the stack anew (:func:`_designed_stack`), read-only, and only the
    reader keeps it. Its default is None; the stored value lives in
    ``_vectors``.
    """

    def __get__(self, masks, owner=None):
        if masks is None:
            return None
        stored = masks.__dict__["_vectors"]
        return _designed_stack(masks.amplitudes, _phasor(masks.phase)) if stored is None else stored

    def __set__(self, masks, value):
        masks.__dict__["_vectors"] = value  # the frozen set's own __init__ and replace() only


@dataclass(frozen=True)
class MaskSet:
    """Per-measurement mask vectors over the target samples.

    ``vectors`` are the masks that get measured and correlated: the designed
    masks from :func:`ideal_masks`, or the masks the aperture actually
    produces once ``ris_synthesis.realize_masks`` has replaced them, with the
    pre-normalisation solution norms in ``solution_norms``. ``amplitudes`` is
    the designed {0,1} pattern of a set straight from :func:`ideal_masks`, and
    None once ``vectors`` no longer follow it: :func:`project` reads a set
    that carries it as the Hadamard design times ``phase`` (no phase for a
    volume set), not from ``vectors``, so a set whose vectors change must
    drop it. A designed set of either kind stores no ``vectors``: each read
    forms them, and ``replace(masks, vectors=masks.vectors)`` keeps one for
    repeated reads. Measuring it, its export and the synthesis summary read
    it through :meth:`row_blocks`, so none of them builds the complex (I, M)
    stack whole.
    The generating coefficient vectors are not kept:
    ``ris_synthesis.synthesis_profiles`` forms them from the inverse when
    they are exported. ``moments`` are computed on first read and kept; a
    set made by ``dataclasses.replace`` starts without them.
    """

    kind: str  # KIND_MASK2D | KIND_MASK3D
    vectors: np.ndarray | None = _FormedOnRead()  # (I, M) complex128; None: formed on read
    phase: np.ndarray | None = None  # (M,) common phase profile (2D only)
    amplitudes: np.ndarray | None = None  # (I, M) designed {0,1} pattern
    solution_norms: np.ndarray | None = None  # (I,)

    def __post_init__(self):
        if self.__dict__["_vectors"] is None and self.amplitudes is None:
            raise ValueError("a mask set needs vectors, or amplitudes to form them from")

    @property
    def count(self) -> int:
        return self._shape[0]

    @property
    def points(self) -> int:
        return self._shape[1]

    @property
    def _shape(self) -> tuple[int, int]:
        stored = self.__dict__["_vectors"]
        return (self.amplitudes if stored is None else stored).shape

    def amplitude_values(self) -> np.ndarray:
        """Values whose spread encodes the target: magnitudes for plane masks,
        the (possibly complex) coefficients themselves for volume masks.

        For designed plane masks the stored {0,1} pattern is returned directly
        so the quarter-delta covariance stays exact.
        """
        if self.kind != KIND_MASK2D:
            return self.vectors
        if self.amplitudes is not None:
            return self.amplitudes
        return np.abs(self.vectors)

    def row_blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """``vectors`` a block of rows at a time: (rows, vectors[rows]) with
        blocks of about ``_CHUNK_ENTRIES / 4`` entries, as a reader may keep
        a few block-sized temporaries.

        A stored set yields views of its stack. A designed set forms each
        block as amplitudes * e^{j phase} (:func:`_designed_stack`), the same
        bits as the matching rows of ``vectors``, so its (I, M) stack never
        exists whole.
        """
        stored = self.__dict__["_vectors"]
        phasor = _phasor(self.phase) if stored is None else None
        step = max(1, _CHUNK_ENTRIES // (4 * max(self.points, 1)))
        for start in range(0, self.count, step):
            rows = slice(start, start + step)
            yield rows, _designed_stack(self.amplitudes[rows], phasor) if stored is None else stored[rows]

    @cached_property
    def moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The amplitude values u (:meth:`amplitude_values`), their per-point
        variance c = <u u> - <u>^2 and mean square magnitude <|u|^2>, which
        every reconstruction from this set reads.

        c is the diagonal of the mask covariance from plain (unconjugated)
        products, as the correlation reconstruction demands: complex-valued
        for distorted volume masks, exactly 1/4 for ideal ones. The squares
        are summed a block of rows at a time, each block after the running
        sum, so u * u never exists whole and the rows are added in the same
        order as numpy's axis-0 sum of the whole array.
        """
        if self.count == 0:
            raise EmptyMaskSet("mask set has no measurements")
        u = self.amplitude_values()
        square_mean = _row_mean(u, lambda block: block * block)
        c_values = square_mean - u.mean(axis=0) ** 2
        power = _row_mean(u, lambda block: np.abs(block) ** 2) if np.iscomplexobj(u) else square_mean
        return u, c_values, power


def _row_mean(u: np.ndarray, term) -> np.ndarray:
    """The mean over the rows of ``term(u)``, formed a block of rows at a time.

    Each block's terms follow the running sum in one array whose axis-0 sum
    carries the total on, so the rows are added one after another, as numpy
    sums axis 0 of a C-ordered (I, M) array: the result is bit for bit
    ``term(u).mean(axis=0)``.
    """
    step = max(1, _CHUNK_ENTRIES // max(u.shape[1], 1))
    total = None
    for start in range(0, len(u), step):
        terms = term(u[start : start + step])
        if total is not None:
            terms = np.concatenate([total[None], terms])
        total = terms.sum(axis=0)
    return total / len(u)


def hadamard(order: int) -> np.ndarray:
    """Sylvester-construction Hadamard matrix of a power-of-two order.

    Satisfies H^T H = order * I; the first column is all ones.
    """
    if not (isinstance(order, int) and order >= 2 and order & (order - 1) == 0):
        raise UnsupportedOrder(f"order must be a power of two >= 2, got {order!r}")
    h = np.array([[1]], dtype=np.int8)
    base = np.array([[1, 1], [1, -1]], dtype=np.int8)
    while h.shape[0] < order:
        h = np.kron(base, h)
    return h


@lru_cache(maxsize=None)
def _kronecker_factors(order: int) -> tuple[np.ndarray, np.ndarray]:
    """H_a and H_b, read-only float64, with H_order = H_a (x) H_b and
    a = 2^floor(log2(order) / 2)."""
    a = 1 << (order.bit_length() - 1) // 2
    factors = hadamard(a).astype(np.float64), hadamard(order // a).astype(np.float64)
    for factor in factors:
        factor.setflags(write=False)
    return factors


def hadamard_transform(values: np.ndarray) -> np.ndarray:
    """H_I @ values for a real or complex (I, ...) array, I a power of two >= 4.

    Sylvester's construction gives H_I = H_a (x) H_b for any split I = a b
    into powers of two; with a = 2^floor(log2(I) / 2) both factors are small,
    so the product is one batched matrix product within the b-blocks and one
    across them (Fino & Algazi, IEEE Trans. Comput. C-25, 1976), both real on
    the float64 view of complex input. A column block of a larger array is
    read in place. Returns a new C-ordered array of the input's shape and
    dtype.
    """
    order = values.shape[0]
    h_a, h_b = _kronecker_factors(order)
    flat = values.reshape(order, -1)
    if np.iscomplexobj(flat):
        if flat.strides[1] != flat.itemsize:
            flat = np.ascontiguousarray(flat)
        flat = flat.view(np.float64)
    inner = np.matmul(h_b, flat.reshape(len(h_a), len(h_b), -1))
    product = (h_a @ inner.reshape(len(h_a), -1)).reshape(flat.shape)
    return product.view(values.dtype).reshape(values.shape)


def hadamard_columns(n_measurements: int, n_points: int) -> slice | np.ndarray:
    """The Hadamard column of each point, (m + 1) mod I.

    The all-ones column 0 carries no information, so point m takes column
    m + 1: a slice, unless there are as many points as measurements and the
    last point wraps onto column 0, which makes it an index array.
    """
    if n_points < n_measurements:
        return slice(1, n_points + 1)
    return np.arange(1, n_points + 1) % n_measurements


def check_measurement_count(n_measurements: int, n_points: int) -> None:
    """Reject a measurement count that is not a power of two >= 4
    (:class:`UnsupportedOrder`) or that is below the ``n_points`` target
    samples it must encode (:class:`InsufficientMeasurements`)."""
    if not (
        isinstance(n_measurements, int)
        and n_measurements >= 4
        and n_measurements & (n_measurements - 1) == 0
    ):
        raise UnsupportedOrder(
            f"measurement count must be a power of two >= 4, got {n_measurements!r}"
        )
    if n_measurements < n_points:
        raise InsufficientMeasurements(
            f"{n_measurements} measurements cannot encode {n_points} sample points"
        )


def design_amplitudes(n_measurements: int, n_points: int) -> np.ndarray:
    """{0,1} amplitude pattern per measurement from distinct Hadamard columns.

    Point m takes column (m + 1) mod I (:func:`hadamard_columns`), skipping
    the uninformative all-ones first column; with exactly as many
    measurements as points the last point wraps onto the all-ones column and
    is unreconstructable (flagged downstream). The empirical covariance over
    measurements is exactly (1/4) delta.
    """
    check_measurement_count(n_measurements, n_points)
    h_a, h_b = _kronecker_factors(n_measurements)
    columns = np.arange(n_measurements)[hadamard_columns(n_measurements, n_points)]
    # H[i, j] = H_a[i // b, j // b] H_b[i % b, j % b] is +1 where the two factors agree,
    # so H_I itself is never built. ``take`` keeps the result C-ordered, and BLAS sums
    # in an order that depends on the layout.
    a_part = np.take(h_a, columns // len(h_b), axis=1)
    b_part = np.take(h_b, columns % len(h_b), axis=1)
    agree = a_part[:, None, :] == b_part[None, :, :]
    return agree.reshape(n_measurements, n_points).astype(np.float64)


def design_phases_2d(
    scene: ValidatedScene, grids: SampleGrids, mode: str = PHASE_TAYLOR
) -> np.ndarray:
    """Common mask phase profile cancelling the pixel-to-receiver path phase.

    ``taylor`` uses the first-order expansion of the receiver distance around
    the target centre (affine in x', y'); ``exact`` uses pi/2 + k R' per pixel.
    Depends only on the receiver position, the wavenumber, and the grid.
    """
    if scene.config.target_kind != PLANE_2D:
        raise KindMismatch("phase profiles are defined for plane targets only")
    k = scene.wavenumber
    receiver = np.asarray(scene.config.receiver_pos, dtype=float)
    points = grids.target_points
    if mode == PHASE_EXACT:
        dist = np.linalg.norm(points - receiver[None, :], axis=1)
        return math.pi / 2.0 + k * dist
    if mode != PHASE_TAYLOR:
        raise ValueError(f"unknown phase mode {mode!r}")
    centre = np.array([0.0, 0.0, scene.config.target_distance])
    r0 = float(np.linalg.norm(receiver - centre))
    return math.pi / 2.0 + k * (
        r0 - receiver[0] / r0 * points[:, 0] - receiver[1] / r0 * points[:, 1]
    )


def ideal_masks(
    scene: ValidatedScene,
    grids: SampleGrids,
    n_measurements: int,
    phase_mode: str = PHASE_TAYLOR,
) -> MaskSet:
    """Design the full ideal mask set for the scene's target kind.

    The set stores its amplitudes, a plane set also its phase profile, and
    no ``vectors`` (:class:`MaskSet`); a volume set's vectors are its
    amplitudes as complex.
    """
    amplitudes = design_amplitudes(n_measurements, grids.target_points.shape[0])
    amplitudes.setflags(write=False)
    phase = None
    if not scene.is_3d:
        phase = design_phases_2d(scene, grids, phase_mode)
        phase.setflags(write=False)
    return MaskSet(kind=KIND_MASK3D if scene.is_3d else KIND_MASK2D, phase=phase, amplitudes=amplitudes)


def project(masks: MaskSet | np.ndarray, factors: Iterable[np.ndarray], out: np.ndarray) -> None:
    """Write vectors @ [F_1 ... F_k] into the leading sum r_k columns of ``out``.

    ``masks`` is a mask set or a plain (I, M) array, each factor an (M, r_k)
    matrix and ``out`` an (I, width >= sum r_k) array. The factors are drawn
    one at a time, and each is used up before the next is drawn, so a
    generator need hold only one. A designed set (one that carries
    ``amplitudes``) never forms its vectors: mask i is
    (1 + H[i, col(m)]) / 2 e^{j phi_m} with col(m) = (m + 1) mod I, so with
    T = H_I scatter(e^{j phi} F / 2), where scatter puts row m of F at row
    col(m), row i of the product is T[0] + T[i] (row 0 of H_I is all ones).
    The scattered factors are staged in ``out`` and transformed there a block
    of columns at a time (:func:`hadamard_transform`), all factors in one
    pass. Any other set is multiplied a block of rows at a time.
    """
    designed = isinstance(masks, MaskSet) and masks.amplitudes is not None
    if not designed:
        vectors = masks.vectors if isinstance(masks, MaskSet) else masks
        step = max(1, _CHUNK_ENTRIES // out.shape[1])
        lo = 0
        for factor in factors:
            hi = lo + factor.shape[1]
            for start in range(0, len(vectors), step):
                out[start : start + step, lo:hi] = vectors[start : start + step] @ factor
            lo = hi
            del factor  # freed before the next one is drawn
        return
    count, points = masks.amplitudes.shape
    half_phase = np.full(points, 0.5) if masks.phase is None else 0.5 * np.exp(1j * masks.phase)
    columns = hadamard_columns(count, points)
    lo = 0
    for factor in factors:
        hi = lo + factor.shape[1]
        out[columns, lo:hi] = factor * half_phase[:, None]
        lo = hi
        del factor  # freed before the next one is drawn
    stage = out[:, :lo]
    if points < count:  # rows no point scatters to
        stage[0] = 0.0
        stage[points + 1 :] = 0.0
    step = max(1, _CHUNK_ENTRIES // count)
    for start in range(0, stage.shape[1], step):
        block = slice(start, start + step)
        transformed = hadamard_transform(stage[:, block])
        transformed += transformed[0].copy()
        stage[:, block] = transformed


def mask_covariance(masks: MaskSet, ref_index: int) -> np.ndarray:
    """Empirical covariance of every mask point against a reference point.

    v_m = <u_i(m) u_i(m0)> - <u_i(m)> <u_i(m0)> over the measurement index,
    where u are the mask amplitude values. Ideal plane masks give exactly
    (1/4) times the indicator of the reference point.
    """
    if masks.count == 0:
        raise EmptyMaskSet("mask set has no measurements")
    u = masks.amplitude_values()
    if not 0 <= ref_index < u.shape[1]:
        raise DimensionMismatch(f"reference index {ref_index} outside 0..{u.shape[1] - 1}")
    ref = u[:, ref_index]
    return (u * ref[:, None]).mean(axis=0) - u.mean(axis=0) * ref.mean()


# --- disk export ----------------------------------------------------------------
#
# The ``em_core.write_complex_file`` layout with the header line
# "kind=<kind> count=<I> points=<M> fingerprint=<hex>\n", one vector set per
# file.


def save_mask_vectors(path: str | Path, masks: MaskSet, fingerprint: str) -> None:
    """Export ``masks`` a block of rows at a time (:meth:`MaskSet.row_blocks`),
    so a designed set's (I, M) stack is never formed whole."""
    shape = (masks.count, masks.points)
    header = f"kind={masks.kind} count={shape[0]} points={shape[1]} fingerprint={fingerprint}\n"
    write_complex_file(path, header, map(itemgetter(1), masks.row_blocks()), shape)


def load_mask_vectors(path: str | Path) -> tuple[str, np.ndarray, str]:
    """Read one exported vector set; returns (kind, vectors, fingerprint)."""
    kind, fp, vectors = read_complex_file(path, ("count", "points"))
    return kind, vectors, fp
