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
volume, is its design, the pair (I, M), and its phase profile: it stores no
(I, M) array, and :func:`design_amplitudes` forms the rows of the pattern
that a reader asks for, when its ``vectors`` are read or a block of rows at
a time by :meth:`MaskSet.row_blocks`.

A design of I masks over M points has only min(I, J) distinct rows, J the
smallest power of two above M (:func:`distinct_row_count`): for I <= J its
rows are the first I of one sequence that depends only on M, and for
I >= 2J they are the first J repeated, since H[i, j] = H[i mod J, j] for
every column j < J. So a set is read, transformed and realized over its
distinct rows only, and a stored set may hold one period of its masks
(:attr:`MaskSet.repeats`). When M is a power of two and I >= 2M, R = 2M
and the rows pair (:attr:`MaskSet.paired`): the last point alone takes
column M, so row i + M is row i with that point switched off, and
:func:`project` transforms the first M rows only.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .em_core import ENTRY_CAP, complex_file_writer, read_complex_file
from .errors import (
    DimensionMismatch,
    EmptyMaskSet,
    InsufficientMeasurements,
    KindMismatch,
    MalformedConfig,
    MaskSetSizeError,
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


@dataclass(frozen=True)
class MaskSet:
    """Per-measurement mask vectors over the target samples.

    ``vectors`` are the masks that get measured and correlated, held in one
    of two forms, exactly one of which is set. ``design`` is the (I, M) pair
    of a set straight from :func:`ideal_masks`: mask i is the Hadamard
    pattern row i of :func:`design_amplitudes` times e^{j ``phase``} (no
    phase for a volume set), so the set stores no (I, M) array, and
    :func:`project` reads it as a Hadamard transform. ``stored`` is the
    (I, M) array of any other set: the complex masks, or in a plane set
    only their magnitudes u (:attr:`magnitudes_only`), all that a plane
    reconstruction reads. ``ris_synthesis.realize_masks`` leaves a plane
    set so, with the pre-normalisation solution norms in
    ``solution_norms``; the complex masks the aperture produces exist only
    a block at a time, in its pass.

    Each read of a designed set's ``vectors`` forms its stack anew, and
    ``MaskSet(kind, stored=masks.vectors)`` keeps one for repeated reads.
    Measuring a designed set, realizing it and exporting it form it a block
    of rows at a time (:meth:`row_blocks`), or not at all (:func:`project`).

    A set's rows repeat its :attr:`distinct_rows`: a designed set's first
    min(I, J) rows, or the rows ``stored`` holds, which a stored set repeats
    ``repeats`` times (row i of the set is ``stored[i % len(stored)]``).
    ``moments``, :meth:`row_blocks` and :func:`project` read those rows only,
    and ``ris_synthesis.realize_masks`` realizes them and returns a set that
    repeats them.
    The generating coefficient vectors are not kept:
    ``ris_synthesis.synthesis_profiles`` forms them from the inverse when
    they are exported. ``moments`` are computed on first read and kept, and
    shared with every set of the same distinct rows that :meth:`first`
    makes; a set made by ``dataclasses.replace`` starts without them.
    """

    kind: str  # KIND_MASK2D | KIND_MASK3D
    stored: np.ndarray | None = None  # (I, M) complex128, or float64 magnitudes of a plane set
    design: tuple[int, int] | None = None  # (I, M) of a Hadamard design
    phase: np.ndarray | None = None  # (M,) common phase profile (designed plane sets)
    solution_norms: np.ndarray | None = None  # (I,)
    repeats: int = 1  # times a stored set repeats its rows

    def __post_init__(self):
        if (self.stored is None) == (self.design is None):
            raise ValueError("a mask set holds exactly one of stored vectors and a design")
        if self.repeats < 1 or (self.design is not None and self.repeats != 1):
            raise ValueError("only a stored set repeats its rows, a whole number of times")
        if self.kind not in (KIND_MASK2D, KIND_MASK3D):
            raise KindMismatch(f"a mask set is of kind {KIND_MASK2D!r} or {KIND_MASK3D!r}, got {self.kind!r}")
        if self.design is not None:
            check_measurement_count(*self.design)

    @property
    def count(self) -> int:
        return self.design[0] if self.stored is None else len(self.stored) * self.repeats

    @property
    def points(self) -> int:
        return self.design[1] if self.stored is None else self.stored.shape[1]

    @property
    def distinct_rows(self) -> int:
        """R: the rows the set is read over, of which row i of the set is row i mod R."""
        return distinct_row_count(*self.design) if self.stored is None else len(self.stored)

    @property
    def paired(self) -> bool:
        """Whether a designed set's R distinct rows come in pairs: R = 2M,
        with M a power of two and I >= 2M, so the last point takes column
        R/2, which is +1 on the rows below it and -1 on the rows from it on,
        while every other column repeats with period R/2. Row i + R/2 is then
        row i with its last point switched off (:func:`project`)."""
        return self.design is not None and self.points > 1 and self.distinct_rows == 2 * self.points

    @property
    def vectors(self) -> np.ndarray:
        """The (I, M) masks: ``stored``, or a stack formed anew, which only
        the reader keeps, of a designed set or a stored set that repeats its
        rows."""
        if self.stored is None:
            return self._designed()
        return self.stored if self.repeats == 1 else _read_only(np.tile(self.stored, (self.repeats, 1)))

    def first(self, count: int) -> MaskSet:
        """The set of this set's first ``count`` masks, ``count`` at most
        :attr:`count` and a multiple of R when above it: a view of a prefix
        of the distinct rows, or those rows repeated, with their solution
        norms. A set of all R distinct rows shares this set's ``moments``,
        which either of them computes at most once."""
        distinct = self.distinct_rows
        norms = None if self.solution_norms is None else self.solution_norms[:count]
        if self.stored is None:
            first = replace(self, design=(count, self.points))
        elif count > distinct:
            first = replace(self, solution_norms=norms, repeats=count // distinct)
        else:
            first = replace(self, stored=self.stored[:count], solution_norms=norms, repeats=1)
        if count >= distinct:  # the same distinct rows, so the same moments
            cached = [self.moments] if "moments" in self.__dict__ else []
            first.__dict__["_shared_moments"] = self.__dict__.setdefault("_shared_moments", cached)
        return first

    @property
    def magnitudes_only(self) -> bool:
        """Whether this plane set stores only the magnitudes of its masks (a
        real ``stored``): it can be reconstructed from, not measured."""
        return self.kind == KIND_MASK2D and self.stored is not None and not np.iscomplexobj(self.stored)

    def block(self, rows: slice) -> np.ndarray:
        """``vectors[rows]``: a view of rows that a stored set holds, or
        only those rows, formed anew."""
        if self.stored is None:
            return self._designed(rows)
        if self.repeats == 1:
            return self.stored[rows]
        return self.stored[np.arange(self.count)[rows] % len(self.stored)]

    def _designed(self, rows: slice = slice(None)) -> np.ndarray:
        """The designed masks at ``rows``, pattern * e^{j phase}, or the
        pattern as complex without a phase: a new read-only array."""
        pattern = design_amplitudes(*self.design, rows)
        return _read_only(pattern.astype(np.complex128) if self.phase is None else pattern * self._phasor)

    @cached_property
    def _phasor(self) -> np.ndarray:
        """e^{j phase}, formed on the first read and kept for every block."""
        return np.exp(1j * self.phase)

    def row_blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """The :attr:`distinct_rows` a block of rows at a time: (rows,
        vectors[rows]) with blocks of about ``_CHUNK_ENTRIES / 4`` entries,
        as a reader may keep a few block-sized temporaries.

        A stored set yields views of its stack. A designed set forms only
        each block's rows of the pattern, times e^{j phase}, the same bits as
        the matching rows of ``vectors`` (:meth:`block`), so its (I, M) stack
        never exists whole.
        """
        step = max(1, _CHUNK_ENTRIES // (4 * max(self.points, 1)))
        for start in range(0, self.distinct_rows, step):
            rows = slice(start, min(start + step, self.distinct_rows))
            yield rows, self._designed(rows) if self.stored is None else self.stored[rows]

    @cached_property
    def moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The amplitude values u whose spread encodes the target, their
        per-point variance c = <u u> - <u>^2 and mean square magnitude
        <|u|^2>, which every reconstruction from this set reads.

        u is the magnitude of a plane mask: the designed {0,1} pattern
        itself, so the quarter-delta covariance stays exact, or the stored
        magnitudes, read in place (a plane set that stores complex masks
        raises :class:`KindMismatch`); and the (possibly complex)
        coefficient of a volume mask. u holds the :attr:`distinct_rows`
        only, as a mean over one period is the mean over every row; a
        correlation folds its measurements onto them. c is the diagonal of
        the mask covariance from plain (unconjugated) products, as the
        correlation reconstruction demands: complex-valued for distorted
        volume masks, exactly 1/4 for ideal ones. The squares are summed a
        block of rows at a time, each block after the running sum, so u * u
        never exists whole and the rows are added in the same order as
        numpy's axis-0 sum of the whole array.
        """
        shared = self.__dict__.get("_shared_moments", [])
        if not shared:
            shared.append(self._moments())
        return shared[0]

    def _moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.count == 0:
            raise EmptyMaskSet("mask set has no measurements")
        distinct = slice(0, self.distinct_rows)
        if self.kind != KIND_MASK2D or self.magnitudes_only:
            u = self.stored if self.design is None else self._designed(distinct)
        elif self.design is not None:
            u = design_amplitudes(*self.design, distinct)
        else:
            raise KindMismatch(
                "a plane reconstruction reads mask magnitudes, and this set stores complex mask "
                "values: reconstruct from MaskSet(kind, stored=np.abs(values))"
            )
        square_mean = _row_mean(u, lambda block: block * block)
        c_values = square_mean - u.mean(axis=0) ** 2
        power = _row_mean(u, lambda block: np.abs(block) ** 2) if np.iscomplexobj(u) else square_mean
        return u, c_values, power


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


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
    a = 2^floor(log2(order) / 2); H_1 = [1] for order 2."""
    a = 1 << (order.bit_length() - 1) // 2
    h_a = hadamard(a) if a > 1 else np.ones((1, 1))
    factors = h_a.astype(np.float64), hadamard(order // a).astype(np.float64)
    for factor in factors:
        factor.setflags(write=False)
    return factors


def hadamard_transform(values: np.ndarray) -> np.ndarray:
    """H_I @ values for a real or complex (I, ...) array, I a power of two >= 2.

    Sylvester's construction gives H_I = H_a (x) H_b for any split I = a b
    into powers of two; with a = 2^floor(log2(I) / 2) both factors are small,
    so the product is one batched matrix product within the b-blocks and one
    across them (Fino & Algazi, IEEE Trans. Comput. C-25, 1976), both real on
    the float64 view of complex input. A column block of a larger array is
    read in place, and a strided one is copied only for the first product.
    Returns a new C-ordered array of the input's shape and dtype.
    """
    order = values.shape[0]
    h_a, h_b = _kronecker_factors(order)
    flat = values.reshape(order, -1)
    if np.iscomplexobj(flat):
        if flat.strides[1] != flat.itemsize:
            flat = np.ascontiguousarray(flat)
        flat = flat.view(np.float64)
    shape = flat.shape
    inner = np.matmul(h_b, flat.reshape(len(h_a), len(h_b), -1))
    del flat  # a strided input's copy is freed before the second product
    product = (h_a @ inner.reshape(len(h_a), -1)).reshape(shape)
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


def distinct_row_count(n_measurements: int, n_points: int) -> int:
    """How many rows of ``design_amplitudes(n_measurements, n_points)`` are
    distinct: min(I, J), J the smallest power of two above the point count.

    Row i of the design is row i mod J of the J-row design: Sylvester's
    H[i, j] depends on i mod J for every column j < J, and the points take
    columns 1..M, below J (with I = M the last point takes column 0, which
    is 1 on every row i < I as H[i, I] is).
    """
    return min(n_measurements, 1 << n_points.bit_length())


def check_measurement_count(n_measurements: int, n_points: int) -> None:
    """Reject a measurement count that is not a power of two >= 4
    (:class:`UnsupportedOrder`), that is below the ``n_points`` target
    samples it must encode (:class:`InsufficientMeasurements`), or whose
    (count, n_points) mask stack would hold more than ``em_core.ENTRY_CAP``
    entries (:class:`MaskSetSizeError`)."""
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
    if n_measurements * n_points > ENTRY_CAP:
        raise MaskSetSizeError(
            f"{n_measurements} masks over {n_points} points would hold {n_measurements * n_points} "
            f"entries, above the cap of {ENTRY_CAP}; use fewer masks or a coarser target grid"
        )


def check_realizable(n_points: int) -> None:
    """Reject a target of one or two points for synthesis (:class:`MalformedConfig`).

    Its design has a row that is zero at every point: row J - 1, J the
    smallest power of two above the point count, as points 1 and 2 take
    columns 1 and 2, where H[J - 1, j] = -1 (row 1 of J = 2, row 3 of
    J = 4). No coefficient profile realizes a zero mask. From three points
    on, column 3 is +1 wherever columns 1 and 2 are -1, so no row is zero.
    """
    if n_points <= 2:
        raise MalformedConfig(
            f"a target of {n_points} sample point{'s' if n_points > 1 else ''} cannot be synthesized: "
            f"design row {(1 << n_points.bit_length()) - 1} is zero at every point, and no profile "
            "realizes it; use ideal masks or at least 3 target points"
        )


def design_amplitudes(n_measurements: int, n_points: int, rows: slice = slice(None)) -> np.ndarray:
    """{0,1} amplitude pattern per measurement from distinct Hadamard columns,
    (1 + H[i, (m + 1) mod I]) / 2, for the measurements i in ``rows``.

    Point m takes column (m + 1) mod I (:func:`hadamard_columns`), skipping
    the uninformative all-ones first column; with exactly as many
    measurements as points the last point wraps onto the all-ones column and
    is unreconstructable (flagged downstream). The empirical covariance over
    all I measurements is exactly (1/4) delta. Only the rows asked for are
    formed, a new C-ordered float64 array, since BLAS sums in an order that
    depends on the layout.
    """
    check_measurement_count(n_measurements, n_points)
    index = np.arange(n_measurements, dtype=np.int32)
    # Sylvester's H[i, j] is (-1)^popcount(i & j), so H_I itself is never built;
    # folding the bits of i & j with xor leaves that parity in bit 0
    bits = index[rows, None] & index[hadamard_columns(n_measurements, n_points)]
    for shift in (16, 8, 4, 2, 1):
        bits ^= bits >> shift
    return (bits & 1 == 0).astype(np.float64)


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

    The set is its Hadamard design, the pair (I, M), and for a plane target
    its phase profile: it stores no (I, M) array (:class:`MaskSet`). A volume
    set's vectors are its amplitudes as complex.
    """
    phase = None
    if not scene.is_3d:
        phase = design_phases_2d(scene, grids, phase_mode)
        phase.setflags(write=False)
    design = (n_measurements, grids.target_points.shape[0])
    return MaskSet(kind=KIND_MASK3D if scene.is_3d else KIND_MASK2D, design=design, phase=phase)


def project(masks: MaskSet | np.ndarray, factors: Iterable[np.ndarray], out: np.ndarray) -> np.ndarray | None:
    """Write vectors @ [F_1 ... F_k] into the leading sum r_k columns of ``out``.

    ``masks`` is a mask set, whose R :attr:`~MaskSet.distinct_rows` are
    multiplied, or a plain (R, M) array, each factor an (M, r_k) matrix and
    ``out`` an array of at least R rows and sum r_k columns, whose first R
    rows take the product. The factors are drawn
    one at a time, and each is used up before the next is drawn, so a
    generator need hold only one. A designed set (one that carries a
    ``design``) never forms its vectors: mask i is
    (1 + H[i, col(m)]) / 2 e^{j phi_m} with col(m) = (m + 1) mod R, so with
    T = H_R scatter(e^{j phi} F / 2), where scatter puts row m of F at row
    col(m), row i of the product is T[0] + T[i] (row 0 of H_R is all ones).
    The scattered factors are staged in ``out`` and transformed there a block
    of columns at a time (:func:`hadamard_transform`), all factors in one
    pass. Any other set is multiplied a block of rows at a time.

    A set whose rows pair (:attr:`MaskSet.paired`) has only its first
    h = R/2 rows written, and ``out`` needs only h rows. Sylvester's
    H_R = H_2 (x) H_h splits the last point's column h off: with T_h the
    order-h transform of the other M - 1 points and v = e^{j phi_{M-1}}
    F[M-1], row i < h of the product is T_h[0] + T_h[i] + v and row i + h
    is T_h[0] + T_h[i], so the transform has half the order, and v is
    returned: row i + h is row i - v. Returns None for any other set.
    """
    if not (isinstance(masks, MaskSet) and masks.design is not None):
        vectors = masks.stored if isinstance(masks, MaskSet) else masks
        step = max(1, _CHUNK_ENTRIES // out.shape[1])
        lo = 0
        for factor in factors:
            hi = lo + factor.shape[1]
            for start in range(0, len(vectors), step):
                out[start : start + step, lo:hi] = vectors[start : start + step] @ factor
            lo = hi
            del factor  # freed before the next one is drawn
        return None
    paired = masks.paired
    order, scattered = masks.distinct_rows, masks.points
    if paired:  # the last point's column, order / 2, is split off
        order, scattered = order // 2, scattered - 1
    phasor = np.ones(masks.points) if masks.phase is None else masks._phasor
    half_phase = 0.5 * phasor[:scattered, None]
    columns = hadamard_columns(order, scattered)
    lo, last_rows = 0, [np.zeros(0, dtype=np.complex128)]
    for factor in factors:
        hi = lo + factor.shape[1]
        out[columns, lo:hi] = factor[:scattered] * half_phase
        if paired:
            last_rows.append(factor[scattered] * phasor[scattered])
        lo = hi
        del factor  # freed before the next one is drawn
    partner = np.concatenate(last_rows) if paired else None
    stage = out[:order, :lo]
    if scattered < order:  # rows no point scatters to
        stage[0] = 0.0
        stage[scattered + 1 :] = 0.0
    step = max(1, _CHUNK_ENTRIES // order)
    for start in range(0, stage.shape[1], step):
        block = slice(start, start + step)
        transformed = hadamard_transform(stage[:, block])
        first = transformed[0].copy()
        if partner is not None:
            first += partner[block]
        transformed += first
        stage[:, block] = transformed
        del transformed  # freed before the next block is transformed
    return partner


def mask_covariance(masks: MaskSet, ref_index: int) -> np.ndarray:
    """Empirical covariance of every mask point against a reference point.

    v_m = <u_i(m) u_i(m0)> - <u_i(m)> <u_i(m0)> over the measurement index,
    where u are the mask amplitude values (:attr:`MaskSet.moments`). Ideal
    plane masks give exactly (1/4) times the indicator of the reference point.
    """
    u = masks.moments[0]
    if not 0 <= ref_index < u.shape[1]:
        raise DimensionMismatch(f"reference index {ref_index} outside 0..{u.shape[1] - 1}")
    ref = u[:, ref_index]
    return (u * ref[:, None]).mean(axis=0) - u.mean(axis=0) * ref.mean()


# --- disk export ----------------------------------------------------------------
#
# The ``em_core.complex_file_writer`` layout with the header line
# "kind=<kind> count=<I> points=<M> fingerprint=<hex>\n", one vector set
# (masks, or the profiles that ``ris_synthesis.profile_writer`` exports) per
# file.


def mask_file_writer(
    path: str | Path, kind: str, shape: tuple[int, int], fingerprint: str, period: int | None = None
):
    """An export of ``kind`` vectors of ``shape`` (count, points), written a
    block of rows at a time through ``write(block, start)``, in any row
    order, the rows of one ``period`` only when the set repeats them
    (:func:`em_core.complex_file_writer`, preallocated)."""
    header = f"kind={kind} count={shape[0]} points={shape[1]} fingerprint={fingerprint}\n"
    return complex_file_writer(path, header, shape, period, preallocate=True)


def save_mask_vectors(path: str | Path, masks: MaskSet, fingerprint: str) -> None:
    """Export ``masks`` a block of rows at a time (:meth:`MaskSet.row_blocks`),
    so a designed set's (I, M) stack is never formed whole, and a set's
    distinct rows are formed once however often the file repeats them."""
    shape = (masks.count, masks.points)
    with mask_file_writer(path, masks.kind, shape, fingerprint, masks.distinct_rows) as write:
        for rows, block in masks.row_blocks():
            write(block, rows.start)


def load_mask_vectors(path: str | Path) -> tuple[str, np.ndarray, str]:
    """Read one exported vector set; returns (kind, vectors, fingerprint)."""
    kind, fp, vectors = read_complex_file(path, ("count", "points"))
    return kind, vectors, fp
