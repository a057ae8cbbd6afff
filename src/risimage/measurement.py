"""Measurement chain: target scattering, receiver field, and thermal noise.

Noise is circularly-symmetric complex Gaussian added to the complex receiver
field before any magnitude detection. One measurement set draws all of its
noise from one counter-based Philox stream keyed by the seed, so row i
depends only on (seed, i): results never depend on execution order, a
smaller set is a prefix of a larger one, and distinct seeds give independent
streams.
"""

from __future__ import annotations

import csv
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import VACUUM_PERMITTIVITY
from .em_core import psf_vector, text_file_writer
from .errors import DimensionMismatch, EmptySet, KindMismatch, MalformedConfig, MalformedRecords, MissingFile
from .mask_design import KIND_MASK2D, MaskSet
from .scene import PLANE_2D, VOLUME_3D, SampleGrids, ValidatedScene

NOISE_RELATIVE = "relative"  # variance from requested SNR and measured signal power
NOISE_ABSOLUTE = "absolute"  # variance = N0 * B regardless of the signal

DEFAULT_N0_DBM_PER_HZ = -174.0
DEFAULT_BANDWIDTH_HZ = 1.0e6

SEED_LIMIT = 2**128  # Philox takes a 128-bit key


@dataclass(frozen=True)
class TargetModel:
    """Scattering description on the target grid, x-fastest flat ordering.

    Plane targets: ``values`` is the {0,1} coverage map and
    ``reflection_coeff`` the surface reflection coefficient (-1 for a perfect
    conductor). Volume targets: ``values`` is the complex contrast
    (relative permittivity - 1) + j conductivity / (eps0 * omega), so loss
    enters with a positive imaginary part.
    """

    kind: str  # PLANE_2D | VOLUME_3D
    values: np.ndarray  # (M,) float {0,1} or complex contrast
    grid_shape: tuple[int, ...]  # (nx, ny) or (nx, ny, nz)
    reflection_coeff: complex = -1.0 + 0.0j

    @property
    def n_points(self) -> int:
        return self.values.shape[0]


def make_target_2d(values: np.ndarray, grid_shape: tuple[int, int], reflection_coeff: complex = -1.0 + 0.0j) -> TargetModel:
    values = np.asarray(values, dtype=float).reshape(-1)
    if not np.all((values == 0.0) | (values == 1.0)):
        raise ValueError("plane-target coverage values must be exactly 0 or 1")
    values.setflags(write=False)
    return TargetModel(kind=PLANE_2D, values=values, grid_shape=tuple(grid_shape), reflection_coeff=reflection_coeff)


def contrast_from_materials(eps_r: np.ndarray, sigma: np.ndarray, angular_frequency: float) -> np.ndarray:
    """Complex contrast of a dielectric relative to air."""
    return (np.asarray(eps_r, dtype=float) - 1.0) + 1j * np.asarray(sigma, dtype=float) / (
        VACUUM_PERMITTIVITY * angular_frequency
    )


def make_target_3d(contrast: np.ndarray, grid_shape: tuple[int, int, int]) -> TargetModel:
    values = np.asarray(contrast, dtype=np.complex128).reshape(-1)
    values.setflags(write=False)
    return TargetModel(kind=VOLUME_3D, values=values, grid_shape=tuple(grid_shape))


@dataclass(frozen=True)
class Measurements:
    """One simulated measurement set, one row per mask.

    ``noisy`` holds detected magnitudes (float) for plane targets and complex
    fields for volume targets; ``noiseless`` is always the complex field.
    Every row shares ``noise_variance`` and the noise stream key ``seed``. A
    stack of sets measured from the same fields (:func:`stack`) has a
    leading set axis on ``noisy``, and a tuple of each set's variance and
    seed.
    """

    noiseless: np.ndarray  # (I,) complex128
    noisy: np.ndarray  # (I,) or (P, I), float64 or complex128
    noise_variance: float | tuple[float, ...]
    seed: int | tuple[int, ...]

    def __len__(self) -> int:
        """Measurements per set."""
        return self.noisy.shape[-1]


def stack(sets: Sequence[Measurements]) -> Measurements:
    """Measurement sets taken from the same noiseless fields as one stack,
    which a reconstruction estimates a row per set."""
    return Measurements(
        noiseless=sets[0].noiseless,
        noisy=np.stack([meas.noisy for meas in sets]),
        noise_variance=tuple(meas.noise_variance for meas in sets),
        seed=tuple(meas.seed for meas in sets),
    )


def noise_variance(noiseless_fields: np.ndarray, snr_db: float) -> float:
    """Variance giving the requested receiver SNR against the mean signal power."""
    fields = np.asarray(noiseless_fields)
    if fields.size == 0:
        raise EmptySet("SNR is undefined over an empty measurement set")
    return float(np.mean(np.abs(fields) ** 2) / 10.0 ** (snr_db / 10.0))


def noise_power_watts(n0_dbm_per_hz: float = DEFAULT_N0_DBM_PER_HZ, bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ) -> float:
    """Thermal noise power N0 * B in watts."""
    return 10.0 ** ((n0_dbm_per_hz - 30.0) / 10.0) * bandwidth_hz


def noise_power_dbm(n0_dbm_per_hz: float = DEFAULT_N0_DBM_PER_HZ, bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ) -> float:
    """Thermal noise power N0 * B in dBm."""
    return n0_dbm_per_hz + 10.0 * math.log10(bandwidth_hz)


def check_seed(seed: int, streams: int) -> None:
    """Reject seeds whose streams ``seed .. seed + streams - 1`` are not all Philox keys."""
    if not 0 <= seed <= SEED_LIMIT - streams:
        raise MalformedConfig(f"seed must be in 0..2**128-{streams}, got {seed}")


def check_noise_settings(n0_dbm_per_hz: float, bandwidth_hz: float) -> None:
    """Reject a non-finite noise density, a bandwidth that is not a finite
    number > 0, and a pair whose noise power N0 * B (:func:`noise_power_watts`)
    is not a finite normal double."""
    if not math.isfinite(n0_dbm_per_hz):
        raise MalformedConfig(f"n0_dbm_per_hz must be a finite number of dBm/Hz, got {n0_dbm_per_hz!r}")
    if not (math.isfinite(bandwidth_hz) and bandwidth_hz > 0.0):
        raise MalformedConfig(f"bandwidth_hz must be a finite number > 0, got {bandwidth_hz!r}")
    try:
        power = noise_power_watts(n0_dbm_per_hz, bandwidth_hz)
    except OverflowError:
        power = math.inf
    if not sys.float_info.min <= power < math.inf:
        raise MalformedConfig(
            f"n0_dbm_per_hz {n0_dbm_per_hz!r} and bandwidth_hz {bandwidth_hz!r} must give a finite "
            "normal noise power N0 * B"
        )


def check_snr(snr_db: float | None) -> None:
    """Reject an SNR whose power ratio 10^(snr_db/10) is not a finite normal
    double (about -3076 to 3082 dB); ``None`` (noiseless) passes."""
    if snr_db is None:
        return
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not sys.float_info.min <= ratio < math.inf:  # also false for nan
        raise MalformedConfig(f"snr_db must be none or give a finite normal power ratio, got {snr_db!r}")


def complex_noise(variance: float, seed: int, count: int) -> np.ndarray:
    """``count`` circularly-symmetric complex Gaussian draws, one per measurement.

    One Philox stream keyed by the seed and consumed in order, so draw i
    depends only on (seed, i); bit-reproducible and exactly homogeneous in
    sqrt(variance).
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    re, im = rng.standard_normal((count, 2)).T
    return math.sqrt(variance / 2.0) * (re + 1j * im)


class ReceiverFields:
    """The noiseless receiver fields of one mask set, a block of rows at a time.

    Plane targets: a mask induces the surface current (1 - reflection) times
    the mask, so a perfect conductor doubles the field, and the coverage map
    and point spread function weight it on its way to the receiver. Volume
    targets: the Born field k^2 times the voxel volume times the
    contrast-weighted sum of the mask. :meth:`add` takes the complex masks
    of some of the set's distinct rows (from :meth:`MaskSet.row_blocks`, or
    as a reader of ``ris_synthesis.realize_masks``); :meth:`fields` returns
    every row's, as row i has the field of distinct row i mod R.
    Raises :class:`DimensionMismatch` or :class:`KindMismatch` for masks
    that do not fit the target, and :class:`WavenumberOverflow` for a volume
    scene whose k^2 overflows.
    """

    def __init__(self, scene: ValidatedScene, grids: SampleGrids, masks: MaskSet, target: TargetModel):
        if masks.points != target.n_points:
            raise DimensionMismatch(
                f"masks over {masks.points} points do not match the {target.n_points}-point target"
            )
        if masks.kind == KIND_MASK2D:
            if target.kind != PLANE_2D:
                raise KindMismatch("plane masks require a plane target")
            self.weights = psf_vector(scene, grids.target_points) * target.values * grids.target_cell_measure
            self.factor = 1.0 - target.reflection_coeff
        else:
            if target.kind != VOLUME_3D:
                raise KindMismatch("volume masks require a volume target")
            self.weights = target.values
            self.factor = scene.wavenumber_squared * scene.target_cell_measure
        self._products = np.empty(masks.distinct_rows, dtype=np.complex128)
        self._repeats = masks.count // masks.distinct_rows

    def add(self, rows: slice, block: np.ndarray, *_) -> None:
        """Take the masks ``block`` of the set's ``rows``."""
        self._products[rows] = block @ self.weights

    def fields(self) -> np.ndarray:
        """Every row's field, a new read-only array, which every measurement
        of the same set, or of a set of its first rows, can share
        (:func:`measure`)."""
        fields = np.tile(self.factor * self._products, self._repeats)
        fields.setflags(write=False)
        return fields


def noiseless_fields(
    scene: ValidatedScene,
    grids: SampleGrids,
    masks: MaskSet,
    target: TargetModel,
) -> np.ndarray:
    """Complex receiver field per mask row, without noise (:class:`ReceiverFields`).

    A plane set that keeps only the magnitudes of its masks, as a realized
    one does, raises :class:`KindMismatch`: its fields are taken in its
    realization pass instead.
    """
    fields = ReceiverFields(scene, grids, masks, target)
    if masks.magnitudes_only:
        raise KindMismatch(
            "this plane mask set keeps only the magnitudes of its masks, which give no receiver "
            "field; a realized set's fields come from its realization (realize_masks readers)"
        )
    for rows, block in masks.row_blocks():
        fields.add(rows, block)
    return fields.fields()


def measure(
    fields: np.ndarray,
    mask_kind: str,
    snr_db: float | None,
    seed: int,
    noise_mode: str = NOISE_RELATIVE,
    n0_dbm_per_hz: float = DEFAULT_N0_DBM_PER_HZ,
    bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ,
) -> Measurements:
    """Simulate the full measurement set from its noiseless ``fields``.

    ``fields`` come from :func:`noiseless_fields` of a set of ``mask_kind``
    masks, and are computed once for every SNR and seed measured from that
    set. Plane masks (``KIND_MASK2D``) detect the magnitude of each noisy
    field; volume masks keep the complex field. ``snr_db=None`` disables
    noise. In ``relative`` mode the variance is set from the requested SNR
    against the simulated signal power; in ``absolute`` mode it is the
    thermal power N0 * B. Deterministic under a fixed seed.
    """
    if snr_db is None:
        variance = 0.0
    elif noise_mode == NOISE_RELATIVE:
        variance = noise_variance(fields, snr_db)
    elif noise_mode == NOISE_ABSOLUTE:
        variance = noise_power_watts(n0_dbm_per_hz, bandwidth_hz)
    else:
        raise ValueError(f"unknown noise mode {noise_mode!r}")

    noise = complex_noise(variance, seed, fields.shape[0]) if variance > 0.0 else 0.0
    noisy = fields + noise
    if mask_kind == KIND_MASK2D:
        # hypot matches Python's abs(complex) bit for bit; np.abs does not
        noisy = np.hypot(noisy.real, noisy.imag)
    return Measurements(
        noiseless=fields,
        noisy=noisy,
        noise_variance=float(variance),
        seed=seed,
    )


# --- CSV export ------------------------------------------------------------------

_CSV_FIELDS = ["index", "re_noiseless", "im_noiseless", "value_noisy_or_re", "im_if_3d", "sigma2", "seed"]


def records_to_csv(path: str | Path, meas: Measurements) -> None:
    """RFC-4180 CSV; the noisy value is one column for magnitudes, two for fields.

    The ``sigma2`` and ``seed`` columns repeat the set-wide variance and
    stream key on every row. A stack of sets (:func:`stack`) has no such
    columns: it raises :class:`DimensionMismatch` before ``path`` is touched.
    """
    if meas.noisy.ndim != 1:
        raise DimensionMismatch(f"records hold one measurement set, not a stack of {len(meas.noisy)}")
    variance = repr(meas.noise_variance)
    with text_file_writer(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        rows = zip(meas.noiseless.tolist(), meas.noisy.tolist())
        for index, (noiseless, noisy) in enumerate(rows):
            if isinstance(noisy, complex):
                noisy_re, noisy_im = repr(noisy.real), repr(noisy.imag)
            else:
                noisy_re, noisy_im = repr(noisy), ""
            writer.writerow(
                [index, repr(noiseless.real), repr(noiseless.imag), noisy_re, noisy_im, variance, meas.seed]
            )


def records_from_csv(path: str | Path) -> Measurements:
    """Read a file written by :func:`records_to_csv`. A cell that is not a
    finite number (``nan``, ``inf``, or one that overflows, like ``1e400``)
    raises :class:`MalformedRecords` naming its row and column."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != _CSV_FIELDS:
                raise MalformedRecords(f"{path}: unexpected measurement CSV header {reader.fieldnames!r}")
            rows = list(reader)
    except FileNotFoundError as exc:
        raise MissingFile(f"no such measurement file: {path}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MalformedRecords(f"{path}: not a measurement CSV file: {exc}") from exc

    def number(index: int, column: str) -> float:
        text = rows[index][column]
        try:
            value = float(text)
        except (ValueError, TypeError) as exc:  # a non-numeric cell, or None in a short row
            raise MalformedRecords(f"{path}: unreadable measurement row {index}, column {column}: {exc}") from exc
        if not math.isfinite(value):
            raise MalformedRecords(f"{path}: row {index}, column {column} is {text!r}, not a finite number")
        return value

    noiseless, noisy = [], []
    for index, row in enumerate(rows):
        noiseless.append(complex(number(index, "re_noiseless"), number(index, "im_noiseless")))
        value = number(index, "value_noisy_or_re")
        noisy.append(complex(value, number(index, "im_if_3d")) if row["im_if_3d"] else value)
    noise_variance = number(0, "sigma2") if rows else 0.0
    try:
        seed = int(rows[0]["seed"]) if rows else 0
    except (ValueError, TypeError) as exc:
        raise MalformedRecords(f"{path}: unreadable measurement row 0, column seed: {exc}") from exc
    return Measurements(
        noiseless=np.array(noiseless, dtype=np.complex128),
        noisy=np.array(noisy),
        noise_variance=noise_variance,
        seed=seed,
    )
