"""Correlation reconstruction of targets from measurements plus mask knowledge.

The estimate at each target sample is the measurement-mask covariance divided
by the per-sample mask variance (estimated empirically from the same masks,
so synthesis distortion self-compensates) and, for plane targets, by the
propagation weight magnitude. Sample points whose masks carry no variance are
unreconstructable and set to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, KindMismatch, NonFiniteScore, ZeroTruth
from .mask_design import KIND_MASK2D, KIND_MASK3D, MaskSet
from .measurement import Measurements
from .scene import ValidatedScene

CALIBRATE_NONE = "none"
CALIBRATE_MAX1 = "max1"
CALIBRATE_LSQ = "lsq"  # scalar least-squares fit to the truth; test-only

# Relative floor below which a mask variance counts as zero.
_FLAG_RTOL = 1e-12


@dataclass(frozen=True)
class ReconstructionResult:
    """Estimated target grid plus the mask variance and flags behind it.

    ``estimate`` has a row per measurement set of a stack (:func:`_correlate`),
    which share the flags and variance of their one mask set.
    """

    estimate: np.ndarray  # (M,) or (P, M), float (plane) or complex (volume)
    c_values: np.ndarray  # (M,) empirical mask variance used
    flagged: np.ndarray  # (M,) bool, True where unreconstructable


def zero_variance_flags(c_values: np.ndarray, power: np.ndarray) -> np.ndarray:
    """True where the mask variance is (relatively) zero: point unreconstructable.

    The comparison scale is the largest of the variances and of the mask mean
    square magnitudes ``power`` (:attr:`MaskSet.moments`), so a constant mask
    set flags every point.
    """
    magnitude = np.abs(np.asarray(c_values))
    scale = magnitude.max() if magnitude.size else 0.0
    return magnitude <= _FLAG_RTOL * max(scale, float(power.max()))


def _correlate(
    values: np.ndarray, masks: MaskSet, kind: str, scale: np.ndarray | float
) -> ReconstructionResult:
    """estimate_m = sum_i (v_i - <v>) u_i(m) / (I c_m scale_m) from the
    ``kind`` masks' moments, zero where the mask variance is zero.

    ``values`` is one set of I measurements, or a (P, I) stack of P sets
    taken through the same masks, estimated row by row: the moments, flags
    and denominator are formed once for the stack, and each row is centred
    and folded along its own axis. The moments hold the R distinct rows of
    the set, whose row i is row i mod R, so the centred measurements are
    folded onto them first and the product runs over R rows:
    sum_r (sum_k (v_{r+kR} - <v>)) u_r(m). Each row's product is its own
    matrix-vector product, so a row of a stack sums in the order of a set
    estimated alone.
    """
    if masks.kind != kind:
        raise KindMismatch(f"expected {kind} masks, got {masks.kind}")
    count = values.shape[-1]
    if count != masks.count:
        raise DimensionMismatch(f"{count} measurements for {masks.count} masks")
    vectors, c_values, power = masks.moments
    flagged = zero_variance_flags(c_values, power)
    centred = values - values.mean(axis=-1, keepdims=True)
    if len(vectors) < count:
        centred = centred.reshape(*values.shape[:-1], -1, len(vectors)).sum(axis=-2)
    live = ~flagged
    denominator = (count * c_values * scale)[live]
    estimate = np.zeros(values.shape[:-1] + (masks.points,), dtype=np.result_type(centred, vectors))
    for row, out in zip(centred.reshape(-1, len(vectors)), estimate.reshape(-1, masks.points)):
        out[live] = (row @ vectors)[live] / denominator
    return ReconstructionResult(estimate=estimate, c_values=c_values, flagged=flagged)


def reconstruct_2d(
    meas: Measurements,
    masks: MaskSet,
    psf_values: np.ndarray,
) -> ReconstructionResult:
    """Recover a plane target's coverage map from detected magnitudes.

    estimate_m = sum_i (|E_i| - <|E|>) u_i(m) / (I c_m |K_m|) with u the mask
    amplitudes; a stack of measurement sets (:func:`measurement.stack`)
    gives one estimate row per set. Invariant under adding a constant to
    every measurement and under positive rescaling of all masks (the scaling
    cancels against c). Raises :class:`KindMismatch` for complex records,
    which a volume's measurement keeps.
    """
    if np.iscomplexobj(meas.noisy):
        raise KindMismatch("plane reconstruction needs detected magnitudes, got complex fields")
    psf_values = np.asarray(psf_values)
    if psf_values.shape != (masks.points,):
        raise DimensionMismatch(
            f"PSF vector of shape {psf_values.shape} does not match M={masks.points}"
        )
    return _correlate(meas.noisy.astype(float), masks, KIND_MASK2D, np.abs(psf_values))


def reconstruct_3d(
    scene: ValidatedScene,
    meas: Measurements,
    masks: MaskSet,
) -> ReconstructionResult:
    """Recover a volume target's complex contrast from complex fields.

    estimate_m = sum_i (E_i - <E>) B_i(m) / (I c_m k^2), plain products; a
    stack of measurement sets gives one estimate row per set. Raises
    :class:`KindMismatch` for real records, which a plane's measurement
    detects, :class:`DimensionMismatch` unless the masks cover the scene's
    voxels, and :class:`WavenumberOverflow` when the scene's k^2 overflows.
    """
    if not np.iscomplexobj(meas.noisy):
        raise KindMismatch("volume reconstruction needs complex fields, got detected magnitudes")
    if masks.points != scene.n_target:
        raise DimensionMismatch(f"masks over {masks.points} points for a scene of {scene.n_target} voxels")
    return _correlate(meas.noisy.astype(np.complex128), masks, KIND_MASK3D, scene.wavenumber_squared)


def nmse(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Normalised mean square error ||t - t_hat||^2 / ||t||^2 over flat grids.

    Unreconstructable points count as zeros in the estimate. Raises
    :class:`NonFiniteScore` when a sum overflows (an estimate scaled by
    overwhelming noise and not calibrated) or the NMSE is otherwise not a
    finite number.
    """
    truth = np.asarray(truth).reshape(-1)
    estimate = np.asarray(estimate).reshape(-1)
    if truth.shape != estimate.shape:
        raise DimensionMismatch(f"truth {truth.shape} vs estimate {estimate.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        denominator = float(np.sum(np.abs(truth) ** 2))
        if denominator == 0.0:
            raise ZeroTruth("NMSE is undefined for an all-zero truth grid")
        error = float(np.sum(np.abs(truth - estimate) ** 2) / denominator)
    if not (math.isfinite(error) and math.isfinite(denominator)):
        raise NonFiniteScore(f"NMSE is {error!r}: the squared error or the truth power overflows")
    return error


def calibrate_estimate(
    estimate: np.ndarray, mode: str, truth: np.ndarray | None = None
) -> np.ndarray:
    """Put an estimate on a comparable scale before scoring.

    ``none`` is the identity, ``max1`` divides by the peak value, ``lsq`` fits
    the single scalar minimising the squared error to the truth (test-only,
    needs a truth grid of the estimate's size, else :class:`DimensionMismatch`).
    """
    estimate = np.asarray(estimate)
    if mode == CALIBRATE_NONE:
        return estimate.copy()
    if mode == CALIBRATE_MAX1:
        peak = np.abs(estimate).max() if np.iscomplexobj(estimate) else estimate.max()
        return estimate / peak if peak > 0 else estimate.copy()
    if mode == CALIBRATE_LSQ:
        if truth is None:
            raise ValueError("lsq calibration needs the truth grid")
        truth = np.asarray(truth)
        if truth.size != estimate.size:
            raise DimensionMismatch(f"truth of {truth.size} points vs estimate of {estimate.size}")
        truth = truth.reshape(estimate.shape)
        power = np.vdot(estimate, estimate)
        if power == 0:
            return estimate.copy()
        scale = np.vdot(estimate, truth) / power
        if not (np.iscomplexobj(estimate) or np.iscomplexobj(truth)):
            scale = scale.real
        return scale * estimate
    raise ValueError(f"unknown calibration mode {mode!r}")
