"""Reflection-coefficient synthesis: truncated-SVD Tikhonov inversion + power scaling.

The kernel K = U Sigma V^H is decomposed once and reused across every mask of
a measurement set; the regularized inverse maps each ideal mask b to the
coefficient vector p = V Lambda U^H b that best reproduces it under the
quadratic penalty, and each vector is then scaled onto the aperture power
budget ||p||^2 = N * P_I.

Only the target-side factors U and sigma are ever formed. A wide kernel
K = R^T Q^T (QR of K^T) shares them with its square triangular factor R^T, so
the SVD runs on that M x M factor; the realized mask K p = U diag(sigma
lambda) U^H b and the norm ||p|| = ||Lambda U^H b|| then need neither V nor p.
The coefficient profiles themselves come from :func:`synthesis_profiles` and
are formed only when they are exported.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .em_core import KIND_Y3D, KIND_Z2D, KernelMatrix, write_complex_file
from .errors import (
    DimensionMismatch,
    KindMismatch,
    MalformedConfig,
    NonPositiveDimension,
    SvdFailure,
    ZeroSolution,
)
from .mask_design import KIND_MASK2D, KIND_MASK3D, MaskSet

TRUNCATE_SIGMA_SQ = "sigma_sq"  # drop modes with sigma^2 < factor * gamma (default)
TRUNCATE_SIGMA = "sigma"  # drop modes with sigma < factor * gamma (literal reading)

DEFAULT_THRESHOLD_FACTOR = 1e-5

_KERNEL_TO_MASK_KIND = {KIND_Z2D: KIND_MASK2D, KIND_Y3D: KIND_MASK3D}


@dataclass(frozen=True)
class RegularizedInverse:
    """Truncated-SVD Tikhonov pseudo-inverse of a propagation kernel.

    ``inv_sigma`` holds sigma / (sigma^2 + gamma) for retained singular values
    and exactly zero for truncated ones; ``retained_rank`` counts the former.
    The right singular vectors are never stored: ``kernel`` maps back to the
    aperture side where a solution is needed.
    """

    kernel: KernelMatrix
    u: np.ndarray  # (M, K)
    sigma: np.ndarray  # (K,)
    inv_sigma: np.ndarray  # (K,)
    gamma: float
    threshold_factor: float
    truncation_mode: str
    retained_rank: int

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        """Regularized solution V Lambda U^H rhs for one vector or a stack.

        Evaluated as K^H U diag(lambda / sigma) U^H rhs, which is the same
        vector since K^H U = V Sigma; modes with sigma = 0 get weight zero.
        """
        rhs = np.asarray(rhs, dtype=np.complex128)
        if rhs.shape[0] != self.u.shape[0]:
            raise DimensionMismatch(
                f"right-hand side of length {rhs.shape[0]} does not match M={self.u.shape[0]}"
            )
        weight = np.divide(
            self.inv_sigma, self.sigma, out=np.zeros_like(self.sigma), where=self.sigma > 0.0
        )
        weighted = weight[:, None] * (self.u.conj().T @ rhs.reshape(rhs.shape[0], -1))
        solution = self.kernel.entries.conj().T @ (self.u @ weighted)
        return solution[:, 0] if rhs.ndim == 1 else solution


def check_threshold_factor(threshold_factor: float) -> None:
    """Reject a truncation threshold factor that is NaN or negative."""
    if not threshold_factor >= 0.0:
        raise MalformedConfig(f"threshold_factor must be >= 0, got {threshold_factor!r}")


def _spectral_factor(entries: np.ndarray) -> np.ndarray:
    """A matrix with the kernel's left singular vectors and singular values.

    For a wide M x N kernel that is the M x M factor R^T of K^T = Q R
    (K K^H = R^T conj(R), as Q^H Q = I), so the SVD never touches an N-long
    dimension; otherwise the kernel itself. ``entries.T`` is a view, so no
    conjugated copy of the kernel is made.
    """
    m, n = entries.shape
    if m < n:
        return np.linalg.qr(entries.T, mode="r").T
    return entries


def tikhonov_inverse(
    kernel: KernelMatrix,
    gamma: float,
    threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
    truncation_mode: str = TRUNCATE_SIGMA_SQ,
) -> RegularizedInverse:
    """SVD the kernel's square factor and build the regularized inverse spectrum.

    Modes whose singular value falls below the truncation threshold are zeroed
    outright; raising ``threshold_factor`` can only shrink the retained rank.
    """
    if not gamma > 0.0:
        raise NonPositiveDimension(f"regularization weight must be > 0, got {gamma!r}")
    if truncation_mode not in (TRUNCATE_SIGMA_SQ, TRUNCATE_SIGMA):
        raise ValueError(f"unknown truncation mode {truncation_mode!r}")
    try:
        u, sigma, _ = np.linalg.svd(_spectral_factor(kernel.entries), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge on a {kernel.entries.shape} kernel") from exc

    if truncation_mode == TRUNCATE_SIGMA_SQ:
        keep = sigma**2 >= threshold_factor * gamma
    else:
        keep = sigma >= threshold_factor * gamma
    inv_sigma = np.where(keep, sigma / (sigma**2 + gamma), 0.0)
    inv_sigma.setflags(write=False)
    return RegularizedInverse(
        kernel=kernel,
        u=u,
        sigma=sigma,
        inv_sigma=inv_sigma,
        gamma=gamma,
        threshold_factor=threshold_factor,
        truncation_mode=truncation_mode,
        retained_rank=int(np.count_nonzero(inv_sigma)),
    )


def _require_nonzero(norms: np.ndarray) -> None:
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroSolution(f"mask {int(zero[0])} lies outside the retained kernel range")


def realize_masks(inv: RegularizedInverse, masks: MaskSet, amplification: float) -> MaskSet:
    """The masks that power-normalised synthesized profiles produce.

    Works in the target-side range space: with c = U^H b per ideal mask b, the
    solution norm is ||lambda c|| and the realized mask is
    U diag(sigma lambda) c scaled onto the power budget. Returns a new set
    whose ``vectors`` are the realized masks.
    """
    kind = inv.kernel.kind
    if _KERNEL_TO_MASK_KIND.get(kind) != masks.kind:
        raise KindMismatch(f"kernel kind {kind!r} cannot realize {masks.kind!r} masks")
    n_samples = inv.kernel.entries.shape[1]
    coeffs = inv.u.conj().T @ masks.vectors.T  # (K, I)
    norms = np.linalg.norm(inv.inv_sigma[:, None] * coeffs, axis=0)
    _require_nonzero(norms)
    scale = np.sqrt(n_samples * amplification) / norms
    realized = ((inv.u @ ((inv.sigma * inv.inv_sigma)[:, None] * coeffs)) * scale[None, :]).T
    realized.setflags(write=False)
    return replace(masks, vectors=realized, amplitudes=None, solution_norms=norms)


def synthesis_profiles(inv: RegularizedInverse, masks: MaskSet, amplification: float) -> np.ndarray:
    """Power-normalised coefficient vectors (I, N) realizing each mask of ``masks``.

    Each row has ||p||^2 = N * amplification; for the ideal set, K p is the
    matching row of the masks returned by :func:`realize_masks`.
    """
    n_samples = inv.kernel.entries.shape[1]
    solutions = inv.apply(masks.vectors.T)  # (N, I)
    norms = np.linalg.norm(solutions, axis=0)
    _require_nonzero(norms)
    return (np.sqrt(n_samples * amplification) * solutions / norms[None, :]).T


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
    fidelity, and per-mask solution norms.

    ``realized_rel_err`` is ||realized * norm / sqrt(N * P_I) - ideal|| / ||ideal||
    per mask: how far the unnormalised realized mask misses the ideal one.
    """
    retained = inv.sigma[inv.inv_sigma > 0.0]
    budget = np.sqrt(inv.kernel.entries.shape[1] * amplification)
    fitted = realized.vectors * (realized.solution_norms / budget)[:, None]
    rel_err = np.linalg.norm(fitted - ideal.vectors, axis=1) / np.linalg.norm(ideal.vectors, axis=1)
    lines = [
        f"retained_rank = {inv.retained_rank}",
        f"gamma = {inv.gamma!r}",
        f"threshold_factor = {inv.threshold_factor!r}",
        f"truncation_mode = {inv.truncation_mode}",
        f"sigma_max = {float(inv.sigma[0])!r}",
        f"sigma_min_retained = {float(retained.min()) if retained.size else 0.0!r}",
        f"realized_rel_err_mean = {float(rel_err.mean())!r}",
        f"realized_rel_err_max = {float(rel_err.max())!r}",
    ]
    lines.extend(f"solution_norm[{i}] = {norm!r}" for i, norm in enumerate(realized.solution_norms))
    Path(path).write_text("\n".join(lines) + "\n")
