"""Experiment orchestration: plans, sweeps, caching, and run-directory output.

A plan expands into the Cartesian product of target distances, measurement
counts, and SNR settings, run one point at a time in that nesting order: a
distance builds its kernel and regularized inverse once, a mask count at it
builds its mask set once, and the SNR points, which differ only in noise,
reuse them. Everything derived from the plan seed is deterministic: re-running a
plan reproduces the metrics CSV byte for byte (wall-clock timings therefore
live in a separate file).
"""

from __future__ import annotations

import csv
import os
import time
from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import em_core, mask_design, measurement, reconstruct, ris_synthesis
from .errors import CacheMismatch, ImagingError, MalformedConfig
from .mask_design import MaskSet
from .measurement import TargetModel
from .scene import (
    SampleGrids,
    SceneConfig,
    ValidatedScene,
    check_scene_dimensions,
    check_target_distance,
    load_scene_config,
    parse_key_values,
    read_config_text,
    read_fields,
    sample_grids,
    validate_scene,
    with_target_distance,
)
from .targets import check_target_spec, resolve_target, write_grid_image

METRICS_FIELDS = ["I", "snr_db", "z_prime", "gamma", "nmse", "retained_rank", "seed"]
TIMINGS_FIELDS = ["I", "snr_db", "z_prime", "wall_ms"]

# Allowed values of the plan's mode options.
PLAN_MODES = {
    "calibration": (reconstruct.CALIBRATE_NONE, reconstruct.CALIBRATE_MAX1, reconstruct.CALIBRATE_LSQ),
    "noise_mode": (measurement.NOISE_RELATIVE, measurement.NOISE_ABSOLUTE),
    "phase_mode": (mask_design.PHASE_TAYLOR, mask_design.PHASE_EXACT),
    "truncation_mode": (ris_synthesis.TRUNCATE_SIGMA_SQ, ris_synthesis.TRUNCATE_SIGMA),
}


def default_gamma(z_prime: float) -> float:
    """Regularization weight per target distance; distances outside the studied
    2..8 m band clamp to the nearest band (scaled desk geometries land below it)."""
    if z_prime <= 3.0:
        return 1e-12
    if z_prime <= 5.0:
        return 1e-14
    return 1e-15


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything one sweep needs: scene, target source, axes, and options; a
    plan file sets each field by its declared type (``scene.read_fields``)."""

    scene: SceneConfig
    target: str = "block"
    i_values: tuple[int, ...] = (256,)
    snr_values: tuple[float | None, ...] = (None,)
    z_values: tuple[float, ...] = ()  # empty: keep the scene's target distance
    gamma: float | None = None  # None: default per target distance
    threshold_factor: float = ris_synthesis.DEFAULT_THRESHOLD_FACTOR
    truncation_mode: str = ris_synthesis.TRUNCATE_SIGMA_SQ
    seed: int = 0
    output_dir: str = "runs/out"
    calibration: str = reconstruct.CALIBRATE_MAX1
    noise_mode: str = measurement.NOISE_RELATIVE
    phase_mode: str = mask_design.PHASE_TAYLOR
    ideal_masks: bool = False
    keep_artifacts: bool = False
    n0_dbm_per_hz: float = measurement.DEFAULT_N0_DBM_PER_HZ
    bandwidth_hz: float = measurement.DEFAULT_BANDWIDTH_HZ

    def resolved_z_values(self) -> tuple[float, ...]:
        return self.z_values if self.z_values else (self.scene.target_distance,)

    def validate(self) -> None:
        """Reject every bad plan value before anything runs. Without
        ``z_values`` the scene is validated whole at its own distance; with
        them, the bounds that depend on the target distance are checked per
        point, so a swept distance outside them fails only its own points."""
        if self.z_values:
            check_scene_dimensions(self.scene)
            for z_prime in self.z_values:
                check_target_distance(z_prime)
        else:
            validate_scene(self.scene)
        if not self.i_values:
            raise MalformedConfig("i_values must be nonempty")
        # the sample count does not depend on z', so ideal_masks would apply
        # this same rule at every point
        for count in self.i_values:
            mask_design.check_measurement_count(count, self.scene.n_target)
        if not self.snr_values:
            raise MalformedConfig("snr_values must be nonempty")
        # every sweep point draws its noise from its own stream, seed + index
        n_points = len(self.resolved_z_values()) * len(self.i_values) * len(self.snr_values)
        measurement.check_seed(self.seed, streams=n_points)
        for snr_db in self.snr_values:
            measurement.check_snr(snr_db)
        measurement.check_noise_settings(self.n0_dbm_per_hz, self.bandwidth_hz)
        ris_synthesis.check_threshold_factor(self.threshold_factor)
        check_target_spec(self.target)
        if self.gamma is not None:
            ris_synthesis.check_gamma(self.gamma)
        for key, allowed in PLAN_MODES.items():
            if getattr(self, key) not in allowed:
                raise MalformedConfig(f"{key} must be one of {allowed}, got {getattr(self, key)!r}")


@dataclass
class PointResult:
    """Outcome of one sweep point, in plan order."""

    index: int
    z_prime: float
    n_measurements: int
    snr_db: float | None
    gamma: float
    seed: int
    nmse: float | None = None
    retained_rank: int | None = None
    wall_ms: float = 0.0
    error: str | None = None


@dataclass
class RunResult:
    run_dir: Path
    points: list[PointResult]
    kernel_builds: int


def _error_text(exc: ImagingError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _load_or_build_kernel(
    scene: ValidatedScene, grids: SampleGrids, cache_dir: Path | None
) -> tuple[em_core.KernelMatrix, bool]:
    """The scene's kernel from the disk cache or a fresh build, and whether it was built.

    A cache file that does not load (truncated, stale, or another scene's)
    is rebuilt and rewritten rather than failing the point.
    """
    cache_file = cache_dir / f"kernel_{scene.fingerprint[:16]}.bin" if cache_dir else None
    if cache_file is not None and cache_file.exists():
        try:
            return em_core.load_kernel(cache_file, scene, grids), False
        except CacheMismatch:
            pass  # rebuilt and rewritten below
    kernel = em_core.assemble_kernel(scene, grids)
    if cache_file is not None:
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        em_core.save_kernel(cache_file, kernel)
    return kernel, True


def _shared_builds(
    plan: ExperimentPlan, result: RunResult
) -> Iterator[tuple[list[PointResult], tuple | ImagingError]]:
    """Build what each run of points at one distance and mask count shares.

    Yields ``(group, shared)`` in plan order, where ``shared`` is
    ``(scene, grids, target, psf, masks, inv, noiseless)`` or the error that
    stopped one of those builds. A distance's scene, grids, target and PSF
    are built once, its kernel and regularized inverse once, at the first
    mask count that needs them. Each mask set's noiseless receiver fields are
    computed once, for every SNR point measured from it; the set keeps its
    own moments for reconstruction (``MaskSet.moments``). Under
    ``keep_artifacts`` each mask set is exported as soon as it is built;
    otherwise the inverse drops its sector blocks once it is built, since
    realizing masks reads only its target-side factors.
    """
    cache_dir = result.run_dir / "kernels" if plan.keep_artifacts else None
    artifact_dir = result.run_dir / "artifacts" if plan.keep_artifacts else None
    for z_prime, at_distance in groupby(result.points, key=attrgetter("z_prime")):
        at_distance = list(at_distance)
        try:
            scene = validate_scene(with_target_distance(plan.scene, z_prime))
            grids = sample_grids(scene)
            target = resolve_target(plan.target, scene)
            psf = None if scene.is_3d else em_core.psf_vector(scene, grids.target_points)
        except ImagingError as exc:
            yield at_distance, exc
            continue
        fp = scene.fingerprint
        amplification = scene.config.amplification
        inv = None
        for count, group in groupby(at_distance, key=attrgetter("n_measurements")):
            group = list(group)
            stem = f"{fp[:16]}_I{count}"
            try:
                masks = ideal = mask_design.ideal_masks(scene, grids, count, plan.phase_mode)
                if artifact_dir is not None:
                    mask_design.save_mask_vectors(artifact_dir / f"masks_ideal_{stem}.bin", ideal, fp)
                if not plan.ideal_masks:
                    if inv is None:
                        kernel, built = _load_or_build_kernel(scene, grids, cache_dir)
                        result.kernel_builds += built
                        inv = ris_synthesis.tikhonov_inverse(
                            kernel, group[0].gamma, plan.threshold_factor, plan.truncation_mode
                        )
                        del kernel  # the inverse holds its sector blocks, not the kernel
                        if artifact_dir is None:  # no profile maps back to the aperture
                            inv = inv.without_blocks()
                    masks = ris_synthesis.realize_masks(inv, ideal, amplification)
                    if artifact_dir is not None:
                        export_synthesis(artifact_dir, f"_{stem}", fp, inv, ideal, masks, amplification)
                noiseless = measurement.noiseless_fields(scene, grids, masks, target)
            except ImagingError as exc:
                yield group, exc
                continue
            del ideal  # a realized set no longer needs the design while its points run
            yield group, (scene, grids, target, psf, masks, inv, noiseless)


def export_synthesis(
    directory: Path, suffix: str, fp: str, inv, ideal: MaskSet, realized: MaskSet, amplification: float
) -> None:
    """Write one synthesized mask set to ``directory``: its realized masks,
    coefficient profiles and synthesis summary, each file stem ending in ``suffix``."""
    mask_design.save_mask_vectors(directory / f"masks_realized{suffix}.bin", realized, fp)
    ris_synthesis.save_profiles(directory / f"profiles{suffix}.bin", inv, ideal, amplification, fp)
    ris_synthesis.write_synthesis_summary(
        directory / f"synthesis{suffix}.txt", inv, ideal, realized, amplification
    )


def score(
    scene: ValidatedScene, grids: SampleGrids, psf, meas, masks: MaskSet, calibration: str, truth: np.ndarray
) -> tuple[np.ndarray, float]:
    """Reconstruct ``meas`` by the scene's kind (``psf`` is the plane PSF,
    ``None`` for a volume), remove the cell measure, calibrate against
    ``truth`` and return the calibrated estimate and its NMSE."""
    if scene.is_3d:
        result = reconstruct.reconstruct_3d(scene, meas, masks)
    else:
        result = reconstruct.reconstruct_2d(meas, masks, psf)
    # Remove the known physical cell measure before any calibration.
    scaled = result.estimate / grids.target_cell_measure
    calibrated = reconstruct.calibrate_estimate(scaled, calibration, truth)
    return calibrated, reconstruct.nmse(truth, calibrated)


def _score_point(
    plan: ExperimentPlan,
    point: PointResult,
    scene: ValidatedScene,
    grids: SampleGrids,
    target: TargetModel,
    psf: np.ndarray | None,
    masks: MaskSet,
    inv: ris_synthesis.RegularizedInverse | None,
    noiseless: np.ndarray,
) -> None:
    """Measure ``masks``, whose ``noiseless`` receiver fields the group shares,
    then reconstruct and score one point and write its estimate images."""
    try:
        meas = measurement.measure(
            noiseless,
            masks.kind,
            point.snr_db,
            point.seed,
            noise_mode=plan.noise_mode,
            n0_dbm_per_hz=plan.n0_dbm_per_hz,
            bandwidth_hz=plan.bandwidth_hz,
        )
        calibrated, point.nmse = score(scene, grids, psf, meas, masks, plan.calibration, target.values)
    except ImagingError as exc:
        point.error = _error_text(exc)
        return
    point.retained_rank = inv.retained_rank if inv is not None else None
    write_estimate_images(
        Path(plan.output_dir) / f"estimate_{point.index:03d}.pgm", calibrated, target.grid_shape
    )


def plan_points(plan: ExperimentPlan) -> list[PointResult]:
    """Expand the plan axes into ordered sweep points with derived seeds."""
    points = []
    index = 0
    for z_prime in plan.resolved_z_values():
        for n_measurements in plan.i_values:
            for snr_db in plan.snr_values:
                points.append(
                    PointResult(
                        index=index,
                        z_prime=z_prime,
                        n_measurements=n_measurements,
                        snr_db=snr_db,
                        gamma=plan.gamma if plan.gamma is not None else default_gamma(z_prime),
                        seed=plan.seed + index,
                    )
                )
                index += 1
    return points


def run_plan(plan: ExperimentPlan) -> RunResult:
    """Execute every sweep point in plan order and write the run directory.

    Contents: resolved config snapshot, metrics.csv (deterministic given the
    seed), timings.csv, one estimate image per point (per slice and component
    for volumes), errors.log for failed points, and mask/profile exports when
    ``keep_artifacts`` is set.
    """
    plan.validate()
    run_dir = Path(plan.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_snapshot(run_dir / "config_snapshot.txt", plan)
    if plan.keep_artifacts:
        (run_dir / "artifacts").mkdir(exist_ok=True)

    result = RunResult(run_dir=run_dir, points=plan_points(plan), kernel_builds=0)
    started = time.perf_counter()
    for group, shared in _shared_builds(plan, result):
        for point in group:
            if isinstance(shared, ImagingError):
                point.error = _error_text(shared)
            else:
                _score_point(plan, point, *shared)
            # a group's first point also waited for the builds its group shares
            now = time.perf_counter()
            point.wall_ms, started = (now - started) * 1000.0, now
        # drop this group's kernel and masks before the next group is built
        del shared

    _write_csv(
        run_dir / "metrics.csv",
        METRICS_FIELDS,
        (
            (p.n_measurements, p.snr_db, p.z_prime, p.gamma, p.nmse, p.retained_rank, p.seed)
            for p in result.points
        ),
    )
    _write_csv(
        run_dir / "timings.csv",
        TIMINGS_FIELDS,
        ((p.n_measurements, p.snr_db, p.z_prime, f"{p.wall_ms:.3f}") for p in result.points),
    )
    errors = [f"point {p.index}: {p.error}" for p in result.points if p.error is not None]
    if errors:
        (run_dir / "errors.log").write_text("\n".join(errors) + "\n")
    return result


# Environment variables that set the BLAS thread count; summation order, and
# so the last digits of metrics.csv, depend on it.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"
    return f"{blas['name']} {blas.get('version', '')}".strip()


def _write_snapshot(path: Path, plan: ExperimentPlan) -> None:
    """The resolved plan and scene, then the numpy version, BLAS build and BLAS
    thread settings that the last digits of ``metrics.csv`` depend on."""
    lines = []
    for f in fields(plan.scene):
        lines.append(f"scene.{f.name} = {getattr(plan.scene, f.name)!r}")
    for f in fields(plan):
        if f.name == "scene":
            continue
        lines.append(f"plan.{f.name} = {getattr(plan, f.name)!r}")
    lines.append(f"env.numpy = {np.__version__!r}")
    lines.append(f"env.blas = {_blas_name()!r}")
    lines.extend(f"env.{var} = {os.environ.get(var)!r}" for var in _BLAS_THREAD_VARS)
    path.write_text("\n".join(lines) + "\n")


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``header`` and then ``rows``, each cell through :func:`_csv_value`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_csv_value(value) for value in row] for row in rows)


def write_estimate_images(path: Path, estimate: np.ndarray, grid_shape: tuple[int, ...]) -> None:
    """Write a flat estimate as grey-level images.

    A plane grid (nx, ny) goes to ``path`` itself; a volume (nx, ny, nz) goes
    to ``<stem>_slice<iz>_re.pgm`` and ``_im.pgm`` beside it, one pair per slice.
    """
    if len(grid_shape) == 2:
        nx, ny = grid_shape
        write_grid_image(path, estimate.reshape(ny, nx).T)  # back to [ix, iy]
        return
    nx, ny, nz = grid_shape
    volume = estimate.reshape(nz, ny, nx)
    for iz in range(nz):
        slice_grid = volume[iz].T  # [ix, iy]
        write_grid_image(path.with_name(f"{path.stem}_slice{iz}_re.pgm"), slice_grid.real)
        write_grid_image(path.with_name(f"{path.stem}_slice{iz}_im.pgm"), slice_grid.imag)


# --- plan files --------------------------------------------------------------------

def parse_plan(text: str, base_dir: Path | None = None) -> ExperimentPlan:
    """Build an :class:`ExperimentPlan` from the flat key-value format.

    The keys are its field names (:func:`~risimage.scene.read_fields`), and
    ``scene`` names the scene config file (relative to the plan file). The
    sweep axes are comma-separated lists, with ``none`` allowed in
    ``snr_values`` for noiseless points.
    """
    values = parse_key_values(text)
    if "scene" not in values:
        raise MalformedConfig("plan needs a 'scene = <path>' entry")
    scene_path = Path(values.pop("scene"))
    if base_dir is not None and not scene_path.is_absolute():
        scene_path = base_dir / scene_path
    scene = load_scene_config(scene_path)
    # Points run one after another; plan files written when they could run
    # on a thread pool may still say "workers = 1".
    try:
        workers = int(values.pop("workers", "1"))
    except ValueError as exc:
        raise MalformedConfig(f"bad plan value for workers: {exc}") from exc
    if workers != 1:
        raise MalformedConfig("workers must be 1: sweep points run one after another")
    return ExperimentPlan(scene=scene, **read_fields(ExperimentPlan, values, "plan"))


def load_plan(path: str | Path) -> ExperimentPlan:
    path = Path(path)
    return parse_plan(read_config_text(path), base_dir=path.parent)
