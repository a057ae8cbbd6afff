"""Experiment orchestration: plans, sweeps, caching, and run-directory output.

A plan expands into the Cartesian product of target distances, measurement
counts, and SNR settings. Kernels, their SVDs, and synthesized mask sets are
cached by scene fingerprint so sweep points differing only in noise reuse
them. Everything derived from the plan seed is deterministic: re-running a
plan reproduces the metrics CSV byte for byte (wall-clock timings therefore
live in a separate file).
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
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
    load_scene_config,
    parse_key_values,
    read_config_text,
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
    """Everything one sweep needs: scene, target source, axes, and options."""

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
    workers: int = 1
    n0_dbm_per_hz: float = measurement.DEFAULT_N0_DBM_PER_HZ
    bandwidth_hz: float = measurement.DEFAULT_BANDWIDTH_HZ

    def resolved_z_values(self) -> tuple[float, ...]:
        return self.z_values if self.z_values else (self.scene.target_distance,)

    def validate(self) -> None:
        if not self.i_values:
            raise MalformedConfig("i_values must be nonempty")
        if not self.snr_values:
            raise MalformedConfig("snr_values must be nonempty")
        if self.workers < 1:
            raise MalformedConfig("workers must be >= 1")
        # every sweep point draws its noise from its own stream, seed + index
        n_points = len(self.resolved_z_values()) * len(self.i_values) * len(self.snr_values)
        measurement.check_seed(self.seed, streams=n_points)
        check_target_spec(self.target)
        if self.gamma is not None and not self.gamma > 0.0:
            raise MalformedConfig(f"gamma must be > 0, got {self.gamma!r}")
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
    estimate: np.ndarray | None = None
    grid_shape: tuple[int, ...] | None = None
    error: str | None = None


@dataclass
class RunResult:
    run_dir: Path
    points: list[PointResult]
    kernel_builds: int


class PipelineCache:
    """Shared, fingerprint-keyed intermediates for one run.

    Population happens sequentially; afterwards all entries are read-only and
    safe to share across measure/reconstruct workers.
    """

    def __init__(self) -> None:
        self.scenes: dict[str, ValidatedScene] = {}
        self.grids: dict[str, SampleGrids] = {}
        self.targets: dict[str, TargetModel] = {}
        self.psf: dict[str, np.ndarray] = {}
        self.kernels: dict[str, em_core.KernelMatrix] = {}
        self.inverses: dict[tuple, ris_synthesis.RegularizedInverse] = {}
        self.ideal: dict[tuple, MaskSet] = {}
        self.realized: dict[tuple, MaskSet] = {}
        self.kernel_builds = 0

    def scene_for(self, cfg: SceneConfig) -> tuple[str, ValidatedScene, SampleGrids]:
        scene = validate_scene(cfg)
        fp = scene.fingerprint
        if fp not in self.scenes:
            self.scenes[fp] = scene
            self.grids[fp] = sample_grids(scene)
        return fp, self.scenes[fp], self.grids[fp]

    def kernel_for(self, fp: str, cache_dir: Path | None = None) -> em_core.KernelMatrix:
        """The scene's kernel, from memory, the disk cache, or a fresh build.

        A cache file that does not load (truncated, stale, or another scene's)
        is rebuilt and rewritten rather than failing the point.
        """
        if fp in self.kernels:
            return self.kernels[fp]
        cache_file = cache_dir / f"kernel_{fp[:16]}.bin" if cache_dir else None
        if cache_file is not None and cache_file.exists():
            try:
                self.kernels[fp] = em_core.load_kernel(cache_file, expected_fingerprint=fp)
                return self.kernels[fp]
            except CacheMismatch:
                pass  # rebuilt and rewritten below
        self.kernels[fp] = em_core.assemble_kernel(self.scenes[fp], self.grids[fp])
        self.kernel_builds += 1
        if cache_file is not None:
            cache_file.parent.mkdir(parents=True, exist_ok=True)
            em_core.save_kernel(cache_file, self.kernels[fp])
        return self.kernels[fp]


def _prepare_point(plan: ExperimentPlan, cache: PipelineCache, point: PointResult, cache_dir: Path | None):
    """Populate every cache entry the point needs; returns the working pieces."""
    cfg = with_target_distance(plan.scene, point.z_prime)
    fp, scene, grids = cache.scene_for(cfg)
    if fp not in cache.targets:
        cache.targets[fp] = resolve_target(plan.target, scene)
        if not scene.is_3d:
            cache.psf[fp] = em_core.psf_vector(scene, grids.target_points)
    target = cache.targets[fp]

    mask_key = (fp, point.n_measurements, plan.phase_mode)
    if mask_key not in cache.ideal:
        cache.ideal[mask_key] = mask_design.ideal_masks(
            scene, grids, point.n_measurements, plan.phase_mode
        )
    masks = cache.ideal[mask_key]

    if plan.ideal_masks:
        return scene, grids, target, masks, None

    inv_key = (fp, point.gamma, plan.threshold_factor, plan.truncation_mode)
    if inv_key not in cache.inverses:
        kernel = cache.kernel_for(fp, cache_dir)
        cache.inverses[inv_key] = ris_synthesis.tikhonov_inverse(
            kernel, point.gamma, plan.threshold_factor, plan.truncation_mode
        )
    inv = cache.inverses[inv_key]

    realized_key = mask_key + (point.gamma, plan.threshold_factor, plan.truncation_mode)
    if realized_key not in cache.realized:
        cache.realized[realized_key] = ris_synthesis.realize_masks(
            inv, masks, scene.config.amplification
        )
    return scene, grids, target, cache.realized[realized_key], inv


def _execute_point(
    plan: ExperimentPlan,
    cache: PipelineCache,
    point: PointResult,
    scene: ValidatedScene,
    grids: SampleGrids,
    target: TargetModel,
    masks: MaskSet,
    inv: ris_synthesis.RegularizedInverse | None,
) -> None:
    meas = measurement.measure(
        scene,
        grids,
        masks,
        target,
        point.snr_db,
        point.seed,
        noise_mode=plan.noise_mode,
        n0_dbm_per_hz=plan.n0_dbm_per_hz,
        bandwidth_hz=plan.bandwidth_hz,
    )
    if scene.is_3d:
        result = reconstruct.reconstruct_3d(scene, meas, masks)
    else:
        result = reconstruct.reconstruct_2d(meas, masks, cache.psf[scene.fingerprint])
    # Remove the known physical cell measure before any calibration.
    scaled = result.estimate / grids.target_cell_measure
    calibrated = reconstruct.calibrate_estimate(scaled, plan.calibration, target.values)
    point.nmse = reconstruct.nmse(target.values, calibrated)
    point.retained_rank = inv.retained_rank if inv is not None else None
    point.estimate = calibrated
    point.grid_shape = target.grid_shape


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
    """Execute every sweep point and write the run directory.

    Contents: resolved config snapshot, metrics.csv (deterministic given the
    seed), timings.csv, one estimate image per point (per slice and component
    for volumes), errors.log for failed points, and mask/profile exports when
    ``keep_artifacts`` is set.
    """
    plan.validate()
    run_dir = Path(plan.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = run_dir / "kernels" if plan.keep_artifacts else None
    _write_snapshot(run_dir / "config_snapshot.txt", plan)

    cache = PipelineCache()
    points = plan_points(plan)
    prepared = {}
    for point in points:
        started = time.perf_counter()
        try:
            prepared[point.index] = _prepare_point(plan, cache, point, cache_dir)
        except ImagingError as exc:
            point.error = f"{type(exc).__name__}: {exc}"
        point.wall_ms = (time.perf_counter() - started) * 1000.0

    def _measure_and_score(point: PointResult) -> None:
        if point.error is not None:
            return
        started = time.perf_counter()
        try:
            _execute_point(plan, cache, point, *prepared[point.index])
        except ImagingError as exc:
            point.error = f"{type(exc).__name__}: {exc}"
        point.wall_ms += (time.perf_counter() - started) * 1000.0

    if plan.workers > 1:
        with ThreadPoolExecutor(max_workers=plan.workers) as pool:
            list(pool.map(_measure_and_score, points))
    else:
        for point in points:
            _measure_and_score(point)
    errors = [f"point {p.index}: {p.error}" for p in points if p.error is not None]

    _write_metrics(run_dir / "metrics.csv", points)
    _write_timings(run_dir / "timings.csv", points)
    if errors:
        (run_dir / "errors.log").write_text("\n".join(errors) + "\n")
    for point in points:
        if point.estimate is not None:
            write_estimate_images(
                run_dir / f"estimate_{point.index:03d}.pgm", point.estimate, point.grid_shape
            )
    if plan.keep_artifacts:
        _export_artifacts(run_dir, cache)
    return RunResult(run_dir=run_dir, points=points, kernel_builds=cache.kernel_builds)


def _write_snapshot(path: Path, plan: ExperimentPlan) -> None:
    lines = []
    for f in fields(plan.scene):
        lines.append(f"scene.{f.name} = {getattr(plan.scene, f.name)!r}")
    for f in fields(plan):
        if f.name == "scene":
            continue
        lines.append(f"plan.{f.name} = {getattr(plan, f.name)!r}")
    path.write_text("\n".join(lines) + "\n")


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_metrics(path: Path, points: list[PointResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_FIELDS)
        for p in points:
            writer.writerow(
                [
                    p.n_measurements,
                    _csv_value(p.snr_db),
                    _csv_value(p.z_prime),
                    _csv_value(p.gamma),
                    _csv_value(p.nmse),
                    _csv_value(p.retained_rank),
                    p.seed,
                ]
            )


def _write_timings(path: Path, points: list[PointResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMINGS_FIELDS)
        for p in points:
            writer.writerow(
                [p.n_measurements, _csv_value(p.snr_db), _csv_value(p.z_prime), f"{p.wall_ms:.3f}"]
            )


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


def _export_artifacts(run_dir: Path, cache: PipelineCache) -> None:
    artifact_dir = run_dir / "artifacts"
    artifact_dir.mkdir(exist_ok=True)
    for (fp, count, _phase), masks in cache.ideal.items():
        mask_design.save_mask_vectors(artifact_dir / f"masks_ideal_{fp[:16]}_I{count}.bin", masks, fp)
    for key, realized in cache.realized.items():
        fp, count = key[0], key[1]
        stem = f"{fp[:16]}_I{count}"
        mask_design.save_mask_vectors(artifact_dir / f"masks_realized_{stem}.bin", realized, fp)
        ideal = cache.ideal[key[:3]]
        inv = cache.inverses[(fp,) + key[3:]]
        amplification = cache.scenes[fp].config.amplification
        ris_synthesis.save_profiles(
            artifact_dir / f"profiles_{stem}.bin", inv, ideal, amplification, fp
        )
        ris_synthesis.write_synthesis_summary(
            artifact_dir / f"synthesis_{stem}.txt", inv, ideal, realized, amplification
        )


# --- plan files --------------------------------------------------------------------

_PLAN_BOOL_KEYS = {"ideal_masks", "keep_artifacts"}
_PLAN_FLOAT_KEYS = {"gamma", "threshold_factor", "n0_dbm_per_hz", "bandwidth_hz"}
_PLAN_INT_KEYS = {"seed", "workers"}
_PLAN_STR_KEYS = {"target", "output_dir", "calibration", "noise_mode", "phase_mode", "truncation_mode"}


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise MalformedConfig(f"expected a boolean, got {value!r}")


def parse_plan(text: str, base_dir: Path | None = None) -> ExperimentPlan:
    """Build an :class:`ExperimentPlan` from the flat key-value format.

    ``scene`` names the scene config file (relative to the plan file); the
    sweep axes are comma-separated lists, with ``none`` allowed in
    ``snr_values`` for noiseless points.
    """
    values = parse_key_values(text)
    if "scene" not in values:
        raise MalformedConfig("plan needs a 'scene = <path>' entry")
    scene_path = Path(values.pop("scene"))
    if base_dir is not None and not scene_path.is_absolute():
        scene_path = base_dir / scene_path
    kwargs: dict = {"scene": load_scene_config(scene_path)}
    try:
        if "i_values" in values:
            kwargs["i_values"] = tuple(int(v) for v in values.pop("i_values").split(","))
        if "snr_values" in values:
            kwargs["snr_values"] = tuple(
                None if v.strip().lower() == "none" else float(v)
                for v in values.pop("snr_values").split(",")
            )
        if "z_values" in values:
            kwargs["z_values"] = tuple(float(v) for v in values.pop("z_values").split(","))
        for key in _PLAN_FLOAT_KEYS & values.keys():
            kwargs[key] = float(values.pop(key))
        for key in _PLAN_INT_KEYS & values.keys():
            kwargs[key] = int(values.pop(key))
        for key in _PLAN_BOOL_KEYS & values.keys():
            kwargs[key] = _parse_bool(values.pop(key))
    except MalformedConfig:
        raise
    except ValueError as exc:
        raise MalformedConfig(f"bad plan value: {exc}") from exc
    for key in _PLAN_STR_KEYS & values.keys():
        kwargs[key] = values.pop(key)
    if values:
        raise MalformedConfig(f"unknown plan keys: {sorted(values)}")
    return ExperimentPlan(**kwargs)


def load_plan(path: str | Path) -> ExperimentPlan:
    path = Path(path)
    return parse_plan(read_config_text(path), base_dir=path.parent)
